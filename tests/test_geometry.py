"""Lattice, grouping, feed geometry and assembly validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risant.constants import MAX_FREQUENCY_GHZ
from risant.geometry import (
    MAX_ARRAY_SIDE,
    MAX_INCIDENCE_PHASE_DRIFT,
    AntennaAssembly,
    Direction,
    FeedModel,
    IncidenceModel,
    RisArray,
    element_positions,
    group_map,
    incidence_angles,
)


class TestElementPositions:
    def test_prototype_lattice_extremes_and_order(self):
        pos = element_positions(32, 32, 5.0)
        assert pos.shape == (1024, 3)
        assert pos[:, 0].min() == pytest.approx(-77.5)
        assert pos[:, 0].max() == pytest.approx(77.5)
        assert pos[:, 1].min() == pytest.approx(-77.5)
        assert pos[:, 1].max() == pytest.approx(77.5)
        assert np.all(pos[:, 2] == 0.0)
        # row-major in y: linear index iy * n_x + ix
        np.testing.assert_allclose(pos[0], [-77.5, -77.5, 0.0])
        np.testing.assert_allclose(pos[1], [-72.5, -77.5, 0.0])
        np.testing.assert_allclose(pos[32], [-77.5, -72.5, 0.0])
        np.testing.assert_allclose(pos[-1], [77.5, 77.5, 0.0])

    @given(
        n_x=st.integers(min_value=1, max_value=12),
        n_y=st.integers(min_value=1, max_value=12),
        period=st.floats(min_value=0.5, max_value=20.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_lattice_is_centred(self, n_x, n_y, period):
        pos = element_positions(n_x, n_y, period)
        np.testing.assert_allclose(pos.mean(axis=0), [0.0, 0.0, 0.0], atol=1e-9 * period)

    def test_neighbour_spacing_equals_period(self):
        pos = element_positions(4, 3, 2.5)
        assert pos[1, 0] - pos[0, 0] == pytest.approx(2.5)
        assert pos[4, 1] - pos[0, 1] == pytest.approx(2.5)

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            element_positions(0, 4, 5.0)
        with pytest.raises(ValueError):
            element_positions(4, 4, 0.0)


class TestGroupMap:
    def test_size_one_is_identity(self):
        np.testing.assert_array_equal(group_map(4, 6, 1), np.arange(24))

    def test_prototype_pairing_along_y(self):
        g = group_map(32, 32, 2, axis="y")
        assert g.max() == 511
        # adjacent rows pair up: element (ix, iy) with (ix, iy+1) for even iy
        for ix in (0, 17, 31):
            for iy in (0, 10, 30):
                a = iy * 32 + ix
                b = (iy + 1) * 32 + ix
                assert g[a] == g[b]
        # neighbours along x never share a bias line
        assert g[0] != g[1]

    def test_full_column_grouping(self):
        g = group_map(32, 32, 32, axis="y")
        assert g.max() == 31
        pos = element_positions(32, 32, 5.0)
        for group in range(32):
            members = pos[g == group]
            assert len(members) == 32
            assert np.unique(members[:, 0]).size == 1  # one x per column

    def test_x_axis_grouping(self):
        g = group_map(4, 2, 2, axis="x")
        np.testing.assert_array_equal(g, [0, 0, 1, 1, 2, 2, 3, 3])

    @given(
        n_x=st.integers(min_value=1, max_value=8),
        n_y=st.sampled_from([2, 4, 6, 8]),
        size=st.sampled_from([1, 2]),
    )
    @settings(max_examples=40, deadline=None)
    def test_partition_properties(self, n_x, n_y, size):
        g = group_map(n_x, n_y, size, axis="y")
        n_groups = g.max() + 1
        assert n_groups * size == n_x * n_y
        counts = np.bincount(g, minlength=n_groups)
        assert np.all(counts == size)  # equal-sized, dense indices

    def test_indivisible_count_names_the_axis(self):
        with pytest.raises(ValueError, match="'y'"):
            group_map(32, 32, 5, axis="y")
        with pytest.raises(ValueError, match="'x'"):
            group_map(6, 4, 4, axis="x")
        with pytest.raises(ValueError):
            group_map(4, 4, 0)
        with pytest.raises(ValueError):
            group_map(4, 4, 2, axis="z")


class TestIncidence:
    @staticmethod
    def _angle(feed, point):
        return incidence_angles(feed, np.array([point], dtype=float))[0]

    def test_element_below_feed_sees_normal_incidence(self):
        feed = FeedModel(position_mm=(-82.0, 0.0, 150.0))
        assert self._angle(feed, (-82.0, 0.0, 0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_forty_five_degree_construction(self):
        feed = FeedModel(position_mm=(0.0, 0.0, 150.0))
        assert self._angle(feed, (150.0, 0.0, 0.0)) == pytest.approx(45.0)

    def test_prototype_corner_value(self):
        feed = FeedModel(position_mm=(-82.0, 0.0, 150.0))
        assert self._angle(feed, (77.5, 77.5, 0.0)) == pytest.approx(
            49.773024320339644, abs=1e-9
        )

    def test_rotation_about_vertical_feed_is_invariant(self):
        feed = FeedModel(position_mm=(0.0, 0.0, 120.0))
        radius = 40.0
        t = np.linspace(0.0, 2.0 * math.pi, 9)
        points = np.column_stack([radius * np.cos(t), radius * np.sin(t), np.zeros(t.size)])
        angles = incidence_angles(feed, points)
        assert max(angles) - min(angles) < 1e-9


class TestDirection:
    def test_axis_unit_vectors(self):
        np.testing.assert_allclose(Direction(0.0, 0.0).unit_vector(), [0, 0, 1], atol=1e-15)
        np.testing.assert_allclose(Direction(90.0, 0.0).unit_vector(), [1, 0, 0], atol=1e-15)
        np.testing.assert_allclose(Direction(0.0, 90.0).unit_vector(), [0, 1, 0], atol=1e-15)

    def test_unit_norm_everywhere(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            d = Direction(float(rng.uniform(-90, 90)), float(rng.uniform(-90, 90)))
            assert np.linalg.norm(d.unit_vector()) == pytest.approx(1.0, abs=1e-12)

    def test_separation(self):
        assert Direction(0.0, 0.0).separation_deg(Direction(90.0, 0.0)) == pytest.approx(90.0)
        assert Direction(30.0, 0.0).separation_deg(Direction(30.0, 0.0)) == pytest.approx(0.0)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            Direction(91.0, 0.0)
        with pytest.raises(ValueError):
            Direction(0.0, -93.0)


class TestFeedModel:
    def test_boresight_points_at_aperture_centre(self):
        feed = FeedModel(position_mm=(-82.0, 0.0, 150.0))
        b = feed.boresight()
        assert np.linalg.norm(b) == pytest.approx(1.0)
        np.testing.assert_allclose(
            feed.position() + np.linalg.norm(feed.position()) * b, [0, 0, 0], atol=1e-9
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            FeedModel(position_mm=(0.0, 0.0, -5.0))
        with pytest.raises(ValueError):
            FeedModel(pattern_exponent=-1.0)


class TestRisArrayAndAssembly:
    def test_prototype_defaults(self):
        arr = RisArray()
        assert arr.n_elements == 1024
        assert arr.n_groups == 512
        assert arr.aperture_m2 == pytest.approx(0.0256)
        assert arr.positions_mm().shape == (1024, 3)

    def test_polarization_validation(self):
        with pytest.raises(ValueError):
            RisArray(polarization="L")

    def test_side_bound_admits_its_limit(self):
        assert RisArray(n_x=MAX_ARRAY_SIDE, n_y=MAX_ARRAY_SIDE).n_elements == MAX_ARRAY_SIDE**2
        for n_x, n_y in ((MAX_ARRAY_SIDE + 1, 1), (1, MAX_ARRAY_SIDE + 1)):
            with pytest.raises(ValueError, match=f"at most {MAX_ARRAY_SIDE}"):
                RisArray(n_x=n_x, n_y=n_y, group_size=1)

    def test_assembly_validation(self):
        with pytest.raises(ValueError):
            AntennaAssembly(frequency_ghz=0.0)
        with pytest.raises(ValueError, match="frequency must be in"):
            AntennaAssembly(frequency_ghz=math.nextafter(MAX_FREQUENCY_GHZ, math.inf))
        # the bound itself is a frequency the models take
        assert AntennaAssembly(frequency_ghz=MAX_FREQUENCY_GHZ).wavelength_mm > 0
        with pytest.raises(ValueError):
            AntennaAssembly(cross_pol_db=3.0)

    def test_wavelength_and_wavenumber(self, assembly):
        assert assembly.frequency_ghz == 26.0
        assert assembly.wavelength_mm == pytest.approx(11.530479153846155)
        assert assembly.k_per_mm * assembly.wavelength_mm == pytest.approx(2.0 * math.pi)

    def test_incidence_model_defaults(self):
        m = IncidenceModel()
        assert m.beta_deg_per_deg2 == pytest.approx(0.004)
        assert m.amplitude_exponent == pytest.approx(0.5)

    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_incidence_phase_drift_bound_admits_its_limit(self, sign):
        limit = sign * MAX_INCIDENCE_PHASE_DRIFT
        assert IncidenceModel(beta_deg_per_deg2=limit).beta_deg_per_deg2 == limit
        with pytest.raises(ValueError, match="phase drift"):
            IncidenceModel(beta_deg_per_deg2=math.nextafter(limit, sign * math.inf))
