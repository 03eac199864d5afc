"""Feed placement: analytic efficiency model, grid search and the
pattern-engine refinement stage."""

import numpy as np
import pytest

from risant.constants import db10
from risant.feedopt import (
    MAX_COARSE_CELLS,
    PREDICTED_LOSS_DB,
    FeedSearchSpace,
    aperture_efficiency,
    coarse_optimize_feed,
    optimize_feed,
    realized_feed_gain,
    refine_feed,
)
from risant.geometry import AntennaAssembly, FeedModel, RisArray
from risant.pattern import directivity_upper_bound


def _with_feed(assembly, pos):
    from dataclasses import replace

    return replace(assembly, feed=replace(assembly.feed, position_mm=pos))


@pytest.fixture(scope="module")
def small_space():
    return FeedSearchSpace(x_mm=(-60.0, 60.0), y_mm=(-30.0, 30.0),
                           z_mm=(100.0, 160.0), coarse_step_mm=30.0)


@pytest.fixture(scope="module")
def coarse(assembly, small_space):
    return coarse_optimize_feed(assembly, small_space)


class TestSearchSpace:
    def test_axis_grid_regular(self):
        space = FeedSearchSpace()
        np.testing.assert_allclose(space.axis_grid(0), np.arange(-120.0, 121.0, 20.0))
        np.testing.assert_allclose(space.axis_grid(1), [0.0])
        np.testing.assert_allclose(space.axis_grid(2), np.arange(80.0, 261.0, 20.0))

    def test_axis_grid_keeps_upper_bound(self):
        space = FeedSearchSpace(x_mm=(0.0, 50.0))
        np.testing.assert_allclose(space.axis_grid(0), [0.0, 20.0, 40.0, 50.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            FeedSearchSpace(x_mm=(10.0, -10.0))
        with pytest.raises(ValueError):
            FeedSearchSpace(z_mm=(0.0, 100.0))
        with pytest.raises(ValueError):
            FeedSearchSpace(coarse_step_mm=0.0)
        with pytest.raises(ValueError):
            FeedSearchSpace(refine_offsets_mm=((10.0, 0.0, 0.0),))

    @pytest.mark.parametrize("step", [None, 10.0, 20.0])
    def test_cell_bound_admits_the_searches_in_use(self, step):
        # the default box, and criterion 11's widest box at its two steps
        space = (FeedSearchSpace() if step is None else
                 FeedSearchSpace(x_mm=(-120.0, -20.0), y_mm=(-20.0, 20.0),
                                 z_mm=(90.0, 240.0), coarse_step_mm=step))
        assert np.prod([space.axis_grid(axis).size for axis in range(3)]) <= MAX_COARSE_CELLS

    @pytest.mark.parametrize("step", [0.001, 1e-300])
    def test_cell_bound_rejects_a_fine_step(self, step):
        with pytest.raises(ValueError, match="cells"):
            FeedSearchSpace(coarse_step_mm=step)


class TestApertureEfficiency:
    def test_breakdown_identity(self, assembly):
        br = aperture_efficiency(assembly)
        bound = directivity_upper_bound(assembly.array.aperture_m2,
                                        assembly.frequency_ghz)
        assert br.directivity_dbi == pytest.approx(bound)
        assert br.predicted_gain_dbi == pytest.approx(
            bound + db10(br.eta_spillover * br.eta_illumination) + PREDICTED_LOSS_DB
        )
        assert 0.0 < br.eta_spillover <= 1.0
        assert 0.0 < br.eta_illumination <= 1.0

    def test_distant_feed_flattens_taper_but_wastes_power(self, assembly):
        near = aperture_efficiency(_with_feed(assembly, (0.0, 0.0, 150.0)))
        far = aperture_efficiency(_with_feed(assembly, (0.0, 0.0, 400.0)))
        assert far.eta_illumination > near.eta_illumination
        assert far.eta_spillover < near.eta_spillover

    def test_extreme_distance_limits(self, assembly):
        remote = aperture_efficiency(_with_feed(assembly, (0.0, 0.0, 1e5)))
        assert remote.eta_illumination == pytest.approx(1.0, abs=1e-4)
        assert remote.eta_spillover < 1e-3


class TestCoarseOptimize:
    def test_grid_best_matches_exhaustive_rescan(self, assembly, small_space, coarse):
        best_gain = -np.inf
        best_pos = None
        for x in small_space.axis_grid(0):
            for y in small_space.axis_grid(1):
                for z in small_space.axis_grid(2):
                    br = aperture_efficiency(
                        _with_feed(assembly, (float(x), float(y), float(z))), n_grid=128
                    )
                    if br.predicted_gain_dbi > best_gain:
                        best_gain = br.predicted_gain_dbi
                        best_pos = (float(x), float(y), float(z))
        assert coarse.grid_best_mm == best_pos
        assert coarse.predicted_gain_dbi >= best_gain - 1e-12

    def test_polish_stays_inside_bounds(self, small_space, coarse):
        x, y, z = coarse.position_mm
        assert small_space.x_mm[0] <= x <= small_space.x_mm[1]
        assert small_space.y_mm[0] <= y <= small_space.y_mm[1]
        assert small_space.z_mm[0] <= z <= small_space.z_mm[1]

    def test_symmetric_array_centres_the_feed_in_y(self, coarse, small_space):
        # the lattice and the analytic model are mirror symmetric in y
        assert abs(coarse.position_mm[1]) <= 0.5 * small_space.coarse_step_mm

    def test_evaluation_rows_cover_the_grid(self, small_space, coarse):
        n = (small_space.axis_grid(0).size * small_space.axis_grid(1).size
             * small_space.axis_grid(2).size)
        assert len(coarse.evaluations) == n


class TestRefine:
    def test_zero_offset_identity(self, assembly):
        res = refine_feed(assembly, (-82.0, 0.0, 150.0), offsets_mm=((0.0, 0.0, 0.0),))
        assert res.position_mm == (-82.0, 0.0, 150.0)
        assert res.realized_gain_dbi == pytest.approx(
            realized_feed_gain(assembly, (-82.0, 0.0, 150.0))
        )

    def test_never_below_candidate(self, assembly):
        offsets = ((0.0, 0.0, 0.0), (20.0, 0.0, 0.0), (-20.0, 0.0, 0.0),
                   (0.0, 0.0, 20.0))
        res = refine_feed(assembly, (-82.0, 0.0, 150.0), offsets_mm=offsets)
        zero_row = [r for r in res.evaluations if r[:3] == (0.0, 0.0, 0.0)][0]
        assert res.realized_gain_dbi >= zero_row[3]
        assert len(res.evaluations) == len(offsets)

    def test_offset_list_must_include_zero(self, assembly):
        with pytest.raises(ValueError, match="zero offset"):
            refine_feed(assembly, (-82.0, 0.0, 150.0), offsets_mm=((5.0, 0.0, 0.0),))
        with pytest.raises(ValueError):
            refine_feed(assembly, (-82.0, 0.0, 150.0), offsets_mm=((0.0, 0.0),))

    def test_nominal_position_realized_gain(self, assembly):
        # frozen realized broadside gain of the prototype feed placement
        assert realized_feed_gain(assembly, (-82.0, 0.0, 150.0)) == pytest.approx(
            22.487, abs=0.05
        )


class TestEndToEnd:
    def test_small_space_pipeline(self, assembly):
        space = FeedSearchSpace(
            x_mm=(-100.0, -60.0), y_mm=(0.0, 0.0), z_mm=(130.0, 170.0),
            coarse_step_mm=20.0,
            refine_offsets_mm=((0.0, 0.0, 0.0), (10.0, 0.0, 0.0), (0.0, 0.0, 10.0)),
        )
        result = optimize_feed(assembly, space)
        zero_row = [r for r in result.refined.evaluations if r[:3] == (0.0, 0.0, 0.0)][0]
        assert result.refined.realized_gain_dbi >= zero_row[3]
        x, y, z = result.coarse.position_mm
        assert -100.0 <= x <= -60.0 and y == 0.0 and 130.0 <= z <= 170.0
