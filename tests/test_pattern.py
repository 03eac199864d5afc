"""Far-field synthesis machinery: illumination, the fast lattice path
against a brute-force sum, pattern metrics and efficiency bookkeeping."""

import contextlib
import io
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risant import pattern
from risant.cli import main
from risant.constants import db10
from risant.element import reflection_coefficient
from risant.feedopt import FeedSearchSpace
from risant.geometry import (
    AntennaAssembly,
    Direction,
    FeedModel,
    IncidenceModel,
    RisArray,
    lattice_axis,
)
from risant.pattern import (
    DEFAULT_GRID_STEP_DEG,
    ELEMENT_EXPONENT,
    MIN_GRID_STEP_DEG,
    direction_grid,
    directivity_upper_bound,
    far_field,
    illumination,
    pattern_metrics,
    resolve_reflections,
    spillover_efficiency,
    state_reflections,
    steered_gain,
    steering_row,
    taper_efficiency,
)
from risant.scenario import resolve_scenario
from risant.synthesis import Codeword
from risant.synthesis import continuous_reflections, required_phases, synthesize_codeword


def _spillover_on(assembly, n_grid):
    """`spillover_efficiency` on an n_grid x n_grid mesh (it uses 256)."""
    return pattern._spillover(assembly.array, [assembly.feed], n_grid)[0]


def _unnormalized_illumination(assembly):
    """`illumination` before its power is scaled to the spillover."""
    return pattern._illumination(assembly, [assembly.feed])[1].ravel()


def _plane_wave_assembly(n_x=32, n_y=1):
    """Feed so distant the illumination is uniform in amplitude and phase."""
    return AntennaAssembly(
        array=RisArray(n_x=n_x, n_y=n_y, group_size=1),
        feed=FeedModel(position_mm=(0.0, 0.0, 1e7), pattern_exponent=0.0),
    )


class TestDirectionGrid:
    def test_inclusive_and_increasing(self):
        az, el = direction_grid(0.25)
        assert az[0] == -90.0 and az[-1] == pytest.approx(90.0)
        assert np.all(np.diff(az) > 0)
        assert az.size == el.size == int(180 / 0.25) + 1

    def test_rejects_bad_step(self):
        for step in (0.0, -1.0, 90.5, 200.0):
            with pytest.raises(ValueError):
                direction_grid(step)

    @given(st.floats(min_value=0.01, max_value=90.0))
    @settings(max_examples=200, deadline=None)
    def test_axes_are_mirrored_through_boresight(self, step):
        # a step that does not divide 90 (0.38, say) ends short of +-90
        for axis in direction_grid(step):
            assert np.array_equal(axis, -axis[::-1])
            assert axis[axis.size // 2] == 0.0
            np.testing.assert_allclose(np.diff(axis), step, rtol=1e-9)
            assert 90.0 - step < axis[-1] <= 90.0
            assert axis.size == 2 * math.floor(90.0 / step + 1e-9) + 1


class TestIllumination:
    def test_matches_explicit_formula(self, small_assembly):
        feed = small_assembly.feed
        pos = small_assembly.array.positions_mm()
        v = pos - feed.position()
        r = np.linalg.norm(v, axis=1)
        cos_feed = np.clip((v / r[:, None]) @ feed.boresight(), 0.0, 1.0)
        amp = cos_feed ** (0.5 * feed.pattern_exponent) / r
        expected = amp * np.exp(-1j * small_assembly.k_per_mm * r)
        expected *= math.sqrt(spillover_efficiency(small_assembly) / np.sum(amp**2))
        np.testing.assert_allclose(illumination(small_assembly), expected, rtol=1e-12)

    def test_plane_wave_limit_is_uniform(self):
        asm = _plane_wave_assembly(8, 8)
        a = _unnormalized_illumination(asm)
        mags = np.abs(a)
        assert np.ptp(mags) / mags.mean() < 1e-6
        phases = np.angle(a * np.exp(1j * asm.k_per_mm * 1e7))
        assert np.ptp(phases) < 1e-3

    def test_normalized_power_equals_spillover(self, assembly):
        a = illumination(assembly)
        assert np.sum(np.abs(a) ** 2) == pytest.approx(spillover_efficiency(assembly), rel=1e-12)

    def test_memoized_result_is_read_only(self, small_assembly):
        a = illumination(small_assembly)
        assert illumination(small_assembly) is a
        with pytest.raises(ValueError):
            a[0] = 0.0
        with pytest.raises(ValueError):
            a *= 2.0

    def test_moved_feed_gets_its_own_entry(self, small_assembly):
        # feed-opt and steer move the feed on a copy of the assembly
        moved = replace(small_assembly, feed=replace(small_assembly.feed,
                                                     position_mm=(-10.0, 5.0, 70.0)))
        for illuminate in (illumination, _unnormalized_illumination):
            a = illuminate(small_assembly)
            b = illuminate(moved)
            assert b is not a
            assert not np.allclose(a, b)
            expected = _illumination_per_point(moved)
            if illuminate is illumination:
                expected *= math.sqrt(spillover_efficiency(moved)
                                      / np.sum(np.abs(expected) ** 2))
            np.testing.assert_allclose(b, expected, rtol=1e-12)

    def test_isotropic_feed_amplitude_follows_inverse_distance(self, small_assembly):
        asm = replace(small_assembly, feed=FeedModel(position_mm=(-20.0, 0.0, 60.0),
                                                     pattern_exponent=0.0))
        a = _unnormalized_illumination(asm)
        pos = asm.array.positions_mm()
        r = np.linalg.norm(pos - asm.feed.position(), axis=1)
        np.testing.assert_allclose(np.abs(a) * r, 1.0, rtol=1e-12)


class TestSpillover:
    def test_in_unit_interval(self, assembly, small_assembly):
        for asm in (assembly, small_assembly):
            eta = spillover_efficiency(asm)
            assert 0.0 < eta <= 1.0

    def test_distant_feed_intercepts_nothing(self):
        asm = AntennaAssembly(array=RisArray(),
                              feed=FeedModel(position_mm=(0.0, 0.0, 1e6)))
        assert spillover_efficiency(asm) < 1e-6

    def test_grid_refinement_is_converged(self, assembly):
        coarse = _spillover_on(assembly, 128)
        fine = _spillover_on(assembly, 512)
        assert coarse == pytest.approx(fine, rel=1e-3)


def _spillover_per_point(assembly, n_grid):
    """The spillover midpoint sum point by point, over an (N, 3) mesh."""
    feed = assembly.feed
    q = feed.pattern_exponent
    half_x = 0.5 * assembly.array.n_x * assembly.array.period_mm
    half_y = 0.5 * assembly.array.n_y * assembly.array.period_mm
    xs = (np.arange(n_grid) + 0.5) / n_grid * 2 * half_x - half_x
    ys = (np.arange(n_grid) + 0.5) / n_grid * 2 * half_y - half_y
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])
    v = pts - feed.position()
    r = np.linalg.norm(v, axis=1)
    cos_feed = np.clip((v / r[:, None]) @ feed.boresight(), 0.0, 1.0)
    cos_plane = feed.position()[2] / r
    u = (q + 1.0) / (2.0 * math.pi) * cos_feed**q
    cell = (2 * half_x / n_grid) * (2 * half_y / n_grid)
    return min(float(np.sum(u * cos_plane / r**2) * cell), 1.0)


def _illumination_per_point(assembly):
    """Un-normalized illumination element by element, from positions_mm()."""
    feed = assembly.feed
    v = assembly.array.positions_mm() - feed.position()
    r = np.linalg.norm(v, axis=1)
    cos_feed = np.clip((v / r[:, None]) @ feed.boresight(), 0.0, 1.0)
    amp = cos_feed ** (0.5 * feed.pattern_exponent) / r
    return amp * np.exp(-1j * assembly.k_per_mm * r)


# feeds off both axes, so an x/y transposition of the lattice changes the sums
OFF_AXIS_FEEDS = [(-37.0, 12.5, 60.0), (25.0, -18.0, 45.0)]
NON_SQUARE = [(7, 4), (4, 7), (1, 5)]


class TestFeedIntegralsMatchPerPointReference:
    @pytest.mark.parametrize("n_x, n_y", NON_SQUARE + [(32, 32)])
    @pytest.mark.parametrize("position", OFF_AXIS_FEEDS)
    @pytest.mark.parametrize("n_grid", [1, 2, 17, 128, 256])
    def test_spillover(self, n_x, n_y, position, n_grid):
        asm = AntennaAssembly(array=RisArray(n_x=n_x, n_y=n_y, group_size=1),
                              feed=FeedModel(position_mm=position))
        assert _spillover_on(asm, n_grid) == pytest.approx(
            _spillover_per_point(asm, n_grid), rel=1e-12)

    @pytest.mark.parametrize("n_x, n_y", NON_SQUARE)
    @pytest.mark.parametrize("position", OFF_AXIS_FEEDS)
    def test_illumination(self, n_x, n_y, position):
        asm = AntennaAssembly(array=RisArray(n_x=n_x, n_y=n_y, group_size=1),
                              feed=FeedModel(position_mm=position))
        expected = _illumination_per_point(asm)
        np.testing.assert_allclose(_unnormalized_illumination(asm), expected, rtol=1e-12)
        expected *= math.sqrt(_spillover_per_point(asm, 256) / np.sum(np.abs(expected) ** 2))
        np.testing.assert_allclose(illumination(asm), expected, rtol=1e-12)

    @settings(deadline=None)
    @given(x=st.floats(*FeedSearchSpace().x_mm), y=st.floats(-60.0, 60.0),
           z=st.floats(*FeedSearchSpace().z_mm))
    def test_spillover_in_unit_interval_over_the_search_box(self, x, y, z):
        asm = AntennaAssembly(feed=FeedModel(position_mm=(x, y, z)))
        for n_grid in (128, 256):
            assert 0.0 < _spillover_on(asm, n_grid) <= 1.0


def _full_mesh_rays(feed, xs, ys):
    """Every row of the feed rays, in the order of operations of the
    feed integrals before they formed half the rows."""
    fx, fy, fz = feed.position_mm
    bx, by, bz = feed.boresight()
    dx, dy = xs - fx, ys - fy
    r = np.sqrt((dy * dy)[:, None] + (dx * dx + fz * fz))
    cos_feed = (dy * by)[:, None] + (dx * bx - fz * bz)
    cos_feed /= r
    return r, np.clip(cos_feed, 0.0, 1.0, out=cos_feed)


def _full_mesh_spillover(assembly, n_grid):
    feed = assembly.feed
    q = feed.pattern_exponent
    half_x = 0.5 * assembly.array.n_x * assembly.array.period_mm
    half_y = 0.5 * assembly.array.n_y * assembly.array.period_mm
    xs = (np.arange(n_grid) + 0.5) / n_grid * 2 * half_x - half_x
    ys = (np.arange(n_grid) + 0.5) / n_grid * 2 * half_y - half_y
    r, cos_feed = _full_mesh_rays(feed, xs, ys)
    integrand = np.power(cos_feed, q, out=cos_feed)
    integrand /= r * r * r
    cell = (2 * half_x / n_grid) * (2 * half_y / n_grid)
    power = float(np.sum(integrand)) * (q + 1.0) / (2.0 * math.pi) * feed.position_mm[2] * cell
    return min(power, 1.0)


def _full_mesh_illumination(assembly, normalize):
    feed = assembly.feed
    xs, ys = (lattice_axis(n, assembly.array.period_mm)
              for n in (assembly.array.n_x, assembly.array.n_y))
    r, cos_feed = _full_mesh_rays(feed, xs, ys)
    amp = cos_feed ** (0.5 * feed.pattern_exponent) / r
    phase = -assembly.k_per_mm * r
    a = (amp * np.exp(1j * phase)).ravel()
    if normalize:
        a *= math.sqrt(_full_mesh_spillover(assembly, 256) / np.sum(amp**2))
    return a


# five feeds a batch: on the y = 0 plane (-0.0 too), off it, and both in turn
BATCH_ON_PLANE = [(-82.0, 0.0, 150.0), (40.0, -0.0, 85.0), (0.0, 0.0, 200.0),
                  (120.0, 0.0, 80.0), (-120.0, 0.0, 260.0)]
BATCH_OFF_PLANE = [(-37.0, 12.5, 60.0), (25.0, -18.0, 45.0), (-82.0, 15.0, 150.0),
                   (60.0, 40.0, 120.0), (0.0, -60.0, 200.0)]
BATCH_MIXED = [p for pair in zip(BATCH_ON_PLANE, BATCH_OFF_PLANE) for p in pair][:5]


class TestFeedIntegralsOnHalfTheMesh:
    """With the feed on y = 0 the integrals form half the mesh rows and
    mirror them, or double the sum of half a power-of-two spillover mesh;
    the result keeps the bits of the full mesh."""

    @pytest.mark.parametrize("n_x, n_y", [(32, 32), (31, 17), (6, 9), (5, 1)])
    @pytest.mark.parametrize("period_mm", [5.0, 5.77])
    @pytest.mark.parametrize("position", [(-82.0, 0.0, 150.0), (40.0, -0.0, 85.0),
                                          (-37.0, 12.5, 60.0)])
    def test_bits_of_the_full_mesh(self, n_x, n_y, period_mm, position, mesh_rows):
        asm = AntennaAssembly(array=RisArray(n_x=n_x, n_y=n_y, period_mm=period_mm,
                                             group_size=1),
                              feed=FeedModel(position_mm=position))
        on_plane = position[1] == 0.0
        for n_grid in (17, 128, 256):
            mesh_rows.clear()
            # the public 256 mesh is memoized, so illumination below reuses it
            spillover = (spillover_efficiency(asm) if n_grid == 256
                         else _spillover_on(asm, n_grid))
            assert spillover == _full_mesh_spillover(asm, n_grid)
            # the midpoint mesh mirrors itself when its arithmetic is exact,
            # as at 5 mm on 128 and 256 points (not on 17)
            if n_grid != 17:
                half = on_plane and period_mm == 5.0
                assert mesh_rows == [(n_grid, (n_grid + 1) // 2 if half else n_grid)]
        for normalize, illuminate in ((False, _unnormalized_illumination),
                                      (True, illumination)):
            mesh_rows.clear()
            assert np.array_equal(illuminate(asm), _full_mesh_illumination(asm, normalize))
            # the lattice axis always mirrors itself
            assert mesh_rows == [(n_y, (n_y + 1) // 2 if on_plane else n_y)]

    @pytest.mark.parametrize("n_x, n_y", [(32, 32), (31, 17), (6, 9), (5, 1)])
    @pytest.mark.parametrize("period_mm", [5.0, 5.77])
    @pytest.mark.parametrize("positions", [BATCH_ON_PLANE, BATCH_OFF_PLANE, BATCH_MIXED],
                             ids=["on-plane", "off-plane", "mixed"])
    def test_batches_keep_each_feeds_bits(self, n_x, n_y, period_mm, positions):
        array = RisArray(n_x=n_x, n_y=n_y, period_mm=period_mm, group_size=1)
        feeds = [FeedModel(position_mm=p) for p in positions]
        # 64 and 192 mirror at 5 mm but do not fold: their sum trees do not
        # split on whole rows
        for n_grid in (17, 64, 128, 192, 256):
            expected = [_full_mesh_spillover(AntennaAssembly(array=array, feed=f), n_grid)
                        for f in feeds]
            for size in range(1, len(feeds) + 1):
                assert pattern._spillover(array, feeds[:size], n_grid) == expected[:size]

    @pytest.mark.parametrize("n_grid, folded", [(128, True), (256, True), (512, True),
                                                (17, False), (64, False), (192, False)])
    def test_power_of_two_meshes_fold_on_the_plane(self, n_grid, folded, monkeypatch):
        unfolded_rows, unfold = [], pattern._unfold

        def recorded(half, n):
            mesh = unfold(half, n)
            unfolded_rows.append(mesh.shape[-2])
            return mesh

        monkeypatch.setattr(pattern, "_unfold", recorded)
        array = RisArray(period_mm=5.0)
        pattern._spillover(array, [FeedModel(position_mm=p) for p in BATCH_ON_PLANE], n_grid)
        pattern._spillover(array, [FeedModel(position_mm=p) for p in BATCH_MIXED], n_grid)
        # the folded sum reads half the rows; a mixed batch forms them all
        assert unfolded_rows == [n_grid // 2 if folded else n_grid, n_grid]


class TestTaperEfficiency:
    def test_uniform_is_unity(self):
        assert taper_efficiency(np.ones(64)) == pytest.approx(1.0)

    def test_never_exceeds_unity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            eta = taper_efficiency(rng.uniform(0.1, 1.0, size=100))
            assert 0.0 < eta <= 1.0

    def test_rejects_empty_energy(self):
        with pytest.raises(ValueError):
            taper_efficiency(np.zeros(4))


class TestResolveReflections:
    def test_passthrough_and_shape_check(self, small_assembly):
        gamma = np.exp(1j * np.linspace(0, 6, small_assembly.array.n_elements))
        np.testing.assert_array_equal(resolve_reflections(small_assembly, gamma), gamma)
        with pytest.raises(ValueError):
            resolve_reflections(small_assembly, gamma[:-1])

    def test_group_states_expand_through_grouping(self, assembly):
        states = np.zeros(assembly.array.n_groups, dtype=np.uint8)
        states[7] = 1
        gamma = resolve_reflections(assembly, Codeword(states))
        g_off, g_on = state_reflections(assembly)
        members = assembly.array.grouping == 7
        assert members.sum() == assembly.array.group_size
        np.testing.assert_allclose(gamma[members], g_on)
        np.testing.assert_allclose(gamma[~members], g_off)

    def test_state_count_mismatch_rejected(self, assembly):
        with pytest.raises(ValueError, match="groups"):
            resolve_reflections(assembly, np.zeros(assembly.array.n_groups - 1, dtype=np.uint8))

    @pytest.mark.parametrize("value", [2, 0.7, -1])
    def test_raw_states_other_than_0_or_1_rejected(self, assembly, value):
        with pytest.raises(ValueError, match="0 or 1"):
            resolve_reflections(assembly, np.full(assembly.array.n_groups, value))

    def test_incidence_model_applies_to_both_mask_kinds(self, small_assembly):
        model = IncidenceModel(beta_deg_per_deg2=0.004, amplitude_exponent=0.5)
        modeled = replace(small_assembly, incidence_model=model)
        from risant.geometry import incidence_angles

        theta = incidence_angles(small_assembly.feed, small_assembly.array.positions_mm())
        factor = (np.cos(np.radians(theta)) ** 0.5
                  * np.exp(1j * np.radians(0.004 * theta**2)))

        gamma = np.exp(1j * np.linspace(0, 3, small_assembly.array.n_elements))
        np.testing.assert_allclose(resolve_reflections(modeled, gamma), gamma * factor,
                                   rtol=1e-12)

        states = np.arange(small_assembly.array.n_groups, dtype=np.uint8) % 2
        plain = resolve_reflections(small_assembly, Codeword(states))
        shifted = resolve_reflections(modeled, Codeword(states))
        np.testing.assert_allclose(shifted, plain * factor, rtol=1e-12)

    def test_state_reflections_match_element_model(self, assembly):
        g_off, g_on = state_reflections(assembly)
        off = reflection_coefficient(assembly.element_circuit, "off", assembly.frequency_ghz)
        on = reflection_coefficient(assembly.element_circuit, "on", assembly.frequency_ghz)
        assert abs(g_off) == pytest.approx(off.amplitude)
        assert abs(g_on) == pytest.approx(on.amplitude)

    def test_state_reflections_solve_the_circuit_once_per_assembly(self, small_assembly,
                                                                  monkeypatch):
        solves = []

        def counted(circuit, state, frequency_ghz):
            solves.append(state)
            return reflection_coefficient(circuit, state, frequency_ghz)
        monkeypatch.setattr(pattern, "reflection_coefficient", counted)
        fresh = replace(small_assembly)   # a new instance: nothing memoized yet
        first = state_reflections(fresh)
        states = np.arange(fresh.array.n_groups) % 2
        resolve_reflections(fresh, states)
        resolve_reflections(fresh, states[::-1])
        assert state_reflections(fresh) == first
        assert solves == ["off", "on"]
        off = reflection_coefficient(fresh.element_circuit, "off", fresh.frequency_ghz)
        on = reflection_coefficient(fresh.element_circuit, "on", fresh.frequency_ghz)
        assert first == (off.value, on.value)

    @pytest.mark.parametrize("incidence", [None, IncidenceModel(beta_deg_per_deg2=0.004,
                                                                amplitude_exponent=0.5)])
    def test_stacked_states_resolve_row_by_row(self, small_assembly, incidence):
        asm = replace(small_assembly, incidence_model=incidence)
        stack = np.random.default_rng(4).integers(0, 2, (5, asm.array.n_groups))
        rows = resolve_reflections(asm, stack)
        assert rows.shape == (5, asm.array.n_elements)
        for states, row in zip(stack, rows):
            np.testing.assert_array_equal(row, resolve_reflections(asm, states))
        with pytest.raises(ValueError, match="groups"):
            resolve_reflections(asm, stack[:, :-1])


def _random_reflections(rng, n):
    return rng.uniform(0.5, 1.0, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))


def _assert_matches_brute_force_sum(asm, gamma, az, el):
    """far_field on (az, el) against the direct per-element sum, 1e-9 relative."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pat = far_field(asm, gamma, az, el)

    coeffs = illumination(asm) * gamma
    pos = asm.array.positions_mm()
    k = asm.k_per_mm
    for i, e in enumerate(el):
        for j, a in enumerate(az):
            u = Direction(float(a), float(e)).unit_vector()
            field = np.sum(coeffs * np.exp(1j * k * (pos @ u)))
            field *= max(u[2], 0.0) ** ELEMENT_EXPONENT
            assert abs(pat.co_pol[i, j] - field) <= 1e-9 * (abs(field) + 1e-12)


class TestFarField:
    def test_matches_brute_force_sum(self, small_assembly):
        rng = np.random.default_rng(17)
        gamma = _random_reflections(rng, small_assembly.array.n_elements)
        az = np.sort(rng.uniform(-90.0, 90.0, 10))
        el = np.sort(rng.uniform(-90.0, 90.0, 5))
        _assert_matches_brute_force_sum(small_assembly, gamma, az, el)

    @pytest.mark.parametrize("n_x, n_y", [(7, 4), (4, 7), (1, 5), (5, 1), (1, 1)])
    def test_odd_and_degenerate_lattices_match_brute_force_sum(self, n_x, n_y):
        asm = AntennaAssembly(
            array=RisArray(n_x=n_x, n_y=n_y, period_mm=5.0, group_size=1),
            feed=FeedModel(position_mm=(-20.0, 0.0, 60.0), pattern_exponent=6.5),
        )
        rng = np.random.default_rng(n_x * 10 + n_y)
        gamma = _random_reflections(rng, asm.array.n_elements)
        # non-uniform axes reaching both grid edges
        az = np.concatenate([[-90.0], np.sort(rng.uniform(-90.0, 90.0, 9)), [90.0]])
        el = np.concatenate([[-90.0], np.sort(rng.uniform(-90.0, 90.0, 6)), [90.0]])
        _assert_matches_brute_force_sum(asm, gamma, az, el)

    @pytest.mark.parametrize("chunk", [1, 500, 3000, 10_000])
    def test_row_blocking_does_not_change_a_bit(self, small_assembly, monkeypatch, chunk):
        # 721 directions per row: 1 and 500 are below one row, 3000 and
        # 10000 give blocks of 4 and 13 rows, neither dividing 721 rows
        gamma = np.exp(1j * np.linspace(0, 5, small_assembly.array.n_elements))
        az, el = direction_grid(0.25)
        default = far_field(small_assembly, gamma, az, el).co_pol
        monkeypatch.setattr(pattern, "_CHUNK", chunk)
        assert np.array_equal(far_field(small_assembly, gamma, az, el).co_pol, default)

    def test_field_toward_agrees_with_grid(self, small_assembly):
        gamma = np.ones(small_assembly.array.n_elements, dtype=complex)
        d = Direction(12.0, -7.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pat = far_field(small_assembly, gamma, np.array([12.0]),
                            np.array([-7.0]))
        row = steering_row(small_assembly, d)
        assert complex(row @ gamma) == pytest.approx(complex(pat.co_pol[0, 0]), rel=1e-12)

    def test_two_coherent_elements_quadruple_the_power(self):
        asm = AntennaAssembly(
            array=RisArray(n_x=2, n_y=1, group_size=1),
            feed=FeedModel(position_mm=(0.0, 0.0, 1000.0)),
        )
        az = np.array([0.0])
        el = np.array([0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            both = far_field(asm, np.array([1.0 + 0j, 1.0 + 0j]), az, el)
            one = far_field(asm, np.array([1.0 + 0j, 0.0 + 0j]), az, el)
        ratio = abs(both.co_pol[0, 0]) ** 2 / abs(one.co_pol[0, 0]) ** 2
        assert ratio == pytest.approx(4.0, rel=1e-9)

    def test_element_factor_shapes_single_element(self):
        asm = AntennaAssembly(
            array=RisArray(n_x=1, n_y=1, group_size=1),
            feed=FeedModel(position_mm=(0.0, 0.0, 1000.0)),
        )
        az = np.array([0.0, 60.0])
        el = np.array([0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pat = far_field(asm, np.ones(1, dtype=complex), az, el)
        ratio = abs(pat.co_pol[0, 1]) / abs(pat.co_pol[0, 0])
        assert ratio == pytest.approx(math.cos(math.radians(60.0)) ** ELEMENT_EXPONENT,
                                      rel=1e-9)

    def test_cross_pol_is_scaled_copy(self, small_assembly):
        # the cross-polar field is co_pol scaled by the assembly's ratio: the
        # pattern keeps the ratio and counts the copy's power in power_total
        gamma = np.ones(small_assembly.array.n_elements, dtype=complex)
        az, el = np.linspace(-30, 30, 31), np.array([0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pat = far_field(small_assembly, gamma, az, el)
            co_only = far_field(replace(small_assembly, cross_pol_db=-math.inf),
                                gamma, az, el)
        assert pat.cross_pol_db == small_assembly.cross_pol_db
        np.testing.assert_array_equal(pat.co_pol, co_only.co_pol)
        assert pat.power_total == pytest.approx(
            co_only.power_total * (1.0 + 10 ** (small_assembly.cross_pol_db / 10.0)),
            rel=1e-12)

    def test_warns_on_coarse_grid(self, small_assembly):
        gamma = np.ones(small_assembly.array.n_elements, dtype=complex)
        with pytest.warns(UserWarning, match="undersample"):
            far_field(small_assembly, gamma, np.arange(-90.0, 91.0, 2.5),
                      np.arange(-90.0, 91.0, 2.5))

    def test_gain_invariant_under_mask_scaling(self, small_assembly):
        gamma = np.exp(1j * np.linspace(0, 2, small_assembly.array.n_elements))
        az = np.linspace(-90, 90, 361)
        el = np.linspace(-90, 90, 361)
        g1 = far_field(small_assembly, gamma, az, el)
        g2 = far_field(small_assembly, 0.37 * gamma, az, el)
        np.testing.assert_allclose(g1.gain_dbi(), g2.gain_dbi(), atol=1e-9)


class TestPatternMetrics:
    def test_flat_pattern_has_no_sidelobes(self, monkeypatch):
        # one element without an element factor radiates the same field
        # everywhere, so every direction ties with the first one
        monkeypatch.setattr(pattern, "ELEMENT_EXPONENT", 0.0)
        asm = replace(_plane_wave_assembly(1, 1), cross_pol_db=-math.inf)
        m = pattern_metrics(asm, np.ones(1, dtype=complex), 1.0)
        assert math.isnan(m.hpbw_az_deg)
        assert m.peak_direction == Direction(-90.0, -90.0)
        # constant field over the az-el hemisphere concentrates a true
        # isotropic radiator's power into half the sphere: +3.01 dB
        # (rectangle-rule quadrature on the 1 deg grid costs a few hundredths)
        offset = pattern._gain_offset_db(asm)
        assert m.peak_gain_dbi - offset == pytest.approx(db10(2.0), abs=0.05)

    def test_uniform_line_matches_dirichlet_sidelobe(self, monkeypatch):
        # a uniform square lattice without an element factor: each cut
        # through broadside is the array factor of a uniform 32-element line
        asm = _plane_wave_assembly(32, 32)
        monkeypatch.setattr(pattern, "ELEMENT_EXPONENT", 0.0)
        m = pattern_metrics(asm, np.ones(32 * 32, dtype=complex), MIN_GRID_STEP_DEG)
        assert m.peak_direction == Direction(0.0, 0.0)
        assert m.sll_db == pytest.approx(-13.232886761906704, abs=0.05)
        # 0.886 lambda / D radians for a uniform aperture
        d_mm = 32 * asm.array.period_mm
        for hpbw in (m.hpbw_az_deg, m.hpbw_el_deg):
            assert hpbw == pytest.approx(math.degrees(0.886 * asm.wavelength_mm / d_mm),
                                         rel=0.02)

    def test_monotone_lobe_is_bounded_by_grid_edge(self):
        # one element: the cos(theta) field falls from broadside to every
        # edge, so the lobe fills the grid and nothing lies outside it
        asm = AntennaAssembly(
            array=RisArray(n_x=1, n_y=1, group_size=1),
            feed=FeedModel(position_mm=(0.0, 0.0, 1000.0)),
        )
        m = pattern_metrics(asm, np.ones(1, dtype=complex), 1.0)
        assert m.sll_db is None
        assert m.peak_direction == Direction(0.0, 0.0)
        # cos^2 halves at 45 deg
        assert m.hpbw_az_deg == pytest.approx(90.0, abs=0.1)
        assert m.hpbw_el_deg == pytest.approx(90.0, abs=0.1)

    def test_cross_pol_ratio_reported(self, small_assembly):
        gamma = np.exp(-1j * np.angle(illumination(small_assembly)))
        m = pattern_metrics(small_assembly, gamma, 0.25)
        assert m.cross_pol_db == small_assembly.cross_pol_db


class TestCutWalks:
    """The lobe edge and the half-power width on cuts with exact ties."""

    @pytest.mark.parametrize("values, start, step, null", [
        ([3.0, 2.0, 2.0, 1.0, 5.0], 0, 1, 1),      # a plateau stops the walk
        ([5.0, 1.0, 2.0, 2.0, 3.0], 4, -1, 3),
        ([4.0, 4.0, 4.0, 4.0, 4.0], 2, 1, 2),      # a flat cut is a one-point lobe
        ([4.0, 4.0, 4.0, 4.0, 4.0], 2, -1, 2),
        ([4.0, 3.0, 2.0, 1.0, 0.5], 0, 1, 4),      # the edge bounds a falling lobe
    ])
    def test_first_null_stops_at_the_first_tie(self, values, start, step, null):
        assert pattern._first_null(np.array(values), start, step) == null

    @pytest.mark.parametrize("cut, peak, width", [
        # samples at exactly half power: the crossing is the first of them
        ([0.0, 1.0, 2.0, 4.0, 2.0, 1.0, 0.0], 3, 2.0),
        ([0.0, 2.0, 2.0, 4.0, 2.0, 2.0, 0.0], 3, 2.0),
        ([2.0, 2.0, 4.0, 2.0, 2.0, 0.0, 0.0], 2, 2.0),
        # a plateau at the peak, entered from its first sample
        ([0.0, 4.0, 4.0, 4.0, 0.0, 0.0, 0.0], 1, 3.0),
        # no sample below half power on one side
        ([3.0, 3.0, 4.0, 3.0, 0.0, 0.0, 0.0], 2, math.nan),
    ])
    def test_hpbw_crosses_at_the_first_half_power_sample(self, cut, peak, width):
        axis = np.arange(7.0) - 3.0
        got = pattern._hpbw(axis, np.array(cut), peak)
        assert got == width or (math.isnan(width) and math.isnan(got))


def reference_pattern_metrics(assembly, mask, step_deg):
    """The sampled-grid evaluation that pattern_metrics replaced, kept
    here only as the reference: far_field fills the whole
    direction_grid(step_deg), and the metrics and the cuts are read off it."""
    pat = far_field(assembly, mask, *direction_grid(step_deg))
    intensity = pat.intensity
    i_el, i_az = np.unravel_index(int(np.argmax(intensity)), intensity.shape)
    peak = intensity[i_el, i_az]
    az_cut = intensity[i_el, :]
    el_cut = intensity[:, i_az]
    az_lo, az_hi = (pattern._first_null(az_cut, i_az, step) for step in (-1, 1))
    el_lo, el_hi = (pattern._first_null(el_cut, i_el, step) for step in (-1, 1))
    outside = np.ones(intensity.shape, dtype=bool)
    outside[el_lo:el_hi + 1, az_lo:az_hi + 1] = False
    sll = float(db10(intensity[outside].max() / peak)) if outside.any() else None
    hpbw_az = pattern._hpbw(pat.az_deg, az_cut, i_az)
    hpbw_el = pattern._hpbw(pat.el_deg, el_cut, i_el)
    gain = pat.gain_dbi()
    return pattern.PatternMetrics(
        peak_gain_dbi=float(db10(4.0 * math.pi * peak / pat.power_total) + pat.gain_offset_db),
        peak_direction=Direction(float(pat.az_deg[i_az]), float(pat.el_deg[i_el])),
        sll_db=sll, hpbw_az_deg=float(hpbw_az), hpbw_el_deg=float(hpbw_el),
        cross_pol_db=pat.cross_pol_db, az_deg=pat.az_deg, el_deg=pat.el_deg,
        az_cut_dbi=gain[i_el, :], el_cut_dbi=gain[:, i_az],
    )


def _assert_matches_full_grid(assembly, mask, step_deg=DEFAULT_GRID_STEP_DEG):
    """The peak, the sidelobe level and the beamwidths exactly, the cuts
    in the CSV's .10g, the peak gain to 1e-12 dB."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = pattern_metrics(assembly, mask, step_deg)
        want = reference_pattern_metrics(assembly, mask, step_deg)
    assert got.peak_direction == want.peak_direction
    assert got.sll_db == want.sll_db
    np.testing.assert_array_equal([got.hpbw_az_deg, got.hpbw_el_deg],
                                  [want.hpbw_az_deg, want.hpbw_el_deg])
    assert abs(got.peak_gain_dbi - want.peak_gain_dbi) <= 1e-12
    assert got.cross_pol_db == want.cross_pol_db
    for axis in ("az_deg", "el_deg"):
        np.testing.assert_array_equal(getattr(got, axis), getattr(want, axis))
    for cut in ("az_cut_dbi", "el_cut_dbi"):
        assert ([f"{v:.10g}" for v in getattr(got, cut)]
                == [f"{v:.10g}" for v in getattr(want, cut)])
    return got


def _benchmark_hemisphere_jobs(jobs):
    """(assembly, codeword) of the seeded `hemisphere` benchmark jobs (seed 0)."""
    cases = []
    for job in jobs.make_jobs("hemisphere", jobs.DEFAULT_SEED):
        args = job["args"]
        scn = resolve_scenario(None, list(zip((a[2:] for a in args[1::2]), args[2::2])))
        asm = scn.build_assembly()
        cases.append((asm, synthesize_codeword(asm, scn.build_target_direction(),
                                               scn.literal("pattern.compensate_incidence"))))
    return cases


class TestPatternMetricsMatchFullGrid:
    def test_benchmark_hemisphere_jobs(self, perfbench_jobs):
        cases = _benchmark_hemisphere_jobs(perfbench_jobs)
        assert [asm.array.n_x for asm, _ in cases] == [32, 32, 48, 32]
        for asm, cw in cases:
            _assert_matches_full_grid(asm, cw)

    @pytest.mark.parametrize("n_x, n_y", [(1, 1), (7, 5), (33, 17), (48, 48)])
    def test_lattices(self, n_x, n_y):
        asm = AntennaAssembly(array=RisArray(n_x=n_x, n_y=n_y, group_size=1))
        rng = np.random.default_rng(n_x * n_y)
        targets = [Direction(0.0, 0.0), Direction(float(rng.uniform(-60, 60)),
                                                  float(rng.uniform(-30, 30)))]
        for target in targets:
            _assert_matches_full_grid(asm, synthesize_codeword(asm, target))

    def test_random_states(self, assembly):
        # no dominant lobe: most of the grid is left to the exact kernel
        rng = np.random.default_rng(5)
        for _ in range(2):
            _assert_matches_full_grid(assembly, rng.integers(0, 2, assembly.array.n_groups))

    def test_incidence_model(self, assembly):
        modeled = replace(assembly, incidence_model=IncidenceModel())
        for target in (Direction(0.0, 0.0), Direction(-41.0, 17.5)):
            _assert_matches_full_grid(modeled, synthesize_codeword(modeled, target, True))

    @pytest.mark.parametrize("step", [MIN_GRID_STEP_DEG, 0.25, 0.7, 1.0, 2.5])
    def test_grid_steps(self, assembly, step):
        # 0.7 does not divide 90: the axes stop at +-89.6
        target = Direction(27.0, -8.0)
        _assert_matches_full_grid(assembly, synthesize_codeword(assembly, target), step)

    def test_ties_in_the_first_row(self, monkeypatch):
        # one row without an element factor: |F| depends on ux alone, and on
        # the first row (el = -90) ux is within 1e-16 of 0, so the whole row
        # ties up to round-off and its az cut is flat
        monkeypatch.setattr(pattern, "ELEMENT_EXPONENT", 0.0)
        line = _plane_wave_assembly(16, 1)
        m = _assert_matches_full_grid(line, np.ones(16, dtype=complex), 1.0)
        assert m.peak_direction.el_deg == -90.0
        assert m.sll_db is not None

    def test_the_flat_pattern(self, monkeypatch):
        monkeypatch.setattr(pattern, "ELEMENT_EXPONENT", 0.0)
        _assert_matches_full_grid(_plane_wave_assembly(1, 1), np.ones(1, dtype=complex), 1.0)


def _closed_form_power(period_mm, k, coeffs):
    """The hemisphere integral of |F|^2 for the cos^1 element factor,
    sum_{m,n} c_m c_n* K(|r_m - r_n|): over the forward hemisphere,
    cos^2(theta) exp(j k d . u) integrates to K(d) = 2 pi (sin a - a cos a) / a^3
    with a = k d (Sonine's integral with nu = 1/2), and K(0) = 2 pi / 3."""
    assert ELEMENT_EXPONENT == 1.0
    n_y, n_x = coeffs.shape
    # K of every (row, column) lag, then of every element pair
    a = k * period_mm * np.hypot(*np.ogrid[:n_y, :n_x])
    a2 = a * a
    with np.errstate(divide="ignore", invalid="ignore"):
        lag_kernel = np.where(a < 0.1,
                              1 / 3 - a2 / 30 + a2 * a2 / 840 - a2 * a2 * a2 / 45360,
                              (np.sin(a) - a * np.cos(a)) / (a2 * a))
    row, col = np.divmod(np.arange(n_y * n_x), n_x)
    kernel = lag_kernel[np.abs(row[:, None] - row), np.abs(col[:, None] - col)]
    c = coeffs.ravel()
    return 2 * math.pi * float(np.real(c @ (kernel @ c.conj())))


class TestLagTable:
    @pytest.mark.parametrize("step", [MIN_GRID_STEP_DEG, 0.25, 0.7, 1.0, 2.5, 7.0])
    @pytest.mark.parametrize("n_x, n_y", [(32, 32), (7, 5), (1, 1)])
    def test_equals_the_grid_integral(self, n_x, n_y, step):
        asm = AntennaAssembly(array=RisArray(n_x=n_x, n_y=n_y, group_size=1),
                              incidence_model=IncidenceModel())
        rng = np.random.default_rng(n_x + n_y)
        mask = rng.integers(0, 2, asm.array.n_groups)
        coeffs = pattern._coefficients(asm, mask)
        az, el = direction_grid(step)
        intensity = pattern._abs2(pattern._lattice_field(asm.array.period_mm, coeffs,
                                                         asm.k_per_mm, az, el))
        lags = pattern._grid_tables(asm.array.period_mm, asm.k_per_mm, n_y, n_x,
                                    ELEMENT_EXPONENT, step).lags
        assert pattern._grid_power(lags, coeffs) == pytest.approx(
            pattern._integrate_power(az, el, intensity), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("step, rel", [(MIN_GRID_STEP_DEG, 5e-13), (0.25, 5e-11),
                                           (0.7, 1e-7), (1.0, 1e-8), (2.0, 1e-7)])
    @pytest.mark.parametrize("n_x, n_y", [(32, 32), (7, 5), (33, 17), (48, 1), (1, 1)])
    def test_matches_the_closed_form(self, n_x, n_y, step, rel):
        asm = AntennaAssembly(array=RisArray(n_x=n_x, n_y=n_y, group_size=1),
                              incidence_model=IncidenceModel())
        rng = np.random.default_rng(3 * n_x + n_y)
        shape = (n_y, n_x)
        lags = pattern._grid_tables(asm.array.period_mm, asm.k_per_mm, n_y, n_x,
                                    ELEMENT_EXPONENT, step).lags
        for coeffs in (pattern._coefficients(asm, rng.integers(0, 2, asm.array.n_groups)),
                       rng.standard_normal(shape) + 1j * rng.standard_normal(shape)):
            assert pattern._grid_power(lags, coeffs) == pytest.approx(
                _closed_form_power(asm.array.period_mm, asm.k_per_mm, coeffs),
                rel=rel, abs=0.0)

    @pytest.mark.parametrize("step", [MIN_GRID_STEP_DEG, 0.25, 0.7, 7.0, 90.0])
    def test_every_step_gives_a_real_table(self, step):
        lags = pattern._grid_tables(5.0, 0.5, 4, 6, ELEMENT_EXPONENT, step).lags
        assert lags.dtype == np.float64


class TestPatternJob:
    def test_default_run_evaluates_few_directions(self, tmp_path, monkeypatch):
        counted = []
        exact, lattice_field = pattern._GridField.exact, pattern._lattice_field

        def counting_exact(grid, points):
            counted.append(points.size)
            return exact(grid, points)

        def counting_lattice_field(period_mm, coeffs, k, az, el):
            counted.append(np.size(az) * np.size(el))
            return lattice_field(period_mm, coeffs, k, az, el)

        monkeypatch.setattr(pattern._GridField, "exact", counting_exact)
        monkeypatch.setattr(pattern, "_lattice_field", counting_lattice_field)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["pattern", "--out", str(tmp_path)]) == 0
        # the two cuts alone are 2 x 721 of the 721 x 721 directions
        assert 2 * 721 <= sum(counted) < 0.05 * 721**2

    def test_default_run_fills_the_point_bound_on_few_rows(self, tmp_path, monkeypatch):
        filled = []
        fill_rows = pattern._GridField._fill_rows

        def counting_fill_rows(grid, rows, samples):
            filled.append(rows.size)
            return fill_rows(grid, rows, samples)

        monkeypatch.setattr(pattern._GridField, "_fill_rows", counting_fill_rows)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["pattern", "--out", str(tmp_path)]) == 0
        # the peak's rows, then the rows that can reach the sidelobe level
        assert 0 < sum(filled) < 0.25 * 721

    def test_coarse_step_warns(self, tmp_path):
        with pytest.warns(UserWarning, match="undersample"):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["pattern", "--pattern.step_deg", "2.5",
                             "--out", str(tmp_path)]) == 0


def _electrically_scaled(assembly, a):
    """The assembly with every length over ``a`` and the frequency times ``a``."""
    return replace(assembly,
                   array=replace(assembly.array, period_mm=assembly.array.period_mm / a),
                   feed=replace(assembly.feed,
                                position_mm=tuple(v / a for v in assembly.feed.position_mm)),
                   frequency_ghz=assembly.frequency_ghz * a)


class TestElectricalScaleInvariance:
    """Lengths over a and the frequency times a leave every angle-domain
    figure as it was: a mm/m or GHz/Hz slip in any layer breaks this.  With
    a = 2 every scaled product is exact, so the figures keep their bits."""

    GAIN_DB = 5e-14         # measured at most 2.0e-14 dB
    EFFICIENCY = 2e-15      # measured at most 5.6e-16
    CUT_OF_PEAK = 5e-14     # linear cut intensity over the peak's; measured 7.2e-15

    @pytest.fixture(scope="class")
    def masks(self, assembly):
        # explicit complex masks: the element circuit's reflections move with
        # the frequency
        steered = continuous_reflections(assembly, required_phases(assembly, Direction(20.0, 10.0)))
        return [_random_reflections(np.random.default_rng(5), assembly.array.n_elements),
                steered]

    @pytest.mark.parametrize("a", [0.37, 2.0, 3.0])
    def test_feed_efficiencies(self, assembly, a):
        scaled = _electrically_scaled(assembly, a)
        pairs = [(spillover_efficiency(asm), taper_efficiency(np.abs(illumination(asm))))
                 for asm in (assembly, scaled)]
        tolerance = 0.0 if a == 2.0 else self.EFFICIENCY
        np.testing.assert_allclose(pairs[1], pairs[0], rtol=0, atol=tolerance)

    @pytest.mark.parametrize("a", [0.37, 2.0, 3.0])
    def test_steered_gain_and_pattern_metrics(self, assembly, masks, a):
        scaled = _electrically_scaled(assembly, a)
        exact = a == 2.0
        for mask in masks:
            base, moved = (steered_gain(asm, mask, Direction(0.0, 0.0))
                           for asm in (assembly, scaled))
            assert moved.peak == base.peak
            assert moved.gain_dbi == pytest.approx(base.gain_dbi, rel=0,
                                                   abs=0 if exact else self.GAIN_DB)
            base, moved = (pattern_metrics(asm, mask, 0.5) for asm in (assembly, scaled))
            assert moved.peak_direction == base.peak_direction
            for name in ("peak_gain_dbi", "sll_db"):
                assert getattr(moved, name) == pytest.approx(
                    getattr(base, name), rel=0, abs=0 if exact else self.GAIN_DB)
            for cut in ("az_cut_dbi", "el_cut_dbi"):
                linear = [10.0 ** (getattr(m, cut) / 10.0) for m in (base, moved)]
                np.testing.assert_allclose(
                    linear[1], linear[0], rtol=0,
                    atol=0 if exact else self.CUT_OF_PEAK * linear[0].max())


class TestDirectivityBound:
    def test_formula_identity(self):
        lam = 299792458.0 / 26e9
        expected = 10 * math.log10(4 * math.pi * 0.0256 / lam**2)
        assert directivity_upper_bound(0.0256, 26.0) == pytest.approx(expected)
        assert directivity_upper_bound(0.0256, 26.0) == pytest.approx(33.83755119419727)

    def test_doubling_area_adds_three_db(self):
        base = directivity_upper_bound(0.0256, 26.0)
        assert directivity_upper_bound(0.0512, 26.0) - base == pytest.approx(
            10 * math.log10(2.0)
        )

    def test_rejects_nonpositive_area(self):
        with pytest.raises(ValueError):
            directivity_upper_bound(0.0, 26.0)

    def test_focused_aperture_stays_under_bound(self, small_assembly):
        gamma = np.exp(-1j * np.angle(illumination(small_assembly)))
        bound = directivity_upper_bound(small_assembly.array.aperture_m2,
                                        small_assembly.frequency_ghz)
        assert pattern_metrics(small_assembly, gamma, 0.25).peak_gain_dbi < bound


class TestSteeredGain:
    @given(st.floats(min_value=-60.0, max_value=60.0),
           st.floats(min_value=0.0, max_value=30.0))
    @settings(max_examples=6, deadline=None)
    def test_bounded_and_mirror_symmetric(self, assembly, az, el):
        # the default feed sits on y = 0 and bias groups pair rows
        # symmetrically, so (az, el) and (az, -el) are mirror images
        up, down = Direction(az, el), Direction(az, -el)
        sg_up = steered_gain(assembly, synthesize_codeword(assembly, up), up)
        sg_down = steered_gain(assembly, synthesize_codeword(assembly, down), down)
        bound = directivity_upper_bound(assembly.array.aperture_m2, assembly.frequency_ghz)
        assert sg_up.gain_dbi <= bound and sg_down.gain_dbi <= bound
        assert sg_up.gain_dbi == pytest.approx(sg_down.gain_dbi, abs=1e-9)
        assert sg_up.pointing_error_deg == pytest.approx(sg_down.pointing_error_deg, abs=1e-9)

    @given(st.floats(min_value=0.0, max_value=60.0),
           st.floats(min_value=-30.0, max_value=30.0))
    @settings(max_examples=6, deadline=None)
    def test_az_mirror_with_the_feed_on_x_zero(self, assembly, az, el):
        # the lattice is centred and bias groups run along y, so with the feed
        # on x = 0 (and off y = 0, which breaks the el mirror) the codeword
        # for (-az, el) is the x-mirror of the one for (az, el)
        centred = replace(assembly, feed=replace(assembly.feed, position_mm=(0.0, 20.0, 150.0)))
        array = centred.array
        assert array.group_axis == "y"
        rows = (array.n_y // array.group_size, array.n_x)
        right, left = Direction(az, el), Direction(-az, el)
        cw_right = synthesize_codeword(centred, right)
        cw_left = synthesize_codeword(centred, left)
        assert np.array_equal(cw_left.states.reshape(rows),
                              cw_right.states.reshape(rows)[:, ::-1])
        gain_right = steered_gain(centred, cw_right, right).gain_dbi
        assert steered_gain(centred, cw_left, left).gain_dbi == pytest.approx(gain_right,
                                                                               rel=1e-12)

    def test_consistent_with_full_metrics(self, small_assembly):
        gamma = np.exp(-1j * np.angle(illumination(small_assembly)))
        target = Direction(0.0, 0.0)
        sg = steered_gain(small_assembly, gamma, target)
        full = pattern_metrics(small_assembly, gamma, 0.125)
        assert sg.gain_dbi == pytest.approx(full.peak_gain_dbi, abs=0.1)
        assert sg.pointing_error_deg < 1.0
