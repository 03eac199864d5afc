"""steered_gain against the full-grid two-pass evaluation it replaced.

``full_grid_steered_gain`` is that earlier algorithm, kept here only as
the reference: ``far_field`` on the whole 1 deg hemisphere gives the
coarse peak and the power, and ``far_field`` on the 0.1 deg window of
+-3 deg around the coarse peak gives the gain and the pointing.  The
fast path must pick the same coarse grid point, the same fine peak and
the same gain to 1e-12 dB.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from risant import pattern
from risant.constants import db10, wavenumber_per_mm
from risant.geometry import (
    MAX_ARRAY_SIDE,
    AntennaAssembly,
    Direction,
    FeedModel,
    IncidenceModel,
    RisArray,
)
from risant.pattern import SteeredGain, direction_grid, far_field, steered_gain
from risant.synthesis import (
    SCAN_SECTOR,
    continuous_reflections,
    required_phases,
    synthesize_codeword,
)

GAIN_TOL_DB = 1e-12


def full_grid_steered_gain(assembly, mask, target):
    """(SteeredGain, coarse (el, az) index) of the full-grid two-pass search."""
    window_deg, fine_step = 3.0, 0.1
    coarse = far_field(assembly, mask, *direction_grid(1.0))
    intensity = np.abs(coarse.co_pol) ** 2
    i_el, i_az = np.unravel_index(int(np.argmax(intensity)), intensity.shape)
    az0 = float(coarse.az_deg[i_az])
    el0 = float(coarse.el_deg[i_el])
    az = np.arange(max(az0 - window_deg, -90.0), min(az0 + window_deg, 90.0) + fine_step / 2, fine_step)
    el = np.arange(max(el0 - window_deg, -90.0), min(el0 + window_deg, 90.0) + fine_step / 2, fine_step)
    fine = far_field(assembly, mask, az, el)
    fi = np.abs(fine.co_pol) ** 2
    j_el, j_az = np.unravel_index(int(np.argmax(fi)), fi.shape)
    peak = Direction(float(fine.az_deg[j_az]), float(fine.el_deg[j_el]))
    directivity = 4.0 * math.pi * fi[j_el, j_az] / coarse.power_total
    result = SteeredGain(
        gain_dbi=float(db10(directivity) + coarse.gain_offset_db),
        peak=peak,
        pointing_error_deg=peak.separation_deg(target),
    )
    return result, (int(i_el), int(i_az))


@pytest.fixture
def check(monkeypatch):
    """Assert steered_gain matches the reference; records the coarse index
    the fast path chose."""
    chosen = []
    first_max = pattern._first_max

    def recording(grid, *args):
        value, index = first_max(grid, *args)
        chosen.append(divmod(index, grid.tables.axis_deg.size))
        return value, index

    monkeypatch.setattr(pattern, "_first_max", recording)

    def run(assembly, mask, target):
        got = steered_gain(assembly, mask, target)
        want, coarse_index = full_grid_steered_gain(assembly, mask, target)
        assert chosen[-1] == coarse_index
        assert got.peak == want.peak
        assert got.pointing_error_deg == want.pointing_error_deg
        assert abs(got.gain_dbi - want.gain_dbi) <= GAIN_TOL_DB
        return got

    return run


def _benchmark_steer_targets(jobs):
    """Targets of the seeded `steer` benchmark jobs (seed 0)."""
    targets = []
    for job in jobs.make_jobs("steer", jobs.DEFAULT_SEED):
        if job["cmd"] != "steer":
            continue
        args = dict(zip(job["args"][1::2], job["args"][2::2]))
        targets += [Direction(a, 0.0) for a in json.loads(args["--pattern.scan_az_deg"])]
        targets += [Direction(0.0, e) for e in json.loads(args["--pattern.scan_el_deg"])]
    return targets


def _random_targets(rng, n):
    (az_lo, az_hi), (el_lo, el_hi) = SCAN_SECTOR
    return [Direction(float(a), float(e)) for a, e in
            zip(rng.uniform(az_lo, az_hi, n), rng.uniform(el_lo, el_hi, n))]


def test_scenario_and_benchmark_steer_targets(assembly, scenario, check, perfbench_jobs):
    targets = [Direction(0.0, 0.0)]
    targets += [Direction(a, 0.0) for a in scenario.literal("pattern.scan_az_deg")]
    targets += [Direction(0.0, e) for e in scenario.literal("pattern.scan_el_deg")]
    targets += _benchmark_steer_targets(perfbench_jobs)
    assert len(targets) == 1 + 13 + 18
    for target in targets:
        check(assembly, synthesize_codeword(assembly, target), target)


def test_random_in_sector_codewords(assembly, check):
    for target in _random_targets(np.random.default_rng(20260), 200):
        check(assembly, synthesize_codeword(assembly, target), target)


def test_continuous_phase_masks(assembly, check):
    # the ideal arm of the quantization-loss criterion
    rng = np.random.default_rng(2026)
    for az in rng.uniform(-60.0, 60.0, 20):
        target = Direction(float(az), 0.0)
        ideal = continuous_reflections(assembly, required_phases(assembly, target),
                                       "state-average")
        check(assembly, ideal, target)


def test_moved_feeds_share_one_lattice_table(assembly, check):
    rng = np.random.default_rng(7)
    check(assembly, synthesize_codeword(assembly, Direction(0.0, 0.0)), Direction(0.0, 0.0))
    built = pattern._grid_tables.cache_info().misses
    for x, z in zip(rng.uniform(-120.0, 120.0, 8), rng.uniform(80.0, 260.0, 8)):
        moved = replace(assembly, feed=replace(assembly.feed, position_mm=(x, 0.0, z)))
        for target in (Direction(0.0, 0.0), *_random_targets(rng, 1)):
            check(moved, synthesize_codeword(moved, target), target)
    assert pattern._grid_tables.cache_info().misses == built


def test_incidence_model(assembly, check):
    modeled = replace(assembly, incidence_model=IncidenceModel())
    for target in _random_targets(np.random.default_rng(3), 6):
        check(modeled, synthesize_codeword(modeled, target, True), target)


@pytest.mark.parametrize("n_x, n_y", [(31, 17), (21, 33)])
def test_odd_and_non_square_lattices(n_x, n_y, check):
    asm = AntennaAssembly(array=RisArray(n_x=n_x, n_y=n_y, group_size=1))
    rng = np.random.default_rng(n_x * n_y)
    for target in [Direction(0.0, 0.0), *_random_targets(rng, 8)]:
        check(asm, synthesize_codeword(asm, target), target)
    # masks without a dominant lobe leave most of the grid as candidates
    for _ in range(3):
        check(asm, rng.integers(0, 2, asm.array.n_groups), Direction(0.0, 0.0))


@pytest.mark.parametrize("frequency_ghz, step, period", [(0.001, 0.1, 1.0), (26.0, 1.0, 5.0)])
def test_the_peak_fft_holds_the_widest_row(frequency_ghz, step, period):
    # the bound's FFT samples a row without cutting it short for any side
    # a RisArray may hold, at the lowest tested k and the finest step; the
    # rule alone, so the finest step's lag table is never built
    kd = wavenumber_per_mm(frequency_ghz) * period
    rad = np.radians(direction_grid(step)[0])
    assert pattern._samples_per_period(MAX_ARRAY_SIDE, kd, rad[1] - rad[0]) >= MAX_ARRAY_SIDE


def _assert_both_bounds_cover(grid, intensity):
    """Every row bound, before and after the FFT tightens it, covers its
    row's largest |F|^2; with every row filled, the point bound covers
    |F|^2 at every grid point."""
    row_max = intensity.max(axis=1)
    assert np.all(grid.row_bound >= row_max)
    grid.fill(0.0)
    assert grid.filled.all()
    assert np.all(grid.row_bound >= row_max)
    assert np.all(grid.bound >= intensity.ravel())


def _assert_first_max_is_argmax(grid, intensity):
    assert pattern._first_max(grid) == (intensity.max(), int(np.argmax(intensity)))


def test_the_widest_one_bit_row_is_bounded():
    # one-bit rows of the widest side steered to az0: both bounds cover
    # the exact field, and the search finds the full 1 deg grid's first
    # maximum
    period, k = 5.0, 0.545
    x_mm = (np.arange(MAX_ARRAY_SIDE) - 0.5 * (MAX_ARRAY_SIDE - 1)) * period
    tables = pattern._grid_tables(period, k, 1, MAX_ARRAY_SIDE, pattern.ELEMENT_EXPONENT, 1.0)
    assert tables.n_fft >= MAX_ARRAY_SIDE
    for az0 in (0.0, -20.0):
        row = np.where(np.cos(k * x_mm * math.sin(math.radians(az0))) >= 0, 1.0, -1.0)
        coeffs = row[None, :].astype(complex)
        intensity = pattern._abs2(pattern._lattice_field(period, coeffs, k,
                                                         *direction_grid(1.0)))
        _assert_both_bounds_cover(pattern._GridField(tables, coeffs), intensity)
        _assert_first_max_is_argmax(pattern._GridField(tables, coeffs), intensity)


def test_a_line_with_no_pruned_row_finds_the_first_maximum(monkeypatch):
    # a uniform line with no element factor peaks at ux = 0, which every
    # elevation row holds: no row bound falls below the peak, every row is
    # filled, and the first row wins the tie
    monkeypatch.setattr(pattern, "ELEMENT_EXPONENT", 0.0)
    period, k, n_x = 5.0, 0.545, 64
    tables = pattern._grid_tables(period, k, 1, n_x, 0.0, 1.0)
    coeffs = np.ones((1, n_x), dtype=complex)
    intensity = pattern._abs2(pattern._lattice_field(period, coeffs, k, *direction_grid(1.0)))
    grid = pattern._GridField(tables, coeffs)
    _assert_first_max_is_argmax(grid, intensity)
    assert grid.filled.all()
    _assert_both_bounds_cover(grid, intensity)


_SIDES = st.integers(min_value=1, max_value=48)


@given(
    shape=st.one_of(st.tuples(st.just(1), _SIDES), st.tuples(_SIDES, st.just(1)),
                    st.tuples(_SIDES, _SIDES)),
    kind=st.sampled_from(["codeword", "complex"]),
    incidence=st.booleans(),
    step=st.sampled_from([0.5, 0.7, 1.0, 2.0]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(shape=(32, 32), kind="codeword", incidence=False, step=1.0, seed=0)
@example(shape=(17, 33), kind="complex", incidence=True, step=0.7, seed=1)
@settings(max_examples=25, deadline=None)
def test_the_bound_covers_the_field_at_every_grid_point(shape, kind, incidence, step,
                                                         seed):
    # the bounded search is exact only while both bounds cover |F|^2
    n_y, n_x = shape
    asm = AntennaAssembly(array=RisArray(n_x=n_x, n_y=n_y, group_size=1),
                          incidence_model=IncidenceModel() if incidence else None)
    rng = np.random.default_rng(seed)
    if kind == "codeword":
        (az_lo, az_hi), (el_lo, el_hi) = SCAN_SECTOR
        mask = synthesize_codeword(asm, Direction(rng.uniform(az_lo, az_hi),
                                                  rng.uniform(el_lo, el_hi)))
    else:
        mask = rng.standard_normal(n_x * n_y) + 1j * rng.standard_normal(n_x * n_y)
    _, grid = pattern._grid_field(asm, mask, step)
    intensity = pattern._abs2(pattern._lattice_field(
        asm.array.period_mm, grid.coeffs, asm.k_per_mm, *direction_grid(step)))
    _assert_both_bounds_cover(grid, intensity)
    _assert_first_max_is_argmax(pattern._grid_field(asm, mask, step)[1], intensity)


def test_random_masks(assembly, check):
    rng = np.random.default_rng(11)
    for _ in range(4):
        check(assembly, rng.integers(0, 2, assembly.array.n_groups), Direction(0.0, 0.0))


def test_single_element_and_very_low_frequency(assembly, check):
    single = AntennaAssembly(array=RisArray(n_x=1, n_y=1, group_size=1))
    check(single, np.ones(1, dtype=complex), Direction(0.0, 0.0))
    slow = replace(assembly, frequency_ghz=0.001)
    for target in (Direction(0.0, 0.0), Direction(30.0, -10.0)):
        check(slow, synthesize_codeword(slow, target), target)


def test_ties_go_to_the_first_grid_point(monkeypatch, check):
    # one uniform row with no element factor: |F| depends on ux alone, so
    # every elevation ties along az = 0 and the first row (el = -90) wins
    monkeypatch.setattr(pattern, "ELEMENT_EXPONENT", 0.0)
    line = AntennaAssembly(
        array=RisArray(n_x=16, n_y=1, group_size=1),
        feed=FeedModel(position_mm=(0.0, 0.0, 1e7), pattern_exponent=0.0),
    )
    got = check(line, np.ones(16, dtype=complex), Direction(0.0, 0.0))
    assert got.peak.el_deg == -90.0


@pytest.mark.parametrize("exponent", [1.0, 0.0, 0.5, 2.0])
@pytest.mark.parametrize("n_x, n_y, incidence", [
    (32, 32, False), (32, 32, True), (31, 17, False), (21, 33, True), (1, 1, False),
])
def test_lag_table_power_is_the_grid_power(n_x, n_y, incidence, exponent, monkeypatch):
    monkeypatch.setattr(pattern, "ELEMENT_EXPONENT", exponent)
    group = 2 if n_y % 2 == 0 else 1
    asm = AntennaAssembly(array=RisArray(n_x=n_x, n_y=n_y, group_size=group),
                          incidence_model=IncidenceModel() if incidence else None)
    rng = np.random.default_rng(n_x + n_y)
    masks = [rng.integers(0, 2, asm.array.n_groups)]
    if n_x > 1:
        masks.append(synthesize_codeword(asm, Direction(35.0, -12.0)))
    for mask in masks:
        coeffs = pattern._coefficients(asm, mask)
        lags = pattern._grid_tables(asm.array.period_mm, asm.k_per_mm, n_y, n_x, exponent, 1.0).lags
        lag_power = pattern._grid_power(lags, coeffs) * pattern._both_pols(asm)
        grid_power = far_field(asm, mask, *direction_grid(1.0)).power_total
        assert lag_power == pytest.approx(grid_power, rel=1e-12, abs=0.0)
