"""Feed placement: analytic efficiency model, grid search, the simplex
polish and the pattern-engine refinement stage."""

import inspect
import math
import sys

import numpy as np
import pytest
from scipy import optimize

from risant import feedopt
from risant.cli import main
from risant.constants import db10
from risant.feedopt import (
    MAX_COARSE_CELLS,
    PREDICTED_LOSS_DB,
    REFINE_OFFSETS_MM,
    FeedSearchSpace,
    _nelder_mead,
    aperture_efficiency,
    coarse_optimize_feed,
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
        # the grid's best cell is the first best row of the scan
        assert max(coarse.evaluations, key=lambda row: row[5])[:3] == best_pos
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


class TestScanBatches:
    """The coarse scan evaluates its cells a few to one array pass; each
    row keeps the bits of the one-position call."""

    @pytest.mark.parametrize("space", [
        FeedSearchSpace(),
        # 13 x 11 cells: the last batch is short
        FeedSearchSpace(x_mm=(-102.0, 102.0), z_mm=(85.0, 255.0), coarse_step_mm=17.0),
        FeedSearchSpace(x_mm=(-82.0, -82.0), z_mm=(150.0, 150.0)),
        # y = -20, 0, 20 under each x: batches that mix cells on and off
        # the y = 0 plane
        FeedSearchSpace(x_mm=(-100.0, -60.0), y_mm=(-20.0, 20.0), z_mm=(130.0, 170.0)),
    ], ids=["default", "odd", "single-cell", "y-range"])
    def test_each_row_equals_the_one_position_call(self, assembly, space):
        rows = coarse_optimize_feed(assembly, space).evaluations
        assert len(rows) == math.prod(space.axis_grid(axis).size for axis in range(3))
        for row in rows:
            br = aperture_efficiency(_with_feed(assembly, row[:3]), n_grid=128)
            assert row[3:] == (br.eta_spillover, br.eta_illumination, br.predicted_gain_dbi)

    def test_default_feed_opt_forms_half_the_mesh_rows(self, mesh_rows, tmp_path):
        # the default feed sits on the y = 0 plane and so does the search box:
        # a fall-back to the full mesh fails here, not only in the timings
        assert main(["feed-opt", "--out", str(tmp_path)]) == 0
        assert {n for n, _ in mesh_rows} == {32, 128, 256}
        assert all(rows == (n + 1) // 2 for n, rows in mesh_rows)


# where each simplex move happens in `_nelder_mead`, by a line of its source
_MOVE_LINES = {
    "reflect": "sim[-1], fsim[-1] = xr, fxr",
    "expand": "xe, fxe = trial(",
    "outside contraction": "xc, fxc = trial(",
    "inside contraction": "xcc, fxcc = trial(",
    "shrink": "sim[j] = np.clip(",
}
_OPTIONS = {"xatol": 0.05, "fatol": 1e-6, "maxiter": 400}


def _move_lines():
    lines, first = inspect.getsourcelines(_nelder_mead)
    found = {}
    for move, marker in _MOVE_LINES.items():
        (index,) = [i for i, line in enumerate(lines) if marker in line]
        found[first + index] = move
    return found


def _logged(cost, calls):
    """``cost`` that records its arguments, then scribbles on them: the
    simplex must not see a cost's writes."""
    def logged(v):
        calls.append(v.copy())
        value = cost(v)
        v[:] = np.nan
        return value
    return logged


def _scipy_run(cost, x0, lb, ub, **options):
    calls = []
    res = optimize.minimize(_logged(cost, calls), x0, method="Nelder-Mead",
                            bounds=list(zip(lb, ub)), options=options)
    return res.x, res.fun, calls


def _port_run(cost, x0, lb, ub, **options):
    """The port's (x, fun, cost arguments, simplex moves made)."""
    calls, moves = [], set()
    lines = _move_lines()
    code = _nelder_mead.__code__

    def on_line(frame, event, arg):
        if event == "line" and frame.f_lineno in lines:
            moves.add(lines[frame.f_lineno])
        return on_line

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: on_line if frame.f_code is code else None)
    try:
        x, fun = _nelder_mead(_logged(cost, calls), x0, lb, ub, **options)
    finally:
        sys.settrace(previous)
    return x, fun, calls, moves


def _feed_case(assembly, rng, n_free):
    """The polish's own cost on a random box with ``n_free`` free axes."""
    free = sorted(rng.choice(3, size=n_free, replace=False).tolist())
    lo = np.array([rng.uniform(-120.0, -60.0), rng.uniform(-20.0, 0.0), rng.uniform(90.0, 140.0)])
    hi = lo + np.array([rng.uniform(20.0, 80.0), rng.uniform(5.0, 20.0), rng.uniform(30.0, 100.0)])
    position = rng.uniform(lo, hi)

    def cost(v):
        p = position.copy()
        p[free] = v
        moved = _with_feed(assembly, tuple(float(c) for c in p))
        return -aperture_efficiency(moved, n_grid=128).predicted_gain_dbi
    return cost, position[free], lo[free], hi[free]


def _analytic_case(rng, n_free):
    """A stepped bowl whose centre may sit outside the box: its flat steps
    force shrinks, its outside centre clipped moves."""
    lo = rng.uniform(-50.0, 50.0, n_free)
    hi = lo + rng.uniform(1.0, 40.0, n_free)
    centre = rng.uniform(lo - 20.0, hi + 20.0)
    x0 = rng.uniform(lo, hi)
    return (lambda v: float(np.floor(np.sum((v - centre) ** 2) / 4.0))), x0, lo, hi


class TestNelderMeadPort:
    """`_nelder_mead` takes scipy 1.17's bounded Nelder-Mead steps to the bit."""

    @pytest.fixture(scope="class")
    def cases(self, assembly):
        rng = np.random.default_rng(2030)
        cases = [_feed_case(assembly, rng, n) for n in (1, 1, 2, 2, 3, 3)]
        cases += [_analytic_case(rng, n) for n in (1, 2, 2, 3, 3)]
        bowl = lambda v: float(np.sum((v - np.array([1.0, 40.0])[:v.size]) ** 2))
        # a start near the upper bound, whose 5 % step leaves the box
        cases.append((bowl, np.array([19.5]), np.array([0.0]), np.array([20.0])))
        # a zero coordinate, which steps by 0.00025 instead of 5 %
        cases.append((bowl, np.array([0.0, 3.0]), np.array([-5.0, -5.0]),
                      np.array([5.0, 50.0])))
        # a start past both bounds, which both clip into the box
        cases.append((bowl, np.array([25.0, -7.0]), np.array([0.0, -5.0]),
                      np.array([20.0, 50.0])))
        return cases

    @pytest.mark.parametrize("maxiter", [400, 5])
    @pytest.mark.filterwarnings("ignore:Initial guess is not within the specified bounds")
    def test_same_calls_and_bits_as_scipy(self, cases, maxiter):
        options = dict(_OPTIONS, maxiter=maxiter)
        for cost, x0, lb, ub in cases:
            x_ref, fun_ref, calls_ref = _scipy_run(cost, x0, lb, ub, **options)
            x, fun, calls, _ = _port_run(cost, x0, lb, ub, **options)
            assert np.array_equal(x, x_ref) and fun == fun_ref
            assert len(calls) == len(calls_ref)
            assert all(np.array_equal(a, b) for a, b in zip(calls, calls_ref))
            assert len(calls) <= (maxiter - 1) * (2 + x0.size) + x0.size + 1

    def test_cases_reach_every_branch(self, cases):
        moves, clipped, reflected, zero_step = set(), False, False, False
        for cost, x0, lb, ub in cases:
            _, _, calls, run_moves = _port_run(cost, x0, lb, ub, **_OPTIONS)
            moves |= run_moves
            n = x0.size
            start, trials = np.array(calls[:n + 1]), np.array(calls[n + 1:]).reshape(-1, n)
            clipped |= bool(((trials == lb) | (trials == ub)).any())
            stepped = x0 * (1 + 0.05)
            for k in range(n):
                reflected |= bool(stepped[k] > ub[k] and 2 * ub[k] - stepped[k] in start[:, k])
                zero_step |= bool(x0[k] == 0 and 0.00025 in start[:, k])
        assert moves == set(_MOVE_LINES)
        assert clipped and reflected and zero_step


class TestRefine:
    def test_zero_offset_identity(self, assembly):
        assert REFINE_OFFSETS_MM[0] == (0.0, 0.0, 0.0)
        res = refine_feed(assembly, (-82.0, 0.0, 150.0))
        assert res.evaluations[0] == (0.0, 0.0, 0.0, realized_feed_gain(
            assembly, (-82.0, 0.0, 150.0)))

    def test_never_below_candidate(self, assembly):
        res = refine_feed(assembly, (-82.0, 0.0, 150.0))
        assert [row[:3] for row in res.evaluations] == list(REFINE_OFFSETS_MM)
        assert res.realized_gain_dbi == max(row[3] for row in res.evaluations)
        assert res.realized_gain_dbi >= res.evaluations[0][3]
        best = next(row for row in res.evaluations if row[3] == res.realized_gain_dbi)
        assert res.position_mm == (-82.0 + best[0], best[1], 150.0 + best[2])

    def test_ties_keep_the_earliest_offset(self, assembly, monkeypatch):
        # every offset that moves x gains the same, more than the candidate
        monkeypatch.setattr(feedopt, "realized_feed_gain",
                            lambda asm, pos: 20.0 if pos[0] == -82.0 else 21.0)
        res = refine_feed(assembly, (-82.0, 0.0, 150.0))
        assert res.position_mm == (-42.0, 0.0, 150.0)
        assert res.realized_gain_dbi == 21.0
        monkeypatch.setattr(feedopt, "realized_feed_gain", lambda asm, pos: 20.0)
        assert refine_feed(assembly, (-82.0, 0.0, 150.0)).position_mm == (-82.0, 0.0, 150.0)

    @pytest.mark.parametrize("z", [0.5, 10.0, 30.0])
    def test_offsets_on_or_below_the_aperture_are_skipped(self, assembly, z):
        res = refine_feed(assembly, (-82.0, 0.0, z))
        assert [row[:3] for row in res.evaluations] == [
            offset for offset in REFINE_OFFSETS_MM if z + offset[2] > 0]
        assert len(res.evaluations) == len(REFINE_OFFSETS_MM) - 1
        assert res.realized_gain_dbi == max(row[3] for row in res.evaluations)

    def test_feed_opt_on_a_low_box_writes_the_rows_it_can(self, tmp_path):
        # a box below the -30 mm offset: the refinement drops that row
        assert main(["feed-opt", "--feed.search.z_mm", "[0.5, 10]",
                     "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "feed_refine.csv").read_text().splitlines()[1:]
        assert [tuple(float(v) for v in row.split(",")[:3]) for row in rows] == \
            list(REFINE_OFFSETS_MM[:-1])

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
        )
        coarse = coarse_optimize_feed(assembly, space)
        refined = refine_feed(assembly, coarse.position_mm)
        zero_row = [r for r in refined.evaluations if r[:3] == (0.0, 0.0, 0.0)][0]
        assert refined.realized_gain_dbi >= zero_row[3]
        x, y, z = coarse.position_mm
        assert -100.0 <= x <= -60.0 and y == 0.0 and 130.0 <= z <= 170.0
