"""Feed placement: analytic efficiency model and two-stage optimization.

Stage one scans a coarse grid of feed positions scoring the analytic
spillover-times-illumination efficiency product, then polishes the best
cell with a derivative-free simplex restricted to the search bounds
(`_nelder_mead`, a port of scipy's bounded Nelder-Mead).
Stage two re-evaluates a small set of candidate offsets through the
full pattern engine (one-bit codeword, realized gain) and keeps the
best, so model bias cannot move the feed somewhere the synthesized
pattern dislikes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import db10
from .geometry import AntennaAssembly, Direction
from .pattern import (
    _illumination,
    _spillover,
    directivity_upper_bound,
    steered_gain,
    taper_efficiency,
)
from .synthesis import synthesize_codeword

# Gap between the aperture directivity bound scaled by the analytic
# efficiencies and the realized one-bit gain; bundles the quantization
# loss (~2-4 dB) with the fixed reflection/fabrication loss constant of
# the pattern engine.  Calibrated against the realized gain at the
# nominal feed position.
PREDICTED_LOSS_DB = -8.75

# Stage two's candidate offsets from the coarse position; the first is zero,
# so the refined gain never falls below the candidate's
REFINE_OFFSETS_MM = (
    (0.0, 0.0, 0.0),
    (40.0, 0.0, 0.0), (-40.0, 0.0, 0.0),
    (80.0, 0.0, 0.0), (-80.0, 0.0, 0.0),
    (0.0, 0.0, 30.0), (0.0, 0.0, -30.0),
)

# The realized gain that stage two scores is the broadside beam's.
_BROADSIDE = Direction(0.0, 0.0)

# Most cells the coarse scan may visit, counting span / step + 2 points an
# axis: each costs about 0.2 ms of efficiency evaluation on the feed's
# y = 0 plane, 0.3 ms off it; the default box holds 130.
MAX_COARSE_CELLS = 10_000

# Feed positions the coarse scan evaluates in one array pass.  Two keep a
# pass's float64 temporaries on the 128 x 128 spillover mesh at 128 kB (half
# the mesh, on the y = 0 plane) or 256 kB (the whole mesh); three or four
# measured slower off the plane, and four slower in whole `steer` passes.
_SCAN_CHUNK = 2


@dataclass(frozen=True)
class FeedSearchSpace:
    """Axis-aligned box of candidate feed positions, millimetres."""

    x_mm: tuple[float, float] = (-120.0, 120.0)
    y_mm: tuple[float, float] = (0.0, 0.0)
    z_mm: tuple[float, float] = (80.0, 260.0)
    coarse_step_mm: float = 20.0

    def __post_init__(self):
        for name, (lo, hi) in (("x", self.x_mm), ("y", self.y_mm), ("z", self.z_mm)):
            if lo > hi:
                raise ValueError(f"{name} bounds must satisfy lo <= hi, got ({lo}, {hi})")
        if self.z_mm[0] <= 0:
            raise ValueError("feed search must stay above the aperture (z > 0)")
        if self.coarse_step_mm <= 0:
            raise ValueError("coarse step must be positive")
        cells = math.prod((hi - lo) / self.coarse_step_mm + 2 if hi > lo else 1
                          for lo, hi in (self.x_mm, self.y_mm, self.z_mm))
        if cells > MAX_COARSE_CELLS:
            raise ValueError(f"coarse grid of {cells:.3g} cells, more than {MAX_COARSE_CELLS}")

    def axis_grid(self, axis: int) -> np.ndarray:
        lo, hi = (self.x_mm, self.y_mm, self.z_mm)[axis]
        if hi == lo:
            return np.array([lo])
        n = int(math.floor((hi - lo) / self.coarse_step_mm + 1e-9))
        grid = lo + self.coarse_step_mm * np.arange(n + 1)
        if grid[-1] < hi - 1e-9:
            grid = np.append(grid, hi)
        return grid


@dataclass(frozen=True)
class EfficiencyBreakdown:
    eta_spillover: float
    eta_illumination: float
    predicted_gain_dbi: float


def _with_feed(assembly: AntennaAssembly, position_mm) -> AntennaAssembly:
    feed = replace(assembly.feed, position_mm=tuple(float(v) for v in position_mm))
    return replace(assembly, feed=feed)


def _efficiencies(assembly: AntennaAssembly, feeds, n_grid: int) -> list:
    """`aperture_efficiency` of the assembly lit by each of ``feeds``,
    ``_SCAN_CHUNK`` feeds to one array pass."""
    d_max = directivity_upper_bound(assembly.array.aperture_m2, assembly.frequency_ghz)
    out = []
    for start in range(0, len(feeds), _SCAN_CHUNK):
        chunk = feeds[start:start + _SCAN_CHUNK]
        amplitudes = np.abs(_illumination(assembly, chunk)[1]).reshape(len(chunk), -1)
        for eta_s, amp in zip(_spillover(assembly.array, chunk, n_grid), amplitudes):
            eta_i = taper_efficiency(amp)
            predicted = d_max + db10(eta_s * eta_i) + PREDICTED_LOSS_DB
            out.append(EfficiencyBreakdown(eta_s, eta_i, float(predicted)))
    return out


def aperture_efficiency(assembly: AntennaAssembly, n_grid: int = 256) -> EfficiencyBreakdown:
    """Analytic spillover / illumination figures for one feed position."""
    return _efficiencies(assembly, [assembly.feed], n_grid)[0]


# Nelder-Mead reflection, expansion, contraction and shrink coefficients
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5


def _nelder_mead(cost, x0, lb, ub, xatol, fatol, maxiter):
    """Minimize ``cost`` over the box [lb, ub] from ``x0``; returns (x, fun).

    A step-for-step port of scipy 1.17's bounded ``_minimize_neldermead``
    with ``maxiter`` given, so with no cap on evaluations: it calls
    ``cost`` on the same points in the same order and returns the same
    bits as ``scipy.optimize.minimize(cost, x0, method="Nelder-Mead",
    bounds=list(zip(lb, ub)), options={"xatol": xatol, "fatol": fatol,
    "maxiter": maxiter})``.  Keep its expressions as they are: each one
    rounds as scipy's does.
    """
    lb, ub = np.asarray(lb, dtype=float), np.asarray(ub, dtype=float)
    x0 = np.clip(np.asarray(x0, dtype=float), lb, ub)
    n = x0.size
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = x0.copy()
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    # a vertex past the upper bound is reflected back inside, then all are clipped
    sim = np.clip(np.where(sim > ub, 2 * ub - sim, sim), lb, ub)
    fsim = np.array([cost(np.copy(v)) for v in sim], dtype=float)
    for _ in range(2):  # scipy sorts twice here
        order = np.argsort(fsim)
        sim, fsim = np.take(sim, order, 0), np.take(fsim, order, 0)

    def trial(a, b):  # the clipped point a * xbar - b * worst, and its cost
        x = np.clip(a * xbar - b * sim[-1], lb, ub)
        return x, cost(np.copy(x))

    iterations = 1
    while iterations < maxiter:
        if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr, fxr = trial(1 + _RHO, _RHO)  # reflect
        shrink = False
        if fxr < fsim[0]:  # expand
            xe, fxe = trial(1 + _RHO * _CHI, _RHO * _CHI)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-1]:  # contract outside
            xc, fxc = trial(1 + _PSI * _RHO, _PSI * _RHO)
            if fxc <= fxr:
                sim[-1], fsim[-1] = xc, fxc
            else:
                shrink = True
        else:  # contract inside, to (1 - psi) * xbar + psi * worst
            xcc, fxcc = trial(1 - _PSI, -_PSI)
            if fxcc < fsim[-1]:
                sim[-1], fsim[-1] = xcc, fxcc
            else:
                shrink = True
        if shrink:
            for j in range(1, n + 1):
                sim[j] = np.clip(sim[0] + _SIGMA * (sim[j] - sim[0]), lb, ub)
                fsim[j] = cost(np.copy(sim[j]))
        iterations += 1
        order = np.argsort(fsim)
        sim, fsim = np.take(sim, order, 0), np.take(fsim, order, 0)
    return sim[0], np.min(fsim)


@dataclass(frozen=True)
class CoarseFeedResult:
    position_mm: tuple[float, float, float]
    predicted_gain_dbi: float
    evaluations: list  # rows: (x, y, z, eta_s, eta_i, predicted_gain)


def coarse_optimize_feed(assembly: AntennaAssembly,
                         space: FeedSearchSpace = FeedSearchSpace()) -> CoarseFeedResult:
    """Grid scan of the analytic model followed by a simplex polish."""
    cells = [(float(x), float(y), float(z)) for x in space.axis_grid(0)
             for y in space.axis_grid(1) for z in space.axis_grid(2)]
    feeds = [replace(assembly.feed, position_mm=cell) for cell in cells]
    rows = [(*cell, br.eta_spillover, br.eta_illumination, br.predicted_gain_dbi)
            for cell, br in zip(cells, _efficiencies(assembly, feeds, 128))]
    # the first of equal gains, as a strict > over the rows in scan order
    best = max(rows, key=lambda row: row[5])
    grid_best, grid_gain = best[:3], best[5]

    free = [i for i in range(3) if space.axis_grid(i).size > 1]
    position = np.asarray(grid_best, dtype=float)
    if free:
        box = np.array([(space.x_mm, space.y_mm, space.z_mm)[i] for i in free])

        def cost(v):
            p = position.copy()
            p[free] = v
            return -aperture_efficiency(_with_feed(assembly, p), n_grid=128).predicted_gain_dbi

        x, fun = _nelder_mead(cost, position[free], box[:, 0], box[:, 1],
                              xatol=0.05, fatol=1e-6, maxiter=400)
        if -fun >= grid_gain:
            position[free] = x
            grid_gain = -fun
    return CoarseFeedResult(
        position_mm=tuple(float(v) for v in position),
        predicted_gain_dbi=float(grid_gain),
        evaluations=rows,
    )


@dataclass(frozen=True)
class RefinedFeedResult:
    position_mm: tuple[float, float, float]
    realized_gain_dbi: float
    evaluations: list  # rows: (dx, dy, dz, realized_gain)


def realized_feed_gain(assembly: AntennaAssembly, position_mm) -> float:
    """One-bit realized broadside gain of the assembly with the feed moved."""
    moved = _with_feed(assembly, position_mm)
    codeword = synthesize_codeword(moved, _BROADSIDE)
    return steered_gain(moved, codeword, _BROADSIDE).gain_dbi


def refine_feed(assembly: AntennaAssembly, candidate_mm) -> RefinedFeedResult:
    """Re-score the candidate moved by each of ``REFINE_OFFSETS_MM`` with
    the full pattern engine.

    The first offset is zero, so the refined result never falls below the
    candidate's realized gain; ties keep the earliest offset.  An offset
    that would put the feed on or behind the aperture (z <= 0) is skipped
    and has no row.
    """
    candidate = np.asarray(candidate_mm, dtype=float)
    rows = [(*delta, realized_feed_gain(assembly, candidate + delta))
            for delta in REFINE_OFFSETS_MM if candidate[2] + delta[2] > 0]
    # the first of equal gains, as a strict > over the rows in offset order
    best = max(rows, key=lambda row: row[3])
    return RefinedFeedResult(
        position_mm=tuple(float(v) for v in candidate + best[:3]),
        realized_gain_dbi=best[3],
        evaluations=rows,
    )
