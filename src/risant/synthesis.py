"""Codeword synthesis for one-bit, group-constrained beam control.

The phase each element must add for a coherent beam toward a target
direction compensates the spherical feed path and applies the steering
gradient:

    phi_n = k * (|r_feed - r_n| - r_n . u_target)   (mod 360)

Elements sharing a bias line are fused by the circular mean of their
required phases, then quantized to the two available states (0 or 180
degrees added phase).  Wide sector beams tile the aperture into
contiguous sub-apertures steered to interleaved directions, and a
hierarchical codebook of such beams supports noisy beam training with
an optional search-space widening retry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import AntennaAssembly, Direction, incidence_angles
from .pattern import (
    far_field,
    resolve_reflections,
    state_reflections,
    steered_gain,
    steering_row,
)

# Synthesis is allowed anywhere inside this azimuth/elevation sector.
SCAN_SECTOR = ((-60.0, 60.0), (-30.0, 30.0))

DEFAULT_ACCEPT_THRESHOLD_DB = -6.0
DEFAULT_CODEBOOK_LEVELS = 3
DEFAULT_CODEBOOK_BRANCHING = 4

# Work bound on the training command's trial count.  A trial takes about
# 0.12 ms and keeps about 60 bytes of results: on a shared 2-core x86 host
# 20 000 trials ran in 2.6 s at 44 MB of peak RSS, 10^5 in 11.8 s at 62 MB.
# The standard error of a success rate is then under 0.2 %, finer than any
# comparison the command makes.
MAX_TRAINING_TRIALS = 100_000

# Per-element rows (trials' steering rows, leaves' phases) go in blocks of
# at most 1 MB (64 rows of 32x32) but at least 4 rows (1 MB each at 256x256).
_BLOCK_BYTES = 1 << 20


def required_phases(assembly: AntennaAssembly, target: Direction | list[Direction],
                    compensate_incidence: bool = False) -> np.ndarray:
    """Required added phase per element, degrees in [0, 360); for a list of
    targets one row each, with the bits of that target's own call.

    With ``compensate_incidence`` the quadratic incidence-angle phase
    shift of the assembly's incidence model is subtracted so the
    realized reflection lands on the ideal phase.
    """
    positions = assembly.array.positions_mm()
    r_feed = np.linalg.norm(positions - assembly.feed.position(), axis=1)
    # one matrix-vector product a target: a matrix product rounds differently
    along = np.array([positions @ t.unit_vector() for t in np.atleast_1d(target)])
    phase = np.degrees(assembly.k_per_mm * (r_feed - along))
    if compensate_incidence and assembly.incidence_model is not None:
        theta = incidence_angles(assembly.feed, positions)
        phase = phase - assembly.incidence_model.beta_deg_per_deg2 * theta**2
    # double mod: a tiny negative input rounds to exactly 360.0 otherwise
    phase = np.mod(np.mod(phase, 360.0), 360.0)
    return phase if isinstance(target, list) else phase[0]


def quantize_one_bit(phase_deg) -> np.ndarray:
    """Nearest of the two states 0/180 deg; ties (90, 270) go to state 1."""
    phase = np.mod(np.asarray(phase_deg, dtype=float), 360.0)
    return ((phase >= 90.0) & (phase <= 270.0)).astype(np.uint8)


def group_circular_mean(assembly: AntennaAssembly, phases_deg: np.ndarray) -> np.ndarray:
    """Circular mean of the member phases per bias group, degrees [0, 360),
    of one phase row or of each row of a stack."""
    vectors = np.exp(1j * np.radians(phases_deg))
    n_groups = assembly.array.n_groups
    sums = np.zeros(vectors.shape[:-1] + (n_groups,), dtype=complex)
    # one add.at over (row, group) on a flat index, numpy's fast path
    index = np.arange(sums.size // n_groups)[:, None] * n_groups + assembly.array.grouping
    np.add.at(sums.reshape(-1), index.ravel(), vectors.ravel())
    # double mod: a tiny negative mean rounds to exactly 360.0 otherwise
    return np.mod(np.mod(np.degrees(np.angle(sums)), 360.0), 360.0)


def _check_sector(target: Direction) -> None:
    (az_lo, az_hi), (el_lo, el_hi) = SCAN_SECTOR
    if not (az_lo <= target.az_deg <= az_hi and el_lo <= target.el_deg <= el_hi):
        raise ValueError(
            f"target (az={target.az_deg}, el={target.el_deg}) outside the scan sector "
            f"az [{az_lo}, {az_hi}], el [{el_lo}, {el_hi}]"
        )


@dataclass(frozen=True, eq=False)
class Codeword:
    """One-bit states per bias group, resolved through the element circuit."""

    states: np.ndarray

    def __post_init__(self):
        states = np.asarray(self.states)
        if states.ndim != 1 or not np.all((states == 0) | (states == 1)):
            raise ValueError("codeword states must be a flat 0/1 array")


def synthesize_codeword(assembly: AntennaAssembly, target: Direction,
                        compensate_incidence: bool = False) -> Codeword:
    """Grouped one-bit codeword steering the beam toward ``target``."""
    _check_sector(target)
    phases = required_phases(assembly, target, compensate_incidence)
    fused = group_circular_mean(assembly, phases)
    return Codeword(states=quantize_one_bit(fused))


def continuous_reflections(assembly: AntennaAssembly, phases_deg: np.ndarray,
                           amplitude: float | str = 1.0) -> np.ndarray:
    """Idealized per-element reflections with continuous phase control.

    ``amplitude`` may be a number or ``"state-average"`` to use the mean
    of the two one-bit state magnitudes, which isolates phase
    quantization when comparing against the one-bit pipeline.
    """
    if amplitude == "state-average":
        g_off, g_on = state_reflections(assembly)
        amplitude = 0.5 * (abs(g_off) + abs(g_on))
    return float(amplitude) * np.exp(1j * np.radians(np.asarray(phases_deg, dtype=float)))


def scan_evaluation(assembly: AntennaAssembly, targets,
                    compensate_incidence: bool = False) -> list[tuple]:
    """Synthesize and evaluate one-bit beams for a list of directions.

    One row per target: (az_deg, el_deg, gain_dbi, pointing_error_deg,
    loss_vs_broadside_db).
    """
    broadside = synthesize_codeword(assembly, Direction(0.0, 0.0), compensate_incidence)
    g0 = steered_gain(assembly, broadside, Direction(0.0, 0.0)).gain_dbi
    rows = []
    for target in targets:
        cw = synthesize_codeword(assembly, target, compensate_incidence)
        sg = steered_gain(assembly, cw, target)
        rows.append((target.az_deg, target.el_deg, sg.gain_dbi, sg.pointing_error_deg,
                     g0 - sg.gain_dbi))
    return rows


@dataclass(frozen=True, eq=False)
class WideBeamResult:
    codeword: Codeword | None       # one-bit variant
    phases_deg: np.ndarray | None   # continuous variant
    n_subapertures: int
    ripple_db: float
    note: str = ""


def _subaperture_direction_map(assembly: AntennaAssembly, sector_az, n_sub):
    """Strip centre azimuths and each element's strip; n_sub <= n_x leaves no strip empty."""
    lo, hi = sector_az
    n_x = assembly.array.n_x
    edges = np.linspace(0, n_x, n_sub + 1).astype(int)
    centers = lo + (np.arange(n_sub) + 0.5) * (hi - lo) / n_sub
    ix = np.arange(assembly.array.n_elements) % n_x
    return centers, np.searchsorted(edges, ix, side="right") - 1


def estimate_hpbw_deg(assembly: AntennaAssembly) -> float:
    """Rough broadside beamwidth of the full aperture, degrees."""
    width_mm = assembly.array.n_x * assembly.array.period_mm
    return math.degrees(0.886 * assembly.wavelength_mm / width_mm)


def synthesize_wide_beam(assembly: AntennaAssembly, sector_az: tuple[float, float],
                         el_deg: float = 0.0, n_subapertures: int | None = None,
                         quantize: bool = True,
                         evaluate_ripple: bool = True) -> WideBeamResult:
    """Sector beam from contiguous column strips steered across the sector.

    Each strip of columns reuses the narrow-beam synthesis restricted to
    its elements, aimed at the centre of its share of the sector.  The
    ripple metric is the max-minus-min gain over the sector interior
    (innermost 80 %).  A sector narrower than one beamwidth falls back
    to the narrow codeword at the sector centre.
    """
    lo, hi = sector_az
    if not (lo < hi):
        raise ValueError(f"sector bounds must satisfy lo < hi, got [{lo}, {hi}]")
    _check_sector(Direction(lo, el_deg))
    _check_sector(Direction(hi, el_deg))
    width = hi - lo
    hpbw = estimate_hpbw_deg(assembly)
    note = ""
    if n_subapertures is not None and not 1 <= n_subapertures <= assembly.array.n_x:
        raise ValueError(f"n_subapertures must be in [1, {assembly.array.n_x}] "
                         f"(at most one strip per column), got {n_subapertures}")
    if n_subapertures is None:
        # Scalloping-optimal strip count: sub-beams (width ~ M*hpbw) cross
        # over near their -3 dB points when M ~ sqrt(width / hpbw).  More
        # strips overlap heavily and interfere coherently, carving deep
        # in-sector nulls that break the monotone-ordering property the
        # hierarchical search relies on.
        n_subapertures = max(1, min(assembly.array.n_x,
                                    round(math.sqrt(width / hpbw))))
    if width <= hpbw:
        n_subapertures = 1
        note = "sector within one beamwidth; narrow codeword at sector centre"

    centers, strip = _subaperture_direction_map(assembly, sector_az, n_subapertures)
    # each element takes the phase toward its strip's centre
    phases = required_phases(assembly, [Direction(float(c), el_deg) for c in centers])
    phases = phases[strip, np.arange(assembly.array.n_elements)]

    codeword = None
    phases_out = None
    if quantize:
        fused = group_circular_mean(assembly, phases)
        codeword = mask = Codeword(states=quantize_one_bit(fused))
    else:
        if n_subapertures > 1:
            phases = _align_strip_phases(assembly, phases, strip, sector_az, el_deg)
        phases_out = phases
        mask = continuous_reflections(assembly, phases)

    ripple = math.nan
    if evaluate_ripple:
        inset = 0.1 * width
        az = np.arange(lo + inset, hi - inset + 1e-9, min(0.25, width / 40))
        # the power normalization and gain offset are one constant over
        # the cut, so they cancel in max - min
        gains = far_field(assembly, mask, az, np.array([el_deg])).gain_dbi()[0]
        ripple = float(np.max(gains) - np.min(gains))
    return WideBeamResult(codeword=codeword, phases_deg=phases_out,
                          n_subapertures=n_subapertures, ripple_db=ripple, note=note)


def _align_strip_phases(assembly: AntennaAssembly, phases: np.ndarray,
                        strip: np.ndarray, sector_az: tuple[float, float],
                        el_deg: float) -> np.ndarray:
    """Per-strip constants making adjacent sub-beams add in phase at their
    crossover directions.

    The strips are synthesized independently, so their relative phase in
    any particular direction is an accident of geometry; a destructive
    accident at a handover direction carves a null inside the sector.
    Only the continuous-phase path uses this: one-bit states keep the
    plain concatenated construction (the quantizer would erase most of
    the correction anyway).
    """
    lo, hi = sector_az
    n = int(strip.max()) + 1
    width = hi - lo
    refl = continuous_reflections(assembly, phases)
    shift = np.zeros(n)
    for s in range(n - 1):
        cross = Direction(lo + (s + 1) * width / n, el_deg)
        row = steering_row(assembly, cross)
        f_here = row[strip == s] @ refl[strip == s]
        f_next = row[strip == s + 1] @ refl[strip == s + 1]
        shift[s + 1] = shift[s] + math.degrees(np.angle(f_here) - np.angle(f_next))
    out = np.array(phases, dtype=float)
    for s in range(1, n):
        out[strip == s] = np.mod(out[strip == s] + shift[s], 360.0)
    return out


@dataclass(frozen=True, eq=False)
class Codebook:
    """Hierarchical beam codebook over an azimuth sector.

    ``levels[l]`` is a (branching**(l+1), n_elements) matrix of resolved
    per-element reflections, one row per entry.  The rows of a level
    split the sector into equal azimuth slices in order, so the children
    of entry ``i`` are rows ``i*branching`` to ``(i+1)*branching - 1`` of
    the next level.  Rows of the last level are narrow beams at their
    slice centres; the rows above are wide beams over their slices.
    """

    levels: list
    sector_az: tuple[float, float]
    branching: int

    def entry_sector(self, level: int, index: int) -> tuple[float, float]:
        """Azimuth slice (lo, hi) of row ``index`` of ``levels[level]``, deg."""
        lo, hi = self.sector_az
        width = (hi - lo) / self.branching ** (level + 1)
        s_lo = lo + index * width
        return s_lo, s_lo + width


def build_codebook(assembly: AntennaAssembly, sector_az=SCAN_SECTOR[0],
                   n_levels: int = DEFAULT_CODEBOOK_LEVELS,
                   branching: int = DEFAULT_CODEBOOK_BRANCHING,
                   quantize: bool = True, el_deg: float = 0.0) -> Codebook:
    """Wide-to-narrow beam hierarchy; leaves are narrow beams.

    Each row is a wide beam (:func:`synthesize_wide_beam`) or, on the last
    level, a narrow beam at the slice centre, resolved through the element
    circuit when one-bit (``quantize``) and through
    :func:`continuous_reflections` otherwise.  The leaves, sector /
    branching**n_levels wide, may be no narrower than 1/8 of
    :func:`estimate_hpbw_deg`: narrower leaves cost codewords (the count
    grows as branching**n_levels) without adding resolution.
    """
    if n_levels < 1 or branching < 2:
        raise ValueError("codebook needs at least one level and branching >= 2")
    lo, hi = sector_az
    if not lo < hi:
        raise ValueError(f"sector bounds must satisfy lo < hi, got [{lo}, {hi}]")
    # compared in logs, since a huge n_levels would make the power itself slow
    hpbw = estimate_hpbw_deg(assembly)
    if n_levels * math.log(branching) > math.log(8.0 * (hi - lo) / hpbw):
        raise ValueError(
            f"{n_levels} levels of {branching} split the {hi - lo:g} deg sector into "
            f"leaves narrower than 1/8 of the {hpbw:.2f} deg beamwidth")
    codebook = Codebook(levels=[], sector_az=(lo, hi), branching=branching)
    beams = [synthesize_wide_beam(assembly, codebook.entry_sector(level, i), el_deg=el_deg,
                                  quantize=quantize, evaluate_ripple=False)
             for level in range(n_levels - 1) for i in range(branching ** (level + 1))]
    beams = [wb.codeword.states if quantize else wb.phases_deg for wb in beams]
    centers = [Direction(0.5 * (s_lo + s_hi), el_deg) for s_lo, s_hi in (
        codebook.entry_sector(n_levels - 1, i) for i in range(branching ** n_levels))]
    if quantize:   # as synthesize_codeword checks its target
        for center in centers:
            _check_sector(center)
    # the leaves' phases in blocks, each fused and quantized at once
    block = max(4, _BLOCK_BYTES // (16 * assembly.array.n_elements))
    for first in range(0, len(centers), block):
        phases = required_phases(assembly, centers[first:first + block])
        beams.extend(quantize_one_bit(group_circular_mean(assembly, phases)) if quantize
                     else phases)
    rows = (resolve_reflections if quantize else continuous_reflections)(assembly, beams)
    codebook.levels.extend(np.split(rows, np.cumsum(branching ** np.arange(1, n_levels))))
    return codebook


@dataclass(frozen=True)
class TrainingResult:
    """One descent's outcome, or per-trial arrays of a batch of trials."""

    selected_leaf: int
    pilots_used: int
    widenings: int
    success: bool


def beam_training(assembly: AntennaAssembly, codebook: Codebook, truth,
                  pilot_snr_db: float | None = None, widening=True,
                  accept_threshold_db: float = DEFAULT_ACCEPT_THRESHOLD_DB, rng=None):
    """Hierarchical descent with one optional widening retry per level.

    Every pilot measurement is the received power of one codebook row
    toward the (unknown) true direction, corrupted by complex Gaussian
    noise holding each pilot at ``pilot_snr_db`` (``None`` means
    noiseless): the noise amplitude is relative to the pilot's own field
    magnitude, so every measurement sees that signal-to-noise ratio
    however wide (and hence weak) the beam is.  Level 0 measures all its
    rows; each lower level measures the ``branching`` children of the row
    kept above and keeps the strongest.  When that falls more than
    ``accept_threshold_db`` below its parent's measurement, the search
    widens once to all ``branching**2`` rows of the level under the
    grandparent (at level 1 the root, whose grandchildren are the whole
    level).  Success means the chosen leaf's :meth:`Codebook.entry_sector`
    contains the true azimuth.  The noise is one draw from ``rng`` of as
    many values as a widened descent can spend, read (re, im) for each
    pilot in turn.

    ``truth`` may also be a sequence of directions, one trial each, with
    ``rng`` a sequence of as many generators or seeds: the result's fields
    are then per-trial arrays.  ``widening`` may be a tuple of flags, one
    arm each, reading the same noise: the result is then a tuple.  Each
    level's rows are measured for every trial in one product, and the
    descent runs as array operations over the trials.
    """
    single = isinstance(truth, Direction)
    results = _train(assembly, codebook, [truth] if single else truth, [rng] if single else rng,
                     pilot_snr_db, accept_threshold_db,
                     widening if isinstance(widening, tuple) else (widening,))
    if single:
        results = [TrainingResult(*(v[0].item() for v in vars(r).values())) for r in results]
    return tuple(results) if isinstance(widening, tuple) else results[0]


def _train(assembly, codebook, truths, rngs, pilot_snr_db, accept_threshold_db, arms):
    """:func:`beam_training` of each widening flag in ``arms``, a
    :class:`TrainingResult` of per-trial arrays each."""
    b, n_levels = codebook.branching, len(codebook.levels)
    scale = 0.0 if pilot_snr_db is None else 10.0 ** (-pilot_snr_db / 20.0)
    budget = 2 * (b + (n_levels - 1) * (b + b * b))   # (re, im) of a widened descent's pilots
    noise = (np.array([np.random.default_rng(r).standard_normal(budget) for r in rngs])
             if scale > 0 else None)
    rows = np.fromiter((steering_row(assembly, t) for t in truths),
                       np.dtype((complex, assembly.array.n_elements)), len(truths))
    fields = [rows @ level.T for level in codebook.levels]
    truth_az = np.array([t.az_deg for t in truths])
    threshold = 10.0 ** (accept_threshold_db / 10.0)
    every = np.arange(len(truths))

    def strongest(level, trials, first, count, read):
        """(index, power) of the strongest of rows first .. first+count-1 of
        each of ``trials``, past the ``read`` noise values it has read."""
        g = fields[level][trials[:, None], first[:, None] + np.arange(count)]
        if noise is not None:
            n = noise[trials[:, None], read[trials, None] + np.arange(2 * count)]
            g += np.abs(g) * scale * ((n[:, 0::2] + 1j * n[:, 1::2]) / math.sqrt(2))
            read[trials] += 2 * count
        meas = np.abs(g) ** 2
        top = np.argmax(meas, axis=1)
        return first + top, meas[np.arange(len(trials)), top]

    results = []
    for arm in arms:
        read, widenings = np.zeros_like(every), np.zeros_like(every)
        best, parent_power = strongest(0, every, np.zeros_like(every), b, read)
        for level in range(1, n_levels):
            child, power = strongest(level, every, best * b, b, read)
            if arm:
                retry = np.flatnonzero(power < parent_power * threshold)
                child[retry], power[retry] = strongest(level, retry, best[retry] // b * b * b,
                                                       b * b, read)
                widenings[retry] += 1
            best, parent_power = child, power
        lo, hi = codebook.entry_sector(n_levels - 1, best)
        results.append(TrainingResult(best, b * n_levels + b * b * widenings, widenings,
                                      (lo <= truth_az) & (truth_az <= hi)))
    return results


def paired_training(assembly: AntennaAssembly, codebook: Codebook, seed, n_trials: int,
                    el_deg: float = 0.0, pilot_snr_db: float | None = None,
                    accept_threshold_db: float = DEFAULT_ACCEPT_THRESHOLD_DB):
    """Widened and baseline :func:`beam_training` arms over seeded trials,
    in blocks of at most ``_BLOCK_BYTES`` of steering rows.

    Child t of ``SeedSequence(seed)`` spawns trial t's (truth, noise)
    streams; the truth is uniform over the codebook's sector at
    ``el_deg``.  Returns the truth azimuths and each arm's
    :class:`TrainingResult` of per-trial arrays.
    """
    entropy = np.random.SeedSequence(seed).entropy
    block = max(4, _BLOCK_BYTES // (16 * assembly.array.n_elements))
    truth_az, arms = [], []
    for first in range(0, n_trials, block):
        # SeedSequence(seed).spawn(n)[t].spawn(2), without forming the parents
        streams = [[np.random.SeedSequence(entropy, spawn_key=(t, j)) for j in (0, 1)]
                   for t in range(first, min(first + block, n_trials))]
        truths = [Direction(float(np.random.default_rng(truth_seq).uniform(*codebook.sector_az)),
                            el_deg) for truth_seq, _ in streams]
        truth_az.append([truth.az_deg for truth in truths])
        # the private descent: perfbench's span recorder reads each
        # beam_training result as one trial's
        arms.append(_train(assembly, codebook, truths, [noise_seq for _, noise_seq in streams],
                           pilot_snr_db, accept_threshold_db, (True, False)))
    return (np.concatenate(truth_az),
            *(TrainingResult(*map(np.concatenate, zip(*(vars(r).values() for r in arm))))
              for arm in zip(*arms)))


def exhaustive_search(assembly: AntennaAssembly, codebook: Codebook,
                      truth: Direction) -> int:
    """Index of the leaf with the highest noiseless power toward ``truth``."""
    row = steering_row(assembly, truth)
    powers = [abs(row @ r) ** 2 for r in codebook.levels[-1]]
    return int(np.argmax(powers))
