"""Far-field synthesis and pattern metrics for the fed reflectarray.

The radiated co-polar field is the phased sum over elements of
illumination amplitude times element reflection coefficient, weighted
by a cos^qe element factor towards the observation direction:

    E(u) = sum_n A_n * G_n * cos(theta_u)^qe * exp(j k r_n . u)

with A_n the spherical-wave feed illumination (cos^(q/2) field taper
over distance r) and G_n the element reflection state.  Directivity is
obtained by normalizing the peak intensity with the power integrated
over the forward hemisphere; realized gain additionally applies the
spillover and illumination efficiencies and a fixed reflection-loss
constant.
"""

from __future__ import annotations

import functools
import math
import warnings
import weakref
from dataclasses import dataclass, field

import numpy as np

from .constants import db10
from .element import reflection_coefficient
from .geometry import AntennaAssembly, Direction, incidence_angles

# Element power-pattern exponent (field factor cos^qe towards the
# observation direction).
ELEMENT_EXPONENT = 1.0

# Fixed loss efficiency applied on top of spillover and illumination
# efficiencies when converting directivity to gain.  Bundles reflection
# loss with fabrication, bias-line and measurement losses that the
# idealized pattern sum does not see; calibrated so the nominal
# assembly's one-bit broadside beam lands on the measured 22.2 dBi
# (reflection loss alone, ~0.8, leaves the idealized model several dB
# hot).
REFLECTION_EFFICIENCY = 0.23

DEFAULT_GRID_STEP_DEG = 0.25

# Finest grid step a scenario may ask for.  direction_grid(step) holds
# (180 / step + 1)^2 directions and far_field keeps about 40 bytes a
# direction (field, intensity and one temporary): the 0.1 deg hemisphere
# is 1801 x 1801 = 3.2 M directions, about 130 MB.
MIN_GRID_STEP_DEG = 0.1

# Most directions per block of whole elevation rows in the lattice field
# kernel (a row longer than this is one block).  Bounds the kernel's
# temporaries and keeps a block's accumulator and z array (256 kB each)
# in cache across the n_x - 1 Horner passes over them.
_CHUNK = 16384


def direction_grid(step_deg: float = DEFAULT_GRID_STEP_DEG):
    """Regular (az, el) axes from -90 deg in steps of ``step_deg``, ending
    at the last point that does not pass +90 deg."""
    if step_deg <= 0:
        raise ValueError("grid step must be positive")
    # floor, not round: a step that does not divide 180 must stop short of
    # +90; the tolerance keeps the endpoint of a step that does, and the
    # clip keeps that endpoint from rounding one ulp past +90
    n = int(math.floor(180.0 / step_deg + 1e-9))
    axis = np.minimum(-90.0 + step_deg * np.arange(n + 1), 90.0)
    return axis, axis.copy()


# Assemblies are immutable value types, so the spillover integral and the
# illumination can be memoized per instance; repeated pattern evaluations
# on one assembly (steering sweeps, beam training) would otherwise redo
# them every call.  Each assembly maps to {(function name, argument): value}.
_assembly_memo: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _feed_rays(feed, xs, ys):
    """Distance and clipped cosine off the feed boresight from the feed to
    the z = 0 points on the axes ``xs`` and ``ys``, shape (ys.size, xs.size).
    r^2 and the ray's dot product with the boresight split into a y term
    plus an x term, so no per-point 3-vector is formed."""
    fx, fy, fz = feed.position_mm
    bx, by, bz = feed.boresight()
    dx, dy = xs - fx, ys - fy
    r = np.sqrt((dy * dy)[:, None] + (dx * dx + fz * fz))
    cos_feed = (dy * by)[:, None] + (dx * bx - fz * bz)
    cos_feed /= r
    return r, np.clip(cos_feed, 0.0, 1.0, out=cos_feed)


def spillover_efficiency(assembly: AntennaAssembly, n_grid: int = 256) -> float:
    """Fraction of the feed's radiated power intercepted by the aperture.

    The cos^q power pattern is normalized over the feed's forward
    hemisphere and integrated over the solid angle subtended by the
    aperture rectangle (midpoint rule on an n_grid x n_grid mesh).
    """
    cached = _assembly_memo.setdefault(assembly, {})
    key = ("spillover", n_grid)
    if key in cached:
        return cached[key]
    feed = assembly.feed
    q = feed.pattern_exponent
    half_x = 0.5 * assembly.array.n_x * assembly.array.period_mm
    half_y = 0.5 * assembly.array.n_y * assembly.array.period_mm
    xs = (np.arange(n_grid) + 0.5) / n_grid * 2 * half_x - half_x
    ys = (np.arange(n_grid) + 0.5) / n_grid * 2 * half_y - half_y
    r, cos_feed = _feed_rays(feed, xs, ys)
    # normalized cos^q intensity over a hemisphere, (q + 1) / (2 pi) cos^q,
    # times a cell's solid angle: obliquity fz / r over r^2
    integrand = np.power(cos_feed, q, out=cos_feed)
    integrand /= r * r * r
    cell = (2 * half_x / n_grid) * (2 * half_y / n_grid)
    power = float(np.sum(integrand)) * (q + 1.0) / (2.0 * math.pi) * feed.position_mm[2] * cell
    cached[key] = min(power, 1.0)
    return cached[key]


def taper_efficiency(amplitudes: np.ndarray) -> float:
    """Aperture illumination (taper) efficiency of an amplitude set."""
    a = np.abs(np.asarray(amplitudes, dtype=float))
    if a.size == 0 or np.all(a == 0):
        raise ValueError("amplitude set must contain energy")
    return float(np.sum(a) ** 2 / (a.size * np.sum(a**2)))


def illumination(assembly: AntennaAssembly, normalize: bool = True) -> np.ndarray:
    """Complex feed illumination per element.

    Amplitude follows the cos^(q/2) field taper over spherical spreading
    1/r; phase is the feed-path delay -k*r.  When ``normalize`` is set
    the amplitudes are scaled so the total intercepted power equals the
    spillover efficiency (and therefore never exceeds one).  The array is
    memoized per assembly and read-only.
    """
    cached = _assembly_memo.setdefault(assembly, {})
    key = ("illumination", normalize)
    if key in cached:
        return cached[key]
    feed = assembly.feed
    xs, ys = ((np.arange(n) - 0.5 * (n - 1)) * assembly.array.period_mm
              for n in (assembly.array.n_x, assembly.array.n_y))
    r, cos_feed = _feed_rays(feed, xs, ys)
    amp = cos_feed ** (0.5 * feed.pattern_exponent) / r
    phase = -assembly.k_per_mm * r
    a = (amp * np.exp(1j * phase)).ravel()
    if normalize:
        a *= math.sqrt(spillover_efficiency(assembly) / np.sum(amp**2))
    a.flags.writeable = False
    cached[key] = a
    return a


def state_reflections(assembly: AntennaAssembly):
    """(Gamma_off, Gamma_on) of the element circuit at the assembly frequency."""
    off = reflection_coefficient(assembly.element_circuit, "off", assembly.frequency_ghz)
    on = reflection_coefficient(assembly.element_circuit, "on", assembly.frequency_ghz)
    return off.value, on.value


def resolve_reflections(assembly: AntennaAssembly, mask) -> np.ndarray:
    """Per-element complex reflection coefficients for a mask.

    ``mask`` may be a codeword (anything with 0/1 group ``states``), the
    group states themselves, or an explicit per-element complex array
    which is passed through.  The assembly's incidence model, when present,
    applies its quadratic phase shift and cosine amplitude roll-off
    using each element's angle seen from the feed.
    """
    if isinstance(mask, np.ndarray) and np.iscomplexobj(mask):
        gamma = np.asarray(mask, dtype=complex)
        if gamma.shape != (assembly.array.n_elements,):
            raise ValueError("reflection array must have one entry per element")
    else:
        states = np.asarray(getattr(mask, "states", mask))
        if states.shape != (assembly.array.n_groups,):
            raise ValueError(
                f"mask has {states.shape} states, array has {assembly.array.n_groups} groups"
            )
        if not np.all((states == 0) | (states == 1)):
            raise ValueError("group states must be 0 or 1")
        g_off, g_on = state_reflections(assembly)
        per_element = states[assembly.array.grouping]
        gamma = np.where(per_element == 1, g_on, g_off)
    model = assembly.incidence_model
    if model is not None:
        theta = incidence_angles(assembly.feed, assembly.array.positions_mm())
        gamma = gamma * (
            np.cos(np.radians(theta)) ** model.amplitude_exponent
            * np.exp(1j * np.radians(model.beta_deg_per_deg2 * theta**2))
        )
    return gamma


@dataclass(frozen=True, eq=False)
class FarFieldPattern:
    """Sampled co-polar field on a regular (az, el) grid; the cross-polar
    field is the co-polar one scaled by a constant, so only its ratio is
    kept.  ``intensity`` is |co_pol|^2, computed from ``co_pol`` when not
    given."""

    az_deg: np.ndarray
    el_deg: np.ndarray
    co_pol: np.ndarray        # complex, shape (n_el, n_az)
    cross_pol_db: float       # cross-polar to co-polar field ratio, dB
    power_total: float        # hemisphere-integrated radiated power, both pols
    gain_offset_db: float     # 10*log10(eta_s * eta_i * reflection efficiency)
    intensity: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        az = np.asarray(self.az_deg)
        el = np.asarray(self.el_deg)
        if az.ndim != 1 or el.ndim != 1:
            raise ValueError("grid axes must be one-dimensional")
        if np.any(np.diff(az) <= 0) or (el.size > 1 and np.any(np.diff(el) <= 0)):
            raise ValueError("grid axes must be strictly increasing")
        if self.co_pol.shape != (el.size, az.size):
            raise ValueError("field shape must be (n_el, n_az)")
        if not np.all(np.isfinite(self.co_pol)):
            raise ValueError("pattern field must be finite")
        if self.power_total <= 0:
            raise ValueError("integrated power must be positive")
        if self.intensity is None:
            object.__setattr__(self, "intensity", _abs2(self.co_pol))

    def gain_dbi(self, index=...) -> np.ndarray:
        """Realized co-polar gain, dBi (zero field maps to -inf), on the
        grid or on the part of it that ``index`` selects."""
        with np.errstate(divide="ignore"):
            return (10.0 * np.log10(4.0 * math.pi * self.intensity[index] / self.power_total)
                    + self.gain_offset_db)


def _abs2(values: np.ndarray) -> np.ndarray:
    """|values|^2, as np.abs(values) ** 2 gives it, with one temporary."""
    out = np.abs(values)
    return np.square(out, out=out)


def _mirror_half(axis: np.ndarray) -> int:
    """Number of entries before the middle of an axis that is its own
    mirror image (``axis == -axis[::-1]``), else 0."""
    half = axis.size // 2
    if half and axis[0] == -axis[-1] and np.all(axis == -axis[::-1]):
        return half
    return 0


def _horner(acc, z, b, phase):
    """acc = (sum_m b[:, m] z^m) * phase, row by row, in place."""
    acc[...] = b[:, -1, None]
    for m in range(b.shape[1] - 2, -1, -1):
        acc *= z
        acc += b[:, m, None]
    acc *= phase


def _lattice_field(period_mm, coeffs_grid, k, az_deg, el_deg):
    """Phased sum over a centred uniform lattice on an (el, az) grid.

    Exact reformulation of the per-element sum
    F(az, el) = sum_{y, m} C[y, m] exp(j k (x_m ux + y uy)), with
    ux = sin(az) cos(el), uy = sin(el) and x_m = x_0 + m * period.
    uy is constant along an elevation row, so the y sum collapses first
    into B = exp(j k uy y) @ C, shape (n_el, n_x), once per call.  Each
    row is then the polynomial sum_m B[row, m] z^m in
    z = exp(j k period ux), times exp(j k x_0 ux), evaluated by Horner
    with n_x - 1 in-place multiply-adds over the row's directions.
    Cost: O(directions * n_x + n_el * n_x * n_y).  No assumption is made
    on the axes, so scattered directions are exact.

    ux is odd in az and even in el.  On a grid larger than one block
    whose axes are their own mirror images, the two phase tables z and
    exp(j k x_0 ux) are computed for el >= 0 and az >= 0 only: the -az
    columns are their complex conjugates (sin is odd and exp conjugate-
    symmetric to the bit) and the -el rows are the +el rows, read
    backwards.  On a smaller grid the tables cost less than that set-up.
    Table rows go in blocks of at most ``_CHUNK`` directions (at least
    one row); rows are independent, so neither the blocking nor the
    mirroring changes a bit of the result.
    """
    n_y, n_x = coeffs_grid.shape
    az = np.radians(az_deg)
    el = np.radians(el_deg)
    sin_az = np.sin(az)
    cos_el = np.cos(el)
    y_mm = (np.arange(n_y) - 0.5 * (n_y - 1)) * period_mm
    rows_b = np.exp(1j * k * (np.sin(el)[:, None] * y_mm)) @ coeffs_grid
    x0_mm = -0.5 * (n_x - 1) * period_mm
    out = np.empty((el.size, az.size), dtype=complex)
    # rows below ``first`` and columns below ``n_neg`` take mirrored tables
    first = n_neg = 0
    if out.size > _CHUNK:
        first, n_neg = _mirror_half(el), _mirror_half(az)
        sin_az = sin_az[n_neg:]
    step = max(1, _CHUNK // max(az.size, 1))
    for lo in range(first, el.size, step):
        hi = min(lo + step, el.size)
        k_ux = k * (cos_el[lo:hi, None] * sin_az)
        z = np.exp(1j * period_mm * k_ux)
        phase = np.exp(1j * x0_mm * k_ux)
        if n_neg:
            z, phase = (np.concatenate((t[:, :-n_neg - 1:-1].conj(), t), axis=1)
                        for t in (z, phase))
        _horner(out[lo:hi], z, rows_b[lo:hi], phase)
        if first:
            # rows n_el - hi up to n_el - lo mirror rows hi - 1 down to lo;
            # those below the middle take the same tables, read backwards
            low, high = el.size - hi, min(el.size - lo, first)
            if high > low:
                count = high - low
                _horner(out[low:high], z[::-1][:count], rows_b[low:high],
                        phase[::-1][:count])
    return out


def _integrate_power(az_deg, el_deg, intensity) -> float:
    """Hemisphere power integral of |F|^2 with the az-el Jacobian cos(el)."""
    az = np.radians(np.asarray(az_deg))
    el = np.radians(np.asarray(el_deg))
    d_az = az[1] - az[0] if az.size > 1 else math.radians(1.0)
    d_el = el[1] - el[0] if el.size > 1 else math.radians(1.0)
    return float(np.sum(intensity * np.cos(el)[:, None]) * d_az * d_el)


def _coefficients(assembly: AntennaAssembly, mask):
    """Feed illumination and the (n_y, n_x) lattice of illumination times
    reflection for a mask."""
    illum = illumination(assembly)
    coeffs = illum * resolve_reflections(assembly, mask)
    return illum, coeffs.reshape(assembly.array.n_y, assembly.array.n_x)


def _gain_offset_db(assembly: AntennaAssembly, illum: np.ndarray) -> float:
    """10*log10(eta_s * eta_i * reflection efficiency) of an illumination."""
    eta_s = spillover_efficiency(assembly)
    eta_i = taper_efficiency(np.abs(illum))
    return float(db10(eta_s * eta_i * REFLECTION_EFFICIENCY))


def _element_factor(az_deg, el_deg) -> np.ndarray:
    """cos(theta)^qe = (cos(el) cos(az))^qe towards each (el, az) grid
    direction.  Inside +-90 deg on both axes, as :class:`Direction`
    bounds them, both cosines are >= 0, so the power splits per axis;
    outside, a cosine is clipped at 0."""
    el_factor, az_factor = (np.maximum(np.cos(np.radians(a)), 0.0) ** ELEMENT_EXPONENT
                            for a in (el_deg, az_deg))
    return np.outer(el_factor, az_factor)


def _both_pols(assembly: AntennaAssembly) -> float:
    """Total over co-polar power: the cross-polar field is a scaled copy."""
    xp_ratio = 10.0 ** (assembly.cross_pol_db / 20.0)
    return 1.0 + xp_ratio**2


def far_field(assembly: AntennaAssembly, mask, az_deg, el_deg) -> FarFieldPattern:
    """Far-field pattern of the fed array for one reflection state.

    ``mask`` is a codeword or an explicit per-element complex reflection
    array (see :func:`resolve_reflections`).  Warns when the grid is too
    coarse to resolve the main lobe of the full-size array.
    """
    az_deg = np.asarray(az_deg, dtype=float)
    el_deg = np.asarray(el_deg, dtype=float)
    step = max(
        float(np.max(np.diff(az_deg))) if az_deg.size > 1 else 0.0,
        float(np.max(np.diff(el_deg))) if el_deg.size > 1 else 0.0,
    )
    if step > 2.0:
        warnings.warn(
            f"grid step {step:.2f} deg may undersample the main lobe of a "
            f"{assembly.array.n_x}x{assembly.array.n_y} array",
            stacklevel=2,
        )
    illum, coeffs = _coefficients(assembly, mask)
    co = _lattice_field(assembly.array.period_mm, coeffs, assembly.k_per_mm, az_deg, el_deg)
    co *= _element_factor(az_deg, el_deg)
    intensity = _abs2(co)
    power = _integrate_power(az_deg, el_deg, intensity) * _both_pols(assembly)
    return FarFieldPattern(
        az_deg=az_deg, el_deg=el_deg, co_pol=co, cross_pol_db=assembly.cross_pol_db,
        power_total=power, gain_offset_db=_gain_offset_db(assembly, illum),
        intensity=intensity,
    )


@dataclass(frozen=True)
class PatternMetrics:
    peak_gain_dbi: float
    peak_direction: Direction
    sll_db: float | None
    hpbw_az_deg: float
    hpbw_el_deg: float
    cross_pol_db: float


def _first_null(values: np.ndarray, start: int, step: int) -> int:
    """Index of the first local minimum walking from ``start`` by ``step``;
    the grid edge bounds a lobe that falls all the way to it."""
    i = start
    while 0 <= i + step < values.size and values[i + step] < values[i]:
        i += step
    return i


def _hpbw(axis_deg: np.ndarray, cut: np.ndarray, peak_idx: int) -> float:
    """Half-power width of a cut through the peak, linear interpolation."""
    half = cut[peak_idx] / 2.0
    lo_deg = hi_deg = math.nan
    for step in (-1, 1):
        i = peak_idx
        while 0 <= i + step < cut.size and cut[i + step] > half:
            i += step
        j = i + step
        if not (0 <= j < cut.size):
            return math.nan
        frac = (cut[i] - half) / (cut[i] - cut[j])
        crossing = axis_deg[i] + frac * (axis_deg[j] - axis_deg[i])
        if step < 0:
            lo_deg = crossing
        else:
            hi_deg = crossing
    return hi_deg - lo_deg


def pattern_metrics(pattern: FarFieldPattern) -> PatternMetrics:
    """Peak gain, sidelobe level, beamwidths and cross-pol ratio.

    The main lobe is bounded by the first nulls along the azimuth and
    elevation cuts through the peak, or by the grid edge where a cut
    falls all the way to it; the sidelobe level is the highest sample
    outside that region.  A flat (structureless) pattern, or a lobe that
    fills the grid, reports no sidelobes.
    """
    intensity = pattern.intensity
    i_el, i_az = np.unravel_index(int(np.argmax(intensity)), intensity.shape)
    peak = intensity[i_el, i_az]
    if peak <= 0:
        raise ValueError("pattern has no radiated energy")
    directivity = 4.0 * math.pi * peak / pattern.power_total
    gain = db10(directivity) + pattern.gain_offset_db

    flat = (peak - intensity.min()) <= 1e-9 * peak
    sll = None
    hpbw_az = hpbw_el = math.nan
    if not flat:
        az_cut = intensity[i_el, :]
        el_cut = intensity[:, i_az]
        az_lo, az_hi = (_first_null(az_cut, i_az, step) for step in (-1, 1))
        el_lo, el_hi = (_first_null(el_cut, i_el, step) for step in (-1, 1))
        # the samples outside the lobe rectangle, as the slabs around it
        lobe_rows = intensity[el_lo:el_hi + 1]
        outside = (intensity[:el_lo], intensity[el_hi + 1:],
                   lobe_rows[:, :az_lo], lobe_rows[:, az_hi + 1:])
        side = [part.max() for part in outside if part.size]
        if side:
            sll = float(db10(max(side) / peak))
        hpbw_az = _hpbw(pattern.az_deg, az_cut, i_az)
        hpbw_el = _hpbw(pattern.el_deg, el_cut, i_el)

    return PatternMetrics(
        peak_gain_dbi=float(gain),
        peak_direction=Direction(float(pattern.az_deg[i_az]), float(pattern.el_deg[i_el])),
        sll_db=sll,
        hpbw_az_deg=float(hpbw_az),
        hpbw_el_deg=float(hpbw_el),
        cross_pol_db=pattern.cross_pol_db,
    )


def directivity_upper_bound(area_m2: float, frequency_ghz: float) -> float:
    """Aperture directivity limit 10*log10(4*pi*A/lambda^2), dBi."""
    if area_m2 <= 0:
        raise ValueError("aperture area must be positive")
    lam = 299792458.0 / (frequency_ghz * 1e9)
    return float(db10(4.0 * math.pi * area_m2 / lam**2))


def steering_row(assembly: AntennaAssembly, illum: np.ndarray,
                 direction: Direction) -> np.ndarray:
    """Per-element weights so that the co-polar field toward ``direction``
    is ``row @ gamma`` for per-element reflections ``gamma``.

    The single-direction form of :func:`far_field`'s sum, element factor
    included; ``illum`` is the assembly's :func:`illumination`.
    """
    u = direction.unit_vector()
    phase = assembly.k_per_mm * (assembly.array.positions_mm() @ u)
    return illum * np.exp(1j * phase) * max(u[2], 0.0) ** ELEMENT_EXPONENT


@dataclass(frozen=True)
class SteeredGain:
    gain_dbi: float
    peak: Direction
    pointing_error_deg: float


@dataclass(frozen=True, eq=False)
class _CoarseTables:
    """What :func:`steered_gain` needs of its 1 deg hemisphere grid for one
    lattice, built once per (period, k, n_y, n_x, ELEMENT_EXPONENT).  It
    stays in memory for the life of the process, so the distances are
    float32, rounded up."""

    az_deg: np.ndarray
    el_deg: np.ndarray
    az_factor: np.ndarray   # (n_az,) cos(az)^qe; times el_factor, the element factor
    el_factor: np.ndarray   # (n_el,) cos(el)^qe
    lags: np.ndarray        # (2 n_y, 2 n_x) grid power per coefficient lag
    n_fft: int              # u-space samples per axis of the peak-locating FFT
    sample: np.ndarray      # (n_el * n_az,) flat index of each point's nearest sample
    du_x: np.ndarray        # (n_el * n_az,) |ux - ux of that sample|, at least
    du_y: np.ndarray        # (n_el,) |uy - uy of that sample|, at least
    x_mm: np.ndarray        # (n_x,) |x| of the centred element columns
    y_mm: np.ndarray        # (n_y,) |y| of the centred element rows


@functools.lru_cache(maxsize=8)
def _coarse_tables(period_mm: float, k: float, n_y: int, n_x: int,
                   exponent: float) -> _CoarseTables:
    """Lag table and nearest-sample map of the 1 deg grid for one lattice.

    The grid power of :func:`_integrate_power`, sum_g w_g |F(g)|^2 with
    w_g = uz^(2 qe) cos(el) dAz dEl, expands over coefficient pairs into
    sum_{p,q} R(p, q) T(p, q): R is the coefficients' autocorrelation at
    the lag of p columns and q rows, and T(p, q) = sum_g w_g
    exp(j k period (p ux + q uy)).  The grid is symmetric in az and in
    el, so T is real and even in p and in q: one quadrant of the grid,
    folded, gives T(|p|, |q|).  It is stored in the circular layout of a
    (2 n_y, 2 n_x) FFT, where the autocorrelation lands.
    """
    az, el = direction_grid(1.0)
    az_r, el_r = np.radians(az), np.radians(el)
    # cos(az) and cos(el) are >= 0 on the grid, so uz^qe splits per axis
    az_factor, el_factor = np.cos(az_r) ** exponent, np.cos(el_r) ** exponent
    weight = np.outer(el_factor**2 * np.cos(el_r), az_factor**2)
    weight *= (az_r[1] - az_r[0]) * (el_r[1] - el_r[0])
    kd = k * period_mm

    # T on the az >= 0, el >= 0 quadrant, each off-axis point standing for
    # its mirror images; rows in chunks of about 0.5 MB of cosines
    on_az, on_el = az >= 0, el >= 0
    fold_az = np.where(az[on_az] > 0, 2.0, 1.0)
    fold_el = np.where(el[on_el] > 0, 2.0, 1.0)
    w = weight[np.ix_(on_el, on_az)] * fold_az
    kd_ux = kd * np.outer(np.cos(el_r[on_el]), np.sin(az_r[on_az]))
    p = np.arange(n_x)
    by_col = np.empty((w.shape[0], n_x))
    step = max(1, 2**16 // (w.shape[1] * n_x))
    for lo in range(0, w.shape[0], step):
        hi = lo + step
        by_col[lo:hi] = (w[lo:hi, None, :] @ np.cos(kd_ux[lo:hi, :, None] * p))[:, 0, :]
    quadrant = np.cos(np.outer(np.arange(n_y), kd * np.sin(el_r[on_el]))) @ (by_col * fold_el[:, None])
    # circular lag i of a 2n-point axis is min(i, 2n - i); lag n never occurs
    padded = np.zeros((n_y + 1, n_x + 1))
    padded[:n_y, :n_x] = quadrant
    lag_y, lag_x = (np.minimum(np.arange(2 * n), 2 * n - np.arange(2 * n)) for n in (n_y, n_x))

    # |F| is periodic in u with period 2 pi / kd per axis; n_fft samples
    # per period, about four per beamwidth, at most 512
    n_fft = min(512, max(32, 4 * 2 ** math.ceil(math.log2(max(n_x, n_y)))))
    spacing = 2.0 * math.pi / (n_fft * kd)
    nearest = []
    for u in (np.outer(np.cos(el_r), np.sin(az_r)), np.sin(el_r)):
        j = np.rint(u / spacing)
        du = np.abs(u - j * spacing)
        du_up = du.astype(np.float32)
        du_up = np.where(du_up < du, np.nextafter(du_up, np.float32(np.inf)), du_up)
        nearest.append((j.astype(np.intp) % n_fft, du_up))
    (j_x, du_x), (j_y, du_y) = nearest
    centred = [np.abs(np.arange(n) - 0.5 * (n - 1)) * period_mm for n in (n_x, n_y)]
    return _CoarseTables(
        az_deg=az, el_deg=el, az_factor=az_factor, el_factor=el_factor,
        lags=padded[np.ix_(lag_y, lag_x)], n_fft=n_fft,
        sample=(j_y[:, None] * n_fft + j_x).ravel(), du_x=du_x.ravel(), du_y=du_y,
        x_mm=centred[0], y_mm=centred[1])


def _grid_power(tables: _CoarseTables, coeffs: np.ndarray) -> float:
    """The 1 deg grid sum of |F|^2 weights, from the autocorrelation of
    the coefficients (one zero-padded FFT each way) dotted with the lag table."""
    spectrum = np.fft.fft2(coeffs, s=tables.lags.shape)
    autocorrelation = np.fft.ifft2(spectrum.real**2 + spectrum.imag**2).real
    return float(np.vdot(autocorrelation, tables.lags))


def _intensity(period_mm, coeffs, k, az_deg, el_deg) -> np.ndarray:
    """|F|^2 with the element factor on an (el, az) grid, as far_field gives it."""
    field = _lattice_field(period_mm, coeffs, k, az_deg, el_deg)
    field *= _element_factor(az_deg, el_deg)
    return _abs2(field)


def _coarse_peak(tables: _CoarseTables, period_mm, coeffs, k) -> tuple[int, int]:
    """(el, az) index of the first maximum of the 1 deg grid intensity.

    |F| is sampled on an n_fft x n_fft u-space lattice by one zero-padded
    FFT.  For a grid point g with nearest sample s, |F(g)| <= |F(s)| +
    k (X |ux_g - ux_s| + Y |uy_g - uy_s|), X = sum |c| |x| and Y = sum
    |c| |y| over centred positions (each phase term moves by at most k
    |x| |dux| + k |y| |duy|).  The point of largest bound is evaluated
    exactly; every point whose bound reaches its intensity is then
    evaluated exactly too, and the rest cannot hold the maximum.  A
    pattern without a dominant lobe leaves most points as candidates:
    the result stays exact, only slower.
    """
    n = tables.n_fft
    n_y, n_x = coeffs.shape
    # wrap a lattice wider than n_fft onto it: exp(j 2 pi m i / n) has period n
    folded = np.zeros((n, n), dtype=complex)
    for lo_y in range(0, n_y, n):
        for lo_x in range(0, n_x, n):
            block = coeffs[lo_y:lo_y + n, lo_x:lo_x + n]
            folded[:block.shape[0], :block.shape[1]] += block
    samples = np.abs(np.fft.ifft2(folded, norm="forward")).ravel()
    mag = np.abs(coeffs)
    bound = samples[tables.sample]
    bound += np.multiply(tables.du_x, k * float(np.sum(mag @ tables.x_mm)), dtype=float)
    bound = bound.reshape(tables.el_deg.size, tables.az_deg.size)
    # the margin covers round-off in the samples and in the exact sums
    row_slack = np.multiply(tables.du_y, k * float(np.sum(tables.y_mm @ mag)), dtype=float)
    bound += (row_slack + 1e-9 * float(np.sum(mag)))[:, None]
    bound *= tables.el_factor[:, None]
    bound *= tables.az_factor
    bound = bound.ravel()

    def exact(points):
        rows, cols = np.divmod(points, tables.az_deg.size)
        r, c = np.unique(rows), np.unique(cols)
        az, el = tables.az_deg[c], tables.el_deg[r]
        block = _intensity(period_mm, coeffs, k, az, el)
        return block[np.searchsorted(r, rows), np.searchsorted(c, cols)]

    best = exact(np.array([np.argmax(bound)]))[0]
    candidates = np.flatnonzero(bound * bound >= best)
    peak = int(candidates[np.argmax(exact(candidates))])
    return divmod(peak, tables.az_deg.size)


def steered_gain(assembly: AntennaAssembly, mask, target: Direction) -> SteeredGain:
    """Realized gain and pointing of one mask, cheap two-pass evaluation.

    The global peak of the 1 deg hemisphere grid, found without filling
    the grid (see :func:`_coarse_peak`), centres a 0.1 deg window of
    +-3 deg that refines the gain and the pointing error against
    ``target``.  The power normalization is the 1 deg grid's power
    integral, from the lag table (see :func:`_coarse_tables`).
    """
    window_deg, fine_step = 3.0, 0.1
    array = assembly.array
    k = assembly.k_per_mm
    illum, coeffs = _coefficients(assembly, mask)
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("pattern field must be finite")
    tables = _coarse_tables(array.period_mm, k, array.n_y, array.n_x, ELEMENT_EXPONENT)
    power = _grid_power(tables, coeffs) * _both_pols(assembly)
    if power <= 0:
        raise ValueError("integrated power must be positive")
    i_el, i_az = _coarse_peak(tables, array.period_mm, coeffs, k)
    az0 = float(tables.az_deg[i_az])
    el0 = float(tables.el_deg[i_el])
    az = np.arange(max(az0 - window_deg, -90.0), min(az0 + window_deg, 90.0) + fine_step / 2, fine_step)
    el = np.arange(max(el0 - window_deg, -90.0), min(el0 + window_deg, 90.0) + fine_step / 2, fine_step)
    fi = _intensity(array.period_mm, coeffs, k, az, el)
    j_el, j_az = np.unravel_index(int(np.argmax(fi)), fi.shape)
    peak = Direction(float(az[j_az]), float(el[j_el]))
    directivity = 4.0 * math.pi * fi[j_el, j_az] / power
    return SteeredGain(
        gain_dbi=float(db10(directivity) + _gain_offset_db(assembly, illum)),
        peak=peak,
        pointing_error_deg=peak.separation_deg(target),
    )
