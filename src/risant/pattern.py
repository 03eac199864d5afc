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

from .constants import db10, wavelength_m
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
# (180 / step + 1)^2 directions; pattern_metrics keeps a 4-byte bound a
# direction and far_field about 40 bytes (field, intensity and one
# temporary): the 0.1 deg hemisphere is 1801 x 1801 = 3.2 M directions,
# about 13 MB in pattern_metrics and 130 MB in far_field.
MIN_GRID_STEP_DEG = 0.1

# Most directions per block of whole elevation rows in the lattice field
# kernel and in the grid bound of pattern_metrics (a row longer than this
# is one block).  Bounds their temporaries and keeps a block's
# accumulator and z array (256 kB each) in cache across the n_x - 1
# Horner passes over them.
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
    kept.  ``intensity`` is |co_pol|^2."""

    az_deg: np.ndarray
    el_deg: np.ndarray
    co_pol: np.ndarray        # complex, shape (n_el, n_az)
    cross_pol_db: float       # cross-polar to co-polar field ratio, dB
    power_total: float        # hemisphere-integrated radiated power, both pols
    gain_offset_db: float     # 10*log10(eta_s * eta_i * reflection efficiency)
    intensity: np.ndarray = field(repr=False)

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

    def gain_dbi(self) -> np.ndarray:
        """Realized co-polar gain on the grid, dBi (zero field maps to -inf)."""
        with np.errstate(divide="ignore"):
            return (10.0 * np.log10(4.0 * math.pi * self.intensity / self.power_total)
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


def _horner(acc, z, terms, phase):
    """acc = (sum_m terms[m] z^m) * phase, in place; each term broadcasts
    against acc."""
    acc[...] = terms[-1]
    for m in range(len(terms) - 2, -1, -1):
        acc *= z
        acc += terms[m]
    acc *= phase


def _y_phases(period_mm, n_y, k, el):
    """exp(j k uy y), one row per elevation (radians), one column per
    lattice row.  Times the (n_y, n_x) coefficients it gives the kernel's
    B in one matmul over the whole axis: a matmul over some of its rows
    may round differently."""
    y_mm = (np.arange(n_y) - 0.5 * (n_y - 1)) * period_mm
    return np.exp(1j * k * (np.sin(el)[:, None] * y_mm))


def _x_phases(period_mm, n_x, k_ux):
    """The Horner variable z = exp(j k period ux) and the first column's
    phase exp(j k x_0 ux) for the values k ux."""
    x0_mm = -0.5 * (n_x - 1) * period_mm
    return np.exp(1j * period_mm * k_ux), np.exp(1j * x0_mm * k_ux)


def _lattice_field(period_mm, coeffs_grid, k, az_deg, el_deg):
    """Phased sum over a centred uniform lattice on an (el, az) grid,
    element factor included.

    Exact reformulation of the per-element sum
    F(az, el) = sum_{y, m} C[y, m] exp(j k (x_m ux + y uy)), with
    ux = sin(az) cos(el), uy = sin(el) and x_m = x_0 + m * period.
    uy is constant along an elevation row, so the y sum collapses first
    into B = exp(j k uy y) @ C, shape (n_el, n_x), once per call.  Each
    row is then the polynomial sum_m B[row, m] z^m in
    z = exp(j k period ux), times exp(j k x_0 ux), evaluated by Horner
    with n_x - 1 in-place multiply-adds over the row's directions, and
    times the element factor of :func:`_axis_factor`.
    Cost: O(directions * n_x + n_el * n_x * n_y).  No assumption is made
    on the axes, so scattered directions are exact.  Rows go in blocks
    of at most ``_CHUNK`` directions (at least one row); rows are
    independent, so the blocking changes no bit of the result.
    """
    n_x = coeffs_grid.shape[1]
    az = np.radians(az_deg)
    el = np.radians(el_deg)
    sin_az = np.sin(az)
    cos_el = np.cos(el)
    factor_az, factor_el = _axis_factor(az_deg), _axis_factor(el_deg)
    # (n_x, n_el, 1): terms[m] is the column of row coefficients of z^m
    terms = (_y_phases(period_mm, coeffs_grid.shape[0], k, el) @ coeffs_grid).T[:, :, None]
    out = np.empty((el.size, az.size), dtype=complex)
    step = max(1, _CHUNK // max(az.size, 1))
    for lo in range(0, el.size, step):
        hi = min(lo + step, el.size)
        z, phase = _x_phases(period_mm, n_x, k * (cos_el[lo:hi, None] * sin_az))
        _horner(out[lo:hi], z, terms[:, lo:hi], phase)
        out[lo:hi] *= np.outer(factor_el[lo:hi], factor_az)
    return out


def _integrate_power(az_deg, el_deg, intensity) -> float:
    """Hemisphere power integral of |F|^2 with the az-el Jacobian cos(el)."""
    az = np.radians(np.asarray(az_deg))
    el = np.radians(np.asarray(el_deg))
    d_az = az[1] - az[0] if az.size > 1 else math.radians(1.0)
    d_el = el[1] - el[0] if el.size > 1 else math.radians(1.0)
    return float(np.sum(intensity * np.cos(el)[:, None]) * d_az * d_el)


def _coefficients(assembly: AntennaAssembly, mask):
    """The (n_y, n_x) lattice of feed illumination times reflection for a
    mask."""
    coeffs = illumination(assembly) * resolve_reflections(assembly, mask)
    return coeffs.reshape(assembly.array.n_y, assembly.array.n_x)


def _gain_offset_db(assembly: AntennaAssembly) -> float:
    """10*log10(eta_s * eta_i * reflection efficiency) of the assembly's
    illumination."""
    eta_s = spillover_efficiency(assembly)
    eta_i = taper_efficiency(np.abs(illumination(assembly)))
    return float(db10(eta_s * eta_i * REFLECTION_EFFICIENCY))


def _axis_factor(angle_deg):
    """One axis's factor of the element factor cos(theta)^qe =
    (cos(el) cos(az))^qe.  Inside +-90 deg on both axes, as
    :class:`Direction` bounds them, both cosines are >= 0, so the power
    splits per axis; outside, a cosine is clipped at 0."""
    return np.maximum(np.cos(np.radians(angle_deg)), 0.0) ** ELEMENT_EXPONENT


def _both_pols(assembly: AntennaAssembly) -> float:
    """Total over co-polar power: the cross-polar field is a scaled copy."""
    xp_ratio = 10.0 ** (assembly.cross_pol_db / 20.0)
    return 1.0 + xp_ratio**2


def _warn_undersampled(assembly: AntennaAssembly, step: float) -> None:
    if step > 2.0:
        warnings.warn(
            f"grid step {step:.2f} deg may undersample the main lobe of a "
            f"{assembly.array.n_x}x{assembly.array.n_y} array",
            stacklevel=3,
        )


def far_field(assembly: AntennaAssembly, mask, az_deg, el_deg) -> FarFieldPattern:
    """Far-field pattern of the fed array for one reflection state.

    ``mask`` is a codeword or an explicit per-element complex reflection
    array (see :func:`resolve_reflections`).  Warns when the grid is too
    coarse to resolve the main lobe of the full-size array.
    """
    az_deg = np.asarray(az_deg, dtype=float)
    el_deg = np.asarray(el_deg, dtype=float)
    _warn_undersampled(assembly, max(
        float(np.max(np.diff(az_deg))) if az_deg.size > 1 else 0.0,
        float(np.max(np.diff(el_deg))) if el_deg.size > 1 else 0.0,
    ))
    coeffs = _coefficients(assembly, mask)
    co = _lattice_field(assembly.array.period_mm, coeffs, assembly.k_per_mm, az_deg, el_deg)
    intensity = _abs2(co)
    power = _integrate_power(az_deg, el_deg, intensity) * _both_pols(assembly)
    return FarFieldPattern(
        az_deg=az_deg, el_deg=el_deg, co_pol=co, cross_pol_db=assembly.cross_pol_db,
        power_total=power, gain_offset_db=_gain_offset_db(assembly),
        intensity=intensity,
    )


@dataclass(frozen=True, eq=False)
class _GridTables:
    """What :func:`pattern_metrics` and :func:`steered_gain` need of one
    ``direction_grid`` for one lattice, beyond the coefficients."""

    axis_deg: np.ndarray    # the grid's az axis, and its el axis too
    lags: np.ndarray        # (2 n_y, 2 n_x) grid power per coefficient lag
    y_phases: np.ndarray    # (n_el, n_y) the kernel's row phases, see _y_phases


@functools.lru_cache(maxsize=8)
def _grid_tables(period_mm: float, k: float, n_y: int, n_x: int, exponent: float,
                 step_deg: float) -> _GridTables:
    """Tables of the ``direction_grid(step_deg)`` hemisphere for one
    lattice, built once per (period, k, n_y, n_x, ELEMENT_EXPONENT, step).

    The lag table gives the grid power of :func:`_integrate_power`,
    sum_g w_g |F(g)|^2 with w_g = uz^(2 qe) cos(el) dAz dEl.  It expands
    over coefficient pairs into sum_{p,q} R(p, q) T(p, q): R is the
    coefficients' autocorrelation at the lag of p columns and q rows, and
    T(p, q) = sum_g w_g exp(j k period (p ux + q uy)) = conj T(-p, -q).
    The az sums of cos(p t) and sin(p t) run the recurrence
    f((p + 1) t) = 2 cos t f(p t) - f((p - 1) t) instead of one cos per
    term.  When the axes are their own mirror images (a step that divides
    180) the sines cancel, T is real and even in p and in q, and one
    quadrant of the grid, folded, gives it.  It is stored in the circular
    layout of a (2 n_y, 2 n_x) FFT, where the autocorrelation lands.
    """
    axis = direction_grid(step_deg)[0]
    rad = np.radians(axis)
    d = rad[1] - rad[0] if rad.size > 1 else math.radians(1.0)
    half = _mirror_half(axis)
    # each off-axis point of a mirrored axis stands for its mirror image too
    fold = np.where(axis[half:] > 0, 2.0, 1.0) if half else 1.0
    s = rad[half:]
    # cos(az) and cos(el) are >= 0 on the axis, so uz^qe splits per axis
    factor = np.cos(s) ** exponent
    w_az = fold * factor**2
    w_el = w_az * np.cos(s) * (d * d)
    kd = k * period_mm
    starts = [(np.ones_like, np.cos)] + ([] if half else [(np.zeros_like, np.sin)])
    az_sums = np.empty((len(starts), s.size, n_x))
    rows = max(1, _CHUNK // s.size)
    for lo in range(0, s.size, rows):
        t = kd * np.outer(np.cos(s[lo:lo + rows]), np.sin(s))
        two_cos = 2.0 * np.cos(t)
        for sums, (first, second) in zip(az_sums, starts):
            prev, cur, nxt = first(t), second(t), np.empty_like(t)
            sums[lo:lo + rows, 0] = prev @ w_az
            for p in range(1, n_x):
                sums[lo:lo + rows, p] = cur @ w_az
                np.multiply(two_cos, cur, out=nxt)
                nxt -= prev
                prev, cur, nxt = cur, nxt, prev
    q = np.arange(1 - n_y, n_y)
    phi = np.outer(q, kd * np.sin(s))
    by_el = az_sums[0] if half else az_sums[0] + 1j * az_sums[1]
    table = (np.cos(phi) if half else np.exp(1j * phi)) @ (w_el[:, None] * by_el)
    lags = np.zeros((2 * n_y, 2 * n_x), dtype=table.dtype)
    p = np.arange(n_x)
    lags[np.ix_(q % (2 * n_y), p)] = table
    lags[np.ix_(-q % (2 * n_y), 2 * n_x - p[1:])] = table[:, 1:].conj()
    y_phases = _y_phases(period_mm, n_y, k, rad)
    for shared in (axis, lags, y_phases):
        shared.flags.writeable = False
    return _GridTables(axis_deg=axis, lags=lags, y_phases=y_phases)


def _grid_power(lags: np.ndarray, coeffs: np.ndarray) -> float:
    """The grid sum of |F|^2 weights that ``lags`` tabulates, from the
    autocorrelation of the coefficients (one zero-padded FFT each way)."""
    spectrum = np.fft.fft2(coeffs, s=lags.shape)
    autocorrelation = np.fft.ifft2(spectrum.real**2 + spectrum.imag**2)
    power = np.vdot(autocorrelation.real, lags.real)
    if np.iscomplexobj(lags):
        power -= np.vdot(autocorrelation.imag, lags.imag)
    return float(power)


class _GridField:
    """|F|^2 of one coefficient lattice, element factor included, at any
    points of a ``direction_grid``, and an upper bound on it at every point.

    Points are flat indices ``el_index * n + az_index`` on the n x n grid.
    uy is constant along an elevation row, so each row's field is the
    polynomial P(z) = sum_m B[row, m] z^m of :func:`_lattice_field` in
    z = exp(j k period ux).  ``exact`` gathers its points' rows of B, the
    kernel's one matmul over the whole el axis, and runs the kernel's
    Horner steps and element factor on each point's own phase tables, so
    its values are the full grid's to the bit.

    ``bound`` samples each row's |P| at n_fft points per period of ux by a
    zero-padded FFT.  n_fft >= n_x: it is at least min(512, 2 n_x), and a
    ``RisArray`` side holds at most ``geometry.MAX_ARRAY_SIDE`` (256)
    columns, so the FFT never cuts a row short.  For a point g with
    nearest sample s, |P(g)| <= |P(s)| + k X_row |ux_g - ux_s|,
    X_row = sum_m |B[row, m]| |x_m| over centred column positions (each
    term's phase moves by at most k |x_m| |dux|); a margin covers
    round-off in the samples and in the exact sums.  It is computed in row blocks of at most ``_CHUNK``
    directions and kept squared as float32, rounded up.
    """

    def __init__(self, tables: _GridTables, period_mm, coeffs, k):
        n_x = coeffs.shape[1]
        self.coeffs = coeffs
        self.axis_deg = tables.axis_deg
        rad = np.radians(self.axis_deg)
        self.period_mm, self.k, self.n_x = period_mm, k, n_x
        # the kernel's sin(az) and cos(el), on the axis both share
        self.sin, self.cos = np.sin(rad), np.cos(rad)
        rows_b = tables.y_phases @ coeffs
        self.terms = rows_b.T.copy()
        self.factor = _axis_factor(self.axis_deg)

        # Each row's polynomial is periodic in ux with period 2 pi / kd.
        # n_fft samples per period: at least two per peak-to-first-null
        # width of an n_x-column row, 2 pi / (n_x kd), and about one per two
        # grid steps near broadside; at most 512
        kd = k * period_mm
        step = rad[1] - rad[0] if rad.size > 1 else 1.0
        n = min(512, max(32, 2 * 2 ** math.ceil(math.log2(n_x)),
                         2 ** round(math.log2(max(1.0, math.pi / (kd * step))))))
        self.n_fft = n
        self.rows_b = rows_b
        # ux in units of the sample spacing 2 pi / (n kd), and each row's
        # slack per unit, times the row's element factor
        spacing = 2.0 * math.pi / (n * kd)
        mag = np.abs(rows_b)
        x_mm = np.abs(np.arange(n_x) - 0.5 * (n_x - 1)) * period_mm
        self.sin_units = self.sin / spacing
        self.slack_x = k * spacing * (mag @ x_mm) * self.factor
        self.margin = 1e-9 * np.sum(mag, axis=1) * self.factor

        size = rad.size
        self.rows = max(1, _CHUNK // size)
        self.bound = np.empty(size * size, dtype=np.float32)
        # rounding up to float32: the square of 1 + 2^-23 covers the relative
        # rounding of a normal float32, 2^-149 the absolute one of a subnormal
        factor_up = self.factor * (1.0 + 2.0**-23)
        for lo in range(0, size, self.rows):
            upper, slack = self._sampled(lo)
            upper += slack
            upper *= factor_up
            upper *= upper
            upper += 2.0**-149
            self.bound[lo * size:lo * size + upper.size] = upper.ravel()

    def _sampled(self, lo):
        """(|P(s)|, slack), both times the row's element factor, on the
        row block from ``lo``: P is the row's polynomial, s the sample
        nearest ux."""
        rows = slice(lo, lo + self.rows)
        n = self.n_fft
        samples = np.abs(np.fft.ifft(self.rows_b[rows], n, axis=1, norm="forward"))
        samples *= self.factor[rows, None]
        t = self.cos[rows, None] * self.sin_units
        j = np.rint(t)
        t -= j
        slack = np.abs(t, out=t)
        slack *= self.slack_x[rows, None]
        slack += self.margin[rows, None]
        index = j.astype(np.intp)
        index &= n - 1
        index += (np.arange(samples.shape[0]) * n)[:, None]
        return np.take(samples, index), slack

    def exact(self, points: np.ndarray) -> np.ndarray:
        """|F|^2 at the flat indices ``points``: a cut, or a batch of at
        most ``_BATCH``, so the gathered (n_x, points) terms stay a few MB."""
        if points.size == 1 < self.bound.size:
            # numpy's in-place complex multiply rounds a lone element
            # differently from an element of a longer array
            return self.exact(np.repeat(points, 2))[:1]
        rows, cols = np.divmod(points, self.axis_deg.size)
        z, phase = _x_phases(self.period_mm, self.n_x,
                             self.k * (self.cos[rows] * self.sin[cols]))
        acc = np.empty(points.size, dtype=complex)
        _horner(acc, z, self.terms[:, rows], phase)
        acc *= self.factor[rows] * self.factor[cols]
        return _abs2(acc)


def _grid_field(assembly: AntennaAssembly, mask, step_deg: float):
    """(grid power with both pols, :class:`_GridField`) of one mask on
    ``direction_grid(step_deg)``; raises where :func:`far_field` on that
    grid would."""
    array = assembly.array
    coeffs = _coefficients(assembly, mask)
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("pattern field must be finite")
    tables = _grid_tables(array.period_mm, assembly.k_per_mm, array.n_y, array.n_x,
                          ELEMENT_EXPONENT, step_deg)
    power = _grid_power(tables.lags, coeffs) * _both_pols(assembly)
    if power <= 0:
        raise ValueError("integrated power must be positive")
    return power, _GridField(tables, array.period_mm, coeffs, assembly.k_per_mm)


# Most points one step of the best-first search evaluates; the first
# step takes 64 and each next one four times as many, up to this.
_BATCH = 4096


def _first_max(grid: _GridField, seed=None, lobe=None):
    """(value, flat index) of the first maximum of the grid's |F|^2.

    ``seed`` is an exact (value, index) pair to start from, by default
    the point of largest bound; with ``lobe``, a rectangle (el_lo, el_hi,
    az_lo, az_hi) of inclusive indices, the search covers only the points
    outside it, and the seed must be one of them.  Every point whose
    bound reaches the best value so far is evaluated, best bound first,
    in growing batches; the rest cannot beat or tie it.  Ties go to the
    lowest flat index, as np.argmax gives them.  However many points a
    loose bound leaves as candidates, the result stays exact, only slower.
    """
    bound = grid.bound
    if seed is None:
        start = int(np.argmax(bound))
        seed = grid.exact(np.array([start]))[0], start
    value, index = np.float64(seed[0]), int(seed[1])
    pool = np.flatnonzero(bound >= value)
    if lobe is not None:
        el_lo, el_hi, az_lo, az_hi = lobe
        rows, cols = np.divmod(pool, grid.axis_deg.size)
        pool = pool[(rows < el_lo) | (rows > el_hi) | (cols < az_lo) | (cols > az_hi)]
    pool = pool[np.argsort(-bound[pool], kind="stable")]
    start, size = 0, 64
    while start < pool.size and bound[pool[start]] >= value:
        batch = pool[start:start + size]
        batch = batch[bound[batch] >= value]
        values = grid.exact(batch)
        top = values.max()
        if top >= value:
            first = int(batch[values == top].min())
            index = first if top > value else min(index, first)
            value = top
        start += size
        size = min(4 * size, _BATCH)
    return value, index


@dataclass(frozen=True, eq=False)
class PatternMetrics:
    """Metrics of one mask's pattern on a ``direction_grid``, and the
    realized gain along the two grid cuts through its peak."""

    peak_gain_dbi: float
    peak_direction: Direction
    sll_db: float | None
    hpbw_az_deg: float
    hpbw_el_deg: float
    cross_pol_db: float
    az_deg: np.ndarray = field(repr=False)      # the grid's axes
    el_deg: np.ndarray = field(repr=False)
    az_cut_dbi: np.ndarray = field(repr=False)  # along az_deg at the peak's elevation
    el_cut_dbi: np.ndarray = field(repr=False)  # along el_deg at the peak's azimuth


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


def pattern_metrics(assembly: AntennaAssembly, mask,
                    step_deg: float = DEFAULT_GRID_STEP_DEG) -> PatternMetrics:
    """Peak gain, sidelobe level, beamwidths, cross-pol ratio and the two
    cuts through the peak of one mask on the ``direction_grid(step_deg)``
    hemisphere, the values :func:`far_field` on that grid gives, without
    filling the grid.

    The peak is the grid's first maximum; the main lobe is bounded by
    the first nulls along the azimuth and elevation cuts through it, or
    by the grid edge where a cut falls all the way to it; the sidelobe
    level is the highest point outside that rectangle, and a lobe that
    fills the grid reports none.  No pattern is flat: every grid holds
    az = -90 deg, where the element factor is about 6e-17.  The power
    normalization is the grid's power integral, from the lag table (see
    :func:`_grid_tables`); the peak and the sidelobe come from the
    bounded search of :func:`_first_max`, and the cuts are exact to the
    bit.  Warns when the grid is too coarse to resolve the main lobe.
    """
    _warn_undersampled(assembly, step_deg)
    power, grid = _grid_field(assembly, mask, step_deg)
    axis = grid.axis_deg
    peak, index = _first_max(grid)
    if peak <= 0:
        raise ValueError("pattern has no radiated energy")
    n = axis.size
    i_el, i_az = divmod(index, n)
    az_points = i_el * n + np.arange(n)
    el_points = np.arange(n) * n + i_az
    az_cut, el_cut = grid.exact(az_points), grid.exact(el_points)

    az_lo, az_hi = (_first_null(az_cut, i_az, step) for step in (-1, 1))
    el_lo, el_hi = (_first_null(el_cut, i_el, step) for step in (-1, 1))
    # the cut samples outside the lobe rectangle seed the search there
    outside = np.concatenate((az_points[:az_lo], az_points[az_hi + 1:],
                              el_points[:el_lo], el_points[el_hi + 1:]))
    sll = None
    if outside.size:
        values = np.concatenate((az_cut[:az_lo], az_cut[az_hi + 1:],
                                 el_cut[:el_lo], el_cut[el_hi + 1:]))
        i = int(np.argmax(values))
        side, _ = _first_max(grid, (values[i], outside[i]), (el_lo, el_hi, az_lo, az_hi))
        sll = float(db10(side / peak))

    offset = _gain_offset_db(assembly)
    with np.errstate(divide="ignore"):
        az_cut_dbi, el_cut_dbi = (10.0 * np.log10(4.0 * math.pi * cut / power) + offset
                                  for cut in (az_cut, el_cut))
    return PatternMetrics(
        peak_gain_dbi=float(db10(4.0 * math.pi * peak / power) + offset),
        peak_direction=Direction(float(axis[i_az]), float(axis[i_el])),
        sll_db=sll,
        hpbw_az_deg=float(_hpbw(axis, az_cut, i_az)),
        hpbw_el_deg=float(_hpbw(axis, el_cut, i_el)),
        cross_pol_db=assembly.cross_pol_db,
        az_deg=axis, el_deg=axis, az_cut_dbi=az_cut_dbi, el_cut_dbi=el_cut_dbi,
    )


def directivity_upper_bound(area_m2: float, frequency_ghz: float) -> float:
    """Aperture directivity limit 10*log10(4*pi*A/lambda^2), dBi."""
    if area_m2 <= 0:
        raise ValueError("aperture area must be positive")
    lam = wavelength_m(frequency_ghz)
    return float(db10(4.0 * math.pi * area_m2 / lam**2))


def steering_row(assembly: AntennaAssembly, direction: Direction) -> np.ndarray:
    """Per-element weights so that the co-polar field toward ``direction``
    is ``row @ gamma`` for per-element reflections ``gamma``.

    The single-direction form of :func:`far_field`'s sum: the assembly's
    :func:`illumination` times each element's phase toward ``direction``,
    element factor included.
    """
    u = direction.unit_vector()
    phase = assembly.k_per_mm * (assembly.array.positions_mm() @ u)
    return illumination(assembly) * np.exp(1j * phase) * max(u[2], 0.0) ** ELEMENT_EXPONENT


@dataclass(frozen=True)
class SteeredGain:
    gain_dbi: float
    peak: Direction
    pointing_error_deg: float


def steered_gain(assembly: AntennaAssembly, mask, target: Direction) -> SteeredGain:
    """Realized gain and pointing of one mask, cheap two-pass evaluation.

    The first maximum of the 1 deg hemisphere grid, found without filling
    the grid (see :func:`_first_max`), centres a 0.1 deg window of +-3 deg
    that refines the gain and the pointing error against ``target``; the
    lattice kernel evaluates that window, element factor included.  The
    power normalization is the 1 deg grid's power integral, from the lag
    table (see :func:`_grid_tables`).
    """
    window_deg, fine_step = 3.0, 0.1
    power, grid = _grid_field(assembly, mask, 1.0)
    i_el, i_az = divmod(_first_max(grid)[1], grid.axis_deg.size)
    az0 = float(grid.axis_deg[i_az])
    el0 = float(grid.axis_deg[i_el])
    az = np.arange(max(az0 - window_deg, -90.0), min(az0 + window_deg, 90.0) + fine_step / 2, fine_step)
    el = np.arange(max(el0 - window_deg, -90.0), min(el0 + window_deg, 90.0) + fine_step / 2, fine_step)
    fi = _abs2(_lattice_field(assembly.array.period_mm, grid.coeffs, assembly.k_per_mm, az, el))
    j_el, j_az = np.unravel_index(int(np.argmax(fi)), fi.shape)
    peak = Direction(float(az[j_az]), float(el[j_el]))
    directivity = 4.0 * math.pi * fi[j_el, j_az] / power
    return SteeredGain(
        gain_dbi=float(db10(directivity) + _gain_offset_db(assembly)),
        peak=peak,
        pointing_error_deg=peak.separation_deg(target),
    )
