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

from .constants import PAIRWISE_LEAF, db10, wavelength_m
from .element import reflection_coefficient
from .geometry import AntennaAssembly, Direction, incidence_angles, lattice_axis

# Element power-pattern exponent (field factor cos^qe towards the
# observation direction).
ELEMENT_EXPONENT = 1.0

# Fixed loss efficiency applied on top of spillover and illumination
# efficiencies when converting directivity to gain.  Bundles reflection
# loss with fabrication, bias-line and measurement losses that the
# idealized pattern sum does not see; calibrated so the nominal
# assembly's one-bit broadside beam lands at 22.48 dBi on the 0.25 deg
# grid, 0.3 dB above the measured 22.2 dBi (reflection loss alone, ~0.8,
# leaves the idealized model several dB hot).
REFLECTION_EFFICIENCY = 0.23

DEFAULT_GRID_STEP_DEG = 0.25

# Finest grid step a scenario may ask for (the coarsest is 90 deg, the
# grid -90, 0, 90).  direction_grid(step) holds (2 floor(90 / step) + 1)^2
# directions; pattern_metrics keeps at most a 4-byte bound a direction,
# on the elevation rows it fills, and far_field about 40 bytes (field,
# intensity and one temporary): the 0.1 deg hemisphere is 1801 x 1801 =
# 3.2 M directions, at most 13 MB in pattern_metrics and 130 MB in
# far_field.
MIN_GRID_STEP_DEG = 0.1

SPILLOVER_MESH = 256   # side of spillover_efficiency's midpoint mesh

# Most directions per block of whole elevation rows in the lattice field
# kernel and in the bounds of the bounded search (a row longer than this
# is one block).  Bounds their temporaries and keeps a block's
# accumulator and z array (256 kB each) in cache across the n_x - 1
# Horner passes over them.
_CHUNK = 16384


def direction_grid(step_deg: float = DEFAULT_GRID_STEP_DEG):
    """Regular (az, el) axes through boresight: 0 deg and every whole
    multiple of ``step_deg`` within +-90 deg, so each axis is its own
    mirror image and holds (2 floor(90 / step) + 1) points."""
    if not 0 < step_deg <= 90:
        raise ValueError("grid step must be in (0, 90] deg")
    # the tolerance keeps +-90 on a step that divides 90, and the clip keeps
    # that endpoint from rounding one ulp past it
    n = int(math.floor(90.0 / step_deg + 1e-9))
    axis = np.clip(step_deg * np.arange(-n, n + 1), -90.0, 90.0)
    return axis, axis.copy()


# Assemblies are immutable value types, so the spillover integral and the
# illumination can be memoized per instance; repeated pattern evaluations
# on one assembly (steering sweeps, beam training) would otherwise redo
# them every call, as would the element circuit's two state reflections.
# Each assembly maps to {"spillover": float, "illumination": array, "states": pair}.
_assembly_memo: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _feed_rays(feeds, xs, ys):
    """Distance and clipped cosine off the boresight from each of ``feeds``
    to the z = 0 points on the axes ``xs`` and ``ys``, (len(feeds), rows,
    xs.size).  r^2 and the ray's dot product with the boresight split into
    a y term plus an x term, so no per-point 3-vector is formed.  When every
    feed's y is 0 and ``ys`` is its own mirror image, rows i and n - 1 - i
    are equal to the bit (dy^2 is the same and dy * by is +-0), so only
    rows = ceil(n / 2) are formed, to mirror or fold; otherwise rows = n."""
    fx, fy, fz = np.array([f.position_mm for f in feeds]).T[:, :, None]
    bx, by, bz = np.array([f.boresight() for f in feeds]).T[:, :, None]
    n = ys.size
    rows = (n + 1) // 2 if not fy.any() and np.array_equal(ys, -ys[::-1]) else n
    dx, dy = xs - fx, ys[:rows] - fy
    # one allocation: freed, it lifts glibc's trim threshold past a pass's temporaries
    r, cos_feed = np.empty((2, len(feeds), rows, xs.size))
    np.sqrt(np.add((dy * dy)[:, :, None], (dx * dx + fz * fz)[:, None], out=r), out=r)
    np.add((dy * by)[:, :, None], (dx * bx - fz * bz)[:, None], out=cos_feed)
    cos_feed /= r
    return r, np.clip(cos_feed, 0.0, 1.0, out=cos_feed)


def _unfold(half, n):
    """The n rows (axis -2) whose first are ``half``'s and whose last
    mirror them, row n - 1 - i equal to row i: ``half`` itself when it
    holds all n."""
    rows = half.shape[-2]
    if rows == n:
        return half
    return np.concatenate((half, half[..., n - rows - 1::-1, :]), axis=-2)


def _spillover(array, feeds, n_grid: int) -> list[float]:
    """`spillover_efficiency` of each of ``feeds`` (of one pattern exponent)
    in front of ``array``."""
    q = feeds[0].pattern_exponent
    half_x = 0.5 * array.n_x * array.period_mm
    half_y = 0.5 * array.n_y * array.period_mm
    xs = (np.arange(n_grid) + 0.5) / n_grid * 2 * half_x - half_x
    ys = (np.arange(n_grid) + 0.5) / n_grid * 2 * half_y - half_y
    r, cos_feed = _feed_rays(feeds, xs, ys)
    # normalized cos^q intensity over a hemisphere, (q + 1) / (2 pi) cos^q,
    # times a cell's solid angle: obliquity fz / r over r^2
    integrand = np.power(cos_feed, q, out=cos_feed)
    integrand /= np.multiply(r * r, r, out=r)   # (r r) r, in r's own buffer
    # numpy's pairwise sum of a folded 2^p mesh, rows no shorter than a leaf, splits
    # on rows down to leaves within a row: its mirrored half's tree is the first's commuted
    foldable = n_grid >= PAIRWISE_LEAF and not n_grid & n_grid - 1
    fold = 2 if integrand.shape[1] < n_grid and foldable else 1
    sums = fold * _unfold(integrand, n_grid // fold).reshape(len(feeds), -1).sum(axis=1)
    cell = (2 * half_x / n_grid) * (2 * half_y / n_grid)
    return [min(float(s) * (q + 1.0) / (2.0 * math.pi) * f.position_mm[2] * cell, 1.0)
            for s, f in zip(sums, feeds)]


def spillover_efficiency(assembly: AntennaAssembly) -> float:
    """Fraction of the feed's radiated power intercepted by the aperture.

    The cos^q power pattern is normalized over the feed's forward
    hemisphere and integrated over the solid angle subtended by the
    aperture rectangle (midpoint rule on a 256 x 256 mesh).  With the feed
    on the y = 0 plane and a mesh whose y axis is its own mirror image (any
    period whose midpoints are exact, e.g. 5 mm), the integrand is formed
    on the first 128 rows only and its sum doubled, with the same bits as
    the full mesh's sum.
    """
    cached = _assembly_memo.setdefault(assembly, {})
    if "spillover" not in cached:
        cached["spillover"] = _spillover(assembly.array, [assembly.feed], SPILLOVER_MESH)[0]
    return cached["spillover"]


def taper_efficiency(amplitudes: np.ndarray) -> float:
    """Aperture illumination (taper) efficiency of an amplitude set."""
    a = np.abs(np.asarray(amplitudes, dtype=float))
    total_sq, power = np.sum(a) ** 2, np.sum(a**2)
    if not (0 < total_sq < math.inf and 0 < power < math.inf):   # 0 / 0 if squares underflow
        raise ValueError("amplitude sums must be positive and finite")
    return float(total_sq / (a.size * power))


def _illumination(assembly: AntennaAssembly, feeds):
    """Amplitude and complex un-normalized illumination of each of ``feeds``
    (of one pattern exponent), each of shape (len(feeds), n_y, n_x)."""
    xs, ys = (lattice_axis(n, assembly.array.period_mm)
              for n in (assembly.array.n_x, assembly.array.n_y))
    r, cos_feed = _feed_rays(feeds, xs, ys)
    amp = cos_feed ** (0.5 * feeds[0].pattern_exponent) / r
    phase = -assembly.k_per_mm * r
    return _unfold(amp, ys.size), _unfold(amp * np.exp(1j * phase), ys.size)


def illumination(assembly: AntennaAssembly) -> np.ndarray:
    """Complex feed illumination per element.

    Amplitude follows the cos^(q/2) field taper over spherical spreading
    1/r; phase is the feed-path delay -k*r.  The amplitudes are scaled so
    the total intercepted power equals the spillover efficiency (and
    therefore never exceeds one).  The array is memoized per assembly and
    read-only.
    """
    cached = _assembly_memo.setdefault(assembly, {})
    if "illumination" not in cached:
        amp, a = _illumination(assembly, [assembly.feed])
        a = a.ravel()
        power = np.sum(amp**2)   # checked before the division, as in taper_efficiency
        if not 0 < power < math.inf:
            raise ValueError(f"illumination power must be positive and finite, got {power:g}")
        a *= math.sqrt(spillover_efficiency(assembly) / power)
        a.flags.writeable = False
        cached["illumination"] = a
    return cached["illumination"]


def state_reflections(assembly: AntennaAssembly):
    """(Gamma_off, Gamma_on) of the element circuit at the assembly frequency."""
    cached = _assembly_memo.setdefault(assembly, {})
    if "states" not in cached:
        cached["states"] = tuple(reflection_coefficient(
            assembly.element_circuit, state, assembly.frequency_ghz).value for state in ("off", "on"))
    return cached["states"]


def resolve_reflections(assembly: AntennaAssembly, mask) -> np.ndarray:
    """Per-element complex reflection coefficients for a mask.

    ``mask`` may be a codeword (anything with 0/1 group ``states``), the
    group states themselves (or a stack of state rows, one row each), or
    an explicit per-element complex array which is passed through.  The
    assembly's incidence model, when present, applies its quadratic phase
    shift and cosine amplitude roll-off using each element's angle seen
    from the feed.
    """
    if isinstance(mask, np.ndarray) and np.iscomplexobj(mask):
        gamma = np.asarray(mask, dtype=complex)
        if gamma.shape != (assembly.array.n_elements,):
            raise ValueError("reflection array must have one entry per element")
    else:
        states = np.asarray(getattr(mask, "states", mask))
        if states.shape[-1:] != (assembly.array.n_groups,):
            raise ValueError(
                f"mask has {states.shape} states, array has {assembly.array.n_groups} groups"
            )
        if not np.all((states == 0) | (states == 1)):
            raise ValueError("group states must be 0 or 1")
        g_off, g_on = state_reflections(assembly)
        per_element = states[..., assembly.array.grouping]
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


def _y_phases(period_mm, n_y, k, el):
    """exp(j k uy y), one row per elevation (radians), one column per
    lattice row.  Times the (n_y, n_x) coefficients it gives the kernel's
    B in one matmul over the whole axis: a matmul over some of its rows
    may round differently."""
    return np.exp(1j * k * (np.sin(el)[:, None] * lattice_axis(n_y, period_mm)))


def _row_field(out, terms, period_mm, k_ux, factor):
    """The lattice field kernel, in place: out = sum_m terms[m] z^m in
    z = exp(j k period ux), times the first column's phase exp(j k x_0 ux)
    and the element ``factor``, at the values ``k_ux`` of k ux.  Each
    term broadcasts against ``out``; Horner takes n_x - 1 in-place
    multiply-adds over its directions."""
    out[...] = terms[-1]
    z = np.exp(1j * period_mm * k_ux)
    for m in range(len(terms) - 2, -1, -1):
        out *= z
        out += terms[m]
    out *= np.exp(1j * lattice_axis(len(terms), period_mm)[0] * k_ux)
    out *= factor


def _lattice_field(period_mm, coeffs_grid, k, az_deg, el_deg):
    """Phased sum over a centred uniform lattice on an (el, az) grid,
    element factor included.

    Exact reformulation of the per-element sum
    F(az, el) = sum_{y, m} C[y, m] exp(j k (x_m ux + y uy)), with
    ux = sin(az) cos(el), uy = sin(el) and x_m = x_0 + m * period.
    uy is constant along an elevation row, so the y sum collapses first
    into B = exp(j k uy y) @ C, shape (n_el, n_x), once per call.  Each
    row is then the polynomial sum_m B[row, m] z^m that :func:`_row_field`
    evaluates, with the element factor of :func:`_axis_factor`; the
    bounded search's :meth:`_GridField.exact` runs the same kernel.
    Cost: O(directions * n_x + n_el * n_x * n_y).  No assumption is made
    on the axes, so scattered directions are exact.  Rows go in blocks
    of at most ``_CHUNK`` directions (at least one row); rows are
    independent, so the blocking changes no bit of the result.
    """
    az = np.radians(az_deg)
    el = np.radians(el_deg)
    sin_az = np.sin(az)
    cos_el = np.cos(el)
    factor_az, factor_el = (_axis_factor(a, ELEMENT_EXPONENT) for a in (az_deg, el_deg))
    # (n_x, n_el, 1): terms[m] is the column of row coefficients of z^m
    terms = (_y_phases(period_mm, coeffs_grid.shape[0], k, el) @ coeffs_grid).T[:, :, None]
    out = np.empty((el.size, az.size), dtype=complex)
    step = max(1, _CHUNK // max(az.size, 1))
    for lo in range(0, el.size, step):
        rows = slice(lo, lo + step)
        _row_field(out[rows], terms[:, rows], period_mm, k * (cos_el[rows, None] * sin_az),
                   np.outer(factor_el[rows], factor_az))
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


def _axis_factor(angle_deg, exponent):
    """One axis's factor of the element factor cos(theta)^qe =
    (cos(el) cos(az))^qe, qe = ``exponent``.  Inside +-90 deg on both axes, as
    :class:`Direction` bounds them, both cosines are >= 0, so the power
    splits per axis; outside, a cosine is clipped at 0."""
    return np.maximum(np.cos(np.radians(angle_deg)), 0.0) ** exponent


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
    ``direction_grid`` for one lattice, beyond the coefficients: the
    kernel's inputs on the axis, the power's lag table, the bound's sampling."""

    period_mm: float
    k: float
    axis_deg: np.ndarray    # the grid's az axis, and its el axis too
    sin: np.ndarray         # the kernel's sin(az) on the axis
    cos: np.ndarray         # the kernel's cos(el) on the axis
    factor: np.ndarray      # the element factor's _axis_factor on the axis
    lags: np.ndarray        # (2 n_y, 2 n_x) grid power per coefficient lag
    y_phases: np.ndarray    # (n_el, n_y) the kernel's row phases, see _y_phases
    n_fft: int              # bound samples per period of ux, see _samples_per_period
    sin_units: np.ndarray   # sin over the sample spacing 2 pi / (n_fft k period)
    k_spacing: float        # k times that spacing
    x_abs_mm: np.ndarray    # |x_m| of the lattice's columns


def _samples_per_period(n_x: int, kd: float, step: float) -> int:
    """Bound samples per period 2 pi / kd of ux on a grid of ``step`` radians:
    at least two per peak-to-first-null width 2 pi / (n_x kd) of an n_x-column
    row, and about one per two steps near broadside; at most 512."""
    return min(512, max(32, 2 * 2 ** math.ceil(math.log2(n_x)),
                        2 ** round(math.log2(max(1.0, math.pi / (kd * step))))))


@functools.lru_cache(maxsize=8)
def _grid_tables(period_mm: float, k: float, n_y: int, n_x: int, exponent: float,
                 step_deg: float) -> _GridTables:
    """Tables of the ``direction_grid(step_deg)`` hemisphere for one
    lattice, built once per (period, k, n_y, n_x, ELEMENT_EXPONENT, step).

    The lag table gives the grid power of :func:`_integrate_power`,
    sum_g w_g |F(g)|^2 with w_g = uz^(2 qe) cos(el) dAz dEl.  It expands
    over coefficient pairs into sum_{p,q} R(p, q) T(p, q): R is the
    coefficients' autocorrelation at the lag of p columns and q rows, and
    T(p, q) = sum_g w_g exp(j k period (p ux + q uy)).  The axes are their
    own mirror images, so the sines cancel, T is real and even in p and
    in q, and one quadrant of the grid, folded, gives it.  The az sums of
    cos(p t) run the recurrence f((p + 1) t) = 2 cos t f(p t) - f((p - 1) t)
    instead of one cos per term.  T is stored in the circular layout of a
    (2 n_y, 2 n_x) FFT, where the autocorrelation lands.
    """
    axis = direction_grid(step_deg)[0]
    rad = np.radians(axis)
    d = rad[1] - rad[0]
    half = axis.size // 2
    # each off-axis point of the quadrant stands for its mirror image too
    fold = np.where(axis[half:] > 0, 2.0, 1.0)
    s = rad[half:]
    # cos(az) and cos(el) are >= 0 on the axis, so uz^qe splits per axis
    factor = np.cos(s) ** exponent
    w_az = fold * factor**2
    w_el = w_az * np.cos(s) * (d * d)
    kd = k * period_mm
    az_sums = np.empty((s.size, n_x))
    rows = max(1, _CHUNK // s.size)
    for lo in range(0, s.size, rows):
        t = kd * np.outer(np.cos(s[lo:lo + rows]), np.sin(s))
        two_cos = 2.0 * np.cos(t)
        prev, cur, nxt = np.ones_like(t), np.cos(t), np.empty_like(t)
        az_sums[lo:lo + rows, 0] = prev @ w_az
        for p in range(1, n_x):
            az_sums[lo:lo + rows, p] = cur @ w_az
            np.multiply(two_cos, cur, out=nxt)
            nxt -= prev
            prev, cur, nxt = cur, nxt, prev
    q = np.arange(1 - n_y, n_y)
    table = np.cos(np.outer(q, kd * np.sin(s))) @ (w_el[:, None] * az_sums)
    lags = np.zeros((2 * n_y, 2 * n_x))
    p = np.arange(n_x)
    lags[np.ix_(q % (2 * n_y), p)] = table
    lags[np.ix_(-q % (2 * n_y), 2 * n_x - p[1:])] = table[:, 1:]
    n_fft = _samples_per_period(n_x, kd, d)
    spacing = 2.0 * math.pi / (n_fft * kd)
    sin = np.sin(rad)
    tables = _GridTables(
        period_mm=period_mm, k=k, axis_deg=axis, sin=sin, cos=np.cos(rad),
        factor=_axis_factor(axis, exponent), lags=lags, y_phases=_y_phases(period_mm, n_y, k, rad),
        n_fft=n_fft, sin_units=sin / spacing, k_spacing=k * spacing,
        x_abs_mm=np.abs(lattice_axis(n_x, period_mm)))
    for shared in vars(tables).values():
        if isinstance(shared, np.ndarray):
            shared.flags.writeable = False
    return tables


def _grid_power(lags: np.ndarray, coeffs: np.ndarray) -> float:
    """The grid sum of |F|^2 weights that ``lags`` tabulates, from the
    autocorrelation of the coefficients (one zero-padded FFT each way)."""
    spectrum = np.fft.fft2(coeffs, s=lags.shape)
    autocorrelation = np.fft.ifft2(spectrum.real**2 + spectrum.imag**2)
    return float(np.vdot(autocorrelation.real, lags))


class _GridField:
    """|F|^2 of one coefficient lattice, element factor included, at any
    points of a ``direction_grid``, and upper bounds on it per elevation row
    and per point; the grid and lattice parts come from the
    :class:`_GridTables`.

    Points are flat indices ``el_index * n + az_index`` on the n x n grid.
    uy is constant along an elevation row, so each row's field is the
    polynomial P(z) = sum_m B[row, m] z^m of :func:`_lattice_field` in
    z = exp(j k period ux).  ``exact`` gathers its points' rows of B, the
    kernel's one matmul over the whole el axis, and runs the one kernel,
    :func:`_row_field`, on them with each point's own k ux and element
    factor, so its values are the full grid's to the bit.

    ``row_bound`` bounds |F|^2 along each row.  It starts at the triangle
    bound |P| <= sum_m |B[row, m]|, with no FFT.  ``fill(value)`` samples
    each row whose bound reaches ``value`` at n_fft points per period of
    ux by a zero-padded FFT.  n_fft >= n_x: it is at least min(512, 2 n_x),
    and a ``RisArray`` side holds at most ``geometry.MAX_ARRAY_SIDE`` (256)
    columns, so the FFT never cuts a row short.  For a point g with nearest
    sample s, |P(g)| <= |P(s)| + k X_row |ux_g - ux_s|,
    X_row = sum_m |B[row, m]| |x_m| over centred column positions (each
    term's phase moves by at most k |x_m| |dux|).  |ux_g - ux_s| is at most
    half a sample spacing, so the largest sample plus half the spacing's
    slack tightens the row bound.  On the rows whose tightened bound still
    reaches ``value``, ``fill`` writes ``bound``, the Lipschitz bound at
    each of the row's points, and marks the row ``filled``; a filled row
    stays filled, and ``bound`` is unset on the rest.  A margin covers
    round-off in the samples and in the exact sums.  Rows go in blocks of
    at most ``_CHUNK`` directions, and no row's samples outlive its block.
    The bounds are kept squared and rounded up, the point bound as float32.
    """

    def __init__(self, tables: _GridTables, coeffs):
        self.tables, self.coeffs = tables, coeffs
        rows_b = tables.y_phases @ coeffs
        self.terms = rows_b.T.copy()
        # each row's slack per unit of ux / spacing, and its round-off
        # margin, times the row's element factor
        mag = np.abs(rows_b)
        total = np.sum(mag, axis=1)
        self.slack_x = tables.k_spacing * (mag @ tables.x_abs_mm) * tables.factor
        self.margin = 1e-9 * total * tables.factor
        self.row_bound = self._row_squared(total * tables.factor + self.margin)
        size = tables.axis_deg.size
        self.bound = np.empty(size * size, dtype=np.float32)
        self.filled = np.zeros(size, dtype=bool)

    def _row_squared(self, peak):
        """Row bounds from bounds ``peak`` on |P| times the element factor
        of each row, margin included: times the largest az factor, squared
        and rounded up as the point bound is."""
        up = peak * (np.max(self.tables.factor) * (1.0 + 2.0**-23))
        return up * up + 2.0**-149

    def fill(self, value) -> None:
        """Tighten the row bound, and fill the point bound, on the rows
        whose bound reaches ``value`` and that are not filled yet."""
        t = self.tables
        n, size = t.n_fft, t.axis_deg.size
        todo = np.flatnonzero(~self.filled & (self.row_bound >= value))
        step = max(1, _CHUNK // size)
        for lo in range(0, todo.size, step):
            rows = todo[lo:lo + step]
            # |P(s)| times the row's element factor at every sample s
            samples = np.abs(np.fft.ifft(self.terms[:, rows].T, n, axis=1, norm="forward"))
            samples *= t.factor[rows, None]
            tight = self._row_squared(np.max(samples, axis=1) + 0.5 * self.slack_x[rows]
                                      + self.margin[rows])
            self.row_bound[rows] = np.minimum(self.row_bound[rows], tight)
            keep = tight >= value
            if keep.any():
                self._fill_rows(rows[keep], samples[keep])

    def _fill_rows(self, rows, samples) -> None:
        """The point bound on ``rows`` from their ``samples``."""
        t = self.tables
        n, size = t.n_fft, t.axis_deg.size
        # |P(s)| plus the slack at the sample s nearest each point's ux
        t_units = t.cos[rows, None] * t.sin_units
        j = np.rint(t_units)
        t_units -= j
        slack = np.abs(t_units, out=t_units)
        slack *= self.slack_x[rows, None]
        slack += self.margin[rows, None]
        index = j.astype(np.intp)
        index &= n - 1
        index += (np.arange(rows.size) * n)[:, None]
        upper = np.take(samples, index)
        upper += slack
        # rounding up to float32: the square of 1 + 2^-23 covers the relative
        # rounding of a normal float32, 2^-149 the absolute one of a subnormal
        upper *= t.factor * (1.0 + 2.0**-23)
        upper *= upper
        upper += 2.0**-149
        self.bound.reshape(size, size)[rows] = upper
        self.filled[rows] = True

    def candidates(self, value) -> np.ndarray:
        """Flat indices of the points whose bound reaches ``value``, every
        row that can hold one filled first, in increasing order."""
        self.fill(value)
        size = self.tables.axis_deg.size
        rows = np.flatnonzero(self.filled & (self.row_bound >= value))
        grid = self.bound.reshape(size, size)
        step = max(1, _CHUNK // size)
        parts = []
        for lo in range(0, rows.size, step):
            block = rows[lo:lo + step]
            r, c = np.nonzero(grid[block] >= value)
            parts.append(block[r] * size + c)
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.intp)

    def exact(self, points: np.ndarray) -> np.ndarray:
        """|F|^2 at the flat indices ``points``: a cut, or a batch of at
        most ``_BATCH``, so the gathered (n_x, points) terms stay a few MB."""
        if points.size == 1:
            # numpy's in-place complex multiply rounds a lone element
            # differently from an element of a longer array
            return self.exact(np.repeat(points, 2))[:1]
        t = self.tables
        rows, cols = np.divmod(points, t.axis_deg.size)
        acc = np.empty(points.size, dtype=complex)
        _row_field(acc, self.terms[:, rows], t.period_mm, t.k * (t.cos[rows] * t.sin[cols]),
                   t.factor[rows] * t.factor[cols])
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
    return power, _GridField(tables, coeffs)


# Most points one step of the best-first search evaluates; the first
# step takes 64 and each next one four times as many, up to this.
_BATCH = 4096


def _first_max(grid: _GridField, seed=None, lobe=None):
    """(value, flat index) of the first maximum of the grid's |F|^2.

    ``seed`` is an exact (value, index) pair to start from, by default
    the first maximum of the row of largest row bound; with ``lobe``, a
    rectangle (el_lo, el_hi, az_lo, az_hi) of inclusive indices, the
    search covers only the points outside it, and the seed must be one of
    them.  Every point whose bound reaches the seed's value is a
    candidate (see :meth:`_GridField.candidates`); the candidates whose
    bound reaches the best value so far are evaluated, best bound first,
    in growing batches; the rest cannot beat or tie it.  Ties go to the
    lowest flat index, as np.argmax gives them.  However loose the bounds
    or poor the seed, the result stays exact, only slower.
    """
    if seed is None:
        n = grid.tables.axis_deg.size
        row = int(np.argmax(grid.row_bound)) * n + np.arange(n)
        values = grid.exact(row)
        best = int(np.argmax(values))
        seed = values[best], row[best]
    value, index = np.float64(seed[0]), int(seed[1])
    pool = grid.candidates(value)
    bound = grid.bound
    if lobe is not None:
        el_lo, el_hi, az_lo, az_hi = lobe
        rows, cols = np.divmod(pool, grid.tables.axis_deg.size)
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
    fills the grid reports none.  A flat pattern (one element without an
    element factor) peaks at the grid's first point, its lobe is that
    point alone, and its sidelobe level reads 0 dB.  The rectangle cannot
    hold a beam that is no rectangle: a line array steered off broadside
    radiates a cone, ux = const, that curves across the (az, el) grid, so
    the cone's own points at other elevations count as sidelobes (a
    32 x 1 line steered to az 30 deg reads -1.77 dB).  The power
    normalization is the grid's power integral, from the lag table (see
    :func:`_grid_tables`); the peak and the sidelobe come from the
    bounded search of :func:`_first_max`, and the cuts are exact to the
    bit.  Warns when the grid is too coarse to resolve the main lobe.
    """
    _warn_undersampled(assembly, step_deg)
    power, grid = _grid_field(assembly, mask, step_deg)
    axis = grid.tables.axis_deg
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
    axis = grid.tables.axis_deg
    i_el, i_az = divmod(_first_max(grid)[1], axis.size)
    az, el = (np.arange(max(axis[i] - window_deg, -90.0),
                        min(axis[i] + window_deg, 90.0) + fine_step / 2, fine_step)
              for i in (i_az, i_el))
    fi = _abs2(_lattice_field(assembly.array.period_mm, grid.coeffs, assembly.k_per_mm, az, el))
    j_el, j_az = np.unravel_index(int(np.argmax(fi)), fi.shape)
    peak = Direction(float(az[j_az]), float(el[j_el]))
    directivity = 4.0 * math.pi * fi[j_el, j_az] / power
    return SteeredGain(
        gain_dbi=float(db10(directivity) + _gain_offset_db(assembly)),
        peak=peak,
        pointing_error_deg=peak.separation_deg(target),
    )
