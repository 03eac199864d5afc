"""Array lattice, feed description and the assembled antenna.

Coordinates are millimetres.  The reflective aperture lies in the z = 0
plane with its normal along +z; the feed sits at positive z and looks at
the aperture centre.  Directions are given as azimuth / elevation pairs
where (0, 0) is boresight (+z), azimuth rotates towards +x and elevation
towards +y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Annotated

import numpy as np

from .constants import NON_NEGATIVE, POSITIVE, Range, ranged, wavelength_mm, wavenumber_per_mm
from .element import DESIGN_CIRCUIT, ElementCircuit
from .link import CROSS_POL_DB, XpdModel


def lattice_axis(n: int, period_mm: float) -> np.ndarray:
    """Centred coordinates (i - (n-1)/2) * period of n elements in a row."""
    return (np.arange(n) - 0.5 * (n - 1)) * period_mm


def element_positions(n_x: int, n_y: int, period_mm: float) -> np.ndarray:
    """Centred lattice positions, shape (n_x*n_y, 3), row-major in y.

    Element (ix, iy) sits at (:func:`lattice_axis` of n_x at ix, of n_y
    at iy, 0) and occupies row iy, i.e. linear index iy * n_x + ix.
    """
    _SIDE.check(n_x, "n_x"), _SIDE.check(n_y, "n_y"), POSITIVE.check(period_mm, "period_mm")
    gx, gy = np.meshgrid(lattice_axis(n_x, period_mm), lattice_axis(n_y, period_mm))
    return np.column_stack([gx.ravel(), gy.ravel(), np.zeros(n_x * n_y)])


def group_map(n_x: int, n_y: int, group_size: int, axis: str = "y") -> np.ndarray:
    """Group index per element for contiguous runs along one axis.

    Elements that share a bias line are adjacent along ``axis``; group
    indices are dense, 0 .. n_groups-1, in the same row-major order as
    :func:`element_positions`.
    """
    if group_size < 1:
        raise ValueError("group size must be at least 1")
    if axis not in ("x", "y"):
        raise ValueError(f"grouping axis must be 'x' or 'y', got {axis!r}")
    count = n_x if axis == "x" else n_y
    if count % group_size != 0:
        raise ValueError(
            f"cannot group along axis '{axis}': {count} elements are not divisible "
            f"by group size {group_size}"
        )
    iy, ix = np.divmod(np.arange(n_x * n_y), n_x)
    if axis == "y":
        return ((iy // group_size) * n_x + ix).astype(np.int64)
    return (iy * (n_x // group_size) + ix // group_size).astype(np.int64)


# Most elements an array side may hold (the default holds 32).  At the bound,
# on a shared 2-core x86 machine with one BLAS thread (medians of 3 fresh
# processes): train at 256 x 256 took 3.7 s and 187 MB; pattern at 256 x 1,
# group size 1, 0.1 deg 3.2 s and 95 MB; pattern at 256 x 256, 0.1 deg 0.9 s
# and 73 MB; steer and feed-opt at 256 x 256 1.1 s and 1.3 s, 62 MB each.
MAX_ARRAY_SIDE = 256
_SIDE = Range(1, MAX_ARRAY_SIDE)

# Longest lattice period, in wavelengths (the default 5 mm at 26 GHz is 0.43).
# The lattice kernel's phases k x u reach pi (MAX_ARRAY_SIDE - 1) period /
# wavelength, 8e8 rad at this bound, where float64 still resolves 1e-6 rad
# (its spacing there is 1.2e-7 rad).  Far past it the phases lose every
# digit: at 1e17 mm the pattern is noise, at 1e20 mm the kernel's sample
# indices overflow.
MAX_PERIOD_WAVELENGTHS = 1e6

# Steepest incidence roll-off cos^a of an element's amplitude.  A negative
# exponent would make an oblique element reflect more than one at normal
# incidence, more than a passive cell can; cos^100 is already -13 dB at
# 10 deg and -600 dB at 60 deg, far steeper than any printed cell.  Past a
# thousand the roll-off underflows to 0 for every element beyond 60 deg
# (cos^a of 60 deg is below 1e-308 from a = 1024), and the default feed's
# nearest element, at 2 deg, goes dark from about 1e6.
MAX_INCIDENCE_EXPONENT = 100.0

# Steepest incidence phase drift |beta| of an element, in deg per deg^2 of
# incidence.  The default 0.004 drifts a cell 32 deg at 90 deg; at 1 the
# drift is 100 deg at 10 deg of incidence, steeper than any printed cell, and
# beta 90^2 is 8100 deg (141 rad), where float64 resolves 3e-14 rad.  Far
# past it neighbouring cells' phases differ by whole turns, and from about
# 1e12 float64 no longer resolves the phase at 90 deg to a degree.
MAX_INCIDENCE_PHASE_DRIFT = 1.0


@dataclass(frozen=True, eq=False)
@ranged
class RisArray:
    """Planar lattice of one-bit elements with shared-bias grouping."""

    n_x: Annotated[int, _SIDE] = 32
    n_y: Annotated[int, _SIDE] = 32
    period_mm: Annotated[float, POSITIVE] = 5.0
    polarization: str = "H"         # of the elements and of the feed that lights them
    group_size: int = 2
    group_axis: str = "y"
    grouping: np.ndarray = field(init=False, repr=False)  # element -> group

    def __post_init__(self):
        if self.polarization not in ("H", "V"):
            raise ValueError(f"polarization must be 'H' or 'V', got {self.polarization!r}")
        object.__setattr__(
            self, "grouping", group_map(self.n_x, self.n_y, self.group_size, self.group_axis)
        )

    @property
    def n_elements(self) -> int:
        return self.n_x * self.n_y

    @property
    def n_groups(self) -> int:
        return int(self.grouping.max()) + 1

    @property
    def aperture_m2(self) -> float:
        return (self.n_x * self.period_mm * 1e-3) * (self.n_y * self.period_mm * 1e-3)

    def positions_mm(self) -> np.ndarray:
        """:func:`element_positions` of the lattice, built on the first call
        and shared, read-only, by every later one."""
        positions = self.__dict__.get("_positions_mm")
        if positions is None:
            positions = element_positions(self.n_x, self.n_y, self.period_mm)
            positions.flags.writeable = False
            object.__setattr__(self, "_positions_mm", positions)
        return positions


@dataclass(frozen=True)
@ranged
class FeedModel:
    """Point feed with a cos^q power pattern aimed at the array centre.

    ``pattern_exponent`` is the exponent of the *power* pattern; the
    field amplitude follows cos^(q/2).  The default matches a nominal
    10 dB-gain horn class (directivity of a cos^q pattern is 2(q+1),
    11.8 dBi for q = 6.5).
    """

    # the feed sits above the aperture
    position_mm: tuple[float, float, Annotated[float, POSITIVE]] = (-82.0, 0.0, 150.0)
    pattern_exponent: Annotated[float, NON_NEGATIVE] = 6.5

    def position(self) -> np.ndarray:
        return np.asarray(self.position_mm, dtype=float)

    def boresight(self) -> np.ndarray:
        """Unit vector from the feed towards the aperture centre, memoized read-only."""
        boresight = self.__dict__.get("_boresight")
        if boresight is None:
            v = -self.position()
            boresight = v / np.linalg.norm(v)
            boresight.flags.writeable = False
            object.__setattr__(self, "_boresight", boresight)
        return boresight


def incidence_angles(feed: FeedModel, positions_mm: np.ndarray) -> np.ndarray:
    """Angle between each feed-to-element ray and the aperture normal, deg,
    over an (N, 3) position array.

    Equals the local angle of incidence on the element; 0 for an element
    directly below the feed, approaching 90 for grazing rays.
    """
    v = positions_mm - feed.position()
    r = np.linalg.norm(v, axis=1)
    cos_theta = np.clip(-v[:, 2] / r, -1.0, 1.0)
    return np.degrees(np.arccos(cos_theta))


_HEMISPHERE_DEG = Range(-90.0, 90.0)


@dataclass(frozen=True)
@ranged
class Direction:
    """Azimuth / elevation direction; (0, 0) is the +z boresight."""

    az_deg: Annotated[float, _HEMISPHERE_DEG]
    el_deg: Annotated[float, _HEMISPHERE_DEG] = 0.0

    def unit_vector(self) -> np.ndarray:
        a = math.radians(self.az_deg)
        e = math.radians(self.el_deg)
        return np.array([math.sin(a) * math.cos(e), math.sin(e), math.cos(a) * math.cos(e)])

    def separation_deg(self, other: "Direction") -> float:
        c = float(np.dot(self.unit_vector(), other.unit_vector()))
        return math.degrees(math.acos(min(1.0, max(-1.0, c))))


@dataclass(frozen=True)
@ranged
class IncidenceModel:
    """Phenomenological dependence of the element response on incidence.

    The reflection phase shifts quadratically with the local incidence
    angle and the amplitude rolls off as cos^a.
    """

    beta_deg_per_deg2: Annotated[float, Range(-MAX_INCIDENCE_PHASE_DRIFT,
                                              MAX_INCIDENCE_PHASE_DRIFT)] = 0.004
    amplitude_exponent: Annotated[float, Range(0.0, MAX_INCIDENCE_EXPONENT)] = 0.5


@dataclass(frozen=True, eq=False)
@ranged
class AntennaAssembly:
    """Array, feed and operating frequency bundled together."""

    array: RisArray = field(default_factory=RisArray)
    feed: FeedModel = field(default_factory=FeedModel)
    frequency_ghz: float = 26.0
    # the default H array's leakage
    cross_pol_db: Annotated[float, CROSS_POL_DB] = XpdModel.h_antenna_db
    element_circuit: ElementCircuit = DESIGN_CIRCUIT
    incidence_model: IncidenceModel | None = None

    def __post_init__(self):
        wavelength = wavelength_mm(self.frequency_ghz)   # checks the frequency
        if not self.array.period_mm <= MAX_PERIOD_WAVELENGTHS * wavelength:
            raise ValueError(f"lattice period of {self.array.period_mm / wavelength:.3g} "
                             f"wavelengths, more than {MAX_PERIOD_WAVELENGTHS:g}")

    @property
    def wavelength_mm(self) -> float:
        return wavelength_mm(self.frequency_ghz)

    @property
    def k_per_mm(self) -> float:
        return wavenumber_per_mm(self.frequency_ghz)
