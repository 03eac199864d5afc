"""Physical constants, small unit helpers and the one range check shared
across the package."""

import math
import typing

import numpy as np

C_MPS = 299792458.0          # speed of light, m/s
ETA0_OHM = 376.730313668     # free-space wave impedance, ohm
THERMAL_NOISE_DBM_PER_HZ = -174.0


class Range:
    """The numbers from ``lo`` to ``hi``, either end left out if it is open;
    NaN lies in no range.  :meth:`check` is the one test of every declared
    bound, and writes what it asks for."""

    def __init__(self, lo=-math.inf, hi=math.inf, lo_open=False, hi_open=False):
        self.lo, self.hi, self.lo_open, self.hi_open = lo, hi, lo_open, hi_open
        # the closed interval of floats that the range holds
        self.min = math.nextafter(lo, math.inf) if lo_open else lo
        self.max = math.nextafter(hi, -math.inf) if hi_open else hi

    def __str__(self) -> str:
        lo, hi = (f"{x:g}" if isinstance(x, float) else str(x) for x in (self.lo, self.hi))
        if self.hi == math.inf:
            return f"{'>' if self.lo_open else '>='} {lo}"
        if self.lo == -math.inf:
            return f"{'<' if self.hi_open else '<='} {hi}"
        return f"in {'(' if self.lo_open else '['}{lo}, {hi}{')' if self.hi_open else ']'}"

    def check(self, value, name: str):
        """``value``, or a ValueError naming ``name`` if it lies outside the
        range; a list or tuple ``value`` is checked entry by entry."""
        entries = value if isinstance(value, (list, tuple)) else (value,)
        for x in entries:
            if not self.min <= x <= self.max:
                kind = "a list of numbers " if entries is value else ""
                raise ValueError(f"{name} must be {kind}{self}, got {value!r}")
        return value


def ranged(cls):
    """Class decorator, applied under ``@dataclass``: an instance checks each
    Range that a field's ``Annotated`` hint declares (on every entry of a
    tuple field, or on one entry's hint) before the class's own
    ``__post_init__`` runs.  The checks are worked out once, here."""
    checks = []
    for name, hint in typing.get_type_hints(cls, include_extras=True).items():
        rng = _declared(hint)
        base = typing.get_args(hint)[0] if rng else hint
        if typing.get_origin(base) is tuple:
            checks += [(name, i, f"{name}[{i}]", r) for i, e in enumerate(typing.get_args(base))
                       if (r := rng or _declared(e))]
        elif rng:
            checks.append((name, None, name, rng))
    own = cls.__dict__.get("__post_init__")

    def __post_init__(self):
        for name, i, label, rng in checks:
            value = getattr(self, name)
            x = value if i is None else value[i]
            if not rng.min <= x <= rng.max:   # check's own test, inline: models are hot
                rng.check(x, label)
        if own is not None:
            own(self)
    cls.__post_init__, cls._ranges = __post_init__, checks
    return cls


def _declared(hint):
    """The Range an ``Annotated`` hint declares, or None."""
    return next((m for m in getattr(hint, "__metadata__", ()) if isinstance(m, Range)), None)


POSITIVE, NON_NEGATIVE = Range(0.0, lo_open=True), Range(0.0)

# Carriers the models take: up to 10 THz, the top of the terahertz band (the
# element circuit and the NR numerology are radio models).  Far past it the
# wavelength underflows, to 0 above about 1.8e299 GHz.
MAX_FREQUENCY_GHZ = 1e4
FREQUENCY_GHZ = Range(0.0, MAX_FREQUENCY_GHZ, lo_open=True)

# Leaf of numpy's pairwise sum (PW_BLOCKSIZE in its loops_utils.h); its one
# reader is pattern._spillover's folded-mesh sum
PAIRWISE_LEAF = 128


def wavelength_m(frequency_ghz: float) -> float:
    """Free-space wavelength in metres, of a frequency in FREQUENCY_GHZ."""
    return C_MPS / (FREQUENCY_GHZ.check(frequency_ghz, "frequency") * 1e9)


def wavelength_mm(frequency_ghz: float) -> float:
    return wavelength_m(frequency_ghz) * 1e3


def wavenumber_per_mm(frequency_ghz: float) -> float:
    """Free-space wavenumber k = 2*pi/lambda, in rad/mm."""
    return 2.0 * np.pi / wavelength_mm(frequency_ghz)


def db10(x) -> float:
    """Power ratio to dB."""
    return 10.0 * np.log10(x)


def from_db10(x_db):
    return 10.0 ** (np.asarray(x_db) / 10.0)


def wrap_deg(angle_deg):
    """Wrap an angle in degrees to the interval (-180, 180]."""
    return -((-np.asarray(angle_deg) + 180.0) % 360.0 - 180.0)
