"""Physical constants and small unit helpers shared across the package."""

import numpy as np

C_MPS = 299792458.0          # speed of light, m/s
ETA0_OHM = 376.730313668     # free-space wave impedance, ohm
THERMAL_NOISE_DBM_PER_HZ = -174.0

# Highest carrier the models take: 10 THz, the top of the terahertz band
# (the element circuit and the NR numerology are radio models).  Far past it
# the wavelength underflows, to 0 above about 1.8e299 GHz.
MAX_FREQUENCY_GHZ = 1e4


def wavelength_m(frequency_ghz: float) -> float:
    """Free-space wavelength in metres, of a frequency in (0, MAX_FREQUENCY_GHZ]."""
    if not 0.0 < frequency_ghz <= MAX_FREQUENCY_GHZ:
        raise ValueError(f"frequency must be in (0, {MAX_FREQUENCY_GHZ:g}] GHz, "
                         f"got {frequency_ghz} GHz")
    return C_MPS / (frequency_ghz * 1e9)


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
