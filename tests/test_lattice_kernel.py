"""The lattice field kernel against its plain row-blocked Horner form.

``_reference_field`` spells out every row's polynomial and applies the
element factor to the whole grid at once.  The kernel, which applies it
block by block, must give the same field to the bit on every kind of
axis.
"""

import math

import numpy as np
import pytest

from risant import pattern
from risant.pattern import _CHUNK, _lattice_field, direction_grid

PERIOD_MM = 5.0
K_PER_MM = 2.0 * math.pi * 26.0 / 299.792458  # 26 GHz


def _reference_field(period_mm, coeffs_grid, k, az_deg, el_deg):
    """Every row's polynomial by Horner, then the element factor
    (cos(el) cos(az))^qe over the whole grid."""
    n_y, n_x = coeffs_grid.shape
    az = np.radians(az_deg)
    el = np.radians(el_deg)
    sin_az = np.sin(az)
    cos_el = np.cos(el)
    y_mm = (np.arange(n_y) - 0.5 * (n_y - 1)) * period_mm
    rows_b = np.exp(1j * k * np.outer(np.sin(el), y_mm)) @ coeffs_grid
    x0_mm = -0.5 * (n_x - 1) * period_mm
    out = np.empty((el.size, az.size), dtype=complex)
    step = max(1, _CHUNK // max(az.size, 1))
    for lo in range(0, el.size, step):
        hi = min(lo + step, el.size)
        k_ux = k * np.outer(cos_el[lo:hi], sin_az)
        z = np.exp(1j * period_mm * k_ux)
        b = rows_b[lo:hi]
        acc = out[lo:hi]
        acc[...] = b[:, n_x - 1, None]
        for m in range(n_x - 2, -1, -1):
            acc *= z
            acc += b[:, m, None]
        acc *= np.exp(1j * x0_mm * k_ux)
    out *= np.outer(np.maximum(np.cos(el), 0.0) ** pattern.ELEMENT_EXPONENT,
                    np.maximum(np.cos(az), 0.0) ** pattern.ELEMENT_EXPONENT)
    return out


def _coeffs(n_y, n_x, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n_y, n_x)) + 1j * rng.standard_normal((n_y, n_x))


def _assert_same_field(coeffs, az, el):
    expected = _reference_field(PERIOD_MM, coeffs, K_PER_MM, az, el)
    got = _lattice_field(PERIOD_MM, coeffs, K_PER_MM, az, el)
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)


QUARTER = direction_grid(0.25)[0]
ONE = direction_grid(1.0)[0]
WINDOW = np.arange(-3.0, 3.0 + 0.05, 0.1)       # steered_gain's 0.1 deg window
NO_ZERO = np.arange(-89.875, 90.0, 0.25)        # mirrored, even length, no 0


@pytest.mark.parametrize("n_y, n_x", [(32, 32), (48, 48), (17, 31)])
def test_quarter_degree_hemisphere(n_y, n_x):
    _assert_same_field(_coeffs(n_y, n_x), QUARTER, QUARTER)


@pytest.mark.parametrize("az, el", [
    (ONE[89:92], ONE[89:92]),                   # 3x3 around broadside
    (ONE[86:95], ONE[88:93]),                   # 5 rows x 9 columns
    (ONE[119:122], ONE[89:92]),                 # steered 30 deg in az
    (ONE, ONE),                                 # the whole 1 deg grid
    (WINDOW, WINDOW),                           # steered_gain's window
    (ONE[:1], ONE[:1]),
], ids=["3x3", "5x9", "steered-3x3", "1deg", "window", "point"])
def test_coarse_and_fine_grids(az, el):
    _assert_same_field(_coeffs(32, 32, seed=1), az, el)


@pytest.mark.parametrize("az, el", [
    (QUARTER, np.array([0.0])),                 # single row
    (np.array([0.0]), QUARTER),                 # single column
    (QUARTER, np.array([10.0])),
    (NO_ZERO, NO_ZERO),                         # axes without 0
    (NO_ZERO, QUARTER),
    (QUARTER + 0.1, QUARTER),                   # az shifted by 0.1 deg
    (QUARTER, QUARTER[1:]),                     # el without its first row
], ids=["row", "column", "off-axis-row", "no-zero", "no-zero-az", "shifted-az",
        "one-sided-el"])
def test_rows_columns_and_axes_with_and_without_zero(az, el):
    _assert_same_field(_coeffs(16, 24, seed=2), az, el)


def test_scattered_axes():
    rng = np.random.default_rng(3)
    az = np.sort(rng.uniform(-90.0, 90.0, 300))
    el = np.sort(rng.uniform(-90.0, 90.0, 200))
    _assert_same_field(_coeffs(32, 32, seed=4), az, el)
