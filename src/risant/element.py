"""Equivalent-circuit model of a one-bit switchable reflective element.

The element is modeled as three shunt branches seen by a normally
incident wave:

* the patch branch, a series R-L-C formed by the metal patch and the
  gap to its neighbours,
* the control branch, groove and via inductances in series with a PIN
  diode, and
* the grounded substrate, a short-circuited transmission-line stub.

Switching the diode between its ON (resistive-inductive) and OFF
(capacitive) states moves the input reactance across the free-space
impedance, which flips the reflection phase by roughly 180 degrees
while keeping the magnitude close to one.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .constants import ETA0_OHM, wrap_deg

# Impedance magnitude reported when a lossless network sits exactly on a
# parallel resonance.  Kept finite so downstream arithmetic stays valid.
OPEN_CIRCUIT_OHM = 1e30

# Weight of the squared phase-difference error (per deg^2) against the
# worst-state amplitude in the structure-optimization objective.
PHASE_PENALTY_PER_DEG2 = 0.01

REF_FREQUENCY_GHZ = 26.0

# The two diode states of a one-bit element are meant to reflect 180 deg apart.
PHASE_DIFF_TARGET_DEG = 180.0


@dataclass(frozen=True)
class DiodeModel:
    """PIN diode small-signal parameters for both bias states.

    ON is a series R-L, OFF is the junction capacitance shunted by a
    large leakage resistance, in series with the same package
    inductance.
    """

    r_on_ohm: float = 5.0
    l_on_nh: float = 0.05
    r_off_ohm: float = 10e3
    l_off_nh: float = 0.05
    c_off_ff: float = 35.0

    def __post_init__(self):
        if self.r_on_ohm < 0 or self.r_off_ohm <= 0:
            raise ValueError("diode resistances must be non-negative (R_off > 0)")
        if self.l_on_nh < 0 or self.l_off_nh < 0 or self.c_off_ff <= 0:
            raise ValueError("diode reactive values must be positive")

    def impedance(self, state: str, frequency_ghz: float) -> complex:
        w = 2.0 * math.pi * frequency_ghz * 1e9
        if state == "on":
            return self.r_on_ohm + 1j * w * self.l_on_nh * 1e-9
        if state == "off":
            y_junction = 1.0 / self.r_off_ohm + 1j * w * self.c_off_ff * 1e-15
            return 1j * w * self.l_off_nh * 1e-9 + 1.0 / y_junction
        raise ValueError(f"diode state must be 'on' or 'off', got {state!r}")


@dataclass(frozen=True)
class ElementCircuit:
    """Lumped shunt network of one element.

    All three branches are in parallel as seen from free space.  The
    grounded substrate is a shorted stub described by its characteristic
    impedance and its electrical length at ``REF_FREQUENCY_GHZ``.
    """

    c_p_ff: float                 # patch gap capacitance
    l_p_nh: float                 # patch strip inductance
    l_g_nh: float                 # groove inductance
    l_v_nh: float                 # bias via inductance
    r_loss_ohm: float             # conductor loss in the patch branch
    line_z0_ohm: float            # substrate stub characteristic impedance
    line_length_deg: float        # electrical length at REF_FREQUENCY_GHZ
    line_loss_tan: float = 0.0    # dielectric loss tangent of the stub
    diode: DiodeModel = field(default_factory=DiodeModel)

    def __post_init__(self):
        if self.c_p_ff <= 0:
            raise ValueError("patch capacitance must be positive")
        if min(self.l_p_nh, self.l_g_nh, self.l_v_nh) < 0:
            raise ValueError("inductances must be non-negative")
        if self.r_loss_ohm < 0 or self.line_loss_tan < 0:
            raise ValueError("loss terms must be non-negative")
        if self.line_z0_ohm <= 0 or self.line_length_deg < 0:
            raise ValueError("stub impedance must be positive and length non-negative")


@dataclass(frozen=True)
class ReflectionCoefficient:
    amplitude: float
    phase_deg: float     # wrapped to (-180, 180]

    def __post_init__(self):
        if not (0.0 <= self.amplitude):
            raise ValueError("reflection amplitude must be non-negative")
        if not (-180.0 < self.phase_deg <= 180.0):
            raise ValueError("reflection phase must lie in (-180, 180]")

    @property
    def value(self) -> complex:
        return self.amplitude * cmath.exp(1j * math.radians(self.phase_deg))


def _branch_impedances(circuit: ElementCircuit, state: str, frequency_ghz: float):
    w = 2.0 * math.pi * frequency_ghz * 1e9
    z_patch = (
        circuit.r_loss_ohm
        + 1j * w * circuit.l_p_nh * 1e-9
        + 1.0 / (1j * w * circuit.c_p_ff * 1e-15)
    )
    z_control = (
        1j * w * (circuit.l_g_nh + circuit.l_v_nh) * 1e-9
        + circuit.diode.impedance(state, frequency_ghz)
    )
    theta = math.radians(circuit.line_length_deg) * frequency_ghz / REF_FREQUENCY_GHZ
    # tanh(j*theta) = j*tan(theta); the loss tangent makes the stub lossy.
    z_line = circuit.line_z0_ohm * cmath.tanh(theta * (0.5 * circuit.line_loss_tan + 1j))
    return z_patch, z_control, z_line


def element_impedance(circuit: ElementCircuit, state: str, frequency_ghz: float) -> complex:
    """Input impedance of the shunt network, in ohm.

    A branch that degenerates to zero impedance shorts the element.  If
    the total admittance vanishes (exact resonance of a lossless
    network) the open-circuit sentinel ``OPEN_CIRCUIT_OHM`` is returned
    instead of a non-finite value.
    """
    if frequency_ghz <= 0:
        raise ValueError(f"frequency must be positive, got {frequency_ghz} GHz")
    y_total = 0j
    for z in _branch_impedances(circuit, state, frequency_ghz):
        if z == 0:
            return 0j
        y_total += 1.0 / z
    if y_total == 0:
        return complex(OPEN_CIRCUIT_OHM)
    z_in = 1.0 / y_total
    if not (math.isfinite(z_in.real) and math.isfinite(z_in.imag)):
        return complex(OPEN_CIRCUIT_OHM)
    return z_in


def reflection_coefficient(
    circuit: ElementCircuit, state: str, frequency_ghz: float
) -> ReflectionCoefficient:
    """Plane-wave reflection coefficient of the element surface."""
    z_in = element_impedance(circuit, state, frequency_ghz)
    gamma = (z_in - ETA0_OHM) / (z_in + ETA0_OHM)
    return ReflectionCoefficient(
        amplitude=abs(gamma), phase_deg=float(wrap_deg(math.degrees(cmath.phase(gamma))))
    )


@dataclass(frozen=True)
class DesignTargets:
    min_amplitude: float = 0.85
    phase_tolerance_deg: float = 5.0

    def __post_init__(self):
        # a passive element reflects at most all of the incident wave
        if not 0.0 < self.min_amplitude <= 1.0:
            raise ValueError("minimum amplitude must lie in (0, 1]")
        if self.phase_tolerance_deg < 0:
            raise ValueError("phase tolerance must be non-negative")


# Most points a sweep may hold (grid() holds round(span / step) + 1): each
# costs one ~25 us circuit evaluation a round; the defaults hold 21 to 81.
MAX_SWEEP_POINTS = 10_000


@dataclass(frozen=True)
class SweepRange:
    lo: float
    hi: float
    step: float

    def __post_init__(self):
        if not (self.lo <= self.hi) or self.step <= 0:
            raise ValueError("sweep range must have lo <= hi and a positive step")
        if (self.hi - self.lo) / self.step >= MAX_SWEEP_POINTS - 0.5:
            raise ValueError(f"sweep range must hold at most {MAX_SWEEP_POINTS} points")

    def grid(self) -> np.ndarray:
        n = int(round((self.hi - self.lo) / self.step))
        return self.lo + self.step * np.arange(n + 1)


# Sweep order for the alternating one-dimensional scans.  Each name is an
# ElementCircuit field except l_diode_nh, the diode package inductance.
SWEEP_ORDER = ("c_p_ff", "l_g_nh", "l_v_nh", "l_diode_nh")


def _get_parameter(circuit: ElementCircuit, name: str) -> float:
    """The swept value ``name`` of a circuit; the one check of a sweep name,
    made before :func:`_apply_parameter` sees it."""
    if name not in SWEEP_ORDER:
        raise ValueError(f"unknown sweep parameter {name!r}")
    return circuit.diode.l_on_nh if name == "l_diode_nh" else getattr(circuit, name)


def _apply_parameter(circuit: ElementCircuit, name: str, value: float) -> ElementCircuit:
    if name == "l_diode_nh":
        # Package inductance is shared by both bias states.
        return replace(circuit, diode=replace(circuit.diode, l_on_nh=value, l_off_nh=value))
    return replace(circuit, **{name: value})


def state_metrics(circuit: ElementCircuit, frequency_ghz: float):
    """(amp_on, amp_off, phase_diff_deg) of the element at one frequency."""
    on = reflection_coefficient(circuit, "on", frequency_ghz)
    off = reflection_coefficient(circuit, "off", frequency_ghz)
    return on.amplitude, off.amplitude, float(wrap_deg(on.phase_deg - off.phase_deg))


def _objective(amp_on: float, amp_off: float, dphi: float) -> float:
    phase_err = float(wrap_deg(dphi - PHASE_DIFF_TARGET_DEG))
    return -min(amp_on, amp_off) + PHASE_PENALTY_PER_DEG2 * phase_err**2


def design_objective(circuit: ElementCircuit, frequency_ghz: float) -> float:
    """Scalar cost: maximize the worse state amplitude, penalize phase error.

    Lower is better.  The quadratic phase penalty dominates until the
    difference is within a few degrees of 180, after which the amplitude
    term takes over.
    """
    return _objective(*state_metrics(circuit, frequency_ghz))


def targets_met(circuit: ElementCircuit, frequency_ghz: float, targets: DesignTargets) -> bool:
    amp_on, amp_off, dphi = state_metrics(circuit, frequency_ghz)
    phase_err = abs(float(wrap_deg(dphi - PHASE_DIFF_TARGET_DEG)))
    return min(amp_on, amp_off) >= targets.min_amplitude and phase_err <= targets.phase_tolerance_deg


class SweepRangeError(ValueError):
    """A sweep range whose end makes a circuit the model rejects;
    ``parameter`` names the sweep."""

    def __init__(self, parameter: str, message: str):
        super().__init__(message)
        self.parameter = parameter


@dataclass
class OptimizeResult:
    circuit: ElementCircuit
    amp_on: float
    amp_off: float
    phase_diff_deg: float
    objective: float
    rounds_used: int
    targets_met: bool
    trace: list  # rows: (round, parameter, value, amp_on, amp_off, phase_diff_deg, objective)


def optimize_structure(
    start: ElementCircuit,
    frequency_ghz: float = REF_FREQUENCY_GHZ,
    targets: DesignTargets = DesignTargets(),
    sweeps: dict[str, SweepRange] | None = None,
    max_rounds: int = 8,
) -> OptimizeResult:
    """Alternating one-parameter sweeps of the element structure.

    Each round scans ``c_p_ff``, ``l_g_nh``, ``l_v_nh`` and the diode
    package inductance in that order, moving a parameter only when the
    scan strictly improves the objective (ties keep the current value;
    ties between grid points resolve to the lowest index).  Stops when a
    full round changes nothing, when the design targets are met, or
    after ``max_rounds``.  An unmet target is reported through the
    ``targets_met`` flag, never as an exception.  The trace holds one row
    per evaluated candidate (none when the start meets the targets).
    Before any round, a sweep that misses its start value raises
    ValueError, and one whose end makes a circuit the model rejects raises
    :class:`SweepRangeError`; both messages name the parameter.
    """
    if sweeps is None:
        sweeps = DEFAULT_SWEEPS
    for name, rng in sweeps.items():
        value = _get_parameter(start, name)
        if not (rng.lo <= value <= rng.hi):
            raise ValueError(
                f"sweep range for {name} ({rng.lo}..{rng.hi}) does not contain the start value {value}"
            )
        for end in (rng.lo, rng.hi):
            try:
                _apply_parameter(start, name, end)
            except ValueError as exc:
                raise SweepRangeError(name, f"sweep range for {name} ({rng.lo}..{rng.hi}) "
                                            f"reaches {end}: {exc}") from None

    circuit = start
    best = design_objective(circuit, frequency_ghz)
    trace: list = []
    rounds_used = 0
    if targets_met(circuit, frequency_ghz, targets):
        a_on, a_off, dphi = state_metrics(circuit, frequency_ghz)
        return OptimizeResult(circuit, a_on, a_off, dphi, best, 0, True, trace)

    for rnd in range(1, max_rounds + 1):
        rounds_used = rnd
        changed = False
        for name in SWEEP_ORDER:
            if name not in sweeps:
                continue
            grid = sweeps[name].grid()
            best_value = _get_parameter(circuit, name)
            best_obj = best
            for value in grid:
                metrics = state_metrics(_apply_parameter(circuit, name, float(value)),
                                        frequency_ghz)
                obj = _objective(*metrics)
                trace.append((rnd, name, float(value), *metrics, obj))
                if obj < best_obj:
                    best_obj = obj
                    best_value = float(value)
            if best_obj < best:
                circuit = _apply_parameter(circuit, name, best_value)
                best = best_obj
                changed = True
        if targets_met(circuit, frequency_ghz, targets) or not changed:
            break

    a_on, a_off, dphi = state_metrics(circuit, frequency_ghz)
    return OptimizeResult(
        circuit=circuit,
        amp_on=a_on,
        amp_off=a_off,
        phase_diff_deg=dphi,
        objective=best,
        rounds_used=rounds_used,
        targets_met=targets_met(circuit, frequency_ghz, targets),
        trace=trace,
    )


@dataclass(frozen=True)
class ElementGeometry:
    """Printed geometry of one element, dimensions in millimetres."""

    period_mm: float = 5.0
    patch_l_mm: float = 2.68
    patch_w_mm: float = 1.92
    groove_l_mm: float = 0.74
    groove_w_mm: float = 0.86
    substrate_h_mm: float = 0.508
    eps_r: float = 3.66
    tan_delta: float = 0.0037

    def __post_init__(self):
        if min(self.period_mm, self.patch_l_mm, self.patch_w_mm,
               self.groove_l_mm, self.groove_w_mm, self.substrate_h_mm) <= 0:
            raise ValueError("geometry dimensions must be positive")
        if self.patch_l_mm >= self.period_mm or self.patch_w_mm >= self.period_mm:
            raise ValueError("patch must be smaller than the element period")
        if self.groove_l_mm >= self.patch_l_mm or self.groove_w_mm >= self.patch_w_mm:
            raise ValueError("groove must fit inside the patch")
        if self.eps_r < 1 or self.tan_delta < 0:
            raise ValueError("substrate parameters out of range")


# Closed-form surrogate coefficients mapping printed dimensions to the
# lumped circuit.  Calibrated so the nominal geometry above lands on the
# calibrated design circuit; they are engineering fits, not exact
# electromagnetics.
PATCH_CAP_FF_MM = 9.675          # C_p = K * eps_eff * area / gap
PATCH_IND_NH_PER_MM = 0.112      # L_p = K * patch length
GROOVE_IND_NH_PER_MM = 1.486     # L_g = K * groove length
VIA_IND_NH_PER_MM = 0.984        # L_v = K * substrate height
LOSS_OHM_PER_TAN = 135.0         # R_loss = K * tan_delta


def geometry_to_circuit(geometry: ElementGeometry, diode: DiodeModel | None = None) -> ElementCircuit:
    """Map printed dimensions to the lumped equivalent circuit.

    The patch capacitance scales with patch area over the gap to the
    neighbouring element, inductances scale with their current-path
    lengths, and the grounded substrate becomes a shorted stub with the
    dielectric's wave impedance and electrical thickness.
    """
    gap_mm = geometry.period_mm - geometry.patch_l_mm
    eps_eff = 0.5 * (geometry.eps_r + 1.0)
    area_mm2 = geometry.patch_l_mm * geometry.patch_w_mm
    k0 = 2.0 * math.pi * REF_FREQUENCY_GHZ / 299.792458  # rad/mm at the reference
    length_deg = math.degrees(math.sqrt(geometry.eps_r) * k0 * geometry.substrate_h_mm)
    return ElementCircuit(
        c_p_ff=PATCH_CAP_FF_MM * eps_eff * area_mm2 / gap_mm,
        l_p_nh=PATCH_IND_NH_PER_MM * geometry.patch_l_mm,
        l_g_nh=GROOVE_IND_NH_PER_MM * geometry.groove_l_mm,
        l_v_nh=VIA_IND_NH_PER_MM * geometry.substrate_h_mm,
        r_loss_ohm=LOSS_OHM_PER_TAN * geometry.tan_delta,
        line_z0_ohm=ETA0_OHM / math.sqrt(geometry.eps_r),
        line_length_deg=length_deg,
        line_loss_tan=geometry.tan_delta,
        diode=diode if diode is not None else DiodeModel(),
    )


# Starting point of the structure optimization: deliberately detuned
# from the design optimum so the sweep has work to do.
DEFAULT_START_CIRCUIT = ElementCircuit(
    c_p_ff=45.0,
    l_p_nh=0.30,
    l_g_nh=0.80,
    l_v_nh=0.50,
    r_loss_ohm=0.5,
    line_z0_ohm=196.9,
    line_length_deg=30.35,
)

DEFAULT_SWEEPS = {
    "c_p_ff": SweepRange(30.0, 70.0, 0.5),
    "l_g_nh": SweepRange(0.50, 1.40, 0.02),
    "l_v_nh": SweepRange(0.30, 1.00, 0.02),
    "l_diode_nh": SweepRange(0.02, 0.12, 0.005),
}

# Output of optimize_structure(DEFAULT_START_CIRCUIT) at 26 GHz, frozen
# here so the rest of the package can use the tuned element without
# re-running the sweep.  test_element checks the reproduction.
DESIGN_CIRCUIT = ElementCircuit(
    c_p_ff=50.0,
    l_p_nh=0.30,
    l_g_nh=1.10,
    l_v_nh=0.50,
    r_loss_ohm=0.5,
    line_z0_ohm=196.9,
    line_length_deg=30.35,
    diode=DiodeModel(l_on_nh=0.045, l_off_nh=0.045),
)
