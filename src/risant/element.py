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
    large leakage resistance; both states are in series with the one
    package inductance ``l_diode_nh``.
    """

    r_on_ohm: float = 5.0
    l_diode_nh: float = 0.05
    r_off_ohm: float = 10e3
    c_off_ff: float = 35.0

    def __post_init__(self):
        if self.r_on_ohm < 0 or self.r_off_ohm <= 0:
            raise ValueError("diode resistances must be non-negative (R_off > 0)")
        if self.l_diode_nh < 0 or self.c_off_ff <= 0:
            raise ValueError("diode reactive values must be positive")

    def impedance(self, state: str, frequency_ghz: float) -> complex:
        w = 2.0 * math.pi * frequency_ghz * 1e9
        if state == "on":
            return self.r_on_ohm + 1j * w * self.l_diode_nh * 1e-9
        if state == "off":
            y_junction = 1.0 / self.r_off_ohm + 1j * w * self.c_off_ff * 1e-15
            return 1j * w * self.l_diode_nh * 1e-9 + 1.0 / y_junction
        raise ValueError(f"diode state must be 'on' or 'off', got {state!r}")


@dataclass(frozen=True)
class ElementCircuit:
    """Lumped shunt network of one element.

    All three branches are in parallel as seen from free space.  The
    grounded substrate is a lossless shorted stub described by its
    characteristic impedance and its electrical length at
    ``REF_FREQUENCY_GHZ``; the element's loss is lumped in ``r_loss_ohm``
    and the diode's resistances.
    """

    c_p_ff: float                 # patch gap capacitance
    l_p_nh: float                 # patch strip inductance
    l_g_nh: float                 # groove inductance
    l_v_nh: float                 # bias via inductance
    r_loss_ohm: float             # conductor loss in the patch branch
    line_z0_ohm: float            # substrate stub characteristic impedance
    line_length_deg: float        # electrical length at REF_FREQUENCY_GHZ
    diode: DiodeModel = field(default_factory=DiodeModel)

    def __post_init__(self):
        if self.c_p_ff <= 0:
            raise ValueError("patch capacitance must be positive")
        if min(self.l_p_nh, self.l_g_nh, self.l_v_nh) < 0:
            raise ValueError("inductances must be non-negative")
        if self.r_loss_ohm < 0:
            raise ValueError("patch loss must be non-negative")
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
    # a lossless shorted stub: tanh(j*theta) = j*tan(theta)
    z_line = circuit.line_z0_ohm * cmath.tanh(theta * 1j)
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

DEFAULT_MAX_ROUNDS = 8


def _get_parameter(circuit: ElementCircuit, name: str) -> float:
    """The swept value ``name`` of a circuit; the one check of a sweep name,
    made before :func:`_apply_parameter` sees it."""
    if name not in SWEEP_ORDER:
        raise ValueError(f"unknown sweep parameter {name!r}")
    return circuit.diode.l_diode_nh if name == "l_diode_nh" else getattr(circuit, name)


def _apply_parameter(circuit: ElementCircuit, name: str, value: float) -> ElementCircuit:
    if name == "l_diode_nh":
        return replace(circuit, diode=replace(circuit.diode, l_diode_nh=value))
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
    max_rounds: int = DEFAULT_MAX_ROUNDS,
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
    Before any round, a sweep that misses its start value, or whose end
    makes a circuit the model rejects, raises ValueError; the message
    names the parameter.
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
                raise ValueError(f"sweep range for {name} ({rng.lo}..{rng.hi}) "
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
    diode=DiodeModel(l_diode_nh=0.045),
)
