"""Element circuit model: impedance analysis, reflection states, and the
coordinate-sweep structure optimization."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risant import element
from risant.constants import ETA0_OHM, wrap_deg
from risant.element import (
    DEFAULT_START_CIRCUIT,
    DEFAULT_SWEEPS,
    DESIGN_CIRCUIT,
    MAX_SWEEP_POINTS,
    SWEEP_ORDER,
    DesignTargets,
    DiodeModel,
    ElementCircuit,
    SweepRange,
    _apply_parameter,
    _get_parameter,
    design_objective,
    element_impedance,
    optimize_structure,
    reflection_coefficient,
    state_metrics,
)

REF_GHZ = 26.0


def _random_circuit(rng) -> ElementCircuit:
    return ElementCircuit(
        c_p_ff=rng.uniform(20.0, 80.0),
        l_p_nh=rng.uniform(0.1, 0.6),
        l_g_nh=rng.uniform(0.4, 1.5),
        l_v_nh=rng.uniform(0.2, 1.0),
        r_loss_ohm=rng.uniform(0.0, 2.0),
        line_z0_ohm=rng.uniform(100.0, 300.0),
        line_length_deg=rng.uniform(10.0, 80.0),
        diode=DiodeModel(
            r_on_ohm=rng.uniform(1.0, 10.0),
            l_diode_nh=rng.uniform(0.02, 0.1),
            r_off_ohm=rng.uniform(1e3, 1e5),
            c_off_ff=rng.uniform(20.0, 60.0),
        ),
    )


def _oracle_impedance(c: ElementCircuit, state: str, f_ghz: float) -> complex:
    """Nodal analysis written out independently: three shunt branches to
    ground, so the node admittance is the sum of branch admittances."""
    w = 2.0 * math.pi * f_ghz * 1e9
    if state == "on":
        z_diode = c.diode.r_on_ohm + 1j * w * c.diode.l_diode_nh * 1e-9
    else:
        y_rc = 1.0 / c.diode.r_off_ohm + 1j * w * c.diode.c_off_ff * 1e-15
        z_diode = 1.0 / y_rc + 1j * w * c.diode.l_diode_nh * 1e-9
    z1 = c.r_loss_ohm + 1j * (w * c.l_p_nh * 1e-9 - 1.0 / (w * c.c_p_ff * 1e-15))
    z2 = 1j * w * (c.l_g_nh + c.l_v_nh) * 1e-9 + z_diode
    theta = math.radians(c.line_length_deg) * f_ghz / REF_GHZ  # length given at 26 GHz
    z3 = 1j * c.line_z0_ohm * math.tan(theta)  # lossless shorted stub
    y = 1.0 / z1 + 1.0 / z2 + 1.0 / z3
    return 1.0 / y


class TestElementImpedance:
    def test_matches_nodal_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            circuit = _random_circuit(rng)
            for state in ("on", "off"):
                z = element_impedance(circuit, state, REF_GHZ)
                z_ref = _oracle_impedance(circuit, state, REF_GHZ)
                assert abs(z - z_ref) <= 1e-9 * abs(z_ref)

    def test_parallel_lc_resonance_spikes_open(self):
        # Lossless element with the stub a quarter wave long (its branch
        # effectively open), leaving a parallel resonance between the
        # capacitive patch branch and the inductive control branch.  At
        # resonance the input impedance must blow up without ever going
        # non-finite.
        circuit = ElementCircuit(
            c_p_ff=50.0, l_p_nh=1e-6, l_g_nh=0.5, l_v_nh=0.5,
            r_loss_ohm=0.0, line_z0_ohm=200.0, line_length_deg=90.0,
            diode=DiodeModel(r_on_ohm=0.0, l_diode_nh=1e-6, r_off_ohm=1e12, c_off_ff=1e-6),
        )
        freqs = np.linspace(20.0, 32.0, 20001)
        mags = [abs(element_impedance(circuit, "on", float(f))) for f in freqs]
        assert max(mags) > 1e6
        assert all(math.isfinite(m) for m in mags)

    def test_short_circuit_limit(self):
        # Vanishing inductances, a huge capacitance and a near-zero stub
        # make every branch impedance tiny: the element shorts out.
        circuit = ElementCircuit(
            c_p_ff=1e12, l_p_nh=1e-9, l_g_nh=1e-9, l_v_nh=1e-9,
            r_loss_ohm=0.0, line_z0_ohm=200.0, line_length_deg=1e-9,
            diode=DiodeModel(r_on_ohm=0.0, l_diode_nh=1e-9),
        )
        z = element_impedance(circuit, "on", REF_GHZ)
        assert abs(z) < 1e-3
        gamma = reflection_coefficient(circuit, "on", REF_GHZ)
        assert gamma.amplitude == pytest.approx(1.0, abs=1e-6)
        assert abs(gamma.phase_deg) == pytest.approx(180.0, abs=0.01)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            element_impedance(DESIGN_CIRCUIT, "on", 0.0)


class TestReflection:
    def test_lossless_amplitude_is_unity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            c = _random_circuit(rng)
            lossless = ElementCircuit(
                c_p_ff=c.c_p_ff, l_p_nh=c.l_p_nh, l_g_nh=c.l_g_nh,
                l_v_nh=c.l_v_nh, r_loss_ohm=0.0, line_z0_ohm=c.line_z0_ohm,
                line_length_deg=c.line_length_deg,
                diode=DiodeModel(r_on_ohm=0.0, l_diode_nh=c.diode.l_diode_nh,
                                 r_off_ohm=1e30, c_off_ff=c.diode.c_off_ff),
            )
            for state in ("on", "off"):
                amp = reflection_coefficient(lossless, state, REF_GHZ).amplitude
                assert amp == pytest.approx(1.0, abs=1e-12)

    def test_design_circuit_meets_published_targets(self):
        amp_on, amp_off, dphi = state_metrics(DESIGN_CIRCUIT, REF_GHZ)
        assert amp_on >= 0.85
        assert amp_off >= 0.85
        assert abs(abs(dphi) - 180.0) <= 5.0

    def test_passivity_over_band(self):
        rng = np.random.default_rng(7)
        freqs = np.linspace(20.0, 32.0, 25)
        for _ in range(200):
            circuit = _random_circuit(rng)
            for f in freqs:
                for state in ("on", "off"):
                    amp = reflection_coefficient(circuit, state, float(f)).amplitude
                    assert amp <= 1.0 + 1e-12


class TestPhaseDifference:
    def test_identical_states_give_zero(self):
        diode = DiodeModel(r_on_ohm=5.0, l_diode_nh=0.05, r_off_ohm=5.0, c_off_ff=1e-6)
        # A vanishing C_off reduces the OFF junction to R_off alone, so
        # both states see the same series impedance.
        circuit = replace(DESIGN_CIRCUIT, diode=diode)
        z_on = element_impedance(circuit, "on", REF_GHZ)
        z_off = element_impedance(circuit, "off", REF_GHZ)
        assert abs(z_on - z_off) / abs(z_on) < 1e-6
        assert abs(state_metrics(circuit, REF_GHZ)[2]) < 1e-3

    def test_equals_wrapped_subtraction(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            c = _random_circuit(rng)
            on = reflection_coefficient(c, "on", REF_GHZ)
            off = reflection_coefficient(c, "off", REF_GHZ)
            expected = wrap_deg(on.phase_deg - off.phase_deg)
            assert state_metrics(c, REF_GHZ)[2] == pytest.approx(float(expected), abs=1e-12)


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
@settings(max_examples=1000, deadline=None)
def test_wrap_deg_range_and_congruence(angle):
    wrapped = float(wrap_deg(angle))
    assert -180.0 < wrapped <= 180.0
    residue = (wrapped - angle) % 360.0
    assert min(residue, 360.0 - residue) < 1e-6


def _flat_bottom_metrics(circuit, frequency_ghz):
    """`state_metrics` stand-in: amplitudes 0.9, and a phase difference off
    180 deg by how far c_p_ff lies outside [48, 52]."""
    return 0.9, 0.9, 180.0 + max(0.0, abs(circuit.c_p_ff - 50.0) - 2.0)


class TestOptimizer:
    def test_fixed_point_when_targets_already_met(self):
        res = optimize_structure(DESIGN_CIRCUIT)
        assert res.circuit == DESIGN_CIRCUIT
        assert res.rounds_used == 0
        assert res.targets_met

    def test_single_parameter_equals_grid_minimum(self):
        sweeps = {"c_p_ff": SweepRange(30.0, 70.0, 0.5)}
        # Unreachable amplitude target keeps the optimizer sweeping to the
        # true grid optimum instead of stopping at the first feasible point.
        targets = DesignTargets(min_amplitude=0.999)
        res = optimize_structure(DEFAULT_START_CIRCUIT, sweeps=sweeps, targets=targets)

        grid = sweeps["c_p_ff"].grid()
        objectives = []
        for value in grid:
            candidate = ElementCircuit(
                c_p_ff=float(value),
                l_p_nh=DEFAULT_START_CIRCUIT.l_p_nh,
                l_g_nh=DEFAULT_START_CIRCUIT.l_g_nh,
                l_v_nh=DEFAULT_START_CIRCUIT.l_v_nh,
                r_loss_ohm=DEFAULT_START_CIRCUIT.r_loss_ohm,
                line_z0_ohm=DEFAULT_START_CIRCUIT.line_z0_ohm,
                line_length_deg=DEFAULT_START_CIRCUIT.line_length_deg,
                diode=DEFAULT_START_CIRCUIT.diode,
            )
            objectives.append(design_objective(candidate, REF_GHZ))
        best = grid[int(np.argmin(objectives))]
        assert res.circuit.c_p_ff == pytest.approx(float(best))
        assert not res.targets_met

    def test_default_start_reaches_design_targets(self):
        res = optimize_structure(DEFAULT_START_CIRCUIT)
        assert res.targets_met
        assert res.amp_on >= 0.85
        assert res.amp_off >= 0.85
        assert abs(abs(res.phase_diff_deg) - 180.0) <= 5.0

    def test_reproduces_frozen_design_circuit(self):
        res = optimize_structure(DEFAULT_START_CIRCUIT)
        assert res.circuit.c_p_ff == pytest.approx(DESIGN_CIRCUIT.c_p_ff)
        assert res.circuit.l_g_nh == pytest.approx(DESIGN_CIRCUIT.l_g_nh)
        assert res.circuit.l_v_nh == pytest.approx(DESIGN_CIRCUIT.l_v_nh)
        assert res.circuit.diode.l_diode_nh == pytest.approx(DESIGN_CIRCUIT.diode.l_diode_nh)

    def test_never_worse_than_start_and_monotone_in_rounds(self):
        targets = DesignTargets(min_amplitude=0.999)  # infeasible, keep sweeping
        start_obj = design_objective(DEFAULT_START_CIRCUIT, REF_GHZ)
        one = optimize_structure(DEFAULT_START_CIRCUIT, targets=targets, max_rounds=1)
        two = optimize_structure(DEFAULT_START_CIRCUIT, targets=targets, max_rounds=2)
        assert one.objective <= start_obj
        assert two.objective <= one.objective

    @pytest.mark.parametrize("start, expected", [(45.0, 48.0), (50.0, 50.0)])
    def test_ties_keep_the_current_value_then_the_lowest_index(self, start, expected,
                                                              monkeypatch):
        # a phase error flat at 0 over c_p_ff in [48, 52] and amplitudes below
        # the target: round 1 moves to the first tied grid point (from 45) or
        # stays (from 50, already tied), and the next round changes nothing
        monkeypatch.setattr(element, "state_metrics", _flat_bottom_metrics)
        res = optimize_structure(replace(DEFAULT_START_CIRCUIT, c_p_ff=start),
                                 sweeps={"c_p_ff": SweepRange(40.0, 60.0, 1.0)},
                                 targets=DesignTargets(min_amplitude=0.95))
        assert res.circuit.c_p_ff == expected
        assert res.rounds_used == (2 if start != expected else 1)
        assert not res.targets_met

    def test_stops_in_the_round_that_meets_the_targets(self, monkeypatch):
        # the move to 48 meets a 0 deg tolerance; a second round would find
        # nothing to change either, but it is not run
        monkeypatch.setattr(element, "state_metrics", _flat_bottom_metrics)
        res = optimize_structure(DEFAULT_START_CIRCUIT,
                                 sweeps={"c_p_ff": SweepRange(40.0, 60.0, 1.0)},
                                 targets=DesignTargets(phase_tolerance_deg=0.0))
        assert res.circuit.c_p_ff == 48.0
        assert res.rounds_used == 1 and res.targets_met
        assert len(res.trace) == 21

    def test_infeasible_targets_flagged_not_raised(self):
        targets = DesignTargets(min_amplitude=0.9999, phase_tolerance_deg=0.001)
        res = optimize_structure(DEFAULT_START_CIRCUIT, targets=targets)
        assert not res.targets_met
        assert res.rounds_used >= 1

    def test_start_outside_sweep_range_rejected(self):
        sweeps = {"c_p_ff": SweepRange(50.5, 70.0, 0.5)}
        with pytest.raises(ValueError, match="c_p_ff"):
            optimize_structure(DEFAULT_START_CIRCUIT, sweeps=sweeps)

    @pytest.mark.parametrize("name", ["l_p_nh", "diode", "bogus"])
    def test_unknown_sweep_parameter_rejected(self, name):
        # l_p_nh is a circuit field, but not one the sweeps move
        with pytest.raises(ValueError, match=f"unknown sweep parameter '{name}'"):
            optimize_structure(DEFAULT_START_CIRCUIT, sweeps={name: SweepRange(0.0, 1.0, 0.5)})

    @pytest.mark.parametrize("name", SWEEP_ORDER)
    def test_sweep_parameter_moves_only_its_field(self, name):
        moved = _apply_parameter(DEFAULT_START_CIRCUIT, name, 0.0625)
        assert _get_parameter(moved, name) == 0.0625
        changed = [f.name for f in fields(moved)
                   if getattr(moved, f.name) != getattr(DEFAULT_START_CIRCUIT, f.name)]
        assert changed == ["diode" if name == "l_diode_nh" else name]
        if name == "l_diode_nh":
            assert moved.diode == replace(DEFAULT_START_CIRCUIT.diode, l_diode_nh=0.0625)

    @pytest.mark.parametrize("name, sweep", [
        ("c_p_ff", SweepRange(0.0, 70.0, 0.5)),
        ("l_g_nh", SweepRange(-0.1, 1.4, 0.02)),
        ("l_diode_nh", SweepRange(-0.01, 0.12, 0.005)),
    ])
    def test_sweep_reaching_an_invalid_circuit_rejected(self, name, sweep):
        # the start value lies inside each range, the low end makes no circuit
        sweeps = {name: sweep}
        with pytest.raises(ValueError, match=f"sweep range for {name}"):
            optimize_structure(DEFAULT_START_CIRCUIT, sweeps=sweeps)

    @pytest.mark.parametrize("kwargs", [{"min_amplitude": 0.0}, {"min_amplitude": 1.01},
                                        {"phase_tolerance_deg": -1.0}])
    def test_targets_no_circuit_can_meet_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DesignTargets(**kwargs)

    def test_sweep_point_bound(self):
        # grid() holds round((hi - lo) / step) + 1 points
        assert SweepRange(0.0, MAX_SWEEP_POINTS - 1.0, 1.0).grid().size == MAX_SWEEP_POINTS
        with pytest.raises(ValueError, match="points"):
            SweepRange(0.0, float(MAX_SWEEP_POINTS), 1.0)
        with pytest.raises(ValueError, match="points"):
            SweepRange(30.0, 70.0, 1e-300)    # the quotient overflows to inf
        assert all(r.grid().size <= MAX_SWEEP_POINTS for r in DEFAULT_SWEEPS.values())

    def test_trace_rows_have_documented_shape(self):
        res = optimize_structure(DEFAULT_START_CIRCUIT)
        assert res.trace, "trace empty"
        rnd, name, value, amp_on, amp_off, dphi, obj = res.trace[0]
        assert rnd == 1
        assert name in DEFAULT_SWEEPS
        assert all(isinstance(v, float) for v in (value, amp_on, amp_off, dphi, obj))
