"""Beam synthesis and hierarchical beam training.

The expensive prototype-array objects come from session fixtures; the
noise-free training equivalences sample truth directions away from the
coarse-level sector boundaries, where the wide-beam overlap makes the
winner genuinely ambiguous (a 0.9 deg guard band).
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risant import synthesis
from risant.constants import db10
from risant.geometry import AntennaAssembly, Direction, FeedModel, IncidenceModel, RisArray
from risant.pattern import (
    direction_grid,
    far_field,
    resolve_reflections,
    state_reflections,
    steered_gain,
    steering_row,
)
from risant.synthesis import (
    Codeword,
    build_codebook,
    beam_training,
    continuous_reflections,
    estimate_hpbw_deg,
    exhaustive_search,
    group_circular_mean,
    quantize_one_bit,
    required_phases,
    scan_evaluation,
    synthesize_codeword,
    synthesize_wide_beam,
)

COARSE_BOUNDARIES = (-30.0, 0.0, 30.0)  # interior level-0 sector edges
GUARD_DEG = 0.9


def _guarded_truths(lo, hi, n, branching=4, n_levels=3):
    """Evenly spread azimuths at least GUARD_DEG from internal sector edges."""
    edges = set()
    for level in range(n_levels - 1):
        width = (hi - lo) / branching ** (level + 1)
        edges.update(lo + k * width for k in range(1, branching ** (level + 1)))
    out = []
    for az in np.linspace(lo + 1.0, hi - 1.0, n):
        if min(abs(az - e) for e in edges) >= GUARD_DEG:
            out.append(float(az))
    return out


class TestRequiredPhases:
    def test_matches_path_length_formula(self, small_assembly):
        target = Direction(25.0, -10.0)
        pos = small_assembly.array.positions_mm()
        r_feed = np.linalg.norm(pos - small_assembly.feed.position(), axis=1)
        expected = np.mod(
            np.degrees(small_assembly.k_per_mm * (r_feed - pos @ target.unit_vector())),
            360.0,
        )
        np.testing.assert_allclose(required_phases(small_assembly, target), expected,
                                   rtol=1e-12)

    def test_range(self, assembly):
        phases = required_phases(assembly, Direction(42.0, 13.0))
        assert phases.shape == (1024,)
        assert np.all((phases >= 0.0) & (phases < 360.0))

    def test_mirror_symmetry_in_y_for_zero_elevation(self, assembly):
        phases = required_phases(assembly, Direction(35.0, 0.0))
        grid = phases.reshape(32, 32)  # (iy, ix)
        np.testing.assert_allclose(grid, grid[::-1, :], atol=1e-9)

    def test_adjacent_column_gradient_under_plane_wave_feed(self):
        asm = AntennaAssembly(
            array=RisArray(n_x=16, n_y=2),
            feed=FeedModel(position_mm=(0.0, 0.0, 1e7)),
        )
        az = 20.0
        phases = required_phases(asm, Direction(az, 0.0)).reshape(2, 16)
        steps = np.diff(phases[0])
        expected = -math.degrees(asm.k_per_mm * asm.array.period_mm
                                 * math.sin(math.radians(az)))
        residual = np.mod(steps - expected + 180.0, 360.0) - 180.0
        np.testing.assert_allclose(residual, 0.0, atol=1e-3)

    def test_incidence_compensation_subtracts_model_phase(self, small_assembly):
        model = IncidenceModel()
        modeled = replace(small_assembly, incidence_model=model)
        target = Direction(10.0, 0.0)
        plain = required_phases(modeled, target, compensate_incidence=False)
        comp = required_phases(modeled, target, compensate_incidence=True)
        from risant.geometry import incidence_angles

        theta = incidence_angles(modeled.feed, modeled.array.positions_mm())
        np.testing.assert_allclose(
            np.mod(plain - comp, 360.0),
            np.mod(model.beta_deg_per_deg2 * theta**2, 360.0),
            atol=1e-9,
        )


class TestQuantizer:
    def test_examples(self):
        phases = [0.0, 89.9, 90.0, 180.0, 270.0, 270.1, 359.0, -90.0]
        expected = [0, 0, 1, 1, 1, 0, 0, 1]
        np.testing.assert_array_equal(quantize_one_bit(phases), expected)

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_idempotent_on_state_phases(self, states):
        states = np.asarray(states, dtype=np.uint8)
        np.testing.assert_array_equal(quantize_one_bit(states * 180.0), states)

    def test_output_dtype(self):
        out = quantize_one_bit(np.linspace(0, 360, 17))
        assert out.dtype == np.uint8


class TestGroupCircularMean:
    def test_wraps_across_zero(self, small_assembly):
        # group 0 holds elements 0 and 8 (8x8 lattice paired along y)
        phases = np.zeros(64)
        phases[0] = 350.0
        phases[8] = 10.0
        mean = group_circular_mean(small_assembly, phases)
        assert mean[0] == pytest.approx(0.0, abs=1e-9)

    def test_identity_for_singleton_groups(self):
        asm = AntennaAssembly(
            array=RisArray(n_x=4, n_y=4, group_size=1),
            feed=FeedModel(position_mm=(0.0, 0.0, 100.0)),
        )
        phases = np.linspace(5.0, 355.0, 16)
        np.testing.assert_allclose(group_circular_mean(asm, phases), phases, atol=1e-9)

    def test_constant_input_preserved(self, assembly):
        mean = group_circular_mean(assembly, np.full(1024, 123.4))
        np.testing.assert_allclose(mean, 123.4, atol=1e-9)


class TestCodewordSynthesis:
    def test_shape_and_dtype(self, assembly):
        cw = synthesize_codeword(assembly, Direction(30.0, 0.0))
        assert cw.states.shape == (assembly.array.n_groups,)
        assert set(np.unique(cw.states)) <= {0, 1}

    def test_broadside_codeword_mirror_symmetric_in_y(self, assembly):
        cw = synthesize_codeword(assembly, Direction(0.0, 0.0))
        grid = cw.states.reshape(16, 32)  # (pair row, column)
        np.testing.assert_array_equal(grid, grid[::-1, :])

    def test_steered_codeword_points_at_target(self, assembly):
        target = Direction(30.0, 0.0)
        sg = steered_gain(assembly, synthesize_codeword(assembly, target), target)
        assert sg.pointing_error_deg <= 2.0

    def test_rejects_target_outside_scan_sector(self, assembly):
        with pytest.raises(ValueError, match="scan sector"):
            synthesize_codeword(assembly, Direction(70.0, 0.0))
        with pytest.raises(ValueError, match="scan sector"):
            synthesize_codeword(assembly, Direction(0.0, 45.0))

    def test_codeword_state_validation(self):
        with pytest.raises(ValueError):
            Codeword(states=np.array([0, 1, 2]))


class TestContinuousReflections:
    def test_unit_amplitude_and_phase(self, assembly):
        phases = np.linspace(0.0, 359.0, 1024)
        gamma = continuous_reflections(assembly, phases)
        np.testing.assert_allclose(np.abs(gamma), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.mod(np.degrees(np.angle(gamma)), 360.0),
                                   np.mod(phases, 360.0), atol=1e-9)

    def test_state_average_amplitude(self, assembly):
        g_off, g_on = state_reflections(assembly)
        gamma = continuous_reflections(assembly, np.zeros(1024), amplitude="state-average")
        np.testing.assert_allclose(np.abs(gamma), 0.5 * (abs(g_off) + abs(g_on)),
                                   rtol=1e-12)


class TestWideBeam:
    def test_beamwidth_estimate_formula(self, assembly):
        width_mm = assembly.array.n_x * assembly.array.period_mm
        expected = math.degrees(0.886 * assembly.wavelength_mm / width_mm)
        assert estimate_hpbw_deg(assembly) == pytest.approx(expected)
        assert expected == pytest.approx(3.658337144207248)

    def test_auto_strip_count_scales_with_root_width(self, assembly):
        wide = synthesize_wide_beam(assembly, (-60.0, 60.0), evaluate_ripple=False)
        mid = synthesize_wide_beam(assembly, (0.0, 30.0), evaluate_ripple=False)
        assert wide.n_subapertures == 6
        assert mid.n_subapertures == 3

    def test_narrow_sector_falls_back_to_single_beam(self, assembly):
        wb = synthesize_wide_beam(assembly, (-1.0, 1.0), evaluate_ripple=False)
        assert wb.n_subapertures == 1
        assert "beamwidth" in wb.note
        narrow = synthesize_codeword(assembly, Direction(0.0, 0.0))
        np.testing.assert_array_equal(wb.codeword.states, narrow.states)

    def test_quantization_never_reduces_ripple(self, assembly):
        for sector in ((0.0, 30.0), (-15.0, 15.0)):
            cont = synthesize_wide_beam(assembly, sector, quantize=False).ripple_db
            quant = synthesize_wide_beam(assembly, sector, quantize=True).ripple_db
            assert quant >= cont

    def test_explicit_strip_construction(self, assembly):
        # four strips of eight columns aimed at the four sub-sector centres
        sector = (-20.0, 20.0)
        wb = synthesize_wide_beam(assembly, sector, n_subapertures=4,
                                  evaluate_ripple=False)
        centers = [-15.0, -5.0, 5.0, 15.0]
        phases = np.empty(1024)
        ix = np.arange(1024) % 32
        for s, az_c in enumerate(centers):
            member = (ix >= 8 * s) & (ix < 8 * (s + 1))
            phases[member] = required_phases(assembly, Direction(az_c, 0.0))[member]
        expected = quantize_one_bit(group_circular_mean(assembly, phases))
        np.testing.assert_array_equal(wb.codeword.states, expected)

    @pytest.mark.parametrize("n_sub", [0, 33, 1000])
    def test_strip_count_outside_the_columns_rejected(self, assembly, n_sub):
        # a strip holds at least one of the 32 columns
        with pytest.raises(ValueError, match=r"n_subapertures must be in \[1, 32\]"):
            synthesize_wide_beam(assembly, (-15.0, 15.0), n_subapertures=n_sub,
                                 evaluate_ripple=False)

    def test_one_strip_a_column(self, assembly):
        wb = synthesize_wide_beam(assembly, (-15.0, 15.0), n_subapertures=32,
                                  evaluate_ripple=False)
        assert wb.n_subapertures == 32

    def test_continuous_variant_returns_phases(self, assembly):
        wb = synthesize_wide_beam(assembly, (0.0, 30.0), quantize=False,
                                  evaluate_ripple=False)
        assert wb.codeword is None
        assert wb.phases_deg is not None and wb.phases_deg.shape == (1024,)
        quant = synthesize_wide_beam(assembly, (0.0, 30.0), evaluate_ripple=False)
        assert quant.phases_deg is None and quant.codeword is not None

    @pytest.mark.parametrize("sector", [(-15.0, 15.0), (-60.0, 60.0), (-1.0, 1.0)])
    def test_ripple_takes_one_far_field_call(self, assembly, monkeypatch, sector):
        # the cut's power normalization and gain offset cancel in max - min,
        # so the ripple equals the hemisphere-normalized one without its pass
        calls = []

        def counting(*args):
            calls.append(args)
            return far_field(*args)

        monkeypatch.setattr(synthesis, "far_field", counting)
        wb = synthesize_wide_beam(assembly, sector)
        assert len(calls) == 1
        _, mask, az, el = calls[0]
        cut = far_field(assembly, mask, az, el)
        hemisphere = far_field(assembly, mask, *direction_grid(1.0))
        gains = (db10(np.abs(cut.co_pol[0]) ** 2 * 4 * math.pi / hemisphere.power_total)
                 + hemisphere.gain_offset_db)
        assert wb.ripple_db == pytest.approx(np.max(gains) - np.min(gains), rel=1e-12)

    def test_sector_validation(self, assembly):
        with pytest.raises(ValueError, match="lo < hi"):
            synthesize_wide_beam(assembly, (30.0, 0.0))
        with pytest.raises(ValueError, match="scan sector"):
            synthesize_wide_beam(assembly, (-80.0, 0.0))


class TestCodebook:
    def test_levels_tile_the_sector(self, onebit_codebook):
        lo, hi = onebit_codebook.sector_az
        for level, rows in enumerate(onebit_codebook.levels):
            assert rows.shape == (4 ** (level + 1), 1024)
            sectors = [onebit_codebook.entry_sector(level, i) for i in range(len(rows))]
            assert sectors[0][0] == pytest.approx(lo)
            assert sectors[-1][1] == pytest.approx(hi)
            for a, b in zip(sectors, sectors[1:]):
                assert a[1] == pytest.approx(b[0])
                assert a[1] - a[0] == pytest.approx((hi - lo) / 4 ** (level + 1))

    def test_children_index_blocks(self, onebit_codebook):
        # the children of row p are rows p*b .. p*b + b - 1 of the next
        # level: their slices tile the parent's slice
        for level, parent in ((0, 2), (1, 5)):
            p_lo, p_hi = onebit_codebook.entry_sector(level, parent)
            children = [onebit_codebook.entry_sector(level + 1, i)
                        for i in range(4 * parent, 4 * parent + 4)]
            assert children[0][0] == pytest.approx(p_lo)
            assert children[-1][1] == pytest.approx(p_hi)
            for a, b in zip(children, children[1:]):
                assert a[1] == pytest.approx(b[0])

    def test_rows_are_the_resolved_beams(self, assembly, onebit_codebook,
                                         continuous_codebook):
        # every row is the beam synthesized for its slice, resolved through
        # the element circuit (one-bit) or at unit amplitude (continuous)
        *wide_levels, leaves = onebit_codebook.levels
        for level, rows in enumerate(wide_levels):
            for i, row in enumerate(rows):
                sector = onebit_codebook.entry_sector(level, i)
                wb = synthesize_wide_beam(assembly, sector, evaluate_ripple=False)
                np.testing.assert_array_equal(
                    row, resolve_reflections(assembly, wb.codeword))
        for i, row in enumerate(leaves):
            s_lo, s_hi = onebit_codebook.entry_sector(len(wide_levels), i)
            center = Direction(0.5 * (s_lo + s_hi), 0.0)
            np.testing.assert_array_equal(
                row, resolve_reflections(assembly, synthesize_codeword(assembly, center)))
        for i, row in enumerate(continuous_codebook.levels[-1]):
            s_lo, s_hi = continuous_codebook.entry_sector(len(wide_levels), i)
            center = Direction(0.5 * (s_lo + s_hi), 0.0)
            np.testing.assert_array_equal(
                row, continuous_reflections(assembly, required_phases(assembly, center)))
            np.testing.assert_allclose(np.abs(row), 1.0, atol=1e-12)

    def test_validation(self, assembly):
        with pytest.raises(ValueError):
            build_codebook(assembly, n_levels=0)
        with pytest.raises(ValueError):
            build_codebook(assembly, branching=1)

    @pytest.mark.parametrize("scale", [1.0 + 1e-9, 1.0 - 1e-9])
    def test_leaf_limit_is_an_eighth_of_the_beamwidth(self, assembly, scale):
        # one level of two leaves, each a hair wider or narrower than 1/8 of
        # the beamwidth
        half = scale * estimate_hpbw_deg(assembly) / 8.0
        if scale > 1.0:
            codebook = build_codebook(assembly, (-half, half), n_levels=1, branching=2)
            assert [len(rows) for rows in codebook.levels] == [2]
        else:
            with pytest.raises(ValueError, match="narrower than 1/8"):
                build_codebook(assembly, (-half, half), n_levels=1, branching=2)

    def test_leaves_far_narrower_than_the_beam_raise_at_once(self, assembly):
        # 4**9 leaves of 120 / 4**9 deg; building them would take minutes
        started = time.perf_counter()
        with pytest.raises(ValueError, match="narrower than 1/8"):
            build_codebook(assembly, n_levels=9)
        assert time.perf_counter() - started < 1.0


def _reference_training(assembly, codebook, truth, pilot_snr_db, widening, rng):
    """`beam_training` one pilot at a time: a dot product and two scalar
    noise draws, re then im, per pilot; returns the result's fields."""
    noise_scale = 0.0 if pilot_snr_db is None else 10.0 ** (-pilot_snr_db / 20.0)
    row = steering_row(assembly, truth)
    threshold = 10.0 ** (synthesis.DEFAULT_ACCEPT_THRESHOLD_DB / 10.0)
    b = codebook.branching
    pilots = 0

    def measure(reflections):
        g = row @ reflections
        if noise_scale > 0:
            n = (rng.standard_normal() + 1j * rng.standard_normal()) / math.sqrt(2)
            g = g + abs(g) * noise_scale * n
        return abs(g) ** 2

    def strongest(level, first, count):
        nonlocal pilots
        meas = [measure(codebook.levels[level][i]) for i in range(first, first + count)]
        pilots += count
        top = int(np.argmax(meas))
        return first + top, meas[top]

    best, parent_power = strongest(0, 0, b)
    widenings = 0
    for level in range(1, len(codebook.levels)):
        child, power = strongest(level, best * b, b)
        if widening and power < parent_power * threshold:
            child, power = strongest(level, best // b * b * b, b * b)
            widenings += 1
        best, parent_power = child, power
    lo, hi = codebook.entry_sector(len(codebook.levels) - 1, best)
    return best, pilots, widenings, bool(lo <= truth.az_deg <= hi)


class TestBeamTraining:
    @pytest.mark.parametrize("snr_db", [5.0, 0.0, None])
    def test_block_pilots_match_one_pilot_at_a_time(self, assembly, onebit_codebook,
                                                    snr_db):
        # pins the noise order: each pilot takes (re, im) from the stream in turn
        for seq in np.random.SeedSequence(3).spawn(100):
            truth_seq, noise_seq = seq.spawn(2)
            truth = Direction(float(np.random.default_rng(truth_seq).uniform(-60, 60)), 0.0)
            for widening in (True, False):
                tr = beam_training(assembly, onebit_codebook, truth, pilot_snr_db=snr_db,
                                   widening=widening, rng=np.random.default_rng(noise_seq))
                ref = _reference_training(assembly, onebit_codebook, truth, snr_db,
                                          widening, np.random.default_rng(noise_seq))
                assert (tr.selected_leaf, tr.pilots_used, tr.widenings, tr.success) == ref

    def test_given_row_is_the_truths_row(self, assembly, onebit_codebook):
        truth = Direction(-23.0, 0.0)
        row = steering_row(assembly, truth)
        for widening in (True, False):
            given_row = beam_training(assembly, onebit_codebook, truth, pilot_snr_db=5.0,
                                      widening=widening, rng=11, row=row)
            own_row = beam_training(assembly, onebit_codebook, truth, pilot_snr_db=5.0,
                                    widening=widening, rng=11)
            assert given_row == own_row

    def test_noiseless_descent_matches_exhaustive(self, assembly, continuous_codebook):
        lo, hi = continuous_codebook.sector_az
        for az in _guarded_truths(lo, hi, 25):
            truth = Direction(az, 0.0)
            tr = beam_training(assembly, continuous_codebook, truth, pilot_snr_db=None)
            assert tr.selected_leaf == exhaustive_search(assembly, continuous_codebook,
                                                         truth)
            assert tr.success

    def test_interior_descent_uses_minimum_pilots(self, assembly, continuous_codebook):
        tr = beam_training(assembly, continuous_codebook, Direction(17.3, 0.0),
                           pilot_snr_db=None)
        assert tr.pilots_used == 12
        assert tr.widenings == 0

    def test_impossible_threshold_forces_widening_every_level(self, assembly,
                                                              continuous_codebook):
        tr = beam_training(assembly, continuous_codebook, Direction(17.3, 0.0),
                           pilot_snr_db=None, accept_threshold_db=20.0)
        assert tr.widenings == 2
        assert tr.pilots_used == 44

    def test_single_level_equals_exhaustive(self, assembly):
        cb = build_codebook(assembly, n_levels=1, branching=8)
        for az in (-41.0, 3.7, 52.0):
            truth = Direction(az, 0.0)
            tr = beam_training(assembly, cb, truth, pilot_snr_db=None)
            assert tr.pilots_used == len(cb.levels[-1])
            assert tr.selected_leaf == exhaustive_search(assembly, cb, truth)

    def test_noiseless_widening_never_hurts(self, assembly, onebit_codebook):
        lo, hi = onebit_codebook.sector_az
        for az in _guarded_truths(lo, hi, 40):
            truth = Direction(az, 0.0)
            base = beam_training(assembly, onebit_codebook, truth,
                                 pilot_snr_db=None, widening=False)
            wide = beam_training(assembly, onebit_codebook, truth,
                                 pilot_snr_db=None, widening=True)
            assert wide.success >= base.success
            assert wide.pilots_used >= base.pilots_used

    def test_seeded_noise_is_reproducible(self, assembly, onebit_codebook):
        truth = Direction(-23.0, 0.0)
        a = beam_training(assembly, onebit_codebook, truth, pilot_snr_db=5.0,
                          rng=np.random.default_rng(99))
        b = beam_training(assembly, onebit_codebook, truth, pilot_snr_db=5.0,
                          rng=np.random.default_rng(99))
        assert a == b

    def test_noisy_search_still_mostly_succeeds(self, assembly, onebit_codebook):
        rng = np.random.default_rng(7)
        hits = 0
        trials = 60
        for az in np.linspace(-55.0, 55.0, trials):
            tr = beam_training(assembly, onebit_codebook, Direction(float(az), 0.0),
                               pilot_snr_db=20.0, rng=rng)
            hits += tr.success
        assert hits / trials > 0.5


class TestScanEvaluation:
    def test_reports_loss_relative_to_broadside(self, assembly):
        points = scan_evaluation(assembly, [Direction(0.0, 0.0), Direction(30.0, 0.0)])
        assert len(points) == 2
        assert points[0].loss_vs_broadside_db == pytest.approx(0.0, abs=1e-9)
        assert points[1].loss_vs_broadside_db > 0.0
        assert points[1].pointing_error_deg <= 2.0


class TestIncidenceCompensation:
    def test_compensation_helps_when_model_active(self, assembly):
        modeled = replace(assembly, incidence_model=IncidenceModel(
            beta_deg_per_deg2=0.02, amplitude_exponent=0.5))
        target = Direction(20.0, 0.0)
        plain = continuous_reflections(modeled, required_phases(modeled, target))
        comp = continuous_reflections(
            modeled, required_phases(modeled, target, compensate_incidence=True))
        g_plain = steered_gain(modeled, plain, target).gain_dbi
        g_comp = steered_gain(modeled, comp, target).gain_dbi
        assert g_comp >= g_plain
