"""Link-level chain: budget, EVM, waveform and spectral compliance,
dual-stream SINR, frame throughput and the power figure."""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import signal as sp_signal

from risant import link
from risant.constants import MAX_FREQUENCY_GHZ, db10, from_db10
from risant.link import (
    ACLR_LIMIT_DBC,
    EVM_LIMIT,
    LINK_DISTANCE_M,
    MAX_BUDGET_DB,
    MIN_LINK_FREQUENCY_GHZ,
    FrameConfig,
    LinkScenario,
    PRB_TABLE_120KHZ,
    SAMPLE_RATE_HZ,
    PaModel,
    XpdModel,
    _OFDM_BLOCK,
    _WELCH_BLOCK,
    _welch_psd,
    aclr,
    apply_pa,
    constellation,
    dl_duty,
    dual_stream_sinr,
    evm_closed_form,
    evm_vs_distance,
    link_budget,
    measure_aclr,
    noise_power_dbm,
    ofdm_waveform,
    path_loss_fspl,
    peak_rate_3gpp,
    power_saving,
    simulate_evm,
)
from numpy.lib.stride_tricks import sliding_window_view

from risant.scenario import resolve_scenario


class TestBudget:
    def test_fspl_frozen_reference(self):
        assert path_loss_fspl(1.0, 26.0) == pytest.approx(60.747250181299734, abs=1e-9)

    def test_fspl_formula_identity(self):
        lam = 299792458.0 / 26e9
        assert path_loss_fspl(7.3, 26.0) == pytest.approx(
            20 * math.log10(4 * math.pi * 7.3 / lam)
        )

    def test_fspl_distance_scaling(self):
        delta = path_loss_fspl(20.0, 26.0) - path_loss_fspl(4.0, 26.0)
        assert delta == pytest.approx(20 * math.log10(5.0), abs=1e-12)

    def test_fspl_validation(self):
        with pytest.raises(ValueError):
            path_loss_fspl(0.0, 26.0)
        with pytest.raises(ValueError):
            path_loss_fspl(1.0, -1.0)

    def test_noise_power(self):
        assert noise_power_dbm(400.0, 5.0) == pytest.approx(-82.97940008672037)
        assert noise_power_dbm(400.0, 5.0) == pytest.approx(
            -174.0 + 10 * math.log10(400e6) + 5.0
        )

    def test_default_link_snr(self):
        assert link_budget(LinkScenario()) == pytest.approx(55.390950078861394,
                                                            abs=1e-9)

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            LinkScenario(d_m=0.0)
        with pytest.raises(ValueError):
            LinkScenario(bandwidth_mhz=-1.0)
        with pytest.raises(ValueError):
            LinkScenario(tx_evm_floor=0.6)
        with pytest.raises(ValueError):
            LinkScenario(modulation="8PSK")

    @pytest.mark.parametrize("field, lo, hi", [
        ("d_m", *LINK_DISTANCE_M),
        ("center_freq_ghz", MIN_LINK_FREQUENCY_GHZ, MAX_FREQUENCY_GHZ),
        ("tx_power_dbm", -MAX_BUDGET_DB, MAX_BUDGET_DB),
        ("tx_antenna_gain_dbi", -MAX_BUDGET_DB, MAX_BUDGET_DB),
        ("rx_antenna_gain_dbi", -MAX_BUDGET_DB, MAX_BUDGET_DB),
        ("rx_noise_figure_db", 0.0, MAX_BUDGET_DB),
    ])
    def test_budget_ranges_admit_their_limits(self, field, lo, hi):
        for value, outward in ((lo, -math.inf), (hi, math.inf)):
            assert getattr(LinkScenario(**{field: value}), field) == value
            with pytest.raises(ValueError, match="must be in"):
                LinkScenario(**{field: math.nextafter(value, outward)})


class TestEvm:
    def test_closed_form_reference_points(self):
        assert evm_closed_form(25.0) == pytest.approx(0.05623413251903491)
        assert evm_closed_form(math.inf, 0.03) == pytest.approx(0.03)
        assert evm_closed_form(20.0, 0.03) == pytest.approx(
            math.sqrt(0.03**2 + 0.01)
        )

    def test_closed_form_monotone_in_snr(self):
        values = [evm_closed_form(s, 0.02) for s in (0.0, 10.0, 20.0, 30.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_closed_form_rejects_nan(self):
        with pytest.raises(ValueError):
            evm_closed_form(math.nan)

    def test_constellations_unit_power(self):
        for name in ("QPSK", "16QAM", "64QAM", "256QAM"):
            points = constellation(name)
            assert np.mean(np.abs(points) ** 2) == pytest.approx(1.0, rel=1e-12)
            assert np.unique(points).size == points.size
        with pytest.raises(ValueError):
            constellation("BPSK")

    def test_monte_carlo_matches_closed_form(self):
        for snr in (10.0, 20.0, 30.0):
            mc = simulate_evm(snr, 0.03, "64QAM", n_symbols=200_000, rng_seed=3)
            cf = evm_closed_form(snr, 0.03)
            assert mc == pytest.approx(cf, rel=0.02)

    def test_error_stream_independent_of_modulation(self):
        # the symbol and error draws are split streams, so the realized
        # error energy is bit-identical across modulations
        a = simulate_evm(18.0, 0.02, "QPSK", n_symbols=5000, rng_seed=11)
        b = simulate_evm(18.0, 0.02, "64QAM", n_symbols=5000, rng_seed=11)
        assert a == b

    def test_simulation_reproducible(self):
        sc = LinkScenario()
        args = (link_budget(sc), sc.tx_evm_floor, sc.modulation)
        assert simulate_evm(*args, n_symbols=2000, rng_seed=5) == simulate_evm(
            *args, n_symbols=2000, rng_seed=5
        )
        with pytest.raises(ValueError):
            simulate_evm(20.0, 0.0, "QPSK", n_symbols=0)

    @pytest.mark.parametrize("modulation", ["QPSK", "64QAM", "256QAM"])
    @pytest.mark.parametrize("snr_db", [math.inf, 18.0, -3.0])
    def test_in_place_error_matches_the_whole_record(self, modulation, snr_db):
        for seed in (0, 7, 123):
            for n_symbols in (1, 2, 17, 20_000):
                for floor in (0.03, 0.0 if snr_db < math.inf else 0.1):
                    assert simulate_evm(snr_db, floor, modulation, n_symbols, seed) == \
                        _reference_evm(snr_db, floor, modulation, n_symbols, seed)

    def test_error_record_peak_drops(self):
        # numpy reports its buffers to tracemalloc, so the peak is exact
        n_symbols = 100_000
        record_bytes = 16 * n_symbols
        peaks = []
        for evm in (simulate_evm, _reference_evm):
            tracemalloc.start()
            try:
                evm(20.0, 0.03, "64QAM", n_symbols, 0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # the symbols, the error and one float buffer, against about 4.5 records
        assert peaks[0] <= 2.6 * record_bytes < 0.6 * peaks[1]

    def test_distance_sweep_monotone_and_flagged(self):
        rows = evm_vs_distance(LinkScenario(), [1.0, 4.0, 10.0, 20.0])
        evms = [r[2] for r in rows]
        assert all(a < b for a, b in zip(evms, evms[1:]))
        for d, snr_db, evm_pct, ok in rows:
            assert ok == (evm_pct <= 100.0 * EVM_LIMIT)

    def test_distance_sweep_requires_ascending(self):
        with pytest.raises(ValueError, match="ascending"):
            evm_vs_distance(LinkScenario(), [4.0, 2.0])

    def test_distance_sweep_allows_ties(self):
        rows = evm_vs_distance(LinkScenario(), [2.0, 2.0, 3.0])
        assert rows[0] == rows[1]
        assert [r[0] for r in rows] == [2.0, 2.0, 3.0]


class TestWaveform:
    def test_unit_average_power(self):
        w = ofdm_waveform(8, 0, 400.0)
        assert np.sqrt(np.mean(np.abs(w) ** 2)) == pytest.approx(1.0, rel=1e-12)

    def test_numerology(self):
        # 120 kHz subcarriers on a 16384-point grid; a symbol and its prefix
        # are 17536 samples, less one crossfade of 512 over the record
        assert SAMPLE_RATE_HZ == 1966.08e6
        assert len(ofdm_waveform(3, 0, 50.0)) == 3 * 17536 - 512

    @pytest.mark.parametrize("bw_mhz", [50.0, 400.0])
    def test_spectrum_confined_to_occupied_band(self, bw_mhz):
        w = ofdm_waveform(16, 0, bw_mhz)
        freqs, psd = sp_signal.welch(w, fs=SAMPLE_RATE_HZ, window="hann",
                                     nperseg=4096, return_onesided=False,
                                     detrend=False)
        occupied_hz = 12 * PRB_TABLE_120KHZ[bw_mhz] * 120e3
        inband = np.abs(freqs) <= 0.45 * occupied_hz
        outband = np.abs(freqs) >= 0.65 * occupied_hz
        skirt = 10 * np.log10(psd[inband].mean() / psd[outband].max())
        assert skirt > 40.0

    def test_validation(self):
        with pytest.raises(ValueError, match="symbol"):
            ofdm_waveform(0, 0, 400.0)
        # only the channels of the NR table, at the one numerology
        for bw_mhz in (399.6, 300.0, 800.0):
            with pytest.raises(ValueError, match=r"one of \[50, 100, 200, 400\] MHz"):
                ofdm_waveform(1, 0, bw_mhz)
            with pytest.raises(ValueError, match=r"one of \[50, 100, 200, 400\] MHz"):
                measure_aclr(PaModel(), 1, 0, bw_mhz)


class TestPa:
    def test_ideal_is_identity_copy(self):
        x = np.array([0.5 + 0.1j, -2.0j])
        y = apply_pa(x, PaModel(kind="ideal"))
        np.testing.assert_array_equal(y, x)
        assert y is not x

    def test_rapp_linear_at_small_signal(self):
        pa = PaModel(kind="rapp", saturation_level=4.0, smoothness=2.0)
        x = np.array([0.04 + 0.0j, 0.02j])
        np.testing.assert_allclose(apply_pa(x, pa), x, rtol=1e-6)

    def test_rapp_saturates(self):
        pa = PaModel(kind="rapp", saturation_level=4.0, smoothness=2.0)
        y = apply_pa(np.array([400.0 + 0.0j]), pa)
        assert abs(y[0]) == pytest.approx(4.0, rel=1e-6)

    def test_high_smoothness_is_hard_limiter(self):
        pa = PaModel(kind="rapp", saturation_level=1.0, smoothness=100.0)
        y = apply_pa(np.array([3.0 + 0.0j, 0.5 + 0.0j]), pa)
        assert abs(y[0]) == pytest.approx(1.0, rel=1e-3)
        assert abs(y[1]) == pytest.approx(0.5, rel=1e-3)

    @pytest.mark.parametrize("smoothness", [300.0, 1e4, 1e300])
    def test_hard_limiter_past_the_float_range_clips(self, smoothness):
        # (|x| / sat)^(2p) overflows: the limiter holds the sample at sat
        # instead of dropping it to 0
        pa = PaModel(kind="rapp", saturation_level=0.5, smoothness=smoothness)
        y = apply_pa(np.array([2.0 + 0.0j, -5.0j, 0.3 + 0.0j, 0.0j]), pa)
        np.testing.assert_allclose(np.abs(y), [0.5, 0.5, 0.3, 0.0], rtol=1e-12)
        np.testing.assert_allclose(np.angle(y[:2]), [0.0, -np.pi / 2], atol=1e-15)

    @pytest.mark.parametrize("pa", [PaModel(kind="rapp", saturation_level=1e-300),
                                    PaModel(kind="rapp", smoothness=1e-300)])
    def test_amplifier_that_passes_nothing_gives_zeros(self, pa):
        y = apply_pa(np.array([2.0 + 0.0j, -0.5j]), pa)
        assert np.all(np.abs(y) < 1e-290)

    def test_am_am_preserves_phase(self):
        pa = PaModel(kind="rapp", saturation_level=1.0, smoothness=2.0)
        x = 3.0 * np.exp(1j * np.linspace(0, 6, 7))
        y = apply_pa(x, pa)
        np.testing.assert_allclose(np.angle(y), np.angle(x), atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            PaModel(kind="doherty")
        with pytest.raises(ValueError):
            PaModel(kind="rapp", saturation_level=0.0)
        with pytest.raises(ValueError):
            PaModel(kind="rapp", smoothness=-1.0)


class TestAclr:
    def test_ideal_amplifier_leaks_nothing(self):
        values = measure_aclr(PaModel(kind="ideal"), 64, 0, 400.0)
        assert len(values) == 2
        assert all(v < -60.0 for v in values)

    def test_moderate_backoff_compliant(self):
        values = measure_aclr(PaModel(kind="rapp", saturation_level=4.0,
                                      smoothness=2.0), 64, 0, 400.0)
        assert all(v < ACLR_LIMIT_DBC for v in values)
        assert all(-55.0 < v < -40.0 for v in values)
        assert abs(values[0] - values[1]) <= 0.5  # symmetric distortion

    def test_deep_clipping_violates_the_limit(self):
        values = measure_aclr(PaModel(kind="rapp", saturation_level=0.5,
                                      smoothness=100.0), 64, 0, 400.0)
        assert all(v > ACLR_LIMIT_DBC for v in values)

    def test_channel_must_fit_nyquist(self):
        w = ofdm_waveform(2, 0, 400.0)
        rate = SAMPLE_RATE_HZ
        with pytest.raises(ValueError, match="designated"):
            aclr(w, rate, (0.0, 3e9), [(400e6, 400e6)])
        with pytest.raises(ValueError, match=r"adjacent\[0\]"):
            aclr(w, rate, (0.0, 400e6), [(900e6, 400e6)])
        with pytest.raises(ValueError, match="bandwidth"):
            aclr(w, rate, (0.0, 0.0), [(400e6, 400e6)])

    def test_silent_input_rejected(self):
        with pytest.raises(ValueError, match="no power"):
            aclr(np.zeros(8192, dtype=complex), 1e9, (0.0, 100e6), [(200e6, 100e6)])


def _reference_waveform(bw_mhz, n_symbols, rng_seed):
    """`ofdm_waveform` on the whole record: one (n_symbols, 16384) grid of
    64QAM, each symbol with a 1152-sample prefix and a 512-sample crossfade,
    scaled by the RMS that sums |x|^2 over the pieces of _OFDM_BLOCK symbols
    in order, as `ofdm_waveform`'s pass does."""
    rng = np.random.default_rng(rng_seed)
    points = constellation("64QAM")
    n_fft, cp, ov = 16384, 1152, 512
    stride = n_fft + cp
    # symmetric around the carrier with the DC bin left empty
    n_occ = 12 * PRB_TABLE_120KHZ[bw_mhz]
    k = np.arange(n_occ) - n_occ // 2
    k[k >= 0] += 1
    spectrum = np.zeros((n_symbols, n_fft), dtype=complex)
    spectrum[:, k % n_fft] = points[rng.integers(0, points.size, (n_symbols, k.size))]
    body = np.fft.ifft(spectrum, axis=1) * math.sqrt(n_fft / k.size)
    ramp = 0.5 * (1.0 - np.cos(np.pi * (np.arange(ov) + 0.5) / ov))
    out = np.zeros(n_symbols * stride + ov, dtype=complex)
    for i, x in enumerate(body):
        ext = np.concatenate([x[-cp:], x, x[:ov]])
        ext[:ov] *= ramp
        ext[-ov:] *= ramp[::-1]
        out[i * stride: i * stride + stride + ov] += ext
    out = out[ov: n_symbols * stride]
    power = np.abs(out) ** 2
    bounds = range(_OFDM_BLOCK * stride - ov, len(out), _OFDM_BLOCK * stride)
    return out / math.sqrt(sum(float(np.add.reduce(p)) for p in np.split(power, bounds))
                           / len(out))


def _reference_pa(samples, pa):
    """`apply_pa` with a fresh array for every step of the Rapp curve."""
    x = np.asarray(samples, dtype=complex)
    if pa.kind == "ideal":
        return x.copy()
    ratio = np.abs(x) / pa.saturation_level
    return x / (1.0 + ratio ** (2.0 * pa.smoothness)) ** (1.0 / (2.0 * pa.smoothness))


def _reference_welch(samples, sample_rate_hz, nperseg):
    """`_welch_psd` with every segment windowed and transformed at once, and
    the table of periodograms averaged down its rows (numpy adds the rows of
    a C-contiguous table in order)."""
    win = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, nperseg + 1)[:-1])
    win *= 1.0 / np.sqrt(sum(win ** 2) / (1.0 / sample_rate_hz))
    step = nperseg - nperseg // 2
    spec = np.fft.fft(sliding_window_view(samples, nperseg)[::step] * win)
    periodograms = spec.real ** 2 + spec.imag ** 2
    psd = periodograms.mean(axis=0)
    return np.fft.fftfreq(nperseg, 1.0 / sample_rate_hz), psd


def _reference_evm(snr_db, tx_evm_floor, modulation, n_symbols, rng_seed):
    """`simulate_evm` with a fresh array for every step of the error."""
    sym_rng, err_rng = [np.random.default_rng(s)
                        for s in np.random.SeedSequence(rng_seed).spawn(2)]
    points = constellation(modulation)
    ref = points[sym_rng.integers(0, points.size, n_symbols)]
    scale = math.sqrt(0.5) * math.sqrt(from_db10(-snr_db)) if not math.isinf(snr_db) else 0.0
    floor_scale = math.sqrt(0.5) * tx_evm_floor
    err = (err_rng.standard_normal(n_symbols) + 1j * err_rng.standard_normal(n_symbols)) * scale
    err = err + (err_rng.standard_normal(n_symbols)
                 + 1j * err_rng.standard_normal(n_symbols)) * floor_scale
    received = ref + err
    return float(np.sqrt(np.mean(np.abs(received - ref) ** 2)))


_cached_reference_waveform = functools.cache(_reference_waveform)

_AMPLIFIERS = [
    PaModel(kind="ideal"),
    PaModel(),
    PaModel(kind="rapp", saturation_level=0.5, smoothness=100.0),
    PaModel(kind="rapp", saturation_level=1.3, smoothness=0.7),
]

# the fewest symbols whose record holds more than _WELCH_BLOCK segments of 4096
_SYMBOLS_PAST_A_BLOCK = -(-(4096 + 2048 * _WELCH_BLOCK + 512) // 17536)


@functools.cache
def _aclr_sweep_samples(bw_mhz):
    """The amplified record that `aclr-sweep` measures at one channel bandwidth."""
    scn = resolve_scenario(None)
    w = ofdm_waveform(scn.literal("link.aclr.n_symbols"), scn.literal("rng_seed"), bw_mhz)
    return apply_pa(w, scn.build_pa()), SAMPLE_RATE_HZ


class TestWelch:
    """The numpy Welch behind `aclr` against the scipy call it replaced, and
    against its own whole-stack form to the bit."""

    @pytest.mark.parametrize("bw_mhz, record", [
        (400, slice(None)),
        (50, slice(None)),
        (400, slice(3000)),           # shorter than a segment: one, the whole record
        (50, slice(123457)),          # odd length
        (50, slice(None, None, 3)),   # non-contiguous view
        (50, slice(3000)),
        (400, slice(None, None, 3)),
        (400, slice(2048 * (_WELCH_BLOCK + 1))),   # exactly one block of segments
        (50, slice(2048 * (_WELCH_BLOCK + 2))),    # one more segment than a block
    ])
    def test_matches_scipy_welch(self, bw_mhz, record):
        samples, rate = _aclr_sweep_samples(bw_mhz)
        x = samples[record]
        nperseg = min(4096, len(x))
        freqs, psd = _welch_psd([x], len(x), rate)
        assert np.array_equal(psd, _reference_welch(x, rate, nperseg)[1])
        ref_freqs, ref_psd = sp_signal.welch(x, fs=rate, window="hann", nperseg=nperseg,
                                             return_onesided=False, detrend=False)
        np.testing.assert_array_equal(freqs, ref_freqs)
        # far-out bins sit ~15 decades below the peak and hold round-off only
        np.testing.assert_allclose(psd, ref_psd, rtol=1e-12, atol=1e-12 * ref_psd.max())


class TestStreamedLinkPath:
    """The blocked waveform, the in-place amplifier and the two-pass
    measurement against their whole-record forms, every value equal to the
    bit (TestWelch checks the Welch estimate the same way), and the
    measurement's memory bound."""

    # the block edges, and counts that end a block early after full ones
    @pytest.mark.parametrize("bw_mhz", sorted(PRB_TABLE_120KHZ))
    @pytest.mark.parametrize("n_symbols", sorted({1, 2, 7, 8, 9, 64, _OFDM_BLOCK - 1,
                                                  _OFDM_BLOCK, _OFDM_BLOCK + 1}))
    def test_waveform_matches_the_whole_record(self, bw_mhz, n_symbols):
        for seed in range(4):
            got = ofdm_waveform(n_symbols, seed, bw_mhz)
            assert np.array_equal(got, _reference_waveform(bw_mhz, n_symbols, seed))

    @pytest.mark.parametrize("bw_mhz", [50, 400])
    @pytest.mark.parametrize("pa", _AMPLIFIERS)
    def test_amplifier_matches_the_fresh_array_form(self, bw_mhz, pa):
        x = ofdm_waveform(13, 1, bw_mhz)
        assert np.array_equal(apply_pa(x, pa), _reference_pa(x, pa))
        assert np.array_equal(apply_pa(x[::3], pa), _reference_pa(x[::3], pa))

    @pytest.mark.parametrize("block", [1, 3, 16, 64])
    @pytest.mark.parametrize("size", [1, 1000, 2047, 2048, 2049, 4095, 4096, 4097,
                                      2 * 17536])
    def test_welch_over_pieces_matches_the_whole_record(self, size, block, monkeypatch):
        # every cut leaves a different carry: shorter than a segment, one
        # step, one sample either side of a step or a segment; and neither
        # the cuts nor the segments a block transforms change the order of
        # the average
        monkeypatch.setattr(link, "_WELCH_BLOCK", block)
        samples, rate = _aclr_sweep_samples(400)
        x = samples[:2048 * (_WELCH_BLOCK + 2) + 777]
        pieces = [x[lo:lo + size] for lo in range(0, len(x), size)]
        freqs, psd = _welch_psd(iter(pieces), len(x), rate)
        assert np.array_equal(psd, _reference_welch(x, rate, 4096)[1])

    @pytest.mark.parametrize("pa", _AMPLIFIERS)
    @pytest.mark.parametrize("bw_mhz, n_symbols", [
        *[(bw, n) for bw in (50.0, 400.0)
          for n in sorted({1, _OFDM_BLOCK - 1, _OFDM_BLOCK + 1, _SYMBOLS_PAST_A_BLOCK})],
        (400.0, 64),                        # the default record
    ])
    def test_measurement_matches_the_whole_record(self, pa, bw_mhz, n_symbols, monkeypatch):
        psds, welch = [], link._welch_psd

        def recorded_welch(*args):
            psds.append(welch(*args))
            return psds[-1]

        monkeypatch.setattr(link, "_welch_psd", recorded_welch)
        got = measure_aclr(pa, n_symbols, 5, bw_mhz)
        x = _reference_pa(_cached_reference_waveform(bw_mhz, n_symbols, 5), pa)
        freqs, psd = _reference_welch(x, SAMPLE_RATE_HZ, 4096)
        channel_hz = bw_mhz * 1e6
        assert np.array_equal(psds[0][1], psd)
        p_designated = link._band_power(freqs, psd, 0.0, channel_hz)
        assert got == [db10(link._band_power(freqs, psd, c, channel_hz) / p_designated)
                       for c in (-channel_hz, channel_hz)]

    def test_measurement_peak_is_under_half_a_record_and_does_not_scale(self):
        # numpy reports its buffers to tracemalloc, so the peak is exact
        scn = resolve_scenario(None)
        bw_mhz = scn.literal("link.aclr.channel_bandwidth_mhz")
        n_symbols = scn.literal("link.aclr.n_symbols")
        measure_aclr(scn.build_pa(), 1, 0, bw_mhz)     # numpy's first-call allocations
        peaks = []
        for n in (n_symbols, 2 * n_symbols):
            tracemalloc.start()
            try:
                measure_aclr(scn.build_pa(), n, scn.literal("rng_seed"), bw_mhz)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        record_bytes = n_symbols * 17536 * 16
        assert peaks[0] <= 0.5 * record_bytes
        # no buffer scales with the record; 64 kB covers the longer loops' objects
        assert peaks[1] - peaks[0] <= 64 * 1024

    @pytest.mark.parametrize("bw_mhz", sorted(PRB_TABLE_120KHZ))
    @pytest.mark.parametrize("seed", range(4))
    def test_blocks_draw_the_one_call_index_table(self, bw_mhz, seed):
        # _ofdm_pieces draws each block's symbol indices as it goes; the
        # references draw the record's table in one call
        n_occ = 12 * PRB_TABLE_120KHZ[bw_mhz]
        for n_symbols in (1, _OFDM_BLOCK + 1, 7):
            rng = np.random.default_rng(seed)
            blocks = [rng.integers(0, 64, (min(_OFDM_BLOCK, n_symbols - lo), n_occ))
                      for lo in range(0, n_symbols, _OFDM_BLOCK)]
            table = np.random.default_rng(seed).integers(0, 64, (n_symbols, n_occ))
            assert np.array_equal(np.concatenate(blocks), table)


class TestDualStream:
    def test_matches_linear_domain_oracle(self):
        sc = LinkScenario()
        xpd = XpdModel()
        out = dual_stream_sinr({"h": 22.01, "v": 22.11}, xpd, sc)

        fspl = path_loss_fspl(sc.d_m, sc.center_freq_ghz)
        noise_mw = from_db10(noise_power_dbm(sc.bandwidth_mhz, sc.rx_noise_figure_db))
        rx_h = from_db10(sc.tx_power_dbm - fspl + sc.rx_antenna_gain_dbi + 22.01)
        rx_v = from_db10(sc.tx_power_dbm - fspl + sc.rx_antenna_gain_dbi + 22.11)
        want_h = 10 * math.log10(rx_h / (rx_v * from_db10(xpd.h_antenna_db) + noise_mw))
        want_v = 10 * math.log10(rx_v / (rx_h * from_db10(xpd.v_antenna_db) + noise_mw))
        assert out["h"] == pytest.approx(want_h, abs=1e-9)
        assert out["v"] == pytest.approx(want_v, abs=1e-9)

    def test_interference_limited_by_antenna_isolation(self):
        sc = LinkScenario(tx_power_dbm=120.0)  # drive thermal noise negligible
        out = dual_stream_sinr({"h": 22.0, "v": 22.0}, XpdModel(), sc)
        assert out["h"] == pytest.approx(15.19, abs=1e-6)
        assert out["v"] == pytest.approx(10.16, abs=1e-6)
        assert out["v"] < out["h"]

    def test_perfect_isolation_reduces_to_snr(self):
        sc = LinkScenario()
        xpd = XpdModel(h_antenna_db=-200.0, v_antenna_db=-200.0)
        out = dual_stream_sinr({"h": 22.2, "v": 22.2}, xpd, sc)
        assert out["h"] == pytest.approx(link_budget(sc), abs=1e-9)

    def test_xpd_validation(self):
        with pytest.raises(ValueError):
            XpdModel(h_antenna_db=1.0)


class TestFrame:
    def test_duty_examples(self):
        assert dl_duty(FrameConfig()) == pytest.approx(52.0 / 70.0)
        assert dl_duty(FrameConfig(slot_pattern="DDDDD")) == 1.0
        assert dl_duty(FrameConfig(slot_pattern="DSU")) == pytest.approx(24.0 / 42.0)

    def test_peak_rate_frozen_values(self):
        assert peak_rate_3gpp(FrameConfig()) == pytest.approx(5036473728.0, rel=1e-12)
        # TS 38.306's FR2 downlink overhead
        assert peak_rate_3gpp(FrameConfig(overhead=0.18)) == pytest.approx(
            4802219136.0, rel=1e-12
        )

    def test_peak_rate_formula_identity(self):
        frame = FrameConfig()
        t_symbol = 1e-3 / (14 * 2**3)
        per_cc = (2 * 6 * 1.0 * (948 / 1024) * (12 * 132 / t_symbol) * (1 - 0.14))
        assert peak_rate_3gpp(frame) == pytest.approx(4 * per_cc * 52 / 70, rel=1e-12)

    def test_rate_linear_in_carriers_and_layers(self):
        base = peak_rate_3gpp(FrameConfig())
        assert peak_rate_3gpp(FrameConfig(cc_count=8)) == pytest.approx(2 * base)
        assert peak_rate_3gpp(FrameConfig(layers=4)) == pytest.approx(2 * base)
        assert peak_rate_3gpp(FrameConfig(layers=0)) == 0.0

    def test_rate_scales_with_numerology(self):
        fast = peak_rate_3gpp(FrameConfig(scs_khz=120))
        slow = peak_rate_3gpp(FrameConfig(scs_khz=60))
        assert fast == pytest.approx(2 * slow)

    def test_validation(self):
        with pytest.raises(ValueError):
            FrameConfig(slot_pattern="DX")
        with pytest.raises(ValueError):
            FrameConfig(slot_pattern="")
        with pytest.raises(ValueError):
            FrameConfig(s_slot_split=(10, 2, 3))
        with pytest.raises(ValueError):
            FrameConfig(layers=-1)
        with pytest.raises(ValueError):
            FrameConfig(overhead=1.0)
        with pytest.raises(ValueError):
            FrameConfig(scs_khz=45)


class TestPowerSaving:
    def test_prototype_figure(self):
        assert power_saving(15.8, 25.6) == pytest.approx(0.3828125, abs=1e-12)

    def test_limits(self):
        assert power_saving(0.0, 10.0) == 1.0
        assert power_saving(10.0, 10.0) == 0.0
        assert power_saving(12.0, 10.0) < 0.0  # regression counts negative

    def test_rejects_nonpositive_baseline(self):
        with pytest.raises(ValueError):
            power_saving(5.0, 0.0)
