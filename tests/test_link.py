"""Link-level chain: budget, EVM, waveform and spectral compliance,
dual-stream SINR, frame throughput and the power figure."""

import functools
import math

import numpy as np
import pytest
from scipy import signal as sp_signal

from risant.constants import from_db10
from risant.link import (
    ACLR_LIMIT_DBC,
    EVM_LIMIT,
    FrameConfig,
    LinkScenario,
    PRB_TABLE_120KHZ,
    PaModel,
    WaveformConfig,
    XpdModel,
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
    simulate_evm_at,
)
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
            mc = simulate_evm_at(snr, 0.03, "64QAM", n_symbols=200_000, rng_seed=3)
            cf = evm_closed_form(snr, 0.03)
            assert mc == pytest.approx(cf, rel=0.02)

    def test_error_stream_independent_of_modulation(self):
        # the symbol and error draws are split streams, so the realized
        # error energy is bit-identical across modulations
        a = simulate_evm_at(18.0, 0.02, "QPSK", n_symbols=5000, rng_seed=11)
        b = simulate_evm_at(18.0, 0.02, "64QAM", n_symbols=5000, rng_seed=11)
        assert a == b

    def test_simulation_reproducible(self):
        sc = LinkScenario()
        assert simulate_evm(sc, n_symbols=2000, rng_seed=5) == simulate_evm(
            sc, n_symbols=2000, rng_seed=5
        )
        with pytest.raises(ValueError):
            simulate_evm_at(20.0, 0.0, "QPSK", n_symbols=0)

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
        w = ofdm_waveform(n_symbols=8)
        assert np.sqrt(np.mean(np.abs(w) ** 2)) == pytest.approx(1.0, rel=1e-12)

    def test_spectrum_confined_to_occupied_band(self):
        cfg = WaveformConfig()
        w = ofdm_waveform(cfg, n_symbols=16)
        freqs, psd = sp_signal.welch(w, fs=cfg.sample_rate_hz, window="hann",
                                     nperseg=4096, return_onesided=False,
                                     detrend=False)
        inband = np.abs(freqs) <= 0.45 * cfg.occupied_bandwidth_hz
        outband = np.abs(freqs) >= 0.65 * cfg.occupied_bandwidth_hz
        skirt = 10 * np.log10(psd[inband].mean() / psd[outband].max())
        assert skirt > 40.0

    def test_single_subcarrier_is_constant_envelope(self):
        cfg = WaveformConfig(occupied_subcarriers=1, window_samples=0)
        tone = ofdm_waveform(cfg, n_symbols=1)
        assert np.ptp(np.abs(tone)) < 1e-12
        assert len(tone) == cfg.fft_size + cfg.cp_samples

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WaveformConfig(occupied_subcarriers=16384)
        with pytest.raises(ValueError):
            WaveformConfig(cp_samples=16384)
        with pytest.raises(ValueError):
            WaveformConfig(window_samples=2000)  # larger than the prefix
        with pytest.raises(ValueError):
            ofdm_waveform(n_symbols=0)


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
        values = measure_aclr(PaModel(kind="ideal"))
        assert len(values) == 2
        assert all(v < -60.0 for v in values)

    def test_moderate_backoff_compliant(self):
        values = measure_aclr(PaModel(kind="rapp", saturation_level=4.0,
                                      smoothness=2.0))
        assert all(v < ACLR_LIMIT_DBC for v in values)
        assert all(-55.0 < v < -40.0 for v in values)
        assert abs(values[0] - values[1]) <= 0.5  # symmetric distortion

    def test_deep_clipping_violates_the_limit(self):
        values = measure_aclr(PaModel(kind="rapp", saturation_level=0.5,
                                      smoothness=100.0))
        assert all(v > ACLR_LIMIT_DBC for v in values)

    def test_channel_must_fit_nyquist(self):
        w = ofdm_waveform(n_symbols=2)
        rate = WaveformConfig().sample_rate_hz
        with pytest.raises(ValueError, match="designated"):
            aclr(w, rate, (0.0, 3e9), [(400e6, 400e6)])
        with pytest.raises(ValueError, match=r"adjacent\[0\]"):
            aclr(w, rate, (0.0, 400e6), [(900e6, 400e6)])
        with pytest.raises(ValueError, match="bandwidth"):
            aclr(w, rate, (0.0, 0.0), [(400e6, 400e6)])

    def test_silent_input_rejected(self):
        with pytest.raises(ValueError, match="no power"):
            aclr(np.zeros(8192, dtype=complex), 1e9, (0.0, 100e6), [(200e6, 100e6)])


@functools.cache
def _aclr_sweep_samples(bw_mhz):
    """The amplified record that `aclr-sweep` measures at one channel bandwidth."""
    scn = resolve_scenario(None)
    cfg = WaveformConfig(occupied_subcarriers=12 * PRB_TABLE_120KHZ[bw_mhz])
    w = ofdm_waveform(cfg, scn.literal("link.aclr.n_symbols"), scn.rng_seed)
    return apply_pa(w, scn.build_pa()), cfg.sample_rate_hz


class TestWelch:
    """The numpy Welch behind `aclr` against the scipy call it replaced."""

    @pytest.mark.parametrize("bw_mhz, record", [
        (400, slice(None)),
        (50, slice(None)),
        (400, slice(3000)),           # shorter than a segment: one, the whole record
        (50, slice(123457)),          # odd length
        (50, slice(None, None, 3)),   # non-contiguous view
    ])
    def test_matches_scipy_welch(self, bw_mhz, record):
        samples, rate = _aclr_sweep_samples(bw_mhz)
        x = samples[record]
        nperseg = min(4096, len(x))
        freqs, psd = _welch_psd(x, rate, nperseg)
        ref_freqs, ref_psd = sp_signal.welch(x, fs=rate, window="hann", nperseg=nperseg,
                                             return_onesided=False, detrend=False)
        np.testing.assert_array_equal(freqs, ref_freqs)
        # far-out bins sit ~15 decades below the peak and hold round-off only
        np.testing.assert_allclose(psd, ref_psd, rtol=1e-12, atol=1e-12 * ref_psd.max())


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
        assert out.h_db == pytest.approx(want_h, abs=1e-9)
        assert out.v_db == pytest.approx(want_v, abs=1e-9)

    def test_interference_limited_by_antenna_isolation(self):
        sc = LinkScenario(tx_power_dbm=120.0)  # drive thermal noise negligible
        out = dual_stream_sinr({"h": 22.0, "v": 22.0}, XpdModel(), sc)
        assert out.h_db == pytest.approx(15.19, abs=1e-6)
        assert out.v_db == pytest.approx(10.16, abs=1e-6)
        assert out.v_db < out.h_db

    def test_perfect_isolation_reduces_to_snr(self):
        sc = LinkScenario()
        xpd = XpdModel(h_antenna_db=-200.0, v_antenna_db=-200.0)
        out = dual_stream_sinr({"h": 22.2, "v": 22.2}, xpd, sc)
        assert out.h_db == pytest.approx(link_budget(sc), abs=1e-9)

    def test_xpd_validation(self):
        with pytest.raises(ValueError):
            XpdModel(h_antenna_db=1.0)


class TestFrame:
    def test_duty_examples(self):
        assert dl_duty(FrameConfig()) == pytest.approx(52.0 / 70.0)
        assert dl_duty(FrameConfig(slot_pattern="DDDDD")) == 1.0
        assert dl_duty(FrameConfig(slot_pattern="DSU")) == pytest.approx(24.0 / 42.0)

    def test_peak_rate_frozen_values(self):
        assert peak_rate_3gpp(FrameConfig()) == pytest.approx(4802219136.0, rel=1e-12)
        assert peak_rate_3gpp(FrameConfig(overhead=0.14)) == pytest.approx(
            5036473728.0, rel=1e-12
        )

    def test_peak_rate_formula_identity(self):
        frame = FrameConfig()
        t_symbol = 1e-3 / (14 * 2**3)
        per_cc = (2 * 6 * 1.0 * (948 / 1024) * (12 * 132 / t_symbol) * (1 - 0.18))
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
