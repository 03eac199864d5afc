"""Link-level simulation: budget, EVM, OFDM/PA spectral leakage, dual-stream SINR, throughput.

Everything here is narrowband line-of-sight plumbing around the antenna
model: a scalar budget chain, symbol-level error statistics, one CP-OFDM
waveform generator with edge windowing feeding a memoryless amplifier
model for adjacent-channel measurements, and the TDD rate arithmetic.
No fading, no synchronization, no HARQ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Annotated

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .constants import (
    MAX_FREQUENCY_GHZ,
    NON_NEGATIVE,
    THERMAL_NOISE_DBM_PER_HZ,
    Range,
    db10,
    from_db10,
    ranged,
    wavelength_m,
)

EVM_LIMIT = 0.08                  # transmit quality bound for 64QAM downlink
ACLR_LIMIT_DBC = -28.0            # adjacent-channel leakage compliance bound

MODULATION_ORDERS = {"QPSK": 4, "16QAM": 16, "64QAM": 64, "256QAM": 256}

# NR FR2 max transmission bandwidth at 120 kHz subcarrier spacing,
# channel MHz -> resource blocks.
PRB_TABLE_120KHZ = {50: 32, 100: 66, 200: 132, 400: 264}

_MU_BY_SCS_KHZ = {15: 0, 30: 1, 60: 2, 120: 3, 240: 4}

# Work bounds on the record-length keys.  An ACLR symbol is 17536 complex
# samples (the 16384-point grid and its prefix), so the longest record is
# 287 MB, which measure_aclr streams in 6.1 MB at any length (0.02 records);
# the longest EVM draw makes complex arrays of 160 MB.
MAX_ACLR_SYMBOLS = 1024
MAX_EVM_SYMBOLS = 10_000_000

# Range of a link's distance: a millimetre to 10^9 m (past the Moon), decades
# either side of the prototype's 1-20 m sweep.  Its lowest carrier is 1 MHz,
# the medium-wave band; its highest MAX_FREQUENCY_GHZ.  Over both ranges the
# free-space loss stays within [-88, 293] dB; far past them the budget's
# ratios 10**(x/10) over- or underflow (1e300 m is a 6000 dB loss).
LINK_DISTANCE_M = Range(1e-3, 1e9)
MIN_LINK_FREQUENCY_GHZ = 1e-3
_CARRIER_GHZ = Range(MIN_LINK_FREQUENCY_GHZ, MAX_FREQUENCY_GHZ)

# Largest magnitude of the budget's own dB terms: the transmit power (dBm),
# the antenna gains (dBi) and the noise figure (dB), which is also at least
# 0, as a receiver adds noise and never takes it away.  200 is twice what
# radios reach (a 10 MW transmitter is 100 dBm); at 1e15 dB the ratios overflow.
MAX_BUDGET_DB = 200.0
_BUDGET_DB = Range(-MAX_BUDGET_DB, MAX_BUDGET_DB)

# Range of a link's channel.  The widest is 10^4 MHz, five times the widest
# NR carrier (2000 MHz in FR2-2): its noise power, with the noise figure at
# MAX_BUDGET_DB, stays within 126 dBm; at 1e300 MHz the budget's ratios
# overflow.  The narrowest is 10^-3 MHz (1 kHz, a thermal floor of -144 dBm),
# under the channel of any data link: a narrower one only lowers the noise
# power until the SNR means nothing a receiver sees (the default link at
# 1e-300 MHz reads 3081 dB).
_BANDWIDTH_MHZ = Range(1e-3, 1e4)

DEFAULT_ACLR_SYMBOLS = 64
DEFAULT_EVM_SYMBOLS = 100_000
DEFAULT_CHANNEL_BANDWIDTH_MHZ = 400.0

# Rows per pass of the blocked transforms.  A row block of np.fft.fft /
# ifft gives the same values as the whole-array call; the link tests
# compare both paths to the bit.
_OFDM_BLOCK = 2
_WELCH_BLOCK = 16


# ---------------------------------------------------------------------------
# scenario containers


@dataclass(frozen=True)
@ranged
class LinkScenario:
    """Single point-to-point link between the array and a receiver."""

    d_m: Annotated[float, LINK_DISTANCE_M] = 4.0
    center_freq_ghz: Annotated[float, _CARRIER_GHZ] = 26.0
    bandwidth_mhz: Annotated[float, _BANDWIDTH_MHZ] = DEFAULT_CHANNEL_BANDWIDTH_MHZ
    tx_power_dbm: Annotated[float, _BUDGET_DB] = 1.0
    tx_antenna_gain_dbi: Annotated[float, _BUDGET_DB] = 22.2
    rx_antenna_gain_dbi: Annotated[float, _BUDGET_DB] = 22.0
    rx_noise_figure_db: Annotated[float, Range(0.0, MAX_BUDGET_DB)] = 5.0
    tx_evm_floor: Annotated[float, Range(0.0, 0.5, hi_open=True)] = 0.03
    modulation: str = "64QAM"

    def __post_init__(self):
        if self.modulation not in MODULATION_ORDERS:
            raise ValueError(f"unknown modulation {self.modulation!r}; "
                             f"expected one of {sorted(MODULATION_ORDERS)}")


@dataclass(frozen=True)
@ranged
class FrameConfig:
    """TDD frame and carrier-aggregation bookkeeping for the rate formula.

    ``overhead`` is calibrated so the prototype frame reproduces the
    published peak rate; TS 38.306 gives 0.18 for FR2 downlink.
    """

    slot_pattern: str = "DDDSU"
    # (DL, guard, UL) symbols
    s_slot_split: Annotated[tuple[int, int, int], NON_NEGATIVE] = (10, 2, 2)
    scs_khz: int = 120
    cc_count: Annotated[int, NON_NEGATIVE] = 4
    cc_bandwidth_mhz: float = 200.0
    layers: Annotated[int, NON_NEGATIVE] = 2
    modulation_order: Annotated[int, NON_NEGATIVE] = 6
    max_code_rate: float = 948 / 1024
    scaling: float = 1.0
    overhead: Annotated[float, Range(0.0, 1.0, hi_open=True)] = 0.14
    prb_per_cc: Annotated[int, NON_NEGATIVE] = 132

    def __post_init__(self):
        if not self.slot_pattern or set(self.slot_pattern) - set("DSU"):
            raise ValueError("slot pattern must be a non-empty string over {D, S, U}")
        if sum(self.s_slot_split) != 14:
            raise ValueError("S-slot split must sum to 14 symbols")
        if self.scs_khz not in _MU_BY_SCS_KHZ:
            raise ValueError(f"unsupported subcarrier spacing {self.scs_khz} kHz")

    @property
    def numerology(self) -> int:
        return _MU_BY_SCS_KHZ[self.scs_khz]


@dataclass(frozen=True)
class PaModel:
    """Memoryless amplifier: ideal passthrough or Rapp AM/AM compression.

    saturation_level is an absolute output amplitude; the OFDM record
    that measure_aclr amplifies is unit average power, so a
    saturation_level of 4.0 means 12 dB between RMS and saturation.
    Large smoothness turns the Rapp curve into a hard limiter.
    """

    kind: str = "rapp"
    saturation_level: float = 4.0
    smoothness: float = 2.0

    def __post_init__(self):
        if self.kind not in ("ideal", "rapp"):
            raise ValueError(f"unknown PA kind {self.kind!r}")
        if self.kind == "rapp":
            if not self.saturation_level > 0:
                raise ValueError("saturation level must be positive")
            if not self.smoothness > 0:
                raise ValueError("smoothness must be positive")


# a cross-polar level is a leakage, below the co-polar one
CROSS_POL_DB = Range(hi=0.0, hi_open=True)


@dataclass(frozen=True)
@ranged
class XpdModel:
    """Per-antenna cross-polarization leakage, dB (negative = isolation)."""

    h_antenna_db: Annotated[float, CROSS_POL_DB] = -15.19
    v_antenna_db: Annotated[float, CROSS_POL_DB] = -10.16


# ---------------------------------------------------------------------------
# budget chain


def path_loss_fspl(d_m: float, frequency_ghz: float) -> float:
    """Free-space path loss 20 log10(4 pi d / lambda), dB."""
    if d_m <= 0:
        raise ValueError("distance must be positive")
    return 20.0 * math.log10(4.0 * math.pi * d_m / wavelength_m(frequency_ghz))


def noise_power_dbm(bandwidth_mhz: float, noise_figure_db: float) -> float:
    return THERMAL_NOISE_DBM_PER_HZ + db10(bandwidth_mhz * 1e6) + noise_figure_db


def link_budget(scenario: LinkScenario) -> float:
    """Receiver SNR in dB for the scalar line-of-sight chain.

    The LNA raises signal and noise by the same factor once the chain
    noise figure is referenced to the receiver input, so its gain
    cancels in the ratio; the single-stage model keeps only
    rx_noise_figure_db (assumed dominated by that first stage).
    """
    fspl = path_loss_fspl(scenario.d_m, scenario.center_freq_ghz)
    noise = noise_power_dbm(scenario.bandwidth_mhz, scenario.rx_noise_figure_db)
    signal = (scenario.tx_power_dbm + scenario.tx_antenna_gain_dbi
              - fspl + scenario.rx_antenna_gain_dbi)
    return signal - noise


# ---------------------------------------------------------------------------
# EVM


def evm_closed_form(snr_db: float, tx_evm_floor: float = 0.0) -> float:
    """RMS error fraction sqrt(floor^2 + 1/snr) for AWGN plus a Tx floor."""
    if math.isnan(snr_db):
        raise ValueError("snr must not be NaN")
    inv_snr = 0.0 if math.isinf(snr_db) and snr_db > 0 else from_db10(-snr_db)
    return math.sqrt(tx_evm_floor * tx_evm_floor + inv_snr)


def constellation(modulation: str) -> np.ndarray:
    """Gray-square QAM points scaled to unit average power."""
    try:
        order = MODULATION_ORDERS[modulation]
    except KeyError:
        raise ValueError(f"unknown modulation {modulation!r}") from None
    m = int(round(math.sqrt(order)))
    levels = np.arange(-(m - 1), m, 2, dtype=float)
    re, im = np.meshgrid(levels, levels)
    points = (re + 1j * im).ravel()
    # E{|s|^2} = 2 (M - 1) / 3 for a square grid with +-1, +-3, ... levels
    return points / math.sqrt(2.0 * (order - 1) / 3.0)


def simulate_evm(snr_db: float, tx_evm_floor: float, modulation: str,
                 n_symbols: int = DEFAULT_EVM_SYMBOLS, rng_seed: int = 0) -> float:
    """Monte Carlo EVM at an explicit SNR.

    The symbol draw and the error draw use independent child streams of
    the seed, so two runs with the same seed see identical noise even
    when the modulation (and hence the symbol stream consumption)
    differs.  The reference power is the ensemble unit power of the
    constellation, not the per-run sample power.  Memory: the symbols,
    the error and one float buffer, about 2.5 complex records.
    """
    if n_symbols < 1:
        raise ValueError("need at least one symbol")
    sym_rng, err_rng = [np.random.default_rng(s)
                        for s in np.random.SeedSequence(rng_seed).spawn(2)]
    points = constellation(modulation)
    ref = points[sym_rng.integers(0, points.size, n_symbols)]
    scale = math.sqrt(0.5) * math.sqrt(from_db10(-snr_db)) if not math.isinf(snr_db) else 0.0
    floor_scale = math.sqrt(0.5) * tx_evm_floor
    # err = (n1 + j n2) * scale + (n3 + j n4) * floor_scale, one part at a
    # time through one float buffer: a complex product by a real scale
    # rounds each part as the float product does
    err = np.empty(n_symbols, dtype=complex)
    draw = np.empty(n_symbols)
    for part in (err.real, err.imag):
        np.multiply(err_rng.standard_normal(out=draw), scale, out=part)
    for part in (err.real, err.imag):
        part += np.multiply(err_rng.standard_normal(out=draw), floor_scale, out=draw)
    del draw
    # received - ref, rounded as the whole-record form rounds it
    err += ref
    err -= ref
    power = np.abs(err)
    return float(np.sqrt(np.mean(np.square(power, out=power))))


def evm_vs_distance(scenario: LinkScenario,
                    d_list) -> list[tuple[float, float, float, bool]]:
    """Closed-form EVM table over ascending distances (ties allowed): rows
    (d_m, snr_db, evm_percent, pass_8pct)."""
    d_arr = [float(d) for d in d_list]
    if any(b < a for a, b in zip(d_arr, d_arr[1:])):
        raise ValueError("distance list must be ascending")
    rows = []
    for d in d_arr:
        snr = link_budget(replace(scenario, d_m=d))
        evm = evm_closed_form(snr, scenario.tx_evm_floor)
        rows.append((d, snr, 100.0 * evm, evm <= EVM_LIMIT))
    return rows


# ---------------------------------------------------------------------------
# OFDM waveform, amplifier, spectral leakage


# The one CP-OFDM numerology of the spectral measurements: NR FR2 at 120 kHz
# subcarrier spacing on a 16384-point grid, the occupied block set by the
# channel bandwidth through PRB_TABLE_120KHZ.  _WINDOW_SAMPLES raised-cosine
# samples crossfade adjacent symbols inside the cyclic prefix, which keeps
# the occupied block orthogonal while pulling the out-of-band skirt far
# below the amplifier distortion under test.
_FFT_SIZE = 16384
_CP_SAMPLES = 1152
_WINDOW_SAMPLES = 512
_POINTS = constellation("64QAM")
SAMPLE_RATE_HZ = _FFT_SIZE * 120.0 * 1e3     # 120 kHz subcarriers


def _occupied_subcarriers(channel_bandwidth_mhz: float) -> int:
    """Subcarriers of a channel of PRB_TABLE_120KHZ, 12 per resource block."""
    if channel_bandwidth_mhz not in PRB_TABLE_120KHZ:
        raise ValueError(f"channel bandwidth must be one of {sorted(PRB_TABLE_120KHZ)} MHz")
    return 12 * PRB_TABLE_120KHZ[channel_bandwidth_mhz]


def _ofdm_pieces(n_occ: int, n_symbols: int, rng_seed: int):
    """Yield ofdm_waveform's record of n_occ occupied subcarriers before its
    unit-power scale, in pieces of _OFDM_BLOCK symbols: one row-blocked
    IFFT per block, prefixes and ramps set by slicing its (symbols,
    _FFT_SIZE + _CP_SAMPLES) rows, and the last suffix ramp carried into
    the next block, in one buffer.  Every sample equals the whole-record overlap-add's."""
    rng = np.random.default_rng(rng_seed)
    n_fft, cp, ov = _FFT_SIZE, _CP_SAMPLES, _WINDOW_SAMPLES
    scale = math.sqrt(n_fft / n_occ)
    ramp = 0.5 * (1.0 - np.cos(np.pi * (np.arange(ov) + 0.5) / ov))
    spectrum = np.zeros((min(_OFDM_BLOCK, n_symbols), n_fft), dtype=complex)
    tail = np.zeros(ov, dtype=complex)
    buf = np.empty((len(spectrum), n_fft + cp), dtype=complex)
    for lo in range(0, n_symbols, _OFDM_BLOCK):
        block = spectrum[:min(_OFDM_BLOCK, n_symbols - lo)]
        # one call's table: the generator keeps a 64-bit word's spare half for the next draw
        values = _POINTS[rng.integers(0, _POINTS.size, (len(block), n_occ))]
        # symmetric around the carrier with the DC bin left empty
        block[:, n_fft - n_occ // 2:] = values[:, :n_occ // 2]
        block[:, 1:n_occ - n_occ // 2 + 1] = values[:, n_occ // 2:]
        rows = buf[:len(block)]
        np.multiply(np.fft.ifft(block, axis=1, out=rows[:, cp:]), scale, out=rows[:, cp:])
        rows[:, :cp] = rows[:, n_fft:]
        rows[:, :ov] *= ramp
        rows[0, :ov] += tail
        rows[1:, :ov] += rows[:-1, cp:cp + ov] * ramp[::-1]
        tail = rows[-1, cp:cp + ov] * ramp[::-1]
        # the record starts past the first half ramp and ends before the last
        yield rows.ravel()[ov if lo == 0 else 0:]


def _record_rms(n_occ: int, n_symbols: int, rng_seed: int) -> tuple[int, float]:
    """(length, RMS) of the _ofdm_pieces record, through one |x|^2 buffer:
    each piece's np.add.reduce of |x|^2, the piece sums added in order,
    over the length, square-rooted."""
    if n_symbols < 1:
        raise ValueError("need at least one OFDM symbol")
    n_samples = n_symbols * (_FFT_SIZE + _CP_SAMPLES) - _WINDOW_SAMPLES
    buf = np.empty(min(_OFDM_BLOCK, n_symbols) * (_FFT_SIZE + _CP_SAMPLES))
    total = 0.0
    for piece in _ofdm_pieces(n_occ, n_symbols, rng_seed):
        power = np.abs(piece, out=buf[:len(piece)])
        total += float(np.add.reduce(np.square(power, out=power)))
    return n_samples, math.sqrt(total / n_samples)


def ofdm_waveform(n_symbols: int, rng_seed: int, channel_bandwidth_mhz: float) -> np.ndarray:
    """Windowed CP-OFDM block of one channel of PRB_TABLE_120KHZ, unit
    average power, sampled at SAMPLE_RATE_HZ.

    Each symbol is extended by _WINDOW_SAMPLES of cyclic suffix and
    crossfaded (raised cosine) with its neighbors; the crossfade lives
    entirely inside the cyclic prefix of the following symbol, so the
    _FFT_SIZE core samples of every symbol are untouched.  The two block
    edges (half-faded ramps) are trimmed.

    Memory: the record, filled from a second pass of _ofdm_pieces after
    _record_rms's pass, which holds a piece at a time.
    """
    n_occ = _occupied_subcarriers(channel_bandwidth_mhz)
    n_samples, rms = _record_rms(n_occ, n_symbols, rng_seed)
    out = np.empty(n_samples, dtype=complex)
    at = 0
    for piece in _ofdm_pieces(n_occ, n_symbols, rng_seed):
        np.divide(piece, rms, out=out[at:at + len(piece)])
        at += len(piece)
    return out


def apply_pa(samples: np.ndarray, pa: PaModel) -> np.ndarray:
    """Memoryless AM/AM: Rapp y = x / (1 + (|x|/sat)^(2p))^(1/(2p)).

    Memory: the output record and one float companion of its length,
    updated in place.
    """
    x = np.asarray(samples, dtype=complex)
    if pa.kind == "ideal":
        return x.copy()
    t = np.abs(x)
    with np.errstate(over="ignore"):
        t /= pa.saturation_level
        t **= 2.0 * pa.smoothness
        t += 1.0
        t **= 1.0 / (2.0 * pa.smoothness)
        # past the float range, (1 + r^2p)^(1/2p) = r (1 + r^-2p)^(1/2p), r = |x| / sat:
        # a hard limiter holds r > 1 at sat; where that is inf too, the sample is 0
        over = np.flatnonzero(np.isinf(t))
        r = np.abs(x[over]) / pa.saturation_level
        t[over] = r * (1.0 + r ** (-2.0 * pa.smoothness)) ** (1.0 / (2.0 * pa.smoothness))
    return x / t


def _band_power(freqs: np.ndarray, psd: np.ndarray, center_hz: float,
                bandwidth_hz: float) -> float:
    mask = np.abs(freqs - center_hz) <= bandwidth_hz / 2.0
    return float(np.sum(psd[mask]))


def _welch_psd(pieces, n_samples: int,
               sample_rate_hz: float) -> tuple[np.ndarray, np.ndarray]:
    """Two-sided Welch PSD: periodic Hann segments at 50 % overlap, no detrend.

    ``pieces`` make one record of ``n_samples``; segments are 4096
    samples, or the whole record if shorter.  Returns (fftfreq axis,
    mean of the density-scaled periodograms).  The arithmetic follows
    scipy.signal.welch(..., window="hann", return_onesided=False,
    detrend=False) step for step: the window is built on the symmetric
    linspace and carries the density scale 1/sqrt(fs * sum w^2), and the
    periodograms are averaged.  The PSD agrees with scipy's to 1e-12
    relative, not to the bit (2.3e-15 of the peak at the table widths):
    each periodogram is added into one row in record order and the row is
    divided by the segment count, an order that neither _WELCH_BLOCK nor the
    piece cuts change.

    Memory: one block of _WELCH_BLOCK windowed segments and their
    periodograms, in buffers that every block reuses, and the row, instead
    of the (n_seg, nperseg) table of 18 MB at the defaults and of 287 MB at
    MAX_ACLR_SYMBOLS.  The samples past a piece's last whole segment carry
    over.
    """
    nperseg = min(4096, n_samples)
    step = nperseg - nperseg // 2
    win = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, nperseg + 1)[:-1])
    win *= 1.0 / np.sqrt(sum(win ** 2) / (1.0 / sample_rate_hz))

    windowed = np.empty((_WELCH_BLOCK, nperseg), dtype=complex)
    power = np.empty((_WELCH_BLOCK, nperseg))
    psd = np.zeros(nperseg)
    carry = ()
    for piece in pieces:
        carry = np.concatenate([carry, piece]) if len(carry) else piece
        if len(carry) < nperseg:
            continue
        segments = sliding_window_view(carry, nperseg)[::step]
        for lo in range(0, len(segments), _WELCH_BLOCK):
            k = min(_WELCH_BLOCK, len(segments) - lo)
            spec = np.fft.fft(np.multiply(segments[lo:lo + k], win, out=windowed[:k]))
            re, im = spec.real, spec.imag
            for row in np.add(np.square(re, out=re), np.square(im, out=im), out=power[:k]):
                psd += row
        carry = carry[len(segments) * step:]
    psd /= (n_samples - nperseg) // step + 1
    return np.fft.fftfreq(nperseg, 1.0 / sample_rate_hz), psd


def _aclr(pieces, n_samples: int, sample_rate_hz: float,
          designated: tuple[float, float],
          adjacent: list[tuple[float, float]]) -> list[float]:
    nyquist = sample_rate_hz / 2.0
    for name, (center, bw) in [("designated", designated)] + [
            (f"adjacent[{i}]", ch) for i, ch in enumerate(adjacent)]:
        if bw <= 0:
            raise ValueError(f"{name} channel bandwidth must be positive")
        if abs(center) + bw / 2.0 > nyquist:
            raise ValueError(
                f"{name} channel [{(center - bw / 2) / 1e6:.1f}, "
                f"{(center + bw / 2) / 1e6:.1f}] MHz extends past the Nyquist "
                f"band of +-{nyquist / 1e6:.1f} MHz")
    freqs, psd = _welch_psd(pieces, n_samples, sample_rate_hz)
    p_designated = _band_power(freqs, psd, *designated)
    if p_designated <= 0:
        raise ValueError("designated channel carries no power")
    return [db10(_band_power(freqs, psd, *ch) / p_designated) for ch in adjacent]


def aclr(samples: np.ndarray, sample_rate_hz: float,
         designated: tuple[float, float],
         adjacent: list[tuple[float, float]]) -> list[float]:
    """Adjacent-channel leakage, dBc per adjacent channel.

    Channels are (center_hz, bandwidth_hz) relative to the carrier.
    Power ratios come from a Welch averaged periodogram (Hann segments
    of 4096 samples, or the whole record if shorter) integrated over
    each channel; results are 10 log10(P_adjacent / P_designated), so
    compliant amplifiers give values well below 0.
    """
    return _aclr([samples], len(samples), sample_rate_hz, designated, adjacent)


def measure_aclr(pa: PaModel, n_symbols: int, rng_seed: int,
                 channel_bandwidth_mhz: float) -> list[float]:
    """ACLR of the amplified ofdm_waveform at +-1 channel offsets.

    The values equal aclr(apply_pa(ofdm_waveform(...), pa), SAMPLE_RATE_HZ,
    ...) to the bit, but the record never exists whole.  Memory:
    _record_rms's pass, then a second pass of _ofdm_pieces that scales and
    amplifies each piece into the streamed Welch average; each holds a few
    pieces, 6.1 MB at any length (tracemalloc; 0.34 records at the defaults).
    """
    n_occ = _occupied_subcarriers(channel_bandwidth_mhz)
    n_samples, rms = _record_rms(n_occ, n_symbols, rng_seed)
    amplified = (apply_pa(np.divide(piece, rms, out=piece), pa)
                 for piece in _ofdm_pieces(n_occ, n_symbols, rng_seed))
    channel_bandwidth_hz = channel_bandwidth_mhz * 1e6
    designated = (0.0, channel_bandwidth_hz)
    adjacent = [(-channel_bandwidth_hz, channel_bandwidth_hz),
                (channel_bandwidth_hz, channel_bandwidth_hz)]
    return _aclr(amplified, n_samples, SAMPLE_RATE_HZ, designated, adjacent)


# ---------------------------------------------------------------------------
# dual stream


def dual_stream_sinr(stream_gains_dbi: dict[str, float], xpd: XpdModel,
                     scenario: LinkScenario) -> dict[str, float]:
    """Per-stream SINR for co-located H/V streams separated by polarization.

    ``stream_gains_dbi`` maps "h" and "v" to each stream's antenna gain;
    the result maps them to each stream's SINR, dB.
    Each stream's interference is the other stream's received power
    attenuated by the receiving antenna's own cross-pol leakage; both
    streams share the scenario's transmit power, distance, and noise
    chain.
    """
    gain_h, gain_v = stream_gains_dbi["h"], stream_gains_dbi["v"]
    fspl = path_loss_fspl(scenario.d_m, scenario.center_freq_ghz)
    noise_mw = from_db10(noise_power_dbm(scenario.bandwidth_mhz,
                                         scenario.rx_noise_figure_db))
    base = scenario.tx_power_dbm - fspl + scenario.rx_antenna_gain_dbi
    rx_h_mw, rx_v_mw = from_db10(base + gain_h), from_db10(base + gain_v)
    sinr_h = rx_h_mw / (rx_v_mw * from_db10(xpd.h_antenna_db) + noise_mw)
    sinr_v = rx_v_mw / (rx_h_mw * from_db10(xpd.v_antenna_db) + noise_mw)
    return {"h": db10(sinr_h), "v": db10(sinr_v)}


# ---------------------------------------------------------------------------
# throughput and power


def dl_duty(frame: FrameConfig) -> float:
    """Downlink symbol fraction of the TDD pattern (S-slot DL symbols count)."""
    dl_symbols = 14 * frame.slot_pattern.count("D")
    dl_symbols += frame.slot_pattern.count("S") * frame.s_slot_split[0]
    return dl_symbols / (14 * len(frame.slot_pattern))


def peak_rate_3gpp(frame: FrameConfig) -> float:
    """Peak DL data rate in bit/s from the TS 38.306 style formula.

    rate = sum over CCs of
        layers * Q_m * f * R_max * (12 * N_prb / T_symbol) * (1 - OH)
    scaled by the TDD downlink duty; T_symbol is the mu-averaged OFDM
    symbol duration 1e-3 / (14 * 2^mu) seconds.
    """
    t_symbol_s = 1e-3 / (14 * 2 ** frame.numerology)
    per_cc = (frame.layers * frame.modulation_order * frame.scaling
              * frame.max_code_rate * (12 * frame.prb_per_cc / t_symbol_s)
              * (1.0 - frame.overhead))
    return frame.cc_count * per_cc * dl_duty(frame)


def power_saving(p_candidate_w: float, p_baseline_w: float) -> float:
    """Fractional power reduction of the candidate against the baseline."""
    if p_baseline_w <= 0:
        raise ValueError("baseline power must be positive")
    return (p_baseline_w - p_candidate_w) / p_baseline_w
