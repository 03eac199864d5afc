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

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .constants import MAX_FREQUENCY_GHZ, THERMAL_NOISE_DBM_PER_HZ, db10, from_db10, wavelength_m

EVM_LIMIT = 0.08                  # transmit quality bound for 64QAM downlink
ACLR_LIMIT_DBC = -28.0            # adjacent-channel leakage compliance bound

MODULATION_ORDERS = {"QPSK": 4, "16QAM": 16, "64QAM": 64, "256QAM": 256}

# NR FR2 max transmission bandwidth at 120 kHz subcarrier spacing,
# channel MHz -> resource blocks.
PRB_TABLE_120KHZ = {50: 32, 100: 66, 200: 132, 400: 264}

_MU_BY_SCS_KHZ = {15: 0, 30: 1, 60: 2, 120: 3, 240: 4}

# Work bounds on the record-length keys.  An ACLR symbol is 17536 complex
# samples (the 16384-point grid and its prefix), so the longest record is
# 287 MB, which measure_aclr streams in 33 MB (0.11 records), most of it the
# 26 MB int64 table of symbol indices that _ofdm_pieces draws in one call
# (drawing it in chunks would change the Generator.integers stream); the
# longest EVM draw makes complex arrays of 160 MB.
MAX_ACLR_SYMBOLS = 1024
MAX_EVM_SYMBOLS = 10_000_000

# Range of a link's distance: a millimetre to 10^9 m (past the Moon), decades
# either side of the prototype's 1-20 m sweep.  Its lowest carrier is 1 MHz,
# the medium-wave band; its highest MAX_FREQUENCY_GHZ.  Over both ranges the
# free-space loss stays within [-88, 293] dB; far past them the budget's
# ratios 10**(x/10) over- or underflow (1e300 m is a 6000 dB loss).
LINK_DISTANCE_M = (1e-3, 1e9)
MIN_LINK_FREQUENCY_GHZ = 1e-3

# Largest magnitude of the budget's own dB terms: the transmit power (dBm),
# the antenna gains (dBi) and the noise figure (dB), which is also at least
# 0, as a receiver adds noise and never takes it away.  200 is twice what
# radios reach (a 10 MW transmitter is 100 dBm); at 1e15 dB the ratios overflow.
MAX_BUDGET_DB = 200.0

# Range of a link's channel.  The widest is 10^4 MHz, five times the widest
# NR carrier (2000 MHz in FR2-2): its noise power, with the noise figure at
# MAX_BUDGET_DB, stays within 126 dBm; at 1e300 MHz the budget's ratios
# overflow.  The narrowest is 10^-3 MHz (1 kHz, a thermal floor of -144 dBm),
# under the channel of any data link: a narrower one only lowers the noise
# power until the SNR means nothing a receiver sees (the default link at
# 1e-300 MHz reads 3081 dB).
MIN_BANDWIDTH_MHZ = 1e-3
MAX_BANDWIDTH_MHZ = 1e4

DEFAULT_ACLR_SYMBOLS = 64
DEFAULT_EVM_SYMBOLS = 100_000
DEFAULT_CHANNEL_BANDWIDTH_MHZ = 400.0

# Rows per pass of the blocked transforms.  A row block of np.fft.fft /
# ifft gives the same values as the whole-array call; the link tests
# compare both paths to the bit.
_OFDM_BLOCK = 2
_WELCH_BLOCK = 16

# numpy's pairwise summation (PW_BLOCKSIZE in its loops_utils.h): a run of
# at most this many terms is a leaf, summed in 8 lanes
_PAIRWISE_LEAF = 128
# Scalar terms go to np.add.reduce in runs of at most this many (256 kB)
_PAIRWISE_RUN = 1 << 15


# ---------------------------------------------------------------------------
# scenario containers


@dataclass(frozen=True)
class LinkScenario:
    """Single point-to-point link between the array and a receiver."""

    d_m: float = 4.0
    center_freq_ghz: float = 26.0
    bandwidth_mhz: float = DEFAULT_CHANNEL_BANDWIDTH_MHZ
    tx_power_dbm: float = 1.0
    tx_antenna_gain_dbi: float = 22.2
    rx_antenna_gain_dbi: float = 22.0
    rx_noise_figure_db: float = 5.0
    tx_evm_floor: float = 0.03
    modulation: str = "64QAM"

    def __post_init__(self):
        lo, hi = LINK_DISTANCE_M
        if not lo <= self.d_m <= hi:
            raise ValueError(f"distance must be in [{lo:g}, {hi:g}] m")
        if not MIN_LINK_FREQUENCY_GHZ <= self.center_freq_ghz <= MAX_FREQUENCY_GHZ:
            raise ValueError(f"carrier must be in [{MIN_LINK_FREQUENCY_GHZ:g}, "
                             f"{MAX_FREQUENCY_GHZ:g}] GHz")
        for name in ("tx_power_dbm", "tx_antenna_gain_dbi", "rx_antenna_gain_dbi"):
            if not abs(getattr(self, name)) <= MAX_BUDGET_DB:
                raise ValueError(f"{name} must be in [-{MAX_BUDGET_DB:g}, {MAX_BUDGET_DB:g}]")
        if not 0.0 <= self.rx_noise_figure_db <= MAX_BUDGET_DB:
            raise ValueError(f"noise figure must be in [0, {MAX_BUDGET_DB:g}] dB")
        if not MIN_BANDWIDTH_MHZ <= self.bandwidth_mhz <= MAX_BANDWIDTH_MHZ:
            raise ValueError(f"bandwidth must be in [{MIN_BANDWIDTH_MHZ:g}, "
                             f"{MAX_BANDWIDTH_MHZ:g}] MHz")
        if not 0.0 <= self.tx_evm_floor < 0.5:
            raise ValueError("tx EVM floor must lie in [0, 0.5)")
        if self.modulation not in MODULATION_ORDERS:
            raise ValueError(f"unknown modulation {self.modulation!r}; "
                             f"expected one of {sorted(MODULATION_ORDERS)}")


@dataclass(frozen=True)
class FrameConfig:
    """TDD frame and carrier-aggregation bookkeeping for the rate formula.

    ``overhead`` is calibrated so the prototype frame reproduces the
    published peak rate; TS 38.306 gives 0.18 for FR2 downlink.
    """

    slot_pattern: str = "DDDSU"
    s_slot_split: tuple[int, int, int] = (10, 2, 2)   # (DL, guard, UL) symbols
    scs_khz: int = 120
    cc_count: int = 4
    cc_bandwidth_mhz: float = 200.0
    layers: int = 2
    modulation_order: int = 6
    max_code_rate: float = 948 / 1024
    scaling: float = 1.0
    overhead: float = 0.14
    prb_per_cc: int = 132

    def __post_init__(self):
        if not self.slot_pattern or set(self.slot_pattern) - set("DSU"):
            raise ValueError("slot pattern must be a non-empty string over {D, S, U}")
        if sum(self.s_slot_split) != 14:
            raise ValueError("S-slot split must sum to 14 symbols")
        if any(v < 0 for v in self.s_slot_split):
            raise ValueError("S-slot split entries must be non-negative")
        if self.scs_khz not in _MU_BY_SCS_KHZ:
            raise ValueError(f"unsupported subcarrier spacing {self.scs_khz} kHz")
        if self.layers < 0:
            raise ValueError("layer count must be non-negative")
        if not 0.0 <= self.overhead < 1.0:
            raise ValueError("overhead must lie in [0, 1)")
        for name in ("cc_count", "prb_per_cc", "modulation_order"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

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
            if self.saturation_level <= 0:
                raise ValueError("saturation level must be positive")
            if self.smoothness <= 0:
                raise ValueError("smoothness must be positive")


@dataclass(frozen=True)
class XpdModel:
    """Per-antenna cross-polarization leakage, dB (negative = isolation)."""

    h_antenna_db: float = -15.19
    v_antenna_db: float = -10.16

    def __post_init__(self):
        if self.h_antenna_db >= 0 or self.v_antenna_db >= 0:
            raise ValueError("cross-pol leakage must be below 0 dB")


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
    the next block.  Every sample equals the whole-record overlap-add's."""
    rng = np.random.default_rng(rng_seed)
    n_fft, cp, ov = _FFT_SIZE, _CP_SAMPLES, _WINDOW_SAMPLES
    symbols = rng.integers(0, _POINTS.size, (n_symbols, n_occ))
    scale = math.sqrt(n_fft / n_occ)
    ramp = 0.5 * (1.0 - np.cos(np.pi * (np.arange(ov) + 0.5) / ov))
    spectrum = np.zeros((min(_OFDM_BLOCK, n_symbols), n_fft), dtype=complex)
    tail = np.zeros(ov, dtype=complex)
    for lo in range(0, n_symbols, _OFDM_BLOCK):
        block = spectrum[:min(_OFDM_BLOCK, n_symbols - lo)]
        # symmetric around the carrier with the DC bin left empty
        values = _POINTS[symbols[lo:lo + len(block)]]
        block[:, n_fft - n_occ // 2:] = values[:, :n_occ // 2]
        block[:, 1:n_occ - n_occ // 2 + 1] = values[:, n_occ // 2:]
        rows = np.empty((len(block), n_fft + cp), dtype=complex)
        np.multiply(np.fft.ifft(block, axis=1), scale, out=rows[:, cp:])
        rows[:, :cp] = rows[:, n_fft:]
        rows[:, :ov] *= ramp
        rows[0, :ov] += tail
        rows[1:, :ov] += rows[:-1, cp:cp + ov] * ramp[::-1]
        tail = rows[-1, cp:cp + ov] * ramp[::-1]
        # the record starts past the first half ramp and ends before the last
        yield rows.ravel()[ov if lo == 0 else 0:]


class _PairwiseSum:
    """The sum of a stream of terms, added in numpy's pairwise order, from
    one run of terms at a time.

    numpy adds a contiguous run of n terms so: fewer than 8 in order from
    0.0; at most _PAIRWISE_LEAF (a leaf) in 8 lanes seeded with the first
    8 terms, every later whole group of 8 added lane by lane, the lanes
    combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) and the rest added in
    order; more than that split at n/2 rounded down to a multiple of 8,
    each part summed so and the two sums added.  np.add.reduce returns
    0.0 + that sum.  So every leaf starts on a multiple of 8, and only the
    last can end off one.  The blocks stack the terms along axis 0: a term
    is an element of 1-D blocks, or a row, added elementwise, so that rows
    are summed as numpy sums each column of their contiguous transpose.
    A block's buffer may be refilled once the next block is drawn.
    """

    def __init__(self, blocks):
        self._blocks = iter(blocks)
        self._block = next(self._blocks)
        self._at = 0

    def _take(self, m: int) -> np.ndarray:
        run = self._block[self._at:self._at + m]
        self._at += len(run)
        if len(run) == m:
            return run
        # copied as it comes: a block may be refilled once the next one is drawn
        out = np.empty((m, *run.shape[1:]), dtype=run.dtype)
        at = len(run)
        out[:at] = run
        while at < m:
            self._block = next(self._blocks)
            self._at = min(m - at, len(self._block))
            out[at:at + self._at] = self._block[:self._at]
            at += self._at
        return out

    def sum(self, n: int):
        """The next n terms, added as numpy adds a run of n."""
        if self._block.ndim == 1 and n <= _PAIRWISE_RUN:
            # the split depends on the run length alone, so a run's own
            # reduce is its subtree of the whole tree, behind a 0.0 + that
            # only turns -0.0 into 0.0: no sum of a nonzero value changes
            return np.add.reduce(self._take(n))
        if n > _PAIRWISE_LEAF:
            half = n // 2 - n // 2 % 8
            return self.sum(half) + self.sum(n - half)
        total = 0.0
        if n >= 8:
            r = self._take(8).copy()
            for _ in range(n // 8 - 1):
                r += self._take(8)
            total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for term in self._take(n % 8):
            total = total + term
        return total


def _pairwise_mean(blocks, n: int):
    """The mean of the n terms that ``blocks`` stack, to the bit as np.mean
    takes it along a contiguous axis: np.mean(x) of 1-D blocks x, and
    np.ascontiguousarray(rows.T).mean(axis=1) of blocks of rows."""
    return (0.0 + _PairwiseSum(blocks).sum(n)) / n


def _record_rms(n_occ: int, n_symbols: int, rng_seed: int) -> tuple[int, float]:
    """(length, RMS) of the _ofdm_pieces record: np.sqrt(np.mean(|x|^2)) of
    the whole record to the bit, from a pass that holds one piece's |x|^2,
    in one buffer, and one _PAIRWISE_RUN at a time."""
    if n_symbols < 1:
        raise ValueError("need at least one OFDM symbol")
    n_samples = n_symbols * (_FFT_SIZE + _CP_SAMPLES) - _WINDOW_SAMPLES

    def powers():
        buf = np.empty(min(_OFDM_BLOCK, n_symbols) * (_FFT_SIZE + _CP_SAMPLES))
        for piece in _ofdm_pieces(n_occ, n_symbols, rng_seed):
            power = np.abs(piece, out=buf[:len(piece)])
            yield np.square(power, out=power)

    return n_samples, np.sqrt(_pairwise_mean(powers(), n_samples))


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
    periodograms are averaged along a contiguous axis.  On scipy 1.17 the
    PSD is bit-identical, so ACLR artifacts keep their bytes.

    Memory: one block of _WELCH_BLOCK windowed segments and their
    periodograms, in buffers that every block reuses, averaged as they
    come by _pairwise_mean, which keeps the 8 lanes of numpy's pairwise
    sum, a periodogram each, instead of the (nperseg, n_seg) table:
    256 kB in place of 18 MB at the defaults and of 287 MB at
    MAX_ACLR_SYMBOLS.  The samples past a piece's last whole segment
    carry over.
    """
    nperseg = min(4096, n_samples)
    step = nperseg - nperseg // 2
    win = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, nperseg + 1)[:-1])
    win *= 1.0 / np.sqrt(sum(win ** 2) / (1.0 / sample_rate_hz))

    def periodograms():
        windowed = np.empty((_WELCH_BLOCK, nperseg), dtype=complex)
        power = np.empty((_WELCH_BLOCK, nperseg))
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
                yield np.add(np.square(re, out=re), np.square(im, out=im), out=power[:k])
            carry = carry[len(segments) * step:]

    psd = _pairwise_mean(periodograms(), (n_samples - nperseg) // step + 1)
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
    pieces and the symbol-index table, 8.2 MB (0.46 records) at the
    defaults (400 MHz, 64 symbols) and 33 MB (0.11 records) at
    MAX_ACLR_SYMBOLS (tracemalloc).
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
