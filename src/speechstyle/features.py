"""Frame-level feature extraction: mel cepstra, pitch, and stress contours.

All three contours are cut from the same frame grid so that one spectral
alignment can pair pitch and stress values frame for frame.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, asdict, fields
from functools import cached_property, lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _native
from .audio import AudioClip
from .errors import ClipTooShort

# Floors keep log() away from zero without disturbing ordinary frames.
_ENERGY_FLOOR = 1e-12
STRESS_FLOOR_DB = -120.0
# Values per numpy FFT call or row reduction (rows x row length), where
# the compiled kernels are unavailable, so that a clip's temporaries stay
# small: 8 frames of the 4096-point pitch FFT at 44.1 kHz, 32 frames of
# the 1024-point one at 16 kHz.
_BLOCK_POINTS = 1 << 15


@dataclass(frozen=True)
class FrameConfig:
    """Analysis parameters shared by every feature stream."""

    window_ms: float = 25.0
    hop_ms: float = 10.0
    preemphasis: float = 0.97
    n_filters: int = 20
    n_ceps: int = 13
    pitch_fmin: float = 50.0
    pitch_fmax: float = 500.0
    voicing_threshold: float = 0.3

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            allowed = int if field.type == "int" else (int, float)
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise ValueError(f"{field.name} must be {field.type}, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value!r}")
        if self.window_ms <= 0 or self.hop_ms <= 0:
            raise ValueError("window_ms and hop_ms must be positive")
        if self.hop_ms > self.window_ms:
            raise ValueError("hop_ms must not exceed window_ms")
        if not 0.0 <= self.preemphasis < 1.0:
            raise ValueError("preemphasis must lie in [0, 1)")
        if self.n_filters < 1 or self.n_ceps < 1:
            raise ValueError("n_filters and n_ceps must be positive")
        if self.n_ceps > self.n_filters:
            raise ValueError("n_ceps must not exceed n_filters")
        if not 0.0 < self.pitch_fmin < self.pitch_fmax:
            raise ValueError("need 0 < pitch_fmin < pitch_fmax")
        if not 0.0 < self.voicing_threshold < 1.0:
            raise ValueError("voicing_threshold must lie in (0, 1)")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "FrameConfig":
        if not isinstance(data, dict):
            raise ValueError("frame config must be a JSON object")
        names = {field.name for field in fields(cls)}
        unknown = [name for name in data if name not in names]
        if unknown:
            raise ValueError(f"unknown field {unknown[0]!r}")
        return cls(**data)


@dataclass(frozen=True)
class FeatureBundle:
    """Per-frame features of one utterance.

    spectral : (frames, n_ceps) mel cepstra
    pitch    : (frames,) f0 in Hz, NaN where unvoiced
    stress   : (frames,) log energy in dB
    sample_rate : rate of the clip the frames were cut from
    """

    spectral: np.ndarray
    pitch: np.ndarray
    stress: np.ndarray
    config: FrameConfig
    sample_rate: int

    def __post_init__(self) -> None:
        frames = self.spectral.shape[0]
        if frames < 1:
            raise ValueError("feature bundle needs at least one frame")
        if self.pitch.shape != (frames,) or self.stress.shape != (frames,):
            raise ValueError("spectral, pitch, and stress frame counts differ")

    @property
    def frame_count(self) -> int:
        return self.spectral.shape[0]

    @cached_property
    def _path_tracks(self) -> np.ndarray:
        """pitch, np.log(pitch) and stress, the rows of one C-contiguous float64 array.

        metric's path kernel reads it. It is made on first use and kept,
        so a bundle scored against many others converts its tracks once;
        a track changed in place after that is not seen.
        """
        return np.array([self.pitch, np.log(self.pitch), self.stress], dtype=np.float64)


def _window_sizes(cfg: FrameConfig, sample_rate: int) -> tuple[int, int]:
    win = int(round(cfg.window_ms * sample_rate / 1000.0))
    hop = int(round(cfg.hop_ms * sample_rate / 1000.0))
    return max(win, 1), max(hop, 1)


def _row_blocks(rows: int, width: int) -> Iterator[slice]:
    """Slices of rows of width values each: _BLOCK_POINTS values, or one row, per slice.

    numpy's FFTs and row reductions give each row the same bits whatever
    the rows beside it, so blocks change no output.
    """
    step = max(1, _BLOCK_POINTS // width)
    return (slice(start, start + step) for start in range(0, rows, step))


def _next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length()


def _hz_to_mel(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def _mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=None)
def _mel_filterbank(sample_rate: int, n_fft: int, n_filters: int) -> np.ndarray:
    """Triangular mel filters over the rfft bins, 0 Hz to Nyquist."""
    mel_points = np.linspace(_hz_to_mel(0.0), _hz_to_mel(sample_rate / 2.0), n_filters + 2)
    bins = np.floor((n_fft + 1) * _mel_to_hz(mel_points) / sample_rate).astype(int)
    bank = np.zeros((n_filters, n_fft // 2 + 1))
    for j in range(n_filters):
        for i in range(bins[j], bins[j + 1]):
            bank[j, i] = (i - bins[j]) / max(bins[j + 1] - bins[j], 1)
        for i in range(bins[j + 1], bins[j + 2]):
            bank[j, i] = (bins[j + 2] - i) / max(bins[j + 2] - bins[j + 1], 1)
    return bank


def _frame_signal(samples: np.ndarray, win: int, hop: int) -> np.ndarray:
    return sliding_window_view(samples, win)[::hop]


def _sincos_2pibyn(n: int, x: int, ang: float) -> tuple[float, float]:
    """(cos, sin) of 2*pi*x/n for x < n/4, reduced to the first octant as pocketfft does."""
    x <<= 3
    if x < n:
        return math.cos(x * ang), math.sin(x * ang)
    return math.sin((2 * n - x) * ang), math.cos((2 * n - x) * ang)


@lru_cache(maxsize=None)
def _dct2_constants(n: int) -> tuple[float, np.ndarray, np.ndarray, float]:
    """The 1/sqrt(2n) scale and the twiddles cos(2*pi*k/4n), k = 0..n-1.

    Both follow pocketfft to the last bit: the scale is rounded from long
    double like its norm_fct, and each twiddle is the product of two
    table entries (indexed by the low and the high bits of k) whose
    angle step 0.25*pi/(4n) is rounded from long double, like its
    sincos_2pibyn. Only the entries below k = n are built: the post-pass
    reads no other, and they all lie in the first quadrant. The twiddles
    come split into the post-pass operands.
    """
    size = 4 * n
    pi = np.longdouble("3.141592653589793238462643383279502884197")
    ang = float(np.longdouble(0.25) * pi / np.longdouble(size))
    nval = (size + 2) // 2
    shift = 1
    while (1 << shift) * (1 << shift) < nval:
        shift += 1
    mask = (1 << shift) - 1
    low = [_sincos_2pibyn(size, i, ang) for i in range(min(mask + 1, n))]
    high = [_sincos_2pibyn(size, i << shift, ang) for i in range(((n - 1) >> shift) + 1)]
    tw = [
        low[k & mask][0] * high[k >> shift][0] - low[k & mask][1] * high[k >> shift][1]
        for k in range(n)
    ]
    # The post-pass pairs column k = 1..half-1 with column n - k; column
    # n // 2 is read only for even n, where it is half.
    half = (n + 1) // 2
    scale = float(np.longdouble(1) / np.sqrt(np.longdouble(2 * n)))
    return scale, np.array(tw[1:half]), np.array(tw[n - 1 : n - half : -1]), tw[n // 2]


def _dct2_ortho(x: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-II of each row, bit for bit as pocketfft computes it.

    The steps are pocketfft's: a butterfly on odd/even pairs packed into
    halfcomplex order, one backward real FFT (numpy >= 2.0 runs the same
    pocketfft), scaling by 1/sqrt(2n), the twiddle post-pass and the
    orthonormal fix of coefficient 0.
    """
    rows, n = x.shape
    # The butterfly c[0] = 2 x[0], c[k] = x[k+1] + x[k] and c[k+1] =
    # x[k+1] - x[k] for odd k < n - 1, c[n-1] = 2 x[n-1] for even n, is
    # written straight into the halfcomplex spectrum viewed as floats
    # [re0, im0, re1, im1, ...], where c[j] (j >= 1) sits at index j + 1.
    packed = np.zeros((rows, n // 2 + 1), dtype=np.complex128)
    flat = packed.view(np.float64)
    np.multiply(x[:, 0], 2.0, out=flat[:, 0])
    np.add(x[:, 2:n:2], x[:, 1 : n - 1 : 2], out=flat[:, 2:n:2])
    np.subtract(x[:, 2:n:2], x[:, 1 : n - 1 : 2], out=flat[:, 3 : n + 1 : 2])
    if n % 2 == 0:
        np.multiply(x[:, n - 1], 2.0, out=flat[:, n])
    c = np.fft.irfft(packed, n, axis=1, norm="forward")
    scale, w_lo, w_hi, w_mid = _dct2_constants(n)
    c *= scale
    half = (n + 1) // 2
    lo = c[:, 1:half]
    hi = c[:, n - 1 : n - half : -1]
    t1 = w_lo * hi + w_hi * lo
    t2 = w_lo * lo - w_hi * hi
    lo[...] = 0.5 * (t1 + t2)
    hi[...] = 0.5 * (t1 - t2)
    if n % 2 == 0:
        c[:, half] *= w_mid
    c[:, 0] *= 0.5 * math.sqrt(2.0)
    return c


def _kernel_for(frames: np.ndarray):
    """The compiled kernels if they can read frames in place, else None (numpy runs)."""
    if frames.dtype != np.float64 or not frames.flags.aligned:
        return None
    return _native._load_kernel()


def _frame_args(frames: np.ndarray) -> tuple[int, ...]:
    """A frame array as the kernels take it: pointer, rows, length and both steps in values."""
    return (frames.ctypes.data, *frames.shape, *(stride // 8 for stride in frames.strides))


def _power_spectra(frames: np.ndarray, window: np.ndarray, n_fft: int) -> np.ndarray:
    """|rfft(frames * window, n_fft)|^2 / n_fft per row, from the kernel or numpy, equal bit for bit."""
    rows = frames.shape[0]
    power = np.empty((rows, n_fft // 2 + 1))
    kernel = _kernel_for(frames)
    if kernel is not None:
        if kernel.speechstyle_power_spectra(
            *_frame_args(frames), window.ctypes.data, n_fft, power.ctypes.data
        ) < 0:
            raise MemoryError(f"no memory for {n_fft}-point FFTs")
        return power
    for block in _row_blocks(rows, n_fft):
        spectrum = np.fft.rfft(frames[block] * window, n_fft, axis=1)
        np.square(spectrum.real, out=power[block])
        power[block] += spectrum.imag**2
    power /= n_fft
    return power


def _cepstra(frames: np.ndarray, sample_rate: int, cfg: FrameConfig) -> np.ndarray:
    """Mel cepstra of pre-emphasized frames, Hamming-windowed on the way into the FFT."""
    n_fft = _next_pow2(frames.shape[1])
    power = _power_spectra(frames, np.hamming(frames.shape[1]), n_fft)
    bank = _mel_filterbank(sample_rate, n_fft, cfg.n_filters)
    energies = power @ bank.T
    log_energies = np.log(np.maximum(energies, _ENERGY_FLOOR))
    # A copy, not a view: the n_filters - n_ceps unused columns are freed.
    return np.ascontiguousarray(_dct2_ortho(log_energies)[:, : cfg.n_ceps])


def _autocorrelate(frames: np.ndarray) -> np.ndarray:
    """Linear autocorrelation of each row, lags 0..len-1."""
    n = frames.shape[1]
    size = _next_pow2(2 * n)
    spectrum = np.fft.rfft(frames, size, axis=1)
    power = spectrum.real**2
    power += spectrum.imag**2
    del spectrum
    return np.fft.irfft(power, size, axis=1)[:, :n]


def _pitch_batch(frames: np.ndarray, sample_rate: int, cfg: FrameConfig) -> np.ndarray:
    """Per-frame f0 via the normalized autocorrelation peak; NaN = unvoiced.

    The compiled kernel runs the numpy steps below on each frame in turn,
    with the same bits, and keeps no table of autocorrelations.
    """
    rows, n = frames.shape
    out = np.full(rows, np.nan)
    lag_min = max(int(np.ceil(sample_rate / cfg.pitch_fmax)), 2)
    lag_max = min(int(np.floor(sample_rate / cfg.pitch_fmin)), n - 2)
    if lag_max < lag_min:
        return out
    size = _next_pow2(2 * n)
    kernel = _kernel_for(frames)
    if kernel is not None:
        if kernel.speechstyle_pitch(
            *_frame_args(frames), size, lag_min, lag_max, sample_rate,
            cfg.pitch_fmin, cfg.pitch_fmax, cfg.voicing_threshold, out.ctypes.data,
        ) < 0:
            raise MemoryError(f"no memory for {size}-point FFTs")
        return out
    # Refinement reads one lag either side of the peak, so up to lag_max + 1.
    ac = np.empty((rows, lag_max + 2))
    for block in _row_blocks(rows, size):
        ac[block] = _autocorrelate(frames[block])[:, : lag_max + 2]
    peak_lag = np.argmax(ac[:, lag_min : lag_max + 1], axis=1) + lag_min
    r0 = ac[:, 0]
    # The autocorrelation at the peak lag and its two neighbours.
    around = ac[np.arange(rows)[:, np.newaxis], peak_lag[:, np.newaxis] + (-1, 0, 1)]
    peak = around[:, 1]
    with np.errstate(invalid="ignore", divide="ignore"):
        voiced = (r0 > 0) & (peak / np.where(r0 > 0, r0, 1.0) >= cfg.voicing_threshold)
    idx = np.flatnonzero(voiced)
    lag = peak_lag[idx]
    left, mid, right = around[idx].T
    denom = left - 2.0 * mid + right
    with np.errstate(invalid="ignore", divide="ignore"):
        offset = 0.5 * (left - right) / denom
    # Parabolic refinement only at a true peak and within one lag.
    refined = np.where((denom < 0) & (np.abs(offset) <= 1.0), lag + offset, lag)
    f0 = sample_rate / refined
    out[idx] = np.minimum(np.maximum(f0, cfg.pitch_fmin), cfg.pitch_fmax)
    return out


def estimate_pitch(frame: np.ndarray, sample_rate: int, cfg: FrameConfig) -> float | None:
    """Estimate f0 of one raw frame; None when the frame is unvoiced.

    Voicing requires the autocorrelation peak inside the configured lag
    range, normalized by lag-0 energy, to reach voicing_threshold. Lags
    that do not fit into the frame are skipped.
    """
    frame = np.asarray(frame, dtype=np.float64)
    if frame.ndim != 1:
        raise ValueError(f"frame must be 1-D (samples), got shape {frame.shape}")
    f0 = _pitch_batch(frame[np.newaxis, :], sample_rate, cfg)[0]
    return None if np.isnan(f0) else float(f0)


def stress_contour(frames: np.ndarray) -> np.ndarray:
    """Log energy in dB per raw frame, floored at -120 dB."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2:
        raise ValueError(f"frames must be 2-D (frames x samples), got shape {frames.shape}")
    if frames.shape[1] == 0:
        raise ValueError(f"frames must hold at least one sample, got shape {frames.shape}")
    mean_square = np.empty(frames.shape[0])
    # numpy sums each row pairwise, as the kernel does, unless the frames lie
    # column by column in memory: it then squares them into a column-major
    # array and sums each row from left to right.
    kernel = _kernel_for(frames) if abs(frames.strides[1]) <= abs(frames.strides[0]) else None
    if kernel is not None:
        kernel.speechstyle_mean_square(*_frame_args(frames), mean_square.ctypes.data)
    else:
        for block in _row_blocks(*frames.shape):
            mean_square[block] = np.mean(frames[block] ** 2, axis=1)
    return 10.0 * np.log10(np.maximum(mean_square, 10.0 ** (STRESS_FLOOR_DB / 10.0)))


def extract_features(clip: AudioClip, cfg: FrameConfig) -> FeatureBundle:
    """Cut a clip into frames and extract all three feature streams.

    Spectral frames are pre-emphasized and Hamming-windowed before the
    mel filterbank and DCT; pitch and stress read the raw frames so that
    amplitude scaling cannot flip voicing decisions or shift f0.

    Raises ClipTooShort when the clip cannot fill a single window.
    """
    win, hop = _window_sizes(cfg, clip.sample_rate)
    samples = clip.samples
    if samples.size < win:
        raise ClipTooShort(
            f"clip of {samples.size} samples is shorter than one {win}-sample window"
        )
    emphasized = np.concatenate(
        ([samples[0]], samples[1:] - cfg.preemphasis * samples[:-1])
    )
    spectral = _cepstra(_frame_signal(emphasized, win, hop), clip.sample_rate, cfg)
    del emphasized  # freed before the pitch pass allocates
    raw_frames = _frame_signal(samples, win, hop)
    pitch = _pitch_batch(raw_frames, clip.sample_rate, cfg)
    stress = stress_contour(raw_frames)
    return FeatureBundle(
        spectral=spectral, pitch=pitch, stress=stress, config=cfg, sample_rate=clip.sample_rate
    )
