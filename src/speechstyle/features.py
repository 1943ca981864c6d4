"""Frame-level feature extraction: mel cepstra, pitch, and stress contours.

All three contours are cut from the same frame grid so that one spectral
alignment can pair pitch and stress values frame for frame.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.fft import dct

from .audio import AudioClip
from .errors import ClipTooShort

# Floors keep log() away from zero without disturbing ordinary frames.
_ENERGY_FLOOR = 1e-12
STRESS_FLOOR_DB = -120.0


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
        return cls(**data)


@dataclass(frozen=True)
class FeatureBundle:
    """Per-frame features of one utterance.

    spectral : (frames, n_ceps) mel cepstra
    pitch    : (frames,) f0 in Hz, NaN where unvoiced
    stress   : (frames,) log energy in dB
    sample_rate : rate of the clip the frames were cut from, None if unknown
    """

    spectral: np.ndarray
    pitch: np.ndarray
    stress: np.ndarray
    config: FrameConfig
    sample_rate: int | None = None

    def __post_init__(self) -> None:
        frames = self.spectral.shape[0]
        if frames < 1:
            raise ValueError("feature bundle needs at least one frame")
        if self.pitch.shape != (frames,) or self.stress.shape != (frames,):
            raise ValueError("spectral, pitch, and stress frame counts differ")

    @property
    def frame_count(self) -> int:
        return self.spectral.shape[0]


def _window_sizes(cfg: FrameConfig, sample_rate: int) -> tuple[int, int]:
    win = int(round(cfg.window_ms * sample_rate / 1000.0))
    hop = int(round(cfg.hop_ms * sample_rate / 1000.0))
    return max(win, 1), max(hop, 1)


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


def _cepstra(frames: np.ndarray, sample_rate: int, cfg: FrameConfig) -> np.ndarray:
    n_fft = _next_pow2(frames.shape[1])
    spectrum = np.fft.rfft(frames, n_fft, axis=1)
    power = (spectrum.real**2 + spectrum.imag**2) / n_fft
    bank = _mel_filterbank(sample_rate, n_fft, cfg.n_filters)
    energies = power @ bank.T
    log_energies = np.log(np.maximum(energies, _ENERGY_FLOOR))
    return dct(log_energies, type=2, axis=1, norm="ortho")[:, : cfg.n_ceps]


def _autocorrelate(frames: np.ndarray) -> np.ndarray:
    """Linear autocorrelation of each row, lags 0..len-1."""
    n = frames.shape[1]
    size = _next_pow2(2 * n)
    spectrum = np.fft.rfft(frames, size, axis=1)
    power = spectrum.real**2 + spectrum.imag**2
    return np.fft.irfft(power, size, axis=1)[:, :n]


def _pitch_batch(frames: np.ndarray, sample_rate: int, cfg: FrameConfig) -> np.ndarray:
    """Per-frame f0 via the normalized autocorrelation peak; NaN = unvoiced."""
    n = frames.shape[1]
    out = np.full(frames.shape[0], np.nan)
    lag_min = max(int(np.ceil(sample_rate / cfg.pitch_fmax)), 2)
    lag_max = min(int(np.floor(sample_rate / cfg.pitch_fmin)), n - 2)
    if lag_max < lag_min:
        return out
    ac = _autocorrelate(frames)
    r0 = ac[:, 0]
    peak_lag = np.argmax(ac[:, lag_min : lag_max + 1], axis=1) + lag_min
    rows = np.arange(frames.shape[0])
    peak = ac[rows, peak_lag]
    with np.errstate(invalid="ignore", divide="ignore"):
        voiced = (r0 > 0) & (peak / np.where(r0 > 0, r0, 1.0) >= cfg.voicing_threshold)
    for i in np.flatnonzero(voiced):
        lag = float(peak_lag[i])
        left, mid, right = ac[i, peak_lag[i] - 1 : peak_lag[i] + 2]
        denom = left - 2.0 * mid + right
        if denom < 0:
            offset = 0.5 * (left - right) / denom
            if abs(offset) <= 1.0:
                lag += offset
        f0 = sample_rate / lag
        out[i] = min(max(f0, cfg.pitch_fmin), cfg.pitch_fmax)
    return out


def estimate_pitch(frame: np.ndarray, sample_rate: int, cfg: FrameConfig) -> float | None:
    """Estimate f0 of one raw frame; None when the frame is unvoiced.

    Voicing requires the autocorrelation peak inside the configured lag
    range, normalized by lag-0 energy, to reach voicing_threshold. Lags
    that do not fit into the frame are skipped.
    """
    frame = np.asarray(frame, dtype=np.float64)
    f0 = _pitch_batch(frame[np.newaxis, :], sample_rate, cfg)[0]
    return None if np.isnan(f0) else float(f0)


def stress_contour(frames: np.ndarray) -> np.ndarray:
    """Log energy in dB per raw frame, floored at -120 dB."""
    mean_square = np.mean(np.asarray(frames, dtype=np.float64) ** 2, axis=1)
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
    raw_frames = _frame_signal(samples, win, hop)
    emphasized = np.concatenate(
        ([samples[0]], samples[1:] - cfg.preemphasis * samples[:-1])
    )
    windowed = _frame_signal(emphasized, win, hop) * np.hamming(win)
    spectral = _cepstra(windowed, clip.sample_rate, cfg)
    pitch = _pitch_batch(raw_frames, clip.sample_rate, cfg)
    stress = stress_contour(raw_frames)
    return FeatureBundle(
        spectral=spectral, pitch=pitch, stress=stress, config=cfg, sample_rate=clip.sample_rate
    )
