"""WAV decoding, normalization, and edge-silence trimming."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from .errors import UnsupportedRate

SUPPORTED_RATES = (8000, 16000, 22050, 44100, 48000)

# Edge samples quieter than this are considered silence when trimming.
SILENCE_FLOOR_DB = -60.0


@dataclass(frozen=True)
class AudioClip:
    """Mono audio with samples normalized to [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self) -> None:
        if self.sample_rate not in SUPPORTED_RATES:
            raise UnsupportedRate(
                f"sample rate {self.sample_rate} not in {SUPPORTED_RATES}"
            )
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError("AudioClip samples must be one-dimensional")
        object.__setattr__(self, "samples", samples)

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate

    def scaled(self, gain: float) -> "AudioClip":
        return AudioClip(self.samples * gain, self.sample_rate)


def read_wav(path: str | Path) -> AudioClip:
    """Decode a RIFF WAV file into a normalized mono clip.

    16-bit PCM is scaled by 1/32767, mirroring write_wav; 32-bit float
    is taken as-is but must be finite. Either way the result is clipped
    to [-1, 1] and stereo is down-mixed by averaging the channels.
    """
    rate, data = wavfile.read(str(path))
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32767.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
        if not np.isfinite(samples).all():
            raise ValueError(f"non-finite WAV samples (NaN or inf) in {path}")
    else:
        raise ValueError(f"unsupported WAV sample format {data.dtype} in {path}")
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    samples = np.clip(samples, -1.0, 1.0)
    return AudioClip(samples, int(rate))


def write_wav(path: str | Path, clip: AudioClip) -> None:
    """Write a clip as 16-bit PCM mono."""
    pcm = np.clip(np.round(clip.samples * 32767.0), -32768, 32767).astype(np.int16)
    wavfile.write(str(path), clip.sample_rate, pcm)


def strip_silence(clip: AudioClip, floor_db: float = SILENCE_FLOOR_DB) -> AudioClip:
    """Trim leading and trailing samples below the silence floor.

    Interior quiet spans are kept. A clip that never rises above the
    floor comes back empty; downstream framing rejects it.
    """
    threshold = 10.0 ** (floor_db / 20.0)
    loud = np.flatnonzero(np.abs(clip.samples) >= threshold)
    if loud.size == 0:
        return AudioClip(clip.samples[:0], clip.sample_rate)
    return AudioClip(clip.samples[loud[0] : loud[-1] + 1], clip.sample_rate)
