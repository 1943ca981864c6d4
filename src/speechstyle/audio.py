"""WAV decoding, normalization, and edge-silence trimming."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import UnsupportedRate

SUPPORTED_RATES = (8000, 16000, 22050, 44100, 48000)

# Edge samples quieter than this are considered silence when trimming.
SILENCE_FLOOR_DB = -60.0

_WAVE_FORMAT_PCM = 0x0001
_WAVE_FORMAT_IEEE_FLOAT = 0x0003
_WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# Last 12 bytes of a WAVE_FORMAT_EXTENSIBLE sub-format GUID whose first
# four bytes hold an ordinary format tag (RFC 2361).
_SUBFORMAT_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


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


def _mono_samples(raw: bytes, start: int, size: int, fmt: tuple, path) -> np.ndarray:
    """The data chunk at raw[start:start + size] as float64, channels averaged."""
    tag, channels, _, _, block_align, bits = fmt
    width = block_align // channels if channels else 0
    if tag == _WAVE_FORMAT_PCM and width == 2 and bits > 8:
        dtype = "<i2"
    elif tag == _WAVE_FORMAT_IEEE_FLOAT and bits in (32, 64) and width * 8 == bits:
        dtype = f"<f{width}"
    else:
        raise ValueError(
            f"unsupported WAV sample format (format tag {tag:#06x}, {bits}-bit,"
            f" {channels} channels) in {path}"
        )
    frames = min(size, len(raw) - start) // block_align
    samples = np.frombuffer(raw, dtype=dtype, count=frames * channels, offset=start)
    samples = samples.astype(np.float64)
    if dtype == "<i2":
        samples /= 32767.0
    elif not np.isfinite(samples).all():
        raise ValueError(f"non-finite WAV samples (NaN or inf) in {path}")
    if channels > 1:
        samples = samples.reshape(frames, channels).mean(axis=1)
    return samples


def read_wav(path: str | Path) -> AudioClip:
    """Decode a RIFF WAV file into a normalized mono clip.

    16-bit PCM is scaled by 1/32767, mirroring write_wav; 32- and 64-bit
    float is taken as-is but must be finite. Either way the result is
    clipped to [-1, 1] and stereo is down-mixed by averaging the
    channels. WAVE_FORMAT_EXTENSIBLE headers are read through their
    sub-format; chunks other than fmt and data are skipped. Any other
    sample format, or a file that is not RIFF WAVE or has no data chunk,
    raises ValueError naming the path; a rate outside SUPPORTED_RATES
    raises UnsupportedRate naming the path.
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    if raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise ValueError(f"not a RIFF WAVE file: {path}")
    fmt = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk, size = struct.unpack_from("<4sI", raw, pos)
        pos += 8
        if chunk == b"fmt ":
            if size < 16 or pos + 16 > len(raw):
                raise ValueError(f"truncated WAV fmt chunk in {path}")
            fmt = struct.unpack_from("<HHIIHH", raw, pos)
            if fmt[0] == _WAVE_FORMAT_EXTENSIBLE and size >= 40:
                if raw[pos + 28 : pos + 40] == _SUBFORMAT_GUID_TAIL:
                    fmt = struct.unpack_from("<I", raw, pos + 24) + fmt[1:]
        elif chunk == b"data":
            if fmt is None:
                raise ValueError(f"WAV data chunk before any fmt chunk in {path}")
            if fmt[2] not in SUPPORTED_RATES:
                raise UnsupportedRate(f"{path}: sample rate {fmt[2]} not in {SUPPORTED_RATES}")
            samples = _mono_samples(raw, pos, size, fmt, path)
            return AudioClip(np.clip(samples, -1.0, 1.0), fmt[2])
        # Chunks are padded to an even length.
        pos += size + (size & 1)
    raise ValueError(f"no WAV data chunk in {path}")


def write_wav(path: str | Path, clip: AudioClip) -> None:
    """Write a clip as 16-bit PCM mono under a 44-byte RIFF header."""
    pcm = np.clip(np.round(clip.samples * 32767.0), -32768, 32767).astype("<i2")
    rate = clip.sample_rate
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + pcm.nbytes, b"WAVE",
        b"fmt ", 16, _WAVE_FORMAT_PCM, 1, rate, 2 * rate, 2, 16,
        b"data", pcm.nbytes,
    )
    with open(path, "wb") as handle:
        handle.write(header)
        handle.write(pcm.tobytes())


def strip_silence(clip: AudioClip) -> AudioClip:
    """Trim leading and trailing samples below the silence floor.

    Interior quiet spans are kept. A clip that never rises above the
    floor comes back empty; downstream framing rejects it.
    """
    threshold = 10.0 ** (SILENCE_FLOOR_DB / 20.0)
    loud = np.flatnonzero(np.abs(clip.samples) >= threshold)
    if loud.size == 0:
        return AudioClip(clip.samples[:0], clip.sample_rate)
    return AudioClip(clip.samples[loud[0] : loud[-1] + 1], clip.sample_rate)
