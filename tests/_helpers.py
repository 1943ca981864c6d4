"""Independent oracles and bundle builders shared by the test suite."""

import math
import struct
from pathlib import Path

import numpy as np

from speechstyle import FeatureBundle, FrameConfig, ManifestEntry, compute_triplet, scalarize

DEFAULT_CFG = FrameConfig()


def make_bundle(rng, frames, ceps=3, voiced_prob=1.0, cfg=DEFAULT_CFG):
    """Random but smooth feature tracks, shaped like real extractions."""
    spectral = np.cumsum(rng.normal(scale=0.8, size=(frames, ceps)), axis=0)
    f0 = np.clip(
        120.0 * 2.0 ** (np.cumsum(rng.normal(scale=0.4, size=frames)) / 12.0),
        60.0,
        480.0,
    )
    pitch = np.where(rng.random(frames) < voiced_prob, f0, np.nan)
    stress = np.cumsum(rng.normal(scale=1.5, size=frames)) - 25.0
    return FeatureBundle(
        spectral=spectral, pitch=pitch, stress=stress, config=cfg, sample_rate=16000
    )


def fake_corpus_entries(groups, speakers_per_group, prompts, skip=()):
    """Manifest entries of a groups x speakers x prompts grid; the clips do not exist.

    The (prompt, group) cells in skip are left out.
    """
    entries = []
    for g in range(groups):
        for s in range(speakers_per_group):
            speaker = f"g{g}s{s:02d}"
            for w in range(prompts):
                if (w, g) in skip:
                    continue
                entries.append(
                    ManifestEntry(
                        path=Path(f"/none/{speaker}_p{w:02d}.wav"),
                        speaker=speaker,
                        prompt=w,
                        expert1=g,
                        expert2=g,
                        truth=g,
                    )
                )
    return entries


def euclid(u, v):
    # d * d, not d ** 2: Python's float power goes through libm pow, which
    # is off by one ulp for about 1 in 1,000 squares; numpy squares by product.
    return math.sqrt(sum((x - y) * (x - y) for x, y in zip(u, v)))


def brute_force_dtw_cost(a, b):
    """Minimum path cost by enumerating every monotone path.

    The start cell and diagonal steps weigh their cell cost by 2,
    horizontal and vertical steps by 1, matching the alignment's step
    pattern. Costs accumulate left to right along the path so a DP that
    sums the same way must agree bit for bit.
    """
    n, m = len(a), len(b)
    d = [[euclid(a[i], b[j]) for j in range(m)] for i in range(n)]
    best = [math.inf]

    def walk(i, j, acc):
        if i == n - 1 and j == m - 1:
            if acc < best[0]:
                best[0] = acc
            return
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, acc + 2.0 * d[i + 1][j + 1])
        if i + 1 < n:
            walk(i + 1, j, acc + d[i + 1][j])
        if j + 1 < m:
            walk(i, j + 1, acc + d[i][j + 1])

    walk(0, 0, 2.0 * d[0][0])
    return best[0]


def pick_f0(ac, lag_min, lag_max, sample_rate, fmin, fmax, threshold):
    """The f0 of one frame from its autocorrelation ac, in Python floats; NaN if unvoiced.

    The first largest lag in lag_min..lag_max voices the frame if it
    reaches threshold times a positive lag 0; a parabola through it and
    its neighbours refines it by at most one lag at a true peak.
    """
    peak_lag = int(np.argmax(ac[lag_min : lag_max + 1])) + lag_min
    if not (ac[0] > 0 and ac[peak_lag] / ac[0] >= threshold):
        return math.nan
    left, mid, right = (float(v) for v in ac[peak_lag - 1 : peak_lag + 2])
    lag = float(peak_lag)
    denom = left - 2.0 * mid + right
    if denom < 0:
        offset = 0.5 * (left - right) / denom
        if abs(offset) <= 1.0:
            lag += offset
    return min(max(sample_rate / lag, fmin), fmax)


def quadruple_loop_average(bundles):
    """Literal ordered-pair average, diagonal included, divisor N*N."""
    n = len(bundles)
    s_id = s_p = s_ir = 0.0
    for k in range(n):
        for l in range(n):
            t = compute_triplet(bundles[k], bundles[l])
            s_id += t.id
            s_p += t.p
            s_ir += t.ir
    return (s_id / (n * n), s_p / (n * n), s_ir / (n * n))


def ordered_pair_scalar_std(bundles, norm):
    """Population standard deviation of scalars over ordered pairs k != l."""
    n = len(bundles)
    scalars = []
    for k in range(n):
        for l in range(n):
            if k != l:
                scalars.append(scalarize(compute_triplet(bundles[k], bundles[l]), norm))
    return float(np.std(scalars)) if scalars else 0.0


def fmt_chunk(tag, channels, rate, bits, sub_tag=None):
    """A WAV fmt chunk body; with sub_tag, a WAVE_FORMAT_EXTENSIBLE one."""
    align = channels * (bits // 8)
    body = struct.pack("<HHIIHH", tag, channels, rate, rate * align, align, bits)
    if sub_tag is not None:
        guid = struct.pack("<I", sub_tag) + b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
        body += struct.pack("<HHI", 22, bits, 0) + guid
    return body


def riff_wav(chunks):
    """RIFF WAVE bytes holding (id, body) chunks in order, each padded to even length."""
    body = b"WAVE" + b"".join(
        cid + struct.pack("<I", len(data)) + data + b"\x00" * (len(data) % 2)
        for cid, data in chunks
    )
    return b"RIFF" + struct.pack("<I", len(body)) + body


def write_float_wav(path, rate, data):
    """Write float32 or float64 samples (frames, or frames x channels) as IEEE float."""
    data = np.asarray(data)
    channels = 1 if data.ndim == 1 else data.shape[1]
    fmt = fmt_chunk(0x0003, channels, rate, 8 * data.dtype.itemsize)
    samples = data.astype(f"<f{data.dtype.itemsize}").tobytes()
    path.write_bytes(riff_wav([(b"fmt ", fmt), (b"data", samples)]))
