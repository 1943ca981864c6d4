"""Utterance comparison: DTW alignment, the distance triplet and its scalarization."""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _native
from .errors import ConfigMismatch, DimensionMismatch
from .features import FeatureBundle

# Aligned contours with variance below this are treated as constant.
DEGENERATE_VARIANCE = 1e-10

_DIAG, _VERT, _HORIZ = 1, 2, 3


@dataclass(frozen=True)
class Triplet:
    """Articulation distance plus pitch and stress similarities.

    id is a nonnegative length-normalized spectral distance; p and ir
    are correlations in [-1, 1]. Lower id and higher p/ir mean closer.
    """

    id: float
    p: float
    ir: float

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ValueError("id must be nonnegative")
        if not (-1.0 <= self.p <= 1.0 and -1.0 <= self.ir <= 1.0):
            raise ValueError("p and ir must lie in [-1, 1]")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.id, self.p, self.ir)


class NormKind(Enum):
    L1 = "l1"
    L2 = "l2"
    LINF = "linf"


def triplet_components(t: Triplet) -> tuple[float, float, float]:
    """Map a triplet onto three [0, 1] penalties, 0 meaning identical."""
    return (t.id / (1.0 + t.id), (1.0 - t.p) / 2.0, (1.0 - t.ir) / 2.0)


def scalarize(t: Triplet, norm: NormKind = NormKind.L2) -> float:
    """Collapse a triplet to a single nonnegative score, lower is closer."""
    v = triplet_components(t)
    if norm is NormKind.L1:
        return v[0] + v[1] + v[2]
    if norm is NormKind.L2:
        return math.sqrt(v[0] ** 2 + v[1] ** 2 + v[2] ** 2)
    return max(v)


@dataclass(frozen=True, eq=False)
class AlignmentPath:
    """Monotone frame pairing with its accumulated weighted cost.

    rows[k] and cols[k] are the frame indices of the k-th pair, from
    (0, 0) to (len(a) - 1, len(b) - 1); dtw_align returns both as
    C-contiguous int64 arrays.
    """

    rows: np.ndarray
    cols: np.ndarray
    cost: float

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.rows.tolist(), self.cols.tolist()))


def _align_kernel(kernel, a: np.ndarray, b: np.ndarray) -> AlignmentPath:
    a = np.ascontiguousarray(a)
    b = np.ascontiguousarray(b)
    n, m = a.shape[0], b.shape[0]
    path = np.empty((2, n + m - 1), dtype=np.int64)
    address = _native.address(path)
    cost = ctypes.c_double()
    start = kernel.speechstyle_dtw(
        _native.address(a), _native.address(b), n, m, a.shape[1],
        address, address + path.strides[0], ctypes.byref(cost),
    )
    if start < 0:
        raise MemoryError(f"no memory to align tracks of {n} and {m} frames")
    return AlignmentPath(rows=path[0, start:], cols=path[1, start:], cost=cost.value)


def _align_python(a: np.ndarray, b: np.ndarray) -> AlignmentPath:
    """The recurrence in plain Python: the kernel's specification and fallback."""
    dist = np.sqrt(((a[:, np.newaxis, :] - b[np.newaxis, :, :]) ** 2).sum(axis=2))
    n, m = dist.shape
    d = dist.tolist()
    acc = [[0.0] * m for _ in range(n)]
    move = [[0] * m for _ in range(n)]
    acc[0][0] = 2.0 * d[0][0]
    for j in range(1, m):
        acc[0][j] = acc[0][j - 1] + d[0][j]
        move[0][j] = _HORIZ
    for i in range(1, n):
        acc[i][0] = acc[i - 1][0] + d[i][0]
        move[i][0] = _VERT
    for i in range(1, n):
        row = acc[i]
        above = acc[i - 1]
        costs = d[i]
        moves = move[i]
        for j in range(1, m):
            c = costs[j]
            diag = above[j - 1] + 2.0 * c
            vert = above[j] + c
            horiz = row[j - 1] + c
            if diag <= vert and diag <= horiz:
                row[j] = diag
                moves[j] = _DIAG
            elif vert <= horiz:
                row[j] = vert
                moves[j] = _VERT
            else:
                row[j] = horiz
                moves[j] = _HORIZ
    pairs = []
    i, j = n - 1, m - 1
    while True:
        pairs.append((i, j))
        step = move[i][j]
        if step == _DIAG:
            i, j = i - 1, j - 1
        elif step == _VERT:
            i -= 1
        elif step == _HORIZ:
            j -= 1
        else:
            break
    pairs.reverse()
    rows, cols = np.array(pairs, dtype=np.int64).T.copy()
    return AlignmentPath(rows=rows, cols=cols, cost=acc[n - 1][m - 1])


def dtw_align(a: np.ndarray, b: np.ndarray) -> AlignmentPath:
    """Globally optimal DTW alignment of two 2-D (frames x coefficients) feature tracks.

    Per-cell cost is the Euclidean distance between frame vectors; step
    weights are 2 for a diagonal move and 1 for horizontal or vertical,
    with the start cell weighted like a diagonal entry so that the
    weights along any full path sum to len(a) + len(b). Ties during
    backtrace prefer diagonal, then vertical, then horizontal.

    The recurrence runs in a C kernel compiled on first use (_dtw.c);
    where that cannot be built or loaded it runs in Python, with equal
    results bit for bit.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(
            f"tracks must be 2-D (frames x coefficients), got shapes {a.shape} and {b.shape}"
        )
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("cannot align an empty track")
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatch(
            f"tracks have {a.shape[1]} and {b.shape[1]} coefficients per frame"
        )
    kernel = _native._load_kernel()
    if kernel is None:
        return _align_python(a, b)
    return _align_kernel(kernel, a, b)


# _deviations and _variance run the ufunc reductions of np.mean and np.var
# in their order, so the bits match, without those functions' Python
# wrappers, which cost more than the sums on these short contours.
def _deviations(x: np.ndarray) -> np.ndarray:
    """x minus its mean, the mean taken as sum / n."""
    x = np.asarray(x, dtype=np.float64)
    return x - np.add.reduce(x) / x.size


def _variance(deviations: np.ndarray) -> float:
    """Population variance from _deviations' output; equals np.var bit for bit."""
    return np.add.reduce(np.square(deviations)) / deviations.size


def _similarity(u: np.ndarray, v: np.ndarray) -> float:
    """Pearson correlation with the degenerate-variance convention.

    Two flat contours are perfectly similar; a flat contour against a
    moving one is maximally uninformative and scores 0.
    """
    du = _deviations(u)
    dv = _deviations(v)
    u_flat = _variance(du) < DEGENERATE_VARIANCE
    v_flat = _variance(dv) < DEGENERATE_VARIANCE
    if u_flat and v_flat:
        return 1.0
    if u_flat or v_flat:
        return 0.0
    # np.add.reduce sums in numpy's pairwise order on every host; np.dot
    # runs a BLAS kernel picked from the CPU.
    r = float(
        np.add.reduce(du * dv) / np.sqrt(np.add.reduce(du * du) * np.add.reduce(dv * dv))
    )
    return min(max(r, -1.0), 1.0)


def _path_similarity(
    a: FeatureBundle, b: FeatureBundle, rows: np.ndarray, cols: np.ndarray
) -> tuple[float, float]:
    """p and ir along the path (rows, cols) in numpy: the kernel's specification and fallback."""
    pitch_a = a.pitch[rows]
    pitch_b = b.pitch[cols]
    both_voiced = ~np.isnan(pitch_a) & ~np.isnan(pitch_b)
    if both_voiced.sum() < 2:
        p = 0.0
    else:
        p = _similarity(np.log(pitch_a[both_voiced]), np.log(pitch_b[both_voiced]))
    return p, _similarity(a.stress[rows], b.stress[cols])


def _path_similarity_kernel(
    kernel, a: FeatureBundle, b: FeatureBundle, rows: np.ndarray, cols: np.ndarray
) -> tuple[float, float]:
    """_path_similarity in the compiled kernel, equal bit for bit.

    rows and cols must be C-contiguous int64 arrays, as dtw_align returns them.
    """
    # Held until the call returns: on Python 3.12 and later, two threads
    # may both make a bundle's tracks, and the copy cached last frees the other.
    tracks_a, tracks_b = a._path_tracks, b._path_tracks
    out = (ctypes.c_double * 2)()
    if kernel.speechstyle_path_similarity(
        _native.address(rows), _native.address(cols), rows.size,
        _native.address(tracks_a), tracks_a.shape[1],
        _native.address(tracks_b), tracks_b.shape[1], out,
    ) < 0:
        raise MemoryError(f"no memory to score a path of {rows.size} pairs")
    return out[0], out[1]


def _sorts_after(a: FeatureBundle, b: FeatureBundle) -> bool:
    """Whether a sorts after b: by frame count, then by the bytes of its tracks."""
    if a.frame_count != b.frame_count:
        return a.frame_count > b.frame_count
    return [t.tobytes() for t in (a.spectral, a.pitch, a.stress)] > [
        t.tobytes() for t in (b.spectral, b.pitch, b.stress)
    ]


def compute_triplet(a: FeatureBundle, b: FeatureBundle) -> Triplet:
    """Compare two utterances along articulation, pitch, and stress.

    One spectral DTW alignment drives all three parts: id is the path
    cost divided by the summed frame counts, p correlates log-f0 over
    path pairs voiced on both sides (0 when fewer than two exist), and
    ir correlates the stress contours over every path pair.

    p and ir are summed in the compiled kernel (_dtw.c) where it loads,
    else in numpy (_path_similarity), with equal results bit for bit.
    """
    if a.config != b.config:
        raise ConfigMismatch("feature bundles come from different frame configs")
    # Tied paths are broken by move order, which swapping the tracks
    # changes; one fixed orientation per pair keeps the triplet symmetric.
    # p and ir do not depend on the order of the bundles, bit for bit.
    if _sorts_after(a, b):
        a, b = b, a
    path = dtw_align(a.spectral, b.spectral)
    kernel = _native._load_kernel()
    if kernel is None:
        p, ir = _path_similarity(a, b, path.rows, path.cols)
    else:
        p, ir = _path_similarity_kernel(kernel, a, b, path.rows, path.cols)
    return Triplet(id=path.cost / (a.frame_count + b.frame_count), p=p, ir=ir)
