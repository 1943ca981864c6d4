import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import brute_force_dtw_cost, make_bundle
from speechstyle import FrameConfig, _native, compute_triplet, dtw_align, metric
from speechstyle.errors import ConfigMismatch, DimensionMismatch


def test_dtw_worked_example():
    # third frame of a matches the second frame of b; everything else
    # pairs with the zero frames, so a zero-cost path exists
    path = dtw_align(np.array([[0.0], [0.0], [1.0]]), np.array([[0.0], [1.0]]))
    assert path.cost == 0.0
    assert path.pairs[0] == (0, 0)
    assert path.pairs[-1] == (2, 1)


def test_dtw_identity_cost_zero():
    rng = np.random.default_rng(21)
    track = rng.normal(size=(30, 13))
    assert dtw_align(track, track).cost == 0.0


def test_dtw_matches_exhaustive_enumeration():
    rng = np.random.default_rng(22)
    for _ in range(60):
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        c = int(rng.integers(1, 4))
        a = rng.normal(size=(n, c))
        b = rng.normal(size=(m, c))
        assert dtw_align(a, b).cost == brute_force_dtw_cost(a.tolist(), b.tolist())


def test_dtw_cost_is_symmetric():
    rng = np.random.default_rng(23)
    for _ in range(20):
        a = rng.normal(size=(int(rng.integers(2, 25)), 5))
        b = rng.normal(size=(int(rng.integers(2, 25)), 5))
        assert dtw_align(a, b).cost == dtw_align(b, a).cost


def test_dtw_path_is_monotone_and_complete():
    rng = np.random.default_rng(24)
    a = rng.normal(size=(12, 4))
    b = rng.normal(size=(9, 4))
    path = dtw_align(a, b)
    assert path.pairs[0] == (0, 0)
    assert path.pairs[-1] == (11, 8)
    for (i0, j0), (i1, j1) in zip(path.pairs, path.pairs[1:]):
        assert (i1 - i0, j1 - j0) in {(1, 0), (0, 1), (1, 1)}


@st.composite
def _tracks(draw, max_frames=40, dims=st.one_of(st.integers(1, 40), st.sampled_from([129, 136, 200, 300]))):
    """Two tracks of one dimension; dims over 128 take numpy's pairwise split."""
    n, m, dim = draw(st.integers(1, max_frames)), draw(st.integers(1, max_frames)), draw(dims)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        # small integers give many exactly equal distances, so ties decide the path
        return rng.integers(-2, 3, size=(n, dim)) * 1.0, rng.integers(-2, 3, size=(m, dim)) * 1.0
    scale = draw(st.sampled_from([1e-3, 1.0, 50.0]))
    return rng.normal(scale=scale, size=(n, dim)), rng.normal(scale=scale, size=(m, dim))


@settings(max_examples=300, deadline=None)
@given(_tracks())
def test_dtw_matches_python_recurrence_bit_for_bit(tracks):
    a, b = tracks
    got, spec = dtw_align(a, b), metric._align_python(a, b)
    assert got.cost == spec.cost
    assert np.array_equal(got.rows, spec.rows) and np.array_equal(got.cols, spec.cols)


@settings(max_examples=200, deadline=None)
@given(_tracks(max_frames=25), st.randoms(use_true_random=False))
def test_dtw_cost_is_at_most_any_sampled_path(tracks, random):
    a, b = tracks
    n, m = len(a), len(b)
    d = np.sqrt(((a[:, np.newaxis, :] - b[np.newaxis, :, :]) ** 2).sum(axis=2)).tolist()
    i = j = 0
    cost = 2.0 * d[0][0]
    while (i, j) != (n - 1, m - 1):
        di, dj = random.choice([s for s in ((1, 1), (1, 0), (0, 1)) if i + s[0] < n and j + s[1] < m])
        i, j = i + di, j + dj
        cost += (2.0 if di and dj else 1.0) * d[i][j]
    assert dtw_align(a, b).cost <= cost


# Up to 7 coefficients numpy sums squares left to right, as the oracle does.
@settings(max_examples=200, deadline=None)
@given(_tracks(max_frames=6, dims=st.integers(1, 7)))
def test_dtw_cost_matches_brute_force_on_small_shapes(tracks):
    a, b = tracks
    assert dtw_align(a, b).cost == brute_force_dtw_cost(a.tolist(), b.tolist())


def test_dtw_rejects_mismatched_coefficients():
    with pytest.raises(DimensionMismatch):
        dtw_align(np.zeros((3, 4)), np.zeros((3, 5)))


@pytest.mark.parametrize("path", ["kernel", "python"])
@pytest.mark.parametrize(
    "a, b, shapes",
    [
        (np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0]), r"\(3,\) and \(2,\)"),
        (np.zeros((2, 3, 4)), np.zeros((3, 3, 4)), r"\(2, 3, 4\) and \(3, 3, 4\)"),
        (np.zeros((2, 3)), np.zeros(3), r"\(2, 3\) and \(3,\)"),
        (np.float64(1.0), np.zeros((2, 3)), r"\(\) and \(2, 3\)"),
    ],
    ids=["1-d", "3-d", "2-d-against-1-d", "scalar"],
)
def test_dtw_rejects_tracks_that_are_not_2d(monkeypatch, path, a, b, shapes):
    # A 1-D track once read as one frame and a 3-D one as frames of its second axis only.
    if path == "python":
        monkeypatch.setattr(_native, "_load_kernel", lambda: None)
    with pytest.raises(ValueError, match=f"^tracks must be 2-D .*, got shapes {shapes}$"):
        dtw_align(a, b)


def test_triplet_identity():
    rng = np.random.default_rng(25)
    for _ in range(10):
        fb = make_bundle(rng, int(rng.integers(3, 40)), ceps=13)
        t = compute_triplet(fb, fb)
        assert abs(t.id) <= 1e-9
        assert abs(t.p - 1.0) <= 1e-9
        assert abs(t.ir - 1.0) <= 1e-9


def test_triplet_symmetry():
    rng = np.random.default_rng(26)
    for _ in range(25):
        a = make_bundle(rng, int(rng.integers(3, 30)), ceps=6, voiced_prob=0.9)
        b = make_bundle(rng, int(rng.integers(3, 30)), ceps=6, voiced_prob=0.9)
        t_ab = compute_triplet(a, b)
        t_ba = compute_triplet(b, a)
        assert abs(t_ab.id - t_ba.id) <= 1e-9
        assert abs(t_ab.p - t_ba.p) <= 1e-9
        assert abs(t_ab.ir - t_ba.ir) <= 1e-9


_SEEDS = st.integers(0, 2**32 - 1)
_VOICING = st.sampled_from([0.0, 0.3, 0.9, 1.0])


@settings(max_examples=150, deadline=None)
@given(_SEEDS, st.integers(1, 30), st.integers(1, 30), _VOICING, st.booleans())
def test_triplet_id_is_exactly_symmetric(seed, n, m, voiced_prob, tied):
    rng = np.random.default_rng(seed)
    a = make_bundle(rng, n, ceps=6, voiced_prob=voiced_prob)
    b = make_bundle(rng, m, ceps=6, voiced_prob=voiced_prob)
    if tied:
        # 0/1 frames give many exactly equal distances, so ties decide the path
        a, b = (
            dataclasses.replace(u, spectral=rng.integers(0, 2, size=u.spectral.shape) * 1.0)
            for u in (a, b)
        )
    assert compute_triplet(a, b).id == compute_triplet(b, a).id
    assert compute_triplet(a, b) == compute_triplet(b, a)


@settings(max_examples=150, deadline=None)
@given(_SEEDS, st.integers(1, 40), _VOICING)
def test_triplet_of_a_bundle_with_itself_is_exact(seed, frames, voiced_prob):
    a = make_bundle(np.random.default_rng(seed), frames, ceps=13, voiced_prob=voiced_prob)
    t = compute_triplet(a, a)
    assert t.id == 0.0
    assert t.ir == 1.0
    if np.count_nonzero(~np.isnan(a.pitch)) >= 2:
        assert t.p == 1.0


def test_triplet_id_divides_the_path_cost_by_the_summed_frame_counts():
    # Unequal lengths tell n + m from 2 * max(n, m); the shorter bundle
    # goes first, the orientation compute_triplet aligns in.
    rng = np.random.default_rng(33)
    for n, m in [(3, 8), (10, 11), (1, 20), (17, 40)]:
        a = make_bundle(rng, n, ceps=13)
        b = make_bundle(rng, m, ceps=13)
        cost = dtw_align(a.spectral, b.spectral).cost
        assert cost > 0
        assert compute_triplet(a, b).id == cost / (n + m)
        assert compute_triplet(b, a).id == cost / (n + m)


def test_triplet_ranges():
    rng = np.random.default_rng(27)
    for _ in range(25):
        a = make_bundle(rng, int(rng.integers(2, 20)), voiced_prob=0.7)
        b = make_bundle(rng, int(rng.integers(2, 20)), voiced_prob=0.7)
        t = compute_triplet(a, b)
        assert t.id >= 0.0
        assert -1.0 <= t.p <= 1.0
        assert -1.0 <= t.ir <= 1.0


def test_triplet_rejects_config_mismatch():
    rng = np.random.default_rng(28)
    a = make_bundle(rng, 5)
    b = make_bundle(rng, 5, cfg=FrameConfig(window_ms=20.0, hop_ms=10.0))
    with pytest.raises(ConfigMismatch):
        compute_triplet(a, b)


def test_pitch_similarity_needs_two_voiced_pairs():
    rng = np.random.default_rng(29)
    a = make_bundle(rng, 8, voiced_prob=0.0)
    b = make_bundle(rng, 8, voiced_prob=1.0)
    assert compute_triplet(a, b).p == 0.0


def test_degenerate_variance_rules():
    from speechstyle import FeatureBundle

    rng = np.random.default_rng(30)
    cfg = FrameConfig()
    pitch = np.full(10, 150.0)

    def bundle(stress):
        return FeatureBundle(
            spectral=rng.normal(size=(10, 4)),
            pitch=pitch,
            stress=stress,
            config=cfg,
            sample_rate=16000,
        )

    # both stress contours constant: perfectly similar
    t = compute_triplet(bundle(np.full(10, -20.0)), bundle(np.full(10, -35.0)))
    assert t.ir == 1.0
    # one flat, one moving: maximally uninformative
    t = compute_triplet(bundle(np.full(10, -20.0)), bundle(np.linspace(-40.0, -10.0, 10)))
    assert t.ir == 0.0
    # flat pitch against flat pitch follows the same convention
    assert t.p == 1.0


def test_noise_increases_expected_articulation_distance():
    rng = np.random.default_rng(31)
    base = rng.normal(size=(25, 13))
    cfg = FrameConfig()
    flat_pitch = np.full(25, 150.0)
    stress = np.linspace(-30.0, -10.0, 25)
    from speechstyle import FeatureBundle

    def bundle(track):
        return FeatureBundle(
            spectral=track, pitch=flat_pitch, stress=stress, config=cfg, sample_rate=16000
        )

    levels = [0.05, 0.1, 0.2, 0.4]
    means = []
    for sigma in levels:
        ids = []
        for _ in range(20):
            noisy = base + rng.normal(scale=sigma, size=base.shape)
            ids.append(compute_triplet(bundle(base), bundle(noisy)).id)
        means.append(np.mean(ids))
    assert means[0] < means[1] < means[2] < means[3]


def _old_similarity(u, v):
    """_similarity as it was written with np.var and ndarray.mean."""
    var_u = float(np.var(u))
    var_v = float(np.var(v))
    u_flat = var_u < metric.DEGENERATE_VARIANCE
    v_flat = var_v < metric.DEGENERATE_VARIANCE
    if u_flat and v_flat:
        return 1.0
    if u_flat or v_flat:
        return 0.0
    du = u - u.mean()
    dv = v - v.mean()
    r = float(np.dot(du, dv) / np.sqrt(np.dot(du, du) * np.dot(dv, dv)))
    return min(max(r, -1.0), 1.0)


def _contour(seed, n, kind, scale):
    """Constant, near-constant or moving contours at a given scale and offset."""
    rng = np.random.default_rng(seed)
    offset = scale * rng.normal() * 10.0
    if kind == "constant":
        return np.full(n, offset)
    spread = 1e-7 if kind == "near-constant" else 1.0
    return offset + scale * spread * rng.normal(size=n)


_contours = st.builds(
    _contour,
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 300),
    kind=st.sampled_from(["constant", "near-constant", "moving"]),
    scale=st.sampled_from([1e-6, 1e-4, 1e-2, 1.0, 1e3]) | st.floats(1e-6, 1e3),
)


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


@settings(max_examples=300, deadline=None)
@given(x=_contours)
def test_variance_and_deviations_match_numpy_bit_for_bit(x):
    deviations = metric._deviations(x)
    assert np.array_equal(_bits(deviations), _bits(x - x.mean()))
    assert _bits(metric._variance(deviations)) == _bits(np.var(x))


@settings(max_examples=300, deadline=None)
@given(u=_contours, v_seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(
    ["constant", "near-constant", "moving"]), scale=st.floats(1e-6, 1e3))
def test_similarity_matches_the_np_var_version_bit_for_bit(u, v_seed, kind, scale):
    v = _contour(v_seed, u.size, kind, scale)
    assert _bits(metric._similarity(u, v)) == _bits(_old_similarity(u, v))
    assert _bits(metric._similarity(u, u)) == _bits(_old_similarity(u, u))
