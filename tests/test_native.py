import copy
import ctypes
import re
import shutil
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import make_bundle, pick_f0
from speechstyle import (
    AudioClip,
    FeatureBundle,
    FrameConfig,
    _native,
    compute_triplet,
    dtw_align,
    extract_features,
    metric,
)
from speechstyle.features import _frame_args

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")


@needs_cc
def test_compiled_kernel_loads_where_a_compiler_exists():
    assert _native._load_kernel() is not None


@needs_cc
def test_concurrent_cold_kernel_builds_in_one_process_all_succeed(monkeypatch, tmp_path):
    # Threads of one process compile to their own partial files, so
    # neither overwrites nor renames away the other's object.
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    results, errors = [], []

    def build():
        try:
            results.append(_native._build_kernel())
        except OSError as exc:
            errors.append(exc)

    threads = [threading.Thread(target=build) for _ in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(results) == 3 and len(set(results)) == 1
    assert [p.name for p in (tmp_path / "speechstyle").iterdir()] == [results[0].name]
    kernel = ctypes.CDLL(str(results[0]))
    assert all(getattr(kernel, name) is not None for name in _native._SIGNATURES)


def test_kernel_object_name_changes_with_the_flags_and_each_source(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    flags, sources = _native._KERNEL_FLAGS, _native._KERNEL_SOURCES
    first = _native._build_kernel()
    assert first.parent == tmp_path / "speechstyle"
    assert re.fullmatch(r"kernels-[0-9a-f]{8}\.so", first.name)
    assert _native._build_kernel() == first
    monkeypatch.setattr(_native, "_KERNEL_FLAGS", (*flags, "-g0"))
    built = [_native._build_kernel()]
    monkeypatch.setattr(_native, "_KERNEL_FLAGS", flags)
    for k, source in enumerate(sources):
        edited = tmp_path / source.name
        edited.write_bytes(source.read_bytes() + b"\n/* edited */\n")
        monkeypatch.setattr(_native, "_KERNEL_SOURCES", (*sources[:k], edited, *sources[k + 1 :]))
        built.append(_native._build_kernel())
    assert len({first.name, *(path.name for path in built)}) == 4
    assert all(path.exists() for path in (first, *built))


def _add_a_bad_flag(monkeypatch, tmp_path):
    monkeypatch.setattr(_native, "_KERNEL_FLAGS", (*_native._KERNEL_FLAGS, "-fno-such-option"))


def _empty_the_path(monkeypatch, tmp_path):
    (tmp_path / "bin").mkdir()
    monkeypatch.setenv("PATH", str(tmp_path / "bin"))


def _fail_the_rename(monkeypatch, tmp_path):
    # cc has written the partial object by then, so only the cleanup removes it.
    def fail(src, dst):
        raise OSError("simulated rename failure")

    monkeypatch.setattr(_native.os, "replace", fail)


@pytest.mark.parametrize(
    "break_build, match",
    [
        pytest.param(_add_a_bad_flag, r"^cc exited \d+: ", marks=needs_cc, id="bad-flag"),
        pytest.param(_empty_the_path, "'cc'", id="no-cc"),
        pytest.param(_fail_the_rename, "^simulated rename failure$", marks=needs_cc, id="rename"),
    ],
)
def test_failed_kernel_build_raises_and_leaves_the_cache_empty(
    monkeypatch, tmp_path, break_build, match
):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    break_build(monkeypatch, tmp_path)
    with pytest.raises(OSError, match=match):
        _native._build_kernel()
    assert list((tmp_path / "cache" / "speechstyle").iterdir()) == []


def test_exported_kernel_functions_match_their_signatures_and_callers():
    # A wrong argtypes entry corrupts memory silently, so the C
    # definitions, the ctypes signatures and the Python callers must agree.
    scalars = {"int64_t": ctypes.c_int64, "double": ctypes.c_double}
    exported = {}
    for source in _native._KERNEL_SOURCES:
        for name, params in re.findall(
            r"^int64_t (speechstyle_\w+)\(([^)]*)\)\s*\{", source.read_text(), re.MULTILINE
        ):
            exported[name] = tuple(
                ctypes.c_void_p if "*" in param else scalars[param.split()[0]]
                for param in params.split(",")
            )
    assert exported == _native._SIGNATURES
    package = Path(_native.__file__).parent
    callers = "".join(
        path.read_text() for path in package.glob("*.py") if path.name != "_native.py"
    )
    assert [name for name in exported if f".{name}(" not in callers] == []


@pytest.mark.parametrize("writeable", [True, False], ids=["writable", "read-only"])
def test_address_is_the_data_address_of_rows_views_and_empty_arrays(writeable):
    base = np.arange(48, dtype=np.int64).reshape(2, 24)
    base.flags.writeable = writeable
    for array in (base, base[1], base[0, 5:], base[1, 24:], base.ravel()[:1]):
        assert _native.address(array) == array.ctypes.data


def test_alignment_of_read_only_tracks_equals_that_of_writable_ones():
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=(9, 3)), rng.normal(size=(6, 3))
    expected = dtw_align(a, b)
    a.flags.writeable = b.flags.writeable = False
    got = dtw_align(a, b)
    assert (got.pairs, got.cost) == (expected.pairs, expected.cost)


def test_triplet_of_a_copied_bundle_reads_the_copys_tracks():
    # The path kernel's tracks are cached per bundle; a deep copy must not
    # read the original's, which may be freed or overwritten.
    rng = np.random.default_rng(8)
    a, b = make_bundle(rng, 30, voiced_prob=0.7), make_bundle(rng, 25, voiced_prob=0.7)
    expected = compute_triplet(a, b)
    copied = copy.deepcopy(a)
    a._path_tracks[:] = 0.0
    assert compute_triplet(copied, b) == expected


def test_failed_kernel_build_warns_once_and_falls_back_to_the_same_bits(monkeypatch):
    rng = np.random.default_rng(32)
    a, b = rng.normal(size=(15, 13)), rng.normal(size=(11, 13))
    clips = [AudioClip(rng.uniform(-0.5, 0.5, rate // 3), rate) for rate in (16000, 44100)]
    cfg = FrameConfig()
    bundles = [make_bundle(rng, frames, voiced_prob=0.7) for frames in (15, 11)]

    def run():
        extracted = [extract_features(clip, cfg) for clip in clips]
        return dtw_align(a, b), extracted, compute_triplet(*bundles)

    before = run()

    def broken_build():
        raise OSError("cc exited 1: simulated failure")

    monkeypatch.setattr(_native, "_build_kernel", broken_build)
    _native._open_kernel.cache_clear()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            after = [run() for _ in range(2)]
    finally:
        _native._open_kernel.cache_clear()
    assert [w.category for w in caught] == [RuntimeWarning]
    assert "simulated failure" in str(caught[0].message)
    for path, extracted, triplet in after:
        assert path.cost == before[0].cost and path.pairs == before[0].pairs
        assert path.rows.flags.c_contiguous and path.cols.flags.c_contiguous
        for bundle, kernel_bundle in zip(extracted, before[1]):
            for track in ("spectral", "pitch", "stress"):
                assert getattr(bundle, track).tobytes() == getattr(kernel_bundle, track).tobytes()
        assert np.array(triplet.as_tuple()).tobytes() == np.array(before[2].as_tuple()).tobytes()


def _align_directly():
    dtw_align(np.zeros((3, 2)), np.zeros((4, 2)))


def _extract_directly():
    extract_features(AudioClip(np.zeros(4000), 16000), FrameConfig())


@pytest.mark.parametrize("call", [_align_directly, _extract_directly])
def test_failed_kernel_build_warning_names_the_caller_outside_the_package(monkeypatch, call):
    def broken_build():
        raise OSError("cc exited 1: simulated failure")

    monkeypatch.setattr(_native, "_build_kernel", broken_build)
    _native._open_kernel.cache_clear()
    try:
        with pytest.warns(RuntimeWarning, match="simulated failure") as caught:
            call()
    finally:
        _native._open_kernel.cache_clear()
    assert [w.filename for w in caught] == [__file__]


def _kernel_power_spectra(kernel, x, window, n):
    out = np.empty((x.shape[0], n // 2 + 1))
    status = kernel.speechstyle_power_spectra(
        *_frame_args(x), window.ctypes.data, n, out.ctypes.data
    )
    assert status == 0
    return out


def _kernel_pitch(kernel, x, n, band):
    out = np.empty(x.shape[0])
    assert kernel.speechstyle_pitch(*_frame_args(x), n, *band, out.ctypes.data) == 0
    return out


def _kernel_mean_square(kernel, x):
    out = np.empty(x.shape[0])
    assert kernel.speechstyle_mean_square(*_frame_args(x), out.ctypes.data) == 0
    return out


# The numpy formulas of the fallbacks in features._power_spectra and
# features._autocorrelate, at a given FFT size, and _pitch_batch's pick.
def _numpy_power_spectra(x, window, n):
    spectrum = np.fft.rfft(x * window, n, axis=1)
    power = np.square(spectrum.real)
    power += spectrum.imag**2
    power /= n
    return power


def _numpy_pitch(x, n, band):
    spectrum = np.fft.rfft(x, n, axis=1)
    power = spectrum.real**2
    power += spectrum.imag**2
    ac = np.fft.irfft(power, n, axis=1)[:, : band[1] + 2]
    return np.array([pick_f0(row, *band) for row in ac])


def _check_both_passes(builds, x, size, rng):
    length = x.shape[1]
    window = rng.uniform(size=length)
    expected_power = _numpy_power_spectra(x, window, size).tobytes()
    # Lags 2..length-2, f0 clamped below 1.75 and above length-1.75 lags,
    # and a threshold so low that nearly every frame is refined: the f0
    # bits then carry the autocorrelation's.
    rate = 16000.0
    band = (2, length - 2, rate, rate / (length - 1.75), rate / 1.75, 1e-3)
    expected_pitch = _numpy_pitch(x, size, band).tobytes() if length >= 4 else None
    for name, kernel in builds.items():
        assert _kernel_power_spectra(kernel, x, window, size).tobytes() == expected_power, name
        if expected_pitch is not None:
            assert _kernel_pitch(kernel, x, size, band).tobytes() == expected_pitch, name


# Rows 1 to 17 fill one, two and part of a third group of eight lanes, and
# every group of two; both builds run, so a wide host checks each width.
@pytest.mark.parametrize("size", [1 << e for e in range(15)])
def test_kernel_power_spectra_and_pitch_equal_numpy_bit_for_bit(kernel_builds, size):
    if not kernel_builds:
        pytest.skip("compiled kernels unavailable")
    rng = np.random.default_rng(size)
    for rows in range(1, 18):
        for length in sorted({max(size // 3, 1), max(size // 2, 1), size}):
            for scale in (1e-4, 1e-2, 1.0, 1e3):
                x = rng.normal(scale=scale, size=(rows, length))
                _check_both_passes(kernel_builds, x, size, rng)
    # Strided frames, the columns of a transposed array, are read in place.
    _check_both_passes(kernel_builds, rng.normal(size=(size, 3)).T, size, rng)


def test_kernel_mean_square_equals_numpy_bit_for_bit(kernel_builds):
    # Lengths under 8, 8 to 128 and above 128 run every branch of numpy's
    # pairwise sum; the kernel reads strided frames in place.
    if not kernel_builds:
        pytest.skip("compiled kernels unavailable")
    rng = np.random.default_rng(27)
    for length in [*range(1, 301), 400, 441, 1102]:
        grid = rng.normal(size=(4, 2 * length))
        for frames in (grid[:, :length], grid[::-1, ::2]):
            expected = np.mean(np.ascontiguousarray(frames) ** 2, axis=1).tobytes()
            for name, kernel in kernel_builds.items():
                assert _kernel_mean_square(kernel, frames).tobytes() == expected, (name, length)


def test_kernel_is_reentrant_across_threads():
    from speechstyle.features import _pitch_batch, _power_spectra, stress_contour

    # A low threshold voices most noise frames, so f0 carries the bits.
    cfg = FrameConfig(voicing_threshold=0.01)
    rng = np.random.default_rng(9)
    frames = [rng.normal(size=(rows, 1102)) for rows in (7, 40, 41, 64)]
    # The last thread's pitch FFTs grow its scratch from 512 to 4096
    # points, then reuse it at 1024, while the other threads run.
    growing = [rng.normal(size=(9, size // 2)) for size in (512, 4096, 1024)]
    jobs = [[f] for f in frames + frames] + [growing]

    def run(job):
        return [
            a.tobytes()
            for f in job
            for a in (
                _power_spectra(f, np.hamming(f.shape[1]), 1 << (f.shape[1] - 1).bit_length()),
                _pitch_batch(f, 44100, cfg),
                stress_contour(f),
            )
        ]

    serial = [run(job) for job in jobs]
    assert all(np.isnan(_pitch_batch(f, 44100, cfg)).mean() < 0.5 for f in frames + growing)
    results = [None] * len(jobs)

    def work(k):
        results[k] = run(jobs[k])

    threads = [threading.Thread(target=work, args=(k,)) for k in range(len(jobs))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert results == serial


def _random_path(rng, k):
    """A monotone path of k pairs from (0, 0), as dtw_align returns it."""
    steps = rng.integers(0, 3, size=k - 1)  # 0 diagonal, 1 down, 2 across
    rows = np.concatenate([[0], np.cumsum(steps != 2)]).astype(np.int64)
    cols = np.concatenate([[0], np.cumsum(steps != 1)]).astype(np.int64)
    return rows, cols


# Spreads of a contour around its offset: flat, far below, near and far
# above DEGENERATE_VARIANCE once squared.
_SPREADS = {"constant": 0.0, "near-constant": 1e-7, "near-bound": 1e-5, "moving": 1.0}


def _contour(rng, n, kind, scale):
    return scale * rng.normal() * 10.0 + scale * _SPREADS[kind] * rng.normal(size=n)


def _path_bundle(pitch, stress):
    n = stress.size
    return FeatureBundle(np.zeros((n, 1)), pitch, stress, FrameConfig(n_ceps=1), 16000)


def _voicing(rng, rows, cols, voicing):
    """Voiced frames of each side: all, about half, or those of v path pairs."""
    n, m = rows[-1] + 1, cols[-1] + 1
    if voicing == "all":
        return np.ones(n, bool), np.ones(m, bool)
    if voicing == "half":
        return rng.random(n) < 0.5, rng.random(m) < 0.5
    on_a, on_b = np.zeros(n, bool), np.zeros(m, bool)
    picked = rng.choice(rows.size, size=min(int(voicing), rows.size), replace=False)
    on_a[rows[picked]] = on_b[cols[picked]] = True
    return on_a, on_b


def _check_path_kernel(builds, a, b, rows, cols):
    expected = np.array(metric._path_similarity(a, b, rows, cols))
    for name, kernel in builds.items():
        got = np.array(metric._path_similarity_kernel(kernel, a, b, rows, cols))
        assert got.tobytes() == expected.tobytes(), (name, got, expected)
    return expected


_KINDS = st.sampled_from(sorted(_SPREADS))


# Paths of 1 to 300 pairs run every branch of numpy's pairwise sum; the
# voicing patterns give 0, 1, 2 and more pairs voiced on both sides.
@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 300),
    voicing=st.sampled_from(["all", "half", "0", "1", "2", "3"]),
    pitch_kinds=st.tuples(_KINDS, _KINDS),
    stress_kinds=st.tuples(_KINDS, _KINDS),
    scale=st.sampled_from([1e-6, 1e-3, 1.0, 1e3]) | st.floats(1e-6, 1e3),
)
def test_path_kernel_equals_numpy_bit_for_bit(
    kernel_builds, seed, k, voicing, pitch_kinds, stress_kinds, scale
):
    if not kernel_builds:
        pytest.skip("compiled kernels unavailable")
    rng = np.random.default_rng(seed)
    rows, cols = _random_path(rng, k)
    voiced = _voicing(rng, rows, cols, voicing)
    bundles = []
    for side, n in enumerate((rows[-1] + 1, cols[-1] + 1)):
        log_f0 = np.log(150.0) + _contour(rng, n, pitch_kinds[side], min(scale, 1.0) / 10.0)
        pitch = np.where(voiced[side], np.exp(log_f0), np.nan)
        bundles.append(_path_bundle(pitch, _contour(rng, n, stress_kinds[side], scale)))
    _check_path_kernel(kernel_builds, *bundles, rows, cols)


def test_path_kernel_equals_numpy_at_every_path_length(kernel_builds):
    if not kernel_builds:
        pytest.skip("compiled kernels unavailable")
    rng = np.random.default_rng(44)
    for k in range(1, 301):
        rows, cols = _random_path(rng, k)
        a = make_bundle(rng, rows[-1] + 1, voiced_prob=0.7)
        b = make_bundle(rng, cols[-1] + 1, voiced_prob=0.7)
        _check_path_kernel(kernel_builds, a, b, rows, cols)


def _variance_at_the_bound():
    """[x, -x, 0, 0], whose variance by _variance is exactly DEGENERATE_VARIANCE."""
    x = np.sqrt(2.0 * metric.DEGENERATE_VARIANCE)
    contour = np.array([x, -x, 0.0, 0.0])
    assert metric._variance(metric._deviations(contour)) == metric.DEGENERATE_VARIANCE
    return contour


def _correlation_beyond_one():
    """u and v = c * u whose correlation by numpy's sums rounds above 1."""
    rng = np.random.default_rng(0)
    for _ in range(1000):
        u = rng.normal(size=5)
        v = rng.uniform(0.1, 10.0) * u
        du, dv = metric._deviations(u), metric._deviations(v)
        uu, vv = np.add.reduce(du * du), np.add.reduce(dv * dv)
        if np.add.reduce(du * dv) / np.sqrt(uu * vv) > 1.0:
            return u, v
    raise AssertionError("no correlation above 1 in 1000 draws")


def test_path_kernel_edges_equal_numpy(kernel_builds):
    # Each case tells a mutant of the kernel from the numpy spec: one
    # voiced pair (p is 0, not the 1 of two flat contours), a variance
    # exactly at the degeneracy bound on either side (not flat), and
    # correlations that round beyond +-1 (clamped).
    if not kernel_builds:
        pytest.skip("compiled kernels unavailable")
    rows = cols = np.arange(5, dtype=np.int64)
    moving = np.array([1.0, 3.0, 2.0, 5.0, 4.0])
    one_voiced = np.array([np.nan, np.nan, 120.0, np.nan, np.nan])
    a = b = _path_bundle(one_voiced, moving)
    assert _check_path_kernel(kernel_builds, a, b, rows, cols)[0] == 0.0
    at_bound, unvoiced = _variance_at_the_bound(), np.full(4, np.nan)
    for pair in ((at_bound, moving[:4]), (moving[:4], at_bound)):
        a, b = (_path_bundle(unvoiced, stress) for stress in pair)
        assert _check_path_kernel(kernel_builds, a, b, rows[:4], cols[:4])[1] != 0.0
    u, v = _correlation_beyond_one()
    for sign in (1.0, -1.0):
        a, b = _path_bundle(moving, u), _path_bundle(moving, sign * v)
        assert _check_path_kernel(kernel_builds, a, b, rows, cols)[1] == sign


def test_path_kernel_returns_nan_where_numpy_does(kernel_builds):
    # Non-finite stress makes ir NaN, which Triplet then rejects.
    if not kernel_builds:
        pytest.skip("compiled kernels unavailable")
    rows = cols = np.arange(4, dtype=np.int64)
    pitch = np.array([100.0, 110.0, np.nan, 130.0])
    for bad in (np.nan, np.inf, -np.inf):
        a = _path_bundle(pitch, np.array([1.0, bad, 2.0, 3.0]))
        b = _path_bundle(pitch, np.array([2.0, 1.0, 4.0, 3.0]))
        with np.errstate(invalid="ignore"):
            expected = metric._path_similarity(a, b, rows, cols)
        for kernel in kernel_builds.values():
            got = metric._path_similarity_kernel(kernel, a, b, rows, cols)
            assert got[0] == expected[0] and np.isnan(got[1]) and np.isnan(expected[1])
