import ctypes
import re
import shutil
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from _helpers import pick_f0
from speechstyle import AudioClip, FrameConfig, _native, dtw_align, extract_features
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


def test_failed_kernel_build_warns_once_and_falls_back_to_the_same_bits(monkeypatch):
    rng = np.random.default_rng(32)
    a, b = rng.normal(size=(15, 13)), rng.normal(size=(11, 13))
    clips = [AudioClip(rng.uniform(-0.5, 0.5, rate // 3), rate) for rate in (16000, 44100)]
    cfg = FrameConfig()

    def run():
        return dtw_align(a, b), [extract_features(clip, cfg) for clip in clips]

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
    for path, bundles in after:
        assert path.cost == before[0].cost and path.pairs == before[0].pairs
        for bundle, kernel_bundle in zip(bundles, before[1]):
            for track in ("spectral", "pitch", "stress"):
                assert getattr(bundle, track).tobytes() == getattr(kernel_bundle, track).tobytes()


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
