import ctypes
import re
import shutil
import threading
import warnings

import numpy as np
import pytest

from speechstyle import AudioClip, FrameConfig, _native, dtw_align, extract_features

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


def _kernel():
    kernel = _native._load_kernel()
    if kernel is None:
        pytest.skip("compiled kernels unavailable")
    return kernel


def _rfft(x, n):
    out = np.empty((x.shape[0], n // 2 + 1), dtype=np.complex128)
    steps = [s // 8 for s in x.strides]
    assert _kernel().speechstyle_rfft(x.ctypes.data, *x.shape, *steps, n, out.ctypes.data) == 0
    return out


def _irfft(spectra, n):
    spectra = np.ascontiguousarray(spectra, dtype=np.complex128)
    out = np.empty((spectra.shape[0], n))
    assert _kernel().speechstyle_irfft(spectra.ctypes.data, spectra.shape[0], n, out.ctypes.data) == 0
    return out


@pytest.mark.parametrize("size", [1 << e for e in range(15)])
def test_kernel_rfft_and_irfft_equal_numpy_bit_for_bit(size):
    rng = np.random.default_rng(size)
    for rows in range(1, 6):
        for length in sorted({max(size // 3, 1), max(size // 2, 1), size}):
            for scale in (1e-4, 1e-2, 1.0, 1e3):
                x = rng.normal(scale=scale, size=(rows, length))
                assert _rfft(x, size).tobytes() == np.fft.rfft(x, size, axis=1).tobytes()
                bins = size // 2 + 1
                spectra = rng.normal(scale=scale, size=(rows, bins)) + 1j * rng.normal(
                    scale=scale, size=(rows, bins)
                )
                expected = np.fft.irfft(spectra, size, axis=1)
                assert _irfft(spectra, size).tobytes() == expected.tobytes()
    # Strided frames, the columns of a transposed array, are read in place.
    x = rng.normal(size=(size, 3)).T
    assert _rfft(x, size).tobytes() == np.fft.rfft(x, size, axis=1).tobytes()


def test_kernel_is_reentrant_across_threads():
    from speechstyle.features import _autocorrelation, _power_spectra

    rng = np.random.default_rng(9)
    frames = [rng.normal(size=(rows, 1102)) for rows in (7, 40, 41, 64)]
    window = np.hamming(1102)
    serial = [(_power_spectra(f, window, 2048), _autocorrelation(f, 884)) for f in frames]
    results = [None] * (2 * len(frames))

    def work(k):
        f = frames[k % len(frames)]
        results[k] = (_power_spectra(f, window, 2048), _autocorrelation(f, 884))

    threads = [threading.Thread(target=work, args=(k,)) for k in range(len(results))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for k, (power, ac) in enumerate(results):
        expected_power, expected_ac = serial[k % len(frames)]
        assert power.tobytes() == expected_power.tobytes()
        assert ac.tobytes() == expected_ac.tobytes()
