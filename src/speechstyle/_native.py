"""The compiled kernels: _dtw.c and _fft.c, built into one cached object on first use."""

from __future__ import annotations

import binascii
import ctypes
import functools
import os
import sys
import threading
import warnings
from pathlib import Path

_KERNEL_SOURCES = tuple(Path(__file__).with_name(name) for name in ("_dtw.c", "_fft.c"))
_KERNEL_FLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-fPIC", "-shared")

_P, _I, _D = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
# Argument types of each exported function; each returns an int64.
_SIGNATURES = {
    "speechstyle_dtw": (_P, _P, _I, _I, _I, _P, _P, _P),
    "speechstyle_power_spectra": (_P, _I, _I, _I, _I, _P, _I, _P),
    "speechstyle_pitch": (_P, _I, _I, _I, _I, _I, _I, _I, _D, _D, _D, _D, _P),
    "speechstyle_mean_square": (_P, _I, _I, _I, _I, _P),
}


def _build_kernel() -> Path:
    """Compile the kernel sources into the user cache once per source and flag set."""
    # A CRC-32 names the object: a digest from OpenSSL would map that library into every job.
    sources = b"".join(path.name.encode() + b"\0" + path.read_bytes() for path in _KERNEL_SOURCES)
    key = binascii.crc32(sources + " ".join(_KERNEL_FLAGS).encode())
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "speechstyle"
    target = cache / f"kernels-{key:08x}.so"
    if target.exists():
        return target
    import subprocess  # only a cold cache compiles

    cache.mkdir(parents=True, exist_ok=True)
    # A per-process, per-thread name plus an atomic rename: concurrent
    # builds never load a half-written object.
    partial = cache / f"{target.name}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        done = subprocess.run(
            ["cc", *_KERNEL_FLAGS, "-o", str(partial), *map(str, _KERNEL_SOURCES), "-lm"],
            capture_output=True,
            text=True,
        )
        if done.returncode != 0:
            raise OSError(f"cc exited {done.returncode}: {done.stderr.strip()}")
        os.replace(partial, target)
    finally:
        partial.unlink(missing_ok=True)
    return target


def _outside_caller_level() -> int:
    """The stacklevel, seen from its caller, of the nearest frame outside this package."""
    package = os.path.dirname(__file__)
    frame, level = sys._getframe(1), 1
    while frame is not None and os.path.dirname(frame.f_code.co_filename) == package:
        frame, level = frame.f_back, level + 1
    return level


@functools.cache
def _open_kernel():
    try:
        kernel = ctypes.CDLL(str(_build_kernel()))
        for name, argtypes in _SIGNATURES.items():
            function = getattr(kernel, name)
            function.argtypes = argtypes
            function.restype = ctypes.c_int64
    except (OSError, AttributeError) as exc:
        warnings.warn(
            f"compiled kernels unavailable ({exc}); using numpy's FFTs and the pure-Python DTW",
            RuntimeWarning,
            stacklevel=_outside_caller_level(),
        )
        return None
    return kernel


_LOAD_LOCK = threading.Lock()


def _load_kernel():
    """The compiled kernels, or None after one RuntimeWarning.

    The ingest threads ask at once; the lock makes them share one build
    and one warning.
    """
    with _LOAD_LOCK:
        return _open_kernel()
