import pytest

from speechstyle import SynthConfig, _native, generate_synthetic_corpus


@pytest.fixture(scope="session")
def tiny_corpus(tmp_path_factory):
    """2 groups x 2 speakers x 2 prompts; enough for model round trips."""
    cfg = SynthConfig(groups=2, speakers_per_group=2, prompts=2, duration_ms=400.0, seed=5)
    out = tmp_path_factory.mktemp("tiny_corpus")
    manifest = generate_synthetic_corpus(cfg, out)
    return cfg, manifest


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    """5 groups x 3 speakers x 2 prompts; smallest shape the split accepts."""
    cfg = SynthConfig(groups=5, speakers_per_group=3, prompts=2, duration_ms=450.0, seed=7)
    out = tmp_path_factory.mktemp("small_corpus")
    manifest = generate_synthetic_corpus(cfg, out)
    return cfg, manifest


@pytest.fixture(scope="session")
def kernel_builds(tmp_path_factory):
    """Each build of the compiled kernels that compiles here, by name.

    "dispatched" is the object the package loads, which runs the widest
    copy this CPU has; "narrow" is built with SPEECHSTYLE_NARROW, so it
    holds only the copies every CPU runs, which a wide host never calls.
    """
    builds = {"dispatched": _native._load_kernel()}
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("narrow_cache")))
        patch.setattr(_native, "_KERNEL_FLAGS", (*_native._KERNEL_FLAGS, "-DSPEECHSTYLE_NARROW"))
        _native._open_kernel.cache_clear()
        try:
            builds["narrow"] = _native._open_kernel()
        finally:
            _native._open_kernel.cache_clear()
    return {name: kernel for name, kernel in builds.items() if kernel is not None}
