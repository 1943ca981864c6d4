"""Work counts and ordering of the shared ingest / reference / classify path."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import re
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import speechstyle.reference as reference
from _helpers import make_bundle
from speechstyle import (
    AudioClip,
    FrameConfig,
    NormKind,
    build_reference_set,
    classify_manifest,
    classify_utterance,
    compute_cell_average,
    ingest_manifest,
    load_manifest,
    save_reference_set,
    select_ideals,
    write_wav,
)
from speechstyle.corpus import ManifestEntry
from speechstyle.errors import ClipTooShort, MissingLabel, RateMismatch
from speechstyle.reference import CellUtterance


@pytest.fixture
def triplet_calls(monkeypatch):
    calls = []
    original = reference.compute_triplet

    def counting(a, b):
        calls.append(None)
        return original(a, b)

    monkeypatch.setattr(reference, "compute_triplet", counting)
    return calls


def test_build_reference_set_scores_each_pair_once(tiny_corpus, triplet_calls):
    _, manifest = tiny_corpus
    entries = load_manifest(manifest)
    sizes = Counter((e.prompt, e.truth) for e in entries)
    build_reference_set(entries, FrameConfig(), threshold=0.15)
    assert len(triplet_calls) == sum(n * (n - 1) // 2 for n in sizes.values())


@pytest.mark.parametrize("threshold", [0.0, 1e9])
def test_select_ideals_scores_each_pair_once(threshold, triplet_calls):
    rng = np.random.default_rng(90)
    n = 5
    cell = tuple(CellUtterance(speaker=f"s{k}", bundle=make_bundle(rng, 10, 4)) for k in range(n))
    select_ideals({(0, 0): cell}, threshold)
    assert len(triplet_calls) == n * (n - 1) // 2


def _float_bits(*values):
    return np.array(values, dtype=np.float64).tobytes()


@pytest.mark.parametrize("norm", list(NormKind))
def test_select_ideals_scalarizes_each_pair_once_and_matches_the_cell_average(
    workers, monkeypatch, norm
):
    rng = np.random.default_rng(91)
    sizes = {(0, 0): 1, (0, 1): 2, (1, 0): 4, (1, 1): 5}
    cells = {
        key: tuple(CellUtterance(f"s{k}", make_bundle(rng, 8 + k, 4)) for k in range(n))
        for key, n in sizes.items()
    }
    calls = []
    original = reference.scalarize

    def counting(t, norm):
        calls.append(norm)
        return original(t, norm)

    monkeypatch.setattr(reference, "scalarize", counting)
    for count in (1, 2, 3):
        workers(count)
        calls.clear()
        refs = select_ideals(cells, 0.15, norm)
        assert calls == [norm] * sum(n * (n - 1) // 2 for n in sizes.values())
        for (prompt, group), cell in cells.items():
            got, want = refs.cell(prompt, group), compute_cell_average(cell, norm)
            assert _float_bits(*got.mean.as_tuple(), got.variation) == _float_bits(
                *want.mean.as_tuple(), want.variation
            )


def test_build_corpus_index_checks_labels_before_reading(tmp_path):
    entry = ManifestEntry(
        path=tmp_path / "missing.wav", speaker="s", prompt=0, expert1=None, expert2=None, truth=None
    )
    with pytest.raises(MissingLabel):
        reference.build_corpus_index([entry], FrameConfig())


def test_classify_manifest_orders_entries_and_speakers(tiny_corpus):
    _, manifest = tiny_corpus
    entries = load_manifest(manifest)
    refs = build_reference_set(entries, FrameConfig(), threshold=0.15)
    shuffled = entries[::-1]
    bundles = ingest_manifest(shuffled, refs.config)
    assert set(bundles) == {e.path for e in entries}
    results, by_speaker = classify_manifest(shuffled, refs)
    assert results == [classify_utterance(bundles[e.path], e.prompt, refs) for e in shuffled]
    assert list(by_speaker) == sorted({e.speaker for e in entries})
    for speaker, speaker_results in by_speaker.items():
        assert speaker_results == [r for e, r in zip(shuffled, results) if e.speaker == speaker]


@pytest.fixture
def workers(monkeypatch):
    """Set the thread count of reference's pool; short switch intervals mix the threads."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)

    def use(count):
        monkeypatch.setattr(reference, "_worker_count", lambda items: count)

    try:
        yield use
    finally:
        sys.setswitchinterval(interval)


def _worker_counts(items):
    """One, two and three threads, and more threads than items."""
    return (1, 2, 3, items + 5)


def _bits(bundle):
    return [track.view(np.uint64) for track in (bundle.spectral, bundle.pitch, bundle.stress)]


def test_ingest_manifest_is_bit_identical_at_any_worker_count(small_corpus, workers):
    _, manifest = small_corpus
    entries = load_manifest(manifest)
    runs = []
    for count in _worker_counts(len(entries)):
        workers(count)
        runs.append(ingest_manifest(entries, FrameConfig()))
    serial = runs[0]
    assert list(serial) == [e.path for e in entries]
    for bundles in runs[1:]:
        assert list(bundles) == list(serial)
        for path, bundle in bundles.items():
            want = serial[path]
            assert (bundle.config, bundle.sample_rate) == (want.config, want.sample_rate)
            for got, expected in zip(_bits(bundle), _bits(want)):
                assert got.shape == expected.shape and np.array_equal(got, expected)


@pytest.mark.parametrize("threshold", [0.0, 0.15])
def test_select_ideals_is_identical_at_any_worker_count(small_corpus, workers, tmp_path, threshold):
    _, manifest = small_corpus
    entries = load_manifest(manifest)
    cells = reference.build_corpus_index(entries, FrameConfig())
    pairs = sum(len(c) * (len(c) - 1) // 2 for c in cells.values())
    models = []
    for count in _worker_counts(pairs):
        workers(count)
        refs = select_ideals(cells, threshold)
        path = tmp_path / f"model-{count}.json"
        save_reference_set(refs, path)
        models.append((refs, path.read_bytes()))
    for refs, model in models[1:]:
        assert refs == models[0][0]
        assert model == models[0][1]


@pytest.mark.parametrize("count", [1, 2, 3, 40])
@pytest.mark.parametrize("first", ["wrong_rate", "silent"])
def test_ingest_raises_for_the_first_bad_clip_in_manifest_order(
    small_corpus, workers, monkeypatch, tmp_path, count, first
):
    wavs = {"wrong_rate": tmp_path / "wrong_rate.wav", "silent": tmp_path / "silent.wav"}
    write_wav(wavs["wrong_rate"], AudioClip(np.full(4000, 0.5), 8000))
    write_wav(wavs["silent"], AudioClip(np.zeros(8000), 16000))
    second = "silent" if first == "wrong_rate" else "wrong_rate"
    _, manifest = small_corpus
    entries = load_manifest(manifest)
    entries[4] = dataclasses.replace(entries[4], path=wavs[first])
    entries[21] = dataclasses.replace(entries[21], path=wavs[second])
    original = reference.ingest_clip

    def slow_first(path, *args):
        # The first bad clip fails last, so only manifest order picks it.
        if path == wavs[first]:
            time.sleep(0.05)
        return original(path, *args)

    monkeypatch.setattr(reference, "ingest_clip", slow_first)
    workers(count)
    error = RateMismatch if first == "wrong_rate" else ClipTooShort
    with pytest.raises(error, match=f"^{re.escape(str(wavs[first]))}: "):
        ingest_manifest(entries, FrameConfig())


def _perfbench_wrap_targets(perfbench):
    """The `layer.fn` names that run.py's traced jobs must find to wrap, as _check_trace picks them.

    run.py is parsed, not run: importing it would set BLAS thread counts in this process.
    """
    tree = ast.parse((perfbench / "run.py").read_text())
    (table,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "LAYER_TABLE" for t in node.targets)
    ]
    return {name.rsplit(".", 1)[0] for name in ast.literal_eval(table) if name.count(".") == 2}


def test_perfbench_span_names_are_public_functions_of_their_layers():
    """perfbench counts work by `layer.fn` span names and wraps run.py's; a move or rename breaks them."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location("_perfbench_spans", perfbench / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = _perfbench_wrap_targets(perfbench)
    assert targets
    for name in sorted({*spans.INFO, *targets}):
        layer, fn = name.split(".")
        module = importlib.import_module(f"speechstyle.{layer}")
        value = getattr(module, fn, None)
        assert not fn.startswith("_") and inspect.isfunction(value), name
        assert value.__module__ == module.__name__, name
    # Classification time is charged to the classify layer only while it is defined there.
    moved = getattr(reference, "classify_manifest", None)
    assert moved is None or moved.__module__ != reference.__name__


_LAYERS = (
    "_native", "errors", "audio", "corpus", "features", "metric", "reference", "classify",
    "evaluate", "cli",
)


def _package_imports(tree: ast.AST) -> set[str]:
    """The package modules a module imports anywhere, under `if TYPE_CHECKING:` too."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("speechstyle."):
            names.add(node.module)
        elif isinstance(node, ast.Import):
            names.update(a.name for a in node.names if a.name.startswith("speechstyle."))
    return {name.removeprefix("speechstyle.").split(".")[0] for name in names}


def test_each_module_imports_only_the_layers_before_it():
    """Modules import only those to their left in _LAYERS, so no import cycle can form."""
    src = Path(reference.__file__).parent
    assert sorted(p.stem for p in src.glob("*.py") if p.stem != "__init__") == sorted(_LAYERS)
    for k, layer in enumerate(_LAYERS):
        imported = _package_imports(ast.parse((src / f"{layer}.py").read_text()))
        assert imported <= set(_LAYERS[:k]), (layer, sorted(imported - set(_LAYERS[:k])))


def _file_opens(tree: ast.AST):
    """(call, mode, encoding) for each open(), Path.open(), read_text() and write_text() in tree."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        keywords = {k.arg: k.value for k in node.keywords}
        encoding = keywords.get("encoding")
        if isinstance(func, ast.Name) and func.id == "open":
            yield node, node.args[1] if len(node.args) > 1 else keywords.get("mode"), encoding
        elif isinstance(func, ast.Attribute) and func.attr == "open":
            yield node, node.args[0] if node.args else keywords.get("mode"), encoding
        elif isinstance(func, ast.Attribute) and func.attr in ("read_text", "write_text"):
            yield node, None, encoding


def test_every_text_file_is_opened_as_utf8():
    """Every file the package opens is binary or UTF-8, so no text follows the locale."""
    src = Path(reference.__file__).parent
    seen = 0
    for path in sorted(src.glob("*.py")):
        for call, mode, encoding in _file_opens(ast.parse(path.read_text(encoding="utf-8"))):
            seen += 1
            binary = isinstance(mode, ast.Constant) and "b" in mode.value
            utf8 = isinstance(encoding, ast.Constant) and encoding.value == "utf-8"
            assert binary or utf8, f"{path.name}:{call.lineno}"
    assert seen >= 8


def test_package_data_ships_every_kernel_source():
    """An installed package without a kernel source could never build the kernels."""
    tomllib = pytest.importorskip("tomllib")
    root = Path(reference.__file__).parents[2]
    config = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))
    shipped = set(config["tool"]["setuptools"]["package-data"]["speechstyle"])
    sources = {p.name for p in (root / "src" / "speechstyle").glob("*.c")}
    assert sources >= {"_dtw.c", "_fft.c"}
    assert sources <= shipped, sorted(sources - shipped)
