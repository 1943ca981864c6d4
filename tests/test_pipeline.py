"""Work counts and ordering of the shared ingest / reference / classify path."""

from collections import Counter

import numpy as np
import pytest

import speechstyle.reference as reference
from _helpers import make_bundle
from speechstyle import (
    FrameConfig,
    build_reference_set,
    classify_manifest,
    classify_utterance,
    ingest_manifest,
    load_manifest,
    select_ideals,
)
from speechstyle.corpus import ManifestEntry
from speechstyle.errors import MissingLabel
from speechstyle.reference import CellUtterance, CorpusIndex


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
    index = CorpusIndex(prompts=1, groups=("group0",), cells={(0, 0): cell}, config=FrameConfig())
    select_ideals(index, threshold)
    assert len(triplet_calls) == n * (n - 1) // 2


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
    results, by_speaker = classify_manifest(shuffled, bundles, refs)
    assert results == [classify_utterance(bundles[e.path], e.prompt, refs) for e in shuffled]
    assert list(by_speaker) == sorted({e.speaker for e in entries})
    for speaker, speaker_results in by_speaker.items():
        assert speaker_results == [r for e, r in zip(shuffled, results) if e.speaker == speaker]
