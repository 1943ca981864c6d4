import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speechstyle import (
    AgreementReport,
    FrameConfig,
    LabelVector,
    agreement,
    evaluate_system,
    load_manifest,
    split_corpus,
    write_manifest,
)
from speechstyle.corpus import ManifestEntry
from speechstyle.errors import CellTooSmall, MissingLabel, SubjectMismatch


def _vector(ranks):
    return LabelVector(entries=tuple((f"spk{i:03d}", r) for i, r in enumerate(ranks)))


def _profile(exact, adjacent, far):
    """Two raters over 5 ranks with a controlled disagreement profile."""
    a = [0] * (exact + adjacent + far)
    b = [0] * exact + [1] * adjacent + [3] * far
    return _vector(a), _vector(b)


def test_agreement_identical_vectors():
    v = _vector([0, 1, 2, 3, 4, 2, 1])
    report = agreement(v, v)
    assert report.n == 7
    assert report.total_pct == 100.0
    assert report.one_step_pct == 100.0
    for i, row in enumerate(report.confusion):
        for j, count in enumerate(row):
            assert count == (0 if i != j else row[i])


@pytest.mark.parametrize(
    "exact,adjacent,far,want_total,want_one_step",
    [
        (26, 19, 55, 26.0, 45.0),
        (56, 44, 0, 56.0, 100.0),
        (47, 43, 10, 47.0, 90.0),
    ],
)
def test_agreement_disagreement_profiles(exact, adjacent, far, want_total, want_one_step):
    a, b = _profile(exact, adjacent, far)
    report = agreement(a, b, n_groups=5)
    assert report.n == 100
    assert report.total_pct == want_total
    assert report.one_step_pct == want_one_step


def test_agreement_is_symmetric_up_to_transpose():
    rng = np.random.default_rng(80)
    a = _vector(rng.integers(0, 5, size=40).tolist())
    b = _vector(rng.integers(0, 5, size=40).tolist())
    fwd = agreement(a, b, n_groups=5)
    rev = agreement(b, a, n_groups=5)
    assert fwd.total_pct == rev.total_pct
    assert fwd.one_step_pct == rev.one_step_pct
    assert tuple(zip(*fwd.confusion)) == rev.confusion


def test_one_step_agreement_never_below_total():
    rng = np.random.default_rng(81)
    for _ in range(20):
        a = _vector(rng.integers(0, 4, size=25).tolist())
        b = _vector(rng.integers(0, 4, size=25).tolist())
        report = agreement(a, b)
        assert report.one_step_pct >= report.total_pct
        assert 0.0 <= report.total_pct <= 100.0
        assert 0.0 <= report.one_step_pct <= 100.0


def test_confusion_counts_every_subject():
    rng = np.random.default_rng(82)
    ranks_a = rng.integers(0, 5, size=30).tolist()
    ranks_b = rng.integers(0, 5, size=30).tolist()
    report = agreement(_vector(ranks_a), _vector(ranks_b), n_groups=5)
    assert sum(sum(row) for row in report.confusion) == 30
    for rank in range(5):
        assert sum(report.confusion[rank]) == ranks_a.count(rank)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=40))
def test_agreement_properties(rank_pairs):
    report = agreement(_vector([a for a, _ in rank_pairs]), _vector([b for _, b in rank_pairs]))
    assert report.n == len(rank_pairs)
    assert sum(sum(row) for row in report.confusion) == report.n
    assert report.total_pct <= report.one_step_pct


def test_confusion_shape_follows_n_groups():
    a = _vector([0, 3])
    b = _vector([1, 3])
    inferred = agreement(a, b)
    assert len(inferred.confusion) == 4
    explicit = agreement(a, b, n_groups=6)
    assert len(explicit.confusion) == 6
    assert all(len(row) == 6 for row in explicit.confusion)


def test_agreement_rejects_subject_mismatch():
    a = LabelVector(entries=(("x", 0), ("y", 1)))
    b = LabelVector(entries=(("x", 0), ("z", 1)))
    with pytest.raises(SubjectMismatch, match="z"):
        agreement(a, b)
    with pytest.raises(SubjectMismatch):
        agreement(LabelVector(entries=()), LabelVector(entries=()))


def test_agreement_report_to_dict():
    report = AgreementReport(n=2, total_pct=50.0, one_step_pct=100.0, confusion=((1, 0), (1, 0)))
    doc = report.to_dict()
    assert doc == {
        "n": 2,
        "total_pct": 50.0,
        "one_step_pct": 100.0,
        "confusion": [[1, 0], [1, 0]],
    }


def _fake_corpus_entries(groups, speakers_per_group, prompts):
    entries = []
    for g in range(groups):
        for s in range(speakers_per_group):
            speaker = f"g{g}s{s:02d}"
            for w in range(prompts):
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


def test_split_is_stratified_and_never_straddles_speakers():
    entries = _fake_corpus_entries(4, 5, 3)
    ref, test = split_corpus(entries, seed=9)
    ref_speakers = {e.speaker for e in ref}
    test_speakers = {e.speaker for e in test}
    assert not ref_speakers & test_speakers
    assert ref_speakers | test_speakers == {e.speaker for e in entries}
    for g in range(4):
        in_test = {s for s in test_speakers if s.startswith(f"g{g}")}
        assert len(in_test) == 2  # round(5 / 3)
    assert len(ref) + len(test) == len(entries)


@st.composite
def _shuffled_corpus(draw):
    sizes = draw(st.lists(st.integers(3, 7), min_size=1, max_size=4))
    prompts = draw(st.integers(1, 3))
    entries = [
        ManifestEntry(
            path=Path(f"/none/g{g}s{s:02d}_p{w:02d}.wav"),
            speaker=f"g{g}s{s:02d}",
            prompt=w,
            expert1=g,
            expert2=g,
            truth=g,
        )
        for g, size in enumerate(sizes)
        for s in range(size)
        for w in range(prompts)
    ]
    return draw(st.permutations(entries))


@settings(max_examples=100, deadline=None)
@given(_shuffled_corpus(), st.integers(0, 2**32 - 1))
def test_split_properties(entries, seed):
    ref, test = split_corpus(entries, seed)
    assert not {e.speaker for e in ref} & {e.speaker for e in test}
    assert len(ref) + len(test) == len(entries)
    assert set(ref) | set(test) == set(entries)


@pytest.mark.parametrize("n,expected", [(3, 1), (4, 1), (5, 2), (6, 2), (7, 2), (9, 3)])
def test_split_test_count_per_group(n, expected):
    entries = _fake_corpus_entries(1, n, 1)
    _, test = split_corpus(entries, seed=3)
    assert len({e.speaker for e in test}) == expected


def test_split_is_deterministic_and_seed_sensitive():
    entries = _fake_corpus_entries(5, 6, 2)
    ref_a, test_a = split_corpus(entries, seed=42)
    ref_b, test_b = split_corpus(entries, seed=42)
    assert ref_a == ref_b and test_a == test_b
    _, test_other = split_corpus(entries, seed=43)
    assert {e.speaker for e in test_other} != {e.speaker for e in test_a}


def test_split_pinned_selection_for_default_seed():
    entries = _fake_corpus_entries(5, 6, 4)
    _, test = split_corpus(entries, seed=42)
    assert {e.speaker for e in test} == {
        "g0s02",
        "g0s03",
        "g1s02",
        "g1s04",
        "g2s04",
        "g2s05",
        "g3s00",
        "g3s04",
        "g4s00",
        "g4s05",
    }


def test_split_preserves_manifest_order_within_sides():
    entries = _fake_corpus_entries(2, 6, 2)
    ref, test = split_corpus(entries, seed=1)
    assert ref == [e for e in entries if e in ref]
    assert test == [e for e in entries if e in test]


def test_split_rejects_small_cells():
    entries = _fake_corpus_entries(2, 2, 2)
    with pytest.raises(CellTooSmall, match=r"\(0, 0\)"):
        split_corpus(entries, seed=0)


def test_split_requires_labels():
    entry = ManifestEntry(
        path=Path("/none/a.wav"), speaker="a", prompt=0, expert1=None, expert2=0, truth=None
    )
    with pytest.raises(MissingLabel):
        split_corpus([entry], seed=0)


def test_evaluate_system_checks_expert_labels_before_reading(tmp_path):
    # the clips do not exist: reading any of them would raise OSError first
    entries = [dataclasses.replace(e, expert2=None) for e in _fake_corpus_entries(2, 3, 1)]
    manifest = write_manifest(entries, tmp_path / "no_expert2.csv")
    with pytest.raises(MissingLabel, match="expert2"):
        evaluate_system(manifest, FrameConfig())


def test_evaluate_system_end_to_end(small_corpus):
    cfg, manifest = small_corpus
    evaluation = evaluate_system(manifest, FrameConfig(), threshold=0.15, seed=42)

    entries = load_manifest(manifest)
    _, test_entries = split_corpus(entries, seed=42)
    test_speakers = sorted({e.speaker for e in test_entries})
    assert [s for s, _ in evaluation.speaker_labels.entries] == test_speakers
    assert len(test_speakers) == cfg.groups  # one test speaker per group
    assert len(evaluation.utterance_results) == len(test_entries)

    for outcome in evaluation.utterance_results:
        assert outcome.speaker in test_speakers
        assert 0 <= outcome.result.chosen < cfg.groups
        assert len(outcome.result.scores) == cfg.groups

    reports = evaluation.reports()
    assert set(reports) == {"system_vs_expert1", "system_vs_expert2", "expert1_vs_expert2"}
    for report in reports.values():
        assert report.n == len(test_speakers)
        assert 0.0 <= report.total_pct <= report.one_step_pct <= 100.0

    # the synthetic experts copy the truth when label noise is off
    assert evaluation.expert1_vs_expert2.total_pct == 100.0
    assert evaluation.vs_expert1.total_pct == evaluation.vs_expert2.total_pct

    again = evaluate_system(manifest, FrameConfig(), threshold=0.15, seed=42)
    assert again.speaker_labels == evaluation.speaker_labels
    assert again.vs_expert1 == evaluation.vs_expert1
