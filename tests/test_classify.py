import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import make_bundle
from speechstyle import (
    FrameConfig,
    NormKind,
    Triplet,
    classify_manifest,
    classify_speaker,
    classify_utterance,
    scalarize,
    score_against_group,
    select_ideals,
)
from speechstyle import reference
from speechstyle.corpus import ManifestEntry
from speechstyle.classify import ClassificationResult, GroupScore
from speechstyle.errors import EmptyCell, EmptyResults
from speechstyle.metric import triplet_components
from speechstyle.reference import CellUtterance, ReferenceCell, ReferenceSet, default_group_labels


def test_scalarize_worked_example():
    t = Triplet(1.0, 0.0, 0.0)
    assert triplet_components(t) == (0.5, 0.5, 0.5)
    assert scalarize(t, NormKind.L2) == pytest.approx(0.8660, abs=5e-5)
    assert scalarize(t, NormKind.LINF) == 0.5
    assert scalarize(t, NormKind.L1) == 1.5


def test_scalarize_identity_is_zero_under_every_norm():
    t = Triplet(0.0, 1.0, 1.0)
    for norm in NormKind:
        assert scalarize(t, norm) == 0.0


def test_scalarize_components_bounded():
    rng = np.random.default_rng(40)
    for _ in range(50):
        t = Triplet(float(rng.uniform(0, 50)), float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
        v = triplet_components(t)
        assert all(0.0 <= x <= 1.0 for x in v)
        assert scalarize(t, NormKind.LINF) <= scalarize(t, NormKind.L2) <= scalarize(t, NormKind.L1)


def test_argmin_is_stable_under_positive_scaling():
    rng = np.random.default_rng(41)
    for _ in range(30):
        scalars = rng.uniform(0.01, 2.0, 5)
        for c in (0.5, 3.0, 17.0):
            scaled = c * scalars
            assert int(np.argmin(scaled)) == int(np.argmin(scalars))


def test_score_against_group_picks_min_scalar():
    rng = np.random.default_rng(42)
    test = make_bundle(rng, 12, ceps=5)
    ideals = [CellUtterance(f"s{i}", make_bundle(rng, 12, ceps=5)) for i in range(4)]
    score = score_against_group(test, ideals, group=2)
    from speechstyle import compute_triplet

    scalars = {u.speaker: scalarize(compute_triplet(test, u.bundle)) for u in ideals}
    best = min(scalars.items(), key=lambda kv: (kv[1], kv[0]))
    assert score.group == 2
    assert score.ideal_used == best[0]
    assert score.scalar == pytest.approx(best[1])
    assert score.scalar >= 0.0


def test_score_against_group_tie_prefers_smaller_speaker_id():
    rng = np.random.default_rng(43)
    test = make_bundle(rng, 10, ceps=5)
    twin = make_bundle(rng, 10, ceps=5)
    score = score_against_group(test, [CellUtterance("s9", twin), CellUtterance("s1", twin)], group=0)
    assert score.ideal_used == "s1"


def test_score_against_group_rejects_empty_cell():
    rng = np.random.default_rng(44)
    with pytest.raises(EmptyCell):
        score_against_group(make_bundle(rng, 5), [], group=0)


def _one_prompt_refs(ideals_by_group):
    """A one-prompt reference set whose group g holds ideals_by_group[g]."""
    cells = tuple(
        ReferenceCell(0, g, Triplet(0.0, 1.0, 1.0), 0.0, tuple(ideals))
        for g, ideals in enumerate(ideals_by_group)
    )
    return ReferenceSet(FrameConfig(), 0.15, default_group_labels(len(cells)), cells)


def _refs_from_bundles(per_group):
    return _one_prompt_refs([[CellUtterance(f"g{g}", fb)] for g, fb in enumerate(per_group)])


def test_dominant_group_wins():
    from speechstyle import classify_utterance

    rng = np.random.default_rng(45)
    target = make_bundle(rng, 15, ceps=6)
    near = make_bundle(rng, 15, ceps=6)
    far_a = make_bundle(rng, 15, ceps=6)
    far_b = make_bundle(rng, 15, ceps=6)
    # group 1 holds the test utterance itself: its triplet (0, 1, 1)
    # beats every other group in all three components at once
    refs = _refs_from_bundles([near, target, far_a, far_b])
    result = classify_utterance(target, 0, refs)
    assert result.chosen == 1
    assert result.dominant is True
    assert result.margin >= 0.0
    assert result.scores[1].scalar == 0.0


def test_no_dominant_group_falls_back_to_argmin():
    from speechstyle import classify_utterance
    import speechstyle.classify as classify_mod

    # constructed scores: group 0 has the best id, group 1 the best p,
    # so neither dominates and the smaller scalar decides
    t0 = Triplet(0.1, 0.2, 0.5)
    t1 = Triplet(0.4, 0.9, 0.9)
    recorded = [t0, t1]
    rng = np.random.default_rng(48)
    refs = _refs_from_bundles([make_bundle(rng, 5), make_bundle(rng, 5)])

    def fake_score(test, ideals, group, norm=NormKind.L2):
        t = recorded[group]
        return GroupScore(group=group, triplet=t, scalar=scalarize(t, norm), ideal_used="x")

    orig = classify_mod.score_against_group
    classify_mod.score_against_group = fake_score
    try:
        result = classify_mod.classify_utterance(object(), 0, refs)
    finally:
        classify_mod.score_against_group = orig
    assert result.dominant is False
    expected = min((0, 1), key=lambda g: scalarize(recorded[g]))
    assert result.chosen == expected
    assert result.margin == pytest.approx(
        abs(scalarize(t0) - scalarize(t1))
    )


def test_single_group_is_vacuously_dominant():
    from speechstyle import classify_utterance

    rng = np.random.default_rng(46)
    test = make_bundle(rng, 10, ceps=5)
    refs = _refs_from_bundles([make_bundle(rng, 10, ceps=5)])
    result = classify_utterance(test, 0, refs)
    assert result.chosen == 0
    assert result.dominant is True
    assert result.margin == 0.0


def test_one_group_model_is_dominant_with_zero_margin():
    rng = np.random.default_rng(47)
    cell = tuple(CellUtterance(f"s{k}", make_bundle(rng, 10, ceps=5)) for k in range(3))
    refs = select_ideals({(0, 0): cell}, threshold=0.15)
    result = classify_utterance(make_bundle(rng, 10, ceps=5), 0, refs)
    assert (result.chosen, result.dominant, result.margin) == (0, True, 0.0)


def test_argmin_tie_between_identical_groups_goes_to_the_lower_group():
    rng = np.random.default_rng(49)
    twin = make_bundle(rng, 10, ceps=5)
    # Both groups hold the same ideal: both dominate, so dominance does
    # not decide, and their scalars tie exactly.
    result = classify_utterance(make_bundle(rng, 10, ceps=5), 0, _refs_from_bundles([twin, twin]))
    assert result.scores[0].scalar == result.scores[1].scalar
    assert (result.chosen, result.dominant) == (0, False)


def test_a_group_tied_on_id_and_better_on_p_and_ir_dominates(monkeypatch):
    import speechstyle.classify as classify_mod

    recorded = [Triplet(0.3, 0.9, 0.8), Triplet(0.3, 0.4, 0.5)]
    rng = np.random.default_rng(50)
    refs = _refs_from_bundles([make_bundle(rng, 5), make_bundle(rng, 5)])

    def fake_score(test, ideals, group, norm=NormKind.L2):
        t = recorded[group]
        return GroupScore(group=group, triplet=t, scalar=scalarize(t, norm), ideal_used="x")

    monkeypatch.setattr(classify_mod, "score_against_group", fake_score)
    result = classify_mod.classify_utterance(object(), 0, refs)
    assert (result.chosen, result.dominant) == (0, True)


@pytest.mark.parametrize("prompt", [3, 1, -1])
def test_unknown_prompt_rejected(prompt):
    from speechstyle import classify_utterance
    from speechstyle.errors import UnknownPrompt

    rng = np.random.default_rng(47)
    refs = _refs_from_bundles([make_bundle(rng, 8)])
    with pytest.raises(UnknownPrompt, match=f"^prompt {prompt} is not covered"):
        classify_utterance(make_bundle(rng, 8), prompt, refs)


def _random_cells(rng, groups):
    """Up to four ideals per group, with distinct speaker ids."""
    return [
        [
            CellUtterance(
                f"s{g}-{k}", make_bundle(rng, int(rng.integers(3, 15)), ceps=5, voiced_prob=0.8)
            )
            for k in range(int(rng.integers(1, 5)))
        ]
        for g in range(groups)
    ]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.randoms(use_true_random=False))
def test_classification_does_not_depend_on_ideal_order(seed, groups, random):
    rng = np.random.default_rng(seed)
    cells = _random_cells(rng, groups)
    permuted = [random.sample(cell, len(cell)) for cell in cells]
    test = make_bundle(rng, int(rng.integers(3, 15)), ceps=5, voiced_prob=0.8)
    for norm in NormKind:
        expected = classify_utterance(test, 0, _one_prompt_refs(cells), norm)
        assert classify_utterance(test, 0, _one_prompt_refs(permuted), norm) == expected


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.randoms(use_true_random=False))
def test_classify_manifest_results_do_not_depend_on_entry_order(seed, n, random):
    rng = np.random.default_rng(seed)
    refs = _one_prompt_refs(_random_cells(rng, 3))
    entries = [
        ManifestEntry(Path(f"u{i}.wav"), f"spk{i % 3}", 0, None, None, None) for i in range(n)
    ]
    bundles = {e.path: make_bundle(rng, int(rng.integers(3, 15)), ceps=5) for e in entries}
    order = random.sample(range(n), n)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reference, "ingest_clip", lambda path, cfg: bundles[path])
        results, by_speaker = classify_manifest(entries, refs)
        shuffled, shuffled_by_speaker = classify_manifest([entries[i] for i in order], refs)
    assert shuffled == [results[i] for i in order]
    assert list(shuffled_by_speaker) == list(by_speaker)
    for speaker, got in shuffled_by_speaker.items():
        assert got == [results[i] for i in order if entries[i].speaker == speaker]


def _result(chosen, scalars, prompt=0):
    scores = tuple(
        GroupScore(group=g, triplet=Triplet(0.1, 0.5, 0.5), scalar=s, ideal_used="x")
        for g, s in enumerate(scalars)
    )
    return ClassificationResult(
        prompt=prompt, scores=scores, chosen=chosen, dominant=False, margin=0.0
    )


def test_speaker_majority_vote():
    results = [
        _result(2, [0.9, 0.8, 0.1]),
        _result(2, [0.9, 0.8, 0.2]),
        _result(1, [0.9, 0.1, 0.8]),
    ]
    assert classify_speaker(results) == 2


def test_speaker_tie_breaks_on_mean_scalar():
    results = [
        _result(0, [0.50, 0.90]),
        _result(1, [0.90, 0.10]),
    ]
    # votes tie 1-1; group 1 has the smaller mean scalar (0.5 vs 0.7)
    assert classify_speaker(results) == 1


def test_speaker_tie_breaks_on_rank_when_means_tie():
    results = [
        _result(0, [0.5, 0.5]),
        _result(1, [0.5, 0.5]),
    ]
    assert classify_speaker(results) == 0


def test_speaker_aggregation_rejects_empty():
    with pytest.raises(EmptyResults):
        classify_speaker([])
