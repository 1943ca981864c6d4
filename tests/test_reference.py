import base64
import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import speechstyle.reference
from _helpers import (
    fake_corpus_entries,
    make_bundle,
    ordered_pair_scalar_std,
    quadruple_loop_average,
)
from speechstyle import (
    AudioClip,
    FeatureBundle,
    FrameConfig,
    NormKind,
    build_reference_set,
    classify_utterance,
    compute_cell_average,
    compute_triplet,
    ingest_manifest,
    load_manifest,
    load_reference_set,
    read_wav,
    save_reference_set,
    scalarize,
    select_ideals,
    write_wav,
)
from speechstyle.errors import (
    EmptyCell,
    MissingCell,
    MissingLabel,
    ParseError,
    RateMismatch,
)
from speechstyle.corpus import ManifestEntry
from speechstyle.metric import Triplet
from speechstyle.reference import (
    CellUtterance,
    ReferenceCell,
    ReferenceSet,
    _array_from_json,
    _array_to_json,
    build_corpus_index,
    check_threshold,
    default_group_labels,
    ingest_clip,
    reference_set_from_dict,
    reference_set_to_dict,
)


def _cell(rng, n, frames=10, ceps=4):
    return [CellUtterance(speaker=f"s{k}", bundle=make_bundle(rng, frames, ceps)) for k in range(n)]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cell_average_matches_ordered_pair_oracle(n):
    rng = np.random.default_rng(60 + n)
    cell = _cell(rng, n)
    avg = compute_cell_average(cell)
    oracle = quadruple_loop_average([u.bundle for u in cell])
    assert avg.mean.id == pytest.approx(oracle[0], abs=1e-9)
    assert avg.mean.p == pytest.approx(oracle[1], abs=1e-9)
    assert avg.mean.ir == pytest.approx(oracle[2], abs=1e-9)
    assert avg.variation == pytest.approx(
        ordered_pair_scalar_std([u.bundle for u in cell], NormKind.L2), abs=1e-9
    )
    assert avg.size == n


def test_cell_average_single_utterance_is_identity():
    rng = np.random.default_rng(61)
    avg = compute_cell_average(_cell(rng, 1))
    assert avg.mean.as_tuple() == (0.0, 1.0, 1.0)
    assert avg.variation == 0.0


def test_cell_average_two_utterances_closed_form():
    rng = np.random.default_rng(62)
    cell = _cell(rng, 2)
    t = compute_triplet(cell[0].bundle, cell[1].bundle)
    avg = compute_cell_average(cell)
    # diagonal pairs contribute the identity triplet, so the mean of the
    # four ordered pairs lands exactly halfway to (0, 1, 1)
    assert avg.mean.id == pytest.approx(t.id / 2.0, abs=1e-12)
    assert avg.mean.p == pytest.approx((1.0 + t.p) / 2.0, abs=1e-12)
    assert avg.mean.ir == pytest.approx((1.0 + t.ir) / 2.0, abs=1e-12)
    assert avg.variation == 0.0


def test_cell_average_rejects_empty_cell():
    with pytest.raises(EmptyCell):
        compute_cell_average([])


@pytest.mark.parametrize("seed,n", [(63, 2), (64, 3), (65, 4), (66, 5), (67, 6)])
def test_single_medoid_matches_exhaustive_search(seed, n):
    rng = np.random.default_rng(seed)
    cell = _cell(rng, n)
    refs = select_ideals({(0, 0): cell}, threshold=1e9)
    picked = refs.cell(0, 0).ideals
    assert len(picked) == 1

    def total(k):
        return sum(
            scalarize(compute_triplet(cell[k].bundle, cell[l].bundle))
            for l in range(n)
            if l != k
        )

    best = min(range(n), key=lambda k: (total(k), cell[k].speaker))
    assert picked[0].speaker == cell[best].speaker


def test_medoid_tie_prefers_smallest_speaker_id():
    rng = np.random.default_rng(68)
    bundle = make_bundle(rng, 8)
    cell = [CellUtterance(speaker=s, bundle=bundle) for s in ("s2", "s0", "s1")]
    refs = select_ideals({(0, 0): cell}, 0.5)
    assert [u.speaker for u in refs.cell(0, 0).ideals] == ["s0"]


def test_zero_threshold_keeps_every_distinct_utterance():
    rng = np.random.default_rng(69)
    cell = _cell(rng, 4)
    avg = compute_cell_average(cell)
    assert avg.variation > 0.0
    refs = select_ideals({(0, 0): cell}, threshold=0.0)
    assert sorted(u.speaker for u in refs.cell(0, 0).ideals) == [u.speaker for u in cell]


def _shifted(bundle, rng, scale):
    return type(bundle)(
        spectral=bundle.spectral + rng.normal(scale=scale, size=bundle.spectral.shape),
        pitch=bundle.pitch,
        stress=bundle.stress,
        config=bundle.config,
        sample_rate=16000,
    )


def test_two_cluster_cell_selects_one_ideal_per_cluster():
    rng = np.random.default_rng(70)
    base_a = make_bundle(rng, 12, ceps=4)
    base_b = make_bundle(rng, 12, ceps=4)
    members = [_shifted(base_a, rng, 0.02) for _ in range(3)]
    members += [_shifted(base_b, rng, 0.02) for _ in range(3)]
    cell = [CellUtterance(speaker=f"s{k}", bundle=b) for k, b in enumerate(members)]
    scal = {
        (k, l): scalarize(compute_triplet(cell[k].bundle, cell[l].bundle))
        for k in range(6)
        for l in range(6)
        if k != l
    }
    same = lambda k, l: (k < 3) == (l < 3)
    intra_max = max(v for (k, l), v in scal.items() if same(k, l))
    inter_min = min(v for (k, l), v in scal.items() if not same(k, l))
    assert intra_max < inter_min
    threshold = intra_max + 0.25 * (inter_min - intra_max)
    avg = compute_cell_average(cell)
    assert avg.variation > threshold
    refs = select_ideals({(0, 0): cell}, threshold)
    picked = refs.cell(0, 0).ideals
    assert len(picked) == 2
    sides = {int(u.speaker[1]) < 3 for u in picked}
    assert sides == {True, False}
    # every member of the cell sits within the threshold of some ideal
    for k in range(6):
        assert any(
            u.speaker == cell[k].speaker or scal[(k, int(u.speaker[1]))] <= threshold
            for u in picked
        )


def test_greedy_selection_covers_everyone():
    for seed in range(71, 76):
        rng = np.random.default_rng(seed)
        cell = _cell(rng, 5, frames=8)
        avg = compute_cell_average(cell)
        threshold = avg.variation * 0.5
        refs = select_ideals({(0, 0): cell}, threshold)
        picked = refs.cell(0, 0).ideals
        names = [u.speaker for u in picked]
        assert len(set(names)) == len(names)
        for u in cell:
            best = min(
                scalarize(compute_triplet(u.bundle, p.bundle)) for p in picked
            )
            assert best <= threshold + 1e-9


@pytest.mark.parametrize("threshold", [-0.1, math.nan, math.inf])
def test_negative_threshold_rejected(threshold):
    rng = np.random.default_rng(76)
    cell = _cell(rng, 2)
    message = "threshold must be finite and nonnegative"
    with pytest.raises(ValueError, match=message):
        select_ideals({(0, 0): cell}, threshold)
    with pytest.raises(ValueError, match=message):
        build_reference_set([], FrameConfig(), threshold=threshold)


@pytest.mark.parametrize(
    "cells, error, match",
    [({}, MissingCell, "^no cells to select ideals from$"), ({(0, 0): ()}, EmptyCell, "empty cell")],
    ids=["no-cells", "empty-cell"],
)
def test_select_ideals_rejects_a_mapping_without_utterances(cells, error, match):
    with pytest.raises(error, match=match):
        select_ideals(cells, 0.15)


def _grid_cells(prompts=2, groups=2):
    """Valid cells of a prompts x groups grid, one ideal each, in (prompt, group) order."""
    rng = np.random.default_rng(90)
    return [
        ReferenceCell(
            w, g, Triplet(0.0, 1.0, 1.0), 0.0, (CellUtterance(f"s{w}{g}", make_bundle(rng, 4)),)
        )
        for w in range(prompts)
        for g in range(groups)
    ]


@pytest.mark.parametrize("threshold", [0, 0.0, 0.15, np.float64(0.5), np.float32(0.25)])
def test_threshold_rule_accepts_finite_nonnegative_reals(threshold):
    check_threshold(threshold)
    refs = ReferenceSet(FrameConfig(), threshold, ("group0", "group1"), tuple(_grid_cells()))
    assert type(refs.threshold) is float and refs.threshold == threshold


@pytest.mark.parametrize("threshold", [True, False, "0.15", None, -1])
def test_threshold_rule_rejects_bools_strings_and_out_of_range_values(threshold):
    message = f"^threshold must be finite and nonnegative, got {re.escape(repr(threshold))}$"
    with pytest.raises(ValueError, match=message):
        check_threshold(threshold)


def _replace_cell(k, **changes):
    def change(parts):
        parts["cells"][k] = dataclasses.replace(parts["cells"][k], **changes)

    return change


def _non_string_speaker(parts):
    bundle = parts["cells"][0].ideals[0].bundle
    _replace_cell(0, ideals=(CellUtterance(5, bundle),))(parts)


def _replace_bundle(k, **changes):
    """Change the bundle of cell k's ideal."""

    def change(parts):
        ideal = parts["cells"][k].ideals[0]
        bundle = dataclasses.replace(ideal.bundle, **changes)
        _replace_cell(k, ideals=(CellUtterance(ideal.speaker, bundle),))(parts)

    return change


@pytest.mark.parametrize(
    "change, match",
    [
        (lambda parts: parts["cells"].pop(1), r"^model is missing cells \(prompt, group\): \(0, 1\)$"),
        (lambda parts: parts["cells"].clear(), r"^model is missing cells \(prompt, group\): \(0, 0\), \(0, 1\)$"),
        (lambda parts: parts["cells"].append(parts["cells"][2]), r"^cell \(prompt 1, group 0\) is listed twice$"),
        (_replace_cell(3, ideals=()), r"^cell \(prompt 1, group 1\) has no ideals$"),
        (_replace_cell(1, group=2), r"^cell \(prompt 0, group 2\) lies outside the model's 2 groups$"),
        (_replace_cell(0, prompt=-1), r"^cell \(prompt -1, group 0\) lies outside"),
        (_replace_cell(2, prompt=1.0), r"^cell prompt and group must be ints, got 1\.0, 0$"),
        (_non_string_speaker, r"^cell \(prompt 0, group 0\): ideal speaker must be a non-empty string, got 5$"),
        (lambda parts: parts.update(threshold=-1.0), r"^threshold must be finite and nonnegative, got -1\.0$"),
        (lambda parts: parts.update(groups=()), "^model has no groups$"),
        (lambda parts: parts.update(groups=("a", "a")), r"^groups \['a'\] are listed more than once$"),
        (lambda parts: parts.update(groups=("a", "")), "^groups must be a list of non-empty strings"),
        (_replace_bundle(1, sample_rate=44100), r"^ideals mix sample rates \[16000, 44100\]$"),
        (
            lambda parts: parts.update(config=FrameConfig(hop_ms=5.0)),
            r"^cell \(prompt 0, group 0\): ideal 's00' has another frame config$",
        ),
        (
            _replace_bundle(2, config=FrameConfig(hop_ms=5.0)),
            r"^cell \(prompt 1, group 0\): ideal 's10' has another frame config$",
        ),
        (_replace_cell(0, variation=math.nan), r"^cell \(prompt 0, group 0\): variation must be finite and nonnegative, got nan$"),
        (_replace_cell(1, variation=-1.0), r"^cell \(prompt 0, group 1\): variation must be .*, got -1\.0$"),
        (_replace_cell(2, variation=math.inf), r"^cell \(prompt 1, group 0\): variation must be .*, got inf$"),
        (_replace_cell(3, variation=True), r"^cell \(prompt 1, group 1\): variation must be .*, got True$"),
        (_replace_cell(0, variation="0.0"), r"^cell \(prompt 0, group 0\): variation must be .*, got '0\.0'$"),
        (_replace_cell(0, mean=Triplet(True, False, True)), r"^cell \(prompt 0, group 0\): mean must be finite .*, got \(True, False, True\)$"),
        (_replace_cell(1, mean=Triplet(math.inf, 1.0, 1.0)), r"^cell \(prompt 0, group 1\): mean must be .*, got \(inf, 1\.0, 1\.0\)$"),
        (_replace_cell(2, mean=Triplet(math.nan, 1.0, 1.0)), r"^cell \(prompt 1, group 0\): mean must be .*, got \(nan, 1\.0, 1\.0\)$"),
        (_replace_cell(3, mean=(0.0, 1.0, 1.0)), r"^cell \(prompt 1, group 1\): mean must be a Triplet, got \(0\.0, 1\.0, 1\.0\)$"),
    ],
    ids=[
        "hole",
        "no-cells",
        "duplicate",
        "empty-cell",
        "group-out-of-range",
        "negative-prompt",
        "float-prompt",
        "non-string-speaker",
        "negative-threshold",
        "no-groups",
        "repeated-group",
        "empty-group-name",
        "mixed-rate",
        "other-config",
        "one-ideal-of-another-config",
        "nan-variation",
        "negative-variation",
        "infinite-variation",
        "bool-variation",
        "string-variation",
        "bool-mean",
        "infinite-mean",
        "nan-mean",
        "tuple-mean",
    ],
)
def test_reference_set_built_in_code_checks_every_rule(change, match):
    parts = dict(
        config=FrameConfig(), threshold=0.15, groups=("group0", "group1"), cells=_grid_cells()
    )
    change(parts)
    with pytest.raises(ValueError, match=match):
        ReferenceSet(**{**parts, "cells": tuple(parts["cells"])})


def test_reference_set_keeps_cells_in_grid_order_and_looks_them_up_by_position():
    cells = _grid_cells(prompts=3, groups=2)
    refs = ReferenceSet(FrameConfig(), 0, ["group0", "group1"], tuple(reversed(cells)))
    assert refs.cells == tuple(cells)
    assert refs.groups == ("group0", "group1")
    assert (refs.n_prompts, refs.n_groups) == (3, 2)
    for w in range(3):
        for g in range(2):
            assert refs.cell(w, g) is cells[2 * w + g]
    for w, g in [(3, 0), (0, 2), (-1, 0), (0, -1)]:
        with pytest.raises(MissingCell, match=f"^model has no cell for prompt {w}, group {g}$"):
            refs.cell(w, g)


def _fake_clips(monkeypatch, entries, seed):
    """Let ingest_clip give each entry's clip, which does not exist, a random bundle."""
    rng = np.random.default_rng(seed)
    bundles = {e.path: make_bundle(rng, 9, ceps=4) for e in entries}
    monkeypatch.setattr(speechstyle.reference, "ingest_clip", lambda path, cfg: bundles[path])


def test_build_corpus_index_shapes_cells(monkeypatch):
    entries = fake_corpus_entries(3, 2, 2)
    _fake_clips(monkeypatch, entries, 77)
    cells = build_corpus_index(entries, FrameConfig())
    assert list(cells) == [(w, g) for w in range(2) for g in range(3)]
    assert all(len(cell) == 2 for cell in cells.values())
    assert select_ideals(cells, 0.15).groups == ("group0", "group1", "group2")


def test_build_corpus_index_reports_missing_cells(monkeypatch):
    entries = fake_corpus_entries(2, 2, 2, skip={(1, 1)})
    _fake_clips(monkeypatch, entries, 78)
    with pytest.raises(MissingCell, match=r"\(1, 1\)"):
        build_corpus_index(entries, FrameConfig())


def test_build_corpus_index_requires_some_label(monkeypatch):
    entry = ManifestEntry(
        path=Path("/none/x.wav"), speaker="a", prompt=0, expert1=None, expert2=1, truth=None
    )
    _fake_clips(monkeypatch, [entry], 81)
    with pytest.raises(MissingLabel):
        build_corpus_index([entry], FrameConfig())


def test_truth_label_outranks_expert_label(monkeypatch):
    entries = fake_corpus_entries(2, 2, 1)
    # flip one speaker's expert opinion; truth must still place them
    moved = entries[0]
    entries[0] = ManifestEntry(
        path=moved.path,
        speaker=moved.speaker,
        prompt=moved.prompt,
        expert1=1,
        expert2=moved.expert2,
        truth=0,
    )
    _fake_clips(monkeypatch, entries, 79)
    cells = build_corpus_index(entries, FrameConfig())
    assert any(u.speaker == moved.speaker for u in cells[(0, 0)])
    assert not any(u.speaker == moved.speaker for u in cells[(0, 1)])


def test_default_group_labels():
    assert default_group_labels(5) == ("very_bad", "bad", "average", "good", "very_good")
    assert default_group_labels(3) == ("group0", "group1", "group2")


def test_ingest_manifest_rejects_rate_mismatch(tiny_corpus, tmp_path):
    _, manifest = tiny_corpus
    entry, second = load_manifest(manifest)[:2]
    bundle = ingest_clip(entry.path, FrameConfig())
    assert bundle.sample_rate == 16000
    assert bundle.frame_count > 0
    wrong = tmp_path / "wrong_rate.wav"
    write_wav(wrong, AudioClip(read_wav(second.path).samples, 8000))
    entries = [entry, dataclasses.replace(second, path=wrong)]
    with pytest.raises(RateMismatch, match=f"^{re.escape(str(wrong))}: sample rate 8000 "):
        ingest_manifest(entries, FrameConfig())


def test_build_reference_set_from_corpus(tiny_corpus):
    cfg, manifest = tiny_corpus
    entries = load_manifest(manifest)
    refs = build_reference_set(entries, FrameConfig(), threshold=0.15)
    assert refs.groups == ("group0", "group1")
    assert refs.n_groups == 2
    assert refs.n_prompts == cfg.prompts
    with pytest.raises(MissingCell, match=f"model has no cell for prompt {cfg.prompts}, group 0"):
        refs.cell(cfg.prompts, 0)
    for w in range(cfg.prompts):
        for g in range(cfg.groups):
            assert (refs.cell(w, g).prompt, refs.cell(w, g).group) == (w, g)
    assert refs.sample_rate == cfg.sample_rate
    assert len(refs.cells) == cfg.prompts * cfg.groups
    speakers = {e.speaker for e in entries}
    for cell in refs.cells:
        assert 1 <= len(cell.ideals) <= cfg.speakers_per_group
        assert all(u.speaker in speakers for u in cell.ideals)
        assert cell.mean.id >= 0.0
        assert -1.0 <= cell.mean.p <= 1.0
        assert -1.0 <= cell.mean.ir <= 1.0
        assert cell.variation >= 0.0


def test_model_json_round_trip(tiny_corpus, tmp_path):
    _, manifest = tiny_corpus
    entries = load_manifest(manifest)
    refs = build_reference_set(entries, FrameConfig(), threshold=0.15)
    model = tmp_path / "model.json"
    save_reference_set(refs, model)
    loaded = load_reference_set(model)

    assert loaded.config == refs.config
    assert loaded.threshold == refs.threshold
    assert loaded.groups == refs.groups
    assert loaded.sample_rate == refs.sample_rate == 16000
    assert len(loaded.cells) == len(refs.cells)
    for before, after in zip(refs.cells, loaded.cells):
        assert (after.prompt, after.group) == (before.prompt, before.group)
        assert after.mean.as_tuple() == before.mean.as_tuple()
        assert after.variation == before.variation
        assert [u.speaker for u in after.ideals] == [u.speaker for u in before.ideals]
        for u_before, u_after in zip(before.ideals, after.ideals):
            assert np.array_equal(u_before.bundle.spectral, u_after.bundle.spectral)
            assert np.array_equal(u_before.bundle.pitch, u_after.bundle.pitch, equal_nan=True)
            assert np.array_equal(u_before.bundle.stress, u_after.bundle.stress)

    probe = ingest_clip(entries[-1].path, FrameConfig())
    first = classify_utterance(probe, entries[-1].prompt, refs)
    second = classify_utterance(probe, entries[-1].prompt, loaded)
    assert second.chosen == first.chosen
    assert second.dominant == first.dominant
    assert [s.scalar for s in second.scores] == [s.scalar for s in first.scores]


def test_model_file_bytes_are_deterministic(tiny_corpus, tmp_path):
    _, manifest = tiny_corpus
    refs = build_reference_set(load_manifest(manifest), FrameConfig(), threshold=0.15)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_reference_set(refs, a)
    save_reference_set(refs, b)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "prompts, groups, ideals, voiced_prob",
    [(1, 1, 1, 1.0), (2, 3, 4, 1.0), (2, 2, 2, 0.5)],
    ids=["one-cell", "several-ideals", "nan-pitch"],
)
def test_model_file_is_the_whole_document_dumped_at_once(tmp_path, prompts, groups, ideals, voiced_prob):
    rng = np.random.default_rng(11)
    cells = tuple(
        ReferenceCell(
            prompt=w,
            group=g,
            mean=Triplet(0.5, -0.25, 1.0),
            variation=0.1 * g,
            ideals=tuple(
                CellUtterance(f"s{k}", make_bundle(rng, 3 + k, voiced_prob=voiced_prob))
                for k in range(ideals)
            ),
        )
        for w in range(prompts)
        for g in range(groups)
    )
    refs = ReferenceSet(FrameConfig(), 0.15, default_group_labels(groups), cells)
    assert any(np.isnan(u.bundle.pitch).any() for c in cells for u in c.ideals) == (voiced_prob < 1)
    model = tmp_path / "model.json"
    save_reference_set(refs, model)
    assert model.read_bytes() == (json.dumps(reference_set_to_dict(refs), indent=2) + "\n").encode()


def test_load_rejects_unknown_version(tiny_corpus, tmp_path):
    _, manifest = tiny_corpus
    refs = build_reference_set(load_manifest(manifest), FrameConfig(), threshold=0.15)
    doc = reference_set_to_dict(refs)
    doc["version"] = 99
    bad = tmp_path / "bad_version.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="version"):
        load_reference_set(bad)


def test_load_rejects_invalid_json(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json at all")
    with pytest.raises(ParseError):
        load_reference_set(bad)


def test_load_rejects_missing_fields(tiny_corpus, tmp_path):
    _, manifest = tiny_corpus
    refs = build_reference_set(load_manifest(manifest), FrameConfig(), threshold=0.15)
    doc = reference_set_to_dict(refs)
    del doc["threshold"]
    bad = tmp_path / "missing.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        load_reference_set(bad)


def _bits(x):
    return np.asarray(x).view(np.uint64)


def _assert_same_tracks(a, b):
    """Equal cells, speakers and feature tracks, bit for bit."""
    assert len(a.cells) == len(b.cells)
    for ca, cb in zip(a.cells, b.cells):
        assert (ca.prompt, ca.group, ca.mean, ca.variation) == (cb.prompt, cb.group, cb.mean, cb.variation)
        assert [u.speaker for u in ca.ideals] == [u.speaker for u in cb.ideals]
        for ua, ub in zip(ca.ideals, cb.ideals):
            for name in ("spectral", "pitch", "stress"):
                x, y = getattr(ua.bundle, name), getattr(ub.bundle, name)
                assert x.shape == y.shape
                assert np.array_equal(_bits(x), _bits(y)), name


def test_version_3_stores_tracks_as_base64_float64(tiny_corpus):
    _, manifest = tiny_corpus
    refs = build_reference_set(load_manifest(manifest), FrameConfig(), threshold=0.15)
    item = reference_set_to_dict(refs)["cells"][0]["ideals"][0]
    bundle = refs.cells[0].ideals[0].bundle
    assert item["spectral"]["shape"] == list(bundle.spectral.shape)
    assert item["pitch"]["shape"] == [bundle.frame_count]
    raw = bundle.stress.astype("<f8").tobytes()
    assert base64.b64decode(item["stress"]["float64le"], validate=True) == raw


_TRACK_VALUES = st.floats(width=64) | st.sampled_from(
    [math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.2250738585072e-308]
)
_FINITE_VALUES = st.floats(width=64, allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -2.2250738585072e-308]
)


@st.composite
def _bundles(draw, cfg, values=_TRACK_VALUES, pitch_values=_TRACK_VALUES):
    n = draw(st.integers(1, 200))
    return FeatureBundle(
        spectral=draw(arrays(np.float64, (n, cfg.n_ceps), elements=values)),
        pitch=draw(arrays(np.float64, n, elements=pitch_values)),
        stress=draw(arrays(np.float64, n, elements=values)),
        config=cfg,
        sample_rate=16000,
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n_ceps=st.sampled_from([1, 13]))
def test_version_3_round_trips_any_float64_bit_for_bit(data, n_ceps):
    # Any float64 track survives the encoding; a model document holds only
    # tracks that ReferenceSet accepts, so it is drawn from those.
    cfg = FrameConfig(n_ceps=n_ceps)
    odd = data.draw(_bundles(cfg))
    for name in ("spectral", "pitch", "stress"):
        track = getattr(odd, name)
        item = {"speaker": "s", name: _array_to_json(track)}
        decoded = _array_from_json(json.loads(json.dumps(item)), name, track.ndim)
        assert decoded.shape == track.shape
        assert np.array_equal(_bits(decoded), _bits(track)), name
    pitch_values = st.floats(cfg.pitch_fmin, cfg.pitch_fmax, width=64) | st.sampled_from(
        [math.nan, -math.nan, cfg.pitch_fmin, cfg.pitch_fmax]
    )
    bundles = data.draw(
        st.lists(_bundles(cfg, _FINITE_VALUES, pitch_values), min_size=1, max_size=3)
    )
    cell = ReferenceCell(
        prompt=0,
        group=0,
        mean=Triplet(0.5, 0.25, -0.25),
        variation=0.125,
        ideals=tuple(CellUtterance(f"s{k}", b) for k, b in enumerate(bundles)),
    )
    refs = ReferenceSet(config=cfg, threshold=0.15, groups=("group0",), cells=(cell,))
    loaded = reference_set_from_dict(json.loads(json.dumps(reference_set_to_dict(refs))))
    _assert_same_tracks(loaded, refs)
    for ideal in loaded.cells[0].ideals:
        for track in (ideal.bundle.spectral, ideal.bundle.pitch, ideal.bundle.stress):
            assert track.dtype == np.float64
            assert track.flags.c_contiguous and track.flags.writeable and track.flags.owndata


def _break_stress(change):
    def mutate(doc):
        change(doc["cells"][0]["ideals"][0]["stress"])

    return mutate


def _first_ideal(change):
    def mutate(doc):
        change(doc["cells"][0]["ideals"][0])

    return mutate


def _set_value(name, index, value):
    """Set one value of the first ideal's track, re-encoded."""

    def mutate(doc):
        track = doc["cells"][0]["ideals"][0][name]
        values = np.frombuffer(base64.b64decode(track["float64le"]), "<f8").copy()
        values[index] = value
        track["float64le"] = base64.b64encode(values.tobytes()).decode()

    return mutate


def _first_cell(**changes):
    def mutate(doc):
        doc["cells"][0].update(changes)

    return mutate


def _narrow_spectral(ideal, columns=5):
    """Keep only the first columns of an ideal's spectral track, re-encoded."""
    track = ideal["spectral"]
    values = np.frombuffer(base64.b64decode(track["float64le"]), "<f8").reshape(track["shape"])
    narrow = np.ascontiguousarray(values[:, :columns])
    track.update(shape=list(narrow.shape), float64le=base64.b64encode(narrow.tobytes()).decode())


@pytest.mark.parametrize(
    "mutate, match",
    [
        (lambda doc: doc.update(version=4), "unsupported model version 4"),
        (lambda doc: doc.update(version=1), "unsupported model version 1"),
        (lambda doc: doc.update(version=2), "unsupported model version 2"),
        (lambda doc: doc.update(version=3.0), r"unsupported model version 3\.0$"),
        (lambda doc: doc.update(threshold=math.nan), "threshold must be finite and nonnegative, got nan"),
        (lambda doc: doc.update(threshold=math.inf), "threshold must be finite and nonnegative, got inf"),
        (lambda doc: doc.update(threshold=-0.5), r"threshold must be finite and nonnegative, got -0\.5"),
        (lambda doc: doc.update(threshold="0.15"), "threshold must be finite and nonnegative, got '0.15'"),
        (lambda doc: doc.update(sample_rate=11025), r"sample_rate must be an int in \(8000, .*\), got 11025$"),
        (lambda doc: doc.update(sample_rate="16000"), "sample_rate must be an int in .*, got '16000'"),
        (lambda doc: doc.update(sample_rate=16000.0), r"sample_rate must be an int in .*, got 16000\.0"),
        (lambda doc: doc.update(sample_rate=True), "sample_rate must be an int in .*, got True"),
        (lambda doc: doc.pop("sample_rate"), "malformed model file: 'sample_rate'"),
        (lambda doc: doc.pop("groups"), "malformed model file"),
        (_break_stress(lambda t: t.update(float64le="A")), "stress of ideal .*: data is not base64"),
        (_break_stress(lambda t: t.update(float64le="Ω")), "stress of ideal .*: data is not base64"),
        (_break_stress(lambda t: t.update(float64le=7)), "stress of ideal .*: data is not base64"),
        (_break_stress(lambda t: t.update(float64le=t["float64le"][:-12])), "bytes of data, but shape"),
        (_break_stress(lambda t: t["shape"].__setitem__(0, t["shape"][0] + 1)), "bytes of data, but shape"),
        (_break_stress(lambda t: t.update(shape=[t["shape"][0], 1])), "shape .* is not 1 nonnegative"),
        (_break_stress(lambda t: t.update(shape=[-1])), "shape .* is not 1 nonnegative"),
        (_break_stress(lambda t: t.update(shape=[1.5])), "shape .* is not 1 nonnegative"),
        (_break_stress(lambda t: t.update(shape="12")), "shape .* is not 1 nonnegative"),
        (_break_stress(lambda t: t.pop("float64le")), "malformed model file"),
        (lambda doc: doc["cells"].append(doc["cells"][0]), r"cell \(prompt 0, group 0\) is listed twice"),
        (lambda doc: doc["cells"].pop(2), r"model is missing cells \(prompt, group\): \(1, 0\)$"),
        (lambda doc: doc["cells"][1].update(group=7), r"cell \(prompt 0, group 7\) lies outside the model's 2 groups"),
        (lambda doc: doc["cells"][0].update(ideals=[]), r"cell \(prompt 0, group 0\) has no ideals"),
        (lambda doc: doc.update(cells=[]), r"missing cells \(prompt, group\): \(0, 0\), \(0, 1\)$"),
        (lambda doc: doc.update(groups=[], cells=[]), "model has no groups"),
        (lambda doc: doc.update(groups="abcde"), "groups must be a list of non-empty strings, got 'abcde'"),
        (lambda doc: doc.update(groups=[0, 1]), r"groups must be a list of non-empty strings, got \[0, 1\]"),
        (lambda doc: doc.update(groups=["group0", ""]), "groups must be a list of non-empty strings"),
        (lambda doc: doc.update(groups=["group0", "group0"]), r"groups \['group0'\] are listed more than once"),
        (lambda doc: doc["cells"][3].update(prompt=3.9), r"prompt and group must be ints, got 3\.9, 1"),
        (lambda doc: doc["cells"][1].update(group=True), r"prompt and group must be ints, got 0, True"),
        (lambda doc: doc["frame_config"].update(n_ceps=13.0), r"n_ceps must be int, got 13\.0"),
        (lambda doc: doc["frame_config"].update(window_ms=math.nan), "window_ms must be finite, got nan"),
        (lambda doc: doc["frame_config"].update(no_such_knob=1), "unknown field 'no_such_knob'"),
        (lambda doc: doc.update(threshold=True), "threshold must be finite and nonnegative, got True"),
        (_first_ideal(lambda i: i.update(speaker=5)), r"ideal speaker must be a non-empty string, got 5$"),
        (_first_ideal(lambda i: i.update(speaker=["x"])), r"non-empty string, got \['x'\]$"),
        (_first_ideal(lambda i: i.update(speaker="")), r"\(prompt 0, group 0\): ideal speaker .*, got ''$"),
        (
            _first_ideal(_narrow_spectral),
            r"spectral of ideal '.+': 5 coefficients per frame, but frame_config has n_ceps 13$",
        ),
        (_set_value("spectral", 5, math.nan), r"\(prompt 0, group 0\): ideal '.+' has non-finite spectral values$"),
        (_set_value("spectral", -1, -math.inf), r"\(prompt 0, group 0\): ideal '.+' has non-finite spectral values$"),
        (_set_value("stress", 0, math.nan), r"\(prompt 0, group 0\): ideal '.+' has non-finite stress values$"),
        (_set_value("stress", -1, math.inf), r"\(prompt 0, group 0\): ideal '.+' has non-finite stress values$"),
        (_set_value("pitch", 0, math.inf), r"ideal '.+' has pitch neither NaN nor in \[50\.0, 500\.0\] Hz$"),
        (_set_value("pitch", 0, -math.inf), r"ideal '.+' has pitch neither NaN nor in \[50\.0, 500\.0\] Hz$"),
        (_set_value("pitch", -1, math.nextafter(50.0, 0.0)), r"ideal '.+' has pitch neither NaN nor in"),
        (_set_value("pitch", -1, math.nextafter(500.0, math.inf)), r"ideal '.+' has pitch neither NaN nor in"),
        (_first_cell(variation="nan"), r"cell \(prompt 0, group 0\): variation must be finite and nonnegative, got 'nan'$"),
        (_first_cell(variation=-1.0), r"cell \(prompt 0, group 0\): variation must be .*, got -1\.0$"),
        (_first_cell(variation="Infinity"), r"cell \(prompt 0, group 0\): variation must be .*, got 'Infinity'$"),
        (_first_cell(variation=math.nan), r"cell \(prompt 0, group 0\): variation must be .*, got nan$"),
        (_first_cell(variation=math.inf), r"cell \(prompt 0, group 0\): variation must be .*, got inf$"),
        (_first_cell(variation=False), r"cell \(prompt 0, group 0\): variation must be .*, got False$"),
        (_first_cell(mean=[True, False, True]), r"cell \(prompt 0, group 0\): mean must be finite .*, got \[True, False, True\]$"),
        (_first_cell(mean=["nan", 1, 1]), r"cell \(prompt 0, group 0\): mean must be .*, got \['nan', 1, 1\]$"),
        (_first_cell(mean=[math.inf, 1, 1]), r"cell \(prompt 0, group 0\): mean must be .*, got \[inf, 1, 1\]$"),
        (_first_cell(mean=[-0.5, 1, 1]), r"cell \(prompt 0, group 0\): mean must be .*, got \[-0\.5, 1, 1\]$"),
        (_first_cell(mean=[0.5, 1.5, 1]), r"cell \(prompt 0, group 0\): mean must be .*, got \[0\.5, 1\.5, 1\]$"),
        (_first_cell(mean=[0.5, 1]), r"cell \(prompt 0, group 0\): mean must be .*, got \[0\.5, 1\]$"),
        (_first_cell(mean="0.5"), r"cell \(prompt 0, group 0\): mean must be .*, got '0\.5'$"),
    ],
)
def test_model_load_errors_name_the_model_path(tiny_corpus, tmp_path, mutate, match):
    _, manifest = tiny_corpus
    refs = build_reference_set(load_manifest(manifest), FrameConfig(), threshold=0.15)
    doc = reference_set_to_dict(refs)
    mutate(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=match) as caught:
        load_reference_set(bad)
    assert str(caught.value).startswith(f"{bad}: ")
