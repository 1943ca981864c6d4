import base64
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from _helpers import make_bundle, ordered_pair_scalar_std, quadruple_loop_average
from speechstyle import (
    FeatureBundle,
    FrameConfig,
    NormKind,
    build_reference_set,
    classify_utterance,
    compute_cell_average,
    compute_triplet,
    load_manifest,
    load_reference_set,
    save_reference_set,
    scalarize,
    select_ideals,
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
    CorpusIndex,
    ReferenceCell,
    ReferenceSet,
    build_corpus_index,
    default_group_labels,
    ingest_clip,
    reference_set_from_dict,
    reference_set_to_dict,
)


def _cell(rng, n, frames=10, ceps=4):
    return [CellUtterance(speaker=f"s{k}", bundle=make_bundle(rng, frames, ceps)) for k in range(n)]


def _single_cell_index(cell):
    return CorpusIndex(
        prompts=1,
        groups=("group0",),
        cells={(0, 0): tuple(cell)},
        config=FrameConfig(),
    )


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
    index = _single_cell_index(cell)
    refs = select_ideals(index, threshold=1e9)
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
    refs = select_ideals(_single_cell_index(cell), 0.5)
    assert [u.speaker for u in refs.cell(0, 0).ideals] == ["s0"]


def test_zero_threshold_keeps_every_distinct_utterance():
    rng = np.random.default_rng(69)
    cell = _cell(rng, 4)
    avg = compute_cell_average(cell)
    assert avg.variation > 0.0
    refs = select_ideals(_single_cell_index(cell), threshold=0.0)
    assert sorted(u.speaker for u in refs.cell(0, 0).ideals) == [u.speaker for u in cell]


def _shifted(bundle, rng, scale):
    return type(bundle)(
        spectral=bundle.spectral + rng.normal(scale=scale, size=bundle.spectral.shape),
        pitch=bundle.pitch,
        stress=bundle.stress,
        config=bundle.config,
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
    refs = select_ideals(_single_cell_index(cell), threshold)
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
        refs = select_ideals(_single_cell_index(cell), threshold)
        picked = refs.cell(0, 0).ideals
        names = [u.speaker for u in picked]
        assert len(set(names)) == len(names)
        for u in cell:
            best = min(
                scalarize(compute_triplet(u.bundle, p.bundle)) for p in picked
            )
            assert best <= threshold + 1e-9


def test_negative_threshold_rejected():
    rng = np.random.default_rng(76)
    cell = _cell(rng, 2)
    with pytest.raises(ValueError):
        select_ideals(_single_cell_index(cell), -0.1)
    with pytest.raises(ValueError):
        build_reference_set([], FrameConfig(), threshold=-1.0)


def _fake_entries(prompts, groups, skip=()):
    entries = []
    for w in range(prompts):
        for g in range(groups):
            if (w, g) in skip:
                continue
            for s in range(2):
                entries.append(
                    ManifestEntry(
                        path=Path(f"/none/w{w}g{g}s{s}.wav"),
                        speaker=f"g{g}s{s}",
                        prompt=w,
                        expert1=g,
                        expert2=g,
                        truth=g,
                    )
                )
    return entries


def _fake_bundles(entries, rng):
    return {e.path: make_bundle(rng, 9, ceps=4) for e in entries}


def test_build_corpus_index_shapes_cells():
    rng = np.random.default_rng(77)
    entries = _fake_entries(2, 3)
    index = build_corpus_index(entries, FrameConfig(), bundles=_fake_bundles(entries, rng))
    assert index.prompts == 2
    assert index.groups == ("group0", "group1", "group2")
    assert set(index.cells) == {(w, g) for w in range(2) for g in range(3)}
    assert all(len(cell) == 2 for cell in index.cells.values())
    with pytest.raises(MissingCell):
        index.cell(5, 0)


def test_build_corpus_index_reports_missing_cells():
    rng = np.random.default_rng(78)
    entries = _fake_entries(2, 2, skip={(1, 1)})
    with pytest.raises(MissingCell, match=r"\(1, 1\)"):
        build_corpus_index(entries, FrameConfig(), bundles=_fake_bundles(entries, rng))


def test_build_corpus_index_requires_some_label():
    entry = ManifestEntry(
        path=Path("/none/x.wav"), speaker="a", prompt=0, expert1=None, expert2=1, truth=None
    )
    with pytest.raises(MissingLabel):
        build_corpus_index([entry], FrameConfig(), bundles={entry.path: None})


def test_truth_label_outranks_expert_label():
    rng = np.random.default_rng(79)
    entries = _fake_entries(1, 2)
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
    index = build_corpus_index(entries, FrameConfig(), bundles=_fake_bundles(entries, rng))
    assert any(u.speaker == moved.speaker for u in index.cell(0, 0))
    assert not any(u.speaker == moved.speaker for u in index.cell(0, 1))


def test_default_group_labels():
    assert default_group_labels(5) == ("very_bad", "bad", "average", "good", "very_good")
    assert default_group_labels(3) == ("group0", "group1", "group2")


def test_ingest_clip_rejects_rate_mismatch(tiny_corpus):
    _, manifest = tiny_corpus
    entry = load_manifest(manifest)[0]
    bundle = ingest_clip(entry.path, FrameConfig())
    assert bundle.sample_rate == 16000
    assert bundle.frame_count > 0
    with pytest.raises(RateMismatch):
        ingest_clip(entry.path, FrameConfig(), expected_rate=8000)


def test_build_reference_set_from_corpus(tiny_corpus):
    cfg, manifest = tiny_corpus
    entries = load_manifest(manifest)
    refs = build_reference_set(entries, FrameConfig(), threshold=0.15)
    assert refs.groups == ("group0", "group1")
    assert refs.n_groups == 2
    assert refs.n_prompts == cfg.prompts
    assert refs.has_prompt(0) and refs.has_prompt(1)
    assert not refs.has_prompt(cfg.prompts)
    with pytest.raises(MissingCell, match=f"model has no cell for prompt {cfg.prompts}, group 0"):
        refs.cell(cfg.prompts, 0)
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


def test_load_rejects_unknown_version(tiny_corpus, tmp_path):
    _, manifest = tiny_corpus
    refs = build_reference_set(load_manifest(manifest), FrameConfig(), threshold=0.15)
    doc = reference_set_to_dict(refs)
    doc["version"] = 99
    bad = tmp_path / "bad_version.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="version"):
        load_reference_set(bad)


def test_version_1_model_loads_with_rate_unknown(tiny_corpus, tmp_path):
    _, manifest = tiny_corpus
    refs = build_reference_set(load_manifest(manifest), FrameConfig(), threshold=0.15)
    doc = reference_set_to_dict(refs)
    assert doc["version"] == 3 and doc["sample_rate"] == 16000
    doc = _legacy_doc(refs, version=1)
    old = tmp_path / "v1.json"
    old.write_text(json.dumps(doc))
    loaded = load_reference_set(old)
    assert loaded.sample_rate is None
    assert [c.ideals[0].speaker for c in loaded.cells] == [c.ideals[0].speaker for c in refs.cells]


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


def _legacy_doc(refs, version):
    """The model document as versions 1 and 2 wrote it: number lists, null for NaN pitch."""
    doc = reference_set_to_dict(refs)
    doc["version"] = version
    if version == 1:
        del doc["sample_rate"]
    for cell_doc, cell in zip(doc["cells"], refs.cells):
        for item, ideal in zip(cell_doc["ideals"], cell.ideals):
            item["spectral"] = ideal.bundle.spectral.tolist()
            item["pitch"] = [None if math.isnan(x) else x for x in ideal.bundle.pitch.tolist()]
            item["stress"] = ideal.bundle.stress.tolist()
    return doc


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


@pytest.mark.parametrize("version", [1, 2])
def test_older_versions_decode_to_the_same_tracks_as_version_3(tiny_corpus, tmp_path, version):
    _, manifest = tiny_corpus
    refs = build_reference_set(load_manifest(manifest), FrameConfig(), threshold=0.0)
    current = tmp_path / "v3.json"
    save_reference_set(refs, current)
    old = tmp_path / f"v{version}.json"
    old.write_text(json.dumps(_legacy_doc(refs, version), indent=2) + "\n")
    from_old = load_reference_set(old)
    from_current = load_reference_set(current)
    _assert_same_tracks(from_old, from_current)
    _assert_same_tracks(from_current, refs)
    assert from_old.sample_rate == (None if version == 1 else 16000)
    assert current.stat().st_size < old.stat().st_size


_TRACK_VALUES = st.floats(width=64) | st.sampled_from(
    [math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.2250738585072e-308]
)


@st.composite
def _odd_bundles(draw):
    n = draw(st.integers(1, 200))
    ceps = draw(st.sampled_from([1, 13]))
    return FeatureBundle(
        spectral=draw(arrays(np.float64, (n, ceps), elements=_TRACK_VALUES)),
        pitch=draw(arrays(np.float64, n, elements=_TRACK_VALUES)),
        stress=draw(arrays(np.float64, n, elements=_TRACK_VALUES)),
        config=FrameConfig(),
        sample_rate=16000,
    )


@settings(max_examples=150, deadline=None)
@given(bundles=st.lists(_odd_bundles(), min_size=1, max_size=3))
def test_version_3_round_trips_any_float64_bit_for_bit(bundles):
    cell = ReferenceCell(
        prompt=0,
        group=0,
        mean=Triplet(0.5, 0.25, -0.25),
        variation=0.125,
        ideals=tuple(CellUtterance(f"s{k}", b) for k, b in enumerate(bundles)),
    )
    refs = ReferenceSet(config=FrameConfig(), threshold=0.15, groups=("group0",), cells=(cell,))
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


@pytest.mark.parametrize(
    "mutate, match",
    [
        (lambda doc: doc.update(version=4), "unsupported model version 4"),
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
