from pathlib import Path

import numpy as np
import pytest

from speechstyle import (
    FrameConfig,
    ManifestEntry,
    SynthConfig,
    compute_triplet,
    entry_group,
    generate_synthetic_corpus,
    load_manifest,
    render_clean_prompt,
    write_manifest,
)
from speechstyle.audio import read_wav, strip_silence
from speechstyle.errors import ParseError, RankOutOfRange
from speechstyle.features import extract_features
from speechstyle.reference import ingest_clip

GOOD_MANIFEST = """path,speaker,prompt,expert1,expert2,truth
a.wav,spk1,0,1,2,1
sub/b.wav,spk2,1,,0,
/abs/c.wav,spk3,2,4,4,4
"""


def _write(tmp_path, text, name="manifest.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_manifest_parses_rows_and_resolves_paths(tmp_path):
    entries = load_manifest(_write(tmp_path, GOOD_MANIFEST))
    assert len(entries) == 3
    assert entries[0].path == tmp_path / "a.wav"
    assert entries[1].path == tmp_path / "sub" / "b.wav"
    assert entries[2].path == Path("/abs/c.wav")
    assert entries[0].speaker == "spk1"
    assert (entries[0].expert1, entries[0].expert2, entries[0].truth) == (1, 2, 1)
    assert (entries[1].expert1, entries[1].expert2, entries[1].truth) == (None, 0, None)
    assert entries[2].prompt == 2


def test_load_manifest_skips_blank_lines(tmp_path):
    text = "path,speaker,prompt,expert1,expert2,truth\n\na.wav,s,0,0,0,0\n\n"
    assert len(load_manifest(_write(tmp_path, text))) == 1


def test_load_manifest_rejects_bad_header(tmp_path):
    with pytest.raises(ParseError, match="line 1"):
        load_manifest(_write(tmp_path, "path,speaker,prompt\na.wav,s,0\n"))
    with pytest.raises(ParseError, match="line 1"):
        load_manifest(_write(tmp_path, ""))


@pytest.mark.parametrize(
    "row,error,fragment",
    [
        ("a.wav,s,0,0,0", ParseError, "line 2: expected 6 fields"),
        (",s,0,0,0,0", ParseError, "empty audio path"),
        ("a.wav,,0,0,0,0", ParseError, "empty speaker id"),
        ("a.wav,s,x,0,0,0", ParseError, "prompt must be an integer"),
        ("a.wav,s,-1,0,0,0", RankOutOfRange, "prompt -1"),
        ("a.wav,s,0,nope,0,0", ParseError, "expert1 must be an integer"),
        ("a.wav,s,0,0,-3,0", RankOutOfRange, "expert2 -3"),
    ],
)
def test_load_manifest_rejects_bad_rows(tmp_path, row, error, fragment):
    text = "path,speaker,prompt,expert1,expert2,truth\n" + row + "\n"
    with pytest.raises(error, match=fragment):
        load_manifest(_write(tmp_path, text))


def test_load_manifest_enforces_bounds(tmp_path):
    path = _write(tmp_path, GOOD_MANIFEST)
    entries = load_manifest(path, n_prompts=3, n_groups=5)
    assert len(entries) == 3
    with pytest.raises(RankOutOfRange, match="line 4: prompt 2"):
        load_manifest(path, n_prompts=2)
    with pytest.raises(RankOutOfRange, match="expert1 4 outside"):
        load_manifest(path, n_groups=4)


def test_write_manifest_round_trip(tmp_path):
    entries = load_manifest(_write(tmp_path, GOOD_MANIFEST))
    out = write_manifest(entries, tmp_path / "copy.csv")
    assert load_manifest(out) == entries


def test_entry_group_prefers_truth_then_expert1():
    base = dict(path=Path("x.wav"), speaker="s", prompt=0, expert2=None)
    assert entry_group(ManifestEntry(expert1=0, truth=3, **base)) == 3
    assert entry_group(ManifestEntry(expert1=2, truth=None, **base)) == 2
    assert entry_group(ManifestEntry(expert1=None, truth=None, **base)) is None


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(groups=0),
        dict(speakers_per_group=0),
        dict(prompts=0),
        dict(sample_rate=11025),
        dict(duration_ms=0.0),
        dict(label_noise=1.5),
        dict(label_noise=-0.1),
        dict(articulation_noise=(1.0, 0.5)),
        dict(stress_jitter=(0.5, -0.1, 0.2, 0.1, 0.05)),
    ],
)
def test_synth_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        SynthConfig(**kwargs)


def test_synth_config_default_schedules_decrease():
    cfg = SynthConfig(groups=4)
    for schedule in (cfg.articulation_noise, cfg.pitch_shape_jitter, cfg.stress_jitter):
        assert len(schedule) == 4
        assert schedule[0] == 1.0
        assert all(a > b for a, b in zip(schedule, schedule[1:]))
        assert schedule[-1] == pytest.approx(0.12)


def test_generate_corpus_layout(tiny_corpus):
    cfg, manifest = tiny_corpus
    out = manifest.parent
    wavs = sorted(out.glob("*.wav"))
    assert len(wavs) == cfg.groups * cfg.speakers_per_group * cfg.prompts
    assert [w.name for w in wavs] == sorted(
        f"g{g}s{s:02d}_p{w:02d}.wav"
        for g in range(cfg.groups)
        for s in range(cfg.speakers_per_group)
        for w in range(cfg.prompts)
    )
    entries = load_manifest(manifest, n_prompts=cfg.prompts, n_groups=cfg.groups)
    assert len(entries) == len(wavs)
    for entry in entries:
        assert entry.path.exists()
        # with label noise off both experts repeat the ground truth
        assert entry.expert1 == entry.expert2 == entry.truth
        assert entry.speaker.startswith(f"g{entry.truth}")
        clip = read_wav(entry.path)
        assert clip.sample_rate == cfg.sample_rate
        assert float(np.max(np.abs(clip.samples))) <= 0.7 + 1.0 / 32767.0


def test_generate_corpus_is_byte_deterministic(tmp_path):
    cfg = SynthConfig(groups=2, speakers_per_group=2, prompts=1, duration_ms=350.0, seed=13)
    m1 = generate_synthetic_corpus(cfg, tmp_path / "one")
    m2 = generate_synthetic_corpus(cfg, tmp_path / "two")
    assert m1.read_bytes() == m2.read_bytes()
    for wav in sorted((tmp_path / "one").glob("*.wav")):
        twin = tmp_path / "two" / wav.name
        assert wav.read_bytes() == twin.read_bytes()


def test_generate_corpus_seed_changes_audio(tmp_path):
    base = dict(groups=1, speakers_per_group=1, prompts=1, duration_ms=350.0)
    m1 = generate_synthetic_corpus(SynthConfig(seed=1, **base), tmp_path / "one")
    m2 = generate_synthetic_corpus(SynthConfig(seed=2, **base), tmp_path / "two")
    wav1 = next((tmp_path / "one").glob("*.wav"))
    wav2 = next((tmp_path / "two").glob("*.wav"))
    assert wav1.read_bytes() != wav2.read_bytes()
    assert m1.read_bytes() == m2.read_bytes()  # manifest stores names and labels only


def test_speakers_get_individual_tempo(tiny_corpus):
    _, manifest = tiny_corpus
    lengths = {read_wav(e.path).samples.size for e in load_manifest(manifest)}
    assert len(lengths) > 1


def test_label_noise_flips_interior_groups_by_one(tmp_path):
    cfg = SynthConfig(
        groups=3, speakers_per_group=4, prompts=1, duration_ms=350.0, seed=11, label_noise=1.0
    )
    entries = load_manifest(generate_synthetic_corpus(cfg, tmp_path))
    flipped = 0
    for entry in entries:
        for label in (entry.expert1, entry.expert2):
            assert abs(label - entry.truth) <= 1
            flipped += label != entry.truth
        if 0 < entry.truth < cfg.groups - 1:
            assert entry.expert1 != entry.truth
            assert entry.expert2 != entry.truth
    assert flipped > 0


def test_render_clean_prompt_is_deterministic():
    cfg = SynthConfig(groups=2, speakers_per_group=2, prompts=2, duration_ms=350.0, seed=21)
    a = render_clean_prompt(cfg, 0)
    b = render_clean_prompt(cfg, 0)
    other = render_clean_prompt(cfg, 1)
    assert np.array_equal(a.samples, b.samples)
    assert a.sample_rate == cfg.sample_rate
    assert not (other.samples.size == a.samples.size and np.array_equal(other.samples, a.samples))


def test_groups_order_by_distance_to_canonical(small_corpus):
    """Mean articulation distance to the clean prompt falls as rank rises."""
    cfg, manifest = small_corpus
    frame_cfg = FrameConfig()
    templates = {
        w: extract_features(strip_silence(render_clean_prompt(cfg, w)), frame_cfg)
        for w in range(cfg.prompts)
    }
    sums: dict[int, list[float]] = {g: [] for g in range(cfg.groups)}
    for entry in load_manifest(manifest):
        bundle = ingest_clip(entry.path, frame_cfg)
        sums[entry.truth].append(compute_triplet(bundle, templates[entry.prompt]).id)
    means = [float(np.mean(sums[g])) for g in range(cfg.groups)]
    assert all(a > b for a, b in zip(means, means[1:]))


def test_telephone_band_removes_low_and_high_energy(tmp_path):
    base = dict(groups=1, speakers_per_group=1, prompts=1, duration_ms=400.0, seed=3)
    wide = generate_synthetic_corpus(SynthConfig(**base), tmp_path / "wide")
    narrow = generate_synthetic_corpus(SynthConfig(telephone_band=True, **base), tmp_path / "narrow")

    def band_energy(manifest, lo, hi):
        clip = read_wav(load_manifest(manifest)[0].path)
        spectrum = np.abs(np.fft.rfft(clip.samples)) ** 2
        freqs = np.fft.rfftfreq(clip.samples.size, 1.0 / clip.sample_rate)
        return float(spectrum[(freqs >= lo) & (freqs <= hi)].sum())

    assert band_energy(narrow, 0.0, 250.0) < 1e-3 * band_energy(wide, 0.0, 250.0)
    assert band_energy(narrow, 3500.0, 8000.0) < 1e-3 * band_energy(wide, 3500.0, 8000.0)
    assert band_energy(narrow, 300.0, 3400.0) > 0.0
