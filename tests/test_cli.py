import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import speechstyle
from _helpers import write_float_wav
from speechstyle import load_manifest, load_reference_set, write_manifest
from speechstyle.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    """A 2x3x1 corpus generated through the CLI itself."""
    out = tmp_path_factory.mktemp("cli_corpus")
    code = main(
        [
            "synth",
            "--out",
            str(out),
            "--groups",
            "2",
            "--speakers-per-group",
            "3",
            "--prompts",
            "1",
            "--duration-ms",
            "400",
            "--seed",
            "9",
        ]
    )
    assert code == 0
    return out / "manifest.csv"


@pytest.fixture(scope="module")
def cli_model(cli_corpus, tmp_path_factory):
    model = tmp_path_factory.mktemp("cli_model") / "model.json"
    code = main(["build-refs", "--manifest", str(cli_corpus), "--out", str(model)])
    assert code == 0
    return model


def test_no_arguments_is_usage_error(capsys):
    code, _, err = _run(capsys)
    assert code == 1
    assert "usage" in err.lower()


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = _run(capsys, "frobnicate")
    assert code == 1
    assert "usage" in err.lower()


@pytest.mark.parametrize(
    "command,flag,value",
    [
        ("synth", "--wibble", "3"),
        ("synth", "--norm", "l1"),
        ("synth", "--threshold", "0.2"),
        ("synth", "--frame-config", "{}"),
        ("build-refs", "--seed", "5"),
        ("classify", "--seed", "5"),
        ("classify", "--frame-config", "{}"),
        ("agreement", "--seed", "5"),
        ("agreement", "--norm", "l1"),
        ("agreement", "--threshold", "0.2"),
        ("agreement", "--frame-config", "{}"),
    ],
)
def test_unknown_flag_is_usage_error(capsys, tmp_path, command, flag, value):
    out = tmp_path / "out"
    required = {
        "synth": ["--out", str(out)],
        "build-refs": ["--manifest", "m.csv", "--out", str(out)],
        "classify": ["--model", "model.json", "--manifest", "m.csv", "--out", str(out)],
        "agreement": ["--a", "a.csv", "--b", "b.csv"],
    }[command]
    code, stdout, err = _run(capsys, command, *required, flag, value)
    assert code == 1
    assert "usage" in err.lower()
    assert stdout == ""
    assert not out.exists()


def test_invalid_group_count_is_usage_error(capsys):
    code, _, err = _run(capsys, "synth", "--out", "x", "--groups", "0")
    assert code == 1
    assert "usage" in err.lower()


def test_synth_reports_manifest_and_count(capsys, tmp_path):
    out = tmp_path / "corpus"
    code, stdout, err = _run(
        capsys,
        "synth",
        "--out",
        str(out),
        "--groups",
        "2",
        "--speakers-per-group",
        "2",
        "--prompts",
        "1",
        "--duration-ms",
        "350",
    )
    assert code == 0
    assert stdout.strip() == str(out / "manifest.csv")
    assert "wrote 4 wav files" in err
    assert len(list(out.glob("*.wav"))) == 4


def test_synth_reruns_identically(capsys, tmp_path):
    args = ["--groups", "1", "--speakers-per-group", "2", "--prompts", "1", "--duration-ms", "350"]
    code1, _, _ = _run(capsys, "synth", "--out", str(tmp_path / "a"), *args)
    code2, _, _ = _run(capsys, "synth", "--out", str(tmp_path / "b"), *args)
    assert code1 == code2 == 0
    for wav in sorted((tmp_path / "a").glob("*.wav")):
        assert wav.read_bytes() == (tmp_path / "b" / wav.name).read_bytes()


def test_build_refs_writes_model_and_cell_lines(cli_corpus, capsys, tmp_path):
    model = tmp_path / "model.json"
    code, stdout, err = _run(
        capsys, "build-refs", "--manifest", str(cli_corpus), "--out", str(model)
    )
    assert code == 0
    assert model.exists()
    lines = stdout.strip().splitlines()
    assert len(lines) == 2  # one per (prompt, group) cell
    assert lines[0] == "prompt 0 group 0: 1 ideal(s)"
    assert str(model) in err
    refs = load_reference_set(model)
    assert refs.n_groups == 2


def test_build_refs_zero_threshold_keeps_everyone(cli_corpus, capsys, tmp_path):
    model = tmp_path / "all.json"
    code, stdout, _ = _run(
        capsys,
        "build-refs",
        "--manifest",
        str(cli_corpus),
        "--out",
        str(model),
        "--threshold",
        "0",
    )
    assert code == 0
    assert stdout.splitlines() == [
        "prompt 0 group 0: 3 ideal(s)",
        "prompt 0 group 1: 3 ideal(s)",
    ]


def test_build_refs_rejects_missing_cell(cli_corpus, capsys, tmp_path):
    entries = [e for e in load_manifest(cli_corpus) if e.truth != 0]
    short = write_manifest(entries, tmp_path / "short.csv")
    code, _, err = _run(
        capsys, "build-refs", "--manifest", str(short), "--out", str(tmp_path / "m.json")
    )
    assert code == 2
    assert "error" in err
    assert "(0, 0)" in err


def test_classify_training_corpus(cli_corpus, cli_model, capsys, tmp_path):
    results = tmp_path / "results.csv"
    code, _, err = _run(
        capsys,
        "classify",
        "--model",
        str(cli_model),
        "--manifest",
        str(cli_corpus),
        "--out",
        str(results),
    )
    assert code == 0
    assert "classified 6 utterances" in err
    with open(results, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["speaker", "prompt", "chosen", "dominant", "scalar_0", "scalar_1"]
    utterances = rows[1:7]
    speakers = rows[7:]
    entries = load_manifest(cli_corpus)
    truth = {e.speaker: e.truth for e in entries}
    for row in utterances:
        assert row[1] == "0"
        assert row[3] in ("true", "false")
        assert int(row[2]) == truth[row[0]]
        assert all(float(x) >= 0.0 for x in row[4:])
    assert len(speakers) == 6
    for row in speakers:
        assert row[1] == "" and row[3] == ""
        assert int(row[2]) == truth[row[0]]


def test_classify_empty_manifest_writes_header_only(cli_model, capsys, tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("path,speaker,prompt,expert1,expert2,truth\n")
    results = tmp_path / "results.csv"
    code, _, _ = _run(
        capsys, "classify", "--model", str(cli_model), "--manifest", str(empty), "--out", str(results)
    )
    assert code == 0
    assert results.read_text().strip() == "speaker,prompt,chosen,dominant,scalar_0,scalar_1"


def test_classify_rejects_nan_clip_before_writing(cli_corpus, cli_model, capsys, tmp_path):
    entries = load_manifest(cli_corpus)
    bad_wav = tmp_path / "nan.wav"
    samples = np.full(6400, 0.1, dtype=np.float32)
    samples[100] = np.nan
    write_float_wav(bad_wav, 16000, samples)
    # the bad clip comes last: every clip is read before any is scored
    bad = type(entries[0])(path=bad_wav, speaker="zz", prompt=0, expert1=None, expert2=None, truth=None)
    manifest = write_manifest([*entries, bad], tmp_path / "nan.csv")
    results = tmp_path / "r.csv"
    code, _, err = _run(
        capsys,
        "classify",
        "--model",
        str(cli_model),
        "--manifest",
        str(manifest),
        "--out",
        str(results),
    )
    assert code == 2
    assert str(bad_wav) in err
    assert not results.exists()


def test_classify_rejects_manifest_at_another_rate_than_the_model(cli_corpus, capsys, tmp_path):
    corpus = tmp_path / "corpus44k"
    assert main(["synth", "--out", str(corpus), "--groups", "2", "--speakers-per-group", "2",
                 "--prompts", "1", "--duration-ms", "400", "--sample-rate", "44100"]) == 0
    model = tmp_path / "model44k.json"
    assert main(["build-refs", "--manifest", str(corpus / "manifest.csv"), "--out", str(model)]) == 0
    capsys.readouterr()
    results = tmp_path / "r.csv"
    code, _, err = _run(
        capsys,
        "classify",
        "--model",
        str(model),
        "--manifest",
        str(cli_corpus),
        "--out",
        str(results),
    )
    assert code == 2
    assert "16000" in err and "44100" in err and str(model) in err
    assert not results.exists()


def test_classify_rejects_unknown_prompt(cli_corpus, cli_model, capsys, tmp_path):
    entries = load_manifest(cli_corpus)
    bumped = [
        type(entries[0])(
            path=entries[0].path,
            speaker=entries[0].speaker,
            prompt=7,
            expert1=None,
            expert2=None,
            truth=None,
        )
    ]
    manifest = write_manifest(bumped, tmp_path / "bad_prompt.csv")
    code, _, err = _run(
        capsys,
        "classify",
        "--model",
        str(cli_model),
        "--manifest",
        str(manifest),
        "--out",
        str(tmp_path / "r.csv"),
    )
    assert code == 2
    assert "prompt 7" in err


def test_classify_ignores_threshold_with_a_note(cli_corpus, cli_model, capsys, tmp_path):
    plain, noted = tmp_path / "plain.csv", tmp_path / "noted.csv"
    argv = ["classify", "--model", str(cli_model), "--manifest", str(cli_corpus), "--out"]
    code, _, err = _run(capsys, *argv, str(plain))
    assert code == 0
    assert "threshold" not in err
    code, _, err = _run(capsys, *argv, str(noted), "--threshold", "0.9")
    assert code == 0
    assert "ignores --threshold" in err
    assert noted.read_bytes() == plain.read_bytes()


def test_frame_config_file_and_bad_json(cli_corpus, capsys, tmp_path):
    cfg_file = tmp_path / "frames.json"
    cfg_file.write_text('{"n_ceps": 10}\n')
    model = tmp_path / "m10.json"
    code, _, _ = _run(
        capsys,
        "build-refs",
        "--manifest",
        str(cli_corpus),
        "--out",
        str(model),
        "--frame-config",
        str(cfg_file),
    )
    assert code == 0
    assert load_reference_set(model).config.n_ceps == 10

    bad_file = tmp_path / "bad.json"
    bad_file.write_text("{bad\n")
    cases = [
        ("{bad", ["--frame-config:", "not valid JSON"]),
        (str(bad_file), [f"--frame-config {bad_file}:", "not valid JSON"]),
        ('{"no_such_knob": 1}', ["unknown field 'no_such_knob'"]),
        ('{"hop_ms": 50}', ["--frame-config: hop_ms must not exceed window_ms"]),
        ('{"n_ceps": "x"}', ["--frame-config: n_ceps must be int, got 'x'"]),
    ]
    for text, fragments in cases:
        out = tmp_path / "x.json"
        argv = ["build-refs", "--manifest", str(cli_corpus), "--out", str(out)]
        code, _, err = _run(capsys, *argv, "--frame-config", text)
        assert code == 2
        assert all(fragment in err for fragment in fragments), (text, err)
        assert not out.exists()


def test_evaluate_writes_report_and_table(small_corpus, capsys, tmp_path):
    _, manifest = small_corpus
    report_path = tmp_path / "report.json"
    code, stdout, err = _run(
        capsys, "evaluate", "--manifest", str(manifest), "--out", str(report_path)
    )
    assert code == 0
    assert "Total agreement" in stdout
    assert "1-step agreement" in stdout
    assert "System-Expert1" in stdout
    doc = json.loads(report_path.read_text())
    assert set(doc) == {"system_vs_expert1", "system_vs_expert2", "expert1_vs_expert2"}
    for report in doc.values():
        assert set(report) == {"n", "total_pct", "one_step_pct", "confusion"}
        assert report["n"] == 5
    assert doc["expert1_vs_expert2"]["total_pct"] == 100.0


def test_evaluate_without_out_prints_json(small_corpus, capsys):
    _, manifest = small_corpus
    code, stdout, _ = _run(capsys, "evaluate", "--manifest", str(manifest))
    assert code == 0
    payload = stdout[stdout.index("{") :]
    doc = json.loads(payload)
    assert "system_vs_expert1" in doc


def test_evaluate_names_the_manifest_in_parse_errors(capsys, tmp_path):
    manifest = tmp_path / "bad_prompt.csv"
    manifest.write_text("path,speaker,prompt,expert1,expert2,truth\na.wav,s,x,0,0,0\n")
    code, _, err = _run(capsys, "evaluate", "--manifest", str(manifest))
    assert code == 2
    assert f"{manifest}: line 2: prompt must be an integer" in err


def test_evaluate_missing_manifest_is_data_error(capsys, tmp_path):
    code, _, err = _run(capsys, "evaluate", "--manifest", str(tmp_path / "nope.csv"))
    assert code == 2
    assert "error" in err


def _label_file(tmp_path, name, pairs):
    path = tmp_path / name
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("subject", "rank"))
        writer.writerows(pairs)
    return path


def test_agreement_identical_files(capsys, tmp_path):
    pairs = [(f"s{i}", i % 3) for i in range(12)]
    a = _label_file(tmp_path, "a.csv", pairs)
    b = _label_file(tmp_path, "b.csv", pairs)
    code, stdout, _ = _run(capsys, "agreement", "--a", str(a), "--b", str(b))
    assert code == 0
    assert "Total agreement   100.0 %" in stdout
    assert "1-step agreement  100.0 %" in stdout


def test_agreement_mixed_profile(capsys, tmp_path):
    subjects = [f"s{i:03d}" for i in range(100)]
    a = _label_file(tmp_path, "a.csv", [(s, 0) for s in subjects])
    ranks = [0] * 26 + [1] * 19 + [3] * 55
    b = _label_file(tmp_path, "b.csv", list(zip(subjects, ranks)))
    code, stdout, _ = _run(capsys, "agreement", "--a", str(a), "--b", str(b))
    assert code == 0
    assert "Total agreement   26.0 %" in stdout
    assert "1-step agreement  45.0 %" in stdout
    assert "n                 100" in stdout


def test_agreement_disjoint_subjects_is_data_error(capsys, tmp_path):
    a = _label_file(tmp_path, "a.csv", [("x", 0)])
    b = _label_file(tmp_path, "b.csv", [("y", 0)])
    code, _, err = _run(capsys, "agreement", "--a", str(a), "--b", str(b))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "text",
    [
        "wrong,header\nx,0\n",
        "subject,rank\nx,zero\n",
        "subject,rank\nx,0\nx,1\n",
        "subject,rank\nx,-2\n",
    ],
)
def test_agreement_rejects_malformed_label_files(capsys, tmp_path, text):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    good = _label_file(tmp_path, "good.csv", [("x", 0)])
    code, _, err = _run(capsys, "agreement", "--a", str(bad), "--b", str(good))
    assert code == 2
    assert "error" in err


def test_agreement_missing_file_is_data_error(capsys, tmp_path):
    good = _label_file(tmp_path, "good.csv", [("x", 0)])
    code, _, err = _run(capsys, "agreement", "--a", str(tmp_path / "ghost.csv"), "--b", str(good))
    assert code == 2


def test_cli_job_path_loads_neither_scipy_nor_numpy_random(tmp_path):
    # numpy.random stays unloaded too: importing it costs every job memory and time
    wav = str(tmp_path / "tone.wav")
    script = f"""
import sys
import numpy as np
import speechstyle.cli
from speechstyle import AudioClip, FrameConfig, extract_features, read_wav, write_wav
t = np.arange(8000) / 16000
write_wav({wav!r}, AudioClip(0.5 * np.sin(2 * np.pi * 200 * t), 16000))
extract_features(read_wav({wav!r}), FrameConfig())
print(",".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy" or m == "numpy.random")))
"""
    src = Path(speechstyle.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""


def _evaluate_with_one_bad_clip(small_corpus, capsys, tmp_path, bad_wav):
    """Run evaluate on the small corpus with its fourth clip swapped for bad_wav."""
    _, manifest = small_corpus
    entries = load_manifest(manifest)
    entries[3] = dataclasses.replace(entries[3], path=bad_wav)
    swapped = write_manifest(entries, tmp_path / "swapped.csv")
    report = tmp_path / "report.json"
    code, _, err = _run(capsys, "evaluate", "--manifest", str(swapped), "--out", str(report))
    assert code == 2
    assert str(bad_wav) in err
    assert not report.exists()
    return err


def test_evaluate_names_a_silent_clip(small_corpus, capsys, tmp_path):
    silent = tmp_path / "silent.wav"
    speechstyle.write_wav(silent, speechstyle.AudioClip(np.zeros(8000), 16000))
    err = _evaluate_with_one_bad_clip(small_corpus, capsys, tmp_path, silent)
    assert "shorter than one 400-sample window" in err


def test_evaluate_names_a_clip_at_an_unsupported_rate(small_corpus, capsys, tmp_path):
    odd_rate = tmp_path / "odd_rate.wav"
    t = np.arange(4410) / 11025
    write_float_wav(odd_rate, 11025, (0.5 * np.sin(2 * np.pi * 200 * t)).astype(np.float32))
    err = _evaluate_with_one_bad_clip(small_corpus, capsys, tmp_path, odd_rate)
    assert "sample rate 11025" in err
