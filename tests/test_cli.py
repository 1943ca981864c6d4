import argparse
import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import speechstyle
from _helpers import fake_corpus_entries, make_bundle, write_float_wav
from speechstyle import SynthConfig, load_manifest, load_reference_set, split_corpus, write_manifest
from speechstyle.cli import build_parser, main
from speechstyle.corpus import load_labels


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


@pytest.fixture(scope="module")
def cli_corpus_44k(tmp_path_factory):
    """A 2x2x1 corpus at 44.1 kHz and the model built from it."""
    corpus = tmp_path_factory.mktemp("cli_corpus_44k")
    assert main(["synth", "--out", str(corpus), "--groups", "2", "--speakers-per-group", "2",
                 "--prompts", "1", "--duration-ms", "400", "--sample-rate", "44100"]) == 0
    model = corpus / "model44k.json"
    assert main(["build-refs", "--manifest", str(corpus / "manifest.csv"), "--out", str(model)]) == 0
    return corpus / "manifest.csv", model


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
    assert f"usage: speechstyle {command} " in err
    assert stdout == ""
    assert not out.exists()


_BAD_SYNTH_VALUES = [
    ("--groups", "0", "groups"),
    ("--speakers-per-group", "0", "speakers_per_group"),
    ("--prompts", "0", "prompts"),
    ("--sample-rate", "11025", "sample_rate"),
    ("--duration-ms", "0", "duration_ms"),
    ("--duration-ms", "inf", "duration_ms"),
    ("--duration-ms", "nan", "duration_ms"),
    ("--duration-ms", "0.01", "duration_ms"),
    ("--label-noise", "2", "label_noise"),
    ("--label-noise", "-0.1", "label_noise"),
    ("--label-noise", "nan", "label_noise"),
    ("--seed", "-3", "seed"),
]


@pytest.mark.parametrize(
    "flag, value, field", _BAD_SYNTH_VALUES, ids=[f"{f}={v}" for f, v, _ in _BAD_SYNTH_VALUES]
)
def test_invalid_group_count_is_usage_error(capsys, tmp_path, flag, value, field):
    """A bad synth value is rejected by SynthConfig, which names the field."""
    out = tmp_path / "out"
    code, stdout, err = _run(capsys, "synth", "--out", str(out), flag, value)
    assert code == 1
    assert "usage" in err.lower()
    assert "usage: speechstyle synth " in err
    first = err.splitlines()[0]
    assert first.startswith("error: ") and field in first, err
    assert stdout == ""
    assert not out.exists()


def test_synth_flags_are_exactly_the_synth_config_fields():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    synth = sub.choices["synth"]
    dests = {a.dest for a in synth._actions if not isinstance(a, argparse._HelpAction)}
    assert dests - {"out"} == {f.name for f in dataclasses.fields(SynthConfig)}


@pytest.mark.parametrize("command, value", [("build-refs", "nan"), ("evaluate", "inf")])
def test_non_finite_threshold_is_usage_error(cli_corpus, capsys, tmp_path, command, value):
    out = tmp_path / "out.json"
    argv = [command, "--manifest", str(cli_corpus), "--out", str(out), "--threshold", value]
    code, stdout, err = _run(capsys, *argv)
    assert code == 1
    assert f"argument --threshold: must be finite and >= 0, got {value}" in err
    assert f"usage: speechstyle {command} " in err
    assert stdout == ""
    assert not out.exists()


def test_negative_evaluate_seed_is_usage_error_before_the_manifest_is_read(capsys, tmp_path):
    missing = tmp_path / "missing.csv"
    code, stdout, err = _run(capsys, "evaluate", "--manifest", str(missing), "--seed", "-1")
    assert (code, stdout) == (1, "")
    assert err.splitlines()[0] == "error: argument --seed: must be a nonnegative integer, got -1"
    assert "usage: speechstyle evaluate " in err
    assert str(missing) not in err


@pytest.mark.parametrize(
    "command, flag",
    [("evaluate", "--seed"), ("evaluate", "--threshold"), ("build-refs", "--threshold")],
)
def test_unparsable_number_is_usage_error_naming_the_flag(capsys, tmp_path, command, flag):
    argv = [command, "--manifest", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "o")]
    code, stdout, err = _run(capsys, *argv, flag, "abc")
    assert (code, stdout) == (1, "")
    assert err.splitlines()[0].startswith(f"error: argument {flag}: "), err
    assert "'abc'" in err.splitlines()[0]
    assert f"usage: speechstyle {command} " in err
    assert "_nonneg" not in err


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


def test_classify_rejects_manifest_at_another_rate_than_the_model(
    cli_corpus, cli_model, cli_corpus_44k, capsys, tmp_path
):
    manifest_44k, model = cli_corpus_44k
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

    # A version 1 model stored no rate, so it is refused before any clip is read.
    doc = json.loads(cli_model.read_text())
    doc["version"] = 1
    del doc["sample_rate"]
    old = tmp_path / "v1.json"
    old.write_text(json.dumps(doc))
    argv = ["classify", "--model", str(old), "--manifest", str(manifest_44k)]
    code, _, err = _run(capsys, *argv, "--out", str(results))
    assert code == 2
    assert f"error: {old}: unsupported model version 1" in err
    assert not results.exists()


def test_classify_stops_at_the_first_clip_at_another_rate_than_the_model(
    cli_corpus, cli_corpus_44k, capsys, tmp_path, monkeypatch
):
    _, model = cli_corpus_44k
    read = []
    ingest_clip = speechstyle.reference.ingest_clip

    def counted(path, cfg):
        read.append(path)
        return ingest_clip(path, cfg)

    monkeypatch.setattr(speechstyle.reference, "_worker_count", lambda items: 1)
    monkeypatch.setattr(speechstyle.reference, "ingest_clip", counted)
    results = tmp_path / "r.csv"
    argv = ["classify", "--model", str(model), "--manifest", str(cli_corpus), "--out", str(results)]
    code, out, err = _run(capsys, *argv)
    first = load_manifest(cli_corpus)[0].path
    assert (code, out, read) == (2, "", [first])
    assert err == (
        f"error: {model}: {first}: sample rate 16000 differs from corpus rate 44100\n"
    )
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
        (" [1]", ["--frame-config: frame config must be a JSON object"]),
        ('"frames.json"', ["--frame-config: frame config must be a JSON object"]),
        (str(tmp_path / "missing.json"), [str(tmp_path / "missing.json")]),
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
    "text, line, message",
    [
        ("wrong,header\nx,0\n", 1, "header must be subject,rank, got wrong,header"),
        ("", 1, "file is empty"),
        ("subject,rank\nx,zero\n", 2, "rank must be an integer"),
        ("subject,rank\nx,0\nx,1\n", 3, "duplicate subject x"),
        ("subject,rank\nx,-2\n", 2, "rank -2 is negative"),
        ("subject,rank\nx,0,1\n", 2, "expected 2 fields"),
        ("subject,rank\nx,\n", 2, "rank must be an integer"),
        ("subject,rank\n\nx,0\n\nx,1\n", 5, "duplicate subject x"),
        ('subject,rank\n"x\ny",0\nz,one\n', 4, "rank must be an integer"),
    ],
)
def test_agreement_rejects_malformed_label_files(capsys, tmp_path, text, line, message):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    good = _label_file(tmp_path, "good.csv", [("x", 0)])
    code, out, err = _run(capsys, "agreement", "--a", str(bad), "--b", str(good))
    assert (code, out) == (2, "")
    assert err == f"error: {bad}: line {line}: {message}\n"


def test_agreement_skips_blank_rows_in_label_files(capsys, tmp_path):
    a = tmp_path / "a.csv"
    a.write_text("subject,rank\n\nx,0\n\n\ny,2\n\n")
    b = _label_file(tmp_path, "b.csv", [("x", 0), ("y", 1)])
    assert load_labels(a) == (("x", 0), ("y", 2))
    code, stdout, _ = _run(capsys, "agreement", "--a", str(a), "--b", str(b))
    assert code == 0
    assert "n                 2" in stdout
    assert "Total agreement   50.0 %" in stdout


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


def test_build_refs_and_classify_do_not_load_openssl(tiny_corpus, small_corpus, tmp_path):
    # _hashlib maps OpenSSL, about 4 MiB of every job's peak memory; numpy.random
    # would load it through secrets and hmac
    _, manifest = tiny_corpus
    _, evaluate_manifest = small_corpus
    model, results = str(tmp_path / "model.json"), str(tmp_path / "results.csv")
    report = str(tmp_path / "report.json")
    script = f"""
import sys
from speechstyle.cli import main
assert main(["build-refs", "--manifest", {str(manifest)!r}, "--out", {model!r}]) == 0
assert main(["classify", "--model", {model!r}, "--manifest", {str(manifest)!r}, "--out", {results!r}]) == 0
assert main(["evaluate", "--manifest", {str(evaluate_manifest)!r}, "--out", {report!r}]) == 0
print("loaded:", *sorted(m for m in ("_hashlib", "_ssl", "numpy.random") if m in sys.modules))
"""
    src = Path(speechstyle.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "loaded:"


def test_jobs_do_not_import_logging_or_concurrent_futures(tiny_corpus, small_corpus, tmp_path):
    # concurrent.futures imports logging, traceback and string: several ms
    # of every multi-CPU job. The ingest and pair-table threads are plain.
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("fewer than 2 usable CPUs: jobs run no worker threads")
    _, manifest = tiny_corpus
    _, evaluate_manifest = small_corpus
    model, results = str(tmp_path / "model.json"), str(tmp_path / "results.csv")
    report = str(tmp_path / "report.json")
    script = f"""
import sys
from speechstyle.cli import main
assert main(["build-refs", "--manifest", {str(manifest)!r}, "--out", {model!r}]) == 0
assert main(["classify", "--model", {model!r}, "--manifest", {str(manifest)!r}, "--out", {results!r}]) == 0
assert main(["evaluate", "--manifest", {str(evaluate_manifest)!r}, "--out", {report!r}]) == 0
print("loaded:", *sorted(m for m in ("logging", "concurrent.futures") if m in sys.modules))
"""
    src = Path(speechstyle.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "loaded:"


def test_build_refs_and_classify_read_and_write_utf8_under_an_ascii_locale(tiny_corpus, tmp_path):
    _, manifest = tiny_corpus
    entries = [dataclasses.replace(e, speaker=f"{e.speaker}-é") for e in load_manifest(manifest)]
    renamed = write_manifest(entries, tmp_path / "manifest.csv")
    model, results = tmp_path / "model.json", tmp_path / "results.csv"
    src = Path(speechstyle.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "LANG", "PYTHONIO"))}
    env.update(PYTHONPATH=str(src), LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    script = "import sys; from speechstyle.cli import main; sys.exit(main())"
    for argv in (
        ["build-refs", "--manifest", renamed, "--out", model],
        ["classify", "--model", model, "--manifest", renamed, "--out", results],
    ):
        done = subprocess.run(
            [sys.executable, "-c", script, *map(str, argv)],
            env=env,
            capture_output=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
    written = results.read_bytes()
    for speaker in {e.speaker for e in entries}:
        assert f"\n{speaker},".encode("utf-8") in written


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


@pytest.mark.parametrize("column", ["expert1", "expert2"])
def test_evaluate_rejects_an_expert_rank_beyond_the_model_groups(
    small_corpus, capsys, tmp_path, monkeypatch, column
):
    _, manifest = small_corpus
    entries = [
        dataclasses.replace(e, **{column: 7}) if e.speaker.startswith("g0") else e
        for e in load_manifest(manifest)
    ]
    bumped = write_manifest(entries, tmp_path / "bumped.csv")
    report = tmp_path / "report.json"

    def no_read(*args, **kwargs):
        raise AssertionError("a clip was read before the expert ranks were checked")

    monkeypatch.setattr(speechstyle.reference, "ingest_clip", no_read)
    code, out, err = _run(capsys, "evaluate", "--manifest", str(bumped), "--out", str(report))
    assert code == 2
    assert re.search(
        rf"^error: {re.escape(str(bumped))}: {column} of speaker g0s\d\d: rank 7 is outside 0\.\.4$",
        err,
        re.MULTILINE,
    ), err
    assert "Traceback" not in err and out == ""
    assert not report.exists()


@pytest.mark.parametrize("command", ["build-refs", "evaluate"])
@pytest.mark.parametrize("hole", [(1, 2), (1, 4)], ids=["inner", "last-group-of-last-prompt"])
def test_grid_holes_are_found_before_any_clip_is_read(capsys, tmp_path, monkeypatch, command, hole):
    manifest = write_manifest(fake_corpus_entries(5, 3, 2, skip={hole}), tmp_path / "holed.csv")

    def no_read(*args, **kwargs):
        raise AssertionError("a clip was read before the cell grid was checked")

    monkeypatch.setattr(speechstyle.reference, "ingest_clip", no_read)
    out_path = tmp_path / "out"
    code, out, err = _run(capsys, command, "--manifest", str(manifest), "--out", str(out_path))
    assert (code, out) == (2, "")
    assert err == f"error: {manifest}: manifest is missing cells (prompt, group): {hole}\n"
    assert not out_path.exists()


def test_evaluate_names_the_manifest_when_a_cell_is_too_small_to_split(capsys, tmp_path):
    manifest = write_manifest(fake_corpus_entries(2, 2, 1), tmp_path / "small.csv")
    code, out, err = _run(capsys, "evaluate", "--manifest", str(manifest))
    assert (code, out) == (2, "")
    assert err == (
        f"error: {manifest}: cells (prompt, group) with fewer than 3 speakers: (0, 0), (0, 1)\n"
    )


def test_classify_checks_prompts_before_any_clip_is_read(
    cli_corpus, cli_model, capsys, tmp_path, monkeypatch
):
    entries = load_manifest(cli_corpus)
    entries[2] = dataclasses.replace(entries[2], prompt=3)
    manifest = write_manifest(entries, tmp_path / "prompt3.csv")

    def no_read(*args, **kwargs):
        raise AssertionError("a clip was read before the prompts were checked")

    monkeypatch.setattr(speechstyle.reference, "ingest_clip", no_read)
    out_path = tmp_path / "out.csv"
    argv = ["classify", "--model", str(cli_model), "--manifest", str(manifest), "--out", str(out_path)]
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (
        f"error: {cli_model}: {entries[2].path}: prompt 3 is not covered by the reference set,"
        " which has 1 prompt(s)\n"
    )
    assert not out_path.exists()


def test_evaluate_checks_test_prompts_before_any_test_clip_is_read(capsys, tmp_path, monkeypatch):
    # Prompt 1 is kept only for the test side, so the model covers prompt 0 alone.
    entries = fake_corpus_entries(1, 8, 2)
    _, test_side = split_corpus(entries, seed=42)
    tested = {e.speaker for e in test_side}
    entries = [e for e in entries if e.prompt == 0 or e.speaker in tested]
    manifest = write_manifest(entries, tmp_path / "prompt1.csv")
    rng = np.random.default_rng(11)
    read = []

    def fake_read(path, cfg):
        read.append(path)
        return make_bundle(rng, 12, ceps=cfg.n_ceps, cfg=cfg)

    monkeypatch.setattr(speechstyle.reference, "ingest_clip", fake_read)
    code, out, err = _run(capsys, "evaluate", "--manifest", str(manifest))
    assert (code, out) == (2, "")
    first = next(e for e in entries if e.prompt == 1)
    assert err == (
        f"error: {manifest}: {first.path}: prompt 1 is not covered by the reference set,"
        " which has 1 prompt(s)\n"
    )
    assert sorted(read) == sorted(e.path for e in entries if e.speaker not in tested)


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


def _evaluate_with_an_odd_rate_and_a_silent_clip(
    small_corpus, capsys, tmp_path, monkeypatch, bad_reference_first
):
    """evaluate's error at one and at two workers, which must agree, and the odd-rate clip.

    The odd-rate clip replaces a reference row, never the first, whose rate is the
    corpus rate; the silent clip replaces a test row, after it or before it.
    """
    odd_rate = tmp_path / "odd_rate.wav"
    speechstyle.write_wav(odd_rate, speechstyle.AudioClip(np.full(4000, 0.5), 8000))
    silent = tmp_path / "silent.wav"
    speechstyle.write_wav(silent, speechstyle.AudioClip(np.zeros(8000), 16000))
    _, manifest = small_corpus
    entries = load_manifest(manifest)
    _, test_entries = split_corpus(entries, seed=42)
    test_rows = [k for k, e in enumerate(entries) if e in test_entries]
    ref_rows = [k for k, e in enumerate(entries) if e not in test_entries]
    if bad_reference_first:
        odd_rate_at = ref_rows[1]
        silent_at = next(k for k in test_rows if k > odd_rate_at)
    else:
        silent_at = test_rows[0]
        odd_rate_at = next(k for k in ref_rows[1:] if k > silent_at)
    entries[odd_rate_at] = dataclasses.replace(entries[odd_rate_at], path=odd_rate)
    entries[silent_at] = dataclasses.replace(entries[silent_at], path=silent)
    swapped = write_manifest(entries, tmp_path / "swapped.csv")
    errors = []
    for workers in (1, 2):
        monkeypatch.setattr(speechstyle.reference, "_worker_count", lambda items: workers)
        code, stdout, err = _run(capsys, "evaluate", "--manifest", str(swapped))
        assert (code, stdout) == (2, "")
        errors.append(err)
    assert errors[0] == errors[1]
    return errors[0], odd_rate


def test_evaluate_reports_the_same_first_bad_clip_at_any_worker_count(
    small_corpus, capsys, tmp_path, monkeypatch
):
    err, odd_rate = _evaluate_with_an_odd_rate_and_a_silent_clip(
        small_corpus, capsys, tmp_path, monkeypatch, bad_reference_first=True
    )
    assert err.startswith(f"error: {odd_rate}: sample rate 8000 differs")


def test_evaluate_reports_a_bad_reference_clip_before_an_earlier_bad_test_clip(
    small_corpus, capsys, tmp_path, monkeypatch
):
    err, odd_rate = _evaluate_with_an_odd_rate_and_a_silent_clip(
        small_corpus, capsys, tmp_path, monkeypatch, bad_reference_first=False
    )
    assert err == f"error: {odd_rate}: sample rate 8000 differs from corpus rate 16000\n"


def _manifest_with_byte_ff(cli_corpus, tmp_path):
    bad = tmp_path / "manifest.csv"
    bad.write_bytes(cli_corpus.read_bytes().replace(b"g0s00", b"g0s\xff0", 1))
    return bad, ["build-refs", "--manifest", str(bad), "--out", str(tmp_path / "out.json")]


def _model_of_binary_bytes(cli_corpus, tmp_path):
    bad = tmp_path / "model.bin"
    bad.write_bytes(bytes(range(256)))
    argv = ["--model", str(bad), "--manifest", str(cli_corpus), "--out", str(tmp_path / "out.csv")]
    return bad, ["classify", *argv]


def _labels_with_byte_ff(cli_corpus, tmp_path):
    bad = tmp_path / "labels.csv"
    bad.write_bytes(b"subject,rank\nx\xff,0\n")
    good = _label_file(tmp_path, "good.csv", [("x", 0)])
    return bad, ["agreement", "--a", str(bad), "--b", str(good)]


@pytest.mark.parametrize("bad_input", [_model_of_binary_bytes, _manifest_with_byte_ff, _labels_with_byte_ff])
def test_a_file_that_is_not_utf8_is_named_in_the_error(cli_corpus, capsys, tmp_path, bad_input):
    bad, argv = bad_input(cli_corpus, tmp_path)
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (2, "")
    assert re.fullmatch(
        rf"error: {re.escape(str(bad))}: 'utf-8' codec can't decode byte 0x\w\w in position \d+: .*\n",
        err,
    ), err
    assert not (tmp_path / "out.json").exists() and not (tmp_path / "out.csv").exists()
