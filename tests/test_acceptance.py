"""End-to-end acceptance checks.

Each test prints one [PASS]/[FAIL] line so the suite can be skimmed with
pytest -s. The checks pin the tolerances and thresholds the library is
expected to hold; failures carry enough context to debug directly.
"""

import csv
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from _helpers import brute_force_dtw_cost, make_bundle, quadruple_loop_average
from speechstyle import (
    FrameConfig,
    LabelVector,
    NormKind,
    SynthConfig,
    agreement,
    compute_triplet,
    dtw_align,
    evaluate_system,
    generate_synthetic_corpus,
    load_manifest,
    scalarize,
    split_corpus,
    write_manifest,
)
from speechstyle.cli import main
from speechstyle.reference import ingest_clip


def _report(number, label, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{verdict}] criterion {number}: {label}{suffix}")
    assert ok, f"criterion {number} failed: {label} {detail}"


@pytest.fixture(scope="module")
def spread_corpus(tmp_path_factory):
    """200 utterances for the metric-property criteria."""
    cfg = SynthConfig(groups=5, speakers_per_group=10, prompts=4, duration_ms=400.0, seed=101)
    out = tmp_path_factory.mktemp("spread")
    manifest = generate_synthetic_corpus(cfg, out)
    frame_cfg = FrameConfig()
    bundles = [ingest_clip(e.path, frame_cfg) for e in load_manifest(manifest)]
    return bundles


@pytest.fixture(scope="module")
def recovery_run(tmp_path_factory):
    """Default-shape corpus evaluated end to end, shared by criteria 5 and 7."""
    cfg = SynthConfig(groups=5, speakers_per_group=6, prompts=4, seed=42)
    out = tmp_path_factory.mktemp("recovery")
    manifest = generate_synthetic_corpus(cfg, out)
    start = time.monotonic()
    evaluation = evaluate_system(manifest, FrameConfig(), threshold=0.15, seed=42)
    elapsed = time.monotonic() - start
    return evaluation, elapsed


def test_criterion_1_metric_identity_and_symmetry(spread_corpus):
    start = time.monotonic()
    bundles = spread_corpus
    assert len(bundles) >= 200

    worst_identity = 0.0
    for bundle in bundles:
        t = compute_triplet(bundle, bundle)
        worst_identity = max(
            worst_identity, abs(t.id), abs(t.p - 1.0), abs(t.ir - 1.0)
        )

    rng = np.random.default_rng(2024)
    worst_symmetry = 0.0
    for _ in range(1000):
        i, j = rng.integers(len(bundles), size=2)
        fwd = compute_triplet(bundles[i], bundles[j])
        rev = compute_triplet(bundles[j], bundles[i])
        worst_symmetry = max(
            worst_symmetry,
            abs(fwd.id - rev.id),
            abs(fwd.p - rev.p),
            abs(fwd.ir - rev.ir),
        )
    elapsed = time.monotonic() - start
    ok = worst_identity <= 1e-9 and worst_symmetry <= 1e-9 and elapsed < 30.0
    _report(
        1,
        "triplet identity and symmetry over 200 utterances",
        ok,
        f"identity err {worst_identity:.2e}, symmetry err {worst_symmetry:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_dtw_matches_exhaustive_enumeration():
    start = time.monotonic()
    rng = np.random.default_rng(515)
    mismatches = 0
    for _ in range(500):
        n, m = rng.integers(1, 7, size=2)
        dims = int(rng.integers(1, 4))
        a = rng.normal(size=(int(n), dims))
        b = rng.normal(size=(int(m), dims))
        if dtw_align(a, b).cost != brute_force_dtw_cost(a.tolist(), b.tolist()):
            mismatches += 1
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and elapsed < 10.0
    _report(
        2,
        "alignment cost equals brute-force path enumeration on 500 pairs",
        ok,
        f"{mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_3_cell_average_matches_literal_reimplementation():
    from speechstyle import compute_cell_average
    from speechstyle.reference import CellUtterance

    rng = np.random.default_rng(333)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 6))
        cell = [
            CellUtterance(speaker=f"s{k}", bundle=make_bundle(rng, int(rng.integers(4, 12))))
            for k in range(n)
        ]
        avg = compute_cell_average(cell)
        oracle = quadruple_loop_average([u.bundle for u in cell])
        worst = max(
            worst,
            abs(avg.mean.id - oracle[0]),
            abs(avg.mean.p - oracle[1]),
            abs(avg.mean.ir - oracle[2]),
        )
    ok = worst <= 1e-9
    _report(3, "cell averages equal the quadruple-loop oracle on 50 cells", ok, f"worst err {worst:.2e}")


def test_criterion_4_pitch_within_two_percent_on_pure_tones():
    from speechstyle import estimate_pitch
    from speechstyle.features import _window_sizes

    cfg = FrameConfig()
    sr = 16000
    win, _ = _window_sizes(cfg, sr)
    t = np.arange(win) / sr
    worst = 0.0
    voiced_everywhere = True
    for f0 in (100.0, 150.0, 220.0, 330.0, 440.0):
        frame = np.sin(2.0 * np.pi * f0 * t)
        estimate = estimate_pitch(frame, sr, cfg)
        if estimate is None:
            voiced_everywhere = False
            continue
        worst = max(worst, abs(estimate - f0) / f0)
    ok = voiced_everywhere and worst <= 0.02
    _report(4, "pure tones 100-440 Hz estimated within 2%", ok, f"worst err {100 * worst:.2f}%")


def test_criterion_5_end_to_end_group_recovery(recovery_run):
    evaluation, elapsed = recovery_run
    report = evaluation.vs_expert1
    ok = report.total_pct >= 80.0 and report.one_step_pct >= 95.0 and elapsed < 120.0
    _report(
        5,
        "speaker groups recovered on the default synthetic corpus",
        ok,
        f"total {report.total_pct:.1f}%, one-step {report.one_step_pct:.1f}%, {elapsed:.1f}s",
    )


def test_criterion_6_agreement_reproduces_published_profiles():
    def vector(ranks):
        return LabelVector(entries=tuple((f"s{i:03d}", r) for i, r in enumerate(ranks)))

    base = vector([0] * 100)
    spread = agreement(base, vector([0] * 26 + [1] * 19 + [3] * 55), n_groups=5)
    tight = agreement(base, vector([0] * 56 + [1] * 44), n_groups=5)
    ok = (
        spread.total_pct == 26.0
        and spread.one_step_pct == 45.0
        and tight.total_pct == 56.0
        and tight.one_step_pct == 100.0
    )
    _report(
        6,
        "constructed rater profiles give exact agreement percentages",
        ok,
        f"{spread.total_pct}/{spread.one_step_pct} and {tight.total_pct}/{tight.one_step_pct}",
    )


def test_criterion_7_decision_rule_audit(recovery_run):
    evaluation, _ = recovery_run
    violations = []
    for outcome in evaluation.utterance_results:
        result = outcome.result
        chosen = result.scores[result.chosen]
        others = [s for s in result.scores if s.group != result.chosen]
        if result.dominant:
            holds = all(
                chosen.triplet.id <= o.triplet.id
                and chosen.triplet.p >= o.triplet.p
                and chosen.triplet.ir >= o.triplet.ir
                for o in others
            )
            if not holds or result.margin < 0:
                violations.append((outcome.speaker, outcome.prompt, "dominance"))
        else:
            best = min(range(len(result.scores)), key=lambda g: (result.scores[g].scalar, g))
            if result.chosen != best:
                violations.append((outcome.speaker, outcome.prompt, "argmin"))
    ok = not violations and len(evaluation.utterance_results) > 0
    _report(
        7,
        "every decision re-verifies against the dominance and argmin rules",
        ok,
        f"{len(evaluation.utterance_results)} decisions, {len(violations)} violations",
    )


def _pipeline(workdir: Path) -> dict[str, Path]:
    corpus = workdir / "corpus"
    model = workdir / "model.json"
    results = workdir / "results.csv"
    report = workdir / "report.json"
    assert main(["synth", "--out", str(corpus), "--seed", "42"]) == 0
    entries = load_manifest(corpus / "manifest.csv")
    ref_entries, test_entries = split_corpus(entries, seed=42)
    ref_manifest = write_manifest(ref_entries, workdir / "ref.csv")
    test_manifest = write_manifest(test_entries, workdir / "test.csv")
    assert main(["build-refs", "--manifest", str(ref_manifest), "--out", str(model)]) == 0
    assert (
        main(
            [
                "classify",
                "--model",
                str(model),
                "--manifest",
                str(test_manifest),
                "--out",
                str(results),
            ]
        )
        == 0
    )
    assert (
        main(["evaluate", "--manifest", str(corpus / "manifest.csv"), "--out", str(report)]) == 0
    )
    return {"model": model, "results": results, "report": report}


def test_criterion_8_pipeline_is_byte_deterministic(tmp_path, capsys):
    first = _pipeline(tmp_path / "run1")
    second = _pipeline(tmp_path / "run2")
    capsys.readouterr()  # the pipelines' own chatter is not under test
    same = {name: first[name].read_bytes() == second[name].read_bytes() for name in first}
    ok = all(same.values())
    _report(
        8,
        "repeated pipeline runs produce byte-identical model, results, and report",
        ok,
        ", ".join(f"{name} {'==' if match else '!='}" for name, match in same.items()),
    )
