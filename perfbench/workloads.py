"""The benchmark's workloads: seeded synthetic inputs, the CLI call, output checks.

Each workload is one `speechstyle` CLI job on a synthetic corpus of
5 groups x 4 prompts generated from the workload seed. The program only
ever sees the generated manifests and WAVs.

The shapes separate the layers (shares measured at seed 42 on a
2-core x86 host):

- evaluate-default runs the paper's whole protocol at the shape of the
  acceptance tests; every layer works, DTW is about half of it.
- build-refs-long builds a model from long clips. The N^2 pair table
  makes DTW about 70%, the 10 MB model write shows, nothing is
  classified. Threshold 0.03 sends the cells through the greedy cover
  (their spread is 0.016-0.076, so 0.15 always keeps one medoid).
- classify-44k classifies short 44.1 kHz clips against a model read
  from disk. Feature extraction is about 60%; the DTW calls are tiny,
  so per-call overhead weighs more than per-cell cost.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

from speechstyle.cli import main as cli_main
from speechstyle.corpus import SynthConfig, generate_synthetic_corpus, load_manifest
from speechstyle.reference import load_reference_set

GROUPS = 5
PROMPTS = 4
# classify-44k builds its model from this many speakers of each group
# and classifies the others.
MODEL_SPEAKERS = 4


class CheckFailed(Exception):
    """A job's outputs break an invariant or differ from the recorded ones."""


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    speakers_per_group: int
    duration_ms: float
    sample_rate: int
    threshold: float
    # Closed-form work of one job; a traced job must count exactly this.
    expect: dict[str, int]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "evaluate-default", "evaluate", 6, 700.0, 16000, 0.15,
            # 4 reference speakers per group: C(4,2) pairs in each of 20
            # cells; 2 test speakers per group: 40 decisions x 5 groups.
            {"clips": 120, "dtw_calls": 6 * 20 + 40 * 5, "decisions": 40, "pairs": 120},
        ),
        Workload(
            "build-refs-long", "build-refs", 10, 1500.0, 16000, 0.03,
            {"clips": 200, "dtw_calls": 45 * 20, "decisions": 0, "pairs": 900},
        ),
        Workload(
            "classify-44k", "classify", 24, 400.0, 44100, 0.15,
            # One ideal per cell, so every decision costs one DTW per group.
            {"clips": 400, "dtw_calls": 400 * 5, "decisions": 400, "pairs": 0},
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    manifest: Path
    model: Path | None
    speaker_group: dict[str, int]


def run_cli(argv: list[str]) -> None:
    """Run one CLI call in this process with its output silenced; raise if it fails."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        rc = cli_main(argv)
    if rc != 0:
        raise RuntimeError(f"speechstyle {' '.join(argv)} exited {rc}: {err.getvalue().strip()}")


def _split_manifest(manifest: Path, speaker_group: dict[str, int]) -> tuple[Path, Path]:
    """Write the model side (first speakers of each group) and the test side."""
    with open(manifest, newline="") as handle:
        header, *rows = list(csv.reader(handle))
    model_side: set[str] = set()
    for g in range(GROUPS):
        model_side.update(sorted(s for s, sg in speaker_group.items() if sg == g)[:MODEL_SPEAKERS])
    paths = (manifest.parent / "model.csv", manifest.parent / "test.csv")
    for path, keep in zip(paths, (True, False)):
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(r for r in rows if (r[1] in model_side) == keep)
    return paths


def prepare(w: Workload, seed: int, work: Path) -> Inputs:
    """Generate the workload's corpus (and, for classify, its model) under work."""
    cfg = SynthConfig(
        groups=GROUPS,
        speakers_per_group=w.speakers_per_group,
        prompts=PROMPTS,
        seed=seed,
        sample_rate=w.sample_rate,
        duration_ms=w.duration_ms,
    )
    manifest = generate_synthetic_corpus(cfg, work / "corpus")
    speaker_group = {e.speaker: e.truth for e in load_manifest(manifest)}
    if w.command != "classify":
        return Inputs(manifest, None, speaker_group)
    model_manifest, test_manifest = _split_manifest(manifest, speaker_group)
    model = work / "model.json"
    run_cli(["build-refs", "--manifest", str(model_manifest), "--out", str(model),
             "--threshold", str(w.threshold)])
    return Inputs(test_manifest, model, speaker_group)


def job_argv(w: Workload, seed: int, inputs: Inputs, out: Path) -> list[str]:
    """CLI arguments of one job writing its outputs under out."""
    common = ["--manifest", str(inputs.manifest), "--threshold", str(w.threshold)]
    if w.command == "evaluate":
        return ["evaluate", *common, "--seed", str(seed), "--out", str(out / "report.json")]
    if w.command == "build-refs":
        return ["build-refs", *common, "--out", str(out / "model.json")]
    return ["classify", *common, "--model", str(inputs.model), "--out", str(out / "results.csv")]


def _check_evaluate(out: Path) -> dict:
    with open(out / "report.json") as handle:
        doc = json.load(handle)
    if sorted(doc) != ["expert1_vs_expert2", "system_vs_expert1", "system_vs_expert2"]:
        raise CheckFailed(f"report has keys {sorted(doc)}")
    for key, rep in doc.items():
        total = sum(sum(row) for row in rep["confusion"])
        if total != rep["n"]:
            raise CheckFailed(f"{key}: confusion sums to {total}, n is {rep['n']}")
    return doc


def _check_build_refs(inputs: Inputs, out: Path) -> dict:
    refs = load_reference_set(out / "model.json")
    ideals = {f"{c.prompt},{c.group}": [u.speaker for u in c.ideals] for c in refs.cells}
    grid = {f"{p},{g}" for p in range(PROMPTS) for g in range(GROUPS)}
    if set(ideals) != grid or len(refs.cells) != len(grid):
        raise CheckFailed(f"model cells {sorted(ideals)} are not the {PROMPTS}x{GROUPS} grid")
    for key, speakers in ideals.items():
        group = int(key.split(",")[1])
        if not speakers or any(inputs.speaker_group[s] != group for s in speakers):
            raise CheckFailed(f"cell {key} has ideals {speakers}")
    return ideals


def _check_classify(inputs: Inputs, out: Path) -> dict:
    with open(out / "results.csv", newline="") as handle:
        header, *rows = list(csv.reader(handle))
    if header != ["speaker", "prompt", "chosen", "dominant"] + [f"scalar_{g}" for g in range(GROUPS)]:
        raise CheckFailed(f"results.csv header is {header}")
    utterances = [r for r in rows if r[1] != ""]
    speakers = [r for r in rows if r[1] == ""]
    test_speakers = len(inputs.speaker_group) - GROUPS * MODEL_SPEAKERS
    if len(utterances) != test_speakers * PROMPTS or len(speakers) != test_speakers:
        raise CheckFailed(f"results.csv has {len(utterances)} utterance and {len(speakers)} speaker rows")
    for r in utterances:
        if r[3] == "false":
            scalars = [float(x) for x in r[4:]]
            argmin = min(range(GROUPS), key=lambda g: (scalars[g], g))
            if int(r[2]) != argmin:
                raise CheckFailed(f"{r[0]} prompt {r[1]}: chose {r[2]}, argmin is {argmin}")
    return {
        "utterances": [[r[0], r[1], r[2], r[3]] for r in utterances],
        "speakers": [[r[0], r[2]] for r in speakers],
    }


def check_outputs(w: Workload, inputs: Inputs, out: Path) -> str:
    """Check one job's outputs for seed-independent invariants.

    Returns a digest of the labels, agreement figures or chosen ideals,
    to compare with the digest recorded for the same seed.
    """
    if w.command == "evaluate":
        values = _check_evaluate(out)
    elif w.command == "build-refs":
        values = _check_build_refs(inputs, out)
    else:
        values = _check_classify(inputs, out)
    return hashlib.sha256(json.dumps(values, sort_keys=True).encode()).hexdigest()
