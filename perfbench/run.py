"""speechstyle benchmark: time CLI jobs on seeded synthetic corpora.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout of the repository; the package is imported from
`src` (PYTHONPATH=src), as the tests do. Workloads are described in
workloads.py and BENCHMARK.json.

One run generates the workload's corpus from --seed (not timed), times
five bare imports of the package in fresh interpreters, then starts one
job process after another, each a fresh interpreter running one CLI
call, until --seconds of jobs have run. Every job's outputs are checked
(workloads.check_outputs) and compared with the digest recorded for the
seed in expected.json, when there is one; a job that raises, exits
non-zero or fails a check counts as failed.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: the mean
job wall time, the median import time and the median peak RSS (VmHWM)
of a job process. Job times are averaged, not medianed, because on a
shared host they switch between a fast and a slow mode (about 1.5x
apart) for stretches of several jobs; the median of a run then jumps
with the share of slow jobs, while the mean moves in proportion to it.

--trace 1 alternates untraced jobs with traced ones, whose every layer
function is wrapped (spans.py), checks the traced work counts against
the workload's closed-form numbers, and reports the per-layer metrics;
times are means over traced jobs, so the layers' self times still add
up to trace.wall_s. Spans go to
perfbench/.work/trace-<workload>-s<seed>.json.

Stdout gets a table of every metric with its unit and sample count,
then, as the last line, {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
# One BLAS thread per job process, so that jobs never compete for cores
# and results do not depend on the host's core count.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

PROBES = 5
JOB_TIMEOUT_S = 60

# Per-layer figures printed by a traced run. BENCHMARK.json reports the
# ones that are measured on every workload; a layer function that one
# workload never calls (evaluate.* outside evaluate-default, say) reads
# 0 there and is only printed.
LAYER_TABLE = (
    "audio.read_wav.busy_s", "audio.strip_silence.busy_s", "audio.clips", "audio.samples",
    "features.extract_features.busy_s", "features.frames", "features.voiced_frames",
    "metric.dtw_align.busy_s", "metric.compute_triplet.self_s", "metric.dtw_align.calls",
    "metric.dp_cells", "metric.path_pairs", "metric.compute_triplet.calls",
    "classify.classify_utterance.self_s", "classify.decisions", "classify.dominant_decisions",
    "reference.build_corpus_index.self_s", "reference.build_reference_set.self_s",
    "reference.save_reference_set.busy_s", "reference.model_bytes_written",
    "reference.load_reference_set.busy_s", "reference.model_bytes_read",
    "reference.pairs", "reference.ideals",
    "evaluate.split_corpus.busy_s", "evaluate.agreement.busy_s", "evaluate.evaluate_system.self_s",
    "corpus.load_manifest.busy_s", "corpus.entries",
    "audio.self_s", "features.self_s", "metric.self_s", "classify.self_s",
    "reference.self_s", "evaluate.self_s", "corpus.self_s", "cli.self_s",
    "trace.wall_s", "trace.overhead_s",
)


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "bytes" if "_bytes_" in name else "count"


def host_record() -> dict:
    import numpy
    import scipy

    def blas(module) -> str:
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numpy_blas": blas(numpy),
        "scipy": scipy.__version__,
        "scipy_blas": blas(scipy),
        "blas_threads": int(BLAS_THREADS),
    }


def _job_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    # Same string hashing in every job, so set and dict layouts repeat.
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(job_dir: Path, opts: list[str], argv: list[str]) -> dict:
    """Run job.py once; returns its record plus the process's elapsed time."""
    job_dir.mkdir(parents=True)
    result = job_dir / "result.json"
    cmd = [sys.executable, str(HERE / "job.py"), str(result), *opts, "--", *argv]
    start = time.perf_counter()
    with open(job_dir / "stdout.txt", "w") as out, open(job_dir / "stderr.txt", "w") as err:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=_job_env(), stdout=out, stderr=err,
                                  timeout=JOB_TIMEOUT_S)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
    elapsed = time.perf_counter() - start
    record = json.loads(result.read_text()) if code == 0 and result.exists() else {}
    if code != 0 or record.get("rc", 0) != 0:
        tail = (job_dir / "stderr.txt").read_text().strip().splitlines()[-3:]
        record["error"] = f"exit {code}, cli rc {record.get('rc')}: {' | '.join(tail)}"
    record["elapsed"] = elapsed
    return record


def _check_trace(w, record: dict) -> dict:
    """Per-layer figures of a traced job; raises CheckFailed if coverage is off."""
    from spans import summarize
    from workloads import CheckFailed

    wanted = {name.rsplit(".", 1)[0] for name in LAYER_TABLE if name.count(".") == 2}
    missing = sorted(wanted - set(record["wrapped"]))
    if missing:
        raise CheckFailed(f"layer functions not found to wrap: {missing}")
    roots = [s[1] for s in record["spans"] if s[2] < 0]
    if roots != ["cli.main"]:
        raise CheckFailed(f"traced job has root spans {roots}, expected one cli.main")
    m = summarize(record["spans"])
    got = {
        "clips": m["audio.clips"],
        "dtw_calls": m.get("metric.dtw_align.calls", 0),
        "decisions": m["classify.decisions"],
        "pairs": m["reference.pairs"],
    }
    if got != w.expect:
        raise CheckFailed(f"traced work {got} differs from the closed form {w.expect}")
    if m.get("metric.compute_triplet.calls", 0) != got["dtw_calls"]:
        raise CheckFailed(f"compute_triplet and dtw_align ran {m.get('metric.compute_triplet.calls', 0)} "
                          f"and {got['dtw_calls']} times")
    for name in ("audio.strip_silence.calls", "features.extract_features.calls"):
        if m.get(name, 0) != got["clips"]:
            raise CheckFailed(f"{name} is {m.get(name, 0)}, read_wav ran {got['clips']} times")
    m["trace.wall_s"] = record["wall_s"]
    return m


def run_workload(w, seed: int, seconds: float, trace: bool, expected: dict) -> dict:
    """One benchmark run of one workload; returns jobs, samples and metrics."""
    import workloads
    from speechstyle.errors import SpeechStyleError

    work = WORK / f"{w.name}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    digest = expected.get(w.name, {}).get(str(seed))
    kinds = ("plain", "traced") if trace else ("plain",)
    jobs: list[dict] = []
    try:
        inputs = workloads.prepare(w, seed, work)
        setups = [spawn(work / f"probe{i}", ["--probe"], [])["setup_s"] for i in range(PROBES)]
        measured = 0.0
        while len(jobs) < len(kinds) or measured < seconds:
            kind = kinds[len(jobs) % len(kinds)]
            job_dir = work / f"job{len(jobs)}"
            opts = ["--trace", str(len(jobs))] if kind == "traced" else []
            record = spawn(job_dir, opts, workloads.job_argv(w, seed, inputs, job_dir))
            record["kind"] = kind
            measured += record["elapsed"]
            if "error" not in record:
                try:
                    found = workloads.check_outputs(w, inputs, job_dir)
                    if digest is not None and found != digest:
                        raise workloads.CheckFailed(f"outputs differ from those recorded for seed {seed}")
                    if kind == "traced":
                        record["layers"] = _check_trace(w, record)
                except (workloads.CheckFailed, SpeechStyleError, OSError, ValueError, KeyError) as exc:
                    record["error"] = f"{type(exc).__name__}: {exc}"
            if "setup_s" in record:
                setups.append(record["setup_s"])
            jobs.append(record)
            shutil.rmtree(job_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [j for j in jobs if j["kind"] == "plain" and "error" not in j]
    walls = [j["wall_s"] for j in plain]
    metrics = {"setup_s": statistics.median(setups)}
    samples = {"setup_s": len(setups)}
    if plain:
        metrics["wall_s"] = statistics.mean(walls)
        metrics["peak_rss_mb"] = statistics.median(j["peak_rss_mb"] for j in plain)
        samples["wall_s"] = samples["peak_rss_mb"] = len(plain)
    traced = [j["layers"] for j in jobs if "layers" in j]
    for name in sorted(set().union(*traced)):
        values = [t.get(name, 0) for t in traced]
        samples[name] = len(values)
        if name.endswith("_s"):
            metrics[name] = statistics.mean(values)
        elif len(set(values)) == 1:
            metrics[name] = values[0]
        else:
            raise RuntimeError(f"{w.name}: count {name} differs between traced jobs: {values}")
    if traced and plain:
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["wall_s"]
        samples["trace.overhead_s"] = len(traced)
    failed = sum(1 for j in jobs if "error" in j)
    metrics["error_rate"] = failed / len(jobs)
    samples["error_rate"] = len(jobs)
    for j in jobs:
        if "error" in j:
            print(f"{w.name} seed {seed}: {j['kind']} job failed: {j['error']}", file=sys.stderr)
    WORK.mkdir(exist_ok=True)
    if trace:
        spans_out = [s for j in jobs if j["kind"] == "traced" for s in j.get("spans", [])]
        (WORK / f"trace-{w.name}-s{seed}.json").write_text(json.dumps(
            {"fields": ["run", "name", "parent", "start", "end", "info"], "spans": spans_out}))
    return {"jobs": len(jobs), "failed": failed, "metrics": metrics, "samples": samples,
            "wall_s_samples": walls, "setup_s_samples": setups,
            "reference_outputs": digest is not None}


def main() -> int:
    if not (ROOT / "src" / "speechstyle").is_dir():
        print(f"error: no speechstyle package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    expected = json.loads((HERE / "expected.json").read_text())
    reported = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    table = ["wall_s", "setup_s", "peak_rss_mb", "error_rate"]
    if args.trace:
        table += [*LAYER_TABLE, *(m["name"] for m in reported if m["name"] not in LAYER_TABLE)]
    host = host_record()
    print("host " + json.dumps(host))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        w = workloads.WORKLOADS[name]
        run = run_workload(w, args.seed, args.seconds, bool(args.trace), expected)
        checked = "checked against the recorded outputs" if run["reference_outputs"] else \
            "no recorded outputs for this seed, invariants only"
        print(f"{name} seed {args.seed}: {run['jobs']} jobs, {run['failed']} failed, {checked}")
        for metric in table:
            value = run["metrics"].get(metric, 0)
            unit = units.get(metric, "share" if metric == "error_rate" else _unit(metric))
            print(f"  {metric:40s} {value:>16.6g} {unit:6s} n={run['samples'].get(metric, 0)}")
        WORK.mkdir(exist_ok=True)
        (WORK / f"result-{name}-s{args.seed}-t{args.trace}.json").write_text(
            json.dumps({"host": host, **run}, indent=1))
        prefix = "" if len(names) == 1 else f"{name}:"
        missing = [m["name"] for m in reported if m["name"] not in run["metrics"]]
        if missing:
            print(f"error: {name}: no value for {missing}", file=sys.stderr)
            return 1
        total["metrics"].update({
            prefix + m["name"]: {"value": run["metrics"][m["name"]], "unit": m["unit"]}
            for m in reported
        })
        total["attempted"] += run["jobs"]
        total["failed"] += run["failed"]
    total["correct"] = total["failed"] == 0
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
