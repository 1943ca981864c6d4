"""Record the digests of each workload's outputs at the current commit.

    python3 perfbench/record.py SEED [SEED ...]

Runs every workload's job once per seed, in a job process started the
way run.py starts it (same environment, one BLAS thread), checks its
outputs and stores their digest in expected.json, which run.py compares
every job against. Re-record only for a change meant to alter labels,
agreement figures or chosen ideals.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402  (sets the BLAS thread count before numpy loads)
import workloads  # noqa: E402


def main() -> int:
    path = HERE / "expected.json"
    expected = json.loads(path.read_text()) if path.exists() else {}
    work = HERE / ".work" / "record"
    for seed in (int(s) for s in sys.argv[1:]):
        for w in workloads.WORKLOADS.values():
            shutil.rmtree(work, ignore_errors=True)
            out = work / "out"
            inputs = workloads.prepare(w, seed, work)
            record = run.spawn(out, [], workloads.job_argv(w, seed, inputs, out))
            if "error" in record:
                raise SystemExit(f"{w.name} seed {seed}: job failed: {record['error']}")
            digest = workloads.check_outputs(w, inputs, out)
            expected.setdefault(w.name, {})[str(seed)] = digest
            print(w.name, seed, digest, flush=True)
        path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
