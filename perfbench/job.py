"""Run one speechstyle CLI job in a fresh interpreter and report its cost.

    python3 perfbench/job.py RESULT_JSON [--probe | --trace RUN_ID] -- CLI_ARGS...

Writes RESULT_JSON with the import time of `speechstyle` and
`speechstyle.cli`, the job's wall time and exit code, and the process's
peak resident memory. --probe only imports; --trace RUN_ID also wraps
every layer and adds the spans. The job's own stdout and stderr go
wherever this process's do. Needs `src` on PYTHONPATH.
"""

import json
import sys
import time


def peak_rss_mb() -> float:
    """Resident-set high-water mark of this process since exec, in MiB.

    ru_maxrss is not used: on Linux it also counts the parent's resident
    set at the time it forked this process.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    sep = sys.argv.index("--")
    result_path, opts, argv = sys.argv[1], sys.argv[2:sep], sys.argv[sep + 1 :]
    start = time.perf_counter()
    import speechstyle  # noqa: F401
    import speechstyle.cli

    record = {"setup_s": time.perf_counter() - start}
    if opts != ["--probe"]:
        tracer = None
        if opts[:1] == ["--trace"]:
            import spans

            tracer = spans.Tracer(int(opts[1]))
            record["wrapped"] = spans.install(tracer)
        start = time.perf_counter()
        record["rc"] = speechstyle.cli.main(argv)
        record["wall_s"] = time.perf_counter() - start
        record["peak_rss_mb"] = peak_rss_mb()
        if tracer is not None:
            record["spans"] = tracer.spans
    with open(result_path, "w") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
