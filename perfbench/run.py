"""polymap benchmark: one workload per process, a closed loop of calls into polymap.

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout.  `--workload all` runs every workload,
each in its own process, one after the other.  The last line of standard
output is a JSON object with `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`.  The line before it records the environment.  See README.md.
"""
import time

T0 = time.perf_counter()  # set-up is timed from here, before numpy is imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("train", "infer", "eval")
MIN_OPS = {"train": 20, "infer": 8, "eval": 3}  # enough for every check to run
EXIT_WRONG = 1
EXIT_NO_PROGRAM = 2
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "call_ms_p50": "ms",
                    "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment():
    return {
        "numpy": sys.modules["numpy"].__version__,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "MKL_NUM_THREADS": os.environ.get("MKL_NUM_THREADS"),
    }


def run_all(args):
    """Each workload in its own process; every result line is printed."""
    ok = True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == EXIT_NO_PROGRAM or not lines:
            return EXIT_NO_PROGRAM
        for line in lines:
            print(f"{name}: {line}", flush=True)
        ok = ok and proc.returncode == 0
    return 0 if ok else EXIT_WRONG


def run_one(args):
    if not (ROOT / "src" / "polymap").is_dir():
        print(f"error: no polymap sources under {ROOT / 'src'}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    workdir = HERE / "out" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, tracer, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, tracer, workloads, workdir):
    def span(name):
        return tracer.root(name) if tracer is not None else contextlib.nullcontext()

    with span("setup"):
        work = workloads.WORKLOADS[args.workload](args.seed, workdir)
    setup_s = time.perf_counter() - T0

    durations, items = [], 0
    attempted = failed = 0
    problems: list[str] = []
    deadline = time.perf_counter() + args.seconds
    # The first call is a warm-up: checked, but not timed.
    while attempted <= MIN_OPS[args.workload] or time.perf_counter() < deadline:
        attempted += 1
        start = time.perf_counter()
        try:
            with span("op" if attempted > 1 else "warm-up"):
                out = work.op()
        except Exception as exc:  # one failed call must not end the run
            failed += 1
            print(f"operation {attempted} failed: {exc!r}", file=sys.stderr)
            continue
        elapsed = time.perf_counter() - start
        if attempted > 1:
            durations.append(elapsed)
            items += work.items(out)
        problems += work.check(out)
    problems += work.finish()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    end_to_end = {
        "setup_s": setup_s,
        "ops_per_s": items / sum(durations),
        "call_ms_p50": 1e3 * statistics.median(durations),
        "peak_rss_mb": peak_rss_mb,
    }
    counts = work.counts
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    if tracer is not None:
        metrics = tracer.per_layer("op", counts)
        trace_path = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "env": environment(),
            "end_to_end_traced": end_to_end, "per_layer": metrics,
            "spans": tracer.spans,
        }))
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()}
    info = {"env": environment(), "workload": args.workload, "seed": args.seed,
            "timed_calls": len(durations), "problems": len(problems), **counts}
    if tracer is not None:
        info["end_to_end_traced"] = end_to_end
    print(json.dumps(info))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if not problems else EXIT_WRONG


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
