"""possing benchmark: CLI queries issued in-process, one at a time.

    python3 perfbench/run.py --workload invariants --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --all              # every workload, traced and not

Each query is `possing.cli.run(argv + ["--json"])` in this process: one
thread, closed loop, the next query starts when the previous one returns.
An untraced run (--trace 0) first runs a few warm-up queries untimed, then
times the seeded query stream for --seconds and reports the end-to-end
metrics.  A traced run (--trace 1) runs each query of a fixed prefix of the
stream once untraced and once with every layer wrapped, and reports the
per-layer metrics and the tracing overhead.
Answers are checked after timing (see checks.py); the last line of standard
output is one JSON object with the result.

Metric names and units come from BENCHMARK.json at the repository root.
Seed 1 is the default seed; seed 1009 is held out for checking a claim on
inputs that were not used while writing the change.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
HELDOUT_SEED = 1009
SETUP_REPEATS = 5
# A query still running after this many seconds is stopped and counted as
# failed, so that a run always ends within its time limit.
QUERY_LIMIT_S = 45
# Queries per traced run: a fixed prefix of the stream, so that two traced
# runs on one seed see the same inputs and report the same counts.
TRACE_QUERIES = {"invariants": 300, "graded": 240, "normalform": 100}
# Untimed queries before the timed loop, about one second of work each, so
# that lazy imports and the interpreter's own warm-up fall outside the timing.
# They are drawn from past the end of the timed stream, so that no timed
# query repeats one of them.
WARMUP_QUERIES = {"invariants": 24, "graded": 24, "normalform": 12}

# Import and generate inputs in a fresh interpreter; prints seconds taken.
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import possing.cli, workloads
workloads.generate(sys.argv[3], int(sys.argv[4]))
print(time.perf_counter() - t0)
"""


class QueryTimeout(BaseException):
    """Raised in a query that exceeds QUERY_LIMIT_S (a BaseException so that
    no handler inside the program swallows it)."""


def _on_alarm(signum, frame):
    raise QueryTimeout()


def load_program():
    """Import possing from this checkout's src/, or exit without a result."""
    if not (SRC / "possing" / "__init__.py").is_file():
        sys.exit("error: %s holds no possing package to benchmark" % SRC)
    sys.path[:0] = [str(SRC), str(HERE)]
    import possing.cli

    if Path(possing.cli.__file__).resolve().parent != SRC / "possing":
        sys.exit("error: imported possing from %s, not from %s" % (possing.cli.__file__, SRC))
    return possing.cli


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# -- running queries -------------------------------------------------------------


def run_query(cli, query) -> dict:
    """Issue one query; returns its record (timing, exit code, output)."""
    out, err = io.StringIO(), io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, QUERY_LIMIT_S)
    start = time.perf_counter()
    try:
        code, error = cli.run(query.argv + ["--json"], out=out, err=err), None
    except QueryTimeout:
        code, error = None, "timeout after %d s" % QUERY_LIMIT_S
    except Exception as exc:  # every exception is a failed query; the run goes on
        code, error = None, "%s: %s" % (type(exc).__name__, exc)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return {"query": query, "seconds": time.perf_counter() - start,
            "code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "error": error}


def timed_loop(cli, queries, seconds: float):
    """Run queries in order until `seconds` have passed; (records, elapsed)."""
    records = []
    start, cpu = time.perf_counter(), time.process_time()
    while not records or time.perf_counter() - start < seconds:
        records.append(run_query(cli, queries[len(records) % len(queries)]))
    elapsed = time.perf_counter() - start
    print("timed loop: %.2f s wall, %.2f s cpu" % (elapsed, time.process_time() - cpu))
    return records, elapsed


def answer(record):
    """The JSON result of an answered query, or None for a refusal."""
    return json.loads(record["stdout"])["result"] if record["code"] == 0 else None


def verify(records) -> list:
    """Check every record; returns [(record, reason)] for each failed query."""
    import checks

    failures = []
    verdicts = {}  # identical inputs give identical answers: check each once
    for rec in records:
        q = rec["query"]
        if rec["error"] is not None:
            failures.append((rec, rec["error"]))
        elif rec["code"] == 2:
            if "witness_ray=" not in rec["stderr"]:
                failures.append((rec, "refused without a witness ray: " + rec["stderr"].strip()))
        elif rec["code"] != 0:
            failures.append((rec, "exit code %s: %s" % (rec["code"], rec["stderr"].strip())))
        else:
            result = answer(rec)
            key = (tuple(q.argv), json.dumps(result, sort_keys=True))
            if key not in verdicts:
                try:
                    verdicts[key] = checks.check(q, result)
                except Exception as exc:  # a malformed answer is a wrong answer
                    verdicts[key] = "check raised %s: %s" % (type(exc).__name__, exc)
            if verdicts[key] is not None:
                failures.append((rec, "wrong answer: " + verdicts[key]))
    return failures


def report_failures(failures, limit: int = 10):
    for rec, reason in failures[:limit]:
        print("FAILED %s | %s" % (" ".join(rec["query"].argv), reason))


# -- the two kinds of run ---------------------------------------------------------


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of import plus input generation in fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(HERE), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def untraced_run(cli, workload: str, seed: int, seconds: float) -> tuple:
    import workloads

    length = workloads.STREAM_LENGTH
    queries = workloads.generate(workload, seed, length + WARMUP_QUERIES[workload])
    for q in queries[length:]:
        run_query(cli, q)
    # the benchmark's own objects are never garbage: keep the program's
    # collections from scanning them again and again during the timed loop
    gc.collect()
    gc.freeze()
    records, elapsed = timed_loop(cli, queries[:length], seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_s = measure_setup(workload, seed)
    latencies = sorted(r["seconds"] * 1000 for r in records)
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    failures = verify(records)
    report_failures(failures)
    beyond = sum(1 for x in latencies if x > deciles[8])
    print("%s seed %d: %d queries in %.2f s, %d beyond p90, %d distinct inputs"
          % (workload, seed, len(records), elapsed, beyond,
             len({tuple(r["query"].argv) for r in records})))
    print("failed_frac %.6f (%d of %d)" % (len(failures) / len(records),
                                           len(failures), len(records)))
    metrics = {
        "queries_per_s": len(records) / elapsed,
        "latency_p50_ms": deciles[4],
        "latency_p90_ms": deciles[8],
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    return records, failures, metrics


def split(before: dict, after: dict) -> dict:
    return {k: round(after.get(k, 0.0) - before.get(k, 0.0), 6)
            for k in after if after.get(k, 0.0) - before.get(k, 0.0) > 0}


def traced_run(cli, workload: str, seed: int, count: int = None) -> tuple:
    import tracing
    import workloads

    queries = workloads.generate(workload, seed, count or TRACE_QUERIES[workload])
    tracer = tracing.Tracer()
    plain, traced = [], []
    # each query runs untraced, then traced, so that drift in the machine's
    # speed affects both sides of trace.overhead_frac alike
    for q in queries:
        plain.append(run_query(cli, q))
        tracer.install()
        try:
            before = tracer.snapshot()
            rec = run_query(cli, q)
            rec["layers"] = split(before, tracer.snapshot())
        finally:
            tracer.uninstall()
            tracer.end_query()
        traced.append(rec)
    failures = verify(plain)
    for a, b in zip(plain, traced):
        ra = json.loads(a["stdout"])["result"] if a["stdout"] else a["stderr"]
        rb = json.loads(b["stdout"])["result"] if b["stdout"] else b["stderr"]
        if ra != rb or a["code"] != b["code"]:
            failures.append((b, "traced answer differs from the untraced one"))
    report_failures(failures)
    plain_s = sum(r["seconds"] for r in plain)
    traced_s = sum(r["seconds"] for r in traced)
    metrics = tracer.metrics()
    metrics["trace.total_s"] = traced_s
    metrics["trace.queries"] = len(traced)
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1
    slowest = sorted(traced, key=lambda r: -r["seconds"])[:5]
    for rec in slowest:
        print("slow %.1f ms | %s | %s" % (rec["seconds"] * 1000,
                                         " ".join(rec["query"].argv),
                                         json.dumps(rec["layers"], sort_keys=True)))
    if tracer.absent:
        print("absent from the program (reported as 0): " + ", ".join(tracer.absent))
    total = metrics["trace.total_s"]
    print("layer shares of %.3f s traced: %s" % (total, ", ".join(
        "%s %.1f%%" % (name, 100 * metrics[name] / total)
        for name in sorted(metrics) if name.endswith("_s") and name != "trace.total_s")))
    return traced, failures, metrics


# -- entry points ----------------------------------------------------------------


def emit(records, failures, metrics, names_units: dict):
    wrong = sum(1 for _, reason in failures if reason.startswith("wrong answer"))
    out = {}
    for name, unit in names_units.items():
        print("%-32s %16.6f %s" % (name, metrics[name], unit))
        out[name] = {"value": metrics[name], "unit": unit}
    print(json.dumps({"correct": wrong == 0, "attempted": len(records),
                      "failed": len(failures), "metrics": out}))


def run_one(args) -> int:
    cli = load_program()
    signal.signal(signal.SIGALRM, _on_alarm)
    sp = spec()
    if args.trace:
        records, failures, metrics = traced_run(cli, args.workload, args.seed)
        names = {m["name"]: m["unit"] for m in sp["per_layer"]}
    else:
        records, failures, metrics = untraced_run(cli, args.workload, args.seed, args.seconds)
        names = {m["name"]: m["unit"] for m in sp["end_to_end"]}
    emit(records, failures, metrics, names)
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process.

    Exits 1 if any run failed or any answer was wrong."""
    status = 0
    for workload in [w["name"] for w in spec()["workloads"]]:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            print("== %s (trace %d)" % (workload, trace), flush=True)
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            print(proc.stdout + proc.stderr, end="", flush=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"] or result["failed"]:
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("invariants", "graded", "normalform"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="input seed (default %d; %d is held out for checking claims)"
                        % (DEFAULT_SEED, HELDOUT_SEED))
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("--workload or --all is required")
    return run_one(args)


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing decides the iteration order of the program's sets,
        # and with it how much work some queries do; a fixed hash seed makes
        # a run's work depend on --seed alone.
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve())] + sys.argv[1:],
                  dict(os.environ, PYTHONHASHSEED="0"))
    os.chdir(ROOT)
    sys.exit(main())
