#!/usr/bin/env python3
"""Record the benchmark of this checkout in BENCH_<LABEL>.json.

For each workload declared in BENCHMARK.json, runs perfbench/run.py once
untraced (end-to-end metrics) and once traced (per-layer metrics), each in
its own process with the default seed and run length, and keeps the JSON
object that each run prints on its last line (it includes `attempted`,
`failed` and `correct`).  The file also records the git revision and the
number of usable processors, so that two records can be compared only when
they come from the same machine.

It refuses to run, and writes nothing, while `git status --porcelain -- src`
lists any change: the record's revision would then name code it did not
measure.  Commit the program first.

Usage: python scripts/bench_record.py LABEL
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def last_json_line(cmd: list) -> dict:
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    sys.stdout.write(proc.stdout + proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("error: %s exited %d without a result" % (" ".join(cmd), proc.returncode))
    return json.loads(lines[-1])


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.rstrip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", help="names the output file BENCH_<LABEL>.json")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    dirty = git("status", "--porcelain", "--", "src")
    if dirty:
        sys.exit("error: src/ differs from HEAD, so the record's revision would not "
                 "name the code measured; commit first:\n" + dirty)
    revision = git("rev-parse", "HEAD")
    record = {"label": args.label, "revision": revision,
              "nproc": len(os.sched_getaffinity(0)), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {}
        for kind, trace in (("untraced", "0"), ("traced", "1")):
            print("== %s (%s)" % (workload, kind), flush=True)
            runs[kind] = last_json_line([sys.executable, "perfbench/run.py",
                                         "--workload", workload, "--trace", trace])
        record["workloads"][workload] = runs
    out = ROOT / ("BENCH_%s.json" % args.label)
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print("wrote %s" % out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
