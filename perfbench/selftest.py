"""Self-test of the benchmark (not of the program).

    python3 perfbench/selftest.py

1. Two traced runs on one seed report identical counts, for every workload.
2. The answer checks accept the program's answers and reject tampered ones:
   for the first queries of each kind, one field of the answer is altered
   and the check must return a reason.

Exits 0 when both hold.
"""

from __future__ import annotations

import copy
import json
import signal
import sys

import run

TRACE_SAMPLE = 12  # queries per traced run
CHECK_SAMPLE = 2  # answers per command kind


def _bump(key):
    def tamper(result):
        result[key] = result[key] + 1 if isinstance(result[key], int) else 3
    return tamper


def _flip(key):
    def tamper(result):
        result[key] = not result[key]
    return tamper


def _regbasis(result):
    if result["status"] == "finite":
        result["basis"].pop()
    else:
        result["dimension"] = 5


def _innd(result):
    if result["inner_nondegenerate"]:
        result["inner_nondegenerate"] = False
    else:
        del result["failing_face"]


def _normalform(result):
    result["normal_form"] += "+%s^2" % result["principal_part"][0]


TAMPER = {
    "mu": _bump("milnor"),
    "tau": _bump("tjurina"),
    "conditions": _flip("right_graded_finite"),
    "regbasis": _regbasis,
    "innd": _innd,
    "normalform": _normalform,
    "determinacy": _bump("generic_bound"),
}


def counts_repeat(cli, workload: str) -> bool:
    count_names = [m["name"] for m in run.spec()["per_layer"] if m["unit"] == "count"]
    first, second = (
        {k: v for k, v in run.traced_run(cli, workload, run.DEFAULT_SEED, TRACE_SAMPLE)[2].items()
         if k in count_names}
        for _ in range(2))
    same = first == second
    print("%-11s traced counts repeat: %s %s" % (workload, same, json.dumps(first)))
    return same


def checks_discriminate(cli, workload: str) -> bool:
    import checks
    import workloads

    ok = True
    seen = {}
    for query in workloads.generate(workload, run.DEFAULT_SEED, 200):
        if seen.get(query.command, 0) >= CHECK_SAMPLE:
            continue
        rec = run.run_query(cli, query)
        result = run.answer(rec)
        if result is None:
            continue
        seen[query.command] = seen.get(query.command, 0) + 1
        tampered = copy.deepcopy(result)
        TAMPER[query.command](tampered)
        accepted = checks.check(query, result)
        try:
            rejected = checks.check(query, tampered)
        except Exception as exc:  # a malformed answer must not pass either
            rejected = "check raised %s" % type(exc).__name__
        good = accepted is None and rejected is not None
        ok = ok and good
        print("%-11s %-11s accepts answer: %-5s rejects tampered: %s"
              % (workload, query.command, accepted is None, rejected))
    return ok


def main() -> int:
    cli = run.load_program()
    signal.signal(signal.SIGALRM, run._on_alarm)
    ok = True
    for workload in ("invariants", "graded", "normalform"):
        ok = counts_repeat(cli, workload) and ok
        ok = checks_discriminate(cli, workload) and ok
    print("selftest %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
