"""Smoke test of the benchmark harness at reduced size (about a minute).

    python3 perfbench/smoke.py

Checks that BENCHMARK.json and metrics.py agree, that paced time behaves
(pace.py: probes run, their time is left out, the SIGALRM handler is put
back), that every end-to-end and per-layer metric is emitted for every
workload, that the tracer puts every wrapped name back (in this process and
in a traced run), that only the known dual(NP) mismatch is let through as
the open discrepancy, and that a deliberately wrong expected value raises
failed_share.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

import child
import expected
import metrics
import pace
import run

SECONDS = 1


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"smoke FAILED: {what}")
    print(f"ok: {what}")


def check_benchmark_json() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    check([w["name"] for w in bench["workloads"]] == list(metrics.WORKLOADS),
          "BENCHMARK.json lists the workloads of metrics.py")
    for key, table in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in bench[key]]
        check(listed == [row[:3] for row in table], f"BENCHMARK.json {key} matches metrics.py")


def check_wrappers_in_process() -> None:
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import importlib

    import spans

    def snapshot():
        owners = [importlib.import_module(m) for m in spans.MODULES]
        for home, cls, _ in spans.METHODS.values():
            owners.append(getattr(importlib.import_module(home), cls))
        owners.append(importlib.import_module("quadop.locality").LocalityInstance)
        return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}

    before = snapshot()
    tracer = spans.Tracer()
    tracer.install()
    check(snapshot() != before, "installing the tracer rebinds names")
    tracer.uninstall()
    check(snapshot() == before and tracer.removed(), "uninstalling restores every name")


def check_pace() -> None:
    before = signal.getsignal(signal.SIGALRM)
    clock = pace.Pace()
    clock.start()
    stamps = [time.perf_counter()]
    while stamps[-1] - stamps[0] < 0.3:
        pace._probe_loop()
        stamps.append(time.perf_counter())
    clock.stop()
    check(signal.getsignal(signal.SIGALRM) == before and len(clock.starts) > 5,
          "pace probes ran and the SIGALRM handler is put back")
    paced = [clock.at(t) for t in stamps]
    check(all(a < b for a, b in zip(paced, paced[1:])), "paced time increases with wall time")
    busy = sum(e - s for s, e in zip(clock.starts, clock.ends))
    check(paced[-1] > 0 and abs(clock.at(clock.ends[-1]) - clock.at(clock.starts[-1])) < 1e-12
          and busy < stamps[-1] - stamps[0], "time inside probes is left out of paced time")


def check_open_discrepancy() -> None:
    tally = child.Tally(expected.OPEN_DISCREPANCIES)
    tally.record("dong dual(NP)", "verdict Dong, expected NotDong")
    check(tally.failed == 1 and tally.unexpected == 0,
          "the known dual(NP) mismatch counts as failed but not as unexpected")
    tally.record("dong dual(NP)", "exit code 1: error")
    check(tally.failed == 2 and tally.unexpected == 1,
          "any other failure of the dual(NP) query is unexpected")


def main() -> int:
    check_benchmark_json()
    check_pace()
    check_open_discrepancy()
    check_wrappers_in_process()
    e2e = [m[0] for m in metrics.END_TO_END]
    layers = [m[0] for m in metrics.PER_LAYER]
    for workload in metrics.WORKLOADS:
        result, _ = run.run_once(workload, 1, SECONDS, 0, small=True)
        check(list(result["metrics"]) == e2e and result["correct"],
              f"{workload}: every end-to-end metric emitted, outputs correct")
        check(all(m["value"] > 0 for m in result["metrics"].values()),
              f"{workload}: every end-to-end metric is positive")
        traced, lines = run.run_once(workload, 1, SECONDS, 1, small=True)
        check(list(traced["metrics"]) == layers, f"{workload}: every per-layer metric emitted")
        check(traced["correct"] and any("wrappers removed True" in ln for ln in lines),
              f"{workload}: traced outputs correct and wrappers removed")
        if workload == "catalog_table":
            share = result["failed"] / result["attempted"]
            wrong, lines = run.run_once(workload, 1, SECONDS, 0, small=True, wrong=True)
            check(wrong["failed"] / wrong["attempted"] > share and not wrong["correct"]
                  and any(ln.startswith("mismatch: dong Com:") for ln in lines),
                  "a wrong expected value raises failed_share and is listed by query")
    print("smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
