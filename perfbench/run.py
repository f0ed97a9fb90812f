"""quadop benchmark entry point.

One run of one workload (the interface BENCHMARK.json names):

    python3 perfbench/run.py --workload catalog_table --seed 1 --seconds 20 --trace 0

prints the failing queries and a summary, then as its last line one JSON
object with the keys correct, attempted, failed and metrics: every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``.  Set-up is measured in 4 fresh set-up-only processes plus the
workload's own process, and the median is reported; the workload then runs
in its own fresh process, one query at a time.  Times are in paced seconds
(pace.py): wall-clock time corrected for the shared host's changing speed.
The summary line also gives the plain wall-clock pass time and median
latency.

Repeat mode runs two independent sets of runs of the same code, every run
of both sets with the same seed, so that runs differ only in the machine's
state.  It reports median, quartiles and spread per metric and workload, and
passes when every spread and every drift of a median from the first set
(either way) is within the bound in BENCHMARK.json:

    python3 perfbench/run.py --repeat 10 [--sets 2] [--seed 1]

``--repeat 1 --sets 1`` prints every end-to-end metric and failed_share for
all three workloads from one command.  Runs build nothing; they need the
quadop sources under src/ next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 4
DEADLINE_S = 170  # a run must end within 180 s


class RunError(Exception):
    pass


def _child(args: list[str], deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.path.join(ROOT, "src"))
    cmd = [sys.executable, os.path.join(HERE, "child.py"), *args]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunError(f"child {' '.join(args)} ran past the deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"child {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def run_once(workload: str, seed: int, seconds: float, trace: int, *,
             small=False, wrong=False) -> tuple[dict, list[str]]:
    """One benchmark run: the result object and the report lines before it."""
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "quadop", "__init__.py")):
        raise RunError(f"no quadop sources under {os.path.join(ROOT, 'src')}")
    if workload not in metrics.WORKLOADS:
        raise RunError(f"unknown workload {workload!r}; have {', '.join(metrics.WORKLOADS)}")
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if small:
        base.append("--small")
    if wrong:
        base.append("--wrong-expectation")
    probes = [] if trace else [
        _child(base + ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_PROBES)
    ]
    res = _child(base, deadline)
    lines = [f"mismatch: {key} ({count}x)" for key, count in sorted(res["mismatches"].items())]
    correct = res["unexpected_failures"] == 0
    if trace:
        correct = correct and res["wrappers_removed"]
        values = res["per_layer"]
        units = {name: unit for name, unit, *_ in metrics.PER_LAYER}
        lines.append(f"{workload} seed {seed}: traced passes {res['passes']}, "
                     f"wrappers removed {res['wrappers_removed']}")
    else:
        values = dict(res, setup_s=statistics.median(probes + [res["setup_s"]]))
        units = {name: unit for name, unit, *_ in metrics.END_TO_END}
        lines.append(
            f"{workload} seed {seed}: {res['passes']} timed passes "
            f"({min(res['walls']):.2f} to {max(res['walls']):.2f} s paced; "
            f"wall clock: median pass {res['raw_wall_s']:.2f} s, "
            f"p50 {res['raw_query_p50_ms']:.1f} ms), "
            f"{res['timed_queries']} timed queries, "
            f"probes {100 * res['probe_share']:.1f}% of the time, "
            f"{len(probes) + 1} set-ups, failed_share "
            f"{res['failed'] / res['attempted']:.4f} ({res['failed']}/{res['attempted']})"
        )
    result = {
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, lines


# -- repeat mode ---------------------------------------------------------------


def _git_revision() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _spread(values: list[float]) -> tuple[float, float, float, float]:
    """median, first and third quartile, and (q3 - q1) / median."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def repeat(runs: int, sets: int, seed: int, seconds: float) -> bool:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    names = metrics.WORKLOADS
    cmd = [sys.executable, os.path.abspath(__file__), "--seconds", str(seconds), "--trace", "0",
           "--seed", str(seed)]
    samples: dict = {}
    # One set after the other, each workload's runs back to back.
    for s in range(sets):
        for name in names:
            for _ in range(runs):
                proc = subprocess.run(cmd + ["--workload", name],
                                      capture_output=True, text=True, timeout=200)
                if proc.returncode != 0:
                    print(proc.stdout + proc.stderr, file=sys.stderr)
                    raise RunError(f"{name} seed {seed} failed")
                out = proc.stdout.strip().splitlines()
                samples.setdefault((s, name), []).append(
                    {"result": json.loads(out[-1]), "summary": out[-2]})
                print(f"set {s + 1} {out[-2]}", flush=True)
    ok = True
    report = {
        "python": platform.python_version(),
        "git_revision": _git_revision(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "seconds": seconds,
        "runs_per_set": runs,
        "sets": [],
    }
    print(f"\npython {report['python']}, revision {report['git_revision']}, "
          f"nproc {report['nproc']}, seed {seed}, {runs} runs per set of {seconds:g} s")
    for s in range(sets):
        for name in names:
            rows = samples[(s, name)]
            entry = {"set": s + 1, "workload": name,
                     "samples": [x["summary"] for x in rows], "metrics": {}}
            failed = sum(x["result"]["failed"] for x in rows)
            attempted = sum(x["result"]["attempted"] for x in rows)
            entry["failed_share"] = failed / attempted
            entry["correct"] = all(x["result"]["correct"] for x in rows)
            ok = ok and entry["correct"]
            print(f"\nset {s + 1} {name}: failed_share {failed / attempted:.4f} "
                  f"({failed}/{attempted}), all correct {entry['correct']}")
            print(f"  {'metric':14s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
                  f"{'spread':>7s} {'bound':>6s} {'drift':>7s}")
            for metric, unit, *_ in metrics.END_TO_END:
                vals = [x["result"]["metrics"][metric]["value"] for x in rows]
                med, q1, q3, spread = _spread(vals)
                m = {"unit": unit, "median": med, "q1": q1, "q3": q3, "spread": spread,
                     "bound": bounds[metric], "values": vals}
                drift = ""
                if s > 0:
                    first = report["sets"][names.index(name)]["metrics"][metric]["median"]
                    m["drift"] = (med - first) / first
                    drift = f"{m['drift']:+7.3f}"
                    ok = ok and abs(m["drift"]) <= bounds[metric]
                ok = ok and spread <= bounds[metric]
                entry["metrics"][metric] = m
                print(f"  {metric:14s} {med:11.4f} {q1:11.4f} {q3:11.4f} "
                      f"{spread:7.3f} {bounds[metric]:6.2f} {drift:>7s}  {unit}")
            report["sets"].append(entry)
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, time.strftime("repeat-%Y%m%dT%H%M%S.json", time.gmtime()))
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    print(f"\n{'within bounds' if ok else 'NOT within bounds'}; report in {path}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=metrics.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="reduced query lists (smoke test)")
    parser.add_argument("--wrong-expectation", action="store_true",
                        help="flip one expected verdict (smoke test)")
    parser.add_argument("--repeat", type=int, help="runs per set, all with --seed")
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args(argv)
    try:
        if args.repeat:
            return 0 if repeat(args.repeat, args.sets, args.seed, args.seconds) else 1
        if args.workload is None:
            parser.error("--workload or --repeat is required")
        result, lines = run_once(args.workload, args.seed, args.seconds, args.trace,
                                 small=args.small, wrong=args.wrong_expectation)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
