"""One run of one workload in a fresh process; started by run.py.

    python3 perfbench/child.py --workload NAME --seed N --seconds S --trace 0|1
                               [--setup-only] [--small] [--wrong-expectation]

Set-up is timed from before ``import quadop`` to the first query.  Then one
warm-up pass runs (on wide_products only its d=16 half), and timed passes
follow, one query at a time, until the next pass would overrun ``--seconds``
of wall time; every pass runs at least once.  Outputs are checked after each
pass, outside the timed region.  With ``--trace 1`` the set-up is traced,
then half of the time goes to untraced passes and half to traced ones.

Every reported time is in paced seconds (see pace.py): the probes run from
the start of the process to the end of the last pass, and timestamps are
converted after they stop.  The last line of output is one JSON object.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import pace  # noqa: E402

PACE = pace.Pace()
PACE.start()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class Tally:
    """Attempted and failed queries, with the failures listed by query."""

    def __init__(self, open_problems):
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.mismatches: dict[str, int] = {}  # "label: problem" -> count
        self._open = open_problems

    def record(self, label: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is None:
            return
        self.failed += 1
        if self._open.get(label) != problem:
            self.unexpected += 1
        key = f"{label}: {problem}"
        self.mismatches[key] = self.mismatches.get(key, 0) + 1


class Runner:
    def __init__(self, workload, tally):
        self.workload = workload
        self.tally = tally
        self.tracer = None  # set for the traced passes
        self._ids = itertools.count()

    def one_pass(self, queries) -> list[tuple[float, float]]:
        """Run the queries once; return each query's start and end time."""
        state: dict = {}
        records = []
        tracer = self.tracer
        for q in queries:
            if tracer:
                tracer.query = next(self._ids)
            t = time.perf_counter()
            try:
                out, err = q.run(state), None
            except Exception as exc:  # a failed query is counted, not fatal
                out, err = None, f"raised {type(exc).__name__}: {exc}"
            records.append(((t, time.perf_counter()), out, err))
        if tracer:
            tracer.query = None
            tracer.enabled = False
        for q, (_, out, err) in zip(queries, records):
            if err is None:
                try:
                    err = q.check(out)
                except Exception as exc:  # malformed output
                    err = f"check raised {type(exc).__name__}: {exc}"
            self.tally.record(q.label, err)
        if tracer:
            tracer.enabled = True
        return [r[0] for r in records]

    def measure(self, budget: float) -> list[list[tuple[float, float]]]:
        """Timed passes until the next one would overrun the wall-time budget."""
        passes, walls = [], []
        while True:
            stamps = self.one_pass(self.workload.queries)
            passes.append(stamps)
            walls.append(stamps[-1][1] - stamps[0][0])
            if sum(walls) + statistics.median(walls) > budget:
                return passes


def timings(passes, clock) -> tuple[list[float], list[float]]:
    """Pass times and query latencies of measured passes, by ``clock``."""
    walls = [clock(p[-1][1]) - clock(p[0][0]) for p in passes]
    latencies = [clock(b) - clock(a) for p in passes for a, b in p]
    return walls, latencies


def percentile(values: list[float], p: float) -> float:
    """Percentile with linear interpolation between the two nearest ranks.

    wide_products has only 6 timed queries in a run; interpolation keeps its
    percentiles from jumping between neighbouring queries.
    """
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(p * 100) - 1]


def run(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--wrong-expectation", action="store_true")
    args = parser.parse_args(argv)

    import quadop
    import quadop.cli  # noqa: F401  (the table queries call it)

    src = os.path.join(ROOT, "src", "")
    if not os.path.abspath(quadop.__file__).startswith(src):
        print(f"quadop imported from {quadop.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    import expected
    import workloads

    with tempfile.TemporaryDirectory(prefix=".perfbench_tmp-", dir=ROOT) as tmpdir:
        workload = workloads.build(args.workload, args.seed, tmpdir,
                                  small=args.small, wrong=args.wrong_expectation)
        setup_end = time.perf_counter()
        if args.setup_only:
            PACE.stop()
            print(json.dumps({"setup_s": PACE.at(setup_end) - PACE.at(T0)}))
            return 0
        tally = Tally(expected.OPEN_DISCREPANCIES)
        runner = Runner(workload, tally)
        if tracer:
            setup_spans, setup_counters = len(tracer.spans), tracer.counters.copy()
            tracer.uninstall()
            runner.one_pass(workload.warmup)
            plain = runner.measure(args.seconds / 2)
            tracer.install()
            runner.tracer = tracer
            traced = runner.measure(args.seconds / 2)
            tracer.uninstall()
            PACE.stop()
            tracer.retime(PACE.at)
            overhead = (statistics.median(timings(traced, PACE.at)[0])
                        - statistics.median(timings(plain, PACE.at)[0]))
            result = {
                "per_layer": spans.per_layer(tracer, setup_spans, setup_counters,
                                             len(traced), overhead),
                "wrappers_removed": tracer.removed(),
                "passes": {"untraced": len(plain), "traced": len(traced)},
            }
            out_dir = os.path.join(ROOT, ".perfbench_out")
            os.makedirs(out_dir, exist_ok=True)
            tracer.dump(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json"))
        else:
            runner.one_pass(workload.warmup)
            passes = runner.measure(args.seconds)
            PACE.stop()
            walls, lat = timings(passes, PACE.at)
            raw_walls, raw_lat = timings(passes, float)
            result = {
                "wall_s": statistics.median(walls),
                "query_p50_ms": percentile(lat, 0.5) * 1e3,
                "query_p90_ms": percentile(lat, 0.9) * 1e3,
                "passes": len(walls),
                "walls": walls,
                "raw_wall_s": statistics.median(raw_walls),
                "raw_query_p50_ms": percentile(raw_lat, 0.5) * 1e3,
                "timed_queries": len(lat),
            }
        result["setup_s"] = PACE.at(setup_end) - PACE.at(T0)
        result["probe_share"] = PACE.probe_share()
        # ru_maxrss is in KiB on Linux.
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        unexpected_failures=tally.unexpected,
        mismatches=tally.mismatches,
    )
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    try:
        return run(argv)
    finally:
        if PACE.running:
            PACE.stop()


if __name__ == "__main__":
    sys.exit(main())
