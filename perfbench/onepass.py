"""One timed pass of a workload, run in a fresh interpreter by run.py.

A fresh process per pass means every module-global cache of the library
(for example field._GCD_CACHE) starts cold, as it does for each CLI call.
The pass runs the checks one at a time while hostspeed.Probes times the
host speed probe every quarter of a second (only before and after the pass
when traced).  It then verifies every output against its reference and
prints one JSON object on stdout:

  wall_s       time spent in the checks: the sum of their times
  checks       [id, seconds, verdict, error or null] per check, in run
               order; a check's seconds exclude the probes that ran inside it
  host_s       per check, the mean of the probes from the last before it to
               the first after it
  peak_rss_mb  peak resident memory of this process
  trace        per-span aggregates and counters (with --trace 1 only)

Usage: python3 perfbench/onepass.py --workload NAME --seed N --pass-index K --trace 0|1 [--spans FILE]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import refleq.cli  # noqa: E402,F401  (the whole library, as the CLI loads it)

import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def verdict_of(out):
    """The part of a check's output that two runs of the same check must share."""
    if isinstance(out, dict):
        for key in ("holds", "ok", "count"):
            if key in out:
                return out[key]
    if isinstance(out, tuple) and len(out) == 2 and isinstance(out[0], str):
        return out[0]
    if isinstance(out, tuple) and len(out) == 2 and isinstance(out[0], list):
        return len(out[0])
    return None


def run_pass(checks, tracer=None):
    """Run the checks in order under the host probes.

    Returns (wall seconds, [(id, s, out, error)], [host probe s per check]).
    """
    rows, marks = [], []
    with hostspeed.Probes(timer=tracer is None) as probes:
        for check in checks:
            out = error = None
            mark, start = probes.mark(), perf_counter()
            try:
                if tracer is None:
                    out = check.run()
                else:
                    out, _ = tracer.run_check(check.id, check.run)
            except Exception as e:  # a raising check is a failed check, not a crashed pass
                error = f"{type(e).__name__}: {e}"
            seconds = perf_counter() - start
            end = probes.mark()
            marks.append((mark, end))
            rows.append((check.id, seconds - (end[1] - mark[1]), out, error))
    host = [probes.around(a, b) for a, b in marks]
    return sum(r[1] for r in rows), rows, host


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None, help="file the traced pass writes its spans to")
    args = ap.parse_args(argv)

    checks = workloads.checks(args.workload, args.seed, args.pass_index)
    tracer = tracing.Tracer().install() if args.trace else None
    wall, rows, host = run_pass(checks, tracer)
    if tracer is not None:
        tracer.uninstall()

    by_id = {c.id: c for c in checks}
    report = []
    for check_id, seconds, out, error in rows:
        if error is None:
            try:
                error = by_id[check_id].verify(out)
            except Exception as e:  # malformed output is a mismatch
                error = f"unverifiable output: {type(e).__name__}: {e}"
        report.append([check_id, seconds, verdict_of(out), error])
    result = {
        "wall_s": wall,
        "checks": report,
        "host_s": host,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["trace"] = tracer.aggregates()
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
