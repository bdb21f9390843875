"""Time-to-verdict benchmark for the refleq exact verifier.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; the library is imported from its src/.
Workloads (see workloads.py): symbolic-chain, grid-proof, combinatorics.

A run makes a fixed number of passes for a given S (PASSES_PER_40_S, at
least two), so every run with the same --seconds measures the same work.
Each pass is a fresh interpreter (onepass.py), started only after the
previous one has ended, and verifies every output against an independent
reference.

Every time below is in normalized seconds (hostspeed.py): the measured time
scaled by the host speed probe timed beside it, so that it reads as a time
on an idle reference host.  The table notes give the raw times.

--trace 0 prints the end-to-end metrics:
  setup_s       median time from spawning an interpreter to refleq.cli and
                the library being imported (several probes per pass)
  wall_s        median pass time: the sum of the pass's check times
  check_p50_s   median single-check time, pooled over the passes
  check_tail_s  single-check time at the highest percentile that still has
                10 pooled samples beyond it (percentile and count printed)
  peak_rss_mb   median peak resident memory of the pass process
and, on the table only, fail_ratio (failed / attempted checks) and the
median host probe time as host metadata.

--trace 1 makes one untraced and two traced passes and prints the per-layer
metrics of the traced passes (tracer.py, raw seconds), the tracing overhead
(traced minus untraced wall_s, normalized; a traced pass is probed only
before and after, so this is coarser than wall_s) and whether the workload
spends its time in the layers it was chosen for.  Counts must repeat exactly between the traced
passes and verdicts must agree between traced and untraced passes.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 only when every check
matched its reference; it is 2, with no result line, when the checkout has
no library to measure or a pass crashes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import workloads  # noqa: E402

# passes per 40 s of --seconds.  A pass takes 9-19 s (symbolic-chain and
# grid-proof) or 5-11 s (combinatorics) on a shared 2-core x86 VM under
# CPython 3.11, depending on how busy the host is.  Three passes put
# check_tail_s of symbolic-chain and grid-proof inside a group of like checks
# (the n = 2 exchanges; the Yang-Baxter and opposite-placement proofs) rather
# than on the edge between two groups, where two passes leave it (its spread
# over five seeds rose from 5-6 % to 12-15 %).  On combinatorics a third
# pass steadied check_tail_s and wall_s: over ten seeds they spread 8-13 %
# and 4-6 % with two passes, 6 % and 2 % with three.
PASSES_PER_40_S = 3
PROBES_PER_PASS = 2
PASS_TIMEOUT_S = 170
TAIL_BEYOND = 10

# the host probe runs after the stamp, in the same process as the import;
# its first run in a fresh interpreter is a warm-up
PROBE = ("import json, time, refleq.cli as c; t = time.monotonic(); import hostspeed; "
         "hostspeed.probe(); print(json.dumps([t, c.__file__, hostspeed.probe()]))")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("check_p50_s", "s"),
    ("check_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)

CHARGE_SPANS = ("tableaux.charge", "tableaux.sp_charge", "tableaux.so_charge", "tableaux.charge_pair_counts")
RELATION_FAMILIES = (
    "ybe", "reflection", "monodromy_exchange", "chain_reflection",
    "boundary_factorization", "boundary_constant_term",
)

# which layers each workload was chosen to stress, as span groups or names
STRESS = {
    "symbolic-chain": ("field", "matrix"),
    "grid-proof": ("field.ratfunc_eval", "matrix.verify_identity", "relations"),
    "combinatorics": ("polarization", "tableaux"),
}


class BenchError(RuntimeError):
    """The benchmark could not measure: a missing library or a crashed pass."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), str(HERE), env.get("PYTHONPATH"))))
    return env


def probe_setup(env):
    """(raw, normalized) seconds from spawning an interpreter to refleq.cli imported."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    if proc.returncode != 0:
        raise BenchError(f"importing refleq.cli failed: {proc.stderr.strip()[-500:]}")
    stamp, path, host_s = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(path).resolve().is_relative_to(SRC):
        raise BenchError(f"refleq was imported from {path}, not from {SRC}")
    return stamp - start, hostspeed.normalized(stamp - start, host_s)


def run_pass(workload, seed, pass_index, trace, env, spans=None):
    cmd = [sys.executable, str(HERE / "onepass.py"), "--workload", workload, "--seed", str(seed),
           "--pass-index", str(pass_index), "--trace", str(trace)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload} pass exceeded {PASS_TIMEOUT_S} s") from e
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass exited with {proc.returncode}: {proc.stderr.strip()[-1500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples):
    """(value, percentile) at the highest rank with TAIL_BEYOND samples above it."""
    xs = sorted(samples)
    rank = len(xs) - TAIL_BEYOND - 1
    if rank < 0:
        raise BenchError(f"{len(xs)} check samples are too few for a tail with {TAIL_BEYOND} beyond")
    return xs[rank], 100.0 * (rank + 1) / len(xs)


def pass_count(seconds):
    return max(2, round(seconds * PASSES_PER_40_S / 40))


def failures(passes):
    return [(c[0], c[3]) for p in passes for c in p["checks"] if c[3] is not None]


# ---------------------------------------------------------------------------
# end-to-end run


def normalized_times(p):
    """A pass's check times, each scaled by the host probes around it."""
    return [hostspeed.normalized(c[1], h) for c, h in zip(p["checks"], p["host_s"])]


def measure(workload, seed, seconds, env):
    setup, passes = [], []
    probe_setup(env)  # compiles bytecode once; not a sample
    for k in range(pass_count(seconds)):
        setup += [probe_setup(env) for _ in range(PROBES_PER_PASS)]
        passes.append(run_pass(workload, seed, k, 0, env))

    per_pass = [normalized_times(p) for p in passes]
    times = [t for ts in per_pass for t in ts]
    raw = [c[1] for p in passes for c in p["checks"]]
    tail_s, tail_pct = tail(times)
    attempted = len(times)
    failed = failures(passes)
    metrics = {
        "setup_s": statistics.median(s for _, s in setup),
        "wall_s": statistics.median(sum(ts) for ts in per_pass),
        "check_p50_s": statistics.median(times),
        "check_tail_s": tail_s,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    notes = {
        "setup_s": f"median of {len(setup)} probes; raw {statistics.median(r for r, _ in setup):.4f} s",
        "wall_s": "raw pass times " + ", ".join(f"{p['wall_s']:.2f}" for p in passes),
        "check_p50_s": f"raw {statistics.median(raw):.5f} s",
        "check_tail_s": f"p{tail_pct:.1f} of {attempted} pooled checks; raw {tail(raw)[0]:.4f} s",
    }
    host = [h for p in passes for h in p["host_s"]]
    rows = [(name, metrics[name], unit, notes.get(name, "")) for name, unit in END_TO_END]
    rows.append(("fail_ratio", len(failed) / attempted, "1", f"{len(failed)} of {attempted} checks"))
    rows.append(("host.probe_s", statistics.median(host), "s",
                 f"median over checks; {hostspeed.REFERENCE_S} s on the idle reference host; "
                 "metadata, not a metric"))
    return metrics, rows, attempted, failed


# ---------------------------------------------------------------------------
# traced run


def layer_metrics(agg):
    """Per-layer metrics from one traced pass's aggregates."""
    spans, groups, counters = agg["spans"], agg["groups"], agg["counters"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(*names):
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    def group(g, key="self_s"):
        return sum(v[key] for n, v in spans.items() if groups.get(n) == g)

    gcd_calls = calls("field.poly_gcd")
    points = counters.get("matrix.grid_points", 0)
    flag_built = counters.get("tableaux.flag_built", 0)
    m = {
        "field.poly_gcd.calls": gcd_calls,
        "field.poly_gcd.self_s": self_s("field.poly_gcd"),
        "field.poly_gcd.nontrivial_ratio": counters.get("field.poly_gcd.nontrivial", 0) / gcd_calls if gcd_calls else 0.0,
        "field.poly_div_exact.self_s": self_s("field.poly_div_exact"),
        "field.poly_mul.calls": calls("field.poly_mul"),
        "field.poly_mul.self_s": self_s("field.poly_mul"),
        "field.ratfunc_new.calls": calls("field.ratfunc_new"),
        "field.ratfunc_new.self_s": self_s("field.ratfunc_new"),
        "field.ratfunc_eval.calls": calls("field.ratfunc_eval"),
        "field.ratfunc_eval.self_s": self_s("field.ratfunc_eval"),
        "matrix.matmul.calls": calls("matrix.matmul"),
        "matrix.matmul.self_s": self_s("matrix.matmul"),
        "matrix.inverse.self_s": self_s("matrix.inverse"),
        "matrix.embed_on_slots.self_s": self_s("matrix.embed_on_slots"),
        "matrix.verify_identity.self_s": self_s("matrix.verify_identity"),
        "matrix.eval_entries.calls": calls("matrix.eval_entries"),
        "matrix.grid_points": points,
        "matrix.s_per_grid_point": counters.get("multipoint_check_s", 0.0) / points if points else 0.0,
        "rkmat.build.calls": group("rkmat.build", "calls"),
        "rkmat.build.self_s": group("rkmat.build"),
        **{f"relations.{f}.s": spans.get(f"relations.{f}", {}).get("incl_s", 0.0) for f in RELATION_FAMILIES},
        "relations.self_s": group("relations"),
        "polarization.solve.exhaustive_s": counters.get("polarization.solve.exhaustive_s", 0.0),
        "polarization.solve.propagation_s": counters.get("polarization.solve.propagation_s", 0.0),
        "polarization.replay_certificate.self_s": self_s("polarization.replay_certificate"),
        "polarization.certificate_steps": counters.get("polarization.certificate_steps", 0),
        "tableaux.tableaux_built": counters.get("tableaux.tableaux_built", 0),
        "tableaux.enumerate_instanton.self_s": self_s("tableaux.enumerate_instanton"),
        "tableaux.charge.self_s": self_s(*CHARGE_SPANS),
        "tableaux.tangent_dimension.self_s": self_s("tableaux.tangent_dimension"),
        "tableaux.flag_kept_ratio": counters.get("tableaux.flag_kept", 0) / flag_built if flag_built else 0.0,
        "kclass.self_s": group("kclass"),
        "dynkin.self_s": group("dynkin"),
        "acceptance.run_criterion.self_s": self_s("acceptance.run_criterion"),
    }
    return m


def stress_share(workload, agg):
    """Share of the checks' time spent as self time in the workload's target layers."""
    spans, groups = agg["spans"], agg["groups"]
    total = spans["bench.check"]["incl_s"]
    picked = sum(
        v["self_s"] for n, v in spans.items() if n in STRESS[workload] or groups.get(n) in STRESS[workload]
    )
    return picked / total


def repeatable_counts(metrics):
    return {k: v for k, v in metrics.items() if _unit(k) == "count"}


def measure_traced(workload, seed, env):
    # every pass in the seed's pass-0 order, so the two traced passes must
    # repeat each other's counts exactly
    OUT.mkdir(exist_ok=True)
    plain = [run_pass(workload, seed, 0, 0, env)]
    traced = [run_pass(workload, seed, 0, 1, env, spans=OUT / f"spans-{workload}-{k}.json") for k in range(2)]

    per_pass = [layer_metrics(p["trace"]) for p in traced]
    metrics = {
        name: (per_pass[0][name] if name in repeatable_counts(per_pass[0])
               else statistics.median(m[name] for m in per_pass))
        for name in per_pass[0]
    }
    overhead = (statistics.median(sum(normalized_times(p)) for p in traced)
                - statistics.median(sum(normalized_times(p)) for p in plain))
    metrics["trace.overhead_s"] = overhead

    failed = failures(plain + traced)
    counts = [repeatable_counts(m) for m in per_pass]
    if any(c != counts[0] for c in counts[1:]):
        failed.append(("trace", "per-layer counts differ between traced passes of one seed"))
    reference = {c[0]: c[2] for c in plain[0]["checks"]}
    for p in plain[1:] + traced:
        for check_id, _, verdict, _ in p["checks"]:
            if verdict != reference[check_id]:
                failed.append((check_id, f"verdict {verdict} differs from the untraced {reference[check_id]}"))

    share = statistics.median(stress_share(workload, p["trace"]) for p in traced)
    rows = [(name, value, "", "") for name, value in metrics.items()]
    rows.append(("stress_share", share, "1",
                 f"self time in {'+'.join(STRESS[workload])} / check time; "
                 + ("most, as chosen" if share > 0.5 else "NOT most: workload misses its layers")))
    if workload == "combinatorics":
        rows.append(("field.poly_gcd.calls == 0", metrics["field.poly_gcd.calls"] == 0, "", ""))
    attempted = sum(len(p["checks"]) for p in plain + traced)
    return metrics, rows, attempted, failed


# ---------------------------------------------------------------------------


def run(workload, seed, seconds, trace, env):
    if trace:
        metrics, rows, attempted, failed = measure_traced(workload, seed, env)
        units = PER_LAYER_UNITS
    else:
        metrics, rows, attempted, failed = measure(workload, seed, seconds, env)
        units = dict(END_TO_END)
    for name, value, unit, note in rows:
        unit = unit or units.get(name, "")
        print(f"{workload:15s} {name:40s} {value!s:>24} {unit:6s} {note}")
    for check_id, message in failed[:20]:
        print(f"FAILED {workload} {check_id}: {message}")
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return not failed


def _unit(name):
    if name.endswith("_s") or name.endswith(".s") or name == "matrix.s_per_grid_point":
        return "s"
    if name.endswith("_ratio"):
        return "1"
    return "count"


PER_LAYER_UNITS = {
    name: _unit(name)
    for name in list(layer_metrics({"spans": {}, "groups": {}, "counters": {}})) + ["trace.overhead_s"]
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "refleq" / "__init__.py").is_file():
        print(f"no library to measure: {SRC / 'refleq'} is missing", file=sys.stderr)
        return 2
    env = child_env()
    chosen = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        ok = [run(w, args.seed, args.seconds, args.trace, env) for w in chosen]
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
