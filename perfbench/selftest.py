"""Self-test of the benchmark's tracer, references and workload choice.

    python3 perfbench/selftest.py          # about two minutes on 2 cores

Checks, each printed as PASS or FAIL (exit code 1 if any fails):
  bindings      after install() no refleq.* module or class still holds an
                unwrapped binding of a wrapped function; uninstall() restores
                every original
  verdicts      small checks give the same verdicts traced and untraced
  self-times    the span self times of one check add up to its wall time
  references    the verifiers reject wrong outputs
  repeat        two traced passes of one seed, under different
                PYTHONHASHSEED values, give identical per-layer counts
  stress        each workload spends most of its check time in the layers it
                was chosen for, and combinatorics makes no poly_gcd call
  probes        the host probes run inside a long check, their time is taken
                off the check's, and every check gets a probe time
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import refleq.cli  # noqa: E402,F401

import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

RESULTS = []


def check(name, ok, detail=""):
    RESULTS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}", flush=True)


def small_checks():
    from refleq import polarization, relations

    return {
        "reflection flagPlus l2": lambda: relations.check_reflection("flagPlus", 2),
        "reflection flagMinus l2 opposite": lambda: relations.check_reflection(
            "flagMinus", 2, boundary="oppositePlacement"),
        "ybe l3 multipoint": lambda: relations.check_ybe(3, mode="multipoint"),
        "exchange soInstanton n1": lambda: relations.check_monodromy_exchange(2, 1, "twistedPlain"),
        "polarization minus l3": lambda: polarization.solve(polarization.build_instance("-", 3)),
    }


def test_bindings_and_verdicts():
    from refleq import field, matrix, relations

    untraced = {name: fn() for name, fn in small_checks().items()}
    tracer = tracing.Tracer().install()
    try:
        stale = tracer.unwrapped_bindings()
        check("bindings: nothing left unwrapped", not stale, f"{stale[:5]}" if stale else "")
        rebound = {
            "relations.poly_gcd": relations.poly_gcd,
            "relations.embed_on_slots": relations.embed_on_slots,
            "relations.verify_identity": relations.verify_identity,
            "Poly.__mul__": field.Poly.__mul__,
            "RatFunc.__init__": field.RatFunc.__init__,
            "LabeledMatrix.__mul__": matrix.LabeledMatrix.__mul__,
        }
        missed = [k for k, fn in rebound.items() if not hasattr(fn, "__wrapped__")]
        check("bindings: imported-by-name functions and methods are wrapped", not missed, str(missed))
        traced = {name: fn() for name, fn in small_checks().items()}
        differ = [name for name in untraced if traced[name] != untraced[name]]
        check("verdicts: traced equals untraced", not differ, str(differ))

        for name, fn in small_checks().items():
            start = perf_counter()
            tracer.run_check(name, fn)
            measured = perf_counter() - start
            index = len(tracer.checks) - 1
            selfs = tracer.self_times()
            in_check = [i for i, c in enumerate(tracer.span_check) if c == index]
            root = next(i for i in in_check if tracer.span_name[i] == 0)
            root_s = tracer.span_end[root] - tracer.span_start[root]
            total = sum(selfs[i] for i in in_check)
            ok = abs(total - root_s) <= 1e-9 * max(1.0, root_s) and 0 <= measured - root_s <= 1e-3 + 0.02 * measured
            check(f"self-times: {name}", ok,
                  f"{len(in_check)} spans, self sum {total:.6f} s, span {root_s:.6f} s, measured {measured:.6f} s")
    finally:
        tracer.uninstall()
    wrappers = {id(w) for w in tracer.wrapped.values()}
    leftover = [
        (t.__name__, k) for t in tracing._binding_scopes()
        for k, v in vars(t).items() if id(v) in wrappers
    ]
    check("bindings: uninstall restores every original", not leftover, str(leftover[:5]))


def test_references():
    by_id = {}
    for w in workloads.WORKLOADS:
        by_id.update({c.id: c for c in workloads.checks(w, 0)})
    wrong = {
        "reflection/flagMinus/l2/symbolic/oppositePlacement": {"holds": True, "mode": "symbolic"},
        "reflection/flagPlus/l2/multipoint": {"holds": True, "mode": "symbolic"},
        "polarization/-/l3": ("SAT", True),
        "polarization/-/l4": ("UNSAT", False),
        "betti/sp/l5/w5": {"count": 3125, "dimension": 30, "poincare": "1 + 4*t^2"},
        "betti/so/l4/w5": {"count": 1024, "dimension": 30, "poincare": "1"},
        "soComponents/l2/w5": {"count": 32, "zeroChargeCount": 1, "parityComponents": [16, 16]},
        "flags/minus/l5/w4": ([None] * 24, []),
        "dynkin/E6/info": {"cartan": [[2] * 6] * 6, "coxeter": 12, "longestWordLength": 36, "invast": {}},
        "acceptance/criterion04": {"ok": False, "detail": "x"},
    }
    accepted = [cid for cid, out in wrong.items() if by_id[cid].verify(out) is None]
    check("references: wrong outputs are rejected", not accepted, str(accepted))


def test_host_probes():
    import onepass

    def busy():
        end = perf_counter() + 0.6
        while perf_counter() < end:
            pass

    checks = [workloads.Check("busy", busy, lambda out: None), workloads.Check("noop", lambda: None, lambda out: None)]
    _, rows, host = onepass.run_pass(checks)
    # at least two probes fall inside the 0.6 s loop, each about 0.0047 s or more
    check("probes: probe time inside a check is taken off it", 0.45 < rows[0][1] < 0.595,
          f"{rows[0][1]:.4f} s counted of a 0.6 s busy loop")
    check("probes: every check has a probe time", len(host) == 2 and all(h > 0 for h in host), str(host))


def traced_pass(workload, hashseed):
    env = dict(bench.child_env(), PYTHONHASHSEED=str(hashseed))
    return bench.run_pass(workload, 7, 0, 1, env)


def test_repeat_and_stress():
    for workload in workloads.WORKLOADS:
        first, second = traced_pass(workload, 1), traced_pass(workload, 2)
        counts = [bench.repeatable_counts(bench.layer_metrics(p["trace"])) for p in (first, second)]
        differ = {k: (counts[0][k], counts[1][k]) for k in counts[0] if counts[0][k] != counts[1][k]}
        check(f"repeat: {workload} counts", not differ, str(differ) if differ else
              ", ".join(f"{k}={v}" for k, v in counts[0].items() if v))
        share = bench.stress_share(workload, first["trace"])
        check(f"stress: {workload}", share > 0.5,
              f"{share:.2f} of check time is self time in {'+'.join(bench.STRESS[workload])}")
        if workload == "combinatorics":
            check("stress: combinatorics makes no poly_gcd call", counts[0]["field.poly_gcd.calls"] == 0)
        failed = bench.failures([first, second])
        check(f"references: {workload} traced outputs", not failed, json.dumps(failed[:3]))


def main():
    os.chdir(HERE.parent)
    test_bindings_and_verdicts()
    test_references()
    test_host_probes()
    test_repeat_and_stress()
    print(f"{sum(RESULTS)} of {len(RESULTS)} passed")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
