"""Acceptance battery: the end-to-end checks the tool is signed off against.

Each criterion function performs one self-contained verification against
known closed-form answers or identities and returns a report dict with an
"ok" flag and a human-readable detail line.  run_acceptance executes all of
them, enforcing the per-criterion wall-clock budgets, and is shared by the
test suite and the command line ("suite acceptance").
"""

from __future__ import annotations

import time

from .dynkin import DynkinType, coxeter_number, invast, longest_word
from .kclass import QLaurent, longest_reflection_transform, longest_transform_summary
from .polarization import build_instance, check_choice, replay_certificate, solve
from .relations import (
    EXCHANGE_VARIANTS,
    PINNED_REFLECTION,
    check_boundary_constant_term,
    check_boundary_factorization,
    check_chain_reflection,
    check_k_unitarity,
    check_monodromy_exchange,
    check_r_unitarity,
    check_reflection,
    check_ybe,
)
from .rkmat import KINDS
from .tableaux import (
    InstantonTableau,
    condition_met,
    enumerate_instanton,
    flag_fixed_points,
    poincare_polynomial,
    so_component_report,
    tangent_dimension,
)


def _report(ok, detail, **extra):
    out = {"ok": bool(ok), "detail": detail}
    out.update(extra)
    return out


def criterion_01_fixed_point_counts():
    """Instanton tableau counts equal l^w1 over the full small grid."""
    failures = []
    cases = 0
    for l in range(2, 7):
        for w1 in range(0, 5):
            cases += 1
            got = len(enumerate_instanton(l, w1))
            if got != l**w1:
                failures.append(f"l={l} w1={w1}: {got} != {l**w1}")
    if failures:
        return _report(False, "; ".join(failures))
    return _report(True, f"all {cases} tableau counts equal l^w1")


def criterion_02_charge_condition_example():
    """On the worked l=5, w1=2 tableau the node (1,1) beats row -1 only."""
    t = InstantonTableau.from_positive_entries(5, 2, (3, 1))
    got = {l_row: condition_met(t, 1, l_row, 1) for l_row in (-2, -1, 2)}
    expected = {-2: False, -1: True, 2: False}
    ok = got == expected
    return _report(ok, f"condition holds exactly for row -1: {got}")


def criterion_03_tangent_dimensions():
    """Tangent dimension is constant and matches the closed forms."""
    failures = []
    cases = 0
    for l in range(2, 6):
        for w1 in range(0, 4):
            tabs = enumerate_instanton(l, w1)
            for kind, expected in (("sp", w1 * (w1 + 1)), ("so", w1 * (w1 - 1) if w1 else 0)):
                cases += 1
                dims = {tangent_dimension(t, kind) for t in tabs}
                if dims != {expected}:
                    failures.append(f"{kind} l={l} w1={w1}: {sorted(dims)} != {expected}")
    if failures:
        return _report(False, "; ".join(failures[:4]))
    return _report(True, f"constant dimensions match in all {cases} cases")


def criterion_04_betti_structure():
    """Connectivity and component structure of the Betti data."""
    failures = []
    for l in range(2, 6):
        for w1 in range(0, 4):
            poly = poincare_polynomial("sp", l, w1)
            if poly.get(0) != 1:
                failures.append(f"sp l={l} w1={w1}: constant term {poly.get(0)}")
        one = poincare_polynomial("sp", l, 1)
        if one != ({0: 1, 2: l - 1} if l > 1 else {0: 1}):
            failures.append(f"sp l={l} w1=1 polynomial {one}")
        so2 = so_component_report(l, 2)
        if so2["zeroChargeCount"] != 1 + l * (l - 1) // 2:
            failures.append(f"so l={l} w1=2 zero-charge {so2['zeroChargeCount']}")
    for w1 in range(1, 6):
        rep = so_component_report(2, w1)
        if rep.get("parityComponents") != [2 ** (w1 - 1), 2 ** (w1 - 1)]:
            failures.append(f"so l=2 w1={w1} components {rep.get('parityComponents')}")
    if failures:
        return _report(False, "; ".join(failures[:4]))
    return _report(True, "constant terms, rank-one polynomials and component splits all match")


def criterion_05_longest_reflection_composite():
    """The longest-word reflection chain sends U_i to -q^c U_{invast(i)}."""
    failures = []
    for name in ("A1", "A2", "A3", "A4", "A5", "D4", "D5", "E6"):
        t = DynkinType.parse(name)
        c = coxeter_number(t)
        expected_coeff = QLaurent.q_power(c, -1)
        summary = longest_transform_summary(t)
        iv = invast(t)
        for j, (image, coeff) in summary.items():
            if image != iv[j] or coeff != expected_coeff:
                failures.append(f"{name}: U_{j} -> ({image}, {coeff})")
        low = longest_reflection_transform(t, longest_word(t))
        high = longest_reflection_transform(t, longest_word(t, prefer_high=True))
        if any(low[j] != high[j] for j in t.vertices):
            failures.append(f"{name}: two reduced words disagree")
    if failures:
        return _report(False, "; ".join(failures[:4]))
    return _report(True, "all eight types give -q^(coxeter) times the diagram involution, word-independently")


def criterion_06_r_matrix_identities():
    """Yang-Baxter, R-unitarity and K-unitarity on the stated ranges."""
    failures = []
    for l in (2, 3):
        if not check_ybe(l, mode="symbolic")["holds"]:
            failures.append(f"ybe symbolic l={l}")
    for l in (4, 5):
        if not check_ybe(l, mode="multipoint")["holds"]:
            failures.append(f"ybe multipoint l={l}")
    for l in (2, 3, 4):
        if not check_r_unitarity(l)["holds"]:
            failures.append(f"chain unitarity l={l}")
        if not check_r_unitarity(l, kind="soInstanton")["holds"]:
            failures.append(f"cross unitarity l={l}")
    for kind in KINDS:
        for l in range(2, 6):
            if not check_k_unitarity(kind, l)["holds"]:
                failures.append(f"K unitarity {kind} l={l}")
    if failures:
        return _report(False, "; ".join(failures[:4]))
    return _report(True, "Yang-Baxter (symbolic 2-3, multipoint 4-5), R- and K-unitarity all hold")


def criterion_07_reflection_equation():
    """Boundary reflection identity wherever relations pins it to hold."""
    failures = []
    for kind, sizes in PINNED_REFLECTION.items():
        for l in sizes:
            if not check_reflection(kind, l)["holds"]:
                failures.append(f"{kind} l={l}")
    for l in (2, 3, 4):
        if check_reflection("flagMinus", l, boundary="oppositePlacement")["holds"]:
            failures.append(f"opposite placement unexpectedly holds at l={l}")
    if failures:
        return _report(False, "; ".join(failures[:4]))
    return _report(True, "reflection holds on the grid and the swapped placement fails as required")


def criterion_08_monodromy_exchange():
    """Exchange relations with monodromy chains, plus chain boundaries."""
    failures = []
    for kind in KINDS:
        for variant in EXCHANGE_VARIANTS:
            for n in (1, 2):
                if not check_monodromy_exchange(2, n, variant, kind=kind)["holds"]:
                    failures.append(f"{kind} {variant} n={n}")
    for kind in ("flagPlus", "soInstanton"):
        if not check_chain_reflection(kind, 2, n=1)["holds"]:
            failures.append(f"chain reflection {kind}")
    if failures:
        return _report(False, "; ".join(failures[:4]))
    return _report(True, "all exchange variants hold at both chain lengths; dressed boundaries reflect")


def criterion_09_boundary_operator():
    """Constant term and factorization of the dressed boundary operator."""
    failures = []
    for kind in KINDS:
        for l in (2, 3):
            for n in (0, 1):
                if not check_boundary_constant_term(kind, l, n=n)["holds"]:
                    failures.append(f"constant term {kind} l={l} n={n}")
                if not check_boundary_factorization(kind, l, n=n)["holds"]:
                    failures.append(f"factorization {kind} l={l} n={n}")
    if failures:
        return _report(False, "; ".join(failures[:4]))
    return _report(True, "constant terms equal the twist matrix and both product forms agree")


def criterion_10_polarization_dichotomy():
    """Satisfiability pattern of the wall-consistency instances."""
    failures = []
    for sign, l in [("+", l) for l in range(2, 7)] + [("-", 2)]:
        inst = build_instance(sign, l)
        res = solve(inst)
        if res["verdict"] != "SAT" or not check_choice(inst, res["witness"])["ok"]:
            failures.append(f"{'plus' if sign == '+' else 'minus'} l={l}: {res['verdict']}")
    for l in range(3, 7):
        inst = build_instance("-", l)
        res = solve(inst)
        if res["verdict"] != "UNSAT" or not replay_certificate(inst, res["certificate"]):
            failures.append(f"minus l={l}: {res['verdict']}")
        if res["method"] != "propagation":
            failures.append(f"minus l={l} used {res['method']}")
    if failures:
        return _report(False, "; ".join(failures[:4]))
    return _report(True, "SAT/UNSAT pattern matches with verified witnesses and certificates")


def criterion_11_flag_fixed_points():
    """Flag tableau counts: unique, mirror-pair and l^2 scenarios."""
    failures = []
    pts, diag = flag_fixed_points("plus", 5, 1)
    if diag or len(pts) != 1:
        failures.append(f"w=1: {len(pts)} points, diagnostics {diag}")
    for v in ((1, 1, 1, 1), (2, 1, 1, 0)):
        pts, diag = flag_fixed_points("minus", 5, 2, v=v)
        if diag or len(pts) != 2:
            failures.append(f"w=2 v={v}: {len(pts)} points")
    for l in (2, 3, 4, 5):
        pts, diag = flag_fixed_points("minus", l, 4)
        if diag or len(pts) != l * l:
            failures.append(f"minus w=4 l={l}: {len(pts)}")
    for l in (3, 5):
        pts, diag = flag_fixed_points("plus", l, 5)
        if diag or len(pts) != l * l:
            failures.append(f"plus w=5 l={l}: {len(pts)}")
    if failures:
        return _report(False, "; ".join(failures[:4]))
    return _report(True, "unique point, mirror pairs and l^2 unions all come out right")


CRITERIA = (
    ("fixed point counts", criterion_01_fixed_point_counts, 5.0),
    ("charge condition example", criterion_02_charge_condition_example, None),
    ("tangent dimensions", criterion_03_tangent_dimensions, None),
    ("Betti structure", criterion_04_betti_structure, 10.0),
    ("longest reflection composite", criterion_05_longest_reflection_composite, 10.0),
    ("R-matrix identities", criterion_06_r_matrix_identities, 120.0),
    ("reflection equation", criterion_07_reflection_equation, 180.0),
    ("monodromy exchange", criterion_08_monodromy_exchange, None),
    ("boundary operator", criterion_09_boundary_operator, None),
    ("polarization dichotomy", criterion_10_polarization_dichotomy, 30.0),
    ("flag fixed points", criterion_11_flag_fixed_points, None),
)


def run_criterion(index, progress=None):
    """Run one criterion by 1-based index, enforcing its time budget.

    The report holds no timings, so it is the same on every run; an overrun
    sets "ok" to False and notes the budget in "detail".  progress, if
    given, is called as progress(report, elapsed_seconds, budget_seconds)
    with budget_seconds None for an unbudgeted criterion.
    """
    if not 1 <= index <= len(CRITERIA):
        raise ValueError(f"criterion index {index} is outside 1..{len(CRITERIA)}")
    title, func, budget = CRITERIA[index - 1]
    start = time.monotonic()
    rep = func()
    elapsed = time.monotonic() - start
    rep["criterion"] = index
    rep["title"] = title
    if budget is not None and elapsed > budget:
        rep["ok"] = False
        rep["detail"] += f" [exceeded {budget}s budget: {elapsed:.1f}s]"
    if progress is not None:
        progress(rep, elapsed, budget)
    return rep


def run_acceptance(progress=None):
    """Run the full battery and aggregate the verdict."""
    results = [run_criterion(i, progress) for i in range(1, len(CRITERIA) + 1)]
    return {"ok": all(r["ok"] for r in results), "results": results}
