"""Acceptance battery: the end-to-end checks the tool is signed off against.

Each criterion checks known closed-form answers or identities and yields one
line per failure; criteria 6-9 run lists of relations suite items, each
pinned to its outcome.  run_criterion makes a criterion's report, an "ok" flag
and a detail line, and enforces its wall-clock budget; run_acceptance runs
them all for the test suite and the command line ("suite acceptance").
"""

from __future__ import annotations

import functools
import time

from .dynkin import DynkinType, coxeter_number, invast, longest_word
from .kclass import QLaurent, longest_reflection_transform, longest_transform_summary
from .polarization import build_instance, check_choice, replay_certificate, solve
from .relations import EXCHANGE_VARIANTS, PINNED_REFLECTION, describe_item, run_suite_item, suite_item
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


def criterion_01_fixed_point_counts():
    """Instanton tableau counts equal l^w1 over the full small grid."""
    for l in range(2, 7):
        for w1 in range(0, 5):
            got = len(enumerate_instanton(l, w1))
            if got != l**w1:
                yield f"l={l} w1={w1}: {got} != {l**w1}"


def criterion_02_charge_condition_example():
    """On the worked l=5, w1=2 tableau the node (1,1) beats row -1 only."""
    t = InstantonTableau.from_positive_entries(5, 2, (3, 1))
    got = {l_row: condition_met(t, 1, l_row, 1) for l_row in (-2, -1, 2)}
    if got != {-2: False, -1: True, 2: False}:
        yield f"condition by row: {got}"


def criterion_03_tangent_dimensions():
    """Tangent dimension is constant and matches the closed forms."""
    for l in range(2, 6):
        for w1 in range(0, 4):
            tabs = enumerate_instanton(l, w1)
            for kind, expected in (("sp", w1 * (w1 + 1)), ("so", w1 * (w1 - 1) if w1 else 0)):
                dims = {tangent_dimension(t, kind) for t in tabs}
                if dims != {expected}:
                    yield f"{kind} l={l} w1={w1}: {sorted(dims)} != {expected}"


def criterion_04_betti_structure():
    """Connectivity and component structure of the Betti data."""
    for l in range(2, 6):
        for w1 in range(0, 4):
            poly = poincare_polynomial("sp", l, w1)
            if poly.get(0) != 1:
                yield f"sp l={l} w1={w1}: constant term {poly.get(0)}"
        one = poincare_polynomial("sp", l, 1)
        if one != ({0: 1, 2: l - 1} if l > 1 else {0: 1}):
            yield f"sp l={l} w1=1 polynomial {one}"
        so2 = so_component_report(l, 2)
        if so2["zeroChargeCount"] != 1 + l * (l - 1) // 2:
            yield f"so l={l} w1=2 zero-charge {so2['zeroChargeCount']}"
    for w1 in range(1, 6):
        rep = so_component_report(2, w1)
        if rep.get("parityComponents") != [2 ** (w1 - 1), 2 ** (w1 - 1)]:
            yield f"so l=2 w1={w1} components {rep.get('parityComponents')}"


def criterion_05_longest_reflection_composite():
    """The longest-word reflection chain sends U_i to -q^c U_{invast(i)}."""
    for name in ("A1", "A2", "A3", "A4", "A5", "D4", "D5", "E6"):
        t = DynkinType.parse(name)
        c = coxeter_number(t)
        expected_coeff = QLaurent.q_power(c, -1)
        summary = longest_transform_summary(t)
        iv = invast(t)
        for j, (image, coeff) in summary.items():
            if image != iv[j] or coeff != expected_coeff:
                yield f"{name}: U_{j} -> ({image}, {coeff})"
        # the summary holds the low word's transform, each a single term
        high = longest_reflection_transform(t, longest_word(t, prefer_high=True))
        if any(high[j].single_symbol() != (("U", image), coeff) for j, (image, coeff) in summary.items()):
            yield f"{name}: two reduced words disagree"


def _failing_items(items):
    """One line per suite item whose verdict is not the outcome it is pinned to."""
    for item in items:
        holds = run_suite_item(item)["holds"]
        if holds != item["expected"]:
            yield f"{describe_item(item)}: holds is {holds}"


# criterion 6: Yang-Baxter (symbolic at l = 2, 3, multipoint at l = 4, 5), R- and K-unitarity
_R_MATRIX_IDENTITIES = (
    [suite_item("yangBaxter", l) for l in (2, 3)]
    + [suite_item("yangBaxter", l, mode="multipoint") for l in (4, 5)]
    + [suite_item("rUnitarity", l, family="chain") for l in (2, 3, 4)]
    + [suite_item("rUnitarity", l, family="cross", kind="soInstanton") for l in (2, 3, 4)]
    + [suite_item("kUnitarity", l, kind=kind) for kind in KINDS for l in range(2, 6)]
)

# criterion 7: the boundary reflection identity wherever relations pins it to
# hold, and the swapped placement failing as a negative control
_REFLECTION_EQUATION = [
    suite_item("reflection", l, kind=kind, boundary="standard") for kind in KINDS for l in PINNED_REFLECTION[kind]
] + [suite_item("reflection", l, False, kind="flagMinus", boundary="oppositePlacement") for l in (2, 3, 4)]

# criterion 8: exchange relations with monodromy chains, plus chain boundaries
_MONODROMY_EXCHANGE = [
    suite_item("monodromyExchange", 2, kind=kind, variant=variant, sites=n)
    for kind in KINDS
    for variant in EXCHANGE_VARIANTS
    for n in (1, 2)
] + [suite_item("chainReflection", 2, kind=kind, sites=1) for kind in ("flagPlus", "soInstanton")]

# criterion 9: constant term and factorization of the dressed boundary operator
_BOUNDARY_OPERATOR = [
    suite_item(check, l, kind=kind, sites=n)
    for kind in KINDS
    for l in (2, 3)
    for n in (0, 1)
    for check in ("boundaryConstantTerm", "boundaryFactorization")
]


def criterion_10_polarization_dichotomy():
    """Satisfiability pattern of the wall-consistency instances."""
    for sign, l in [("+", l) for l in range(2, 7)] + [("-", 2)]:
        inst = build_instance(sign, l)
        res = solve(inst)
        if res["verdict"] != "SAT" or not check_choice(inst, res["witness"])["ok"]:
            yield f"{'plus' if sign == '+' else 'minus'} l={l}: {res['verdict']}"
    for l in range(3, 7):
        inst = build_instance("-", l)
        res = solve(inst)
        if res["verdict"] != "UNSAT" or not replay_certificate(inst, res["certificate"]):
            yield f"minus l={l}: {res['verdict']}"
        if res["method"] != "propagation":
            yield f"minus l={l} used {res['method']}"


def criterion_11_flag_fixed_points():
    """Flag tableau counts: unique, mirror-pair and l^2 scenarios."""
    pts, diag = flag_fixed_points("plus", 5, 1)
    if diag or len(pts) != 1:
        yield f"w=1: {len(pts)} points, diagnostics {diag}"
    for v in ((1, 1, 1, 1), (2, 1, 1, 0)):
        pts, diag = flag_fixed_points("minus", 5, 2, v=v)
        if diag or len(pts) != 2:
            yield f"w=2 v={v}: {len(pts)} points"
    for l in (2, 3, 4, 5):
        pts, diag = flag_fixed_points("minus", l, 4)
        if diag or len(pts) != l * l:
            yield f"minus w=4 l={l}: {len(pts)}"
    for l in (3, 5):
        pts, diag = flag_fixed_points("plus", l, 5)
        if diag or len(pts) != l * l:
            yield f"plus w=5 l={l}: {len(pts)}"


# (title, criterion, budget in seconds or None, detail when it passes); a
# criterion is called with no arguments and yields one line per failure
CRITERIA = (
    ("fixed point counts", criterion_01_fixed_point_counts, 5.0, "all 25 tableau counts equal l^w1"),
    ("charge condition example", criterion_02_charge_condition_example, None,
     "condition holds exactly for row -1: {-2: False, -1: True, 2: False}"),
    ("tangent dimensions", criterion_03_tangent_dimensions, None, "constant dimensions match in all 32 cases"),
    ("Betti structure", criterion_04_betti_structure, 10.0,
     "constant terms, rank-one polynomials and component splits all match"),
    ("longest reflection composite", criterion_05_longest_reflection_composite, 10.0,
     "all eight types give -q^(coxeter) times the diagram involution, word-independently"),
    ("R-matrix identities", functools.partial(_failing_items, _R_MATRIX_IDENTITIES), 120.0,
     "Yang-Baxter (symbolic 2-3, multipoint 4-5), R- and K-unitarity all hold"),
    ("reflection equation", functools.partial(_failing_items, _REFLECTION_EQUATION), 180.0,
     "reflection holds on the grid and the swapped placement fails as required"),
    ("monodromy exchange", functools.partial(_failing_items, _MONODROMY_EXCHANGE), None,
     "all exchange variants hold at both chain lengths; dressed boundaries reflect"),
    ("boundary operator", functools.partial(_failing_items, _BOUNDARY_OPERATOR), None,
     "constant terms equal the twist matrix and both product forms agree"),
    ("polarization dichotomy", criterion_10_polarization_dichotomy, 30.0,
     "SAT/UNSAT pattern matches with verified witnesses and certificates"),
    ("flag fixed points", criterion_11_flag_fixed_points, None,
     "unique point, mirror pairs and l^2 unions all come out right"),
)


def run_criterion(index, progress=None):
    """Run one criterion by 1-based index, enforcing its time budget.

    The detail is the passing detail or the first four failures.  The report
    holds no timings, so it is the same on every run; an overrun sets "ok" to
    False and notes the budget in "detail".  progress, if given, is called as
    progress(report, elapsed_seconds, budget_seconds) with budget_seconds None
    for an unbudgeted criterion.
    """
    if not 1 <= index <= len(CRITERIA):
        raise ValueError(f"criterion index {index} is outside 1..{len(CRITERIA)}")
    title, criterion, budget, passed = CRITERIA[index - 1]
    start = time.monotonic()
    failures = list(criterion())
    elapsed = time.monotonic() - start
    detail = "; ".join(failures[:4]) if failures else passed
    rep = {"ok": not failures, "detail": detail, "criterion": index, "title": title}
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
