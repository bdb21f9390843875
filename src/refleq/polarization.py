"""Consistency of half-space choices for torus weights on wall-fixed loci.

The instances built here encode the following finite combinatorial problem.
Fixed points are pairs (s, t) with s, t in 1..l.  At each point a list of
dual pairs of cohomology summands is present; each pair consists of two
labels C(a, b) with opposite torus weights, and a choice selects one label
per pair (a "polarization" of that summand pair).  Four walls in the torus
Lie algebra impose consistency: on each wall the points group into the
connected components of the corresponding fixed locus, and for the selected
labels the multiset of weight restrictions to the wall (ignoring pairs whose
restriction vanishes) must be the same at every point of a component.

Each pair restricts to +m or -m on a wall for one magnitude m, so a
component is consistent exactly when, for every m, all its points carry the
same number of magnitude-m pairs and select +m the same number of times.
The propagator behind solve and replay_certificate works on those counts
alone, in time linear in the size of the component.

solve decides whether a globally consistent choice exists.  The minus-sign
instances are satisfiable exactly at l = 2; from l = 3 on, the forced chain
of selections around a row/column cycle contradicts itself, and solve emits
that chain as a replayable UNSAT certificate.  The plus-sign instances have
no multi-point components on the axis walls, so every choice works.

Weights live in the two torus coordinates u1, u2 only; label C(a, b) has
weight u_b - u_a with u_{-k} = -u_k, and C(a, b) is identified with
C(-b, -a), so every label is stored in a normal form.
"""

from __future__ import annotations

import re
from collections import namedtuple

SIGNS = ("+", "-")

# selectable label pairs, keyed by what their weights are
PAIR_LABELS = {
    "u1Axis": ("C(1,-1)", "C(-1,1)"),  # weights -2u1 / +2u1
    "u2Axis": ("C(2,-2)", "C(-2,2)"),  # weights -2u2 / +2u2
    "difference": ("C(1,2)", "C(2,1)"),  # weights u2-u1 / u1-u2
    "sum": ("C(1,-2)", "C(-2,1)"),  # weights -u1-u2 / u1+u2
}

PAIR_NAMES = tuple(PAIR_LABELS)

# wall name -> linear functional on a weight (a, b) = a*u1 + b*u2, giving the
# restriction of the weight to the wall
WALL_PHI = {
    "u1EqualsU2": lambda a, b: a + b,
    "u1PlusU2Zero": lambda a, b: a - b,
    "u1Zero": lambda a, b: b,
    "u2Zero": lambda a, b: a,
}

WALL_NAMES = tuple(WALL_PHI)

_LABEL_RE = re.compile(r"^C\((-?[12]),(-?[12])\)$")


def label_weight(label):
    """Weight coefficients (a, b) in (u1, u2) of a summand label."""
    i, j = _parse_label(label)
    return (_coeff(j, 1) - _coeff(i, 1), _coeff(j, 2) - _coeff(i, 2))


def _parse_label(label):
    m = _LABEL_RE.match(label.replace(" ", ""))
    if not m:
        raise ValueError(f"malformed summand label {label!r}")
    return int(m.group(1)), int(m.group(2))


def _coeff(index, k):
    if abs(index) != k:
        return 0
    return 1 if index > 0 else -1


# (i, j) of each selectable label C(i, j) and of its mirror (-j, -i) -> the label
_NORMAL_FORM = {
    ij: label
    for labels in PAIR_LABELS.values()
    for label in labels
    for i, j in [_parse_label(label)]
    for ij in ((i, j), (-j, -i))
}


def normalize_label(label):
    """Normal form under the identification C(a, b) = C(-b, -a)."""
    try:
        return _NORMAL_FORM[_parse_label(label)]
    except KeyError:
        raise ValueError(f"label {label!r} does not belong to any known pair") from None


class PolarizationInstance(namedtuple("PolarizationInstance", "sign l points pairs_at components")):
    """Immutable description of one consistency problem.

    pairs_at maps each point to the names of the pairs present there;
    components maps each wall name to the partition of the points into the
    wall's fixed-locus components (only components with at least two points
    constrain anything, but singletons are kept for completeness).
    """

    __slots__ = ()


def build_instance(sign, l):
    """Instance for the given torus type sign at the fixed value w1 = 2.

    Minus-sign points carry both axis pairs plus the difference pair off the
    diagonal and the sum pair on it; plus-sign points carry only the
    difference or sum pair.  The axis walls u1 = 0 and u2 = 0 have
    column/row components for the minus sign but only isolated points for
    the plus sign, which is what makes the plus instances unconstrained.
    """
    if sign not in SIGNS:
        raise ValueError(f"sign must be one of {SIGNS}, got {sign!r}")
    if l < 2:
        raise ValueError("need l >= 2")
    points = tuple((s, t) for s in range(1, l + 1) for t in range(1, l + 1))
    pairs_at = {}
    for s, t in points:
        face = "sum" if s == t else "difference"
        if sign == "-":
            pairs_at[(s, t)] = ("u1Axis", "u2Axis", face)
        else:
            pairs_at[(s, t)] = (face,)

    def singletons():
        return [(p,) for p in points]

    components = {}
    swap_pairs = [((s, t), (t, s)) for s in range(1, l + 1) for t in range(s + 1, l + 1)]
    components["u1EqualsU2"] = tuple(
        [tuple(sorted(c)) for c in swap_pairs] + [((s, s),) for s in range(1, l + 1)]
    )
    diag = tuple((i, i) for i in range(1, l + 1))
    off_diag = [((s, t),) for (s, t) in points if s != t]
    components["u1PlusU2Zero"] = tuple([diag] + off_diag)
    if sign == "-":
        components["u1Zero"] = tuple(
            tuple((s, t) for s in range(1, l + 1)) for t in range(1, l + 1)
        )
        components["u2Zero"] = tuple(
            tuple((s, t) for t in range(1, l + 1)) for s in range(1, l + 1)
        )
    else:
        components["u1Zero"] = tuple(singletons())
        components["u2Zero"] = tuple(singletons())
    return PolarizationInstance(
        sign=sign, l=l, points=points, pairs_at=pairs_at, components=components
    )


# ---------------------------------------------------------------------------
# choices and the consistency predicate


# wall -> selectable label -> restriction of the label's weight to the wall,
# built once so that the search and the replay never parse a label
_RESTRICTION = {
    wall: {label: phi(*label_weight(label)) for labels in PAIR_LABELS.values() for label in labels}
    for wall, phi in WALL_PHI.items()
}


def _magnitude(wall, name):
    """|restriction| to the wall of either label of the pair."""
    return abs(_RESTRICTION[wall][PAIR_LABELS[name][0]])


def _qualifying_vars(inst, wall, component):
    """(point, pair) slots whose weight restricts nontrivially to the wall."""
    out = []
    for p in component:
        for name in inst.pairs_at[p]:
            if _magnitude(wall, name):
                out.append((p, name))
    return out


def _point_multiset(inst, wall, point, choice):
    restriction = _RESTRICTION[wall]
    values = []
    for name in inst.pairs_at[point]:
        v = restriction[choice[(point, name)]]
        if v != 0:
            values.append(v)
    return sorted(values)


def _validate_choice(inst, choice):
    expected = {(p, name) for p in inst.points for name in inst.pairs_at[p]}
    got = set(choice)
    if got != expected:
        missing = sorted(expected - got)
        extra = sorted(got - expected)
        raise ValueError(
            f"choice must select exactly the present pairs; missing {missing[:3]},"
            f" extra {extra[:3]}"
        )
    normalized = {}
    for (p, name), label in choice.items():
        norm = normalize_label(label)
        if norm not in PAIR_LABELS[name]:
            raise ValueError(f"label {label!r} does not belong to pair {name} at {p}")
        normalized[(p, name)] = norm
    return normalized


def check_choice(inst, choice):
    """Wall-component consistency of a total choice.

    Returns {"ok": bool, "violations": [...]}: every violation names the
    wall, the component and the differing per-point restriction multisets.
    Partial or ill-formed choices are rejected with ValueError.
    """
    choice = _validate_choice(inst, choice)
    violations = []
    for wall in WALL_NAMES:
        for component in inst.components[wall]:
            if len(component) < 2:
                continue
            multisets = {p: _point_multiset(inst, wall, p, choice) for p in component}
            reference = multisets[component[0]]
            if any(m != reference for m in multisets.values()):
                violations.append(
                    {
                        "wall": wall,
                        "component": [list(p) for p in component],
                        "multisets": [
                            {"point": list(p), "values": multisets[p]} for p in component
                        ],
                    }
                )
    return {"ok": not violations, "violations": violations}


def choice_to_json(choice):
    return [
        {"point": list(point), "pair": pair, "selected": label}
        for (point, pair), label in sorted(choice.items())
    ]


# ---------------------------------------------------------------------------
# solving

# solve runs the propagation search: decisions interleaved with generalized
# arc consistency per wall-component, decided by counting +m selections per
# magnitude (_gac); it doubles as the certificate builder for UNSAT
# instances.  The tests compare it against a complete backtracking search
# over the per-point selections (tests/oracles.py).


def _components_with_vars(inst):
    out = []
    for wall in WALL_NAMES:
        for component in inst.components[wall]:
            if len(component) < 2:
                continue
            qvars = _qualifying_vars(inst, wall, component)
            if qvars:
                out.append((wall, component, tuple(qvars)))
    return out


def _gac(wall, component, qvars, fixed):
    """Generalized arc consistency for one wall-component by counting.

    fixed maps some of the qualifying vars to labels.  Returns
    (satisfiable, forced) where forced maps, in qvars order, the free vars
    that take the same label in every satisfying completion to that label.

    Each var restricts to +m or -m for its magnitude m.  For every m, each
    point must carry the same number of magnitude-m vars and select +m the
    same number of times T.  A point with f fixed +m selections and r free
    vars admits T in [f, f + r], so T ranges over [max f, min(f + r)]; an
    empty range is a contradiction.  A free var is forced to +m at a point
    with max f - f = r and to -m at a point with min(f + r) = f.
    """
    restriction = _RESTRICTION[wall]
    counts = {}  # (m, point) -> [vars, fixed +m selections, free vars]
    for p, name in qvars:
        row = counts.setdefault((_magnitude(wall, name), p), [0, 0, 0])
        row[0] += 1
        label = fixed.get((p, name))
        if label is None:
            row[2] += 1
        elif restriction[label] > 0:
            row[1] += 1
    bounds = {}
    for m in {m for m, _ in counts}:
        rows = [counts.get((m, p), (0, 0, 0)) for p in component]
        lo = max(f for _, f, _ in rows)
        hi = min(f + r for _, f, r in rows)
        if lo > hi or len({n for n, _, _ in rows}) > 1:
            return False, {}
        bounds[m] = (lo, hi)
    forced = {}
    for p, name in qvars:
        m = _magnitude(wall, name)
        (_, f, r), (lo, hi) = counts[(m, p)], bounds[m]
        if (p, name) not in fixed and (lo - f == r or hi == f):
            minus, plus = sorted(PAIR_LABELS[name], key=restriction.get)
            forced[(p, name)] = plus if lo - f == r else minus
    return True, forced


class _Contradiction(Exception):
    def __init__(self, wall, component):
        self.wall = wall
        self.component = component


def _propagate(constraints, containing, state, trail, assumed):
    """Run GAC to fixpoint after assumed was fixed, appending forced
    assignments to the trail.  A pass runs a component only if one of its
    vars (containing: var -> positions) was fixed since its last run; the
    state before assumed is a fixpoint and _gac is idempotent, so the trail
    is that of full passes.

    Each trail entry is (var, label, wall, component, reference) with
    reference the earliest same-component var already fixed whose labels pin
    the forced one down (kept for certificate readability; the replayer
    rechecks every step independently).  Raises _Contradiction when some
    component admits no completion.
    """
    order = None  # var -> trail position, built when the first var is forced
    dirty = set(containing.get(assumed, ()))
    while dirty:
        for position, (wall, component, qvars) in enumerate(constraints):
            if position not in dirty:
                continue
            fixed = {v: state[v] for v in qvars if v in state}
            satisfiable, forced = _gac(wall, component, qvars, fixed)
            if not satisfiable:
                raise _Contradiction(wall, component)
            for var, label in forced.items():
                if order is None:
                    order = {entry["var"]: i for i, entry in enumerate(trail)}
                reference = _first_reference(wall, var, fixed, order)
                state[var] = label
                order[var] = len(trail)
                trail.append(
                    {
                        "kind": "forced",
                        "var": var,
                        "label": label,
                        "wall": wall,
                        "component": component,
                        "reference": reference,
                    }
                )
                dirty.update(containing[var])
            dirty.discard(position)


def _first_reference(wall, var, fixed, order):
    magnitude = _magnitude(wall, var[1])
    best = None
    for other, label in fixed.items():
        if _magnitude(wall, other[1]) != magnitude:
            continue
        rank = order[other]
        if best is None or rank < best[0]:
            best = (rank, other, label)
    if best is None:
        return None
    return {"point": list(best[1][0]), "pair": best[1][1], "label": best[2]}


def _all_vars(inst):
    return sorted(
        ((p, name) for p in inst.points for name in inst.pairs_at[p]),
        key=lambda v: (v[1] not in ("sum", "difference"), v[0]),
    )


def _solve_propagation(inst):
    """Depth-first search with GAC after every decision, without recursion.

    One state and one trail are undone on backtracking; the stack holds one
    small frame per decision.  An UNSAT certificate comes from the first
    contradiction met.
    """
    constraints = _components_with_vars(inst)
    containing = {}
    for position, (_, _, qvars) in enumerate(constraints):
        for v in qvars:
            containing.setdefault(v, []).append(position)
    variables = _all_vars(inst)
    state, trail = {}, []
    stack = []  # [index of the decided var, next label to try, trail length before it]
    first_refutation = None
    start = 0
    while True:
        index = start
        while index < len(variables) and variables[index] in state:
            index += 1
        if index == len(variables):
            return {"verdict": "SAT", "witness": dict(state), "certificate": None}
        stack.append([index, 0, len(trail)])
        while stack:
            frame = stack[-1]
            index, k, mark = frame
            while len(trail) > mark:
                del state[trail.pop()["var"]]
            var = variables[index]
            if k == len(PAIR_LABELS[var[1]]):
                stack.pop()
                continue
            frame[1] += 1
            label = PAIR_LABELS[var[1]][k]
            state[var] = label
            trail.append({"kind": "assume", "var": var, "label": label})
            try:
                _propagate(constraints, containing, state, trail, var)
            except _Contradiction as c:
                if first_refutation is None:
                    first_refutation = (list(trail), c)
                continue
            start = index + 1
            break
        else:
            certificate = _certificate_from(inst, *first_refutation)
            return {"verdict": "UNSAT", "witness": None, "certificate": certificate}


def _certificate_from(inst, trail, contradiction):
    """Minimal replayable refutation chain extracted from a propagation trail.

    Keeps only the assignments the contradiction transitively rests on: the
    fixed qualifying vars of the contradicted component, their recorded
    references, and so on back to the assumption.  The closing step records
    the component that admits no completion; a final mirror step notes that
    flipping every selected label refutes the opposite assumption, so both
    branches of the assumption are covered.
    """
    by_var = {entry["var"]: entry for entry in trail}
    qvars = _qualifying_vars(inst, contradiction.wall, contradiction.component)
    needed = set(v for v in qvars if v in by_var)
    frontier = list(needed)
    while frontier:
        var = frontier.pop()
        entry = by_var[var]
        ref = entry.get("reference")
        if ref is not None:
            ref_var = (tuple(ref["point"]), ref["pair"])
            if ref_var not in needed:
                needed.add(ref_var)
                frontier.append(ref_var)
    steps = []
    for entry in trail:
        if entry["var"] not in needed:
            continue
        step = {
            "kind": entry["kind"],
            "point": list(entry["var"][0]),
            "pair": entry["var"][1],
            "selected": entry["label"],
        }
        if entry["kind"] == "forced":
            step["wall"] = entry["wall"]
            step["component"] = [list(p) for p in entry["component"]]
            if entry.get("reference"):
                step["reference"] = entry["reference"]
        steps.append(step)
    steps.append(
        {
            "kind": "contradiction",
            "wall": contradiction.wall,
            "component": [list(p) for p in contradiction.component],
        }
    )
    steps.append(
        {
            "kind": "mirror",
            "note": (
                "flipping every selected label above refutes the opposite "
                "assumption by the same chain"
            ),
        }
    )
    return steps


def solve(inst):
    """Decide whether a consistent choice exists.

    The search is _solve_propagation at every size (reported as
    result["method"]).  SAT results carry a witness that check_choice
    accepts; UNSAT results carry a certificate replay_certificate accepts.
    """
    result = _solve_propagation(inst)
    result["method"] = "propagation"
    if result["witness"] is not None:
        verdict = check_choice(inst, result["witness"])
        assert verdict["ok"], "solver produced an inconsistent witness"
    return result


# ---------------------------------------------------------------------------
# certificate replay


def _is_point(x):
    return isinstance(x, (list, tuple)) and all(type(c) is int for c in x)


def _is_name(x):
    return isinstance(x, str)


# the keys of a choice and of a wall-component, each with the test its value
# passes in the shape the solver writes
_CHOICE_KEYS = {"point": _is_point, "pair": _is_name, "selected": _is_name}
_WALL_KEYS = {"wall": _is_name, "component": lambda x: isinstance(x, (list, tuple)) and all(map(_is_point, x))}
# step kind -> the keys a step of that kind must carry
_STEP_KEYS = {
    "assume": _CHOICE_KEYS,
    "forced": _CHOICE_KEYS | _WALL_KEYS,
    "contradiction": _WALL_KEYS,
    "mirror": {},
}


def _well_formed(step):
    """Whether step is a dict with every key its kind needs, each passing its test."""
    kind = step.get("kind") if isinstance(step, dict) else None
    needed = _STEP_KEYS.get(kind) if isinstance(kind, str) else None
    return needed is not None and all(key in step and test(step[key]) for key, test in needed.items())


def replay_certificate(inst, certificate):
    """Independent check of an UNSAT certificate.

    Walks the chain twice, once as recorded and once with every selected
    label flipped to its pair partner (covering the mirrored assumption).
    Each forced step must be genuinely forced: the opposite label, together
    with the selections made so far, must leave the step's wall-component
    without any satisfying completion.  The final step must exhibit a
    component with no completion at all.  Both are decided by _gac on the
    named component alone.  A step of an unknown kind, one that lacks a key
    its kind needs or holds a value of the wrong shape (_well_formed), and
    one that selects a label outside its pair fail.
    Returns True only if every step verifies in both passes.
    """
    constraints_index = {
        (wall, component): tuple(qvars)
        for wall, component, qvars in _components_with_vars(inst)
    }

    def partner(name, label):
        a, b = PAIR_LABELS[name]
        return b if label == a else a

    def run(flip):
        state = {}
        saw_contradiction = False
        for step in certificate:
            kind = step["kind"]
            if kind == "mirror":
                continue
            if kind in ("forced", "contradiction"):
                wall = step["wall"]
                component = tuple(tuple(p) for p in step["component"])
                qvars = constraints_index.get((wall, component))
                if qvars is None:
                    return False
                fixed = {v: state[v] for v in qvars if v in state}
            if kind == "contradiction":
                if _gac(wall, component, qvars, fixed)[0]:
                    return False
                saw_contradiction = True
                continue
            var = (tuple(step["point"]), step["pair"])
            label = step["selected"]
            if var[1] not in inst.pairs_at.get(var[0], ()) or label not in PAIR_LABELS[var[1]]:
                return False
            if flip:
                label = partner(var[1], label)
            if kind == "forced":
                fixed[var] = partner(var[1], label)
                if _gac(wall, component, qvars, fixed)[0]:
                    return False
            state[var] = label
        return saw_contradiction

    return all(map(_well_formed, certificate)) and run(flip=False) and run(flip=True)


def solve_table(l_values=(2, 3, 4, 5, 6)):
    """(sign, l, verdict) rows for both signs over a range of sizes."""
    rows = []
    for sign in SIGNS:
        for l in l_values:
            res = solve(build_instance(sign, l))
            rows.append({"sign": sign, "l": l, "verdict": res["verdict"]})
    return rows
