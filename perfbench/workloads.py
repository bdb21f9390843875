"""The benchmark's three workloads as seeded lists of checks.

A check is one call into the library's public functions plus a verifier
that compares its output with an independent reference (references.py).
Each workload is a closed loop: one client, one check at a time, in an
order shuffled by the seed.  The verifiers run after the timed pass.

  symbolic-chain  gcd-normalized symbolic products (field + matrix): the
                  exchange, chain-reflection and dressed-boundary checks and
                  the symbolic reflection grid.  The seed also assigns the
                  four kinds to the four n = 2 exchange variants.
  grid-proof      integer-grid evaluation with degree bounds: multipoint
                  Yang-Baxter (relations engine) and multipoint reflection
                  (matrix.verify_identity engine).
  combinatorics   polarization, tableaux, kclass, dynkin and acceptance,
                  with no rational-function arithmetic at all.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import references as ref

WORKLOADS = ("symbolic-chain", "grid-proof", "combinatorics")

KINDS = ("spInstanton", "soInstanton", "flagPlus", "flagMinus")
EXCHANGE_VARIANTS = ("plainPlain", "plainTwisted", "twistedPlain", "twistedTwisted")

DYNKIN_TYPES = tuple(f"A{n}" for n in range(1, 9)) + tuple(f"D{n}" for n in range(4, 9)) + ("E6",)


@dataclass(frozen=True)
class Check:
    id: str
    run: Callable[[], object]
    verify: Callable[[object], str | None]


def _expect_holds(expected, mode):
    def verify(v):
        if v["holds"] is not expected:
            return f"holds={v['holds']}, expected {expected}"
        if v["mode"] != mode:
            return f"mode={v['mode']}, expected {mode}"
        return None

    return verify


def _symbolic_chain(rng):
    from refleq import relations as rel

    n2_kinds = rng.sample(KINDS, len(KINDS))
    checks = []
    for kind in KINDS:
        for variant in EXCHANGE_VARIANTS:
            checks.append(Check(
                f"exchange/{kind}/{variant}/n1",
                lambda k=kind, v=variant: rel.check_monodromy_exchange(2, 1, v, kind=k),
                _expect_holds(True, "symbolic"),
            ))
    for variant, kind in zip(EXCHANGE_VARIANTS, n2_kinds):
        checks.append(Check(
            f"exchange/{kind}/{variant}/n2",
            lambda k=kind, v=variant: rel.check_monodromy_exchange(2, 2, v, kind=k),
            _expect_holds(True, "symbolic"),
        ))
    for kind in ("soInstanton", "flagPlus"):
        checks.append(Check(
            f"chainReflection/{kind}/l2",
            lambda k=kind: rel.check_chain_reflection(k, 2, n=1),
            _expect_holds(ref.reflection_holds(kind, 2), "symbolic"),
        ))
    for kind in KINDS:
        for l in (2, 3):
            checks.append(Check(
                f"boundaryFactorization/{kind}/l{l}",
                lambda k=kind, ll=l: rel.check_boundary_factorization(k, ll, n=1),
                _expect_holds(True, "symbolic"),
            ))
            checks.append(Check(
                f"boundaryConstantTerm/{kind}/l{l}",
                lambda k=kind, ll=l: rel.check_boundary_constant_term(k, ll, n=1),
                _expect_holds(True, "symbolic"),
            ))
    for kind, sizes in ref.PINNED_REFLECTION.items():
        for l in sizes:
            if l <= 4:
                checks.append(Check(
                    f"reflection/{kind}/l{l}/symbolic",
                    lambda k=kind, ll=l: rel.check_reflection(k, ll, mode="symbolic"),
                    _expect_holds(ref.reflection_holds(kind, l), "symbolic"),
                ))
    for l in (2, 3):
        checks.append(Check(
            f"reflection/flagMinus/l{l}/symbolic/oppositePlacement",
            lambda ll=l: rel.check_reflection("flagMinus", ll, boundary="oppositePlacement"),
            _expect_holds(ref.reflection_holds("flagMinus", l, "oppositePlacement"), "symbolic"),
        ))
    return checks


def _grid_proof(rng):
    from refleq import relations as rel

    checks = []
    for l in (5, 6):
        checks.append(Check(
            f"ybe/l{l}/multipoint",
            lambda ll=l: rel.check_ybe(ll, mode="multipoint"),
            _expect_holds(True, "multipoint"),
        ))
    for kind, sizes in (("flagPlus", (2, 3)), ("soInstanton", (2, 3)), ("flagMinus", (2,))):
        for l in sizes:
            checks.append(Check(
                f"reflection/{kind}/l{l}/multipoint",
                lambda k=kind, ll=l: rel.check_reflection(k, ll, mode="multipoint"),
                _expect_holds(ref.reflection_holds(kind, l), "multipoint"),
            ))
    checks.append(Check(
        "reflection/flagMinus/l2/multipoint/oppositePlacement",
        lambda: rel.check_reflection("flagMinus", 2, mode="multipoint", boundary="oppositePlacement"),
        _expect_holds(False, "multipoint"),
    ))
    return checks


def _polarization_check(sign, l):
    from refleq import polarization as pol

    def run():
        inst = pol.build_instance(sign, l)
        res = pol.solve(inst)
        if res["verdict"] == "SAT":
            accepted = pol.check_choice(inst, res["witness"])["ok"]
        else:
            accepted = pol.replay_certificate(inst, res["certificate"])
        return res["verdict"], accepted

    def verify(out):
        verdict, accepted = out
        expected = ref.polarization_verdict(sign, l)
        if verdict != expected:
            return f"verdict {verdict}, expected {expected}"
        if not accepted:
            return "witness or certificate rejected"
        return None

    return Check(f"polarization/{sign}/l{l}", run, verify)


def _betti_check(kind, l, w1):
    from refleq import tableaux as tab

    def verify(rep):
        if rep["count"] != l**w1:
            return f"count {rep['count']} != {l**w1}"
        if rep["dimension"] != ref.tangent_dimension(kind, w1):
            return f"dimension {rep['dimension']} != {ref.tangent_dimension(kind, w1)}"
        if ref.parse_tpoly(rep["poincare"]) != ref.poincare(kind, l, w1):
            return f"poincare {rep['poincare']} disagrees with the q-multinomial form"
        return None

    return Check(f"betti/{kind}/l{l}/w{w1}", lambda: tab.betti_report(kind, l, w1), verify)


def _so_component_check(l, w1):
    from refleq import tableaux as tab

    def verify(rep):
        if rep["count"] != l**w1:
            return f"count {rep['count']} != {l**w1}"
        zero = ref.poincare("so", l, w1).get(0, 0)
        if rep["zeroChargeCount"] != zero:
            return f"zero-charge count {rep['zeroChargeCount']} != {zero}"
        if l == 2 and rep.get("parityComponents") != [2 ** (w1 - 1)] * 2:
            return f"parity components {rep.get('parityComponents')}"
        return None

    return Check(f"soComponents/l{l}/w{w1}", lambda: tab.so_component_report(l, w1), verify)


def _flag_check(sign, l, w, v=None):
    from refleq import tableaux as tab

    def verify(out):
        points, diagnostics = out
        if diagnostics:
            return f"diagnostics {diagnostics}"
        expected = ref.flag_count(l, w, v)
        if len(points) != expected:
            return f"{len(points)} points, expected {expected}"
        return None

    suffix = "" if v is None else "/v" + "".join(map(str, v))
    return Check(f"flags/{sign}/l{l}/w{w}{suffix}", lambda: tab.flag_fixed_points(sign, l, w, v=v), verify)


def _dynkin_checks(name):
    from refleq import dynkin, kclass

    family, rank = name[0], int(name[1:])
    coxeter = ref.coxeter_number(family, rank)
    involution = ref.diagram_involution(family, rank)

    def verify_info(info):
        cartan = info["cartan"]
        off = [cartan[i][j] for i in range(rank) for j in range(rank) if i != j]
        if any(cartan[i][i] != 2 for i in range(rank)) or not set(off) <= {0, -1}:
            return "Cartan matrix is not simply laced"
        if off.count(-1) != 2 * (rank - 1):
            return "Dynkin diagram is not a tree"
        if info["coxeter"] != coxeter:
            return f"coxeter {info['coxeter']} != {coxeter}"
        if info["longestWordLength"] != ref.positive_root_count(family, rank):
            return f"longest word length {info['longestWordLength']}"
        if info["invast"] != {str(i): j for i, j in involution.items()}:
            return f"invast {info['invast']}"
        return None

    def verify_transform(summary):
        for j in range(1, rank + 1):
            image, coeff = summary[j]
            if image != involution[j] or coeff.coeffs != {coxeter: -1}:
                return f"U_{j} -> ({image}, {coeff})"
        return None

    t = dynkin.DynkinType.parse(name)
    return [
        Check(f"dynkin/{name}/info", lambda: dynkin.info_dict(t), verify_info),
        Check(f"kclass/{name}/longestTransform", lambda: kclass.longest_transform_summary(t), verify_transform),
    ]


def _criterion_check(index):
    from refleq import acceptance

    def verify(rep):
        return None if rep["ok"] else f"criterion failed: {rep['detail']}"

    return Check(f"acceptance/criterion{index:02d}", lambda: acceptance.run_criterion(index), verify)


def _combinatorics(rng):
    checks = [_polarization_check(sign, l) for sign in ("+", "-") for l in range(2, 8)]
    checks += [_betti_check("sp", 5, 5), _betti_check("so", 4, 5)]
    checks += [_so_component_check(4, 5), _so_component_check(2, 5)]
    checks += [_flag_check("minus", l, 4) for l in range(2, 8)]
    checks += [_flag_check("plus", l, 5) for l in (3, 5, 7)]
    checks += [_flag_check("plus", 5, 1), _flag_check("minus", 5, 8, v=(4, 4, 4, 4))]
    checks += [_flag_check("minus", 5, 2, v=v) for v in ((1, 1, 1, 1), (2, 1, 1, 0))]
    for name in DYNKIN_TYPES:
        checks += _dynkin_checks(name)
    checks += [_criterion_check(i) for i in (1, 2, 3, 4, 5, 11)]
    return checks


_BUILDERS = {"symbolic-chain": _symbolic_chain, "grid-proof": _grid_proof, "combinatorics": _combinatorics}


def checks(workload, seed, pass_index=0):
    """The workload's checks for a seed, in the order the seed gives that pass.

    The inputs depend on the seed alone; each pass of a run shuffles them in
    its own order, so a run's medians average over the order-dependent state
    of the library's caches.
    """
    items = _BUILDERS[workload](random.Random(f"{workload}/{seed}"))
    random.Random(f"{workload}/{seed}/{pass_index}").shuffle(items)
    return items
