"""Verification of the exchange identities between the R- and K-matrices.

Seven families of identities are checked here, all as exact statements about
matrices over the rational-function field:

  * the quantum Yang-Baxter identity for a two-site R-matrix family,
  * unitarity, both for R-families (R(w) R(-w) = 1) and for the one-site
    boundary matrices (K(-u) K(u) = 1),
  * the boundary reflection identity tying a scenario's boundary matrix to
    its plain and twisted two-site R-matrices,
  * the exchange relations between auxiliary-space monodromies over a finite
    chain (plain/plain through twisted/twisted),
  * the chain-level reflection identity satisfied by the dressed boundary
    operator built in rkmat.s_matrix,
  * the factorization of that operator, S(u) = T_tw(-u)^-1 K(u) T(u),
    proved as T_tw(-u) S(u) = K(u) T(u) so that no matrix is inverted,
  * the boundary constant term: S(u) tends to the scenario's involution on
    the auxiliary slot as u grows.

Every check returns a plain-dict verdict with at least the keys "identity",
"l", "holds", "mode" and "detail"; failing checks also carry a
"counterexample" with the first mismatching entry and both values (in
multipoint mode, a monomial and its two coefficients).  Verdicts
are JSON-serializable so the CLI can emit them unchanged.

Each check states its identity as two ordered factor lists, lhs and rhs, and
hands them to matrix.verify_identity with a mode: "symbolic" multiplies the
cleared polynomial matrices, "multipoint" evaluates them at one Kronecker
point, and both are proofs.  check_ybe and check_reflection expose the mode;
the tests run both provers on the factor lists of the other checks.
"""

from __future__ import annotations

import functools
import operator

from . import field
from .field import U, U1, U2, U3, U4
from .matrix import LabeledMatrix, embed_on_slots, verify_identity
from .rkmat import (
    KINDS,
    constant_term_matrix,
    cross_r,
    k_matrix,
    k_matrix_opposite_placement,
    monodromy_t,
    s_matrix,
    sigma_matrix,
    sigma_sigma_r,
    site_labels,
    twisted_monodromy,
    yang_r,
)

# bound by name for the benchmark's tracer, which wraps it here; nothing in
# this module calls it
poly_gcd = field.poly_gcd

EXCHANGE_VARIANTS = ("plainPlain", "plainTwisted", "twistedPlain", "twistedTwisted")

BOUNDARY_VARIANTS = ("standard", "oppositePlacement")

# the one size rule: a site has at least 2 states, and the total tensor
# dimension of any single check, in either mode, is at most DIMENSION_BOUND; a
# check outside it is rejected before it builds a factor
DIMENSION_BOUND = 256


def _slots(l, count):
    """The label sequences of `count` tensor slots of dimension l, held to the size rule."""
    if l < 2:
        raise ValueError(f"l={l}: a site needs at least 2 states")
    dim = l ** count
    if dim > DIMENSION_BOUND:
        raise ValueError(f"tensor dimension {dim} > {DIMENSION_BOUND}, the bound on any single check")
    return [site_labels(l)] * count


def _chain_shifts(n, shifts):
    """The spectral shifts of n chain sites, one per site from shifts."""
    if not 0 <= n <= len(shifts):
        raise ValueError(f"chain length n={n} is outside the supported range 0..{len(shifts)}")
    return shifts[:n]


# ---------------------------------------------------------------------------
# scenarios and verdicts


def _require_kind(kind):
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")


def make_scenario(kind, l, boundary="standard"):
    """The boundary matrix builder u -> K(u) of a valid kind and boundary variant."""
    _require_kind(kind)
    if boundary not in BOUNDARY_VARIANTS:
        raise ValueError(f"unknown boundary variant {boundary!r}")
    if boundary == "oppositePlacement":
        if kind != "flagMinus":
            raise ValueError("oppositePlacement only applies to flagMinus")
        return lambda spec: k_matrix_opposite_placement(l, spec)
    return lambda spec: k_matrix(kind, l, spec)


def _fold(factors):
    return functools.reduce(operator.mul, factors)


def _verdict(identity, l, cmp, **extra):
    return {"identity": identity, "l": l, **cmp, **extra}


# ---------------------------------------------------------------------------
# Yang-Baxter and unitarity


def check_ybe(l, mode="symbolic"):
    """Yang-Baxter identity R12 R13 R23 = R23 R13 R12 for the chain R-matrix.

    Both modes build the factors on the slice u3 = 0, with arguments
    (u1 - u2, u1, u2) for (u1 - u2, u1 - u3, u2 - u3).  Every argument is a
    difference, so the identity depends on u1, u2, u3 only through
    x = u1 - u3 and y = u2 - u3, which are independent; the slice renames
    x, y to u1, u2 and is a bijective reparametrization of the identity, not
    a specialization.
    """
    slots = _slots(l, 3)
    r12 = embed_on_slots(yang_r(l, U1 - U2), (0, 1), slots)
    r13 = embed_on_slots(yang_r(l, U1), (0, 2), slots)
    r23 = embed_on_slots(yang_r(l, U2), (1, 2), slots)
    cmp = verify_identity([r12, r13, r23], [r23, r13, r12], mode)
    return _verdict("yangBaxter", l, cmp, family="chain")


def check_r_unitarity(l, kind=None):
    """R(w) R(-w) = 1 and flip symmetry for the chain R, or for kind's cross R.

    Flip symmetry (conjugation by the tensor swap leaves R unchanged) is what
    lets the order-flipped matrix R21 be identified with R itself, so it is
    asserted as part of the same verdict.
    """
    if kind is None:
        family, builder = "chain", yang_r
    else:
        family, builder = "cross", lambda ll, w: cross_r(kind, ll, w)
    slots = _slots(l, 2)
    d = U1 - U2
    fwd = builder(l, d)
    bwd = builder(l, -d)
    ident = LabeledMatrix.identity(fwd.row_labels)
    cmp = verify_identity([fwd, bwd], [ident])
    if cmp["holds"]:
        # fwd on the slots in the other order is P * fwd * P
        flip = verify_identity([embed_on_slots(fwd, (1, 0), slots)], [fwd])
        if not flip["holds"]:
            cmp = {**flip, "detail": "product is the identity but the family is not flip-symmetric"}
    return _verdict("rUnitarity", l, cmp, family=family, kind=kind)


def check_k_unitarity(kind, l):
    """Boundary unitarity K(-u) K(u) = 1 for the scenario's one-site matrix."""
    _slots(l, 1)
    fwd = k_matrix(kind, l, U)
    bwd = k_matrix(kind, l, -U)
    ident = LabeledMatrix.identity(fwd.row_labels)
    cmp = verify_identity([bwd, fwd], [ident])
    return _verdict("kUnitarity", l, cmp, kind=kind)


# ---------------------------------------------------------------------------
# reflection


def _reflection_factors(kind, l, boundary="standard", n=0):
    """The two sides of the reflection identity as ordered factor lists.

    With n chain sites (slots 2..n+1, shifts u3, u4) each boundary factor is
    the dressed operator rkmat.s_matrix on its auxiliary slot and the chain;
    at n = 0 it is the scenario's matrix on its auxiliary slot.  The R
    factors act on the two auxiliary slots 0 and 1, C21 and Y21 as C and Y
    on (1, 0).
    """
    boundary_k = make_scenario(kind, l, boundary=boundary)
    shifts = _chain_shifts(n, (U3, U4))
    slots = _slots(l, 2 + n)
    chain = tuple(range(2, 2 + n))
    dressed = lambda w: s_matrix(kind, l, w, shifts) if n else boundary_k(w)
    k1 = embed_on_slots(dressed(U1), (0,) + chain, slots)
    k2 = embed_on_slots(dressed(U2), (1,) + chain, slots)
    on = lambda m, positions: embed_on_slots(m, positions, slots)
    x = U1 + U2
    d = U1 - U2
    lhs = [k2, on(cross_r(kind, l, x), (1, 0)), k1, on(yang_r(l, d), (0, 1))]
    rhs = [on(sigma_sigma_r(kind, l, d), (1, 0)), k1, on(cross_r(kind, l, x), (0, 1)), k2]
    return lhs, rhs


def reflection_sides(kind, l, boundary="standard"):
    """Build the two sides of the reflection identity without comparing them.

    Exposed separately so invariance tests can evaluate the sides at chosen
    points (for instance h = 0, where both must become the same permutation
    matrix).  Each side is its factor list multiplied from the left.
    """
    lhs, rhs = _reflection_factors(kind, l, boundary=boundary)
    return _fold(lhs), _fold(rhs)


def check_reflection(kind, l, mode="symbolic", boundary="standard"):
    """Two-site reflection identity for a scenario's boundary matrix.

    With K_a the boundary matrix on tensor slot a, C the twisted-factor cross
    R and Y the plain chain R, the identity reads

        K2(u2) C21(u1+u2) K1(u1) Y(u1-u2)
            = Y21(u1-u2) K1(u1) C(u1+u2) K2(u2)

    where the subscript 21 marks conjugation by the tensor swap.  The
    boundary argument selects the standard matrix or, for flagMinus, the
    rejected opposite-placement variant that this identity is expected to
    rule out.  The mode is matrix.verify_identity's.
    """
    cmp = verify_identity(*_reflection_factors(kind, l, boundary=boundary), mode)
    return _verdict("reflection", l, cmp, kind=kind, boundary=boundary)


# the sizes at which the standard reflection identity is pinned to hold, per
# kind; a change of outcome there is a regression.  spInstanton above l = 2
# is deliberately unpinned: the identity fails there for every sign
# convention of the cross matrix, matching the failure of the corresponding
# polarization instances, and the suite reports it without letting it affect
# the exit status.
PINNED_REFLECTION = {
    "spInstanton": (2,),
    "soInstanton": (2, 3),
    "flagPlus": (2, 3, 4, 5),
    "flagMinus": (2, 3, 4),
}


def reflection_expectation(kind, l):
    """Expected outcome of the standard check_reflection: True or None (reported)."""
    return True if l in PINNED_REFLECTION[kind] else None


# ---------------------------------------------------------------------------
# monodromy exchange over a chain


def _chain_monodromies(kind, l, n):
    """Slots 0, 1 (auxiliary) and 2..n+1 (chain), and monodromy builders on them.

    plain(aux, w) and twisted(aux, w) place rkmat.monodromy_t(w) and
    rkmat.twisted_monodromy(-w) on slot aux and the chain, which they couple
    at w - u_k for site k, with u_1, u_2 = U1, U2.
    """
    _require_kind(kind)
    shifts = _chain_shifts(n, (U1, U2))
    slots = _slots(l, 2 + n)
    chain = tuple(range(2, 2 + n))
    plain = lambda aux, w: embed_on_slots(monodromy_t(l, w, shifts), (aux,) + chain, slots)
    twisted = lambda aux, w: embed_on_slots(twisted_monodromy(l, -w, shifts, kind), (aux,) + chain, slots)
    return slots, plain, twisted


def _exchange_factors(l, n, variant, kind):
    """The two sides of one exchange relation as ordered factor lists."""
    if variant not in EXCHANGE_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    slots, plain, twisted = _chain_monodromies(kind, l, n)
    u, v = U, U4
    if variant == "plainPlain":
        t1, t2, r = plain(0, u), plain(1, v), yang_r(l, u - v)
    elif variant == "plainTwisted":
        t1, t2, r = plain(0, u), twisted(1, -v), cross_r(kind, l, u + v)
    elif variant == "twistedPlain":
        t1, t2, r = twisted(0, -u), plain(1, v), cross_r(kind, l, -u - v)
    else:
        t1, t2, r = twisted(0, -u), twisted(1, -v), sigma_sigma_r(kind, l, v - u)
    # twistedPlain's cross R is flipped: C on the auxiliary slots in the other order
    r = embed_on_slots(r, (1, 0) if variant == "twistedPlain" else (0, 1), slots)
    return [r, t1, t2], [t2, t1, r]


def check_monodromy_exchange(l, n, variant, kind="soInstanton"):
    """Exchange relation between two auxiliary monodromies over an n-site chain.

    T_a(w) is the plain monodromy on auxiliary slot a (chain R-matrices), and
    S_a(w) the twisted one (cross R-matrices).  The four variants, with u the
    first and v the second auxiliary parameter, are:

      plainPlain      Y(u-v)  T1(u)  T2(v)  = T2(v)  T1(u)  Y(u-v)
      plainTwisted    C(u+v)  T1(u)  S2(-v) = S2(-v) T1(u)  C(u+v)
      twistedPlain    C(-u-v) S1(-u) T2(v)  = T2(v)  S1(-u) C(-u-v)
      twistedTwisted  Z(v-u)  S1(-u) S2(-v) = S2(-v) S1(-u) Z(v-u)

    where Y is the chain R, C the cross R (flipped when the twisted factor
    sits first) and Z the R-matrix for two twisted factors.
    """
    cmp = verify_identity(*_exchange_factors(l, n, variant, kind))
    return _verdict("monodromyExchange", l, cmp, kind=kind, variant=variant, sites=n)


def _derivation_factors(l, n, kind):
    """The route from plainTwisted to twistedPlain as three (lhs, rhs) pairs.

    First plainTwisted conjugated by the auxiliary swap, with the spectral
    parameters renamed: C21(u+v) T2(v) S1(-u) = S1(-u) T2(v) C21(u+v).
    Moving the cross matrix across by unitarity, that is sandwiching between
    two copies of C21(u+v)^{-1} = C21(-u-v), must turn its rhs into the
    direct lhs and its lhs into the direct rhs, verbatim.
    """
    slots, plain, twisted = _chain_monodromies(kind, l, n)
    u, v = U, U4
    t2 = plain(1, v)
    s1 = twisted(0, -u)
    c21 = embed_on_slots(cross_r(kind, l, u + v), (1, 0), slots)
    c21_inv = embed_on_slots(cross_r(kind, l, -u - v), (1, 0), slots)
    return [
        ([c21, t2, s1], [s1, t2, c21]),
        ([c21_inv, s1, t2, c21, c21_inv], [c21_inv, s1, t2]),
        ([c21_inv, c21, t2, s1, c21_inv], [t2, s1, c21_inv]),
    ]


def check_twisted_plain_derivation(l, n, kind="soInstanton"):
    """Consistency of the two routes to the twistedPlain exchange relation.

    The direct check, cross unitarity and the three identities of the route
    from plainTwisted (_derivation_factors) must all hold.
    """
    direct = check_monodromy_exchange(l, n, "twistedPlain", kind=kind)
    inter, bridge_a, bridge_b = (verify_identity(lhs, rhs) for lhs, rhs in _derivation_factors(l, n, kind))
    unit = check_r_unitarity(l, kind=kind)
    holds = all(res["holds"] for res in (direct, inter, unit, bridge_a, bridge_b))
    detail = (
        f"direct={direct['holds']} swapped-intermediate={inter['holds']} "
        f"cross-unitarity={unit['holds']} "
        f"sandwich={bridge_a['holds'] and bridge_b['holds']}"
    )
    cmp = {"holds": holds, "mode": inter["mode"], "detail": detail}
    return _verdict("twistedPlainDerivation", l, cmp, kind=kind, sites=n)


# ---------------------------------------------------------------------------
# chain-level reflection for the dressed boundary operator


def check_chain_reflection(kind, l, n=1):
    """Reflection identity for the dressed boundary operator on an n-site chain.

    S_a(w) is rkmat.s_matrix acting on auxiliary slot a and the shared chain
    sites; the cross and chain R-matrices act on the two auxiliary slots.
    The identity has the same shape as check_reflection with each K replaced
    by the dressed S.  At n = 0 the dressed operator is the boundary matrix
    itself (s_matrix with no chain sites).
    """
    cmp = verify_identity(*_reflection_factors(kind, l, n=n))
    return _verdict("chainReflection", l, cmp, kind=kind, sites=n)


def _factorization_factors(kind, l, n):
    """The two sides of T_tw(-u) S(u) = K(u) T(u) as ordered factor lists."""
    shifts = _chain_shifts(n, (U1, U2))
    k0 = embed_on_slots(k_matrix(kind, l, U), (0,), _slots(l, 1 + n))
    return [twisted_monodromy(l, U, shifts, kind), s_matrix(kind, l, U, shifts)], [k0, monodromy_t(l, U, shifts)]


def check_boundary_factorization(kind, l, n=1):
    """The dressed boundary operator factors as S(u) = T_tw(-u)^-1 K(u) T(u).

    S(u) is rkmat.s_matrix, the ordered product of the cross factors, the
    boundary matrix K(u) on the auxiliary slot and the monodromy T(u);
    T_tw(-u) is rkmat.twisted_monodromy.  The check proves the product
    identity T_tw(-u) S(u) = K(u) T(u), which needs no inverse.  It is
    equivalent to the factorization: T_tw(-u) is a product of cross factors
    C(-u - u_k), and each is invertible, with inverse C(u + u_k), by the
    cross unitarity that check_r_unitarity proves.  So T_tw(-u) is
    invertible, and multiplying the identity by its inverse on the left
    gives the factorization, and conversely.  At n = 0, T_tw(-u) and T(u)
    are the identity and both sides are K(u).
    """
    cmp = verify_identity(*_factorization_factors(kind, l, n))
    return _verdict("boundaryFactorization", l, cmp, kind=kind, sites=n)


def _constant_term_factors(kind, l, n):
    shifts = _chain_shifts(n, (U1, U2))
    slots = _slots(l, 1 + n)
    limit = constant_term_matrix(s_matrix(kind, l, U, shifts))
    expected = embed_on_slots(sigma_matrix(kind, l), (0,), slots)
    return [limit], [expected]


def check_boundary_constant_term(kind, l, n=1):
    """Large-spectral-parameter limit of the dressed boundary operator.

    The limit must be the scenario's involutive constant matrix on the
    auxiliary slot, extended by the identity over the chain sites.
    """
    cmp = verify_identity(*_constant_term_factors(kind, l, n))
    return _verdict("boundaryConstantTerm", l, cmp, kind=kind, sites=n)


# ---------------------------------------------------------------------------
# suites


SUITE_GROUPS = ("ybe", "unitarity", "reflection", "exchange", "boundary")

# the default suite as (l, group) pairs in run order: every group at l = 2,
# then every group but exchange at l = 3
_DEFAULT_RUNS = [(2, group) for group in SUITE_GROUPS] + [
    (3, group) for group in SUITE_GROUPS if group != "exchange"
]


def suite_item(check, l, expected=True, **keys):
    """A descriptor for run_suite_item: check, its arguments and its pinned outcome."""
    return {"check": check, "l": l, **keys, "expected": expected}


def describe_item(item):
    """An item's check and its arguments, as in "reflection (l=2, kind=flagMinus)"."""
    named = ", ".join(f"{k}={v}" for k, v in item.items() if k not in ("check", "expected"))
    return f"{item['check']} ({named})"


def _group_items(group, l):
    """The descriptors of one suite group at site dimension l."""
    if group == "ybe":
        return [suite_item("yangBaxter", l)]
    if group == "unitarity":
        return (
            [suite_item("rUnitarity", l, family="chain")]
            + [suite_item("rUnitarity", l, family="cross", kind=kind) for kind in KINDS]
            + [suite_item("kUnitarity", l, kind=kind) for kind in KINDS]
        )
    if group == "reflection":
        return [
            suite_item("reflection", l, reflection_expectation(kind, l), kind=kind, boundary="standard")
            for kind in KINDS
        ] + [suite_item("reflection", l, False, kind="flagMinus", boundary="oppositePlacement")]
    items = []
    for kind in KINDS:
        if group == "exchange":
            items += [
                suite_item("monodromyExchange", l, kind=kind, variant=variant, sites=sites)
                for variant in EXCHANGE_VARIANTS
                for sites in (1, 2)
            ]
            items.append(suite_item("twistedPlainDerivation", l, kind=kind, sites=1))
        else:
            items += [
                suite_item("chainReflection", l, reflection_expectation(kind, l), kind=kind, sites=1),
                suite_item("boundaryFactorization", l, kind=kind, sites=1),
                suite_item("boundaryConstantTerm", l, kind=kind, sites=1),
            ]
    return items


def suite_items(suite="all", l=None):
    """Descriptor list for run_suite, in a fixed deterministic order.

    Every descriptor carries the expected outcome: True or False for pinned
    results, None for reported-only experiments that never affect the suite
    verdict.  By default every group runs at l = 2 and every group but
    exchange at l = 3; an explicit l runs every requested group at that size.
    """
    if suite not in ("all",) + SUITE_GROUPS:
        raise ValueError(f"unknown suite {suite!r} (expected one of {('all',) + SUITE_GROUPS})")
    if l is not None and l < 2:
        raise ValueError(f"l={l}: a site needs at least 2 states")
    runs = _DEFAULT_RUNS if l is None else [(l, group) for group in SUITE_GROUPS]
    return [item for size, group in runs if suite in ("all", group) for item in _group_items(group, size)]


# check name -> (slots, call on a suite item).  slots counts the check's
# tensor slots besides its chain sites, so an item's tensor dimension is
# l ** (slots + sites).  The checks are looked up by global name at call time,
# so a wrapper installed on the module is the one that runs.
_SUITE_CHECKS = {
    "yangBaxter": (3, lambda it: check_ybe(it["l"], it.get("mode", "symbolic"))),
    "rUnitarity": (2, lambda it: check_r_unitarity(it["l"], kind=it.get("kind"))),
    "kUnitarity": (1, lambda it: check_k_unitarity(it["kind"], it["l"])),
    "reflection": (2, lambda it: check_reflection(it["kind"], it["l"], boundary=it.get("boundary", "standard"))),
    "monodromyExchange": (2, lambda it: check_monodromy_exchange(it["l"], it["sites"], it["variant"], kind=it["kind"])),
    "twistedPlainDerivation": (2, lambda it: check_twisted_plain_derivation(it["l"], it["sites"], kind=it["kind"])),
    "chainReflection": (2, lambda it: check_chain_reflection(it["kind"], it["l"], n=it["sites"])),
    "boundaryFactorization": (1, lambda it: check_boundary_factorization(it["kind"], it["l"], n=it["sites"])),
    "boundaryConstantTerm": (1, lambda it: check_boundary_constant_term(it["kind"], it["l"], n=it["sites"])),
}


def run_suite_item(item):
    entry = _SUITE_CHECKS.get(item["check"])
    if entry is None:
        raise ValueError(f"unknown check {item['check']!r}")
    v = entry[1](item)
    v["expected"] = item.get("expected")
    return v


def run_suite(suite="all", l=None):
    """Run a verification suite and aggregate the verdicts.

    Every item's tensor dimension is held to DIMENSION_BOUND before the
    first item runs, so an oversized suite is rejected before any work
    starts.  The suite passes when every pinned expectation is met;
    reported-only items (expected None) are included in the output but never
    fail it.
    """
    items = suite_items(suite=suite, l=l)
    for it in items:
        try:
            _slots(it["l"], _SUITE_CHECKS[it["check"]][0] + it.get("sites", 0))
        except ValueError as e:
            raise ValueError(f"{describe_item(it)}: {e}") from None
    verdicts = [run_suite_item(it) for it in items]
    ok = all(v["holds"] == v["expected"] for v in verdicts if v["expected"] is not None)
    return {"suite": suite, "ok": ok, "verdicts": verdicts}
