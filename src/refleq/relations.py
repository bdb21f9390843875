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
hands them to _prove.  Both provers read each factor through one clearing,
kept on the operator a placement places (matrix._clearing, matrix._clear):
a common multiple D of its entry denominators, as a content and a
denominator map, and each distinct entry times D as a polynomial, with its
degrees, rows and height.  The symbolic mode (matrix.verify_identity)
multiplies the polynomial matrices and compares lhs * prod(D_rhs) with rhs
* prod(D_lhs), with the part the two share divided out (matrix._scales);
it never evaluates at a point, and it reduces only the entry that a failing
verdict prints.  The multipoint mode never forms the products:
_verify_product_identity, the one multipoint engine, bounds the same
scaled difference's degree in every variable of the factors by the cleared
entries' degrees plus the scale's (the bound may be 0), and its
coefficients by the clearing's row heights.  It evaluates that polynomial,
not the factors, at one integer point, the Kronecker point of those bounds,
from the cleared entries and scales (_kronecker_value), so a pole is no
concern, and compares the two sides exactly in integers.  At that point a
polynomial within the bounds is the integer whose digits are its
coefficients, so agreement there is a proof, not a sample.  Both provers
multiply only one row per orbit of the label permutations that every factor
commutes with (matrix._orbit_representatives): Yang's R commutes with g (x)
g, the cross factors with the permutations that keep their signs; a placed
factor is tested on its operator.  Agreement on those rows is agreement
everywhere, and a failing proof reads its counterexample, the least
differing entry, off them with no pass over the other rows.  Both provers
check the factor labels the same way (matrix._label_mismatch).  check_ybe
and check_reflection expose the mode; the tests run both provers on the
factor lists of the other checks.
"""

from __future__ import annotations

import functools
import math
import operator

from . import field
from .field import NVARS, U, U1, U2, U3, U4, VAR_INDEX, VARS, _format_mono
from .matrix import (
    LabeledMatrix,
    _clearing,
    _label_mismatch,
    _label_to_json,
    _orbit_representatives,
    _Rows,
    _scales,
    embed_on_slots,
    first_difference,
    swap_conjugate,
    verify_identity,
)
from .rkmat import (
    KINDS,
    constant_term_matrix,
    cross_r,
    cross_r_flipped,
    k_matrix,
    k_matrix_opposite_placement,
    monodromy_t,
    s_matrix,
    sigma_matrix,
    sigma_sigma_r,
    sigma_sigma_r_flipped,
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


def _prove(lhs, rhs, mode="symbolic"):
    """Prove that the products of two ordered factor lists agree.

    Symbolic mode hands the lists to the fraction-free product comparison
    (matrix.verify_identity); multipoint mode hands them to the proof at one
    Kronecker point (_verify_product_identity).
    """
    if mode == "symbolic":
        return verify_identity(lhs, rhs)
    if mode == "multipoint":
        return _verify_product_identity(lhs, rhs)
    raise ValueError(f"unknown mode {mode!r}")


def _verdict(identity, l, cmp, **extra):
    return {"identity": identity, "l": l, **cmp, **extra}


# ---------------------------------------------------------------------------
# multipoint product verification


def _kronecker_value(p, shifts):
    """The Poly p at a Kronecker point, where the variable at index i of
    VARS is 2^shifts[i] (1 at shift 0): each term c * prod u^e is c shifted
    left by sum e_i shifts[i], so no power is taken."""
    return sum(c << sum(map(operator.mul, e, shifts)) for e, c in p.terms.items())


def _product_rows(factors, rows, index, cleared):
    """The given rows of the product of the cleared factors, {row: {col:
    int}} with no zero entry and no empty row.  Each row is carried left to
    right through the factors and reads only the factor rows it reaches;
    index is _Rows and cleared the factors' cleared entry values, {id(entry):
    int}, both keyed by id(factor)."""
    out = {}
    for i in rows:
        acc = {i: 1}
        for mat in factors:
            mat_rows, values = index[id(mat)], cleared[id(mat)]
            nxt = {}
            for k, a in acc.items():
                for j, eid in mat_rows[k]:
                    c = values[eid]
                    if c:
                        nxt[j] = nxt.get(j, 0) + a * c
            acc = {j: x for j, x in nxt.items() if x}
        if acc:
            out[i] = acc
    return out


def _digit(x, shift, width):
    """The digit at bit shift (a multiple of width) of x written in balanced
    base 2^width, every digit below 2^(width - 1) in absolute value: those
    digits are unique, and the lower ones sum to the residue of x mod
    2^shift of least absolute value."""
    half = 1 << shift >> 1
    low = ((x + half) & ((1 << shift) - 1)) - half
    top = 1 << width - 1
    return ((((x - low) >> shift) + top) & ((1 << width) - 1)) - top


def _verify_product_identity(lhs_factors, rhs_factors):
    """Proof at one integer point that two ordered matrix products agree,
    factor by factor.

    The labels are checked as in the symbolic prover (matrix._label_mismatch).
    Each factor f is read through the clearing the symbolic prover keeps on
    its operator (matrix._clearing): f * D_f is a polynomial matrix, so
    each side's product P of them is one.  With the two sides' scales of
    the symbolic prover (matrix._scales), s_lhs = (rc // g) prod(rden - G)
    and s_rhs = (lc // g) prod(lden - G), P_lhs s_lhs - P_rhs s_rhs is the
    cleared difference (lhs - rhs) prod(D_lhs) prod(D_rhs) / G.  An entry of
    P s is a sum of products of one cleared entry per factor and the scale,
    so its degree in a variable is at most the sum over the side's factors
    of their cleared entries' largest degree in it plus the scale's; d_v,
    the larger of the two sides' sums, bounds both terms and their
    difference.  Every variable of the factors has a bound, and it may be
    0.  ||.||_1 is submultiplicative, so the infinity norm it induces on
    matrices is too, and no coefficient of either term exceeds H = sum over
    the sides of ||s||_1 prod height_f, each factor's largest row sum of
    ||v * D_f||_1.  With K = bit_length(H) + 2, every coefficient of either
    term and of their difference is below 2^(K - 1) in absolute value, so a
    polynomial's value at the Kronecker point u_v = 2^(K s_v), s_v = prod
    (d_w + 1) over the variables w before v, holds its coefficients as
    balanced base-2^K digits, one per monomial (von zur Gathen and Gerhard,
    Modern Computer Algebra, 3rd ed., 8.4): the difference vanishes exactly
    when its value there does.  Both terms are evaluated there in integers,
    from the cleared entries and the scales (_kronecker_value), so a
    factor's pole is no concern.  When every factor entry is homogeneous of
    degree zero, the difference is homogeneous, so h = 1 is a faithful
    slice and h leaves the point.

    Only one row per orbit of the label symmetry every factor has is
    multiplied (matrix._orbit_representatives, which gives the soundness
    argument): the least entry in which the two terms differ lies in a
    representative row.  It is the counterexample, with the least monomial
    (later variables dominating, as in the point) whose two coefficients
    differ, and those coefficients, read off the digits.
    """
    mismatch = _label_mismatch(lhs_factors, rhs_factors, "multipoint")
    if mismatch:
        return mismatch
    factors = {id(mat): mat for mat in (*lhs_factors, *rhs_factors)}
    cleared = {key: _clearing(mat) for key, mat in factors.items()}
    sides = (lhs_factors, rhs_factors)
    _, scales = _scales(*([cleared[id(mat)] for mat in side] for side in sides))
    # per side, each variable's degree: its factors' cleared entries' and
    # its scale's (a nonzero Poly's degree per variable is a column maximum)
    degrees = (
        map(sum, zip(*(cleared[id(mat)].degrees for mat in side), map(max, zip(*scale.terms))))
        for side, scale in zip(sides, scales)
    )
    variables = frozenset().union(*(x.variables for x in cleared.values()))
    bounds = {v: max(a, b) for v, a, b in zip(VARS, *degrees) if v in variables}
    drop_h = "h" in bounds and all(x.homogeneous for x in cleared.values())
    if drop_h:
        del bounds["h"]
    index = {key: _Rows(mat, cleared[key].rows) for key, mat in factors.items()}
    reps = _orbit_representatives(list(factors.values()))
    height = sum(
        sum(map(abs, scale.terms.values())) * math.prod(cleared[id(mat)].height for mat in side)
        for side, scale in zip(sides, scales)
    )
    width = height.bit_length() + 2
    shifts, size = [0] * NVARS, 1
    for v, d in bounds.items():
        shifts[VAR_INDEX[v]] = width * size
        size *= d + 1
    # placements of one operator share its clearing, whose entries are
    # each evaluated once
    distinct = {id(x): x for x in cleared.values()}
    values = {k: {key: _kronecker_value(p, shifts) for key, p in x.entries.items()} for k, x in distinct.items()}
    at = {key: values[id(x)] for key, x in cleared.items()}
    lhs, rhs = (
        _scaled(_product_rows(side, reps, index, at), _kronecker_value(scale, shifts))
        for side, scale in zip(sides, scales)
    )
    slice_note = " on the h = 1 slice (degree-zero homogeneous factors)" if drop_h else ""
    where = f"the Kronecker point (K = {width}, {width * size} bits, bounds {bounds}){slice_note}"
    if lhs == rhs:
        return {"holds": True, "mode": "multipoint", "detail": f"cleared sides agree at {where}", "gridSize": 1,
                "degreeBounds": bounds}
    flat = ({(r, c): v for r, row in rows.items() for c, v in row.items()} for rows in (lhs, rhs))
    i, j = first_difference(*flat)
    x, y = lhs.get(i, {}).get(j, 0), rhs.get(i, {}).get(j, 0)
    # the lowest digit of x - y is the first in which x and y differ
    shift = ((x - y) & (y - x)).bit_length() - 1
    shift -= shift % width
    position, exps = shift // width, dict.fromkeys(VARS, 0)
    for v, d in bounds.items():
        position, exps[v] = divmod(position, d + 1)
    return {
        "holds": False,
        "mode": "multipoint",
        "detail": f"cleared sides differ at {where}",
        "gridSize": 1,
        "degreeBounds": bounds,
        "counterexample": {
            "row": _label_to_json(lhs_factors[0].row_labels[i]),
            "col": _label_to_json(lhs_factors[-1].col_labels[j]),
            "monomial": _format_mono(tuple(exps.values())) or "1",
            "lhs": str(_digit(x, shift, width)),
            "rhs": str(_digit(y, shift, width)),
        },
    }


def _scaled(rows, s):
    """rows times the integer s, a scale's value at the Kronecker point.  A
    scale is a nonzero polynomial within the bounds, and below the height
    when its side has a row, so s is not 0 there."""
    return rows if s == 1 else {i: {j: v * s for j, v in row.items()} for i, row in rows.items()}


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
    cmp = _prove([r12, r13, r23], [r23, r13, r12], mode)
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
    _slots(l, 2)
    d = U1 - U2
    fwd = builder(l, d)
    bwd = builder(l, -d)
    ident = LabeledMatrix.identity(fwd.row_labels)
    cmp = _prove([fwd, bwd], [ident])
    if cmp["holds"]:
        flip = _prove([swap_conjugate(fwd)], [fwd])
        if not flip["holds"]:
            cmp = {**flip, "detail": "product is the identity but the family is not flip-symmetric"}
    return _verdict("rUnitarity", l, cmp, family=family, kind=kind)


def check_k_unitarity(kind, l):
    """Boundary unitarity K(-u) K(u) = 1 for the scenario's one-site matrix."""
    _slots(l, 1)
    fwd = k_matrix(kind, l, U)
    bwd = k_matrix(kind, l, -U)
    ident = LabeledMatrix.identity(fwd.row_labels)
    cmp = _prove([bwd, fwd], [ident])
    return _verdict("kUnitarity", l, cmp, kind=kind)


# ---------------------------------------------------------------------------
# reflection


def _reflection_factors(kind, l, boundary="standard", n=0):
    """The two sides of the reflection identity as ordered factor lists.

    With n chain sites (slots 2..n+1, shifts u3, u4) each boundary factor is
    the dressed operator rkmat.s_matrix on its auxiliary slot and the chain;
    at n = 0 it is the scenario's matrix on its auxiliary slot.  The R
    factors act on the two auxiliary slots 0 and 1.
    """
    boundary_k = make_scenario(kind, l, boundary=boundary)
    shifts = _chain_shifts(n, (U3, U4))
    slots = _slots(l, 2 + n)
    chain = tuple(range(2, 2 + n))
    dressed = lambda w: s_matrix(kind, l, w, shifts) if n else boundary_k(w)
    k1 = embed_on_slots(dressed(U1), (0,) + chain, slots)
    k2 = embed_on_slots(dressed(U2), (1,) + chain, slots)
    on_aux = lambda m: embed_on_slots(m, (0, 1), slots)
    x = U1 + U2
    d = U1 - U2
    lhs = [k2, on_aux(cross_r_flipped(kind, l, x)), k1, on_aux(yang_r(l, d))]
    rhs = [on_aux(sigma_sigma_r_flipped(kind, l, d)), k1, on_aux(cross_r(kind, l, x)), k2]
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
    rule out.  Both modes hand the factor lists to a prover (_prove):
    symbolic mode multiplies polynomial matrices, and multipoint mode
    evaluates the cleared factors at one Kronecker point and never forms a
    product of polynomials.
    """
    cmp = _prove(*_reflection_factors(kind, l, boundary=boundary), mode)
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
        t1, t2, r = twisted(0, -u), plain(1, v), cross_r_flipped(kind, l, -u - v)
    else:
        t1, t2, r = twisted(0, -u), twisted(1, -v), sigma_sigma_r(kind, l, v - u)
    r = embed_on_slots(r, (0, 1), slots)
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
    cmp = _prove(*_exchange_factors(l, n, variant, kind))
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
    c21 = embed_on_slots(cross_r_flipped(kind, l, u + v), (0, 1), slots)
    c21_inv = embed_on_slots(cross_r_flipped(kind, l, -u - v), (0, 1), slots)
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
    inter, bridge_a, bridge_b = (_prove(lhs, rhs) for lhs, rhs in _derivation_factors(l, n, kind))
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
    cmp = _prove(*_reflection_factors(kind, l, n=n))
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
    cmp = _prove(*_factorization_factors(kind, l, n))
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
    cmp = _prove(*_constant_term_factors(kind, l, n))
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
