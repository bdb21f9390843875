"""Reference implementations the tests hold the library to.

The library never calls these.

  parse_ratfunc, parse_poly   the exact inverse of field.format_ratfunc and
                              field.format_poly, for writing test values as
                              the strings the library prints
  exponents, exponent_terms   a packed monomial, and a Poly's terms, read
                              back as exponent tuples off field's layout
  entry                       one entry of a LabeledMatrix by its labels
  _solve_exhaustive           complete backtracking over the per-point
                              selections of a polarization instance, the
                              oracle for polarization.solve
  kron                        the Kronecker product of two LabeledMatrix
                              values, the reference for matrix.embed_on_slots
  embed_by_tuples             a placement built label tuple by label tuple,
                              the reference for matrix.embed_on_slots
  embed_eagerly               a placement's entry map built at once by index
                              arithmetic, in the order a placement builds it
                              on its first read, the reference for
                              matrix._placed_entries
  full_size_orbit_representatives
                              the symmetry search on every factor at full
                              size, by the library's candidates
                              (transpositions, then block swaps) and orbits
                              by closure, the reference for
                              matrix._orbit_representatives
  brute_force_orbit_representatives
                              every permutation of the sites tested on every
                              factor at full size, orbits by closure: the
                              whole label symmetry, the reference for the
                              group that matrix._orbit_representatives finds
  site_permuted, least_of_orbits
                              a site map's permutation of a label tuple, and
                              the least index of each orbit of the group that
                              index permutations generate, for the two above
                              and for the reference of matrix._walk
  swap_matrix                 the flip P on pair labels, the reference for
                              an operator placed on reversed slots and
                              rkmat.yang_r
  linear_combination          the entrywise sum of scaled LabeledMatrix
                              values, for writing such references as formulas
  fold_and_compare            two factor lists multiplied out entry by entry
                              in canonical form and compared, the reference
                              for matrix.verify_identity
  d_degree_bounds             the degree bounds of a cleared difference by
                              the D-degree formula over matrix._clear's
                              denominator maps, the reference for the
                              cleared-degree bounds of
                              matrix._multipoint_proof
  multipoint_statistics       the degrees, variables, homogeneity and height
                              of one factor's entries cleared by its D and
                              expanded as tuple-keyed polynomials, the
                              reference for matrix._bounds
  full_row_grid_proof         the grid proof with every row of both products
                              multiplied at every point of the grid of
                              d_degree_bounds, the reference for the holds
                              and degreeBounds of
                              matrix._multipoint_proof
  polynomial_counterexample   a failing multipoint counterexample read off
                              the cleared sides expanded as polynomials, the
                              replay of those that
                              matrix._multipoint_proof prints
  charge_pair_counts_by_nodes condition_met called at every node against
                              every other row, the reference for
                              tableaux.charge_pair_counts
  dim_h1_pair                 the deformation dimension of one ordered row
                              pair, read through the tableau's accessors
  tangent_dimension_by_pairs  dim_h1_pair summed over the ordered row pairs,
                              the reference for tableaux.tangent_dimension
  flag_points_by_filter       every flag fixed point built over
                              itertools.product and kept when its content
                              is v, the reference for
                              tableaux.flag_fixed_points
  reflect_root                a simple reflection on simple-root coordinates,
                              the reference for dynkin.longest_word
  positive_roots_by_closure   the closure of the simple roots under every
                              simple reflection, negative roots included, cut
                              to the positive half: the reference for
                              dynkin.positive_roots
  reflect_step_generic        U_j - q^eps [a_ij] U_i at every vertex j, with
                              the Cartan entries read off the edge set on
                              every call, the reference for kclass.reflect_step
"""

import collections
import functools
import itertools
import math
import operator

from refleq.dynkin import adjacency, cartan_matrix
from refleq.field import (
    EXP_MASK,
    EXP_SHIFT,
    NVARS,
    VAR_INDEX,
    VARS,
    Poly,
    RatFunc,
    format_poly,
    format_ratfunc,
    poly_div_exact,
)
from refleq.kclass import GenericityError, QLaurent, q_integer
from refleq.matrix import LabeledMatrix, _clear, _label_mismatch, _label_to_json, first_difference
from refleq.polarization import PAIR_LABELS, WALL_NAMES, _point_multiset
from refleq.tableaux import FlagTableau, _fold_pairs, condition_met

# ---------------------------------------------------------------------------
# monomials


def exponents(m):
    """The exponent tuple, in VARS order, of the packed monomial m, read
    off its exponent fields."""
    return tuple(m >> s & EXP_MASK for s in EXP_SHIFT)


def exponent_terms(p):
    """The terms of the Poly p keyed by exponent tuples, the keys the Poly
    constructor takes."""
    return {exponents(m): c for m, c in p.terms.items()}


# ---------------------------------------------------------------------------
# parsing


class _ParseError(ValueError):
    pass


def parse_ratfunc(s):
    """Parse the canonical string form back into a RatFunc."""
    s = s.strip()
    depth = 0
    split = None
    i = 0
    while i < len(s):
        ch = s[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and s.startswith(" / ", i):
            split = i
            break
        i += 1
    if split is None:
        return RatFunc(parse_poly(s))
    return RatFunc(parse_poly(s[:split]), parse_poly(s[split + 3:]))


def parse_poly(s):
    """Parse a polynomial string (terms joined by ' + ' / ' - ')."""
    s = s.strip()
    if s.startswith("(") and s.endswith(")") and _balanced_interior(s):
        s = s[1:-1].strip()
    if not s:
        raise _ParseError("empty polynomial string")
    out = Poly()
    for sign, term in _split_terms(s):
        out = out + _parse_term(term).scale(sign)
    return out


def _balanced_interior(s):
    depth = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0 and i != len(s) - 1:
                return False
    return depth == 0


def _split_terms(s):
    terms = []
    sign = 1
    if s.startswith("-"):
        sign = -1
        s = s[1:]
    cur = []
    i = 0
    while i < len(s):
        if s.startswith(" + ", i):
            terms.append((sign, "".join(cur)))
            sign, cur, i = 1, [], i + 3
        elif s.startswith(" - ", i):
            terms.append((sign, "".join(cur)))
            sign, cur, i = -1, [], i + 3
        else:
            cur.append(s[i])
            i += 1
    terms.append((sign, "".join(cur)))
    return terms


def _parse_term(t):
    t = t.strip()
    if not t:
        raise _ParseError("empty term")
    coeff = 1
    exps = [0] * NVARS
    for factor in t.split("*"):
        factor = factor.strip()
        if not factor:
            raise _ParseError(f"bad term {t!r}")
        if factor[0].isdigit():
            # a Poly is over Z: its printed form never holds a fraction
            coeff *= int(factor)
            continue
        if "^" in factor:
            name, _, p = factor.partition("^")
            power = int(p)
        else:
            name, power = factor, 1
        if name not in VAR_INDEX:
            raise _ParseError(f"unknown variable {name!r}")
        exps[VAR_INDEX[name]] += power
    return Poly({tuple(exps): coeff})


# ---------------------------------------------------------------------------
# polarization


def _solve_exhaustive(inst):
    """Complete backtracking over whole points with component pruning.

    The complete reference the tests compare solve against.  Returns the
    first consistent choice found, or None.
    """
    order = list(inst.points)
    # precompute, per point, the multi-point components it belongs to
    memberships = {p: [] for p in order}
    for wall in WALL_NAMES:
        for component in inst.components[wall]:
            if len(component) < 2:
                continue
            for p in component:
                memberships[p].append((wall, component))
    position = {p: i for i, p in enumerate(order)}
    choice = {}

    def point_ok(idx):
        p = order[idx]
        for wall, component in memberships[p]:
            mine = _point_multiset(inst, wall, p, choice)
            for q in component:
                if position[q] < idx:
                    if _point_multiset(inst, wall, q, choice) != mine:
                        return False
                    break  # earlier points of the component already agree
        return True

    def dfs(idx):
        if idx == len(order):
            return True
        p = order[idx]
        names = inst.pairs_at[p]
        for combo in itertools.product(*(PAIR_LABELS[n] for n in names)):
            for name, label in zip(names, combo):
                choice[(p, name)] = label
            if point_ok(idx) and dfs(idx + 1):
                return True
        for name in names:
            choice.pop((p, name), None)
        return False

    if dfs(0):
        return dict(choice)
    return None


# ---------------------------------------------------------------------------
# matrices


def entry(m, row_label, col_label):
    """The entry of m at (row_label, col_label); zero when none is stored."""
    return m.entries.get((m.row_labels.index(row_label), m.col_labels.index(col_label)), RatFunc.zero())


def edited(m, changes):
    """A new matrix equal to m except at the index pairs of changes, which
    hold the given values."""
    entries = {**m.entries, **changes}
    return LabeledMatrix(
        m.row_labels, m.col_labels, {(m.row_labels[i], m.col_labels[j]): v for (i, j), v in entries.items()}
    )


def kron(a, b):
    """a (x) b, with row and column labels the pairs of a's and b's labels."""
    rows = [(x, y) for x in a.row_labels for y in b.row_labels]
    cols = [(x, y) for x in a.col_labels for y in b.col_labels]
    entries = {
        ((a.row_labels[i1], b.row_labels[i2]), (a.col_labels[j1], b.col_labels[j2])): v1 * v2
        for (i1, j1), v1 in a.entries.items()
        for (i2, j2), v2 in b.entries.items()
    }
    return LabeledMatrix(rows, cols, entries)


def embed_by_tuples(mat, positions, slot_labels):
    """mat extended by identity from its positions to every slot, each
    entry keyed by looking up its full row and column label tuples."""
    n = len(slot_labels)
    full_rows = [tuple(t) for t in itertools.product(*slot_labels)]
    entries = {}
    others = [i for i in range(n) if i not in positions]
    other_choices = list(itertools.product(*(slot_labels[i] for i in others)))
    for (si, sj), v in mat.entries.items():
        r_sub, c_sub = mat.row_labels[si], mat.col_labels[sj]
        r_parts = r_sub if isinstance(r_sub, tuple) else (r_sub,)
        c_parts = c_sub if isinstance(c_sub, tuple) else (c_sub,)
        for rest in other_choices:
            full_r = [None] * n
            full_c = [None] * n
            for p, x in zip(positions, r_parts):
                full_r[p] = x
            for p, x in zip(positions, c_parts):
                full_c[p] = x
            for o, x in zip(others, rest):
                full_r[o] = x
                full_c[o] = x
            entries[tuple(full_r), tuple(full_c)] = v
    return LabeledMatrix(full_rows, full_rows, entries)


def embed_eagerly(mat, positions, slot_labels):
    """The entries of mat placed on positions of the slots, as {(row
    index, col index): value}: each entry of mat, in mat's order, at its
    parts' offsets plus each offset of the other slots, in increasing
    order.  An offset is a slot's label index times the slot's stride, the
    product of the later slots' sizes."""
    sizes = [len(slot) for slot in slot_labels]
    strides = [math.prod(sizes[k + 1:]) for k in range(len(sizes))]
    on = [{x: i * strides[p] for i, x in enumerate(slot_labels[p])} for p in positions]

    def offset(lab):
        parts = lab if isinstance(lab, tuple) else (lab,)
        return sum(slot[x] for slot, x in zip(on, parts))

    rest = [0]
    for o, slot in enumerate(slot_labels):
        if o not in positions:
            rest = [r + i * strides[o] for r in rest for i in range(len(slot))]
    entries = {}
    for (i, j), v in mat.entries.items():
        r, c = offset(mat.row_labels[i]), offset(mat.col_labels[j])
        for o in rest:
            entries[r + o, c + o] = v
    return entries


def site_permuted(labels, image):
    """The index of each label's image under the site map image, a dict
    {site: its image} applied in every part (a bare label is one part) and
    fixing every site it does not hold, or None when an image is no label."""
    parts = [lab if isinstance(lab, tuple) else (lab,) for lab in labels]
    index = {p: i for i, p in enumerate(parts)}
    perm = [index.get(tuple(image.get(x, x) for x in p)) for p in parts]
    return None if None in perm else perm


def least_of_orbits(size, perms):
    """The least index of each orbit of the group that the index
    permutations perms generate on range(size), in increasing order: the
    orbits are the components of i ~ perm[i] over the generators, joined by
    union-find with the lesser root kept."""
    root = list(range(size))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for perm in perms:
        for i, j in enumerate(perm):
            ri, rj = find(i), find(j)
            if ri != rj:
                root[max(ri, rj)] = min(ri, rj)
    return sorted({find(i) for i in range(size)})


def _full_size_search(factors):
    """The row labels, their sites, and a test that records an accepted
    site map: holds(image) is whether every distinct factor, at full size,
    holds an equal entry at the image of every stored entry under the
    site map, with every label mapped to a label; None for the labels when
    some factor's labels differ from the first factor's row labels."""
    labels = factors[0].row_labels
    if any(m.row_labels != labels or m.col_labels != labels for m in factors):
        return None, None, None, None
    entries = [m.entries for m in {id(m): m for m in factors}.values()]
    sites = list(dict.fromkeys(x for lab in labels for x in (lab if isinstance(lab, tuple) else (lab,))))
    accepted = []

    def holds(image):
        perm = site_permuted(labels, image)
        if perm is None or not all(ent.get((perm[i], perm[j])) == v for ent in entries for (i, j), v in ent.items()):
            return False
        accepted.append(perm)
        return True

    return labels, sites, holds, accepted


def full_size_orbit_representatives(factors):
    """The least row index of each orbit of the group that the candidates
    of the library's search generate, each tested on every label and on
    every stored entry of every distinct factor at full size: the
    transpositions of two sites, each pair not yet joined, and then the
    swaps of two blocks (the sites those join) of one size above 1, each
    site of one taken to the site at the same place in the other, each pair
    of blocks not yet joined; orbits by closure (least_of_orbits).  Every
    row index when some factor's labels differ from the first factor's row
    labels."""
    labels, sites, holds, accepted = _full_size_search(factors)
    if labels is None:
        return list(range(len(factors[0].row_labels)))
    root = list(range(len(sites)))

    def find(k):
        while root[k] != k:
            k = root[k]
        return k

    for a, b in itertools.combinations(range(len(sites)), 2):
        if find(a) != find(b) and holds({sites[a]: sites[b], sites[b]: sites[a]}):
            root[find(b)] = find(a)
    blocks = collections.defaultdict(list)
    for k, x in enumerate(sites):
        blocks[find(k)].append(x)
    blocks = list(blocks.values())
    root = list(range(len(blocks)))
    for a, b in itertools.combinations(range(len(blocks)), 2):
        if len(blocks[a]) == len(blocks[b]) > 1 and find(a) != find(b):
            if holds({**dict(zip(blocks[a], blocks[b])), **dict(zip(blocks[b], blocks[a]))}):
                root[find(b)] = find(a)
    return least_of_orbits(len(labels), accepted)


def brute_force_orbit_representatives(factors):
    """The least row index of each orbit of the whole group of site
    permutations that every factor commutes with: every permutation of the
    sites tested on every label and every stored entry of every distinct
    factor at full size, and the orbits by closure (least_of_orbits).  Every
    row index when some factor's labels differ from the first factor's row
    labels."""
    labels, sites, holds, accepted = _full_size_search(factors)
    if labels is None:
        return list(range(len(factors[0].row_labels)))
    for image in itertools.permutations(sites):
        holds(dict(zip(sites, image)))
    return least_of_orbits(len(labels), accepted)


def swap_matrix(labels_a, labels_b):
    """The flip P: a (x) b -> b (x) a as a LabeledMatrix on pair labels."""
    rows = [(b, a) for b in labels_b for a in labels_a]
    cols = [(a, b) for a in labels_a for b in labels_b]
    one = RatFunc.one()
    return LabeledMatrix(rows, cols, {((b, a), (a, b)): one for a in labels_a for b in labels_b})


def linear_combination(*terms):
    """The sum of c * m over (c, m) terms, all on the same labels; c is an
    int or a RatFunc."""
    first = terms[0][1]
    out = {}
    for c, m in terms:
        if (m.row_labels, m.col_labels) != (first.row_labels, first.col_labels):
            raise ValueError("label mismatch in a linear combination")
        c = RatFunc.const(c) if isinstance(c, int) else c
        for (i, j), v in m.entries.items():
            key = m.row_labels[i], m.col_labels[j]
            out[key] = out.get(key, RatFunc.zero()) + c * v
    return LabeledMatrix(first.row_labels, first.col_labels, out)


def fold_and_compare(lhs_factors, rhs_factors):
    """matrix.verify_identity's verdict by the canonical route: each list is
    multiplied out from the left with LabeledMatrix.__mul__, which reduces
    every entry of every partial product, and the products are compared entry
    by entry; the counterexample is at the least differing key."""
    lhs, rhs = (functools.reduce(operator.mul, factors) for factors in (lhs_factors, rhs_factors))
    if lhs.row_labels != rhs.row_labels or lhs.col_labels != rhs.col_labels:
        return {"holds": False, "mode": "symbolic", "detail": "label mismatch between the two sides"}
    if lhs.entries == rhs.entries:
        return {"holds": True, "mode": "symbolic", "detail": "entrywise canonical equality"}
    i, j = min(k for k in lhs.entries.keys() | rhs.entries.keys() if lhs.entries.get(k) != rhs.entries.get(k))
    zero = RatFunc.zero()
    return {
        "holds": False,
        "mode": "symbolic",
        "detail": f"first mismatch at row {lhs.row_labels[i]!r}, col {lhs.col_labels[j]!r}",
        "counterexample": {
            "row": _label_to_json(lhs.row_labels[i]),
            "col": _label_to_json(lhs.col_labels[j]),
            "lhs": format_ratfunc(lhs.entries.get((i, j), zero)),
            "rhs": format_ratfunc(rhs.entries.get((i, j), zero)),
        },
    }


def _expand(c, den):
    """The Poly c * prod p^e over the Counter den."""
    out = Poly.const(c)
    for p, e in den.items():
        out = out * p ** e
    return out


def _cleared_polys(mat, d):
    """mat times the polynomial d, a multiple of every entry denominator:
    {(row, col): Poly}, each entry cleared on its own by exact division."""
    return {k: poly_div_exact(d, v.den) * v.num for k, v in mat.entries.items()}


def _matmul_rows(a, b):
    out = {}
    for i, arow in a.items():
        acc = {}
        for k, av in arow.items():
            for j, bv in b.get(k, {}).items():
                acc[j] = acc.get(j, 0) + av * bv
        row = {j: v for j, v in acc.items() if v}
        if row:
            out[i] = row
    return out


def _product_at_point(factors, cleared, scale, assignment):
    """scale times the product of the cleared factors at an integer point,
    as {row: {col: nonzero int}}; cleared maps id(factor) to _cleared_polys."""
    s = scale.subs(assignment)
    rows = None
    for mat in factors:
        cur = {}
        for (i, j), p in cleared[id(mat)].items():
            x = p.subs(assignment)
            if x:
                cur.setdefault(i, {})[j] = x
        rows = cur if rows is None else _matmul_rows(rows, cur)
    return {i: {j: v * s for j, v in row.items()} for i, row in rows.items()} if s else {}


def _point_str(assignment):
    return "{" + ", ".join(f"{k}={v}" for k, v in sorted(assignment.items())) + "}"


def _map_degree(den):
    """The degree of prod p^e over the Counter den in each variable, in
    VARS order."""
    degree = [0] * NVARS
    for p, e in den.items():
        degree = [d + e * max(x[i] for x in exponent_terms(p)) for i, d in enumerate(degree)]
    return degree


def _maps(factors):
    """{id(factor): (c, den)}, each distinct factor's content and
    denominator map as matrix._clear reads them, read afresh on the factor
    itself (a placement at full size)."""
    return {id(mat): _clear(mat)[:2] for mat in factors}


def _side_maps(sides, maps):
    """Each side's content and map: the product of its factors' contents
    and the sum of their maps."""
    return [
        (math.prod(maps[id(mat)][0] for mat in side), sum((maps[id(mat)][1] for mat in side), collections.Counter()))
        for side in sides
    ]


def d_degree_bounds(lhs_factors, rhs_factors):
    """The per-variable degree bound of the cleared difference (lhs - rhs)
    prod(D_lhs) prod(D_rhs) / G by the D-degree formula, over the maps of
    matrix._clear.  Per side, ln sums over its factors each one's bound on
    the degree of an entry times its D, the largest deg v.num - deg v.den of
    an entry plus deg D (at least 0), and ld sums deg D.  A path term of a
    side's product over prod(D_lhs) prod(D_rhs) has degree at most ln + rd
    (or rn + ld), and G = lden & rden divides both, so the bound is max(ln +
    rd, rn + ld) - deg G.  Every variable where max(ln + rd, rn + ld) is not
    0 is kept, h included, and no other."""
    maps = _maps([*lhs_factors, *rhs_factors])
    sums = []
    for side in (lhs_factors, rhs_factors):
        num, deg = [0] * NVARS, [0] * NVARS
        for mat in side:
            d = _map_degree(maps[id(mat)][1])
            excess = [
                max((v.num.degree(name) - v.den.degree(name) for v in mat.entries.values()), default=0)
                for name in VARS
            ]
            num = [n + max(0, x + e) for n, x, e in zip(num, d, excess)]
            deg = [a + b for a, b in zip(deg, d)]
        sums.append((num, deg))
    (ln, ld), (rn, rd) = sums
    (_, lden), (_, rden) = _side_maps((lhs_factors, rhs_factors), maps)
    cut = _map_degree(lden & rden)
    return {v: b - cut[i] for i, v in enumerate(VARS) if (b := max(ln[i] + rd[i], rn[i] + ld[i]))}


def _homogeneous(mat):
    """Whether every entry of mat is homogeneous of degree zero jointly in
    all variables."""
    return all(
        len(d := {sum(e) for e in exponent_terms(v.den)}) == 1 and {sum(e) for e in exponent_terms(v.num)} == d
        for v in mat.entries.values()
    )


def multipoint_statistics(mat, c, den):
    """(degrees, variables, homogeneous, height) of mat cleared by D = c *
    prod den (_cleared_polys): per variable in VARS order, the largest
    degree of a cleared entry; the variables of those entries and of the
    keys of den; whether every entry of mat is homogeneous of degree zero
    (_homogeneous); and the largest row sum of the cleared entries' sums of
    absolute coefficients."""
    cleared = _cleared_polys(mat, _expand(c, den))
    exps = [e for p in cleared.values() for e in exponent_terms(p)]
    degrees = tuple(max([e[i] for e in exps], default=0) for i in range(NVARS))
    variables = frozenset(
        v for i, v in enumerate(VARS) if degrees[i] or any(e[i] for p in den for e in exponent_terms(p))
    )
    sums = collections.Counter()
    for (i, _), p in cleared.items():
        sums[i] += sum(abs(x) for x in p.terms.values())
    return degrees, variables, _homogeneous(mat), max(sums.values(), default=0)


def _cleared_sides(lhs_factors, rhs_factors):
    """Each factor f cleared by D_f = c_f * prod den_f (matrix._clear's
    map) entry by entry, as (D_f / v.den) * v.num, keyed by id(f)
    (_cleared_polys), and the two sides' scales: each the other side's D
    product over the part the two share, expanded as one Poly."""
    factors = {id(mat): mat for mat in (*lhs_factors, *rhs_factors)}
    maps = _maps(factors.values())
    cleared = {key: _cleared_polys(mat, _expand(*maps[key])) for key, mat in factors.items()}
    (lc, lden), (rc, rden) = _side_maps((lhs_factors, rhs_factors), maps)
    g, shared = math.gcd(lc, rc), lden & rden
    return cleared, (_expand(rc // g, rden - shared), _expand(lc // g, lden - shared))


def full_row_grid_proof(lhs_factors, rhs_factors):
    """The grid proof of two factor lists, with both products multiplied in
    full at every grid point, the reference for the holds and degreeBounds
    of matrix._multipoint_proof: the same label checks, the
    bounds of d_degree_bounds with h left out when every factor entry is
    homogeneous of degree zero, and the grid {0, ..., bound} per variable
    (h = 1 when it leaves the bounds); each factor cleared and each side
    scaled as in _cleared_sides; every row of every integer product; and
    the counterexample at the least differing entry of the first point
    where the scaled products differ.  A polynomial of degree at most d_v in each
    variable that vanishes on a product of d_v + 1 values per variable is
    zero (Alon, Combin. Probab. Comput. 8 (1999), Lemma 2.1), so agreement
    on the whole grid is a proof."""
    mismatch = _label_mismatch(lhs_factors, rhs_factors, "multipoint")
    if mismatch:
        return mismatch
    bounds = d_degree_bounds(lhs_factors, rhs_factors)
    drop_h = "h" in bounds and all(map(_homogeneous, (*lhs_factors, *rhs_factors)))
    if drop_h:
        del bounds["h"]
    cleared, (lhs_scale, rhs_scale) = _cleared_sides(lhs_factors, rhs_factors)
    n_points = 0
    for combo in itertools.product(*(range(b + 1) for b in bounds.values())):
        assignment = dict(zip(bounds, combo))
        assignment.setdefault("h", 1)
        n_points += 1
        lhs = _product_at_point(lhs_factors, cleared, lhs_scale, assignment)
        rhs = _product_at_point(rhs_factors, cleared, rhs_scale, assignment)
        if lhs != rhs:
            flat = [{(r, c): v for r, row in side.items() for c, v in row.items()} for side in (lhs, rhs)]
            i, j = first_difference(*flat)
            return {
                "holds": False,
                "mode": "multipoint",
                "detail": f"product mismatch at grid point {_point_str(assignment)}",
                "gridSize": n_points,
                "degreeBounds": bounds,
                "counterexample": {
                    "row": _label_to_json(lhs_factors[0].row_labels[i]),
                    "col": _label_to_json(lhs_factors[-1].col_labels[j]),
                    "lhs": str(lhs.get(i, {}).get(j, 0)),
                    "rhs": str(rhs.get(i, {}).get(j, 0)),
                    "point": _point_str(assignment),
                },
            }
    slice_note = " on the h = 1 slice (degree-zero homogeneous factors)" if drop_h else ""
    return {
        "holds": True,
        "mode": "multipoint",
        "detail": f"products agree on the full grid ({n_points} points, bounds {bounds}){slice_note}",
        "gridSize": n_points,
        "degreeBounds": bounds,
    }


def _at_h1(p):
    """p with h = 1."""
    out = {}
    for e, c in exponent_terms(p).items():
        key = (0, *e[1:])
        out[key] = out.get(key, 0) + c
    return Poly(out)


def polynomial_counterexample(lhs_factors, rhs_factors, verdict):
    """A failing multipoint verdict's counterexample, recomputed in its row
    from the two cleared sides expanded as polynomials (_cleared_sides),
    with h = 1 when the verdict's bounds leave h out: the least column where
    they differ and, in that entry, the least monomial whose two
    coefficients differ, later variables dominating, with both
    coefficients."""
    cleared, scales = _cleared_sides(lhs_factors, rhs_factors)
    row = verdict["counterexample"]["row"]
    i = [_label_to_json(lab) for lab in lhs_factors[0].row_labels].index(row)
    sides = []
    for factors, scale in zip((lhs_factors, rhs_factors), scales):
        acc = {i: scale}
        for mat in factors:
            nxt = {}
            for (r, c), p in cleared[id(mat)].items():
                if r in acc:
                    nxt[c] = nxt.get(c, Poly()) + acc[r] * p
            acc = nxt
        if "h" not in verdict["degreeBounds"]:
            acc = {c: _at_h1(p) for c, p in acc.items()}
        sides.append(acc)
    lhs, rhs = sides
    j = min(c for c in lhs.keys() | rhs.keys() if lhs.get(c, Poly()) != rhs.get(c, Poly()))
    a, b = (exponent_terms(side.get(j, Poly())) for side in (lhs, rhs))
    e = min((e for e in a.keys() | b.keys() if a.get(e) != b.get(e)), key=lambda e: e[::-1])
    return {
        "row": row,
        "col": _label_to_json(lhs_factors[-1].col_labels[j]),
        "monomial": format_poly(Poly({e: 1})),
        "lhs": str(a.get(e, 0)),
        "rhs": str(b.get(e, 0)),
    }


# ---------------------------------------------------------------------------
# tableau statistics


def _row_indices(t):
    return [k for k, _ in t.rows]


def charge_pair_counts_by_nodes(t):
    """(A, B): condition_met at every node (k, a) against every row l != k,
    split by l == -k vs l != -k."""
    a_diag = 0
    b_off = 0
    for k in _row_indices(t):
        for a in range(1, len(t.row(k)) + 1):
            for l_row in _row_indices(t):
                if l_row == k:
                    continue
                if condition_met(t, k, l_row, a):
                    if l_row == -k:
                        a_diag += 1
                    else:
                        b_off += 1
    return a_diag, b_off


def dim_h1_pair(t, k, l_row):
    """Deformation-space dimension for the ordered row pair (k, l_row).

    Depends only on whether k and l_row have the same sign and whether the
    two positive-row entries coincide.
    """
    same_entry = t.positive_entry(k) == t.positive_entry(l_row)
    if k * l_row > 0:
        return 0 if same_entry else 1
    return 1 if same_entry else 0


def tangent_dimension_by_pairs(t, kind):
    """dim_h1_pair over the ordered row pairs: (k, -k) in full for sp and
    not at all for so, every other pair half."""
    idx = _row_indices(t)
    diag = 0
    off = 0
    for k in idx:
        for l_row in idx:
            if l_row == k:
                continue
            d = dim_h1_pair(t, k, l_row)
            if l_row == -k:
                diag += d
            else:
                off += d
    return _fold_pairs(diag, off, kind)


def flag_points_by_filter(l, w, v=None):
    """The flag fixed points of content v (all when v is None), in the
    itertools.product order of their positive-row entries; the caller has
    checked that the sign, w and v are compatible."""
    m = w // 2
    points = []
    for choice in itertools.product(range(1, l + 1), repeat=m):
        entries = {}
        for k in range(1, m + 1):
            entries[k] = choice[k - 1]
            entries[-k] = l + 1 - choice[k - 1]
        if w % 2:
            entries[0] = (l + 1) // 2
        tab = FlagTableau(l, w, tuple(sorted(entries.items())))
        if v is None or tab.content() == tuple(v):
            points.append(tab)
    return points


# ---------------------------------------------------------------------------
# Weyl group


def reflect_root(t, beta, i):
    """s_i acting on simple-root coordinates (1-based vertex i)."""
    cartan = cartan_matrix(t)
    pairing = sum(beta[j] * cartan[i - 1][j] for j in range(t.rank))
    new = list(beta)
    new[i - 1] -= pairing
    return tuple(new)


def positive_roots_by_closure(t):
    """The positive roots as a sorted tuple: every root is reached from the
    simple roots by simple reflections, the negative half is then dropped."""
    simple = [tuple(1 if j == i else 0 for j in t.vertices) for i in t.vertices]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        beta = frontier.pop()
        for i in t.vertices:
            new = reflect_root(t, beta, i)
            if new not in seen:
                seen.add(new)
                frontier.append(new)
    return tuple(sorted(r for r in seen if all(x >= 0 for x in r)))


# ---------------------------------------------------------------------------
# K-classes


def _minus_times(a, b, c):
    """a - b * c for K-class expressions a, b and a q-Laurent polynomial c,
    as a sum of b's shifts by c's terms."""
    for k, n in c.coeffs.items():
        a = a + b.shifted(k, -n)
    return a


def reflect_step_generic(t, exprs, i, zeta):
    """One reflection at vertex i, row by row through the Cartan matrix.

    Every U_j becomes U_j - q^eps [a_ij] U_i and every zeta_j becomes
    zeta_j - a_ij zeta_i, with eps = +1 when zeta_i < 0 and -1 when
    zeta_i > 0.  The entries a_ij come from adjacency(t) on every call.
    """
    edges = adjacency(t)

    def a(j):
        return 2 if j == i else (-1 if frozenset((i, j)) in edges else 0)

    zi = zeta[i - 1]
    if zi == 0:
        raise GenericityError(f"chamber wall: zeta_{i} = 0")
    qe = QLaurent.q_power(1 if zi < 0 else -1)
    new_exprs = {j: _minus_times(exprs[j], exprs[i], qe * q_integer(a(j))) for j in t.vertices}
    new_zeta = tuple(zeta[j - 1] - a(j) * zi for j in t.vertices)
    return new_exprs, new_zeta
