"""Labeled sparse matrices over the exact rational-function field.

Rows and columns carry label sequences (ints, strings, or tuples over tensor
slots); all operations check label compatibility instead of bare dimensions.
Storage is dict-of-keys on (row_index, col_index) with zeros dropped, since
the big tensor-product matrices in the relation checks are overwhelmingly
sparse, and a matrix is a read-only value (LabeledMatrix).

embed_on_slots places an operator on some tensor slots, extended by the
identity on the others.  A placement is a view: it records the matrix it
places and where (mixed-radix offsets over the slots, on label tuples built
once per slot tuple and shared), and it builds its full-size entry map only
when something reads its entries.  Work that depends only on the entry
values, or on the label symmetry, reads that operator instead of the
placement, and keeps what it read on the operator (_kept): the symmetry
verdicts of the search below, the clearing that both provers read every
factor through (_clearing) and the symbolic prover's packing of it.  Both
provers read a placement's rows through one operator-size view (_Rows).

The product of two LabeledMatrix values reduces every entry to canonical
form; the builders use it.  verify_identity, the symbolic prover, does not:
it takes two ordered factor lists, clears each factor of its denominators
once and carries one row per orbit of the factors' common label symmetry
(_orbit_representatives) through a product of polynomial matrices, so it
never runs Henrici's sum or the trial-division screen, and it reduces only
the entry that a failing verdict prints (see "identity verification" below).
Its verdict is a dict so callers can log what was checked; a failing verdict
carries a "counterexample" with the first mismatching entry in sorted order
and the canonical form of both values.  Multipoint proofs, which never form
a product of polynomials, also work on factor lists, use the same
clearing, scales, orbit reduction and row view, and live in relations
(_verify_product_identity).
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
import types

from .field import NVARS, VARS, ZERO_EXP, Poly, RatFunc, format_ratfunc


def _require_chain(a, b):
    """Raise ValueError unless the product a b is defined: a's columns are b's rows."""
    if a.col_labels != b.row_labels:
        raise ValueError(f"label mismatch in matrix product: {a.col_labels[:3]}... vs {b.row_labels[:3]}...")


def _label_to_json(label):
    if isinstance(label, tuple):
        return [_label_to_json(x) for x in label]
    return label


class LabeledMatrix:
    """A matrix with labeled rows and columns and its nonzero entries.

    LabeledMatrix(row_labels, col_labels, entries) takes entries keyed by
    (row label, col label) pairs, as a mapping or as pairs, and drops the
    zeros; entries maps (row index, col index) to each nonzero RatFunc.

    A LabeledMatrix is a value: entries is a read-only mapping and no field
    can be reassigned or deleted, so a matrix may be shared, as the memoized
    rkmat builders share theirs, and an edit makes a new matrix.  A placement
    (embed_on_slots) records in operator the matrix it places, by reference,
    and in offsets where it places it: (rows, cols, digits), with rows[i] and
    cols[j] the index offsets of the operator's row i and column j, and
    digits the (stride, size) of each slot it acts on.  The operator part of
    a row index r is then the sum of (r // stride % size) * stride, which is
    rows[i] for one operator row i, and the rest of r is the offset of the
    other slots, shared by the row's columns.  Every other matrix holds None
    in both.

    A placement's entries are built at full size on their first read
    (_placed_entries) and kept, as RatFunc.den is.  The readers that build
    them are the canonical product (rkmat.embedded_product and every other
    use of *), ==, inverse, eval_entries and swap_conjugate, verify_identity
    on a side of one factor, and, for a placement of a placement, the
    provers' reads of its operator: the symmetry test and the clearing take
    the inner placement at its own size.  The provers read every
    placement's rows through _Rows, at operator size.

    Three private slots hold what a proof reads of a matrix, each filled on
    first use by _kept and kept for the life of the matrix: _cleared, the
    clearing both provers read it through (_clear); _packed, the symbolic
    prover's rows of it packed per field width (_packed_rows); and
    _symmetry, its verdict per site transposition (_commutes_with).
    """

    __slots__ = ("row_labels", "col_labels", "entries", "operator", "offsets", "_cleared", "_packed", "_symmetry")

    def __new__(cls, row_labels, col_labels, entries=()):
        rows = tuple(row_labels)
        # an iterable is read once, so the same iterable names both sides
        cols = rows if col_labels is row_labels else tuple(col_labels)
        row_index = {lab: i for i, lab in enumerate(rows)}
        col_index = {lab: j for j, lab in enumerate(cols)}
        if len(row_index) != len(rows):
            raise ValueError("duplicate row labels")
        if len(col_index) != len(cols):
            raise ValueError("duplicate column labels")
        return cls._indexed(
            rows, cols, {(row_index[r], col_index[c]): v for (r, c), v in dict(entries).items() if not v.is_zero()}
        )

    @classmethod
    def _indexed(cls, row_labels, col_labels, entries, operator=None, offsets=None):
        """A matrix on label tuples already checked, with entries a dict
        keyed by index pairs that holds no zero and that nothing else
        writes; a placement passes None, and its operator and offsets."""
        m = object.__new__(cls)
        object.__setattr__(m, "row_labels", row_labels)
        object.__setattr__(m, "col_labels", col_labels)
        if entries is not None:
            object.__setattr__(m, "entries", types.MappingProxyType(entries))
        object.__setattr__(m, "operator", operator)
        object.__setattr__(m, "offsets", offsets)
        return m

    def __getattr__(self, name):
        # only a placement's entries are computed here; the private slots
        # are filled by _kept
        if name != "entries":
            raise AttributeError(name)
        entries = types.MappingProxyType(_placed_entries(self))
        object.__setattr__(self, "entries", entries)
        return entries

    def __setattr__(self, name, *value):
        raise AttributeError(f"LabeledMatrix is read-only: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    @staticmethod
    def identity(labels):
        labels = tuple(labels)
        one = RatFunc.one()
        return LabeledMatrix(labels, labels, {(x, x): one for x in labels})

    def __eq__(self, other):
        if not isinstance(other, LabeledMatrix):
            return NotImplemented
        return (
            self.row_labels == other.row_labels
            and self.col_labels == other.col_labels
            and self.entries == other.entries
        )

    def __mul__(self, other):
        if not isinstance(other, LabeledMatrix):
            return NotImplemented
        _require_chain(self, other)
        by_row = {}
        for (i, k), v in other.entries.items():
            by_row.setdefault(i, []).append((k, v))
        acc = {}
        # embed_on_slots repeats a few values over many entries; RatFunc
        # hashing and equality are canonical data, so equal pairs share a product
        products = {}
        for (i, k), a in self.entries.items():
            for j, b in by_row.get(k, ()):
                key = (i, j)
                prod = products.get((a, b))
                if prod is None:
                    prod = products[(a, b)] = a * b
                if key in acc:
                    acc[key] = acc[key] + prod
                else:
                    acc[key] = prod
        entries = {k: v for k, v in acc.items() if not v.is_zero()}
        return LabeledMatrix._indexed(self.row_labels, other.col_labels, entries)

    def inverse(self):
        """Gauss-Jordan inverse; raises ValueError if singular."""
        if self.row_labels != self.col_labels:
            raise ValueError("inverse needs identical row and column labels")
        n = len(self.row_labels)
        a = [[RatFunc.zero()] * n for _ in range(n)]
        for (i, j), v in self.entries.items():
            a[i][j] = v
        inv = [
            [RatFunc.one() if i == j else RatFunc.zero() for j in range(n)]
            for i in range(n)
        ]
        for col in range(n):
            piv = None
            for r in range(col, n):
                if not a[r][col].is_zero():
                    piv = r
                    break
            if piv is None:
                raise ValueError("matrix is singular")
            a[col], a[piv] = a[piv], a[col]
            inv[col], inv[piv] = inv[piv], inv[col]
            p = a[col][col].inv()
            a[col] = [x * p for x in a[col]]
            inv[col] = [x * p for x in inv[col]]
            for r in range(n):
                if r == col or a[r][col].is_zero():
                    continue
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
        entries = {(i, j): x for i, row in enumerate(inv) for j, x in enumerate(row) if not x.is_zero()}
        return LabeledMatrix._indexed(self.row_labels, self.col_labels, entries)

    def eval_entries(self, assignment):
        """Evaluate every entry at {var: Fraction} -> dict keyed like entries."""
        return {k: v.eval(assignment) for k, v in self.entries.items()}

    def __repr__(self):
        return f"<LabeledMatrix {len(self.row_labels)}x{len(self.col_labels)}, {len(self.entries)} nonzero>"


@functools.cache
def _tensor_labels(slots):
    """The labels of the tensor product of slots, a tuple of label tuples,
    in row-major order, per slot {label: offset} and the slots' strides: a
    full label's index is the sum of its parts' offsets, each part's index
    in its slot times the slot's stride (mixed radix, the last slot
    fastest).  Built once per slot tuple, shared by every placement on it
    and read-only."""
    if any(len(set(s)) != len(s) for s in slots):
        raise ValueError("duplicate row labels")
    strides = tuple(math.prod(map(len, slots[k + 1:])) for k in range(len(slots)))
    offsets = [{x: i * stride for i, x in enumerate(s)} for s, stride in zip(slots, strides)]
    return tuple(itertools.product(*slots)), offsets, strides


def embed_on_slots(mat, positions, slot_labels):
    """Extend mat (acting on the chosen tensor slots, in order) by identity.

    slot_labels: list of label sequences, one per tensor slot.  positions:
    which slots mat acts on, distinct.  A tuple label of mat holds one part
    per position and a bare label is one part, so a placed matrix can be
    placed again; anything else raises ValueError.  The result acts on the
    full product with tuple labels and shares mat's entry values.  Its
    entry keys are index sums: a label of mat contributes its parts'
    offsets on the positions, and each assignment of the other slots one
    more offset.  The result is a view (LabeledMatrix): it records mat
    itself as the operator it places, a placement included, and those
    offsets, and it builds its entries only when they are read, by a
    product, ==, inverse, eval_entries or swap_conjugate, by verify_identity
    on a side of one factor, or by a prover reading it as the operator of a
    placement of it; the provers read placements by row instead (_Rows).
    An empty slot among the others leaves nothing placed and a plain empty
    matrix.
    """
    tensor, slot_offsets, strides = _tensor_labels(tuple(map(tuple, slot_labels)))
    positions = tuple(positions)
    n = len(slot_offsets)
    if len(set(positions)) != len(positions) or not all(0 <= p < n for p in positions):
        raise ValueError(f"positions {positions} are not distinct slots of 0..{n - 1}")
    on = [slot_offsets[p] for p in positions]

    def offsets(labels):
        out = []
        for lab in labels:
            parts = lab if isinstance(lab, tuple) else (lab,)
            if len(parts) != len(positions):
                raise ValueError(f"label {lab!r} has {len(parts)} parts for positions {positions}")
            try:
                out.append(sum(map(operator.getitem, on, parts)))
            except KeyError:
                raise ValueError(f"label {lab!r} is not on slots {positions}") from None
        return tuple(out)

    rows = offsets(mat.row_labels)
    cols = rows if mat.col_labels is mat.row_labels else offsets(mat.col_labels)
    if any(not slot for o, slot in enumerate(slot_offsets) if o not in positions):
        return LabeledMatrix._indexed(tensor, tensor, {})
    digits = tuple((strides[p], len(slot_offsets[p])) for p in positions)
    return LabeledMatrix._indexed(tensor, tensor, None, mat, (rows, cols, digits))


def _placed_entries(mat):
    """A placement's entries at full size: each entry of its operator at
    every offset of the other slots, the indices whose digits on the
    placed slots are 0, in the operator's entry order and then in
    increasing offset."""
    rows, cols, digits = mat.offsets
    rest = [o for o in range(len(mat.row_labels)) if not any(o // stride % size for stride, size in digits)]
    entries = {}
    for (i, j), v in mat.operator.entries.items():
        r, c = rows[i], cols[j]
        for o in rest:
            entries[r + o, c + o] = v
    return entries


def _kept(mat, slot, make):
    """The private slot of mat (LabeledMatrix), filled with make(mat) on its
    first read and kept: a matrix is a value, so what a proof reads of it
    is read once per process, however many proofs and placements share it.

    The clearing (_clear) reads den_factors, which splits each residual
    denominator over the forms interned when it runs, and a form interned
    later may split it further.  The kept clearing stays sound: its map,
    every table form at its largest exponent and the residuals whole, is
    still a common multiple D of the entry denominators, since a finer
    split changes how D is written, not what it is a multiple of, and any
    nonzero common multiple keeps both provers exact.  Only the degree
    bounds can read larger than a fresh read's, where the other side's map
    holds the parts of a residual that this map keeps whole, and a larger
    bound is still a bound."""
    value = getattr(mat, slot, None)
    if value is None:
        value = make(mat)
        object.__setattr__(mat, slot, value)
    return value


def swap_conjugate(mat):
    """P * mat * P for mat on a flip-closed set of pair labels."""
    rows, cols = mat.row_labels, mat.col_labels
    return LabeledMatrix(rows, cols, {(rows[i][::-1], cols[j][::-1]): v for (i, j), v in mat.entries.items()})


# ---------------------------------------------------------------------------
# identity verification
#
# Products are compared fraction-free, as in Bareiss's elimination (Math. Comp.
# 22 (1968) 565): work in the polynomial ring and divide once at the end.
# Each distinct factor f is scaled by a common multiple D_f of its entry
# denominators, read off their factored form (den_factors): the lcm of the
# integer parts, each table form to its largest exponent and each distinct
# residual once.  Any nonzero common multiple keeps the comparison exact, so
# no gcd is taken.  P_f = f D_f is a matrix of polynomials, and the P_f are
# multiplied with no gcd, no trial division and no RatFunc.  lhs = rhs exactly
# when P_lhs prod(D_rhs) / G = P_rhs prod(D_lhs) / G, where G is the part of
# the two denominator products that they share.  Every scale is nonzero, so
# the scaled sides differ in the same entries as the canonical products, and
# only the entry that a failing verdict prints is reduced.  Only one row per
# orbit of the factors' common label symmetry is multiplied: the other rows
# of the first factor never enter the chain (_orbit_representatives).  A
# placement's rows are read off its operator's (_Rows), and each operator is
# cleared once per process (_clearing, which the multipoint engine reads as
# well) and packed once per field width (_kept).
#
# Inside a product a monomial is one int, its exponents packed into fields
# wide enough for the product's total degree, so that multiplying two
# monomials is adding two ints and no field carries into the next.


def first_difference(lhs, rhs):
    """The least key at which two entry dicts differ, or None if they agree.
    Neither dict holds a zero, so a key on one side only is a difference."""
    return min((k for k in lhs.keys() | rhs.keys() if lhs.get(k) != rhs.get(k)), default=None)


def _expand(c, den, memo):
    """c * prod p^e over den {Poly: e}, as one Poly; memo holds the product
    of each map."""
    key = frozenset(den.items())
    p = memo.get(key)
    if p is None:
        p = memo[key] = functools.reduce(operator.mul, (q ** e for q, e in den.items()), Poly.const(1))
    return p.scale(c)


_Cleared = collections.namedtuple("_Cleared", "c den entries rows degree degrees variables homogeneous height")


def _clear(mat):
    """One factor cleared of its denominators, with what both provers read
    of it: c * prod p^e over the Counter den is a common multiple D of its
    entry denominators, entries maps the id of each distinct entry v to the
    Poly v * D, and rows is its stored entries by row, {row: [(col,
    id(v))]}.  Then what the provers bound by: degree, the largest total
    degree of an entry v * D; degrees, per variable in VARS order, the
    largest degree of one; variables, the variables of its entries (those
    of some v * D or of a key of den); homogeneous, whether every entry v
    is homogeneous of degree zero jointly in all variables, which holds
    exactly when every key of den is homogeneous and every v * D is
    homogeneous of D's degree; and height, the largest row sum of ||v *
    D||_1, the sum of the absolute values of its coefficients."""
    dens, rows = {}, {}
    for (i, j), v in mat.entries.items():
        rows.setdefault(i, []).append((j, id(v)))
        if id(v) not in dens:
            c, forms, r = v.den_factors()
            dens[id(v)] = (v, c, forms if r is None else {**forms, r: 1})
    c = math.lcm(*(vc for _, vc, _ in dens.values()))
    den = collections.Counter()
    for _, _, vden in dens.values():
        for p, e in vden.items():
            if e > den[p]:
                den[p] = e
    memo = {}
    entries = {
        key: v.num * _expand(c // vc, {p: e - vden.get(p, 0) for p, e in den.items() if e > vden.get(p, 0)}, memo)
        for key, (v, vc, vden) in dens.items()
    }
    norms = {key: sum(map(abs, p.terms.values())) for key, p in entries.items()}
    exps = [e for p in entries.values() for e in p.terms]
    degrees = tuple(map(max, zip(ZERO_EXP, *exps)))
    variables = frozenset(itertools.compress(VARS, map(max, zip(degrees, *[e for p in den for e in p.terms]))))
    # D is homogeneous when every key of den is, of degree the sum of the
    # keys' degrees times their exponents
    totals, key_totals = set(map(sum, exps)), [set(map(sum, p.terms)) for p in den]
    homogeneous = all(len(t) == 1 for t in key_totals) and totals <= {
        sum(e * min(t) for t, e in zip(key_totals, den.values()))
    }
    height = max([sum([norms[key] for _, key in row]) for row in rows.values()], default=0)
    return _Cleared(c, den, entries, rows, max(totals, default=0), degrees, variables, homogeneous, height)


def _clearing(mat):
    """mat's clearing (_clear).  It reads only the entry values, which a
    placement shares with the operator it places, so it is read off that
    operator, once per process (_kept)."""
    return _kept(_operator(mat), "_cleared", _clear)


def _scales(lhs, rhs):
    """The two sides' scales, for lhs and rhs lists of _Cleared: each
    side's content and map are the product of its factors' contents and the
    sum of their maps, (lc, lden) and (rc, rden); with g = gcd(lc, rc) and G
    = lden & rden, each key at the least of its two exponents (the part the
    sides share), the lhs scale is (rc // g) prod(rden - G) and the rhs
    scale (lc // g) prod(lden - G), each expanded as one Poly.  Returns the
    two (content, map) pairs and the two scales."""
    (lc, lden), (rc, rden) = maps = [
        (math.prod(x.c for x in side), sum((x.den for x in side), collections.Counter())) for side in (lhs, rhs)
    ]
    g, shared, memo = math.gcd(lc, rc), lden & rden, {}
    return maps, (_expand(rc // g, rden - shared, memo), _expand(lc // g, lden - shared, memo))


def _pack(p, bits):
    """p's terms keyed by packed monomials, bits bits per exponent."""
    return {sum(x << (bits * i) for i, x in enumerate(e)): c for e, c in p.terms.items()}


def _unpack(terms, bits):
    """The Poly whose terms _pack(p, bits) gave."""
    mask = (1 << bits) - 1
    return Poly({tuple(m >> (bits * i) & mask for i in range(NVARS)): c for m, c in terms.items()})


def _packed_rows(mat, bits):
    """mat's cleared entries (_clear, kept on mat) by row, {row: [(col,
    packed terms)]}, bits bits per exponent; kept on mat per width, so each
    distinct entry of an operator is packed once per width and process."""
    tables = _kept(mat, "_packed", lambda m: {})
    rows = tables.get(bits)
    if rows is None:
        cleared = _kept(mat, "_cleared", _clear)
        packed = {key: _pack(p, bits) for key, p in cleared.entries.items()}
        rows = tables[bits] = {i: [(j, packed[key]) for j, key in row] for i, row in cleared.rows.items()}
    return rows


class _Rows(dict):
    """A factor's stored entries by row, {row: [(col, x)]}, from rows, the
    same table of the matrix itself or of the operator it places, at that
    operator's size; a row with no entry reads as ().  Both provers read
    every factor through this view: the multipoint engine with x the id of
    an entry (_Cleared.rows), the symbolic prover with x its packed cleared
    terms (_packed_rows, built from that table).  A placement's row is made
    on its first read: row r has operator part rows[i] and shift o = r -
    rows[i] (LabeledMatrix offsets), and it holds (cols[j] + o, x) for each
    (j, x) of the operator's row i, so a proof builds only the placement
    rows that its representative rows reach, and no placement at full
    size."""

    __slots__ = ("rows", "row_of", "cols", "digits")

    def __init__(self, mat, rows):
        if mat.offsets is None:
            super().__init__(rows)
            self.digits = None
        else:
            offsets, self.cols, self.digits = mat.offsets
            self.rows, self.row_of = rows, {x: i for i, x in enumerate(offsets)}

    def __missing__(self, r):
        if self.digits is None:
            return ()
        base = sum(r // stride % size * stride for stride, size in self.digits)
        o = r - base
        row = self[r] = [(self.cols[j] + o, x) for j, x in self.rows.get(self.row_of.get(base), ())]
        return row


def _poly_matmul(a, b):
    """a b for a matrix {row: {col: packed terms}} and a row view b (_Rows,
    or a dict that holds every column of a), with no zero entry; each sum
    accumulates in a plain dict and is not normalized."""
    out = {}
    for i, arow in a.items():
        acc = {}
        for k, x in arow.items():
            for j, y in b[k]:
                t = acc.get(j)
                if t is None:
                    t = acc[j] = {}
                for m1, c1 in x.items():
                    for m2, c2 in y.items():
                        m = m1 + m2
                        t[m] = t.get(m, 0) + c1 * c2
        row = {}
        for j, t in acc.items():
            t = {m: c for m, c in t.items() if c}
            if t:
                row[j] = t
        if row:
            out[i] = row
    return out


def _cleared_product(factors, views, reps):
    """The rows reps of the product of the cleared factors as {row: {col:
    packed terms}}: only those rows of the first factor enter the chain.
    views maps the id of each factor to its _Rows of packed terms."""
    first = views[id(factors[0])]
    rows = {i: dict(first[i]) for i in reps if first[i]}
    return functools.reduce(_poly_matmul, [views[id(mat)] for mat in factors[1:]], rows)


def _scaled(rows, scale, bits):
    """rows times the Poly scale, as a product with a diagonal matrix."""
    if scale == Poly.const(1):
        return rows
    t = _pack(scale, bits)
    return _poly_matmul(rows, {j: [(j, t)] for row in rows.values() for j in row})


def _entry_difference(lhs, rhs):
    """(key, lhs value, rhs value) at the first key where two dicts of
    canonical entries differ, or None if they agree."""
    if lhs == rhs:
        return None
    key = first_difference(lhs, rhs)
    zero = RatFunc.zero()
    return key, lhs.get(key, zero), rhs.get(key, zero)


def _product_difference(lhs_factors, rhs_factors):
    """_entry_difference for two products, by the fraction-free route above:
    only one row per orbit is multiplied (_orbit_representatives, which
    gives the soundness argument), and only the two entries it returns are
    reduced."""
    distinct = {id(mat): mat for mat in (*lhs_factors, *rhs_factors)}
    reps = _orbit_representatives(list(distinct.values()))
    cleared = {key: _clearing(mat) for key, mat in distinct.items()}
    sides = [[cleared[id(mat)] for mat in factors] for factors in (lhs_factors, rhs_factors)]
    maps, scales = _scales(*sides)
    # no monomial of either scaled product has a larger total degree, so no
    # packed exponent overflows its field
    top = max(sum(x.degree for x in side) + scale.degree() for side, scale in zip(sides, scales))
    bits = max(1, top.bit_length())
    views = {key: _Rows(mat, _packed_rows(_operator(mat), bits)) for key, mat in distinct.items()}
    products = [_cleared_product(factors, views, reps) for factors in (lhs_factors, rhs_factors)]
    scaled = [_scaled(rows, scale, bits) for rows, scale in zip(products, scales)]
    if scaled[0] == scaled[1]:
        return None
    flat = [{(i, j): t for i, row in rows.items() for j, t in row.items()} for rows in scaled]
    i, j = key = first_difference(*flat)
    # only this entry is reduced, each side over its own prod(D)
    return key, *(
        RatFunc(_unpack(rows.get(i, {}).get(j, {}), bits), _expand(c, den, {}))
        for rows, (c, den) in zip(products, maps)
    )


def _label_mismatch(lhs_factors, rhs_factors, mode):
    """The label checks of both provers: raise ValueError unless each side's
    product is defined, and return the failing verdict of the given mode when
    the two products carry different labels, else None."""
    for factors in (lhs_factors, rhs_factors):
        for a, b in zip(factors, factors[1:]):
            _require_chain(a, b)
    if (
        lhs_factors[0].row_labels != rhs_factors[0].row_labels
        or lhs_factors[-1].col_labels != rhs_factors[-1].col_labels
    ):
        return {"holds": False, "mode": mode, "detail": "label mismatch between the two sides"}
    return None


def _operator(mat):
    """The operator a placement records, or mat itself."""
    return mat if mat.operator is None else mat.operator


class _Labels:
    """What the symmetry search reads of one label tuple, built once per
    tuple (_label_structure): parts, each label as its tuple of sites (a
    bare label is a 1-tuple); sites, every site in order of first
    appearance; slots, per site the slots whose site set holds it, or None
    when the labels are not all of one length or not the product of their
    slots' site sets, so a transposition maps every slot's site set to
    itself exactly when it swaps two sites with the same slots; and what
    the search fills in as it goes: index, {parts: index}, on the first
    permutation; perms, the permutation of the labels by each transposition
    (_permuted); and reps, the representatives of each partition of the
    sites into components (_orbit_representatives)."""

    __slots__ = ("parts", "sites", "slots", "index", "perms", "reps")

    def __init__(self, labels):
        self.parts = [lab if isinstance(lab, tuple) else (lab,) for lab in labels]
        self.sites = list(dict.fromkeys(itertools.chain.from_iterable(self.parts)))
        self.slots = None
        if len(set(map(len, self.parts))) == 1:
            per_slot = [set(column) for column in zip(*self.parts)]
            if len(self.parts) == math.prod(map(len, per_slot)):
                self.slots = {x: tuple(x in s for s in per_slot) for x in self.sites}
        self.index, self.perms, self.reps = None, {}, {}


_label_structure = functools.cache(_Labels)


def _permuted(shape, a, b):
    """The index of each label's image under the transposition of sites a
    and b, for a _label_structure, or None when an image is no label; kept
    on the structure."""
    perm = shape.perms.get((a, b), False)
    if perm is False:
        if shape.index is None:
            shape.index = dict(zip(shape.parts, itertools.count()))
        swap = {a: b, b: a}
        perm = [shape.index.get(tuple([swap.get(x, x) for x in p])) for p in shape.parts]
        perm = shape.perms[a, b] = None if None in perm else perm
    return perm


def _commutes_with(mat, a, b):
    """Whether mat holds an equal entry at the image of every stored entry
    (i, j) -> v under the transposition of sites a and b, and maps its row
    and column labels to labels; decided once per matrix and pair, and kept
    on mat (_kept)."""
    verdicts = _kept(mat, "_symmetry", lambda m: {})
    held = verdicts.get((a, b))
    if held is None:
        rows = _label_structure(mat.row_labels)
        cols = rows if mat.col_labels is mat.row_labels else _label_structure(mat.col_labels)
        rperm, cperm = _permuted(rows, a, b), _permuted(cols, a, b)
        entries = mat.entries
        # dict equality takes e is v before e == v, value by value
        held = verdicts[a, b] = (
            rperm is not None
            and cperm is not None
            and {(rperm[i], cperm[j]): v for (i, j), v in entries.items()} == entries
        )
    return held


def _orbit_representatives(factors):
    """The least row index of each orbit of the label symmetry that every
    factor has, in increasing order; every row index when some factor's row
    or column labels differ from the first factor's row labels, or when
    those labels are not the product of their slots' site sets.

    A label is a tuple of sites (a bare label is a 1-tuple), and the
    transposition s = (a b) of two sites swaps them in every slot at once.
    The labels are the product of the site sets S_k of their slots, so s
    maps them to labels exactly when it maps every S_k to itself.  Then it
    is accepted when every distinct factor F commutes with it: F holds an
    entry equal to v at the permuted key of every stored entry (i, j) -> v.
    The transposition is an involution, so that is F[s i, s j] = F[i, j] at
    every key, zero entries included.  A placement F = M (x) I of an
    operator M on some slots (embed_on_slots; both are values, so F stays
    M (x) I) is tested on M: s acts on F as s on M's slots times s on the
    others, I commutes with the latter, and F[(s r, s q), (s c, s q')] =
    M[s r, s c] delta(q, q'), so F commutes with s exactly when M does,
    provided s maps M's labels to M's labels.  When it does not, the test on
    M fails, which keeps more rows and never fewer.  A placement of a
    placement is tested on the inner placement at its own size, since the
    record of a placement is the matrix it placed: the inner identity slots
    may hold fewer sites than the outer slots, and the label test on the
    inner placement is what rejects a transposition that leaves them.  A
    pair of sites already in one component of the accepted transpositions
    is not tested: they generate the product of the symmetric groups on the
    components, which is the group every holding transposition generates.
    Two labels lie in one orbit of that group exactly when they have the
    same pattern: per slot, the component of its site and the first slot
    that holds the same site.  A label set that is not such a product keeps
    every row, which is the trivial group and sound.  Whether a matrix
    commutes with a transposition depends on that matrix alone, so each
    verdict is kept on the matrix tested (_commutes_with), and the label
    data and the representatives of each partition into components on the
    label tuple (_label_structure).

    Both provers multiply only these rows, and this is why that is sound.
    Every factor commutes with the group G found here, and so do both
    products and the scalars the provers scale them by.  So the difference
    Delta of the two scaled sides satisfies Delta[pi i, pi j] = Delta[i, j]
    for every pi in G.  If row r of Delta is nonzero, so is every row of r's
    orbit, the least one included, and that row is at most r.  So the
    sides agree everywhere when they agree on the representative rows, the
    least differing row is a representative, and its least differing column
    lies in that row: the first differing entry in sorted order, which both
    provers print as the counterexample, is the one a full-row product
    would give.
    """
    labels = factors[0].row_labels
    if any(m.row_labels != labels or m.col_labels != labels for m in factors):
        return range(len(labels))
    shape = _label_structure(labels)
    if shape.slots is None:
        return range(len(labels))
    # each distinct operator, and each factor that places none at full size
    tested = {id(m): m for m in map(_operator, factors)}.values()
    root = {x: x for x in shape.sites}  # site -> its parent in the components

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for a, b in itertools.combinations(shape.sites, 2):
        ra, rb = find(a), find(b)
        if ra != rb and shape.slots[a] == shape.slots[b] and all(_commutes_with(m, a, b) for m in tested):
            root[rb] = ra
    key = tuple(map(find, shape.sites))
    reps = shape.reps.get(key)
    if reps is None:
        component = dict(zip(shape.sites, key))
        first = {}
        for i, p in enumerate(shape.parts):
            first.setdefault((tuple(map(component.get, p)), tuple(map(p.index, p))), i)
        reps = shape.reps[key] = sorted(first.values())
    return reps


def verify_identity(lhs_factors, rhs_factors):
    """Check that the products of two ordered factor lists agree.  Returns a
    dict verdict; never raises on inequality.  When the labels agree, a
    failing verdict carries a "counterexample": row and column labels (JSON
    form) and the canonical strings of both products at the first differing
    key.  A single matrix is a one-factor list."""
    mismatch = _label_mismatch(lhs_factors, rhs_factors, "symbolic")
    if mismatch:
        return mismatch
    lhs, rhs = lhs_factors[0], rhs_factors[0]
    if len(lhs_factors) == len(rhs_factors) == 1:
        # no product to form: the canonical entries are at hand
        diff = _entry_difference(lhs.entries, rhs.entries)
    else:
        diff = _product_difference(lhs_factors, rhs_factors)
    if diff is None:
        return {"holds": True, "mode": "symbolic", "detail": "entrywise canonical equality"}
    (i, j), lhs_value, rhs_value = diff
    row, col = lhs.row_labels[i], lhs_factors[-1].col_labels[j]
    return {
        "holds": False,
        "mode": "symbolic",
        "detail": f"first mismatch at row {row!r}, col {col!r}",
        "counterexample": {
            "row": _label_to_json(row),
            "col": _label_to_json(col),
            "lhs": format_ratfunc(lhs_value),
            "rhs": format_ratfunc(rhs_value),
        },
    }
