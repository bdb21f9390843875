"""Labeled sparse matrices over the exact rational-function field.

Rows and columns carry label sequences (ints, strings, or tuples over tensor
slots); all operations check label compatibility instead of bare dimensions.
Storage is dict-of-keys on (row_index, col_index) with zeros dropped, since
the big tensor-product matrices in the relation checks are overwhelmingly
sparse, and a matrix is a read-only value (LabeledMatrix).

embed_on_slots places an operator on some tensor slots, extended by the
identity on the others, and places operators only: a placement placed again
raises, and a flip is the operator on reversed positions.  A placement is a
view: it records the operator it places and where (mixed-radix offsets over
the slots, kept on the operator per positions and slots, on label tuples
built once per slot tuple and shared), and it builds its full-size entry
map only when something reads its entries.
Work that depends only on the entry values, or on the label symmetry, reads
that operator instead of the placement, and keeps what it read on the
operator (_kept): the symmetry verdicts of the search below, the clearing
that both provers read every factor through (_clearing), each distinct
entry cleared once into the terms of a Poly, {packed monomial: int}, in
field's monomial format, and the multipoint prover's bounds, read off
those monomials (_bounds).  Both provers read a placement's rows through
one operator-size view (_Rows).

The product of two LabeledMatrix values reduces every entry to canonical
form; the builders use it.  The provers do not.  verify_identity(lhs, rhs,
mode) proves that two ordered factor lists have equal products by one of
two routes with one setup: each distinct factor is cleared of its
denominators once (_clearing), each side is scaled by the other side's
denominators less the part the two share, as terms of the same kind
(_scales), and one loop (_differing_row) takes one row per orbit of the
factors' common label symmetry (_orbit_representatives) in increasing
order, carries it once through each side's factors by its prover's row
product, read off each placement's operator (_Rows), and stops at the first
row whose two scaled sides differ.  The symbolic prover (_symbolic_proof)
carries the cleared entries as terms (_carry), so it never runs Henrici's
sum or the trial-division screen, and reduces only the entry that a
failing verdict prints.  The multipoint prover (_multipoint_proof) never forms a
product of polynomials: it bounds the scaled difference's degrees and
coefficients and carries the entries' values at one integer point where
agreement is a proof, as plain ints (_carry_values).  A verdict is a dict
so callers can log what was checked; a failing one carries a
"counterexample" at the first mismatching entry in sorted order, the least
differing column of that row, with the canonical form of both values or a
monomial and its two coefficients.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
import types

from .field import DEGREE_SHIFT, EXP_MASK, EXP_SHIFT, VAR_INDEX, VARS, Poly, RatFunc, fit, format_ratfunc, packed_poly
from .terms import mul_into, mul_terms


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
    which embed_on_slots accepts only when it is not a placement, and in
    offsets where it places it (_Offsets): rows, cols and digits, with
    rows[i] and cols[j] the index offsets of the operator's row i and column
    j, and digits the (stride, size) of each slot it acts on.  The operator
    part of a row index r is then the sum of (r // stride % size) * stride,
    which is rows[i] for one operator row i, and the rest of r is the offset
    of the other slots, shared by the row's columns.  Every other matrix
    holds None in both.

    A placement's entries are built at full size on their first read
    (_placed_entries) and kept, as RatFunc.den is.  The readers that build
    them are the canonical product (rkmat.embedded_product and every other
    use of *), ==, inverse and eval_entries.  The provers read every
    placement's rows through _Rows, at operator size, and test and clear
    its operator.

    Three private slots hold what a proof reads of a matrix, each filled on
    first use by _kept and kept for the life of the matrix: _cleared, the
    clearing both provers read it through, its rows of terms (_clear);
    _bounds, the multipoint prover's degrees and height of that clearing, read
    off the packed monomials of its terms (_bounds); and _symmetry, its
    verdict per site permutation (_commutes_with).  verify_identity reads
    all three.  A fourth, _placed, holds an operator's offsets per positions
    and slots it was placed on (embed_on_slots).
    """

    __slots__ = (
        "row_labels", "col_labels", "entries", "operator", "offsets", "_cleared", "_bounds", "_symmetry", "_placed"
    )

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
    tensor = tuple(itertools.product(*slots))
    _structures.setdefault(tensor, _Labels(slots, offsets))
    return tensor, offsets, strides


# where a placement puts its operator (LabeledMatrix offsets)
_Offsets = collections.namedtuple("_Offsets", "rows cols digits")


def embed_on_slots(mat, positions, slot_labels):
    """Extend mat (acting on the chosen tensor slots, in order) by identity.

    slot_labels: list of label sequences, one per tensor slot.  positions:
    which slots mat acts on, distinct.  A tuple label of mat holds one part
    per position and a bare label is one part; anything else raises
    ValueError.  The result acts on the full product with tuple labels and
    shares mat's entry values.  Its entry keys are index sums: a label of
    mat contributes its parts' offsets on the positions, and each
    assignment of the other slots one more offset.  The result is a view
    (LabeledMatrix): it records the operator it places and those offsets,
    which the operator keeps per positions and slots, and it builds its
    entries only when they are read, by a product, ==, inverse or
    eval_entries; the provers read placements by row instead (_Rows).  mat
    is an operator, never a placement: placing a placement raises
    ValueError, and a flip is mat placed on reversed positions.  mat placed
    on all of its own slots in order, with the tensor labels as its row and
    column labels, is mat itself.  An empty slot among the others leaves
    nothing placed and a plain empty matrix.
    """
    if mat.operator is not None:
        raise ValueError("cannot place a placement: place its operator")
    slots = tuple(map(tuple, slot_labels))
    tensor, slot_offsets, strides = _tensor_labels(slots)
    positions = tuple(positions)
    placed = _kept(mat, "_placed", lambda m: {})
    offsets = placed.get((positions, slots))
    if offsets is None:
        n = len(slot_offsets)
        if len(set(positions)) != len(positions) or not all(0 <= p < n for p in positions):
            raise ValueError(f"positions {positions} are not distinct slots of 0..{n - 1}")
        if positions == tuple(range(n)) and mat.row_labels == tensor and mat.col_labels == tensor:
            return mat
        offsets = placed[positions, slots] = _placement(mat, positions, slot_offsets, strides)
    if any(not slot for o, slot in enumerate(slot_offsets) if o not in positions):
        return LabeledMatrix._indexed(tensor, tensor, {})
    return LabeledMatrix._indexed(tensor, tensor, None, mat, offsets)


def _placement(mat, positions, slot_offsets, strides):
    """The _Offsets of mat placed on the slots at positions, of the given
    offsets and strides (_tensor_labels), or ValueError unless each label
    of mat holds one part on each of those slots."""
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
    return _Offsets(rows, cols, tuple((strides[p], len(slot_offsets[p])) for p in positions))


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
    verify_identity keeps each factor's clearing and, in multipoint mode,
    its bounds on the operator the factor places (_operator), which is
    never a placement, as embed_on_slots places no placement, so every
    placement of one builder's operator, on any positions, shares one
    record."""
    value = getattr(mat, slot, None)
    if value is None:
        value = make(mat)
        object.__setattr__(mat, slot, value)
    return value


# ---------------------------------------------------------------------------
# identity verification
#
# Products are compared fraction-free, as in Bareiss's elimination (Math. Comp.
# 22 (1968) 565): work in the polynomial ring and divide once at the end.
# Each distinct factor f is scaled by a common multiple D_f of its entry
# denominators, read off their factored form (den_factors): the lcm of the
# integer parts and each table form to its largest exponent.  Any nonzero
# common multiple keeps the comparison exact, so no gcd is taken.  P_f = f D_f
# is a matrix of polynomials, and the P_f are multiplied with no gcd, no trial
# division and no RatFunc.  lhs = rhs exactly
# when P_lhs prod(D_rhs) / G = P_rhs prod(D_lhs) / G, where G is the part of
# the two denominator products that they share.  Every scale is nonzero, so
# the scaled sides differ in the same entries as the canonical products, and
# only the entry that a failing verdict prints is reduced.  One loop
# (_differing_row) compares the sides row by row: it takes one row per orbit
# of the factors' common label symmetry in increasing order
# (_orbit_representatives), carries it once through each side's factors
# (_carry), scales it, and stops at the first row that differs, whose least
# differing column is the counterexample.  A placement's rows are read off
# its operator's (_Rows), and each operator is cleared once per process
# (_clearing), its entries formed as Poly terms and read as stored.  The
# scales are terms too (_power), and the degree bounds are read off the
# exponent and total-degree fields of their packed monomials (_bounds), in
# field's layout.  The multipoint prover reads the same clearing, scales and
# representatives (verify_identity) and runs the same loop on the entries'
# int values at one point, with its own row product (_carry_values,
# _multipoint_proof).  Every product of terms is terms.mul_terms, or
# mul_into in a carried row, and field.fit checks every total degree, of a
# cleared entry, of a scale and of a scaled product, before any of them.


def first_difference(lhs, rhs):
    """The least key at which two entry dicts differ, or None if they agree.
    Neither dict holds a zero, so a key on one side only is a difference."""
    return min((k for k in lhs.keys() | rhs.keys() if lhs.get(k) != rhs.get(k)), default=None)


_Cleared = collections.namedtuple("_Cleared", "c den rows degree entries")


def _degrees(monomials):
    """Each variable's largest exponent over the packed monomials, in VARS
    order, 0 where none holds it."""
    return tuple([max([m >> at & EXP_MASK for m in monomials], default=0) for at in EXP_SHIFT])


def _power(terms, den):
    """The terms times prod p^e over a denominator map den {Poly: e}, as
    terms, each p read as its Poly terms."""
    return functools.reduce(mul_terms, [p.terms for p, e in den.items() for _ in range(e)], terms)


def _clear(mat):
    """One factor cleared of its denominators.  c * prod p^E over the
    Counter den is a common multiple D of its entry denominators.  rows is
    its stored entries by row, {row: [(col, terms)]}, terms the Poly terms
    of v * D for the entry v, one dict per distinct v, entries the list of those
    dicts, and degree the largest total degree of one.  With v's
    denominator c_v * prod p^e, v * D is (c // c_v) v.num times prod p^(E
    - e) over the keys where E > e, its deficit (_power).  Its degree, in
    total and per variable, is exactly deg(v.num) + sum (E - e) deg(p), so
    fit passes it before any product of terms is formed."""
    dens, rows = {}, {}
    for (i, j), v in mat.entries.items():
        part = dens.get(id(v))
        if part is None:
            c, forms = v.den_factors()
            part = dens[id(v)] = (v.num, c, forms, {})
        rows.setdefault(i, []).append((j, part[3]))
    c = math.lcm(*(vc for _, vc, _, _ in dens.values()))
    den = collections.Counter()
    for _, _, vden, _ in dens.values():
        for p, e in vden.items():
            if e > den[p]:
                den[p] = e
    # per distinct v: v.num, c // c_v, its deficit {p: E - e} where
    # positive, and v * D
    parts = [
        (num, c // vc, {p: e - vden.get(p, 0) for p, e in den.items() if e > vden.get(p, 0)}, terms)
        for num, vc, vden, terms in dens.values()
    ]
    totals = {p: p.degree() for p in den}
    degree = max((n.degree() + sum(e * totals[p] for p, e in d.items()) for n, _, d, _ in parts), default=0)
    fit(degree, "a cleared entry")
    for num, k, deficit, terms in parts:
        terms.update(_power(num.scale(k).terms, deficit))
    return _Cleared(c, den, rows, degree, [terms for *_, terms in parts])


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
    scale (lc // g) prod(lden - G), each as terms, as the clearing's entries
    are (_power), once its degree, sum e deg(p), has passed fit.  Returns
    the two (content, map) pairs and the two scales."""
    maps = []
    for side in (lhs, rhs):
        # one Counter per side, summed in place: sum() would build one per
        # factor
        den = collections.Counter()
        for x in side:
            den.update(x.den)
        maps.append((math.prod(x.c for x in side), den))
    (lc, lden), (rc, rden) = maps
    g, shared = math.gcd(lc, rc), lden & rden
    pairs = (rc // g, rden - shared), (lc // g, lden - shared)
    fit(max(sum(e * p.degree() for p, e in den.items()) for _, den in pairs), "a scale")
    return maps, tuple(_power({0: k}, den) for k, den in pairs)


class _Rows(dict):
    """A factor's rows of the entries a prover carries, {row: [(col, x)]},
    read off the clearing's rows (_Cleared.rows) of the matrix itself or of
    the operator it places, at that operator's size.  With values None, as
    in the symbolic prover, each stored entry is read as stored, the terms
    of v * D for a cleared entry; otherwise, as in the multipoint prover, a
    stored entry t is read as values[id(t)], its int value at the point.
    Each prover makes one view per distinct factor of a proof and carries
    every row through it (_carry, _carry_values).  A row is made on its
    first read, so a proof builds only the rows that its carried rows reach,
    and no placement at full size: a placement's row r has operator part
    rows[i] and shift o = r - rows[i] (LabeledMatrix offsets), and it holds
    (cols[j] + o, x) for each (j, x) of the operator's row i; a matrix that
    is no placement reads its own row r, with cols[j] = j and o = 0.  A row
    with no entry reads as []."""

    __slots__ = ("rows", "values", "row_of", "cols", "digits")

    def __init__(self, mat, values=None):
        self.rows, self.values, self.digits = _clearing(mat).rows, values, None
        if mat.offsets is None:
            self.cols = range(len(mat.col_labels))
        else:
            offsets, self.cols, self.digits = mat.offsets
            self.row_of = {x: i for i, x in enumerate(offsets)}

    def __missing__(self, r):
        values, cols, i, o = self.values, self.cols, r, 0
        if self.digits is not None:
            i = sum([r // stride % size * stride for stride, size in self.digits])
            i, o = self.row_of.get(i), r - i
        entries = self.rows.get(i, ())
        if values is None:
            row = self[r] = [(cols[j] + o, x) for j, x in entries]
        else:
            row = self[r] = [(cols[j] + o, values[id(x)]) for j, x in entries]
        return row


def _carry(side, views, i):
    """Row i of the product of the cleared factors side, {col: terms} with
    no zero term and no empty entry: row i of the first factor
    carried left to right through the others, reading only the factor rows
    it reaches, with the zero terms dropped after each factor; views maps
    the id of each factor to its _Rows.  Each sum accumulates in a plain
    dict (mul_into) and is not normalized.  The symbolic prover's row
    product."""
    row = {j: x for j, x in views[id(side[0])][i] if x}
    for mat in side[1:]:
        rows, acc = views[id(mat)], {}
        for k, x in row.items():
            for j, y in rows[k]:
                t = acc.get(j)
                if t is None:
                    t = acc[j] = {}
                mul_into(t, x, y)
        row = {}
        for j, t in acc.items():
            if 0 in t.values():
                t = {m: c for m, c in t.items() if c}
            if t:
                row[j] = t
    return row


def _carry_values(side, views, i):
    """Row i of the product of the factors side at the multipoint prover's
    point, {col: int} with no zero: row i of the first factor's values
    carried left to right through the others' (_Rows), reading only the
    factor rows it reaches, with the zeros dropped after each factor.  The
    multipoint prover's row product."""
    row = {j: x for j, x in views[id(side[0])][i] if x}
    for mat in side[1:]:
        rows, acc = views[id(mat)], {}
        for k, x in row.items():
            for j, y in rows[k]:
                acc[j] = acc.get(j, 0) + x * y
        row = {j: x for j, x in acc.items() if x}
    return row


def _differing_row(sides, views, reps, scales, carry, mul):
    """The first representative row i (reps, in increasing order) at which
    the two sides' scaled products differ, as (i, j, the two sides' rows i,
    those rows scaled) with j the row's least differing column, or None
    when every one agrees, which proves the identity
    (_orbit_representatives).  Each row is carried once per side by the
    prover's row product carry (_carry or _carry_values), and no row after
    the first differing one is carried; scales holds each side's scale in
    the prover's arithmetic, or None for a scale of 1, and mul(x, s) is an
    entry x times the scale s (mul_terms or operator.mul)."""
    for i in reps:
        rows = [carry(side, views, i) for side in sides]
        scaled = [row if s is None else {j: mul(x, s) for j, x in row.items()} for row, s in zip(rows, scales)]
        if scaled[0] != scaled[1]:
            return i, first_difference(*scaled), rows, scaled
    return None


_Bounds = collections.namedtuple("_Bounds", "degrees variables homogeneous height")


def _bounds(op):
    """What the multipoint prover bounds the operator op by, read off the
    packed monomials of its clearing's terms (_clearing): degrees, per
    variable in VARS order, the largest degree of a cleared entry v * D, its
    exponent field's largest value; variables, those of some v * D or of a
    key of den; homogeneous, whether every entry v is homogeneous of degree
    zero, that is every key of den homogeneous and every monomial of every v
    * D of D's total degree, its total-degree field; and height, the largest
    row sum of ||v * D||_1, the sum of the absolute values of its
    coefficients."""
    cleared = _clearing(op)
    monomials = set().union(*cleared.entries)
    degrees = _degrees(monomials)
    # a monomial's total degree is its top field
    totals = {p: {m >> DEGREE_SHIFT for m in p.terms} for p in cleared.den}
    # every v * D of D's degree
    degree = sum(e * max(totals[p]) for p, e in cleared.den.items())
    homogeneous = all(len(t) == 1 for t in totals.values()) and {m >> DEGREE_SHIFT for m in monomials} <= {degree}
    keys = (_degrees(p.terms) for p in cleared.den)
    variables = frozenset(itertools.compress(VARS, map(max, zip(degrees, *keys))))
    norms = {id(t): sum(map(abs, t.values())) for t in cleared.entries}
    height = max([sum([norms[id(t)] for _, t in row]) for row in cleared.rows.values()], default=0)
    return _Bounds(degrees, variables, homogeneous, height)


def _kronecker_value(terms, at):
    """Packed terms at a Kronecker point, at[m] = sum e_i shifts[i] for each
    monomial m where the variable at index i of VARS is 2^shifts[i]: each
    term c * prod u^e is c shifted left by at[m], so no power is taken."""
    return sum(c << at[m] for m, c in terms.items())


def _digit(x, shift, width):
    """The digit at bit shift (a multiple of width) of x written in balanced
    base 2^width, every digit below 2^(width - 1) in absolute value: those
    digits are unique, and the lower ones sum to the residue of x mod
    2^shift of least absolute value."""
    half = 1 << shift >> 1
    low = ((x + half) & ((1 << shift) - 1)) - half
    top = 1 << width - 1
    return ((((x - low) >> shift) + top) & ((1 << width) - 1)) - top


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
    """The operator a placement records, or mat itself; never a placement,
    as embed_on_slots places no placement."""
    return mat if mat.operator is None else mat.operator


class _Labels:
    """What the symmetry search reads of a label tuple that is the row-major
    product of its slots' sites (_label_structure), built with it by
    _tensor_labels.  A label is a tuple of sites, one per slot (a bare label
    is a 1-tuple).  slots holds each slot's sites in order, and offsets per
    slot {site: its position times the slot's stride}, so a label's index
    is the sum of its sites' offsets (mixed radix, the last slot fastest),
    and a site permutation that maps every slot's sites to themselves moves
    indices by sums of offsets (_permuted), with no label looked up.
    classes groups the sites, in order of first appearance, by the slots
    that hold them; only sites of one class can swap.  The search fills in
    perms, the index permutation of each site permutation, and reps, the
    representatives of each group it accepts (_orbit_representatives)."""

    __slots__ = ("slots", "offsets", "classes", "perms", "reps")

    def __init__(self, slots, offsets):
        self.slots, self.offsets, self.perms, self.reps = slots, offsets, {}, {}
        held = {}
        for k, sites in enumerate(slots):
            for x in sites:
                held.setdefault(x, []).append(k)
        classes = {}
        for x, at in held.items():
            classes.setdefault(tuple(at), []).append(x)
        self.classes = list(classes.values())


# label tuple -> its _Labels, or None when it is no row-major product
_structures = {}


def _label_structure(labels):
    """The _Labels of a label tuple, or None unless the labels are exactly
    itertools.product over their slots' sites, each slot's in order of first
    appearance (a bare label is a 1-tuple): one check per tuple, kept.  A
    product that _tensor_labels built is found without one."""
    shape = _structures.get(labels, False)
    if shape is False:
        shape = None
        parts = tuple([lab if isinstance(lab, tuple) else (lab,) for lab in labels])
        slots = tuple(tuple(dict.fromkeys(column)) for column in zip(*parts))
        if math.prod(map(len, slots)) == len(parts):
            tensor = _tensor_labels(slots)[0]
            if tensor == parts:
                shape = _structures[tensor]
        _structures[labels] = shape
    return shape


def _permuted(shape, move):
    """The index of each label's image under the site permutation move, a
    tuple of (site, image) pairs for the sites it moves, for a
    _label_structure, or None when an image is no label; kept on the
    structure.  Each slot maps its sites' offsets to their images' offsets,
    and the image index of a label is the sum of those, so the permutation
    is built slot by slot in row-major order."""
    if shape is None:
        return None
    perm = shape.perms.get(move, False)
    if perm is False:
        perm, image = [0], dict(move)
        for sites, offsets in zip(shape.slots, shape.offsets):
            digits = [offsets.get(image.get(x, x)) for x in sites]
            if None in digits:
                perm = None
                break
            perm = [a + d for a in perm for d in digits]
        shape.perms[move] = perm
    return perm


def _symmetry(mat):
    """What the search keeps on a matrix (_kept): the _label_structure of
    its row labels and of its column labels, and its verdict per site
    permutation (_commutes_with)."""
    rows = _label_structure(mat.row_labels)
    return rows, rows if mat.col_labels is mat.row_labels else _label_structure(mat.col_labels), {}


def _commutes_with(mat, move):
    """Whether mat holds an equal entry at the image of every stored entry
    (i, j) -> v under the site permutation move (_permuted), and maps its
    row and column labels to labels; decided once per matrix and
    permutation, and kept on mat (_symmetry)."""
    rows, cols, verdicts = _kept(mat, "_symmetry", _symmetry)
    held = verdicts.get(move)
    if held is None:
        rperm = _permuted(rows, move)
        cperm = rperm if cols is rows else _permuted(cols, move)
        entries = mat.entries
        # dict equality takes e is v before e == v, value by value
        held = verdicts[move] = (
            rperm is not None
            and cperm is not None
            and {(rperm[i], cperm[j]): v for (i, j), v in entries.items()} == entries
        )
    return held


def _cycle(items):
    """The site permutation that takes each item, a tuple of sites, to the
    next one site by site, and the last to the first (for two items, their
    swap), as _permuted reads it."""
    return tuple(zip(itertools.chain(*items), itertools.chain(*items[1:], items[0])))


def _joined(items, holds):
    """The items (tuples of sites of one size) grouped into the orbits of
    the group that the accepted swaps of two items generate, a swap
    accepted when holds(its _cycle).  The swap of the first two and the
    cycle of all are tested first: they generate every permutation of the
    items, so when both hold the items are one group.  Otherwise each pair
    not yet joined is tested, by union-find."""
    if len(items) < 2 or holds(_cycle(items[:2])) and (len(items) == 2 or holds(_cycle(items))):
        return [items]
    root = list(range(len(items)))

    def find(k):
        while root[k] != k:
            k = root[k]
        return k

    for a, b in itertools.combinations(range(len(items)), 2):
        ra, rb = find(a), find(b)
        if ra != rb and holds(_cycle([items[a], items[b]])):
            root[rb] = ra
    groups = {}
    for k, x in enumerate(items):
        groups.setdefault(find(k), []).append(x)
    return list(groups.values())


def _walk(shape, classes):
    """The least row index of each orbit of the group that classes names,
    in increasing order, for a product _label_structure.  classes is a list
    of lists of blocks, each block a tuple of sites of one class of the
    structure and the blocks of one list of one size; the group permutes
    each block's sites and the blocks of each list, each with every
    permutation.  Two labels lie in one orbit exactly when they have the
    same key at every slot: the list (class) of its site's block, the first
    slot that holds a site of the same block and the first that holds the
    same site.  The walk grows the least labels slot by slot: the least
    label of an orbit extends the least prefix of its prefix's orbit, since
    a smaller image of the prefix would make a smaller image of the label,
    and a least prefix p extends to a least label p + (x,) exactly when x
    is the first site of the slot with its key after p.  So it visits the
    representatives' prefixes times the slot's sites, not every label."""
    block, group = {}, {}
    for c, blocks in enumerate(classes):
        for b in blocks:
            for x in b:
                block[x], group[x] = b, c
    reps = [((), 0)]
    for sites, offsets in zip(shape.slots, shape.offsets):
        grown = []
        for prefix, index in reps:
            held = [block[x] for x in prefix]
            keys = set()
            for x in sites:
                b = block[x]
                key = group[x], held.index(b) if b in held else -1, prefix.index(x) if x in prefix else -1
                if key not in keys:
                    keys.add(key)
                    grown.append((prefix + (x,), index + offsets[x]))
        reps = grown
    return [index for _, index in reps]


def _orbit_representatives(factors):
    """The least row index of each orbit of a label symmetry that every
    factor has, in increasing order; every row index when some factor's row
    or column labels differ from the first factor's row labels, or when
    those labels are not the row-major product of their slots' sites
    (_Labels).

    Both provers carry only these rows, in increasing order, and stop at
    the first that differs (_differing_row).  That is sound for any group G
    of label permutations that every factor commutes with: so do both
    products and the scalars the provers scale them by, so the difference
    Delta of the two scaled sides satisfies Delta[pi i, pi j] = Delta[i, j]
    for every pi in G.  If row r of Delta is nonzero, so is every row of
    r's orbit, the least one included, and that row is at most r.  So the
    sides agree everywhere when they agree on the representative rows, and
    the least differing row is a representative: when every earlier
    representative agrees, every earlier row agrees.  The least differing
    column of the first differing representative is then the first
    differing entry in sorted order, which both provers print as the
    counterexample, the one a full-row product would give.

    G is found among the permutations of the sites, each applied in every
    slot at once.  One maps the labels to labels exactly when it maps every
    slot's sites to themselves, so it only swaps sites that the same slots
    hold (_Labels.classes).  It is accepted when every distinct factor F
    commutes with it: F holds an entry equal to v at the permuted key of
    every stored entry (i, j) -> v, that is F[pi i, pi j] = F[i, j] at every
    key, zero entries included.  A placement F = M (x) I of an operator M
    on some slots (embed_on_slots; both are values, so F stays M (x) I) is
    tested on M: pi acts on F as pi on M's slots times pi on the others, I
    commutes with the latter, and F[(pi r, pi q), (pi c, pi q')] = M[pi r,
    pi c] delta(q, q'), so F commutes with pi exactly when M does, provided
    pi maps M's labels to M's labels.  When it does not, the test on M
    fails, which keeps more rows and never fewer.  M is never itself a
    placement (embed_on_slots places no placement), so a flip M on
    positions (1, 0) and M on (0, 1) are tested once, on M.  Whether a
    matrix commutes with a permutation depends on that matrix alone, so
    each verdict is kept on the matrix tested (_commutes_with), and the
    label data and the representatives of each group on the label tuple
    (_label_structure).

    The search has two levels (_joined).  First the sites of each class are
    joined into blocks by transpositions, and then the blocks of one class
    and one size into lists by block swaps, each site of one block taken to
    the site at the same place in the other.  For the flag kinds, built on
    the involution i -> l + 1 - i, the blocks are the pairs {i, l + 1 - i}
    and the block swaps the double transpositions (i j)(l+1-i l+1-j), which
    no transposition reaches.  At each level the swap of the first two
    items and the cycle of all are tested first, since together they
    generate every permutation of the items; only when one fails is each
    pair tested, by union-find.  The accepted permutations generate, per
    list, every permutation of each block's sites and of the list's blocks,
    and every factor commutes with all of them; the swaps of any pairing
    of two blocks' sites differ by permutations within the blocks, so one
    pairing is tested.  A block of one site has no swap of its own, and
    its swap with another is a transposition, tested at the first level.
    The representatives of that group are found by a walk over the slots
    (_walk), not by a scan of every label.
    """
    labels = factors[0].row_labels
    # placements on one slot tuple share its label tuple
    if any(x is not labels and x != labels for m in factors for x in (m.row_labels, m.col_labels)):
        return range(len(labels))
    shape = _label_structure(labels)
    if shape is None:
        return range(len(labels))
    # each distinct operator, and each factor that places none at full size
    tested = {id(m): m for m in map(_operator, factors)}.values()

    def holds(move):
        return all(_commutes_with(m, move) for m in tested)

    classes = []
    for sites in shape.classes:
        sizes = {}
        for b in _joined([(x,) for x in sites], holds):
            sizes.setdefault(len(b), []).append(tuple(x for x, in b))
        for size, blocks in sizes.items():
            classes.extend(_joined(blocks, holds) if size > 1 else [[b] for b in blocks])
    key = tuple(map(tuple, classes))
    reps = shape.reps.get(key)
    if reps is None:
        reps = shape.reps[key] = _walk(shape, classes)
    return reps


_Shared = collections.namedtuple("_Shared", "factors cleared maps scales reps")


def verify_identity(lhs_factors, rhs_factors, mode="symbolic"):
    """Prove that the products of two ordered factor lists agree, in mode
    "symbolic" (_symbolic_proof) or "multipoint" (_multipoint_proof); any
    other mode, and a side with no factor, raises ValueError before a factor
    is read.  Returns a dict verdict; never raises on inequality.  When the
    labels agree, a failing verdict carries a "counterexample" at the least
    differing entry: its row and column labels (JSON form) and, in symbolic
    mode, both products' canonical strings there, in multipoint mode a
    monomial and its two coefficients.  A single matrix is a one-factor
    list.

    Both modes share the label checks, one setup (each distinct factor's
    clearing, the two sides' scales (_scales) and the orbit
    representatives) and one row loop (_differing_row): it carries each
    representative row once per side, in increasing order, and stops at the
    first that differs.  Each mode keeps only its arithmetic, its row
    product and its scaling: the symbolic prover carries Poly terms
    (_carry), and the multipoint prover the int values of the same entries
    at one integer point (_carry_values)."""
    if mode not in ("symbolic", "multipoint"):
        raise ValueError(f"unknown mode {mode!r}")
    if not lhs_factors or not rhs_factors:
        raise ValueError("each side needs at least one factor")
    mismatch = _label_mismatch(lhs_factors, rhs_factors, mode)
    if mismatch:
        return mismatch
    factors = {id(mat): mat for mat in (*lhs_factors, *rhs_factors)}
    cleared = {key: _clearing(mat) for key, mat in factors.items()}
    maps, scales = _scales(*([cleared[id(mat)] for mat in side] for side in (lhs_factors, rhs_factors)))
    shared = _Shared(factors, cleared, maps, scales, _orbit_representatives(list(factors.values())))
    # each prover is read off the module when it runs, so a patched one runs
    prove = _symbolic_proof if mode == "symbolic" else _multipoint_proof
    return prove(lhs_factors, rhs_factors, shared)


def _symbolic_proof(lhs_factors, rhs_factors, shared):
    """The fraction-free comparison of "identity verification" above: each
    representative row of each side's product of cleared factors, times its
    scale, compared term by term (_differing_row).  Only the entry a failing
    verdict prints is reduced, from each side's carried row over its own
    prod(D)."""
    factors, cleared, maps, scales, reps = shared
    sides = (lhs_factors, rhs_factors)
    # no monomial of either scaled product has a larger total degree, so
    # none carries when it fits; a scale's largest monomial is of its total
    # degree
    top = max(sum(cleared[id(mat)].degree for mat in side) + (max(s) >> DEGREE_SHIFT) for side, s in zip(sides, scales))
    fit(top, "a scaled product")
    views = {key: _Rows(mat) for key, mat in factors.items()}
    found = _differing_row(sides, views, reps, [None if s == {0: 1} else s for s in scales], _carry, mul_terms)
    if found is None:
        return {"holds": True, "mode": "symbolic", "detail": "entrywise canonical equality"}
    i, j, rows, _ = found
    lhs, rhs = (
        format_ratfunc(RatFunc(packed_poly(row.get(j, {})), packed_poly(_power({0: c}, d))))
        for row, (c, d) in zip(rows, maps)
    )
    row, col = lhs_factors[0].row_labels[i], lhs_factors[-1].col_labels[j]
    return {
        "holds": False,
        "mode": "symbolic",
        "detail": f"first mismatch at row {row!r}, col {col!r}",
        "counterexample": {"row": _label_to_json(row), "col": _label_to_json(col), "lhs": lhs, "rhs": rhs},
    }


def _multipoint_proof(lhs_factors, rhs_factors, shared):
    """Proof at one integer point that two ordered matrix products agree,
    with no product of polynomials formed.

    Each factor f is read through its clearing: f * D_f is a polynomial
    matrix, so each side's product P of them is one.  With the two sides'
    scales (_scales), s_lhs = (rc // g) prod(rden - G) and s_rhs = (lc // g)
    prod(lden - G), P_lhs s_lhs - P_rhs s_rhs is the cleared difference
    (lhs - rhs) prod(D_lhs) prod(D_rhs) / G.  An entry of P s is a sum of
    products of one cleared entry per factor and the scale, so its degree
    in a variable is at most the sum over the side's factors of their
    cleared entries' largest degree in it (_bounds) plus the scale's; d_v,
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
    when its value there does.  Both terms are evaluated there in plain
    ints: each cleared entry and scale is evaluated once (_kronecker_value),
    each distinct monomial's exponent at the point summed once over the
    bounded variables' exponent fields, and the row loop (_differing_row)
    carries those values with the int row product (_carry_values) and
    multiplies a row by a scale other than 1 as an int, so a factor's pole
    is no concern.  When every factor entry is homogeneous of degree zero,
    the difference is homogeneous, so h = 1 is a faithful slice and h
    leaves the point.

    The least entry in which the two terms differ lies in the first
    differing representative row (_orbit_representatives), where the loop
    stops.  It is the counterexample, with the least monomial (later
    variables dominating, as in the point) whose two coefficients differ,
    and those coefficients, read off the digits of the two scaled ints.
    """
    factors, cleared, _, scales, reps = shared
    read = {key: _kept(_operator(mat), "_bounds", _bounds) for key, mat in factors.items()}
    sides = (lhs_factors, rhs_factors)
    # per side, each variable's degree: its factors' cleared entries' and
    # its scale's
    degrees = (
        map(sum, zip(*(read[id(mat)].degrees for mat in side), _degrees(scale))) for side, scale in zip(sides, scales)
    )
    variables = frozenset().union(*(x.variables for x in read.values()))
    bounds = {v: max(a, b) for v, a, b in zip(VARS, *degrees) if v in variables}
    drop_h = "h" in bounds and all(x.homogeneous for x in read.values())
    if drop_h:
        del bounds["h"]
    height = sum(
        sum(map(abs, scale.values())) * math.prod(read[id(mat)].height for mat in side)
        for side, scale in zip(sides, scales)
    )
    width = height.bit_length() + 2
    # per bounded variable, its exponent field and its exponent's shift at
    # the point; a variable with no bound is 0 in every entry, or h on its
    # slice, and leaves the point
    fields, size = [], 1
    for v, d in bounds.items():
        fields.append((EXP_SHIFT[VAR_INDEX[v]], width * size))
        size *= d + 1
    # placements of one operator share its clearing, whose entries are
    # each evaluated once, and each distinct monomial's exponent at the
    # point is summed once, over the bounded variables' fields only
    distinct = {id(x): x for x in cleared.values()}.values()
    packed = [*(t for x in distinct for t in x.entries), *scales]
    at = {m: sum([(m >> f & EXP_MASK) * k for f, k in fields]) for m in set().union(*packed)}
    values = {id(t): _kronecker_value(t, at) for t in packed}
    views = {key: _Rows(mat, values) for key, mat in factors.items()}
    scaled_by = [None if values[id(t)] == 1 else values[id(t)] for t in scales]
    found = _differing_row(sides, views, reps, scaled_by, _carry_values, operator.mul)
    slice_note = " on the h = 1 slice (degree-zero homogeneous factors)" if drop_h else ""
    where = f"the Kronecker point (K = {width}, {width * size} bits, bounds {bounds}){slice_note}"
    if found is None:
        return {"holds": True, "mode": "multipoint", "detail": f"cleared sides agree at {where}", "gridSize": 1,
                "degreeBounds": bounds}
    i, j, _, scaled = found
    x, y = (row.get(j, 0) for row in scaled)
    # the lowest digit of x - y is the first in which x and y differ
    shift = ((x - y) & (y - x)).bit_length() - 1
    shift -= shift % width
    position, monomial = shift // width, Poly.const(1)
    for v, d in bounds.items():
        position, e = divmod(position, d + 1)
        monomial = monomial * Poly.var(v, e)
    return {
        "holds": False,
        "mode": "multipoint",
        "detail": f"cleared sides differ at {where}",
        "gridSize": 1,
        "degreeBounds": bounds,
        "counterexample": {
            "row": _label_to_json(lhs_factors[0].row_labels[i]),
            "col": _label_to_json(lhs_factors[-1].col_labels[j]),
            "monomial": str(monomial),
            "lhs": str(_digit(x, shift, width)),
            "rhs": str(_digit(y, shift, width)),
        },
    }
