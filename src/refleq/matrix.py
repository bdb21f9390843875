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
the slots, on label tuples built once per slot tuple and shared), and it
builds its full-size entry map only when something reads its entries.
Work that depends only on the entry values, or on the label symmetry, reads
that operator instead of the placement, and keeps what it read on the
operator (_kept): the symmetry verdicts of the search below, the clearing
that both provers read every factor through (_clearing), each distinct
entry cleared once into packed monomials, and the multipoint prover's
bounds, read off those monomials (_bounds).  Both provers read a
placement's rows through one operator-size view (_Rows).

The product of two LabeledMatrix values reduces every entry to canonical
form; the builders use it.  The provers do not.  verify_identity(lhs, rhs,
mode) proves that two ordered factor lists have equal products by one of
two routes with one setup: each distinct factor is cleared of its
denominators once (_clearing), each side is scaled by the other side's
denominators less the part the two share, packed as the clearing is
(_scales), and one loop (_differing_row) takes one row per orbit of the
factors' common label symmetry (_orbit_representatives) in increasing
order, carries it once through each side's factors by its prover's row
product, read off each placement's operator (_Rows), and stops at the first
row whose two scaled sides differ.  The symbolic prover (_symbolic_proof) carries the cleared
entries as packed polynomials (_carry), so it never runs Henrici's sum or
the trial-division screen, and reduces only the entry that a failing
verdict prints.  The multipoint prover (_multipoint_proof) never forms a
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

from .field import NVARS, VAR_INDEX, VARS, Poly, RatFunc, format_poly, format_ratfunc


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
    clearing both provers read it through, its rows of packed terms
    (_clear); _bounds, the multipoint prover's degrees and height of that
    clearing, read off its packed terms (_bounds); and _symmetry, its
    verdict per site transposition (_commutes_with).  verify_identity reads
    all three.
    """

    __slots__ = ("row_labels", "col_labels", "entries", "operator", "offsets", "_cleared", "_bounds", "_symmetry")

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
    and it builds its entries only when they are read, by a product, ==,
    inverse or eval_entries; the provers read placements by row instead
    (_Rows).  mat is an operator, never a placement: placing a placement
    raises ValueError, and a flip is mat placed on reversed positions.  mat
    placed on all of its own slots in order, with the tensor labels as its
    row and column labels, is mat itself.  An empty slot among the others
    leaves nothing placed and a plain empty matrix.
    """
    if mat.operator is not None:
        raise ValueError("cannot place a placement: place its operator")
    slots = tuple(map(tuple, slot_labels))
    tensor, slot_offsets, strides = _tensor_labels(slots)
    positions = tuple(positions)
    n = len(slot_offsets)
    if len(set(positions)) != len(positions) or not all(0 <= p < n for p in positions):
        raise ValueError(f"positions {positions} are not distinct slots of 0..{n - 1}")
    if positions == tuple(range(n)) and mat.row_labels == tensor and mat.col_labels == tensor:
        return mat
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
    return LabeledMatrix._indexed(tensor, tensor, None, mat, _Offsets(rows, cols, digits))


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
# (_clearing), its entries formed as packed monomials and read as stored.
# The scales are packed the same way (_power), and the degree bounds read
# off the packed monomials (_bounds).  The multipoint prover reads the same
# clearing, scales and representatives (verify_identity) and runs the same
# loop on the entries' int values at one point, with its own row product
# (_carry_values, _multipoint_proof).
#
# A packed monomial is one int, each exponent in a field of _BITS bits, in
# VARS order from the lowest, and the total degree above them, so int order
# is field._mono_key order and multiplying two monomials is adding two ints
# (Monagan and Pearce, PASCO 2007).  No field carries into the next while
# every total degree, of a cleared entry and of a scaled product, is below
# 2^_BITS (_fit).


def first_difference(lhs, rhs):
    """The least key at which two entry dicts differ, or None if they agree.
    Neither dict holds a zero, so a key on one side only is a difference."""
    return min((k for k in lhs.keys() | rhs.keys() if lhs.get(k) != rhs.get(k)), default=None)


_Cleared = collections.namedtuple("_Cleared", "c den rows degree entries")

# bits per packed exponent: every suite item at l = 2..4, the acceptance
# battery and the benchmark's workloads reach total degree 8 at most, far
# below the 255 that 8 bits hold, and a larger degree raises (_fit)
_BITS = 8
_FIELDS = tuple(range(0, _BITS * NVARS, _BITS))
_TOP, _MASK = _BITS * NVARS, (1 << _BITS) - 1


def _fit(degree, what):
    """Raise ValueError unless a monomial of total degree `degree` packs
    with no carry at the width _BITS holds when it runs."""
    limit = (1 << _BITS) - 1
    if degree > limit:
        raise ValueError(f"{what} has total degree {degree}, over {limit}, the most a {_BITS}-bit exponent holds")


def _pack(p, k=1):
    """The Poly p times the int k as packed terms, {packed monomial: int}."""
    return {sum(map(operator.lshift, e, _FIELDS)) | sum(e) << _TOP: c * k for e, c in p.terms.items()}


def _exponents(m):
    """The exponent tuple of the packed monomial m."""
    return tuple([m >> at & _MASK for at in _FIELDS])


def _unpack(terms):
    """The Poly of packed terms."""
    return Poly({_exponents(m): c for m, c in terms.items()})


def _degrees(monomials):
    """Each variable's largest exponent over the packed monomials, in VARS
    order, 0 where none holds it."""
    return tuple([max([m >> at & _MASK for m in monomials], default=0) for at in _FIELDS])


def _mul(x, y):
    """The product of two packed terms."""
    t = {}
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            m = m1 + m2
            t[m] = t.get(m, 0) + c1 * c2
    return {m: c for m, c in t.items() if c}


def _power(terms, den):
    """The packed terms times prod p^e over a denominator map den {Poly:
    e}, as packed terms; each key is packed once."""
    return functools.reduce(_mul, [q for p, e in den.items() for q in [_pack(p)] * e], terms)


def _clear(mat):
    """One factor cleared of its denominators.  c * prod p^E over the
    Counter den is a common multiple D of its entry denominators.  rows is
    its stored entries by row, {row: [(col, terms)]}, terms the packed v *
    D of the entry v, one dict per distinct v, entries the list of those
    dicts, and degree the largest total degree of one.  With v's
    denominator c_v * prod p^e, v * D is (c // c_v) v.num times prod p^(E
    - e) over the keys where E > e, its deficit (_power).  Its degree, in
    total and per variable, is exactly deg(v.num) + sum (E - e) deg(p), so
    _fit passes it before any packed product is formed."""
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
    totals = {p: max(map(sum, p.terms)) for p in den}
    degree = max((max(map(sum, n.terms)) + sum(e * totals[p] for p, e in d.items()) for n, _, d, _ in parts), default=0)
    _fit(degree, "a cleared entry")
    for num, k, deficit, terms in parts:
        terms.update(_power(_pack(num, k), deficit))
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
    scale (lc // g) prod(lden - G), each packed as the clearing's entries
    are (_power) once its degree, sum e deg(p), has passed _fit.  Returns
    the two (content, map) pairs and the two packed scales."""
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
    _fit(max(sum(e * p.degree() for p, e in den.items()) for _, den in pairs), "a scale")
    return maps, tuple(_power({0: k}, den) for k, den in pairs)


class _Rows(dict):
    """A factor's rows of the entries a prover carries, {row: [(col, x)]},
    read off the clearing's rows (_Cleared.rows) of the matrix itself or of
    the operator it places, at that operator's size.  With values None, as
    in the symbolic prover, each stored entry is read as stored, the packed
    v * D of a cleared entry; otherwise, as in the multipoint prover, a
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
    """Row i of the product of the cleared factors side, {col: packed
    terms} with no zero term and no empty entry: row i of the first factor
    carried left to right through the others, reading only the factor rows
    it reaches, with the zero terms dropped after each factor; views maps
    the id of each factor to its _Rows.  Each sum accumulates in a plain
    dict and is not normalized.  The symbolic prover's row product."""
    row = {j: x for j, x in views[id(side[0])][i] if x}
    for mat in side[1:]:
        rows, acc = views[id(mat)], {}
        for k, x in row.items():
            for j, y in rows[k]:
                t = acc.get(j)
                if t is None:
                    t = acc[j] = {}
                for m1, c1 in x.items():
                    for m2, c2 in y.items():
                        m = m1 + m2
                        t[m] = t.get(m, 0) + c1 * c2
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
    entry x times the scale s (_mul or operator.mul)."""
    for i in reps:
        rows = [carry(side, views, i) for side in sides]
        scaled = [row if s is None else {j: mul(x, s) for j, x in row.items()} for row, s in zip(rows, scales)]
        if scaled[0] != scaled[1]:
            return i, first_difference(*scaled), rows, scaled
    return None


_Bounds = collections.namedtuple("_Bounds", "degrees variables homogeneous height")


def _bounds(op):
    """What the multipoint prover bounds the operator op by, read off the
    packed monomials of its clearing (_clearing): degrees, per variable in
    VARS order, the largest degree of a cleared entry v * D, its exponent
    field's largest value; variables, those of some v * D or of a key of
    den; homogeneous, whether every entry v is homogeneous of degree zero,
    that is every key of den homogeneous and every monomial of every v * D
    of D's total degree, its total-degree field; and height, the largest row
    sum of ||v * D||_1, the sum of the absolute values of its
    coefficients."""
    cleared = _clearing(op)
    monomials = set().union(*cleared.entries)
    degrees = _degrees(monomials)
    totals = {p: set(map(sum, p.terms)) for p in cleared.den}
    # every v * D of D's degree: a monomial's total degree is its top field
    degree = sum(e * max(totals[p]) for p, e in cleared.den.items())
    homogeneous = all(len(t) == 1 for t in totals.values()) and {m >> _TOP for m in monomials} <= {degree}
    keys = (map(max, zip(*p.terms)) for p in cleared.den)
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
    M fails, which keeps more rows and never fewer.  M is never itself a
    placement (embed_on_slots places no placement), so a flip M on positions
    (1, 0) and M on (0, 1) are tested once, on M.  A pair of sites already
    in one component of the accepted transpositions is not tested: they
    generate the product of the symmetric groups on the components, which is
    the group every holding transposition generates.
    Two labels lie in one orbit of that group exactly when they have the
    same pattern: per slot, the component of its site and the first slot
    that holds the same site.  A label set that is not such a product keeps
    every row, which is the trivial group and sound.  Whether a matrix
    commutes with a transposition depends on that matrix alone, so each
    verdict is kept on the matrix tested (_commutes_with), and the label
    data and the representatives of each partition into components on the
    label tuple (_label_structure).

    Both provers carry only these rows, in increasing order, and stop at
    the first that differs (_differing_row); this is why that is sound.
    Every factor commutes with the group G found here, and so do both
    products and the scalars the provers scale them by.  So the difference
    Delta of the two scaled sides satisfies Delta[pi i, pi j] = Delta[i, j]
    for every pi in G.  If row r of Delta is nonzero, so is every row of r's
    orbit, the least one included, and that row is at most r.  So the
    sides agree everywhere when they agree on the representative rows, and
    the least differing row is a representative: when every earlier
    representative agrees, every earlier row agrees.  The least differing
    column of the first differing representative is then the first
    differing entry in sorted order, which both provers print as the
    counterexample, the one a full-row product would give.
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
    product and its scaling: the symbolic prover carries packed polynomials
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
    # none carries when it fits; a packed scale's largest monomial is of
    # its total degree
    top = max(sum(cleared[id(mat)].degree for mat in side) + (max(s) >> _TOP) for side, s in zip(sides, scales))
    _fit(top, "a scaled product")
    views = {key: _Rows(mat) for key, mat in factors.items()}
    found = _differing_row(sides, views, reps, [None if s == {0: 1} else s for s in scales], _carry, _mul)
    if found is None:
        return {"holds": True, "mode": "symbolic", "detail": "entrywise canonical equality"}
    i, j, rows, _ = found
    lhs, rhs = (
        format_ratfunc(RatFunc(_unpack(row.get(j, {})), _unpack(_power({0: c}, d)))) for row, (c, d) in zip(rows, maps)
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
    bounded variables' packed fields, and the row loop (_differing_row)
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
    # per bounded variable, its packed field and its exponent's shift at
    # the point; a variable with no bound is 0 in every entry, or h on its
    # slice, and leaves the point
    fields, size = [], 1
    for v, d in bounds.items():
        fields.append((_FIELDS[VAR_INDEX[v]], width * size))
        size *= d + 1
    # placements of one operator share its clearing, whose entries are
    # each evaluated once, and each distinct monomial's exponent at the
    # point is summed once, over the bounded variables' fields only
    distinct = {id(x): x for x in cleared.values()}.values()
    packed = [*(t for x in distinct for t in x.entries), *scales]
    at = {m: sum([(m >> f & _MASK) * k for f, k in fields]) for m in set().union(*packed)}
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
            "monomial": format_poly(Poly({tuple(exps.values()): 1})),
            "lhs": str(_digit(x, shift, width)),
            "rhs": str(_digit(y, shift, width)),
        },
    }
