"""Labeled sparse matrices over the exact rational-function field.

Rows and columns carry label sequences (ints, strings, or tuples over tensor
slots); all operations check label compatibility instead of bare dimensions.
Storage is dict-of-keys on (row_index, col_index) with zeros dropped, since
the big tensor-product matrices in the relation checks are overwhelmingly
sparse.

verify_identity compares two matrices entrywise by canonical form, which is
a proof in itself, and reports a verdict-style dict so callers can log what
was checked; a failing verdict carries a "counterexample" with the first
mismatching entry in sorted order and both values.  Grid proofs, which never
form the products symbolically, work on factor lists and live in relations
(_verify_product_identity).
"""

from __future__ import annotations

import itertools

from .field import RatFunc, format_ratfunc


def _label_to_json(label):
    if isinstance(label, tuple):
        return [_label_to_json(x) for x in label]
    return label


class LabeledMatrix:
    __slots__ = ("row_labels", "col_labels", "entries", "_row_index", "_col_index")

    def __init__(self, row_labels, col_labels):
        self.row_labels = tuple(row_labels)
        self.col_labels = tuple(col_labels)
        if len(set(self.row_labels)) != len(self.row_labels):
            raise ValueError("duplicate row labels")
        if len(set(self.col_labels)) != len(self.col_labels):
            raise ValueError("duplicate column labels")
        self._row_index = {lab: i for i, lab in enumerate(self.row_labels)}
        self._col_index = {lab: j for j, lab in enumerate(self.col_labels)}
        self.entries = {}

    def set(self, row_label, col_label, value):
        i = self._row_index[row_label]
        j = self._col_index[col_label]
        if value.is_zero():
            self.entries.pop((i, j), None)
        else:
            self.entries[(i, j)] = value

    @staticmethod
    def identity(labels):
        m = LabeledMatrix(labels, labels)
        one = RatFunc.one()
        for i in range(len(m.row_labels)):
            m.entries[(i, i)] = one
        return m

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
        if self.col_labels != other.row_labels:
            raise ValueError(
                "label mismatch in matrix product: "
                f"{self.col_labels[:3]}... vs {other.row_labels[:3]}..."
            )
        by_row = {}
        for (i, k), v in other.entries.items():
            by_row.setdefault(i, []).append((k, v))
        m = LabeledMatrix(self.row_labels, other.col_labels)
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
        m.entries = {k: v for k, v in acc.items() if not v.is_zero()}
        return m

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
        m = LabeledMatrix(self.row_labels, self.col_labels)
        for i in range(n):
            for j in range(n):
                if not inv[i][j].is_zero():
                    m.entries[(i, j)] = inv[i][j]
        return m

    def eval_entries(self, assignment):
        """Evaluate every entry at {var: Fraction} -> dict keyed like entries."""
        return {k: v.eval(assignment) for k, v in self.entries.items()}

    def __repr__(self):
        return f"<LabeledMatrix {len(self.row_labels)}x{len(self.col_labels)}, {len(self.entries)} nonzero>"


def embed_on_slots(mat, positions, slot_labels):
    """Extend mat (acting on the chosen tensor slots, in order) by identity.

    slot_labels: list of label sequences, one per tensor slot.  positions:
    which slots mat acts on.  A tuple label of mat holds one part per
    position and a bare label is one part, so a placed matrix can be placed
    again.  The result acts on the full product with tuple labels.
    """
    n = len(slot_labels)
    full_rows = [tuple(t) for t in itertools.product(*slot_labels)]
    m = LabeledMatrix(full_rows, full_rows)
    others = [i for i in range(n) if i not in positions]

    row_of = {lab: i for i, lab in enumerate(full_rows)}
    sub_rows = mat.row_labels
    sub_cols = mat.col_labels
    other_choices = list(itertools.product(*(slot_labels[i] for i in others)))
    for (si, sj), v in mat.entries.items():
        r_sub = sub_rows[si]
        c_sub = sub_cols[sj]
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
            m.entries[(row_of[tuple(full_r)], row_of[tuple(full_c)])] = v
    return m


def swap_conjugate(mat):
    """P * mat * P for mat on a flip-closed set of pair labels."""
    m = LabeledMatrix(mat.row_labels, mat.col_labels)
    for (i, j), v in mat.entries.items():
        a, b = mat.row_labels[i]
        c, d = mat.col_labels[j]
        m.set((b, a), (d, c), v)
    return m


# ---------------------------------------------------------------------------
# identity verification


def first_difference(lhs, rhs):
    """The least key at which two entry dicts differ, or None if they agree.
    Neither dict holds a zero, so a key on one side only is a difference."""
    return min((k for k in lhs.keys() | rhs.keys() if lhs.get(k) != rhs.get(k)), default=None)


def verify_identity(lhs, rhs):
    """Check lhs == rhs entrywise by canonical form.  Returns a dict verdict;
    never raises on inequality.  When the labels agree, a failing verdict
    carries a "counterexample": row and column labels (JSON form) and the
    canonical strings of both sides at the first differing key."""
    if lhs.row_labels != rhs.row_labels or lhs.col_labels != rhs.col_labels:
        return {
            "holds": False,
            "mode": "symbolic",
            "detail": "label mismatch between the two sides",
        }
    if lhs.entries == rhs.entries:
        return {"holds": True, "mode": "symbolic", "detail": "entrywise canonical equality"}
    i, j = first_difference(lhs.entries, rhs.entries)
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
