"""Fixed-point tableaux for the involution-twisted instanton and flag setups.

Instanton side: a tableau has one row per index k in {-w1..-1, 1..w1}.
Positive rows have a single entry from 1..l; the row at -k holds the
complement of row k's entry, in increasing order (length l-1).  A local
combinatorial condition on ordered row pairs produces two charge counts
(the symplectic and orthogonal ones), which drive Betti numbers via
t^(2*charge).

Betti data come from a dynamic program over contents, not from the l^w1
tableaux.  It rests on row locality: the charge and tangent-dimension rules
read only the two rows they compare and whether one lies above the other,
and rows +-i are fixed by the entry e_i alone.  So each statistic used here
(2*charge = 2A + B for sp and B for so, the tangent dimension, the number
of entries equal to 2) equals

    sum_i D(e_i) + sum_{i<j} P(e_i, e_j),

with D read off the l tableaux with w1 = 1 and P off the l^2 with w1 = 2,
both through the library's own functions.  The program inserts the values
v = 1..l in turn; its state is the number of positions filled so far.
Placing c copies of v among n smaller entries interleaves them, and the
pairs (new, old) contribute P(a, v) or P(v, a) by their order.  When, for
each v, P(a, v) = alpha_v and P(v, a) = beta_v for all a < v, the
interleavings sum to the shifted q-binomial

    q^(n*c*min(alpha_v, beta_v)) * [n+c; c] in q^|beta_v - alpha_v|

(Stanley, EC1 1.7).  That precondition is checked on every run; a table
that breaks it raises instead of giving a wrong polynomial.  A run at w1
hands back the series of every smaller w1 as well.  The tables depend only
on (statistic, kind, l) once w1 >= 2, so the process keeps them, and the
small tableaux they are read off (_row_pair_tables, _small_tableaux); the
Poincare polynomial, the reports and the Betti table all read through
_betti_states, which runs the program over the kept tables.  Enumeration
stays for the tableau counts and as the oracle in the tests, behind the
bound MAX_CANDIDATES.

Flag side: rows are indexed by +-1..+-floor(w/2) (plus a center row 0 when
w is odd), each of length one, with entry(-k) = l+1-entry(k).  The content
of a tableau determines the dimension vector it contributes to, and it
depends only on how many positive rows take their entry from each class
{e, l+1-e}.  So the points of a given dimension vector are built directly,
class counts first, with no filter over the l^floor(w/2) candidates; the
filter is the oracle in the tests.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from operator import add, sub

# Most candidate tableaux an enumerating path builds; larger requests are
# rejected before any work.
MAX_CANDIDATES = 10_000


def _check_size(l, w1):
    """The size rule of every tableau count: l >= 2 entry values, w1 >= 0."""
    if l < 2:
        raise ValueError("need at least two entry values")
    if w1 < 0:
        raise ValueError(f"w1 must be non-negative, got {w1}")


def _count_above_bound(digits, count):
    """A count of tableaux, as text, when it exceeds MAX_CANDIDATES; else None.

    digits is the count's log10.  Past 30 digits the text is 'about 10^N'
    and count, a callable that forms the exact number, is not called, so no
    huge number is formed.
    """
    if digits >= 30:
        return f"about 10^{digits:.0f}"
    exact = count()
    return str(exact) if exact > MAX_CANDIDATES else None


def _check_candidates(what, l, n):
    """Raise ValueError, naming the count, when l^n candidates exceed the bound.

    The caller has applied _check_size, so l >= 2 and n >= 0.
    """
    count = _count_above_bound(n * math.log10(l), lambda: l**n)
    if count:
        raise ValueError(
            f"{what} would build {l}^{n} = {count} candidate tableaux, "
            f"above the bound of {MAX_CANDIDATES}"
        )


class InstantonTableau(namedtuple("InstantonTableau", "l w1 rows")):
    """An immutable fixed-point tableau; rows is ((k, entries), ...) sorted by k."""

    __slots__ = ()

    @staticmethod
    def from_positive_entries(l, w1, entries):
        """Build the tableau whose positive rows carry the given entries.

        entries[k-1] is the single entry of row k; row -k gets the
        complement of that entry in 1..l, increasing.
        """
        if len(entries) != w1:
            raise ValueError(f"need {w1} positive-row entries, got {len(entries)}")
        rows = {}
        for k in range(1, w1 + 1):
            e = entries[k - 1]
            if not 1 <= e <= l:
                raise ValueError(f"entry {e} out of range 1..{l}")
            rows[k] = (e,)
            rows[-k] = tuple(x for x in range(1, l + 1) if x != e)
        return InstantonTableau(l, w1, tuple(sorted(rows.items())))

    def row(self, k):
        # rows run -w1..-1, 1..w1, so row k sits at index k + w1 (- 1 if k > 0)
        w1 = self.w1
        if 0 < k <= w1:
            return self.rows[k + w1 - 1][1]
        if -w1 <= k < 0:
            return self.rows[k + w1][1]
        raise KeyError(k)

    def entry(self, k, a):
        """T(k, a), 1-based column; None when the node does not exist."""
        r = self.row(k)
        if 1 <= a <= len(r):
            return r[a - 1]
        return None

    def positive_entry(self, k):
        """The single entry of row |k|."""
        return self.row(abs(k))[0]


def enumerate_instanton(l, w1):
    """All fixed-point tableaux, one per choice of positive-row entries.

    The same tableaux, in the same order, as from_positive_entries over
    itertools.product.  Rows grow from shared prefixes: step k extends each
    (rows -k+1..-1, rows 1..k-1) pair by every entry e, e varying fastest,
    with row -k (the complement of e) in front and row k = (e,) behind.
    """
    _check_size(l, w1)
    _check_candidates("enumerate_instanton", l, w1)
    values = range(1, l + 1)
    layer = [((), ())]
    for k in range(1, w1 + 1):
        rows = [(((-k, tuple(x for x in values if x != e)),), ((k, (e,)),)) for e in values]
        layer = [(lo + neg, pos + hi) for neg, pos in layer for lo, hi in rows]
    return [InstantonTableau(l, w1, neg + pos) for neg, pos in layer]


def condition_met(t, k, l_row, a):
    """The pair condition at node (k, a) against row l_row.

    Holds when the entry T(k, a) beats row l_row in the staggered sense
    (same column for rows below, next column for rows above) and does not
    already appear in row l_row.  Missing nodes fail the comparison.
    """
    val = t.entry(k, a)
    if val is None or l_row == k:
        return False
    if l_row < k:
        other = t.entry(l_row, a)
        beats = other is not None and other < val
    else:
        other = t.entry(l_row, a + 1)
        beats = other is not None and other < val
    return beats and val not in t.row(l_row)


def charge_pair_counts(t):
    """(A, B): satisfied triples (k, l, a) split by l == -k vs l != -k.

    condition_met's rule on the row tuples: T(k, a) beats column a of a row
    below or column a + 1 of a row above, and is not in that row.
    """
    a_diag = 0
    b_off = 0
    rows = t.rows
    for i, (k, row) in enumerate(rows):
        for j, (l_row, other) in enumerate(rows):
            if j == i:
                continue
            # rows are sorted by k, so j < i is a row below
            n = 0
            for val, o in zip(row, other if j < i else other[1:]):
                if o < val and val not in other:
                    n += 1
            if l_row == -k:
                a_diag += n
            else:
                b_off += n
    return a_diag, b_off


def _fold_pairs(diag, off, kind):
    """diag + off / 2 for sp, off / 2 for so.  Each unordered off-diagonal
    pair is counted once from each of its rows, so off must be even."""
    if off % 2:
        raise AssertionError(f"off-diagonal sum {off} is odd")
    if kind == "sp":
        return diag + off // 2
    if kind == "so":
        return off // 2
    raise ValueError(f"unknown kind {kind!r}")


def charge(t, kind):
    return _fold_pairs(*charge_pair_counts(t), kind)


def sp_charge(t):
    return charge(t, "sp")


def so_charge(t):
    return charge(t, "so")


def tangent_dimension(t, kind):
    """Tangent dimension at the fixed point.

    The ordered row pair (k, l) contributes when the signs of k and l agree
    and their positive-row entries do not, or the other way round: (k, -k)
    in full for sp and not at all for so, every other pair half.
    """
    signed = [(s * k, row[0]) for k, row in t.rows[t.w1:] for s in (1, -1)]
    diag = 0
    off = 0
    for k, e in signed:
        for l_row, f in signed:
            if l_row == k:
                continue
            if (k * l_row > 0) != (e == f):
                if l_row == -k:
                    diag += 1
                else:
                    off += 1
    return _fold_pairs(diag, off, kind)


def _charge_exponent(t, kind):
    """The t-exponent 2 * charge."""
    return 2 * charge(t, kind)


def _twos(t, kind):
    """The number of positive rows that carry 2, the same for either kind."""
    return sum(1 for k in range(1, t.w1 + 1) if t.positive_entry(k) == 2)


@functools.lru_cache(maxsize=None)
def _small_tableaux(l, n):
    """The tableaux with one and two positive rows that fix the row-pair
    tables, kept per (l, n) for n = min(w1, 2) and shared by every statistic.

    Returns ({e: tableau}, {(a, b): tableau}); the second is empty when
    n < 2, since no pair of rows then exists, and both are when n = 0.
    """
    build = InstantonTableau.from_positive_entries
    values = range(1, l + 1)
    ones = {e: build(l, 1, (e,)) for e in values} if n >= 1 else {}
    twos = {(a, b): build(l, 2, (a, b)) for a in values for b in values} if n >= 2 else {}
    return ones, twos


@functools.lru_cache(maxsize=None)
def _row_pair_tables(stat, kind, l, n):
    """D(e) and P(a, b) of a row-local statistic stat(t, kind), read off the
    small tableaux once per (stat, kind, l, n)."""
    ones, twos = _small_tableaux(l, n)
    d = {e: stat(t, kind) for e, t in ones.items()}
    p = {(a, b): stat(t, kind) - d[a] - d[b] for (a, b), t in twos.items()}
    return d, p


def _betti_states(stat, kind, l, w1):
    """states[n] of stat's content program for every n <= w1.

    The tables are the same for every w1 >= 2, and at w1 <= 1 no pair term
    enters, so they are kept per min(w1, 2).  The kind is checked here,
    since at w1 = 0 no tableau reaches a statistic.
    """
    if kind not in ("sp", "so"):
        raise ValueError(f"unknown kind {kind!r}")
    _check_size(l, w1)
    return _content_states(l, w1, _row_pair_tables(stat, kind, l, min(w1, 2)))


def _times_one_minus(coeffs, s):
    """coeffs * (1 - q^s)."""
    out = coeffs + [0] * s
    out[s:] = map(sub, out[s:], coeffs)
    return out


def _over_one_minus(coeffs, s):
    """coeffs / (1 - q^s), for a division known to be exact.

    out[i] = coeffs[i] + out[i - s]: a running sum along each residue mod s.
    """
    out = coeffs[: len(coeffs) - s]
    for r in range(s):
        out[r::s] = itertools.accumulate(out[r::s])
    return out


def _content_states(l, w1, tables):
    """The states of the content program after its last round.

    states[n] lists, by exponent, the fillings of n positions with the
    values inserted so far; after the last round that is the series of D + P
    over all l^n tableaux, for every n <= w1.  Table entries are counts,
    hence >= 0, so every exponent is too.
    """
    d, p = tables
    if min((*d.values(), *p.values()), default=0) < 0:
        raise AssertionError("row-pair table has a negative entry")
    states = [[1]] + [[] for _ in range(w1)]
    for v in range(1, l + 1):
        before = {p[a, v] for a in range(1, v) if (a, v) in p}
        after = {p[v, a] for a in range(1, v) if (v, a) in p}
        if len(before) > 1 or len(after) > 1:
            raise AssertionError(
                f"row-pair table is not uniform below value {v}: "
                f"P(a, {v}) takes {sorted(before)}, P({v}, a) takes {sorted(after)}"
            )
        alpha = before.pop() if before else 0
        beta = after.pop() if after else 0
        step, base = abs(beta - alpha), min(alpha, beta)
        dv, pvv = d.get(v, 0), p.get((v, v), 0)
        new = [[] for _ in range(w1 + 1)]
        for n, run in enumerate(states):
            if not run:
                continue
            for c in range(w1 - n + 1):
                if c:  # run becomes states[n] * [n+c; c]
                    if step:
                        run = _over_one_minus(_times_one_minus(run, step * (n + c)), step * c)
                    else:
                        run = [x * (n + c) // c for x in run]
                shift = c * dv + c * (c - 1) // 2 * pvv + n * c * base
                target = new[n + c]
                end = shift + len(run)
                target.extend([0] * (end - len(target)))
                target[shift:end] = map(add, target[shift:end], run)
        states = new
    return states


def _series(run):
    return {e: x for e, x in enumerate(run) if x}


def _dimension(dims):
    """The one exponent of a tangent-dimension series, which must be a monomial."""
    if len(dims) != 1:
        raise AssertionError(f"tangent dimension not constant: {sorted(dims)}")
    return next(iter(dims))


def poincare_polynomial(kind, l, w1):
    """Betti generating function as {exponent: coefficient} in t."""
    return _series(_betti_states(_charge_exponent, kind, l, w1)[w1])


def format_tpoly(poly):
    if not poly:
        return "0"
    parts = []
    for e in sorted(poly):
        c = poly[e]
        if e == 0:
            parts.append(str(c))
        elif e == 1:
            parts.append("t" if c == 1 else f"{c}*t")
        else:
            parts.append(f"t^{e}" if c == 1 else f"{c}*t^{e}")
    return " + ".join(parts)


def fixed_locus_report(kind, l, w1):
    """Count, Betti polynomial and tangent dimension; for so also the components.

    The statistics read their tables off one shared set of l + l^2 small
    tableaux, kept per (l, min(w1, 2)) (_betti_states).  The tangent dimension must come out as a single
    monomial, i.e. constant over all l^w1 tableaux.  For so the report adds
    the number of zero-charge points and, at l = 2, the sizes of the two
    classes of tableaux by the parity of how many positive rows carry 2.
    """
    parity = kind == "so" and l == 2
    stats = (_charge_exponent, tangent_dimension) + ((_twos,) if parity else ())
    poly, dims, *twos = (_series(_betti_states(stat, kind, l, w1)[w1]) for stat in stats)
    report = {"count": l**w1, "poincare": format_tpoly(poly), "dimension": _dimension(dims)}
    if kind == "so":
        report["zeroChargeCount"] = poly.get(0, 0)
        if parity:
            sizes = [0, 0]
            for e, c in twos[0].items():
                sizes[e % 2] += c
            report["parityComponents"] = sizes
    return report


def betti_report(kind, l, w1):
    """Count, Betti polynomial, and common tangent dimension."""
    report = fixed_locus_report(kind, l, w1)
    return {key: report[key] for key in ("count", "poincare", "dimension")}


def betti_rows(kind, l, w1_max):
    """[(w1, dimension, poincare)] of betti_report for w1 = 0..w1_max.

    The row-pair tables are the same for every w1 >= 2, and at w1 <= 1 no
    pair term enters, so one content run at w1_max hands back the series of
    every smaller w1 in its last states: one charge run and one tangent run,
    over the tables kept for (kind, l), serve the whole range.
    """
    polys = _betti_states(_charge_exponent, kind, l, w1_max)
    dims = _betti_states(tangent_dimension, kind, l, w1_max)
    return [
        (w1, _dimension(_series(dims[w1])), format_tpoly(_series(polys[w1])))
        for w1 in range(w1_max + 1)
    ]


def so_component_report(l, w1):
    """Structure of the orthogonal fixed locus.

    Always reports the number of zero-charge points.  For l = 2 the points
    split by the parity of how many positive rows carry entry 2; both
    parity classes are reported with their sizes.
    """
    report = fixed_locus_report("so", l, w1)
    keys = ("count", "zeroChargeCount", "parityComponents")
    return {key: report[key] for key in keys if key in report}


class FlagTableau(namedtuple("FlagTableau", "l w entries")):
    """An immutable flag fixed point; entries is ((k, entry), ...) sorted by k."""

    __slots__ = ()

    def content(self):
        """Dimension vector (v_1..v_{l-1}) determined by the entry counts."""
        counts = [0] * (self.l + 1)
        for _, e in self.entries:
            counts[e] += 1
        v = []
        running = self.w
        for i in range(1, self.l):
            running -= counts[i]
            v.append(running)
        return tuple(v)

    def to_json(self):
        return {"rows": {str(k): [e] for k, e in self.entries}, "v": list(self.content())}


def _content_choices(l, m, need):
    """Every choice of m positive-row entries with need[c] rows in class c.

    Entry e is in class min(e, l+1-e) - 1, with its mirror l+1-e.  The
    choices come in lexicographic order, as itertools.product gives them,
    from a depth-first walk that tries the entries of a position in
    increasing order and takes one only while its class has rows left; every
    branch it enters ends in a choice.
    """
    cls = [None] + [min(e, l + 1 - e) - 1 for e in range(1, l + 1)]
    left = list(need)
    choice, out = [], []
    e = 1
    while True:
        if len(choice) == m:
            out.append(tuple(choice))
            e = l + 1
        while e <= l and not left[cls[e]]:
            e += 1
        if e <= l:
            left[cls[e]] -= 1
            choice.append(e)
            e = 1
        elif choice:
            e = choice.pop()
            left[cls[e]] += 1
            e += 1
        else:
            return out


def _check_content_count(l, m, need, v):
    """Raise ValueError, naming the count, when more choices than
    MAX_CANDIDATES have the class counts need.

    The count is the multinomial m! / prod(need[c]!), times 2 for every row
    whose class has two entries: all but the middle class of an odd l.
    """
    doubled = sum(need[: l // 2])
    digits = (math.lgamma(m + 1) - sum(math.lgamma(n + 1) for n in need)) / math.log(10)
    digits += doubled * math.log10(2)
    totals = itertools.accumulate(need)
    count = _count_above_bound(
        digits, lambda: math.prod(map(math.comb, totals, need)) << doubled
    )
    if count:
        raise ValueError(
            f"flag_fixed_points would build {count} tableaux of content {v}, "
            f"above the bound of {MAX_CANDIDATES}"
        )


def flag_fixed_points(sign, l, w, v=None):
    """Flag fixed-point tableaux for the given twist sign.

    Returns (points, diagnostics).  With v = None the enumeration runs over
    every admissible dimension vector; otherwise only tableaux whose
    content equals v are built.  An incompatible request yields no points
    plus a human-readable diagnostic instead of an exception; a size outside
    l >= 2, w >= 0 raises ValueError, as it does for the Betti data.

    A row and its mirror hold an entry e and l+1-e, so both count one row of
    the class {e, l+1-e}, and v fixes how many of the m = floor(w/2) positive
    rows each class gets.  The points come in the lexicographic order of
    their positive-row entries, and each request is bounded before any
    tableau is built: by l^m for v = None, by its exact point count for a
    given v.
    """
    if sign not in ("plus", "minus"):
        raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")
    _check_size(l, w)
    diagnostics = []
    if sign == "minus" and w % 2:
        diagnostics.append(
            f"the minus twist needs an even total framing dimension, got w = {w}"
        )
        return [], diagnostics
    if w % 2 and l % 2 == 0:
        diagnostics.append(
            f"a center row needs the middle entry value (l+1)/2, but l = {l} is even"
        )
        return [], diagnostics
    m = w // 2
    if v is None:
        _check_candidates("flag_fixed_points", l, m)
        choices = itertools.product(range(1, l + 1), repeat=m)
    else:
        v = tuple(v)
        if len(v) != l - 1:
            diagnostics.append(f"dimension vector must have length {l - 1}, got {len(v)}")
            return [], diagnostics
        full = (w,) + v + (0,)
        bad = [i for i in range(l + 1) if full[i] + full[l - i] != w]
        if bad:
            i = bad[0]
            diagnostics.append(
                f"dimension vector incompatible with the twist: "
                f"v_{i} + v_{l - i} = {full[i] + full[l - i]} != w = {w}"
            )
            return [], diagnostics
        steps = [full[i - 1] - full[i] for i in range(1, l + 1)]
        if any(s < 0 for s in steps):
            diagnostics.append(
                "dimension vector is not a valid content profile "
                f"(some v_i-1 - v_i is negative): {v}"
            )
            return [], diagnostics
        # steps[c] counts the entries equal to c + 1, and the twist makes the
        # counts of mirror entries equal: a class takes steps[c] rows, the
        # middle one of an odd l half its entries, less the center row's
        need = steps[: (l + 1) // 2]
        if l % 2:
            need[-1] //= 2
        _check_content_count(l, m, need, v)
        choices = _content_choices(l, m, need)
    center = ((0, (l + 1) // 2),) if w % 2 else ()
    points = [
        FlagTableau(
            l,
            w,
            tuple((-k, l + 1 - choice[k - 1]) for k in range(m, 0, -1))
            + center
            + tuple((k, choice[k - 1]) for k in range(1, m + 1)),
        )
        for choice in choices
    ]
    return points, diagnostics
