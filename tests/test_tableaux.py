"""Fixed-point tableaux: hand-worked examples plus structural invariants."""

import functools
import itertools
import math
import random
import time
from collections import Counter

import pytest

from oracles import charge_pair_counts_by_nodes, dim_h1_pair, flag_points_by_filter, tangent_dimension_by_pairs
from refleq import tableaux
from refleq.tableaux import (
    FlagTableau,
    InstantonTableau,
    betti_report,
    charge,
    charge_pair_counts,
    condition_met,
    enumerate_instanton,
    flag_fixed_points,
    format_tpoly,
    poincare_polynomial,
    so_charge,
    so_component_report,
    sp_charge,
    tangent_dimension,
)

SMALL_CASES = [(2, 1), (3, 1), (4, 1), (5, 1), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3)]


def test_complement_rows():
    t = InstantonTableau.from_positive_entries(5, 2, (3, 1))
    assert t.row(1) == (3,)
    assert t.row(2) == (1,)
    assert t.row(-1) == (1, 2, 4, 5)
    assert t.row(-2) == (2, 3, 4, 5)
    assert t.entry(-1, 3) == 4
    assert t.entry(1, 2) is None


@pytest.mark.parametrize("w1", [0, 1, 3])
def test_row_lookup_matches_stored_rows(w1):
    t = InstantonTableau.from_positive_entries(4, w1, (2, 4, 1)[:w1])
    assert {k: t.row(k) for k, _ in t.rows} == dict(t.rows)
    for missing in (0, w1 + 1, -w1 - 1):
        with pytest.raises(KeyError):
            t.row(missing)


def test_enumeration_count():
    for l, w1 in SMALL_CASES:
        assert len(enumerate_instanton(l, w1)) == l**w1


@pytest.mark.parametrize("l", range(2, 7))
def test_enumeration_matches_the_validating_constructor(l):
    # the rows built from the complement table are from_positive_entries',
    # tableau by tableau and in itertools.product order
    for w1 in range(5):
        expected = [
            InstantonTableau.from_positive_entries(l, w1, entries)
            for entries in itertools.product(range(1, l + 1), repeat=w1)
        ]
        got = enumerate_instanton(l, w1)
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert a == b
            assert a.rows == b.rows


def test_smallest_example_by_hand():
    # l = 2, w1 = 1: the tableau with positive entry 2 has exactly one
    # satisfied triple, the diagonal one at node (1, 1).
    t = InstantonTableau.from_positive_entries(2, 1, (2,))
    assert t.rows == ((-1, (1,)), (1, (2,)))
    assert condition_met(t, 1, -1, 1)
    assert not condition_met(t, -1, 1, 1)
    assert charge_pair_counts(t) == (1, 0)
    assert sp_charge(t) == 1
    assert so_charge(t) == 0
    # and the entry-1 tableau is the zero-charge point
    t0 = InstantonTableau.from_positive_entries(2, 1, (1,))
    assert charge_pair_counts(t0) == (0, 0)


def test_displayed_example_row_pairs():
    # l = 5, w1 = 2, positive entries (3, 1): node (1, 1) carries entry 3
    # and beats row -1 only; against row -2 the membership clause fails and
    # row 2 has no second column to compare with.
    t = InstantonTableau.from_positive_entries(5, 2, (3, 1))
    assert condition_met(t, 1, -1, 1)
    assert not condition_met(t, 1, -2, 1)
    assert not condition_met(t, 1, 2, 1)
    assert charge_pair_counts(t) == (1, 0)
    assert sp_charge(t) == 1


def pair_count(t, k, l_row):
    return sum(1 for a in range(1, len(t.row(k)) + 1) if condition_met(t, k, l_row, a))


def test_row_pair_symmetry():
    # The satisfied-column count of the ordered pair (k, l) always matches
    # that of (-l, -k).  The matching is a bijection of columns, not the
    # identity, so it is checked at the count level.
    for l, w1 in SMALL_CASES:
        for t in enumerate_instanton(l, w1):
            for k, _ in t.rows:
                for l_row, _ in t.rows:
                    if l_row == k:
                        continue
                    assert pair_count(t, k, l_row) == pair_count(t, -l_row, -k)


def test_charge_bookkeeping():
    # B is even, and the two charges satisfy sp = A + so by construction.
    for l, w1 in SMALL_CASES:
        for t in enumerate_instanton(l, w1):
            a_diag, b_off = charge_pair_counts(t)
            assert b_off % 2 == 0
            assert sp_charge(t) == a_diag + so_charge(t)


def test_sp_poincare_single_row():
    for l in range(2, 7):
        assert poincare_polynomial("sp", l, 1) == {0: 1, 2: l - 1}


def test_poincare_total_mass():
    for l, w1 in [(3, 2), (5, 2), (2, 3)]:
        for kind in ("sp", "so"):
            poly = poincare_polynomial(kind, l, w1)
            assert sum(poly.values()) == l**w1


def assert_statistics_match_the_oracles(t):
    assert charge_pair_counts(t) == charge_pair_counts_by_nodes(t), t.rows
    for kind in ("sp", "so"):
        assert tangent_dimension(t, kind) == tangent_dimension_by_pairs(t, kind), (kind, t.rows)


@pytest.mark.parametrize("l", range(2, 7))
def test_statistics_match_the_accessor_oracles(l):
    for w1 in range(5):
        for t in enumerate_instanton(l, w1):
            assert_statistics_match_the_oracles(t)


def test_statistics_match_the_accessor_oracles_on_random_tableaux():
    rng = random.Random(25)
    for _ in range(200):
        l, w1 = rng.randint(2, 9), rng.randint(0, 8)
        assert_statistics_match_the_oracles(
            InstantonTableau.from_positive_entries(l, w1, [rng.randint(1, l) for _ in range(w1)])
        )


def test_charge_loop_is_condition_met_node_by_node():
    # Rows of any length and content, not only complements, so the loop is
    # held to the public rule itself rather than to the tableaux it meets.
    def tableau(rows):
        w1 = len(rows) // 2
        return InstantonTableau(6, w1, tuple(zip([*range(-w1, 0), *range(1, w1 + 1)], rows)))

    seen = set()
    for val in range(1, 6):
        for below in itertools.product(range(1, 5), repeat=2):
            # node (1, 1) against column 1 of the row below: the nodes of row
            # -1 would compare column a + 1 of a row of length one
            t = tableau([below, (val,)])
            node = condition_met(t, 1, -1, 1)
            assert sum(charge_pair_counts(t)) == node, t.rows
            seen.add(("below", node))
        for y in range(1, 6):
            # node (-1, 1) against column 2 of the row above: the 0 in row 1
            # beats nothing, and row 1's column 2 has no partner below
            t = tableau([(val,), (0, y)])
            node = condition_met(t, -1, 1, 1)
            assert sum(charge_pair_counts(t)) == node, t.rows
            seen.add(("above", node))
    assert len(seen) == 4
    # and on many rows the split by l == -k is condition_met's, node for node
    rng = random.Random(7)
    for _ in range(500):
        rows = [tuple(rng.randint(1, 6) for _ in range(rng.randint(0, 4))) for _ in range(2 * rng.randint(1, 3))]
        t = tableau(rows)
        assert charge_pair_counts(t) == charge_pair_counts_by_nodes(t), rows


def test_dim_h1_four_cases():
    # Same-sign rows deform iff their entries differ; opposite-sign rows
    # deform iff their entries agree.
    t = InstantonTableau.from_positive_entries(5, 2, (3, 1))
    assert dim_h1_pair(t, 1, 2) == 1
    assert dim_h1_pair(t, -1, -2) == 1
    assert dim_h1_pair(t, 1, -2) == 0
    assert dim_h1_pair(t, 1, -1) == 1
    same = InstantonTableau.from_positive_entries(5, 2, (3, 3))
    assert dim_h1_pair(same, 1, 2) == 0
    assert dim_h1_pair(same, 1, -2) == 1
    assert dim_h1_pair(same, 2, -2) == 1


def test_tangent_dimension_constant():
    for l, w1 in SMALL_CASES:
        for t in enumerate_instanton(l, w1):
            assert tangent_dimension(t, "sp") == w1 * (w1 + 1)
            assert tangent_dimension(t, "so") == w1 * (w1 - 1)


def test_betti_report_frozen():
    assert betti_report("sp", 5, 2) == {
        "count": 25,
        "poincare": "1 + 4*t^2 + 10*t^4 + 10*t^6",
        "dimension": 6,
    }
    assert betti_report("so", 5, 2) == {
        "count": 25,
        "poincare": "11 + 14*t^2",
        "dimension": 2,
    }
    assert betti_report("sp", 2, 1) == {"count": 2, "poincare": "1 + t^2", "dimension": 2}


def _clear_kept_tables():
    tableaux._row_pair_tables.cache_clear()
    tableaux._small_tableaux.cache_clear()


def test_reports_build_only_the_small_tableaux(monkeypatch):
    # The content program reads its tables off the l tableaux with w1 = 1
    # and the l^2 with w1 = 2; nothing of size l^w1 is built.  The tables
    # and the small tableaux are kept, so a second report at the same
    # (kind, l), or at another w1 >= 2, builds nothing.
    built = []
    original = InstantonTableau.from_positive_entries

    def counting(l, w1, entries):
        built.append(entries)
        return original(l, w1, entries)

    monkeypatch.setattr(InstantonTableau, "from_positive_entries", staticmethod(counting))
    for l, w1 in ((3, 2), (4, 6), (2, 9)):
        for kind, report in (("sp", lambda: betti_report("sp", l, w1)), ("so", lambda: so_component_report(l, w1))):
            _clear_kept_tables()
            built.clear()
            report()
            assert 0 < len(built) <= l + l * l
            built.clear()
            report()
            poincare_polynomial(kind, l, w1 + 1)
            assert built == []


def test_kept_tables_serve_every_order_of_requests():
    # the tables kept for w1 >= 2 and those for w1 = 0, 1 (no pair term)
    # give the same answers whatever order the requests come in
    _clear_kept_tables()
    expected = {(kind, w1): q_multinomial_poincare(kind, 4, w1) for kind in ("sp", "so") for w1 in range(8)}
    order = [5, 0, 2, 7, 1, 6, 3, 4]
    for kind in ("sp", "so"):
        for w1 in order:
            assert poincare_polynomial(kind, 4, w1) == expected[kind, w1], (kind, w1)
    assert tableaux._row_pair_tables(tableaux._charge_exponent, "sp", 4, 1)[1] == {}


def test_format_tpoly():
    assert format_tpoly({}) == "0"
    assert format_tpoly({0: 3}) == "3"
    assert format_tpoly({0: 1, 2: 4, 6: 1}) == "1 + 4*t^2 + t^6"


def test_so_zero_charge_count():
    # Zero orthogonal charge for two rows: the all-ones tableau plus one
    # point per strictly decreasing entry pair.
    for l in range(2, 7):
        assert so_component_report(l, 2)["zeroChargeCount"] == 1 + l * (l - 1) // 2


def test_so_parity_components():
    for w1 in range(1, 5):
        r = so_component_report(2, w1)
        assert r["parityComponents"] == [2 ** (w1 - 1), 2 ** (w1 - 1)]


# ---------------------------------------------------------------- flags


def test_flag_single_framing():
    pts, diag = flag_fixed_points("plus", 5, 1)
    assert diag == []
    assert len(pts) == 1
    assert dict(pts[0].entries)[0] == 3
    assert pts[0].content() == (1, 1, 0, 0)

    pts, diag = flag_fixed_points("plus", 4, 1)
    assert pts == [] and len(diag) == 1

    pts, diag = flag_fixed_points("minus", 5, 1)
    assert pts == [] and "even" in diag[0]


def test_flag_two_framings():
    # Doubled content pins the single middle-entry point; a 1s window
    # leaves the two mirror choices.
    pts, diag = flag_fixed_points("minus", 5, 2, v=(2, 2, 0, 0))
    assert diag == [] and len(pts) == 1
    assert dict(pts[0].entries)[1] == 3 and dict(pts[0].entries)[-1] == 3

    pts, diag = flag_fixed_points("minus", 5, 2, v=(1, 1, 1, 1))
    assert diag == [] and len(pts) == 2
    assert sorted(dict(p.entries)[1] for p in pts) == [1, 5]

    pts, diag = flag_fixed_points("minus", 5, 2, v=(2, 1, 1, 0))
    assert diag == [] and len(pts) == 2
    assert sorted(dict(p.entries)[1] for p in pts) == [2, 4]

    pts, diag = flag_fixed_points("minus", 4, 2, v=(1, 1, 1))
    assert diag == [] and len(pts) == 2


def test_flag_incompatible_dimension_vector():
    pts, diag = flag_fixed_points("minus", 5, 2, v=(2, 0, 0, 0))
    assert pts == []
    assert "incompatible" in diag[0]
    pts, diag = flag_fixed_points("minus", 5, 2, v=(1, 1))
    assert pts == [] and "length" in diag[0]


def test_flag_union_counts():
    for l in (3, 5):
        pts, diag = flag_fixed_points("minus", l, 4)
        assert diag == [] and len(pts) == l * l
        pts, diag = flag_fixed_points("plus", l, 5)
        assert diag == [] and len(pts) == l * l


def test_flag_union_partitions_by_content():
    # Every enumerated point has a content vector compatible with the twist.
    pts, _ = flag_fixed_points("minus", 4, 4)
    for p in pts:
        v = (4,) + p.content() + (0,)
        assert all(v[i] + v[4 - i] == 4 for i in range(5))
    # and fixing v recovers exactly the matching slice of the union
    by_v = {}
    for p in pts:
        by_v.setdefault(p.content(), []).append(p)
    for v, group in by_v.items():
        got, diag = flag_fixed_points("minus", 4, 4, v=v)
        assert diag == []
        assert len(got) == len(group)


def test_flag_mirror_entries():
    pts, _ = flag_fixed_points("plus", 5, 5)
    for p in pts:
        entry = dict(p.entries)
        for k in (1, 2):
            assert entry[-k] == 5 + 1 - entry[k]
        assert entry[0] == 3


def test_flag_rejects_bad_sign():
    with pytest.raises(ValueError):
        flag_fixed_points("both", 3, 2)


@pytest.mark.parametrize("sign", ["plus", "minus"])
@pytest.mark.parametrize(
    "l,w,message",
    [(-3, 2, "two entry values"), (0, 0, "two entry values"), (1, 4, "two entry values"), (3, -1, "w1 must be")],
)
def test_flag_applies_the_betti_size_rule(sign, l, w, message):
    with pytest.raises(ValueError, match=message):
        flag_fixed_points(sign, l, w)


@pytest.mark.parametrize("l", range(2, 7))
def test_flag_points_by_content_match_the_filter(l):
    # for every admissible v at w <= 8 the points built from the class counts
    # are the filter's, point by point and in its order
    for sign in ("plus", "minus"):
        for w in range(9):
            union, diag = flag_fixed_points(sign, l, w)
            if diag:
                continue
            assert union == flag_points_by_filter(l, w)
            contents = sorted({p.content() for p in union})
            for v in contents:
                got, diag = flag_fixed_points(sign, l, w, v=v)
                assert diag == []
                assert got == flag_points_by_filter(l, w, v), (sign, w, v)
            if l <= 4:
                # and those are all the v the twist admits
                admitted = [
                    v for v in itertools.product(range(w + 1), repeat=l - 1)
                    if not flag_fixed_points(sign, l, w, v=v)[1]
                ]
                assert admitted == contents, (sign, w)


def test_flag_content_guard_names_the_exact_count(monkeypatch):
    # 16 of the 5^4 candidates have content (4, 4, 4, 4): every row takes 1
    # or 5.  The count is known before any tableau is built.
    built = []

    def counting(*fields):
        built.append(fields)
        return FlagTableau(*fields)

    monkeypatch.setattr(tableaux, "FlagTableau", counting)
    monkeypatch.setattr(tableaux, "MAX_CANDIDATES", 15)
    with pytest.raises(ValueError, match=r"would build 16 tableaux of content \(4, 4, 4, 4\), above the bound of 15"):
        flag_fixed_points("minus", 5, 8, v=(4, 4, 4, 4))
    assert built == []
    # the bound itself is admitted, and the l^m guard no longer applies
    monkeypatch.setattr(tableaux, "MAX_CANDIDATES", 16)
    assert len(flag_fixed_points("minus", 5, 8, v=(4, 4, 4, 4))[0]) == len(built) == 16
    with pytest.raises(ValueError, match=r"5\^4 = 625 candidate"):
        flag_fixed_points("minus", 5, 8)


def test_flag_content_guard_on_huge_framings():
    # 2^(10^6) points are refused at once; a content with one point is
    # built even where the l^m candidates are far beyond the bound
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"would build about 10\^301030 tableaux"):
        flag_fixed_points("minus", 3, 2 * 10**6, v=(10**6, 10**6))
    (point,), diag = flag_fixed_points("plus", 3, 2001, v=(2001, 0))
    assert time.perf_counter() - start < 1.0
    assert diag == [] and set(dict(point.entries).values()) == {2}
    assert point.content() == (2001, 0)


# ------------------------------------------------------- content program


def enumerated_fixed_locus(l, w1):
    """Poincare polynomials, tangent dimensions and so components by enumeration."""
    polys = {"sp": {}, "so": {}}
    dims = {"sp": set(), "so": set()}
    zero = 0
    parity = [0, 0]
    for t in enumerate_instanton(l, w1):
        a_diag, b_off = charge_pair_counts(t)
        for kind, e in (("sp", 2 * a_diag + b_off), ("so", b_off)):
            polys[kind][e] = polys[kind].get(e, 0) + 1
            dims[kind].add(tangent_dimension(t, kind))
        zero += b_off == 0
        parity[sum(1 for k in range(1, w1 + 1) if t.positive_entry(k) == 2) % 2] += 1
    return polys, dims, zero, parity


@pytest.mark.parametrize("l", range(2, 7))
def test_content_program_matches_enumeration(l):
    for w1 in range(0, 5):
        polys, dims, zero, parity = enumerated_fixed_locus(l, w1)
        for kind in ("sp", "so"):
            assert poincare_polynomial(kind, l, w1) == polys[kind], (kind, l, w1)
            assert {betti_report(kind, l, w1)["dimension"]} == dims[kind], (kind, l, w1)
        so = so_component_report(l, w1)
        assert so["zeroChargeCount"] == zero
        assert so.get("parityComponents") == (parity if l == 2 else None)


@pytest.mark.parametrize("l", range(2, 9))
def test_row_pair_tables_closed_form(l):
    # 2*charge: D(e) = 2 g(e) with g(e) = [e >= 2] for sp and g = 0 for so,
    # P(a, b) = 2 F(a, b) with F(a, b) = [b >= max(a, 2)].
    values = range(1, l + 1)
    for kind, g in (("sp", lambda e: int(e >= 2)), ("so", lambda e: 0)):
        d, p = tableaux._row_pair_tables(tableaux._charge_exponent, kind, l, 2)
        assert d == {e: 2 * g(e) for e in values}
        assert p == {(a, b): 2 * int(b >= max(a, 2)) for a in values for b in values}


@functools.cache
def q_binomial(n, k):
    """Coefficients of the Gaussian binomial [n; k] by Pascal's rule."""
    if k < 0 or k > n:
        return ()
    if k in (0, n):
        return (1,)
    out = [0] * (k * (n - k) + 1)
    for i, x in enumerate(q_binomial(n - 1, k - 1)):
        out[i] += x
    for i, x in enumerate(q_binomial(n - 1, k)):
        out[i + k] += x
    return tuple(out)


def partitions(n, parts, largest=None):
    """Non-increasing tuples of at most `parts` positive ints summing to n."""
    if n == 0:
        yield ()
    elif parts:
        for first in range(min(n, largest or n), 0, -1):
            for rest in partitions(n - first, parts - 1, first):
                yield (first,) + rest


def q_multinomial_poincare(kind, l, w1):
    """sum over contents c of q^(sum_{v>=2} C(c_v, 2) + [sp](w1 - c_1)) [w1; c]_q.

    Contents that differ by permuting c_2..c_l share a term, so each
    partition of w1 - c_1 is weighted by its number of arrangements.
    """
    poly = {}
    for c1 in range(w1 + 1):
        for rest in partitions(w1 - c1, l - 1):
            arrangements = math.factorial(l - 1) // math.factorial(l - 1 - len(rest))
            for m in Counter(rest).values():
                arrangements //= math.factorial(m)
            coeffs, total = [1], 0
            for c in (c1,) + rest:
                total += c
                factor = q_binomial(total, c)
                prod = [0] * (len(coeffs) + len(factor) - 1)
                for i, x in enumerate(coeffs):
                    for j, y in enumerate(factor):
                        prod[i + j] += x * y
                coeffs = prod
            shift = sum(math.comb(c, 2) for c in rest) + (w1 - c1 if kind == "sp" else 0)
            for i, x in enumerate(coeffs):
                if x:
                    e = 2 * (shift + i)
                    poly[e] = poly.get(e, 0) + arrangements * x
    return poly


@pytest.mark.parametrize("l", range(2, 9))
def test_content_program_matches_q_multinomials(l):
    for w1 in range(0, 13):
        for kind in ("sp", "so"):
            assert poincare_polynomial(kind, l, w1) == q_multinomial_poincare(kind, l, w1), (kind, l, w1)


def test_content_program_inversions():
    # P(a, b) = [a > b] gives alpha = 0 < beta = 1, the opposite order to
    # the charge; its series is the inversion count, the q-multinomial sum.
    def inversions(t, kind):
        e = [t.positive_entry(k) for k in range(1, t.w1 + 1)]
        return sum(1 for i, x in enumerate(e) for y in e[i + 1:] if x > y)

    for l, w1 in ((2, 4), (3, 4), (4, 3)):
        expected = {}
        for t in enumerate_instanton(l, w1):
            expected[inversions(t, "sp")] = expected.get(inversions(t, "sp"), 0) + 1
        assert tableaux._series(tableaux._betti_states(inversions, "sp", l, w1)[w1]) == expected


def test_content_program_rejects_nonuniform_table():
    # P(1, 3) = 1 but P(2, 3) = 0: pairs below the value 3 do not agree.
    def ones_before_threes(t, kind):
        e = [t.positive_entry(k) for k in range(1, t.w1 + 1)]
        return sum(1 for i, x in enumerate(e) for y in e[i + 1:] if (x, y) == (1, 3))

    with pytest.raises(AssertionError, match="not uniform below value 3"):
        tableaux._betti_states(ones_before_threes, "sp", 3, 4)


def test_large_betti_report():
    # about 1.2e18 tableaux; the dimension is w1(w1 +- 1)
    sp = betti_report("sp", 8, 20)
    so = betti_report("so", 8, 20)
    assert sp["count"] == so["count"] == 8**20
    assert (sp["dimension"], so["dimension"]) == (420, 380)
    assert sp["poincare"].startswith("1 + 7*t^2 + ")


def test_betti_rejects_bad_sizes():
    with pytest.raises(ValueError, match="two entry values"):
        betti_report("sp", 1, 2)
    with pytest.raises(ValueError, match="non-negative"):
        so_component_report(3, -1)
    with pytest.raises(ValueError, match="unknown kind"):
        poincare_polynomial("gl", 3, 2)
    with pytest.raises(ValueError, match="unknown kind"):
        tangent_dimension(InstantonTableau.from_positive_entries(3, 1, (2,)), "gl")
    # at w1 = 0 no tableau reaches charge, so the kind is checked up front
    with pytest.raises(ValueError, match="unknown kind 'gl'"):
        poincare_polynomial("gl", 3, 0)


@pytest.mark.parametrize("l", range(2, 7))
def test_charge_exponent_is_twice_the_charge(l):
    # 2 * charge is 2A + B for sp and B for so, with (A, B) the pair counts
    for kind in ("sp", "so"):
        for w1 in (0, 1, 2):
            for t in enumerate_instanton(l, w1):
                a_diag, b_off = charge_pair_counts(t)
                assert tableaux._charge_exponent(t, kind) == 2 * charge(t, kind) == (2 * a_diag if kind == "sp" else 0) + b_off


def test_enumeration_guard(monkeypatch):
    # Oversized requests are refused before any tableau is built.
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"10\^10 = 10000000000 candidate"):
        enumerate_instanton(10, 10)
    with pytest.raises(ValueError, match=r"9\^15 = 205891132094649 candidate"):
        flag_fixed_points("minus", 9, 30)
    with pytest.raises(ValueError, match=r"2\^1000000 = about 10\^301030 candidate"):
        enumerate_instanton(2, 10**6)
    assert time.perf_counter() - start < 1.0
    # the bound itself is admitted
    monkeypatch.setattr(tableaux, "MAX_CANDIDATES", 81)
    assert len(enumerate_instanton(3, 4)) == 81
    assert len(flag_fixed_points("minus", 9, 4)[0]) == 81
    with pytest.raises(ValueError, match=r"3\^5 = 243"):
        enumerate_instanton(3, 5)
