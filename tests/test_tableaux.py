"""Fixed-point tableaux: hand-worked examples plus structural invariants."""

import pytest

from refleq import tableaux
from refleq.tableaux import (
    FlagTableau,
    InstantonTableau,
    betti_report,
    charge_pair_counts,
    condition_met,
    dim_h1_pair,
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


def test_enumeration_count():
    for l, w1 in SMALL_CASES:
        assert len(enumerate_instanton(l, w1)) == l**w1


def test_smallest_example_by_hand():
    # l = 2, w1 = 1: the tableau with positive entry 2 has exactly one
    # satisfied triple, the diagonal one at node (1, 1).
    t = InstantonTableau.from_positive_entries(2, 1, (2,))
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
            for k in t.row_indices():
                for l_row in t.row_indices():
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


def test_betti_report_enumerates_once(monkeypatch):
    calls = []
    original = tableaux.enumerate_instanton

    def counting(l, w1):
        calls.append((l, w1))
        return original(l, w1)

    monkeypatch.setattr(tableaux, "enumerate_instanton", counting)
    rep = betti_report("sp", 3, 2)
    assert calls == [(3, 2)]
    assert rep["poincare"] == format_tpoly(poincare_polynomial("sp", 3, 2))


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


def test_instanton_json():
    t = InstantonTableau.from_positive_entries(2, 1, (2,))
    assert t.to_json() == {
        "rows": {"-1": [1], "1": [2]},
        "spCharge": 1,
        "soCharge": 0,
    }


# ---------------------------------------------------------------- flags


def test_flag_single_framing():
    pts, diag = flag_fixed_points("plus", 5, 1)
    assert diag == []
    assert len(pts) == 1
    assert pts[0].entry(0) == 3
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
    assert pts[0].entry(1) == 3 and pts[0].entry(-1) == 3

    pts, diag = flag_fixed_points("minus", 5, 2, v=(1, 1, 1, 1))
    assert diag == [] and len(pts) == 2
    assert sorted(p.entry(1) for p in pts) == [1, 5]

    pts, diag = flag_fixed_points("minus", 5, 2, v=(2, 1, 1, 0))
    assert diag == [] and len(pts) == 2
    assert sorted(p.entry(1) for p in pts) == [2, 4]

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
        for k in (1, 2):
            assert p.entry(-k) == 5 + 1 - p.entry(k)
        assert p.entry(0) == 3


def test_flag_rejects_bad_sign():
    with pytest.raises(ValueError):
        flag_fixed_points("both", 3, 2)
