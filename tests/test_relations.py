"""Tests for the exchange-identity verdicts in refleq.relations."""

import collections
import itertools
import json
import math
import operator
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    d_degree_bounds,
    edited,
    embed_by_tuples,
    embed_eagerly,
    entry,
    fold_and_compare,
    full_row_grid_proof,
    full_size_orbit_representatives,
    linear_combination,
    multipoint_statistics,
    parse_poly,
    parse_ratfunc,
    polynomial_counterexample,
)
from refleq import acceptance, field, matrix, relations, rkmat
from refleq.field import H, U, U1, U2, VARS, Poly, RatFunc, format_ratfunc, poly_div_exact, poly_gcd
from refleq.matrix import (
    LabeledMatrix,
    _carry_values,
    _clear,
    _clearing,
    _exponents,
    _kronecker_value,
    _label_to_json,
    _multipoint_proof,
    _orbit_representatives,
    _pack,
    _Rows,
    _unpack,
    embed_on_slots,
    verify_identity,
)
from refleq.relations import (
    EXCHANGE_VARIANTS,
    _chain_monodromies,
    _constant_term_factors,
    _derivation_factors,
    _exchange_factors,
    _factorization_factors,
    _fold,
    _reflection_factors,
    _ybe_factors,
    check_boundary_constant_term,
    check_boundary_factorization,
    check_chain_reflection,
    check_k_unitarity,
    check_monodromy_exchange,
    check_r_unitarity,
    check_reflection,
    check_twisted_plain_derivation,
    check_ybe,
    make_scenario,
    reflection_expectation,
    reflection_sides,
    run_suite,
    run_suite_item,
    suite_items,
)
from refleq.rkmat import (
    KINDS,
    chain_factors,
    cross_r,
    embedded_product,
    k_matrix,
    k_matrix_opposite_placement,
    monodromy_t,
    pair_labels,
    r_bullet_sigma_opposite,
    site_labels,
    yang_r,
)

# canonical entry strings of symbolic products, pinned before RatFunc products
# and sums stopped taking the gcd of the full result
CANONICAL_PRODUCTS = json.loads((Path(__file__).parent / "products_canonical.json").read_text())


def _held_to_the_oracle(lhs, rhs, shared):
    """The multipoint prover's verdict on two factor lists, held to
    oracles.full_row_grid_proof, which multiplies every row at every point
    of the grid: the same holds and degreeBounds.  A failing verdict names
    the least entry whose cleared polynomials differ, so it comes no later
    than the entry the grid finds at its first differing point, and its
    counterexample replays on the expanded cleared sides
    (oracles.polynomial_counterexample)."""
    v = _multipoint_proof(lhs, rhs, shared)
    grid = full_row_grid_proof(lhs, rhs)
    assert (v["holds"], v.get("degreeBounds")) == (grid["holds"], grid.get("degreeBounds"))
    if "counterexample" in v:
        rows = [_label_to_json(lab) for lab in lhs[0].row_labels]
        cols = [_label_to_json(lab) for lab in lhs[-1].col_labels]
        at = lambda cex: (rows.index(cex["row"]), cols.index(cex["col"]))
        assert at(v["counterexample"]) <= at(grid["counterexample"])
        assert v["counterexample"] == polynomial_counterexample(lhs, rhs, v)
    return v


def _grid_proof(lhs, rhs):
    """The multipoint verdict on two factor lists, which the autouse fixture
    below holds to the oracle (_held_to_the_oracle)."""
    return verify_identity(lhs, rhs, "multipoint")


def _assert_proved_alike(lhs, rhs):
    """_grid_proof on two factor lists, with the symbolic prover's holds;
    returns the multipoint verdict."""
    v = _grid_proof(lhs, rhs)
    assert v["holds"] == verify_identity(lhs, rhs)["holds"]
    return v


@pytest.fixture(autouse=True)
def _grid_proofs_match_the_full_row_oracle(monkeypatch):
    # every multipoint proof that a test here runs through
    # matrix.verify_identity is held to the oracle as well; the fixture's
    # value lists the factor lists of the proofs it held
    held = []

    def holding(lhs, rhs, shared):
        held.append((lhs, rhs))
        return _held_to_the_oracle(lhs, rhs, shared)

    monkeypatch.setattr(matrix, "_multipoint_proof", holding)
    return held


def _unheld(monkeypatch):
    """Run later multipoint proofs of this test on the prover itself, not
    held to the oracle: for a test that counts what the prover calls, or
    that reads a verdict the oracle has already been held to."""
    monkeypatch.setattr(matrix, "_multipoint_proof", _multipoint_proof)


def _carried_at(factors, rows, values):
    """The given rows of the product of the cleared factors at a point,
    {row: {col: int}} with no zero entry and no empty row: each row carried
    by matrix._carry_values on the int values there of the entries of each
    factor's clearing (matrix._clearing), as the multipoint prover hands
    them.  values maps the id of each cleared entry's packed terms to its
    value."""
    views = {id(m): _Rows(m, values) for m in factors}
    carried = {i: _carry_values(factors, views, i) for i in rows}
    return {i: row for i, row in carried.items() if row}


# each prover's row product (matrix._differing_row is handed it)
_ROW_PRODUCTS = {"symbolic": "_carry", "multipoint": "_carry_values"}


def _recording_carry(monkeypatch, mode="symbolic"):
    """Record every row that the row product of the prover of mode carries
    (matrix._carry or matrix._carry_values), as (side, row) with side the
    tuple of the factors' ids, in call order; the other prover's row
    product fails when called."""
    calls = []
    name = _ROW_PRODUCTS[mode]
    real = getattr(matrix, name)

    def recording(side, views, i):
        calls.append((tuple(map(id, side)), i))
        return real(side, views, i)

    def other(*args):
        raise AssertionError(f"the {mode} prover ran the other prover's row product")

    (other_name,) = set(_ROW_PRODUCTS.values()) - {name}
    monkeypatch.setattr(matrix, name, recording)
    monkeypatch.setattr(matrix, other_name, other)
    return calls


def _canonical_rows(m):
    return [
        [_label_to_json(m.row_labels[i]), _label_to_json(m.col_labels[j]), format_ratfunc(v)]
        for (i, j), v in sorted(m.entries.items())
    ]


@pytest.mark.parametrize("kind", KINDS)
def test_reflection_side_strings_are_pinned(kind):
    lhs, rhs = reflection_sides(kind, 2)
    assert _canonical_rows(lhs) == CANONICAL_PRODUCTS[f"reflection {kind} 2 lhs"]
    assert _canonical_rows(rhs) == CANONICAL_PRODUCTS[f"reflection {kind} 2 rhs"]


def test_monodromy_strings_are_pinned():
    assert _canonical_rows(monodromy_t(2, U, [U1])) == CANONICAL_PRODUCTS["monodromy_t 2 u [u1]"]


class TestYangBaxter:
    @pytest.mark.parametrize("l", [2, 3])
    def test_chain_family_symbolic(self, l):
        v = check_ybe(l)
        assert v["holds"] and v["mode"] == "symbolic"
        assert v["identity"] == "yangBaxter" and v["l"] == l

    @pytest.mark.parametrize("l", [2, 3, 4])
    def test_chain_family_multipoint(self, l):
        v = check_ybe(l, mode="multipoint")
        assert v["holds"] and v["mode"] == "multipoint"
        assert v["gridSize"] >= 1 and "degreeBounds" in v

    def test_modes_agree_at_l3(self):
        assert check_ybe(3)["holds"] == check_ybe(3, mode="multipoint")["holds"]

    @staticmethod
    def _factors(builder):
        """check_ybe's two factor lists at l = 2 for the family builder(l, w)."""
        slots = [site_labels(2)] * 3
        r12 = embed_on_slots(builder(2, U1 - U2), (0, 1), slots)
        r13 = embed_on_slots(builder(2, U1), (0, 2), slots)
        r23 = embed_on_slots(builder(2, U2), (1, 2), slots)
        return [r12, r13, r23], [r23, r13, r12]

    def test_constant_identity_builder(self):
        lists = self._factors(lambda l, w: LabeledMatrix.identity(pair_labels(l)))
        assert verify_identity(*lists)["holds"]
        assert verify_identity(*lists, mode="multipoint")["holds"]

    def test_shifted_family_fails_both_modes(self):
        # shifting every spectral argument by h breaks the additivity the
        # identity depends on, so this must fail in both modes
        lists = self._factors(lambda l, w: yang_r(l, w + H))
        sym = verify_identity(*lists)
        assert not sym["holds"]
        assert "row" in sym["counterexample"] and "lhs" in sym["counterexample"]
        mp = verify_identity(*lists, mode="multipoint")
        assert not mp["holds"] and "monomial" in mp["counterexample"]

    def test_dimension_bound_is_the_only_size_limit(self):
        # l = 4 holds in both modes; l = 7 has tensor dimension 7^3 = 343
        assert check_ybe(4)["holds"] and check_ybe(4, mode="multipoint")["holds"]
        with pytest.raises(ValueError, match="343 > 256"):
            check_ybe(7, mode="multipoint")

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            check_ybe(2, mode="numeric")


def one_entry(value):
    """The 1 x 1 matrix holding value, on the label 1."""
    return LabeledMatrix([1], [1], {(1, 1): value})


def label_index(mat, row, col):
    """The index pair of mat's entry at row and col labels."""
    return mat.row_labels.index(row), mat.col_labels.index(col)


class TestGridEngine:
    @staticmethod
    def _square_pair(rng, labels):
        h = RatFunc.var("h")
        u = RatFunc.var("u")
        pair = []
        for diag in (h, u / (u + h)):
            entries = {}
            for r in labels:
                for c in labels:
                    if rng.random() < 0.5:
                        entries[r, c] = RatFunc.const(rng.randint(-4, 4))
            for lab in labels:
                entries[lab, lab] = entries.get((lab, lab), RatFunc.zero()) + diag
            pair.append(LabeledMatrix(labels, labels, entries))
        return pair

    def test_symbolic_and_multipoint_agree_on_truth(self):
        a, b = self._square_pair(random.Random(77), [1, 2, 3])
        s = linear_combination((1, a), (1, b))
        lhs = s * s
        rhs = linear_combination((1, a * a), (1, a * b), (1, b * a), (1, b * b))
        assert verify_identity([lhs], [rhs])["holds"]
        assert verify_identity([s, s], [rhs])["holds"]
        v = _grid_proof([lhs], [rhs])
        assert v["holds"] and v["gridSize"] >= 1
        assert _grid_proof([s, s], [rhs])["holds"]

    def test_detects_failure_in_both_modes(self):
        labels = [1, 2]
        a = LabeledMatrix.identity(labels)
        ones = {(x, x): RatFunc.one() for x in labels}
        b = LabeledMatrix(labels, labels, {**ones, (1, 2): parse_ratfunc("h / (u + h)")})
        for v in (verify_identity([a], [b]), _grid_proof([a], [b])):
            assert not v["holds"]
            assert "detail" in v

    def test_counterexample_is_the_least_differing_entry(self):
        # the lhs is scaled by b's denominator u1 + h, so the cleared sides
        # are (u1 + h) I and (u1 + h) b: they differ in three entries, and
        # both provers name the least (row, col), here labels ("b", "b"),
        # where they hold u1 + h and 7 u1 + 7 h.  h comes before u1 at the
        # point, so h is the least monomial whose coefficients differ.  On
        # the grid, both sides vanish at the first point, h = u1 = 0, and
        # differ in two entries at the second, h = 0 and u1 = 1
        labels = ["c", "b", "a"]
        ident = LabeledMatrix.identity(labels)
        ones = {(x, x): RatFunc.one() for x in labels}
        edits = {("a", "c"): U1 / (U1 + H), ("b", "a"): H, ("b", "b"): RatFunc.const(7)}
        b = LabeledMatrix(labels, labels, {**ones, **edits})
        v = _grid_proof([ident, ident], [b, ident])
        assert not v["holds"] and v["gridSize"] == 1
        cex = v["counterexample"]
        assert cex == {"row": "b", "col": "b", "monomial": "h", "lhs": "1", "rhs": "7"}
        grid = full_row_grid_proof([ident, ident], [b, ident])
        assert grid["gridSize"] == 2
        assert grid["counterexample"] == {"row": "b", "col": "b", "lhs": "1", "rhs": "7", "point": "{h=0, u1=1}"}
        sym = verify_identity([ident, ident], [b, ident])["counterexample"]
        assert (sym["row"], sym["col"]) == (cex["row"], cex["col"])

    def test_grid_crosses_poles(self):
        # the grid {0, 1, ...} per variable holds points with u1 = u2, where
        # the entry has a pole; the engine evaluates the cleared polynomials
        m = one_entry(H / (RatFunc.var("u1") - RatFunc.var("u2")))
        assert _grid_proof([m], [m])["holds"]

    def test_pole_in_a_later_variable(self):
        m = one_entry(RatFunc.var("u1") + RatFunc.one() / (RatFunc.var("u2") - RatFunc.const(10201)))
        v = _grid_proof([m], [m])
        assert v["holds"] and v["degreeBounds"] == {"u1": 1, "u2": 1}

    def test_pole_at_a_constant(self):
        m = one_entry(RatFunc.one() / (RatFunc.var("u1") - RatFunc.const(97)))
        v = _grid_proof([m], [m])
        assert v["holds"] and v["degreeBounds"] == {"u1": 0}

    def test_leading_coefficient_that_vanishes(self):
        # the leading coefficient of the denominator in u2 vanishes at u1 = 97
        m = one_entry(parse_ratfunc("1 / (u1*u2 - 97*u2 - 1)"))
        assert _grid_proof([m], [m])["holds"]

    @settings(max_examples=80, deadline=None)
    @given(
        forms=st.lists(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)),
            min_size=1, max_size=3,
        ),
        residual=st.none() | st.tuples(
            st.tuples(*[st.integers(-2, 2)] * 3), st.tuples(*[st.integers(-2, 2)] * 3),
            st.tuples(*[st.integers(0, 1)] * 3),
        ),
        h_on_grid=st.booleans(),
    )
    def test_grid_verdict_equals_the_symbolic_one_across_poles(self, forms, residual, h_on_grid):
        # every denominator of m vanishes at a point of the grid: m m = m^2
        # must hold, and fail with one entry of m^2 perturbed, in both modes
        grid_vars = ("h", "u1", "u2") if h_on_grid else ("u1", "u2")
        h, u1, u2 = (Poly.var(v) for v in ("h", "u1", "u2"))

        def point(ks):
            return {"h": 1, **{v: k for v, k in zip(("h", "u1", "u2"), ks) if v in grid_vars}}

        def linear(a, b, c):
            return u1.scale(a) + u2.scale(b) + h.scale(c)

        dens, poles = [], []
        for a, b, *ks in forms:
            p = point(ks)
            # p_h (a u1 + b u2) - (a p_u1 + b p_u2) h vanishes at p
            den = linear(a, b, 0).scale(p["h"]) - h.scale(a * p["u1"] + b * p["u2"])
            assume(not den.is_zero())
            dens.append(den)
            poles.append(p)
        if residual is not None:
            f, g = linear(*residual[0]), linear(*residual[1])
            p = point(residual[2])
            r = (f * g).scale(p["h"] ** 2) - (h * h).scale(f.subs(p) * g.subs(p))
            assume(not f.is_zero() and not g.is_zero() and not r.is_zero())
            dens.append(r)
            poles.append(p)
        labels = list(range(len(dens) + 1))
        # degree-zero homogeneous, so h may be off the grid
        entries = {(i, i): RatFunc(Poly.var("h", den.degree()), den) for i, den in enumerate(dens)}
        entries[len(dens), len(dens)] = RatFunc.var("u1") if h_on_grid else RatFunc.one()
        m = LabeledMatrix(labels, labels, entries)
        square = m * m
        v = _grid_proof([m, m], [square])
        assert v["holds"] and verify_identity([m, m], [square])["holds"]
        bounds = v["degreeBounds"]
        for den, p in zip(dens, poles):
            assert den.subs(p) == 0 and all(x <= bounds.get(var, 1) for var, x in p.items())
        bad = edited(square, {(0, 0): square.entries[0, 0] + entries[0, 0]})
        w = _grid_proof([m, m], [bad])
        assert not w["holds"] and not verify_identity([m, m], [bad])["holds"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_vanishing_scale_leaves_no_row(self, kind):
        # where a side's scale vanishes, that side's cleared product is zero:
        # it has no row, not rows of explicit zeros.  The n = 1 factorization
        # reaches such points of the oracle's grid for every kind
        lhs, rhs = _factorization_factors(kind, 2, 1)
        assert _grid_proof(lhs, rhs)["holds"]

    def test_a_scale_that_vanishes_at_the_first_point(self):
        # x y = 1 with x = 1 / (u1 + h) and y = u1 + h: the rhs scale is
        # u1 + h, 0 at the first grid point, where the cleared lhs is 0 too,
        # so the grid goes on; the Kronecker point is no such point
        x = one_entry(RatFunc.one() / (U1 + H))
        y = one_entry(U1 + H)
        one = one_entry(RatFunc.one())
        v = _grid_proof([x, y], [one])
        assert v["holds"] and v["gridSize"] == 1
        assert full_row_grid_proof([x, y], [one])["gridSize"] > 1

    def test_each_distinct_entry_is_evaluated_once_per_point(self, monkeypatch):
        # embed_on_slots shares one RatFunc among many entries and factors,
        # and the engine evaluates each distinct cleared entry of each
        # distinct operator once at the Kronecker point, and each side's
        # scale once, and reads each distinct monomial of those once, into
        # one map of exponents at the point that every evaluation shares;
        # the rhs places R12's operator a second time
        labels = site_labels(2)
        slots = [labels] * 3
        u1, u2 = RatFunc.var("u1"), RatFunc.var("u2")
        r12 = embed_on_slots(yang_r(2, u1 - u2), (0, 1), slots)
        r13 = embed_on_slots(yang_r(2, u1), (0, 2), slots)
        r23 = embed_on_slots(yang_r(2, u2), (1, 2), slots)
        again = embed_on_slots(yang_r(2, u1 - u2), (0, 1), slots)
        assert again is not r12 and again.operator is r12.operator
        factors = [r12, r13, r23]
        distinct = {id(v) for m in factors for v in m.entries.values()}
        stored = sum(len(m.entries) for m in factors)
        assert len(distinct) < stored
        cleared = {id(t) for m in factors for t in _clearing(m).entries}
        calls, points = [], []
        real = matrix._kronecker_value

        def counting(terms, at):
            calls.append(terms)
            points.append(at)
            return real(terms, at)

        def no_tuple(m):
            raise AssertionError("the multipoint prover unpacked an exponent tuple")

        _unheld(monkeypatch)
        monkeypatch.setattr(matrix, "_kronecker_value", counting)
        monkeypatch.setattr(matrix, "_exponents", no_tuple)
        v = verify_identity(factors, [r23, r13, again], "multipoint")
        assert v["holds"] and v["gridSize"] == 1
        entry_calls = [id(t) for t in calls if id(t) in cleared]
        assert sorted(entry_calls) == sorted(cleared)
        assert len(calls) - len(entry_calls) == 2
        assert len(cleared) <= len(distinct)
        # one exponent per distinct monomial: its exponents times the shifts
        # of the bounded variables, u1 at K and u2 at K (d_u1 + 1), with h
        # off the point on its slice
        assert {id(at) for at in points} == {id(points[0])}
        at = points[0]
        assert sorted(at) == sorted(set().union(*calls))
        width = int(v["detail"].split("K = ")[1].split(",")[0])
        shifts = {"u1": width, "u2": width * (v["degreeBounds"]["u1"] + 1)}
        assert set(v["degreeBounds"]) == set(shifts)
        assert at == {m: sum(e * shifts.get(x, 0) for x, e in zip(VARS, _exponents(m))) for m in at}

    def test_kronecker_value_is_the_value_at_powers_of_two(self):
        p = parse_poly("3*u1^2*u2 - 5*h*u1 + 7*u2^3 - 1")
        for shifts in ([0, 0, 4, 9, 0, 0], [2, 0, 1, 3, 0, 0], [0] * 6):
            point = {v: 1 << s for v, s in zip(VARS, shifts)}
            at = {m: sum(map(operator.mul, _exponents(m), shifts)) for m in _pack(p)}
            assert _kronecker_value(_pack(p), at) == p.subs(point)

    def test_cleared_rows_are_the_values_times_d(self):
        # value = v(x) * D(x) for every entry v, with D = c * prod den the
        # factor's common denominator; D vanishes at (h, u1, u2) = (1, 7, 2)
        # and at (1, 3, -3), and the cleared rows are integers there too
        labels = [1, 2]
        m = LabeledMatrix(labels, labels, {
            (1, 1): parse_ratfunc("h / (u1 - 7)"),
            (1, 2): parse_ratfunc("u2 / (u1 + u2)"),
            (2, 1): parse_ratfunc("u1 / 3"),
            (2, 2): RatFunc.const(Fraction(-5, 6)),
        })
        cleared = _clearing(m)
        assert cleared.c == 6
        d = Poly.const(cleared.c)
        for p, e in cleared.den.items():
            d = d * p ** e
        for point in ({"h": 1, "u1": 3, "u2": 2}, {"h": 1, "u1": 7, "u2": 2}, {"h": 1, "u1": 3, "u2": -3}):
            values = {id(t): _unpack(t).subs(point) for t in cleared.entries}
            assert all(type(n) is int for n in values.values())
            product = _carried_at([m, m, m], range(len(labels)), values)
            assert all(type(n) is int for row in product.values() for n in row.values())
            dx = d.subs(point)
            if not dx:
                continue
            assert {(i, j): values[id(t)] for i, row in cleared.rows.items() for j, t in row} == {
                k: x * dx for k, x in m.eval_entries(point).items()
            }
            assert {(i, j): n for i, row in product.items() for j, n in row.items()} == {
                k: x * dx ** 3 for k, x in (m * m * m).eval_entries(point).items() if x
            }
        assert d.subs({"h": 1, "u1": 7, "u2": 2}) == d.subs({"h": 1, "u1": 3, "u2": -3}) == 0

    def test_eval_at_an_integer_point_is_a_fraction(self):
        point = {"h": 1, "u": 4, "u1": 3, "u2": 2}
        for text in ("u1 / (u1 - 7)", "u1 + u2", "2", "0", "h / (2*u + h)"):
            x = parse_ratfunc(text).eval(point)
            assert type(x) is Fraction, text
        assert parse_ratfunc("h / (2*u + h)").eval(point) == Fraction(1, 9)
        assert Poly.var("u1").subs(point) == 3 and type(Poly.var("u1").subs(point)) is int
        assert type(Poly.var("u1").subs({**point, "u1": Fraction(3)})) is Fraction


# full multipoint verdicts.  holds was pinned while the grid engine
# multiplied matrices of Fractions; degreeBounds is the bound with the table
# forms the two sides' denominators share cancelled.  The proof evaluates at
# one Kronecker point, whose K and size in bits the detail names.  A failing
# verdict's counterexample is a monomial of the least differing entry and its
# two coefficients in the cleared sides.  The verdicts must match byte for
# byte.
MULTIPOINT_VERDICTS = {
    "ybe-l3": (
        lambda: check_ybe(3, mode="multipoint"),
        {
            "identity": "yangBaxter", "l": 3, "holds": True, "mode": "multipoint",
            "detail": "cleared sides agree at the Kronecker point (K = 7, 63 bits, bounds {'u1': 2, 'u2': 2}) "
                      "on the h = 1 slice (degree-zero homogeneous factors)",
            "gridSize": 1, "degreeBounds": {"u1": 2, "u2": 2}, "family": "chain",
        },
    ),
    "reflection-flagMinus-l2-oppositePlacement": (
        lambda: check_reflection("flagMinus", 2, mode="multipoint", boundary="oppositePlacement"),
        {
            "identity": "reflection", "l": 2, "holds": False, "mode": "multipoint",
            "detail": "cleared sides differ at the Kronecker point (K = 10, 160 bits, bounds {'u1': 3, 'u2': 3}) "
                      "on the h = 1 slice (degree-zero homogeneous factors)",
            "gridSize": 1, "degreeBounds": {"u1": 3, "u2": 3},
            "counterexample": {"row": [1, 1], "col": [1, 2], "monomial": "u1^2", "lhs": "0", "rhs": "-4"},
            "kind": "flagMinus", "boundary": "oppositePlacement",
        },
    ),
    "reflection-spInstanton-l3": (
        lambda: check_reflection("spInstanton", 3, mode="multipoint"),
        {
            "identity": "reflection", "l": 3, "holds": False, "mode": "multipoint",
            "detail": "cleared sides differ at the Kronecker point (K = 15, 240 bits, bounds {'u1': 3, 'u2': 3}) "
                      "on the h = 1 slice (degree-zero homogeneous factors)",
            "gridSize": 1, "degreeBounds": {"u1": 3, "u2": 3},
            "counterexample": {"row": [1, 1], "col": [1, 2], "monomial": "u1", "lhs": "6", "rhs": "14"},
            "kind": "spInstanton", "boundary": "standard",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(MULTIPOINT_VERDICTS))
def test_multipoint_verdicts_are_pinned(name):
    run, expected = MULTIPOINT_VERDICTS[name]
    v = run()
    assert v == expected
    assert json.dumps(v) == json.dumps(expected)


class TestUnitarity:
    @pytest.mark.parametrize("l", [2, 3, 4])
    def test_chain_r(self, l):
        assert check_r_unitarity(l)["holds"]

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("l", [2, 3])
    def test_cross_r(self, kind, l):
        v = check_r_unitarity(l, kind=kind)
        assert v["holds"], f"{kind} l={l}: {v['detail']}"

    def test_non_unitary_builder_detected(self):
        fwd, bwd = r_bullet_sigma_opposite(3, U1 - U2), r_bullet_sigma_opposite(3, U2 - U1)
        assert not verify_identity([fwd, bwd], [LabeledMatrix.identity(pair_labels(3))])["holds"]

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("l", [2, 3, 4, 5])
    def test_boundary_k(self, kind, l):
        assert check_k_unitarity(kind, l)["holds"]


class TestReflection:
    @pytest.mark.parametrize(
        "kind,l",
        [("flagPlus", l) for l in (2, 3, 4, 5)]
        + [("flagMinus", l) for l in (2, 3, 4)]
        + [("soInstanton", l) for l in (2, 3)]
        + [("spInstanton", 2)],
    )
    def test_pinned_holds(self, kind, l):
        v = check_reflection(kind, l)
        assert v["holds"], f"{kind} l={l}: {v['detail']}"
        assert reflection_expectation(kind, l) is True

    @pytest.mark.parametrize(
        "kind,l,boundary",
        [("flagPlus", l, "standard") for l in (2, 3, 4, 5)]
        + [("flagMinus", l, "standard") for l in (2, 3, 4)]
        + [("soInstanton", l, "standard") for l in (2, 3)]
        + [("spInstanton", l, "standard") for l in (2, 3)]
        + [("flagMinus", l, "oppositePlacement") for l in (2, 3, 4)],
    )
    def test_multipoint_agrees_with_symbolic(self, kind, l, boundary):
        sym = check_reflection(kind, l, boundary=boundary)
        mp = check_reflection(kind, l, mode="multipoint", boundary=boundary)
        assert mp["holds"] == sym["holds"]
        assert mp["mode"] == "multipoint"
        assert mp["gridSize"] >= 1 and mp["degreeBounds"]

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            check_reflection("flagPlus", 2, mode="numeric")

    def test_sp_instanton_above_two_fails_and_is_unpinned(self):
        v = check_reflection("spInstanton", 3)
        assert not v["holds"]
        assert v["counterexample"]["lhs"] != v["counterexample"]["rhs"]
        assert reflection_expectation("spInstanton", 3) is None

    @pytest.mark.parametrize("l", [2, 3, 4])
    def test_opposite_placement_fails(self, l):
        v = check_reflection("flagMinus", l, boundary="oppositePlacement")
        assert not v["holds"]

    def test_opposite_placement_restricted_to_flag_minus(self):
        with pytest.raises(ValueError):
            make_scenario("flagPlus", 2, boundary="oppositePlacement")

    @pytest.mark.parametrize(
        "kind,boundary,message",
        [("bogus", "standard", "unknown kind"), ("flagMinus", "bogus", "unknown boundary variant")],
    )
    def test_make_scenario_rejects_unknown_names(self, kind, boundary, message):
        with pytest.raises(ValueError, match=message):
            make_scenario(kind, 2, boundary=boundary)

    @pytest.mark.parametrize("l", [2, 3])
    def test_make_scenario_builds_the_boundary_matrix(self, l):
        opposite = make_scenario("flagMinus", l, boundary="oppositePlacement")
        assert opposite(U) == k_matrix_opposite_placement(l, U)
        assert opposite(U) != k_matrix("flagMinus", l, U)
        for kind in KINDS:
            assert make_scenario(kind, l)(U1) == k_matrix(kind, l, U1)

    def test_dimension_bound_is_the_only_size_limit(self):
        # two sites of dimension 17 span 289 states
        with pytest.raises(ValueError, match="289 > 256"):
            check_reflection("flagPlus", 17)

    @pytest.mark.parametrize("kind", KINDS)
    def test_h_zero_sides_become_the_same_permutation(self, kind):
        # with h = 0 every R reduces to the identity and the boundary
        # matrices to involutive constants, so both sides must collapse to
        # one and the same permutation matrix
        lhs, rhs = reflection_sides(kind, 3)
        point = {"h": Fraction(0), "u1": Fraction(5), "u2": Fraction(3)}
        le = {k: v for k, v in lhs.eval_entries(point).items() if v}
        re_ = {k: v for k, v in rhs.eval_entries(point).items() if v}
        assert le == re_
        assert all(v == 1 for v in le.values())
        rows = [i for i, _ in le]
        cols = [j for _, j in le]
        assert sorted(rows) == sorted(set(rows)) and sorted(cols) == sorted(set(cols))

    def test_every_involutive_permutation_boundary_works_for_flag_plus(self):
        # the mechanism behind the flagPlus scenario is K^2 = Id alone, so
        # any involutive permutation matrix must satisfy the identity, and a
        # non-involutive one must not
        labels = site_labels(3)
        (k2, c21, k1, y), (y21, k1_, c, k2_) = _reflection_factors("flagPlus", 3)
        assert (k1_, k2_) == (k1, k2)

        def holds(perm):
            mat = LabeledMatrix(labels, labels, {(target, i): RatFunc.one() for i, target in zip(labels, perm)})
            p1, p2 = (embed_on_slots(mat, (a,), [labels] * 2) for a in (0, 1))
            return verify_identity([p2, c21, p1, y], [y21, p1, c, p2])["holds"]

        for perm in [(1, 2, 3), (2, 1, 3), (3, 2, 1), (1, 3, 2)]:
            assert holds(perm), f"involution {perm} rejected"
        assert not holds((2, 3, 1))


class TestMonodromyExchange:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("variant", EXCHANGE_VARIANTS)
    def test_single_site_all_kinds(self, kind, variant):
        v = check_monodromy_exchange(2, 1, variant, kind=kind)
        assert v["holds"], f"{kind}/{variant}: {v['detail']}"

    @pytest.mark.parametrize("kind", ["soInstanton", "spInstanton"])
    @pytest.mark.parametrize("variant", EXCHANGE_VARIANTS)
    def test_two_sites(self, kind, variant):
        assert check_monodromy_exchange(2, 2, variant, kind=kind)["holds"]

    def test_empty_chain_trivial(self):
        for variant in EXCHANGE_VARIANTS:
            assert check_monodromy_exchange(2, 0, variant)["holds"]

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            check_monodromy_exchange(2, 1, "plain")

    @pytest.mark.parametrize("kind", KINDS)
    def test_twisted_plain_agrees_with_its_derivation(self, kind):
        v = check_twisted_plain_derivation(2, 1, kind=kind)
        assert v["holds"], v["detail"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("l", [2, 3])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_placed_monodromies_equal_the_site_by_site_products(kind, l, n):
    # the oracle places every site's R factor on the full slots on its own
    # and multiplies the placed factors
    slots, plain, twisted = _chain_monodromies(kind, l, n)
    shifts, sites = (U1, U2)[:n], range(2, 2 + n)
    for aux in (0, 1):
        plain_factors = chain_factors(lambda k: yang_r(l, U - shifts[k - 1]), aux, sites)
        assert plain(aux, U) == embedded_product(plain_factors, slots)
        twisted_factors = chain_factors(lambda k: cross_r(kind, l, U - shifts[k - 1]), aux, sites)
        assert twisted(aux, U) == embedded_product(twisted_factors, slots)


# every check whose chain takes its shifts from (u1, u2) or (u3, u4)
CHAIN_CHECKS = {
    "monodromyExchange": lambda n: check_monodromy_exchange(2, n, "plainPlain"),
    "twistedPlainDerivation": lambda n: check_twisted_plain_derivation(2, n),
    "chainReflection": lambda n: check_chain_reflection("flagPlus", 2, n=n),
    "boundaryFactorization": lambda n: check_boundary_factorization("flagPlus", 2, n=n),
    "boundaryConstantTerm": lambda n: check_boundary_constant_term("flagPlus", 2, n=n),
}


@pytest.mark.parametrize("n", [3, -1])
@pytest.mark.parametrize("check", sorted(CHAIN_CHECKS))
def test_unbuildable_chain_length_rejected(check, n):
    with pytest.raises(ValueError, match=rf"n={n} is outside the supported range 0\.\.2"):
        CHAIN_CHECKS[check](n)


# every check that takes a kind, called with one outside KINDS
UNKNOWN_KIND_CHECKS = {
    "rUnitarity": lambda: check_r_unitarity(2, kind="bogus"),
    "monodromyExchange": lambda: check_monodromy_exchange(2, 1, "plainPlain", kind="bogus"),
    "twistedPlainDerivation": lambda: check_twisted_plain_derivation(2, 1, kind="bogus"),
    "kUnitarity": lambda: check_k_unitarity("bogus", 2),
    "reflection": lambda: check_reflection("bogus", 2, mode="multipoint"),
    "chainReflection": lambda: check_chain_reflection("bogus", 2),
    "boundaryFactorization": lambda: check_boundary_factorization("bogus", 2),
    "boundaryConstantTerm": lambda: check_boundary_constant_term("bogus", 2),
}


@pytest.mark.parametrize("check", sorted(UNKNOWN_KIND_CHECKS))
def test_unknown_kind_rejected(check):
    with pytest.raises(ValueError, match="unknown kind 'bogus'"):
        UNKNOWN_KIND_CHECKS[check]()


@pytest.mark.parametrize("mode", ["symbolic", "multipoint"])
@pytest.mark.parametrize(
    "call",
    [
        lambda mode: check_reflection("flagPlus", 0, mode=mode),
        lambda mode: check_ybe(1, mode=mode),
        lambda mode: check_monodromy_exchange(0, 2, "plainPlain")
        if mode == "symbolic"
        else verify_identity(*_exchange_factors(0, 2, "plainPlain", "soInstanton"), mode),
    ],
    ids=["reflection", "ybe", "exchange"],
)
def test_site_dimension_below_two_rejected(call, mode):
    # 0x0 and 1x1 products agree vacuously; no verdict may claim a proof there
    with pytest.raises(ValueError, match=r"l=[01]: a site needs at least 2 states"):
        call(mode)


@pytest.mark.parametrize("l", [1, 0, -2])
@pytest.mark.parametrize("check", sorted(relations._SUITE_CHECKS))
def test_each_check_rejects_site_dimension_below_two(check, l):
    item = next(it for it in suite_items(l=2) if it["check"] == check)
    with pytest.raises(ValueError, match=f"l={l}: a site needs at least 2 states"):
        run_suite_item({**item, "l": l})


@pytest.mark.parametrize("check", sorted(relations._SUITE_CHECKS))
def test_each_check_holds_itself_to_the_suite_dimension(check):
    # at the first size past DIMENSION_BOUND by the suite's slot count, the
    # check itself rejects the item with that very dimension, before building
    item = next(it for it in suite_items(l=2) if it["check"] == check)
    slots = relations._SUITE_CHECKS[check][0] + item.get("sites", 0)
    l = next(size for size in itertools.count(2) if size ** slots > relations.DIMENSION_BOUND)
    with pytest.raises(ValueError, match=rf"tensor dimension {l ** slots} > 256"):
        run_suite_item({**item, "l": l})


@pytest.mark.parametrize("check", sorted(relations._SUITE_CHECKS))
def test_suite_slot_table_matches_the_slots_each_check_builds(check, monkeypatch):
    # run_suite sizes an item by its _SUITE_CHECKS slots before any check runs; the
    # check's own _slots calls must reach exactly that many slots
    counts = []
    real_slots = relations._slots

    def recording_slots(l, count):
        counts.append(count)
        return real_slots(l, count)

    monkeypatch.setattr(relations, "_slots", recording_slots)
    item = next(it for it in suite_items(l=2) if it["check"] == check)
    if "sites" in item:
        item = {**item, "sites": 1}
    run_suite_item(item)
    assert max(counts) == relations._SUITE_CHECKS[check][0] + item.get("sites", 0)


class TestBothProvers:
    """Symbolic and multipoint proofs of the same factor lists, at l = 2.

    yangBaxter and reflection are compared through their mode argument
    above.  Every other check is compared here: the one-site exchanges for
    every kind and variant, one two-site exchange per variant, the dressed
    chain reflection, the boundary operator, the twistedPlain derivation and
    the unitarity factor lists for every kind.  The boundary factorization
    also runs at l = 3 and with 0 to 2 chain sites.  The largest multipoint
    proofs, the dressed chain reflection with 125-180 grid points and the
    two-site exchanges with 144, take 0.02-0.04 s each.
    """

    @staticmethod
    def _both(lhs, rhs):
        sym = verify_identity(lhs, rhs, "symbolic")
        mp = verify_identity(lhs, rhs, "multipoint")
        assert (sym["mode"], mp["mode"]) == ("symbolic", "multipoint")
        assert sym["holds"] == mp["holds"]
        return sym["holds"]

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("variant", EXCHANGE_VARIANTS)
    def test_exchange(self, kind, variant):
        assert self._both(*_exchange_factors(2, 1, variant, kind))

    def test_mixed_exchange_sides_fail_both(self):
        lhs, _ = _exchange_factors(2, 1, "plainPlain", "soInstanton")
        _, rhs = _exchange_factors(2, 1, "plainTwisted", "soInstanton")
        assert not self._both(lhs, rhs)

    @pytest.mark.parametrize("variant,kind", zip(EXCHANGE_VARIANTS, KINDS))
    def test_two_site_exchange(self, variant, kind):
        assert self._both(*_exchange_factors(2, 2, variant, kind))

    @pytest.mark.parametrize("kind", KINDS)
    def test_chain_reflection(self, kind):
        assert self._both(*_reflection_factors(kind, 2, n=1))

    @pytest.mark.parametrize("kind", KINDS)
    def test_unitarity(self, kind, monkeypatch):
        # both proofs of R unitarity: the product and the flip symmetry
        checks = (
            lambda: check_r_unitarity(2),
            lambda: check_r_unitarity(2, kind=kind),
            lambda: check_k_unitarity(kind, 2),
        )
        lists = [pair for run in checks for pair in _factor_lists(monkeypatch, run)]
        assert len(lists) == 5
        for lhs, rhs in lists:
            assert self._both(lhs, rhs)

    # the multipoint proofs at l = 3, n = 2 take 0.09-0.85 s each
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("l", [2, 3])
    def test_boundary_factorization(self, kind, l, n):
        assert self._both(*_factorization_factors(kind, l, n))

    @pytest.mark.parametrize("kind", KINDS)
    def test_boundary_constant_term(self, kind):
        assert self._both(*_constant_term_factors(kind, 2, 1))

    @pytest.mark.parametrize("kind", KINDS)
    def test_twisted_plain_derivation(self, kind):
        for lhs, rhs in _derivation_factors(2, 1, kind):
            assert self._both(lhs, rhs)


def _factor_lists(monkeypatch, run):
    """The (lhs, rhs) factor lists that run() hands to
    matrix.verify_identity, unproved."""
    captured = []

    def capture(lhs, rhs, mode="symbolic"):
        captured.append((lhs, rhs))
        return {"holds": True, "mode": mode, "detail": "captured"}

    with monkeypatch.context() as m:
        m.setattr(relations, "verify_identity", capture)
        run()
    return captured


ACCEPTANCE_LIST_ITEMS = (
    acceptance._R_MATRIX_IDENTITIES + acceptance._REFLECTION_EQUATION
    + acceptance._MONODROMY_EXCHANGE + acceptance._BOUNDARY_OPERATOR
)


def _clear_builders():
    """Empty every rkmat builder cache, so the next checks build new
    operators, with nothing read of them yet."""
    for f in vars(rkmat).values():
        if hasattr(f, "cache_clear"):
            f.cache_clear()


def _suite_and_acceptance_lists(monkeypatch):
    """Every factor list of run_suite("all") and of acceptance criteria 6-9."""
    runs = [lambda: run_suite("all"), *(lambda it=it: run_suite_item(dict(it)) for it in ACCEPTANCE_LIST_ITEMS)]
    return [pair for run in runs for pair in _factor_lists(monkeypatch, run)]


class TestFractionFreeProver:
    """The symbolic prover against the canonical route it replaced.

    matrix.verify_identity multiplies polynomial matrices and reduces only
    the entry it prints; oracles.fold_and_compare multiplies RatFunc matrices
    entry by entry.  Their verdicts must agree key by key and string by
    string.
    """

    def test_every_symbolic_proof_of_the_suite(self, monkeypatch):
        lists = _factor_lists(monkeypatch, lambda: run_suite("all"))
        assert len(lists) == 120
        for n, (lhs, rhs) in enumerate(lists):
            assert verify_identity(lhs, rhs) == fold_and_compare(lhs, rhs), n

    # the oracle takes about 17 s on the chain at l = 5 (2-core machine), so
    # the cases stop at l = 4
    @pytest.mark.parametrize("n", [0, 1], ids=["reflection", "chain-n1"])
    @pytest.mark.parametrize("l", [3, 4])
    def test_failing_sp_instanton_reflection(self, l, n):
        lists = _reflection_factors("spInstanton", l, n=n)
        v = verify_identity(*lists)
        assert not v["holds"] and "counterexample" in v
        assert v == fold_and_compare(*lists)

    @pytest.mark.parametrize(
        "build,count,total",
        [
            (lambda: _reflection_factors("flagMinus", 3, n=2), 41, 81),
            (lambda: _exchange_factors(4, 2, "twistedTwisted", "flagMinus"), 15, 256),
        ],
        ids=["chainReflection-flagMinus-l3-n2", "exchange-twistedTwisted-flagMinus-l4-n2"],
    )
    def test_only_representative_rows_are_multiplied(self, build, count, total, monkeypatch):
        # every product row is carried left to right from a row of the first
        # factor (matrix._carry), so the carried rows are every row taken
        lhs, rhs = build()
        reps = _orbit_representatives([*lhs, *rhs])
        calls = _recording_carry(monkeypatch)
        assert verify_identity(lhs, rhs)["holds"]
        assert (len(reps), len(lhs[0].row_labels)) == (count, total)
        assert {i for _, i in calls} == set(reps)

    @staticmethod
    def _counted(monkeypatch, lists):
        """The verdict on lists, and the calls it made to the trial-division
        screen, Henrici's sum and the general gcd, keyed by name and by
        whether a RatFunc constructor was running; "RatFunc" counts those."""
        counts = collections.Counter()
        inside = [0]

        def counted(name, fn):
            def wrapper(*args):
                counts[name, inside[0] > 0] += 1
                return fn(*args)

            return wrapper

        real_init = RatFunc.__init__

        def init(self, *args):
            counts["RatFunc"] += 1
            inside[0] += 1
            try:
                real_init(self, *args)
            finally:
                inside[0] -= 1

        monkeypatch.setattr(field, "_vanishes_on", counted("_vanishes_on", field._vanishes_on))
        monkeypatch.setattr(field, "poly_gcd", counted("poly_gcd", field.poly_gcd))
        monkeypatch.setattr(RatFunc, "_add_signed", counted("_add_signed", RatFunc._add_signed))
        monkeypatch.setattr(RatFunc, "__init__", init)
        v = verify_identity(*lists)
        monkeypatch.undo()
        return v, counts

    @pytest.mark.parametrize(
        "build",
        [lambda: _ybe_factors(3)[0], *(lambda v=v: _exchange_factors(2, 1, v, "flagMinus")[0] for v in EXCHANGE_VARIANTS)],
        ids=["ybe-l3", *(f"exchange-{v}-n1" for v in EXCHANGE_VARIANTS)],
    )
    def test_each_operator_is_cleared_at_most_once_per_process(self, build, monkeypatch):
        # both sides hold the same three factors, so clearing per occurrence
        # would make six calls; a second proof, on new placements of the
        # same operators, makes none
        _clear_builders()
        cleared = []
        real = matrix._clear

        def counting(mat):
            cleared.append(id(mat))
            return real(mat)

        monkeypatch.setattr(matrix, "_clear", counting)
        for _ in range(2):
            factors = list(build())
            assert verify_identity(factors, factors[::-1])["holds"]
        assert len(cleared) == len(set(cleared)) == 3
        assert set(cleared) == {id(matrix._operator(m)) for m in factors}

    @pytest.mark.parametrize(
        "build",
        [
            lambda: _exchange_factors(2, 2, "plainPlain", "soInstanton"),
            lambda: _reflection_factors("flagPlus", 2, n=1),
        ],
        ids=["exchange-n2", "chain-reflection"],
    )
    def test_a_holding_proof_reduces_nothing(self, build, monkeypatch):
        v, counts = self._counted(monkeypatch, build())
        assert v["holds"]
        assert not counts

    def test_a_failing_proof_reduces_only_the_printed_entry(self, monkeypatch):
        v, counts = self._counted(monkeypatch, _reflection_factors("spInstanton", 3))
        assert not v["holds"]
        # one construction per side, and every screen call inside them
        assert counts.pop("RatFunc") == 2
        assert counts["_vanishes_on", True] > 0
        assert not [key for key in counts if not key[1]]


# the grid-proof workload of the benchmark, with the table forms the two
# sides' denominators share cancelled from the cleared difference: (check, K
# of its Kronecker point, degreeBounds of the verdict, oracles.d_degree_bounds
# over every variable of the factors, h included).  Every proof evaluates at
# one point, so its gridSize is 1
GRID_PROOF_PINS = {
    "ybe-l5": (lambda: check_ybe(5, mode="multipoint"), 7, {"u1": 2, "u2": 2}, {"h": 3, "u1": 2, "u2": 2}),
    "ybe-l6": (lambda: check_ybe(6, mode="multipoint"), 7, {"u1": 2, "u2": 2}, {"h": 3, "u1": 2, "u2": 2}),
    **{
        f"reflection-{kind}-l{l}": (
            lambda k=kind, ll=l: check_reflection(k, ll, mode="multipoint"), width,
            {"u1": 2, "u2": 2}, {"h": 2, "u1": 2, "u2": 2},
        )
        for kind, l, width in (("flagPlus", 2, 7), ("flagPlus", 3, 7), ("soInstanton", 2, 7), ("soInstanton", 3, 8))
    },
    "reflection-flagMinus-l2": (
        lambda: check_reflection("flagMinus", 2, mode="multipoint"), 10,
        {"u1": 3, "u2": 3}, {"h": 4, "u1": 3, "u2": 3},
    ),
    "reflection-flagMinus-l2-oppositePlacement": (
        lambda: check_reflection("flagMinus", 2, mode="multipoint", boundary="oppositePlacement"), 10,
        {"u1": 3, "u2": 3}, {"h": 4, "u1": 3, "u2": 3},
    ),
}

SUITE_ITEMS_L2 = {
    "-".join(str(v) for k, v in item.items() if k not in ("l", "expected")): item
    for item in suite_items(l=2)
}


def _gcd_lcm(mat):
    """The lcm of mat's entry denominators by the general gcd alone."""
    lcm = Poly.const(1)
    for val in mat.entries.values():
        lcm = lcm * poly_div_exact(val.den, poly_gcd(lcm, val.den))
    return lcm


def _assert_bounds_cover_cleared_products(lhs, rhs):
    """With D_f = c * prod p^e over factor f's map as matrix._clear reads
    it, a multiple of the lcm of f's entry denominators (by poly_gcd), D the
    product of every factor's D_f and G the product of the keys the two
    sides' maps share, each to the least of its exponents, lhs * D / G, rhs
    * D / G and their difference, the cleared difference the grid proof
    relies on, are polynomial matrices whose degree in each variable is at
    most oracles.d_degree_bounds.  A difference that vanishes (the identity
    holds) bounds nothing, so both cleared sides are held to the bound as
    well.  The engine's cleared-degree bounds are held to d_degree_bounds
    wherever a test proves a list through _grid_proof."""
    bounds = d_degree_bounds(lhs, rhs)
    maps = {id(mat): _clear(mat) for mat in [*lhs, *rhs]}
    clear, side_dens = Poly.const(1), []
    for factors in (lhs, rhs):
        den = collections.Counter()
        for mat in factors:
            d = Poly.const(maps[id(mat)].c)
            for p, e in maps[id(mat)].den.items():
                d = d * p ** e
            poly_div_exact(d, _gcd_lcm(mat))  # raises unless D_f is a multiple of the lcm
            clear = clear * d
            den.update(maps[id(mat)].den)
        side_dens.append(den)
    for p, e in (side_dens[0] & side_dens[1]).items():
        clear = poly_div_exact(clear, p ** e)
    left, right = _fold(lhs).entries, _fold(rhs).entries
    zero = RatFunc.zero()
    values = {*left.values(), *right.values()}
    values |= {left.get(k, zero) - right.get(k, zero) for k in left.keys() | right.keys()}
    values.discard(zero)
    for den in {x.den for x in values}:
        poly_div_exact(clear, den)  # raises unless the cleared entry is a polynomial
    for x in values:
        for v in bounds:
            # x * clear = x.num * (clear / x.den)
            assert x.num.degree(v) + clear.degree(v) - x.den.degree(v) <= bounds[v], (v, str(x))


class TestDegreeBounds:
    @pytest.mark.parametrize("name", sorted(GRID_PROOF_PINS))
    def test_grid_proofs_keep_their_pinned_bounds(self, name, monkeypatch):
        run, width, bounds, all_bounds = GRID_PROOF_PINS[name]
        v = run()
        assert (v["gridSize"], v["degreeBounds"]) == (1, bounds)
        bits = width * math.prod(d + 1 for d in bounds.values())
        assert f"the Kronecker point (K = {width}, {bits} bits, bounds {bounds})" in v["detail"]
        ((lhs, rhs),) = _factor_lists(monkeypatch, run)
        assert d_degree_bounds(lhs, rhs) == all_bounds
        _unheld(monkeypatch)
        assert verify_identity(lhs, rhs, "multipoint")["degreeBounds"] == bounds

    @pytest.mark.parametrize("name", sorted(GRID_PROOF_PINS))
    def test_grid_proof_bounds_are_sound(self, name, monkeypatch):
        for lhs, rhs in _factor_lists(monkeypatch, GRID_PROOF_PINS[name][0]):
            _assert_bounds_cover_cleared_products(lhs, rhs)

    @pytest.mark.parametrize("name", sorted(SUITE_ITEMS_L2))
    def test_suite_item_bounds_are_sound(self, name, monkeypatch):
        lists = _factor_lists(monkeypatch, lambda: run_suite_item(dict(SUITE_ITEMS_L2[name])))
        assert lists
        for lhs, rhs in lists:
            _assert_bounds_cover_cleared_products(lhs, rhs)

    def test_grid_is_not_one_point_short(self):
        # the sides share k's form u1 - 1 twice, so the cleared difference is
        # a's numerator minus 1, the product of u1 - x over the grid's first
        # three points: it vanishes there, and the grid oracle must refute at
        # the fourth and last, which the bound of 3 puts on the grid.  The
        # engine refutes at its one point: the difference is u1^3 - 3 u1^2 +
        # 2 u1, and the sides' constant terms agree, so its least monomial
        # is u1
        u1 = RatFunc.var("u1")
        k = one_entry(RatFunc.one() / (u1 - RatFunc.one()))
        xs = range(4)
        num = RatFunc.one()
        for x in xs[:-1]:
            num = num * (u1 - RatFunc.const(x))
        a = one_entry((num + RatFunc.one()) / (u1 - RatFunc.one()))
        v = _grid_proof([k, a], [k, k])
        assert v["degreeBounds"] == {"u1": 3}
        assert not v["holds"] and v["gridSize"] == 1
        assert v["counterexample"] == {"row": 1, "col": 1, "monomial": "u1", "lhs": "2", "rhs": "0"}
        grid = full_row_grid_proof([k, a], [k, k])
        assert not grid["holds"] and grid["gridSize"] == len(xs) == 4
        assert grid["counterexample"]["point"] == f"{{h=1, u1={xs[-1]}}}"

    def test_the_height_bound_is_needed(self):
        # the cleared difference u1 - 2^k vanishes at u1 = 2^k, the point
        # that K = k would build; the sides' heights 1 and 2^k give H = 1 +
        # 2^k and K = k + 3, where the engine must refute, at the constant
        # term
        k = 12
        lhs, rhs = one_entry(U1), one_entry(RatFunc.const(2 ** k))
        cleared = {id(m): _clearing(m) for m in (lhs, rhs)}
        shifts = {m: _exponents(m)[2] * k for x in cleared.values() for t in x.entries for m in t}  # u1 = 2^k
        at = {id(t): _kronecker_value(t, shifts) for x in cleared.values() for t in x.entries}
        assert _carried_at([lhs], [0], at) == _carried_at([rhs], [0], at)
        v = _grid_proof([lhs], [rhs])
        assert not v["holds"] and v["degreeBounds"] == {"u1": 1}
        assert v["detail"] == f"cleared sides differ at the Kronecker point (K = {k + 3}, {2 * (k + 3)} bits, bounds {{'u1': 1}})"
        assert v["counterexample"] == {"row": 1, "col": 1, "monomial": "1", "lhs": "0", "rhs": str(2 ** k)}

    def test_bounds_that_cancel_to_zero_keep_their_variables(self):
        # the sides share every denominator form, so every bound is 0 and
        # every variable of the factors, h included, stays on the point, and
        # on the oracle's grid with one point, 0.  Both entries have a pole
        # there, and a constant multiple is still refuted, since both compare
        # the cleared sides.  Each linear denominator is divided out on its
        # own, so both are table forms
        den = RatFunc.one() / (U1 - U2) / (U1 + H)
        m = one_entry(den)
        v = _grid_proof([m], [m])
        assert v["holds"] and v["gridSize"] == 1
        assert v["degreeBounds"] == {"h": 0, "u1": 0, "u2": 0}
        twice = one_entry(den * RatFunc.const(2))
        w = _grid_proof([m], [twice])
        assert not w["holds"] and w["gridSize"] == 1
        assert w["counterexample"] == {"row": 1, "col": 1, "monomial": "1", "lhs": "-1", "rhs": "-2"}
        assert full_row_grid_proof([m], [twice])["counterexample"]["point"] == "{h=0, u1=0, u2=0}"

    def test_bounds_do_not_depend_on_what_the_process_ran_before(self):
        # the denominator (U1 - U2)(U1 + H) is one residual in a fresh
        # interpreter, which has neither linear form in its table, and two
        # table forms once the suite has interned them; one denominator map
        # per factor cancels it whole either way
        fresh = json.loads(_fresh_stdout(_RESIDUAL_GRID_PROOF))
        assert run_suite("all")["ok"]
        m = one_entry(RatFunc.one() / ((U1 - U2) * (U1 + H)))
        v = _grid_proof([m], [m])
        assert [v["degreeBounds"], v["gridSize"], v["detail"]] == fresh
        assert v["holds"] and v["gridSize"] == 1 and v["degreeBounds"] == {"h": 0, "u1": 0, "u2": 0}
        _assert_bounds_cover_cleared_products([m], [m])

    def test_kept_bounds_match_the_expanded_clearing_on_every_suite_operator(self, monkeypatch):
        # every operator the default suite, the suite at l = 4 and acceptance
        # criteria 6-9 (multipoint Yang-Baxter at l = 4, 5 among them) build,
        # cleared by the provers: the multipoint engine's bounds, read off
        # the packed clearing on first use and kept, are those of its entries
        # cleared by the same D and expanded as tuple-keyed polynomials
        _clear_builders()
        ops = []
        real = matrix._clear

        def recording(mat):
            ops.append(mat)
            return real(mat)

        monkeypatch.setattr(matrix, "_clear", recording)
        assert run_suite("all")["ok"]
        default = len(ops)
        assert run_suite("all", l=4)["ok"]
        larger = len(ops)
        for item in ACCEPTANCE_LIST_ITEMS:
            run_suite_item(dict(item))
        monkeypatch.undo()
        assert default > 50 and len(ops) > larger > default
        # the default suite proves symbolically and reads no bounds; the
        # multipoint Yang-Baxter proofs of criterion 6 keep theirs, which the
        # proofs below read
        assert all(getattr(op, "_bounds", None) is None for op in ops[:default])
        assert any(getattr(op, "_bounds", None) is not None for op in ops[larger:])
        # every suite operator is homogeneous; these are not: the first two
        # have inhomogeneous denominators (residuals, integer contents), the
        # third a homogeneous denominator and an entry of degree 1, and the
        # fourth's variables are those of its denominator alone
        labels = [1, 2]
        ops += [
            LabeledMatrix(labels, labels, {
                (1, 1): parse_ratfunc("h / (u1 - 7)"),
                (1, 2): parse_ratfunc("(u + 1) / (u1^2 + u2^2 + h)"),
                (2, 1): parse_ratfunc("u1 / 3"),
                (2, 2): RatFunc.const(Fraction(-5, 6)),
            }),
            LabeledMatrix(labels, labels, {(1, 2): parse_ratfunc("h / (u^2 + h*u1 + 1)"), (2, 2): parse_ratfunc("u + 2*h")}),
            LabeledMatrix(labels, labels, {(1, 1): parse_ratfunc("u1 / (u1 - u2)"), (2, 2): parse_ratfunc("u + 2*h")}),
            LabeledMatrix(labels, labels, {(1, 1): parse_ratfunc("1 / (u1 - u2)")}),
        ]
        # a multipoint proof keeps each factor's bounds on the operator it
        # places, as it keeps the clearing, and a second proof reads the kept
        # ones
        holders = [matrix._operator(op) for op in ops]
        for op, holder in zip(ops, holders):
            assert verify_identity([op], [op], "multipoint")["holds"]
            kept = holder._bounds
            assert verify_identity([op], [op], "multipoint")["holds"] and holder._bounds is kept
            assert tuple(kept) == multipoint_statistics(op, *_clearing(op)[:2])
        assert {holder._bounds.homogeneous for holder in holders} == {True, False}

    def test_symbolic_verdicts_do_not_depend_on_what_the_process_ran_before(self):
        # a passing and a failing verdict, byte for byte, in a fresh
        # interpreter and after the suite has cleared and kept its operators
        fresh = _fresh_stdout(_SYMBOLIC_VERDICTS).strip()
        assert run_suite("all")["ok"]
        after = [check_chain_reflection("flagPlus", 2), check_reflection("flagMinus", 2, boundary="oppositePlacement")]
        assert json.dumps(after) == fresh
        assert after[0]["holds"] and not after[1]["holds"] and "counterexample" in after[1]

    def test_bounds_cover_factors_with_several_residuals(self):
        # p and q are irreducible, so they stay residuals in every process.
        # a's map holds both of its residuals, p and p q, whole, so its D is
        # their product p^2 q, not their lcm p q: the bounds are larger than
        # the lcm's ({"h": 2, "u1": 5, "u2": 2}), and they still cover the
        # cleared products
        p, q = U1 * U2 + H * H + RatFunc.one(), U1 * U1 + U2 + RatFunc.one()
        a = LabeledMatrix([1, 2], [1, 2], {(1, 1): RatFunc.one() / p, (2, 2): RatFunc.one() / (p * q)})
        b = LabeledMatrix([1, 2], [1, 2], {(1, 1): RatFunc.one() / q, (2, 2): U1 / p})
        assert _clear(a).den == collections.Counter({p.num: 1, (p * q).num: 1})
        v = _grid_proof([a, b], [b, a])
        assert v["holds"] and v["degreeBounds"] == {"h": 4, "u1": 6, "u2": 3}
        _assert_bounds_cover_cleared_products([a, b], [b, a])


# the grid proof of test_bounds_do_not_depend_on_what_the_process_ran_before,
# for a new interpreter, whose form table holds neither linear form
_RESIDUAL_GRID_PROOF = """
import json
from refleq.field import H, U1, U2, RatFunc
from refleq.matrix import LabeledMatrix, verify_identity

m = LabeledMatrix([1], [1], {(1, 1): RatFunc.one() / ((U1 - U2) * (U1 + H))})
v = verify_identity([m], [m], "multipoint")
print(json.dumps([v["degreeBounds"], v["gridSize"], v["detail"]]))
"""


_SYMBOLIC_VERDICTS = """
import json
from refleq.relations import check_chain_reflection, check_reflection

after = [check_chain_reflection("flagPlus", 2), check_reflection("flagMinus", 2, boundary="oppositePlacement")]
print(json.dumps(after))
"""


def _fresh_stdout(code):
    """The stdout of code run in a new interpreter that imports this
    checkout's refleq."""
    src = Path(relations.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout


class TestOrbitReduction:
    """The multipoint proof multiplies one row per orbit of the label
    symmetry that every factor has; oracles.full_row_grid_proof multiplies
    every row at every point of the grid.  They must give the same holds
    and degreeBounds, a failing proof's counterexample must replay on the
    expanded cleared sides (oracles.polynomial_counterexample), and holds
    must be the symbolic prover's."""

    ORACLE_CASES = {
        **{f"verdict-{name}": run for name, (run, _) in MULTIPOINT_VERDICTS.items()},
        **{f"pin-{name}": pin[0] for name, pin in GRID_PROOF_PINS.items()},
        **{
            f"chainReflection-{kind}-l{l}": lambda k=kind, ll=l: check_chain_reflection(k, ll, n=1)
            for kind in ("flagPlus", "soInstanton", "spInstanton")
            for l in (3, 4)
        },
        **{
            f"reflection-spInstanton-l{l}": lambda ll=l: check_reflection("spInstanton", ll, mode="multipoint")
            for l in (3, 4)
        },
    }

    @pytest.mark.parametrize("name", sorted(ORACLE_CASES))
    def test_verdict_equals_the_full_row_oracle(self, name, monkeypatch):
        lists = _factor_lists(monkeypatch, self.ORACLE_CASES[name])
        assert lists
        for lhs, rhs in lists:
            v = _assert_proved_alike(lhs, rhs)
            if "spInstanton-l" in name:
                assert not v["holds"] and "counterexample" in v

    @pytest.mark.parametrize("source", ["suite-all", "acceptance"])
    def test_every_suite_and_acceptance_list_is_proved_alike(self, source, monkeypatch):
        if source == "suite-all":
            runs = [lambda: run_suite("all")]
        else:
            runs = [lambda it=it: run_suite_item(dict(it)) for it in ACCEPTANCE_LIST_ITEMS]
        lists = [pair for run in runs for pair in _factor_lists(monkeypatch, run)]
        assert lists
        for lhs, rhs in lists:
            _assert_proved_alike(lhs, rhs)

    @pytest.mark.parametrize(
        "build,count",
        [
            *((lambda l=l: sum(_ybe_factors(l), []), 5) for l in (3, 4, 5, 6)),
            (lambda: sum(_reflection_factors("flagPlus", 3), []), 5),
            (lambda: sum(_reflection_factors("soInstanton", 3), []), 2),
            (lambda: sum(_reflection_factors("flagPlus", 3, n=1), []), 14),
            (lambda: sum(_reflection_factors("soInstanton", 3, n=1), []), 5),
            (lambda: sum(_reflection_factors("flagMinus", 3, n=2), []), 41),
        ],
        ids=["ybe-l3", "ybe-l4", "ybe-l5", "ybe-l6", "reflection-flagPlus-l3", "reflection-soInstanton-l3",
             "chainReflection-flagPlus-l3", "chainReflection-soInstanton-l3", "chainReflection-flagMinus-l3-n2"],
    )
    def test_representative_counts(self, build, count):
        factors = list(build())
        reps = _orbit_representatives(factors)
        assert len(reps) == count
        assert reps == sorted(reps) and reps[0] == 0

    def test_ybe_representatives_are_the_least_labels(self):
        (r12, r13, r23), _ = _ybe_factors(3)
        reps = _orbit_representatives([r12, r13, r23])
        assert [r12.row_labels[i] for i in reps] == [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2), (1, 2, 3)]

    @pytest.mark.parametrize("l", [5, 6])
    def test_ybe_multiplies_five_rows_per_side_per_point(self, l, monkeypatch):
        calls = _recording_carry(monkeypatch, "multipoint")
        v = check_ybe(l, mode="multipoint")
        assert v["holds"] and v["gridSize"] == 1
        counts = collections.Counter(side for side, _ in calls)
        assert sorted(counts.values()) == [5, 5]

    FAILING_GRID_PROOFS = {
        "chainReflection-spInstanton-l5-n1": lambda: check_chain_reflection("spInstanton", 5, n=1),
        "reflection-flagMinus-l2-oppositePlacement": lambda: check_reflection(
            "flagMinus", 2, mode="multipoint", boundary="oppositePlacement"
        ),
    }

    @pytest.mark.parametrize("name", sorted(FAILING_GRID_PROOFS))
    def test_a_failing_grid_proof_makes_no_full_row_pass(self, name, monkeypatch):
        run = self.FAILING_GRID_PROOFS[name]
        ((lhs, rhs),) = _factor_lists(monkeypatch, run)
        reps = _orbit_representatives([*lhs, *rhs])
        _unheld(monkeypatch)
        calls = _recording_carry(monkeypatch, "multipoint")
        v = verify_identity(lhs, rhs, "multipoint")
        assert not v["holds"] and "counterexample" in v
        assert len(reps) < len(lhs[0].row_labels)
        # both sides carry the same representative rows, in order, and no
        # other row
        sides = tuple(map(id, lhs)), tuple(map(id, rhs))
        assert calls and calls == [(side, i) for i in reps[: len(calls) // 2] for side in sides]

    # the failing proofs of the early stop, and holding proofs of the same
    # identities
    EARLY_STOPS = {
        "chainReflection-spInstanton-l3-n1": lambda: check_chain_reflection("spInstanton", 3, n=1),
        "reflection-flagMinus-l2-oppositePlacement": lambda: check_reflection(
            "flagMinus", 2, boundary="oppositePlacement"
        ),
    }
    HOLDING_PROOFS = {
        "chainReflection-spInstanton-l2-n1": lambda: check_chain_reflection("spInstanton", 2, n=1),
        "reflection-flagMinus-l2": lambda: check_reflection("flagMinus", 2),
    }

    @pytest.mark.parametrize("mode", ["symbolic", "multipoint"])
    @pytest.mark.parametrize("name", sorted(EARLY_STOPS))
    def test_a_failing_proof_carries_no_row_after_its_counterexample(self, name, mode, monkeypatch):
        # the representative rows up to the counterexample's, each once per
        # side, and none after it
        ((lhs, rhs),) = _factor_lists(monkeypatch, self.EARLY_STOPS[name])
        reps = _orbit_representatives([*lhs, *rhs])
        _unheld(monkeypatch)
        calls = _recording_carry(monkeypatch, mode)
        v = verify_identity(lhs, rhs, mode)
        assert not v["holds"]
        row = [_label_to_json(lab) for lab in lhs[0].row_labels].index(v["counterexample"]["row"])
        assert row in reps and row < reps[-1]
        sides = tuple(map(id, lhs)), tuple(map(id, rhs))
        assert calls == [(side, i) for i in reps if i <= row for side in sides]

    @pytest.mark.parametrize("mode", ["symbolic", "multipoint"])
    @pytest.mark.parametrize("name", sorted(HOLDING_PROOFS))
    def test_a_holding_proof_carries_each_representative_row_once_per_side(self, name, mode, monkeypatch):
        ((lhs, rhs),) = _factor_lists(monkeypatch, self.HOLDING_PROOFS[name])
        reps = _orbit_representatives([*lhs, *rhs])
        _unheld(monkeypatch)
        calls = _recording_carry(monkeypatch, mode)
        assert verify_identity(lhs, rhs, mode)["holds"]
        sides = tuple(map(id, lhs)), tuple(map(id, rhs))
        assert calls == [(side, i) for i in reps for side in sides]

    REPLAYED_PROOFS = {
        **FAILING_GRID_PROOFS,
        "reflection-spInstanton-l3": lambda: check_reflection("spInstanton", 3, mode="multipoint"),
    }

    @pytest.mark.parametrize("name", sorted(REPLAYED_PROOFS))
    def test_a_failing_proof_replays_without_the_engine(self, name, monkeypatch):
        # the printed monomial's two coefficients in the printed entry of the
        # two cleared sides, expanded as polynomials by the oracle
        ((lhs, rhs),) = _factor_lists(monkeypatch, self.REPLAYED_PROOFS[name])
        _unheld(monkeypatch)
        v = verify_identity(lhs, rhs, "multipoint")
        assert not v["holds"]
        assert v["counterexample"] == polynomial_counterexample(lhs, rhs, v)

    # R12's entry at rows (2, 3, 2) -> (3, 2, 2); that row lies outside the
    # representatives (1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2), (1, 2, 3)
    PLANTED = ((2, 3, 2), (3, 2, 2))

    def test_a_planted_asymmetry_is_refuted(self):
        (r12, r13, r23), _ = _ybe_factors(3)
        reps = _orbit_representatives([r12, r13, r23])
        key = i, _ = label_index(r12, *self.PLANTED)
        assert i not in reps and key in r12.entries
        planted = edited(r12, {key: r12.entries[key] + RatFunc.one()})
        lhs, rhs = [planted, r13, r23], [r23, r13, planted]
        # every transposition of sites moves the planted entry to a key that
        # still holds the old value, so the engine must drop all three
        assert _orbit_representatives([planted, r13, r23]) == list(range(27))
        v = _grid_proof(lhs, rhs)
        assert not v["holds"]
        assert not verify_identity(lhs, rhs)["holds"]
        # the rows of the unplanted symmetry never reach the planted row: an
        # engine that kept those transpositions would find the two sides equal
        factors = {id(m): m for m in (*lhs, *rhs)}
        cleared = {k: _clearing(m) for k, m in factors.items()}
        point = {"h": 1, "u1": 2, "u2": 3}
        at = {id(t): _unpack(t).subs(point) for x in cleared.values() for t in x.entries}
        assert _carried_at(lhs, reps, at) == _carried_at(rhs, reps, at)

    def test_an_invariant_planted_difference_is_read_off_the_representatives(self):
        # R12 perturbed alike at every image of the planted key under the
        # site permutations keeps its symmetry, so both provers still
        # multiply five rows, and both must still print the least differing
        # entry that the full-row routes find, in a representative row
        (r12, r13, r23), _ = _ybe_factors(3)
        reps = _orbit_representatives([r12, r13, r23])
        key = label_index(r12, *self.PLANTED)
        assert key[0] not in reps
        row, col = self.PLANTED
        orbit = {
            label_index(r12, tuple(p[x - 1] for x in row), tuple(p[x - 1] for x in col))
            for p in itertools.permutations((1, 2, 3))
        }
        assert len(orbit) == 6 and len({r12.entries[k] for k in orbit}) == 1
        planted = edited(r12, dict.fromkeys(orbit, r12.entries[key] + RatFunc.one()))
        lhs, rhs = [planted, r13, r23], [r23, r13, planted]
        assert _orbit_representatives([planted, r13, r23]) == reps
        rep_labels = [_label_to_json(r12.row_labels[i]) for i in reps]
        sym, grid = verify_identity(lhs, rhs), _grid_proof(lhs, rhs)
        assert sym == fold_and_compare(lhs, rhs)
        for v in (sym, grid):
            assert not v["holds"] and v["counterexample"]["row"] in rep_labels

    def test_an_edited_placement_is_searched_at_full_size(self):
        # an edit of a placement is a new matrix that records no operator, so
        # the search tests it at full size, not on yang_r, whose symmetry the
        # edit broke
        (r12, r13, r23), _ = _ybe_factors(3)
        edit = edited(r12, {label_index(r12, *self.PLANTED): entry(r12, *self.PLANTED) + RatFunc.one()})
        assert edit.operator is None and r12.operator is not None
        lhs, rhs = [edit, r13, r23], [r23, r13, edit]
        reps = _orbit_representatives([*lhs, *rhs])
        assert list(reps) == full_size_orbit_representatives([*lhs, *rhs]) == list(range(27))
        v = _grid_proof(lhs, rhs)
        assert not v["holds"]
        assert verify_identity(lhs, rhs) == fold_and_compare(lhs, rhs)

    def test_a_narrower_placement_placed_again_is_rejected(self):
        # P1 places the identity on slot 0 of slots {1, 2} x {1}; P1 placed
        # on slots {1, 2} x {1, 2} is diag(1, 0, 1, 0), which is not the
        # identity's placement, and embed_on_slots places no placement, so
        # it rejects it, and P2 is that matrix built tuple by tuple.  The
        # swap (1 2) maps the slots to themselves and commutes with P1's
        # operator, but not with P2: it must be rejected, or rows (1, 1) and
        # (1, 2) would stand for (2, 1), where P2 and Q differ
        p1 = embed_on_slots(LabeledMatrix.identity([1, 2]), (0,), [[1, 2], [1]])
        with pytest.raises(ValueError, match="place its operator"):
            embed_on_slots(p1, (0, 1), [[1, 2], [1, 2]])
        p2 = embed_by_tuples(p1, (0, 1), [[1, 2], [1, 2]])
        q = LabeledMatrix(p2.row_labels, p2.col_labels, {(lab, lab): RatFunc.one() for lab in ((1, 1), (2, 2))})
        assert [entry(p2, lab, lab) for lab in p2.row_labels] == [RatFunc.one(), RatFunc.zero()] * 2
        for lhs, rhs in (([p2], [q]), ([q, p2], [p2]), ([p2, p2], [q])):
            factors = [*lhs, *rhs]
            assert list(_orbit_representatives(factors)) == full_size_orbit_representatives(factors) == [0, 1, 2, 3]
            sym, grid = verify_identity(lhs, rhs), _grid_proof(lhs, rhs)
            assert sym == fold_and_compare(lhs, rhs)
            assert not sym["holds"] and not grid["holds"]
            assert sym["counterexample"]["row"] == grid["counterexample"]["row"] == [2, 1]

    def test_an_equal_but_distinct_entry_keeps_the_symmetry(self):
        (r12, r13, r23), _ = _ybe_factors(3)
        key = label_index(r12, *self.PLANTED)
        value = r12.entries[key]
        twin = parse_ratfunc(format_ratfunc(value))
        assert twin is not value and twin == value
        copy = edited(r12, {key: twin})
        assert len(_orbit_representatives([copy, r13, r23])) == 5
        assert _grid_proof([copy, r13, r23], [r23, r13, copy])["holds"]


# the check lists whose factor lists the representatives are compared on:
# the whole suite, the symbolic chain checks and the grid proofs
REPRESENTATIVE_RUNS = {
    "suite-all": [lambda: run_suite("all")],
    "symbolic-chain": [
        *(
            lambda k=kind, v=variant, n=n: check_monodromy_exchange(2, n, v, kind=k)
            for kind in KINDS
            for variant in EXCHANGE_VARIANTS
            for n in (1, 2)
        ),
        *(lambda k=kind: check_chain_reflection(k, 2, n=1) for kind in KINDS),
        *(lambda k=kind: check_boundary_factorization(k, 2, n=1) for kind in KINDS),
        *(lambda k=kind: check_boundary_constant_term(k, 2, n=1) for kind in KINDS),
        lambda: check_reflection("flagMinus", 2, boundary="oppositePlacement"),
    ],
    "grid-proof": [
        *(lambda ll=l: check_ybe(ll, mode="multipoint") for l in (3, 4, 5, 6)),
        *(lambda k=kind: check_chain_reflection(k, 3, n=1) for kind in KINDS),
        *(lambda k=kind, ll=l: check_reflection(k, ll, mode="multipoint") for kind in KINDS for l in (2, 3)),
    ],
}


@pytest.mark.parametrize("source", sorted(REPRESENTATIVE_RUNS))
def test_representatives_match_the_full_size_search(source, monkeypatch):
    # the search on each placement's operator finds the rows that testing
    # every factor at full size finds, on every factor list these checks
    # hand to a prover
    lists = [pair for run in REPRESENTATIVE_RUNS[source] for pair in _factor_lists(monkeypatch, run)]
    assert lists
    for lhs, rhs in lists:
        factors = [*lhs, *rhs]
        assert list(_orbit_representatives(factors)) == full_size_orbit_representatives(factors)


def test_a_placement_builds_the_eager_map(monkeypatch):
    # every placement a factor list holds builds on its first read the map
    # the eager loop builds for its operator on its positions: the same keys
    # in the same order, holding the operator's very values
    placed = {}
    for module in (relations, rkmat):
        real = module.embed_on_slots

        def recording(mat, positions, slot_labels, _real=real):
            result = _real(mat, positions, slot_labels)
            placed[id(result)] = (result, mat, tuple(positions), [tuple(s) for s in slot_labels])
            return result

        monkeypatch.setattr(module, "embed_on_slots", recording)

    _clear_builders()
    lists = _suite_and_acceptance_lists(monkeypatch)
    checked = set()
    for lhs, rhs in lists:
        for mat in (*lhs, *rhs):
            if mat.operator is None or id(mat) in checked:
                continue
            checked.add(id(mat))
            result, operator, positions, slots = placed[id(mat)]
            assert result is mat and operator is mat.operator
            eager = embed_eagerly(operator, positions, slots)
            assert list(mat.entries.items()) == list(eager.items())
            assert all(mat.entries[k] is v for k, v in eager.items())
    assert len(checked) > 100


def test_no_factor_places_a_placement(monkeypatch):
    # every flip is a builder's R on reversed positions, so the operator of
    # every factor of the suite at l = 2, 3 and 4 and of the acceptance
    # lists is never a placement
    _clear_builders()
    built, placed_on = set(), {}
    for module in (relations, rkmat):
        for name in ("cross_r", "yang_r"):

            def build(*args, _real=getattr(module, name)):
                result = _real(*args)
                built.add(id(result))
                return result

            monkeypatch.setattr(module, name, build)

    def place(mat, positions, slot_labels):
        result = embed_on_slots(mat, positions, slot_labels)
        placed_on[id(result)] = tuple(positions)
        return result

    monkeypatch.setattr(relations, "embed_on_slots", place)
    runs = [lambda ll=l: run_suite("all", l=ll) for l in (2, 3, 4)]
    runs += [lambda it=it: run_suite_item(dict(it)) for it in ACCEPTANCE_LIST_ITEMS]
    factors = [mat for run in runs for lhs, rhs in _factor_lists(monkeypatch, run) for mat in (*lhs, *rhs)]
    assert all(mat.operator is None or mat.operator.operator is None for mat in factors)
    # the flipped R of the reflections, exchanges and derivations is among
    # them: cross_r or yang_r placed on the two auxiliary slots as (1, 0)
    flips = {id(m) for m in factors if id(m.operator) in built and placed_on.get(id(m)) == (1, 0)}
    assert len(flips) >= 10


@pytest.mark.parametrize("mode", ["symbolic", "multipoint"])
@pytest.mark.parametrize("kind", KINDS)
def test_a_reflection_proof_clears_one_operator_for_c_and_c21(kind, mode, monkeypatch):
    # C21 and Y21 are C and Y placed on the auxiliary slots in the other
    # order, and C and Y on both slots in order are C and Y themselves, so
    # the proof clears C, Y and the two boundary matrices once each
    _clear_builders()
    cleared = []
    real = matrix._clear
    monkeypatch.setattr(matrix, "_clear", lambda mat: cleared.append(mat) or real(mat))
    _unheld(monkeypatch)
    ((lhs, rhs),) = _factor_lists(monkeypatch, lambda: check_reflection(kind, 2, mode=mode))
    assert check_reflection(kind, 2, mode=mode)["holds"]
    k2, c21, k1, y = lhs
    y21, _, c, _ = rhs
    assert c21.operator is c is cross_r(kind, 2, U1 + U2)
    assert y21.operator is y is yang_r(2, U1 - U2)
    assert [id(m) for m in cleared] == list(dict.fromkeys(id(matrix._operator(f)) for f in lhs))
    # soInstanton and flagPlus have one constant K for K1 and K2
    assert len(cleared) == (3 if kind in ("soInstanton", "flagPlus") else 4)


@pytest.mark.parametrize(
    "run",
    [
        lambda: check_ybe(6, mode="multipoint"),
        *(lambda k=kind: check_reflection(k, 3, mode="multipoint") for kind in ("flagPlus", "soInstanton")),
        lambda: check_ybe(6),
        lambda: check_reflection("flagPlus", 3),
    ],
    ids=["ybe-l6-multipoint", "reflection-flagPlus-l3-multipoint", "reflection-soInstanton-l3-multipoint",
         "ybe-l6-symbolic", "reflection-flagPlus-l3-symbolic"],
)
def test_a_proof_builds_no_placement_map(run, monkeypatch):
    # both provers read a placement's rows off its operator (matrix._Rows),
    # so a proof whose factors are placements of operators builds no map
    _unheld(monkeypatch)
    fills = []
    real = matrix._placed_entries

    def counting(mat):
        fills.append(mat)
        return real(mat)

    monkeypatch.setattr(matrix, "_placed_entries", counting)
    assert run()["holds"]
    assert not fills


def test_a_grid_proof_reads_each_operator_at_most_once_per_process(monkeypatch):
    # both provers read a factor through the one clearing kept on its
    # operator: two multipoint proofs on the same placements, one on new
    # placements of the same operators, then symbolic proofs of the same
    # lists clear each of the three operators once, and no more
    _clear_builders()
    cleared = []
    real = matrix._clear

    def recording(mat):
        cleared.append(mat)
        return real(mat)

    monkeypatch.setattr(matrix, "_clear", recording)
    _unheld(monkeypatch)
    ((lhs, rhs),) = _factor_lists(monkeypatch, lambda: check_ybe(6, mode="multipoint"))
    for _ in range(2):
        assert verify_identity(lhs, rhs, "multipoint")["holds"]
    ((again, _),) = _factor_lists(monkeypatch, lambda: check_ybe(6, mode="multipoint"))
    assert {id(m) for m in again}.isdisjoint(map(id, lhs))
    assert verify_identity(again, again[::-1], "multipoint")["holds"]
    assert verify_identity(lhs, rhs)["holds"] and verify_identity(again, again[::-1])["holds"]
    assert len(cleared) == 3
    assert {id(m) for m in cleared} == {id(f.operator) for f in lhs} == {id(f.operator) for f in again}


def test_kept_reads_leave_every_verdict_unchanged(monkeypatch):
    # both provers' verdicts on every suite and acceptance factor list, on
    # operators read for the first time, then on the same operators again,
    # and then on new operators, must agree byte for byte
    def verdicts(lists):
        modes = ("symbolic", "multipoint")
        return json.dumps([[verify_identity(lhs, rhs, mode) for mode in modes] for lhs, rhs in lists])

    _unheld(monkeypatch)
    _clear_builders()
    lists = _suite_and_acceptance_lists(monkeypatch)
    cold = verdicts(lists)
    calls = collections.Counter()
    real = matrix._clear
    monkeypatch.setattr(matrix, "_clear", lambda mat: calls.update(["_clear"]) or real(mat))
    warm = verdicts(lists)
    # the second run clears nothing again
    assert not calls
    monkeypatch.undo()
    _clear_builders()
    fresh = _suite_and_acceptance_lists(monkeypatch)
    operators = lambda pairs: {id(m.operator) for lhs, rhs in pairs for m in (*lhs, *rhs) if m.operator is not None}
    assert operators(lists).isdisjoint(operators(fresh))
    assert cold == warm == verdicts(fresh)
    assert len(lists) > 200 and '"holds": false' in cold


@pytest.mark.parametrize("mode", ["symbolic", "multipoint"])
def test_both_provers_check_labels(mode):
    i2 = LabeledMatrix.identity([1, 2])
    # the lhs product I2 I3 is not defined
    with pytest.raises(ValueError, match="label mismatch in matrix product"):
        verify_identity([i2, LabeledMatrix.identity([1, 2, 3])], [i2], mode)
    v = verify_identity([i2], [LabeledMatrix.identity([2, 1])], mode)
    assert v == {"holds": False, "mode": mode, "detail": "label mismatch between the two sides"}


@pytest.mark.parametrize("mode", ["symbolic", "multipoint"])
def test_a_rectangular_counterexample_names_the_product_column(mode):
    # (2 x 3) (3 x 2) against a 2 x 2 matrix: the product's columns are
    # "x", "y", not the first factor's
    a = LabeledMatrix([1, 2], [1, 2, 3], {(1, 3): RatFunc.one()})
    b = LabeledMatrix([1, 2, 3], ["x", "y"], {(3, "y"): U1})
    c = LabeledMatrix([1, 2], ["x", "y"], {(1, "y"): U1 + RatFunc.one()})
    v = verify_identity([a, b], [c], mode)
    assert not v["holds"]
    assert (v["counterexample"]["row"], v["counterexample"]["col"]) == (1, "y")


UNKNOWN_MODE_CALLS = {
    "verify_identity": lambda: verify_identity(*_ybe_factors(2), "grid"),
    "check_ybe": lambda: check_ybe(2, mode="grid"),
    "check_reflection": lambda: check_reflection("flagPlus", 2, mode="grid"),
}


@pytest.mark.parametrize("name", sorted(UNKNOWN_MODE_CALLS))
def test_an_unknown_mode_raises_before_any_factor_is_cleared(name, monkeypatch):
    _clear_builders()
    cleared = []
    real = matrix._clear
    monkeypatch.setattr(matrix, "_clear", lambda mat: cleared.append(mat) or real(mat))
    with pytest.raises(ValueError, match="unknown mode 'grid'"):
        UNKNOWN_MODE_CALLS[name]()
    assert not cleared
    # the Yang-Baxter operators, as the calls that build them built them
    assert all(getattr(op, "_cleared", None) is None for op in (yang_r(2, U1 - U2), yang_r(2, U1), yang_r(2, U2)))


@pytest.mark.parametrize(
    "run",
    [lambda: check_reflection("flagPlus", 2, mode="multipoint"), lambda: check_ybe(3, mode="multipoint")],
    ids=["reflection-flagPlus-l2", "ybe-l3"],
)
def test_a_multipoint_check_is_held_to_the_oracle(run, _grid_proofs_match_the_full_row_oracle):
    # the autouse fixture patches matrix's multipoint prover; a dispatch that
    # missed the patch would drop every full-row comparison in this module
    assert run()["holds"]
    assert len(_grid_proofs_match_the_full_row_oracle) == 1


class TestChainReflection:
    @pytest.mark.parametrize("kind", KINDS)
    def test_single_site_l2(self, kind):
        v = check_chain_reflection(kind, 2, n=1)
        assert v["holds"], f"{kind}: {v['detail']}"

    def test_so_instanton_l3(self):
        assert check_chain_reflection("soInstanton", 3, n=1)["holds"]

    def test_no_chain_degenerates_to_reflection(self):
        v = check_chain_reflection("flagPlus", 2, n=0)
        assert v["holds"] and v["identity"] == "chainReflection" and v["sites"] == 0


class TestBoundaryOperator:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("l", [2, 3])
    def test_factorization_identity_holds(self, kind, l, n):
        # T_tw(-u) S(u) = K(u) T(u); TestBothProvers runs the multipoint proofs
        v = check_boundary_factorization(kind, l, n=n)
        assert v["holds"] and v["sites"] == n

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_factorization_with_the_opposite_placement_fails(self, n):
        # the inverse-free lists are not vacuous: the flagMinus boundary
        # placed the other way round on the right-hand side breaks them
        lhs, (_, t) = _factorization_factors("flagMinus", 2, n)
        k0 = embed_on_slots(k_matrix_opposite_placement(2, U), (0,), [site_labels(2)] * (1 + n))
        for mode in ("symbolic", "multipoint"):
            assert not verify_identity(lhs, [k0, t], mode)["holds"], mode

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("l", [2, 3])
    def test_constant_term_is_involution_on_aux_slot(self, kind, l, n):
        v = check_boundary_constant_term(kind, l, n=n)
        assert v["holds"] and v["sites"] == n


# Run in a fresh interpreter, where the form table is empty: once a check has
# interned the linear forms of a denominator, a later one no longer splits it
# into a residual, so an in-session run could miss one.  n = 2 runs first
# for the same reason.
_NO_INVERSE_GUARD = """
import collections, json
from refleq import acceptance, field, matrix, relations, rkmat
from refleq.acceptance import run_acceptance
from refleq.rkmat import KINDS

counts = collections.Counter()

def counted(name, fn):
    def wrapper(*args):
        counts[name] += 1
        return fn(*args)
    return wrapper

real_split = field._split

def split(p):
    exponents, residual = real_split(p)
    counts["residual"] += residual is not None
    return exponents, residual

matrix.LabeledMatrix.inverse = counted("inverse", matrix.LabeledMatrix.inverse)
field.poly_gcd = counted("poly_gcd", field.poly_gcd)
relations.poly_gcd = counted("poly_gcd", relations.poly_gcd)
field._split = split
stages = {}

def stage(name):
    stages[name] = +counts
    counts.clear()

for n in (2, 1, 0):
    for l in (2, 3):
        for kind in KINDS:
            assert relations.check_boundary_factorization(kind, l, n=n)["holds"]
stage("boundaryFactorization")
assert relations.run_suite("all")["ok"]
stage("suite")
assert run_acceptance()["ok"]
stage("acceptance")
print(json.dumps(stages))
"""


def test_no_verdict_inverts_a_matrix_or_takes_a_gcd():
    assert json.loads(_fresh_stdout(_NO_INVERSE_GUARD)) == {"boundaryFactorization": {}, "suite": {}, "acceptance": {}}


class TestSuites:
    def test_items_carry_expectations(self):
        items = suite_items("all", l=2)
        assert items and all("check" in it and "expected" in it for it in items)
        assert any(it["expected"] is False for it in items)

    def test_reflection_suite_passes(self):
        out = run_suite(suite="reflection", l=2)
        assert out["ok"]
        kinds = {v.get("kind") for v in out["verdicts"]}
        assert kinds == set(KINDS)

    def test_suite_includes_unpinned_report_without_failing(self):
        out = run_suite(suite="reflection", l=3)
        assert out["ok"]
        sp = [v for v in out["verdicts"] if v.get("kind") == "spInstanton"]
        assert sp and not sp[0]["holds"] and sp[0]["expected"] is None

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            suite_items("everything")

    def test_default_items_are_pinned(self):
        # what `verify --suite all` runs; a change here is a change of coverage
        assert suite_items() == json.loads((Path(__file__).parent / "suite_items_default.json").read_text())

    @pytest.mark.parametrize("group", ["all", "ybe", "unitarity", "reflection", "exchange", "boundary"])
    def test_explicit_l_runs_every_requested_group(self, group):
        for l in (2, 3, 4):
            items = suite_items(group, l=l)
            assert items and all(it["l"] == l for it in items)
            assert group == "all" or all(it in suite_items("all", l=l) for it in items)

    def test_explicit_l_lifts_the_old_group_gates(self):
        assert len(suite_items("exchange", l=3)) == 36
        sp = [it for it in suite_items("boundary", l=4) if it["check"] == "chainReflection"
              and it["kind"] == "spInstanton"]
        assert sp == [{"check": "chainReflection", "l": 4, "kind": "spInstanton", "sites": 1, "expected": None}]

    @pytest.mark.parametrize("l", [1, 0, -2])
    def test_l_below_two_rejected(self, l):
        with pytest.raises(ValueError, match=f"l={l}"):
            suite_items("all", l=l)

    @pytest.mark.parametrize("suite, l, match", [
        ("all", 5, r"monodromyExchange \(.*sites=2\): tensor dimension 625 > 256"),
        ("exchange", 6, r"monodromyExchange \(.*sites=2\): tensor dimension 1296 > 256"),
        ("ybe", 7, r"yangBaxter \(l=7\): tensor dimension 343 > 256"),
    ], ids=["all-l5", "exchange-l6", "ybe-l7"])
    def test_oversized_item_rejected_before_any_check_runs(self, suite, l, match, monkeypatch):
        calls = []
        for name in dir(relations):
            if name.startswith("check_"):
                monkeypatch.setattr(relations, name, lambda *a, _n=name, **k: calls.append(_n))
        with pytest.raises(ValueError, match=match):
            run_suite(suite, l=l)
        assert calls == []

    def test_verdicts_follow_the_item_order(self):
        items = suite_items("unitarity", l=2)
        assert run_suite("unitarity", l=2)["verdicts"] == [run_suite_item(it) for it in items]

    def test_only_a_missed_pinned_expectation_fails_the_suite(self, monkeypatch):
        # a stand-in verdict that misses the expectation of the one item named
        def run_item(it, missed):
            holds = it["expected"] if it["expected"] is not None else True
            return {"holds": not holds if it is missed else holds, "expected": it["expected"]}

        items = suite_items("reflection", l=3)
        monkeypatch.setattr(relations, "suite_items", lambda suite, l: items)
        pinned = next(it for it in items if it["expected"] is not None)
        reported = next(it for it in items if it["expected"] is None)
        for missed, ok in ((None, True), (reported, True), (pinned, False)):
            monkeypatch.setattr(relations, "run_suite_item", lambda it: run_item(it, missed))
            assert run_suite("reflection", l=3)["ok"] is ok

    def test_run_suite_item_dispatch(self):
        v = run_suite_item({"check": "kUnitarity", "l": 2, "kind": "soInstanton", "expected": True})
        assert v["holds"] and v["expected"] is True
        with pytest.raises(ValueError):
            run_suite_item({"check": "nope", "l": 2})
