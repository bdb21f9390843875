"""The sparse-term sum, product and printer, against naive loops."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refleq.field import Poly, _format_mono
from refleq.kclass import QLaurent, _format_q
from refleq.terms import add_terms, format_terms, mul_into, mul_terms

# small coefficients and few keys, so sums and products often cancel
_coeffs = st.integers(-3, 3).filter(bool)
_int_keys = st.integers(-4, 4)
_tuple_keys = st.tuples(st.integers(-2, 2), st.sampled_from("WVU"))
_keys = st.one_of(st.just(_int_keys), st.just(_tuple_keys))


def _naive_sum(f, g, sign):
    out = {}
    for k in [*f, *g]:
        c = f.get(k, 0) + sign * g.get(k, 0)
        if c:
            out[k] = c
    return out


def _naive_product(f, g):
    pairs = [(k1 + k2, c1 * c2) for k1, c1 in f.items() for k2, c2 in g.items()]
    out = {}
    for k in {k for k, _ in pairs}:
        c = sum(c for key, c in pairs if key == k)
        if c:
            out[k] = c
    return out


@st.composite
def _operands(draw, count):
    keys = draw(_keys)
    return [draw(st.dictionaries(keys, _coeffs, max_size=5)) for _ in range(count)]


@settings(max_examples=200, deadline=None)
@given(operands=_operands(2), sign=st.sampled_from([1, -1, 2]))
def test_add_terms_is_the_naive_sum(operands, sign):
    f, g = operands
    before = copy.deepcopy(operands)
    assert add_terms(f, g, sign) == _naive_sum(f, g, sign)
    assert operands == before
    # f itself when g is empty, so no dict is copied to add nothing
    assert add_terms(f, {}, sign) is f


@settings(max_examples=200, deadline=None)
@given(operands=_operands(2))
def test_mul_terms_is_the_naive_product(operands):
    f, g = operands
    before = copy.deepcopy(operands)
    assert mul_terms(f, g) == _naive_product(f, g)
    assert 0 not in mul_terms(f, g).values()
    assert operands == before


@settings(max_examples=200, deadline=None)
@given(operands=_operands(3))
def test_mul_into_adds_the_product_to_its_accumulator(operands):
    acc, f, g = operands
    start = dict(acc)
    before = copy.deepcopy([f, g])
    assert mul_into(acc, f, g) is acc
    # every key of the product stays, with 0 where its sum cancelled
    assert set(acc) == set(start) | {k1 + k2 for k1 in f for k2 in g}
    assert {k: c for k, c in acc.items() if c} == _naive_sum(start, _naive_product(f, g), 1)
    assert [f, g] == before


@pytest.mark.parametrize("f", [{}, {1: 2, -1: -1}, {("W", 0): 1}])
def test_an_empty_operand(f):
    assert add_terms(f, {}) is f
    assert add_terms({}, f) == f and add_terms({}, f, -1) == {k: -c for k, c in f.items()}
    assert mul_terms(f, {}) == mul_terms({}, f) == {}
    assert mul_into({0: 5}, f, {}) == mul_into({0: 5}, {}, f) == {0: 5}


def test_sums_and_products_that_cancel():
    f = {2: 1, -1: 3, 0: -2}
    assert add_terms(f, f, -1) == {}
    assert add_terms(f, {-1: -3}) == {2: 1, 0: -2}
    # (q + 1)(q - 1) = q^2 - 1: the q terms cancel
    assert mul_terms({1: 1, 0: 1}, {1: 1, 0: -1}) == {2: 1, 0: -1}
    # tuple keys concatenate, which does not commute: (W + V)(W - V)
    # keeps WV and VW apart
    assert mul_terms({("W",): 1, ("V",): 1}, {("W",): 1, ("V",): -1}) == {
        ("W", "W"): 1,
        ("W", "V"): -1,
        ("V", "W"): 1,
        ("V", "V"): -1,
    }
    # the product cancels the accumulator to zeros, which stay
    assert mul_into({2: -1, 0: 1}, {1: 1, 0: 1}, {1: 1, 0: -1}) == {2: 0, 0: 0, 1: 0}


@pytest.mark.parametrize(
    "terms,mono,text",
    [
        # Poly's printer: packed monomials, descending
        ({}, _format_mono, "0"),
        ({0: -4}, _format_mono, "-4"),
        ((Poly.var("u", 2).scale(-3) + Poly.var("u1") + Poly.const(1)).terms, _format_mono, "-3*u^2 + u1 + 1"),
        ((Poly.const(-2) - Poly.var("h") * Poly.var("u")).terms, _format_mono, "-h*u - 2"),
        ((Poly.var("h", 2).scale(2) - Poly.var("h") - Poly.const(1)).terms, _format_mono, "2*h^2 - h - 1"),
        # QLaurent's printer: q exponents, descending
        ({}, _format_q, "0"),
        ({0: 1}, _format_q, "1"),
        ({1: 1, 0: -1}, _format_q, "q - 1"),
        ({1: -1, 0: 1, -1: -1}, _format_q, "-q + 1 - q^-1"),
        ({3: -2, 1: 1, -2: 5}, _format_q, "-2*q^3 + q + 5*q^-2"),
    ],
)
def test_format_terms(terms, mono, text):
    assert format_terms(terms, mono) == text


def test_format_terms_is_each_printer():
    p = Poly({(0, 1, 0, 0, 0, 0): -1, (0, 0, 0, 0, 0, 0): 3})
    assert str(p) == format_terms(p.terms, _format_mono) == "-u + 3"
    q = QLaurent({2: -1, -1: 1})
    assert str(q) == format_terms(q.coeffs, _format_q) == "-q^2 + q^-1"
