"""Field arithmetic tests.

The main oracle is deliberately dumb: rational functions as unreduced
(num, den) pairs with schoolbook add/mul and cross-multiplied equality.
Every RatFunc operation is compared against it.  sympy provides a second,
independent implementation for gcd and simplification spot checks.
"""

import functools
import math
import operator
import os
import pickle
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import entry, parse_poly, parse_ratfunc
from refleq import field
from refleq.field import (
    H,
    NVARS,
    Poly,
    RatFunc,
    U,
    U1,
    U2,
    VARS,
    VAR_INDEX,
    format_poly,
    format_ratfunc,
    poly_div_exact,
    poly_gcd,
)
from refleq.matrix import LabeledMatrix
from refleq.rkmat import constant_term_matrix


class Naive:
    """Unreduced rational pair; the trusted-but-slow reference."""

    def __init__(self, num, den):
        self.num = num
        self.den = den

    def add(self, o):
        return Naive(self.num * o.den + o.num * self.den, self.den * o.den)

    def sub(self, o):
        return Naive(self.num * o.den - o.num * self.den, self.den * o.den)

    def mul(self, o):
        return Naive(self.num * o.num, self.den * o.den)

    def div(self, o):
        return Naive(self.num * o.den, self.den * o.num)

    def agrees_with(self, rf):
        return self.num * rf.den == rf.num * self.den


def random_poly(rng, vars_=("h", "u", "u1"), max_terms=3, max_deg=2, zero_ok=True):
    p = Poly()
    for _ in range(rng.randint(0 if zero_ok else 1, max_terms)):
        exps = [0] * len(VARS)
        for v in vars_:
            exps[VARS.index(v)] = rng.randint(0, max_deg)
        c = rng.randint(-3, 3)
        p = p + Poly({tuple(exps): c})
    return p


def random_form(rng):
    """A linear form in h, u, u1: coefficients in -1..1, a constant in -2..2."""
    while True:
        p = Poly.const(rng.randint(-2, 2))
        for v in ("h", "u", "u1"):
            p = p + Poly.var(v).scale(rng.randint(-1, 1))
        if p.degree() == 1:
            return p


def _interned(forms):
    """Enter each linear form into the table, as a denominator of its own."""
    for form in forms:
        RatFunc(Poly.const(1), form)


def _over_forms(num, c, forms):
    """(value, den): num / (c * prod forms), built as num divided by c and
    then by each linear form on its own, so it builds whatever forms the
    table holds, and den, the expanded c * prod forms."""
    value, den = RatFunc(num) / c, Poly.const(c)
    for form in forms:
        value, den = value / RatFunc(form), den * form
    return value, den


def random_ratfunc(rng, invertible=False):
    """(num, den, value): a random numerator over c times up to three random
    linear forms, and its RatFunc (_over_forms).  An invertible value's
    numerator is an int times interned forms, so inv() splits it."""
    if invertible:
        forms = [random_form(rng) for _ in range(rng.randint(0, 2))]
        _interned(forms)
        num = functools.reduce(operator.mul, forms, Poly.const(rng.choice([1, -2, 3])))
    else:
        num = random_poly(rng)
    value, den = _over_forms(num, rng.choice([1, 2, -3]), [random_form(rng) for _ in range(rng.randint(0, 3))])
    return num, den, value


def test_field_laws_against_naive_oracle():
    rng = random.Random(20260816)
    checked = 0
    while checked < 260:
        n1, d1, a = random_ratfunc(rng)
        invertible = rng.random() < 0.5
        n2, d2, b = random_ratfunc(rng, invertible)
        na = Naive(n1, d1)
        nb = Naive(n2, d2)
        assert na.add(nb).agrees_with(a + b)
        assert na.sub(nb).agrees_with(a - b)
        assert na.mul(nb).agrees_with(a * b)
        if invertible:
            assert na.div(nb).agrees_with(a / b)
            assert (a / b) * b == a
        # ring laws on the reduced side
        c = random_ratfunc(rng)[2]
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        checked += 1


def test_additive_and_multiplicative_identities():
    rng = random.Random(7)
    for _ in range(50):
        a = random_ratfunc(rng)[2]
        assert a + RatFunc.zero() == a
        assert a * RatFunc.one() == a
        assert a - a == RatFunc.zero()
        b = random_ratfunc(rng, invertible=True)[2]
        assert b * b.inv() == RatFunc.one()


def _to_sympy(p, syms):
    expr = sympy.Integer(0)
    for e, c in p.terms.items():
        t = sympy.Integer(c)
        for s, x in zip(syms, e):
            if x:
                t *= s ** x
        expr += t
    return expr


def test_gcd_against_sympy():
    syms = sympy.symbols(" ".join(VARS))
    rng = random.Random(99)
    for _ in range(40):
        f = random_poly(rng, max_terms=3, max_deg=2)
        g = random_poly(rng, max_terms=3, max_deg=2)
        w = random_poly(rng, max_terms=2, max_deg=1, zero_ok=False)
        fw, gw = f * w, g * w
        if fw.is_zero() or gw.is_zero():
            continue
        ours = poly_gcd(fw, gw)
        theirs = sympy.gcd(_to_sympy(fw, syms), _to_sympy(gw, syms))
        # associates over Q: the quotient must simplify to a rational constant
        ratio = sympy.simplify(_to_sympy(ours, syms) / theirs)
        assert ratio.is_Rational and ratio != 0, f"gcd mismatch: {ours} vs {theirs}"
        # and the common factor must divide both
        assert poly_div_exact(fw, ours) * ours == fw
        assert poly_div_exact(gw, ours) * ours == gw


def test_exact_division_frozen_example():
    u, h = Poly.var("u"), Poly.var("h")
    q = poly_div_exact(u * u - h * h, u - h)
    assert q == u + h


def test_reduction_cancels_common_factor():
    u, h = Poly.var("u"), Poly.var("h")
    r = RatFunc(u * u - h * h, u - h)
    assert r == RatFunc(u + h)
    assert str(r) == "u + h"


def test_eval_after_reduction_has_no_pole():
    u, h = Poly.var("u"), Poly.var("h")
    r = RatFunc(u * u - h * h, u - h)
    point = {v: Fraction(1) for v in VARS}
    point["u"] = Fraction(3)
    assert r.eval(point) == 4
    # the unreduced den vanishes at u = h; the reduced form must not care
    point["u"] = Fraction(1)
    assert r.eval(point) == 2


def test_eval_reports_genuine_pole():
    u, h = Poly.var("u"), Poly.var("h")
    r = RatFunc(h, u + h)
    point = {v: Fraction(1) for v in VARS}
    point["u"] = Fraction(-1)
    with pytest.raises(ZeroDivisionError):
        r.eval(point)


def test_canonical_string_matches_contract():
    # h / (2u1 + 2h): joint content stays 1, den printed largest-first
    r = RatFunc(Poly.var("h"), Poly.var("u1").scale(2) + Poly.var("h").scale(2))
    assert str(r) == "h / (2*u1 + 2*h)"
    assert parse_ratfunc(str(r)) == r


def test_canonical_form_is_scaling_invariant():
    u, h = Poly.var("u"), Poly.var("h")
    a = RatFunc(h, u + h)
    b = RatFunc(h.scale(3), (u + h).scale(3))
    c = RatFunc(-h, (u + h).scale(-1))
    assert a == b == c
    assert str(a) == "h / (u + h)"
    # the contents of num and den fold into one rational
    d = RatFunc(h.scale(-6), (u + h).scale(14))
    assert d == RatFunc.const(Fraction(-3, 7)) * a == RatFunc(h.scale(-3), (u + h).scale(7))
    assert str(d) == "-3*h / (7*u + 7*h)"


def test_den_leading_coefficient_positive():
    rng = random.Random(5)
    for _ in range(60):
        r = random_ratfunc(rng)[2]
        if r.is_zero():
            assert r.den == Poly.const(1)
            continue
        _, lc = r.den.leading()
        assert lc > 0
        # canonical coefficients are integers with joint content 1
        coeffs = list(r.num.terms.values()) + list(r.den.terms.values())
        assert all(c.denominator == 1 for c in coeffs)
        from math import gcd

        g = 0
        for c in coeffs:
            g = gcd(g, abs(c.numerator))
        assert g == 1


def test_serialization_round_trip_random():
    rng = random.Random(31337)
    for _ in range(80):
        r = random_ratfunc(rng)[2]
        assert parse_ratfunc(format_ratfunc(r)) == r


def test_parse_poly_handles_powers_and_fractions():
    p = parse_poly("3*h^2*u - u1 + 7")
    expected = Poly.var("h", 2) * Poly.var("u").scale(3) - Poly.var("u1") + Poly.const(7)
    assert p == expected
    # a Poly is over Z, so its printed form never holds a fraction
    with pytest.raises(ValueError):
        parse_poly("3/2*h^2*u - u1 + 7")


def test_parse_rejects_a_variable_outside_the_field():
    # q belongs to the K-theory classes, not to the field
    with pytest.raises(ValueError, match="unknown variable 'q'"):
        parse_poly("q + h")


def _limit(f):
    """The limit of f as u -> infinity, read off a 1 x 1 constant_term_matrix."""
    return entry(constant_term_matrix(LabeledMatrix((1,), (1,), {(1, 1): f})), 1, 1)


def test_constant_term_frozen_examples():
    assert _limit(H / (U + H)) == RatFunc.zero()
    assert _limit(U / (U + H)) == RatFunc.one()
    # the other variables stay: only u goes to infinity
    assert _limit(H / (U - U2 + H)) == RatFunc.zero()
    assert _limit((U * U1 + H) / (2 * U - U2)) == U1 / 2


def test_constant_term_rejects_a_growing_entry():
    with pytest.raises(ValueError, match="grows"):
        _limit((U * U) / (U + H))
    with pytest.raises(ValueError, match="grows"):
        _limit(U1 * U + H)


def test_pow_and_string_of_negative_leading():
    u, h = Poly.var("u"), Poly.var("h")
    r = RatFunc(-h, u)
    assert str(r) == "-h / u"
    assert parse_ratfunc("-h / u") == r


def _coefficients(r):
    return list(r.num.terms.values()) + list(r.den.terms.values())


def test_canonical_coefficients_are_ints():
    rng = random.Random(4242)
    for _ in range(60):
        a = random_ratfunc(rng)[2]
        b = random_ratfunc(rng, invertible=True)[2]
        for r in (a, b, a + b, a - b, a * b, a / b):
            assert all(type(c) is int for c in _coefficients(r)), r
    # non-integral content still gives an integral canonical form:
    # (3/2 h^2 u - 1/3 u1) / (5/7 u + 1/2), once through the constructor's
    # contents and once through rational constants
    built = RatFunc(parse_poly("126*h^2*u - 28*u1"), parse_poly("60*u + 42"))
    sixth, fourteenth = RatFunc.const(Fraction(1, 6)), RatFunc.const(Fraction(1, 14))
    r = sixth * parse_poly("9*h^2*u - 2*u1") / (fourteenth * parse_poly("10*u + 7"))
    assert r == built
    assert str(r) == str(built) == "(63*h^2*u - 14*u1) / (30*u + 21)"
    assert all(type(c) is int for c in _coefficients(r))


def test_const_value_is_an_exact_fraction():
    for c in (Fraction(3, 2), 3, Fraction(-4, 2), 0):
        assert RatFunc.const(c) == c
    assert RatFunc.const(3) / RatFunc.const(2) == Fraction(3, 2)
    # in lowest terms, the sign in the numerator
    half, three = RatFunc.const(Fraction(1, 2)), RatFunc.const(3)
    assert (half.num, half.den) == (Poly.const(1), Poly.const(2))
    assert (three.num, three.den) == (Poly.const(3), Poly.const(1))
    assert half == Fraction(1, 2) and half != Fraction(1, 3) and three == 3
    assert RatFunc.one() == Fraction(1) and RatFunc.const(Fraction(-4, 6)) == Fraction(-2, 3)


def test_const_takes_ints_and_fractions_only():
    # a float would enter the canonical form as its binary value
    for c in (0.1, 1.0, "1/2"):
        with pytest.raises(TypeError):
            RatFunc.const(c)
        with pytest.raises(TypeError):
            U + c
    with pytest.raises(TypeError, match="an int or a Fraction, not float"):
        RatFunc.const(0.5)
    assert RatFunc.one().__eq__(0.5) is NotImplemented
    assert RatFunc.const(True) == RatFunc.one()


def test_non_integral_poly_arithmetic_and_round_trip():
    # 3/2 h^2 u - 1/3 u1 + 7 is a RatFunc whose content is 1/6
    q = parse_poly("9*h^2*u - 2*u1 + 42")
    assert format_poly(q) == "9*h^2*u - 2*u1 + 42"
    assert parse_poly(format_poly(q)) == q
    p = RatFunc.const(Fraction(1, 6)) * q
    assert (p.num, p.den) == (q, Poly.const(6))
    assert parse_ratfunc(format_ratfunc(p)) == p
    doubled = p + p
    assert (doubled.num, doubled.den) == (q, Poly.const(3))
    assert p - p == RatFunc.zero()
    six = p * 6
    assert (six.num, six.den) == (q, Poly.const(1))
    assert all(type(c) is int for c in _coefficients(six))
    assert p * RatFunc.const(Fraction(3, 7)) == RatFunc(q, Poly.const(14))
    assert parse_ratfunc(format_ratfunc(p * p)) == p * p


def test_poly_coefficients_are_ints_and_q_lives_in_the_content():
    u = Poly.var("u")
    for build in (
        lambda: Poly({(0, 1, 0, 0, 0, 0): Fraction(1, 2)}),
        lambda: Poly({(0, 1, 0, 0, 0, 0): Fraction(4, 2)}),
        lambda: Poly.const(0.5),
        lambda: u.scale(Fraction(3, 7)),
    ):
        with pytest.raises(TypeError):
            build()
    # the quotient 1/2 is not in Z[h..u4]: a remainder, as for u / (u + 1)
    with pytest.raises(ValueError):
        poly_div_exact(u, u.scale(2))
    with pytest.raises(ValueError):
        poly_div_exact(u + Poly.const(1), Poly.const(2))
    assert RatFunc(u, u.scale(2)) == RatFunc.const(Fraction(1, 2))
    assert RatFunc(u.scale(4), Poly.const(6)) == RatFunc.const(Fraction(2, 3)) * U


def test_a_full_form_table_raises(monkeypatch):
    # a denominator holding a form the table cannot take could not be
    # built, so the cap fails loudly
    known, new = parse_poly("u + h"), parse_poly("u3 + 11*u4 + 13*h")
    RatFunc(Poly.const(1), known)
    assert new not in field._FORM_ID
    monkeypatch.setattr(field, "_FORMS_MAX", len(field._FORMS))
    assert RatFunc(Poly.const(1), known).den_factors() == (1, {known: 1})
    with pytest.raises(RuntimeError, match="_FORMS_MAX"):
        RatFunc(Poly.const(1), new)
    with pytest.raises(RuntimeError, match="_FORMS_MAX"):
        RatFunc(new).inv()
    assert new not in field._FORM_ID


# sympy cross-check: small random rational functions in h, u, u1
_SYMS = sympy.symbols(" ".join(VARS))
_HYP_VARS = ("h", "u", "u1")
_poly_terms = st.lists(
    st.tuples(st.tuples(*[st.integers(0, 2)] * len(_HYP_VARS)), st.integers(-3, 3)), max_size=3
)
_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


def _poly_from_terms(terms):
    p = Poly()
    for small_exps, c in terms:
        exps = [0] * len(VARS)
        for name, x in zip(_HYP_VARS, small_exps):
            exps[VARS.index(name)] = x
        p = p + Poly({tuple(exps): c})
    return p


# denominators are an int times forms of this pool, with and free of u, each
# divided by on its own (_over_forms); every form is interned first, so a
# divisor whose numerator is a product of them can be inverted
_POOL = [
    parse_poly(s) for s in ("u + h", "u - h", "2*u + h", "u1 - u", "u - 1", "u + u1 - h", "u1 + h", "u1 + 2", "2*u1 + h", "h")
]
_dens = st.tuples(st.sampled_from([1, 2, -3]), st.lists(st.integers(0, len(_POOL) - 1), max_size=3))


@settings(max_examples=60, deadline=None)
@given(n1=_poly_terms, d1=_dens, n2=_poly_terms, d2=_dens, split=_dens, op=st.sampled_from(sorted(_OPS)))
def test_arithmetic_agrees_with_sympy_cancel(n1, d1, n2, d2, split, op):
    _interned(_POOL)
    # a divisor's numerator splits over the table: an int times pool forms
    divisor = functools.reduce(operator.mul, (_POOL[i] for i in split[1]), Poly.const(split[0]))
    n1, n2 = _poly_from_terms(n1), divisor if op == "/" else _poly_from_terms(n2)
    (x, d1), (y, d2) = (_over_forms(n, c, [_POOL[i] for i in picks]) for n, (c, picks) in ((n1, d1), (n2, d2)))
    ours = _OPS[op](x, y)
    a, b = (_to_sympy(n, _SYMS) / _to_sympy(d, _SYMS) for n, d in ((n1, d1), (n2, d2)))
    num, den = sympy.fraction(sympy.cancel(_OPS[op](a, b)))
    ours_num, ours_den = _to_sympy(ours.num, _SYMS), _to_sympy(ours.den, _SYMS)
    # the same function ...
    assert sympy.expand(ours_num * den - num * ours_den) == 0
    # ... in reduced form: both denominators agree up to a rational constant
    ratio = sympy.cancel(ours_den / den)
    assert ratio.is_Rational and ratio != 0
    assert all(type(c) is int for c in _coefficients(ours))


@settings(max_examples=40, deadline=None)
@given(
    n=_poly_terms,
    c=st.sampled_from([1, 2, -3]),
    picks=st.lists(st.integers(0, len(_POOL) - 1), max_size=4),
)
def test_constant_term_agrees_with_sympy_limit(n, c, picks):
    # the u-leading coefficient of den is an int times its u-free forms
    forms = [_POOL[i] for i in picks]
    # num keeps its terms of u-degree at most den's, so the limit is finite
    top = sum(form.degree("u") for form in forms)
    num = Poly({e: k for e, k in _poly_from_terms(n).terms.items() if e[VAR_INDEX["u"]] <= top})
    value, den = _over_forms(num, c, forms)
    ours = _limit(value)
    u = _SYMS[VARS.index("u")]
    theirs = sympy.limit(_to_sympy(num, _SYMS) / _to_sympy(den, _SYMS), u, sympy.oo)
    assert sympy.cancel(_to_sympy(ours.num, _SYMS) / _to_sympy(ours.den, _SYMS) - theirs) == 0


# Henrici products and sums skip the gcd of the full result.  These tests hold
# them to the form the constructor's full gcd gives: data equality, which sees
# a missed common factor, where the Naive oracle's cross-multiplication cannot.
_FACTORS = [parse_poly(s) for s in ("u + h", "u - h", "2*u + h", "u1 + h", "u1 - u", "u", "h")]


def _factored_poly(rng, zero_ok):
    """A random poly times a random product of factors from a small pool."""
    p = random_poly(rng, max_terms=2, max_deg=1, zero_ok=zero_ok)
    for _ in range(rng.randint(0, 2)):
        p = p * rng.choice(_FACTORS)
    return p


def _factored_ratfunc(rng, invertible=False):
    """A random factored poly over an int times one to four pool factors
    (_over_forms).  An invertible value's numerator is an int times pool
    factors, all interned, so inv() splits it."""
    if invertible:
        num = functools.reduce(operator.mul, rng.sample(_FACTORS, rng.randint(0, 2)), Poly.const(rng.choice([1, -2])))
    else:
        num = _factored_poly(rng, zero_ok=rng.random() < 0.1)
    return _over_forms(num, rng.choice([1, 2, 3, -1]), [rng.choice(_FACTORS) for _ in range(rng.randint(1, 4))])[0]


def _assert_canonical_equal(ours, full):
    assert ours == full, f"{ours} != {full}"
    assert format_ratfunc(ours) == format_ratfunc(full)


def test_henrici_results_equal_the_full_gcd_form(monkeypatch):
    _interned(_FACTORS)
    calls = _counting_gcd(monkeypatch)
    rng = random.Random(5150)
    nontrivial = 0
    for _ in range(150):
        a, b, s = (_factored_ratfunc(rng) for _ in range(3))
        q = _factored_ratfunc(rng, invertible=True)
        # (s - a) + a = s: the factors of a.den missing from s.den must cancel
        # through gcd(t, g)
        for x, y in ((a, b), (s - a, a)):
            _assert_canonical_equal(x * y, RatFunc(x.num * y.num, x.den * y.den))
            _assert_canonical_equal(x + y, RatFunc(x.num * y.den + y.num * x.den, x.den * y.den))
            _assert_canonical_equal(x - y, RatFunc(x.num * y.den - y.num * x.den, x.den * y.den))
        assert (s - a) + a == s
        _assert_canonical_equal(q.inv(), RatFunc(q.den, q.num))
        _assert_canonical_equal(b / q, RatFunc(b.num * q.den, b.den * q.num))
        nontrivial += bool(a.den_factors()[1].keys() & b.den_factors()[1].keys())
    # the pool makes shared denominator factors common, so the g != 1 path runs
    assert nontrivial > 30
    # and no operation, the constructor's included, takes a gcd of polynomials
    assert calls == []


def test_henrici_sum_cancels_the_gcd_of_t_and_g():
    # b = u (u+h), d = u (u-h): g = u and t = 2u, so g2 = gcd(t, g) = u
    u, h = U, H
    total = 1 / (u * (u + h)) + 1 / (u * (u - h))
    assert total == RatFunc(Poly.const(2), parse_poly("u^2 - h^2"))
    assert str(total) == "2 / (u^2 - h^2)"
    b, d = (u * (u + h)).num, (u * (u - h)).num
    _assert_canonical_equal(total, RatFunc(d + b, b * d))


def test_henrici_repeated_factors():
    u, h = U, H
    sq = (u + h) * (u + h)
    cases = [
        # g2 takes one of the two factors of g = (u+h)^2
        ((u + h + 1) / sq, -1 / sq, 1 / (u + h), "+"),
        # g = u + h, t = 1
        ((u + h + 1) / sq, 1 / (u + h), 1 / sq, "-"),
        # products: cross-cancellation of a squared factor against a single one
        (sq / u, h / (u + h), h * (u + h) / u, "*"),
        (1 / sq, u + h, 1 / (u + h), "*"),
        (sq / (u - h), (u - h) / sq, RatFunc.one(), "*"),
    ]
    for a, b, expected, op in cases:
        got = {"+": a + b, "-": a - b, "*": a * b}[op]
        assert got == expected, (str(a), op, str(b), str(got))
        if op == "*":
            full = RatFunc(a.num * b.num, a.den * b.den)
        else:
            sign = 1 if op == "+" else -1
            full = RatFunc(a.num * b.den + b.num.scale(sign) * a.den, a.den * b.den)
        _assert_canonical_equal(got, full)


def test_henrici_sum_that_cancels_to_zero():
    u, h = U, H
    a = (U1 + h) / (u * (u + h))
    partial = 1 / (u * (u + h)) - 1 / (u * (u - h))
    for zero in (a - a, a + (-a), partial + 2 * h / (u * (u + h) * (u - h))):
        assert zero == RatFunc.zero()
        assert zero.den == Poly.const(1)
        assert str(zero) == "0"


def test_poly_div_exact_recovers_random_quotients():
    rng = random.Random(31337)
    checked = 0
    while checked < 120:
        f = random_poly(rng, vars_=("h", "u", "u1", "u2"), max_terms=4, max_deg=2)
        g = random_poly(rng, vars_=("h", "u", "u1", "u2"), max_terms=3, max_deg=2, zero_ok=False)
        if g.is_zero():
            continue
        if rng.random() < 0.5:
            # a divisor with content: the quotient is still integral
            f = f.scale(rng.randint(1, 5))
            g = g.scale(rng.choice([-1, 1]) * rng.randint(2, 5))
        assert poly_div_exact(f * g, g) == f
        checked += 1


def test_poly_div_exact_leading_term_inserted_last():
    def exponent(**powers):
        e = [0] * NVARS
        for name, power in powers.items():
            e[VAR_INDEX[name]] = power
        return tuple(e)

    # the divisor's first-inserted term is its smallest
    g = Poly({exponent(h=1): 2, exponent(u=1): -1, exponent(u=2, u1=1): 3})
    assert g == parse_poly("2*h - u + 3*u^2*u1")
    assert next(iter(g.terms)) != g.leading()[0]
    f = parse_poly("2*u1^2 - h*u + 5")
    assert poly_div_exact(f * g, g) == f
    assert poly_div_exact(g * f, f) == g


def test_poly_div_exact_rejects_a_remainder():
    rng = random.Random(4242)
    for _ in range(60):
        f = random_poly(rng, max_terms=3, max_deg=2)
        g = Poly()
        while g.degree() < 1:
            g = random_poly(rng, max_terms=3, max_deg=2, zero_ok=False)
        # a nonzero remainder of lower total degree than g cannot be divisible by g
        r = Poly()
        while r.is_zero():
            r = random_poly(rng, max_terms=2, max_deg=g.degree() - 1, zero_ok=False)
            r = Poly({e: c for e, c in r.terms.items() if sum(e) < g.degree()})
        with pytest.raises(ValueError):
            poly_div_exact(f * g + r, g)


def test_poly_div_exact_with_remainder_terms_cancelling_to_zero():
    u, h = Poly.var("u"), Poly.var("h")
    # (u^2 - h^2) / (u + h): the second step cancels uh and h^2 at once
    assert poly_div_exact(u * u - h * h, u + h) == u - h
    # (u^3 - h^3) / (u - h): each step cancels the term the step before added
    assert poly_div_exact(u ** 3 - h ** 3, u - h) == u * u + u * h + h * h
    q = poly_div_exact(u ** 6 - h ** 6, u * u + u * h + h * h)
    assert q == (u - h) * (u ** 3 + h ** 3)
    assert all(q.terms.values())


def _sympy_primitive(expr, syms):
    _, prim = sympy.Poly(expr, *syms).primitive()
    return prim.as_expr()


def test_gcd_matches_sympy_up_to_sign():
    syms = sympy.symbols(" ".join(VARS))
    rng = random.Random(2718)
    for _ in range(30):
        w = random_poly(rng, max_terms=2, max_deg=1, zero_ok=False)
        fw = random_poly(rng, max_terms=3, max_deg=2, zero_ok=False) * w
        gw = random_poly(rng, max_terms=3, max_deg=2, zero_ok=False) * w
        ours = _to_sympy(poly_gcd(fw, gw), syms)
        theirs = _sympy_primitive(sympy.gcd(_to_sympy(fw, syms), _to_sympy(gw, syms)), syms)
        assert sympy.expand(ours - theirs) == 0 or sympy.expand(ours + theirs) == 0, (
            str(fw), str(gw), ours, theirs
        )


# The factor base: a denominator is a positive int times exponents over the
# table of linear forms.  These tests hold every operation to the form a full
# gcd of the unreduced pair gives, computed here by poly_gcd alone, and to
# sympy's cancel.
_LINEAR_FORMS = _FACTORS + [parse_poly("u1 + u2 + h"), parse_poly("u - u1 + h")]
# irreducible, so no denominator holding one builds
_RESIDUALS = [parse_poly(s) for s in ("u^2 + h^2", "u*u1 + h^2", "u1^2 - u*h + 2*h^2")]


def _full_gcd_form(num, den):
    """(num, den) reduced by poly_gcd and scaled to joint content 1 and a
    positive leading den coefficient: the canonical data, by the old route."""
    if num.is_zero():
        return Poly(), Poly.const(1)
    g = poly_gcd(num, den)
    num, den = poly_div_exact(num, g), poly_div_exact(den, g)
    sign = 1 if den.leading()[1] > 0 else -1
    num, den = num.scale(sign), den.scale(sign)
    content = math.gcd(*num.terms.values(), *den.terms.values())
    return tuple(Poly({e: c // content for e, c in p.terms.items()}) for p in (num, den))


def _mixed(const, picks, extra, num_picks, num_terms, split=False):
    """(num, den, value): a small numerator times linear forms, over const
    times linear forms (repeats allowed), and its RatFunc (_over_forms).  A
    split numerator is the linear forms alone, so inv() splits it."""
    num = Poly.const(1) if split else _poly_from_terms(num_terms) + extra
    for i in num_picks:
        num = num * _LINEAR_FORMS[i]
    value, den = _over_forms(num, const, [_LINEAR_FORMS[i] for i in picks])
    return num, den, value


_mixed_ratfuncs = st.tuples(
    st.sampled_from([1, 2, 3, -1, -6]),
    st.lists(st.integers(0, len(_LINEAR_FORMS) - 1), max_size=3),
    st.sampled_from([Poly(), Poly.const(1), parse_poly("u1"), _RESIDUALS[0]]),
    st.lists(st.integers(0, len(_LINEAR_FORMS) - 1), max_size=2),
    st.lists(st.tuples(st.tuples(*[st.integers(0, 1)] * len(_HYP_VARS)), st.integers(-3, 3)), max_size=2),
)


@settings(max_examples=60, deadline=None)
@given(x=_mixed_ratfuncs, y=_mixed_ratfuncs, op=st.sampled_from(["+", "-", "*", "/", "inv"]))
def test_factor_base_agrees_with_full_gcd_and_sympy(x, y, op):
    _interned(_LINEAR_FORMS)
    # the operand that inv() or a division inverts has a split numerator
    n1, d1, a = _mixed(*x, split=op == "inv")
    n2, d2, b = _mixed(*y, split=op == "/")
    assert (a.num, a.den) == _full_gcd_form(n1, d1)
    if op == "inv":
        ours, num, den = a.inv(), d1, n1
    else:
        ours = _OPS[op](a, b)
        num, den = {
            "+": (n1 * d2 + n2 * d1, d1 * d2),
            "-": (n1 * d2 - n2 * d1, d1 * d2),
            "*": (n1 * n2, d1 * d2),
            "/": (n1 * d2, d1 * n2),
        }[op]
    assert (ours.num, ours.den) == _full_gcd_form(num, den)
    _assert_canonical_equal(ours, RatFunc(num, den))
    assert hash(ours) == hash(RatFunc(num, den))
    theirs_num, theirs_den = sympy.fraction(sympy.cancel(_to_sympy(num, _SYMS) / _to_sympy(den, _SYMS)))
    ours_num, ours_den = _to_sympy(ours.num, _SYMS), _to_sympy(ours.den, _SYMS)
    assert sympy.expand(ours_num * theirs_den - theirs_num * ours_den) == 0
    assert sympy.cancel(ours_den / theirs_den).is_Rational


def _counting_gcd(monkeypatch):
    calls = []
    real = field.poly_gcd

    def counting(f, g):
        calls.append((f, g))
        return real(f, g)

    monkeypatch.setattr(field, "poly_gcd", counting)
    return calls


def _counting_constructor(monkeypatch):
    calls = []
    real = RatFunc.__init__

    def counting(self, *args):
        calls.append(args)
        real(self, *args)

    monkeypatch.setattr(RatFunc, "__init__", counting)
    return calls


def test_table_denominators_make_no_gcd_call(monkeypatch):
    u, h, u1, u2 = U, H, U1, U2
    # dividing by a linear form enters it into the table
    a = (u1 - h) / (u + h) / (u + h) / (u1 + u2 + h)
    b = (u - u1) / (2 * u + h) / ((u + h) * (u1 + u2 + h))
    calls = _counting_gcd(monkeypatch)
    built = _counting_constructor(monkeypatch)
    product, total, difference = a * b, a + b, a - b
    assert calls == [] and built == []
    forms = [parse_poly(p) for p in ("u + h", "u1 + u2 + h", "2*u + h")]
    assert product.den_factors() == (1, dict(zip(forms, (3, 2, 1))))
    assert total.den_factors() == difference.den_factors() == (1, dict(zip(forms, (2, 1, 1))))
    assert product == RatFunc(a.num * b.num, a.den * b.den)
    assert total == RatFunc(a.num * b.den + b.num * a.den, a.den * b.den)
    assert difference == RatFunc(a.num * b.den - b.num * a.den, a.den * b.den)
    # the constructor splits a denominator over the table without a gcd too
    calls.clear()
    assert RatFunc(total.num, total.den) == total
    assert RatFunc(product.num * Poly.var("u2"), product.den * Poly.var("u2")) == product
    assert calls == []


@pytest.mark.parametrize("residual", _RESIDUALS)
def test_a_nonlinear_factor_is_rejected_by_the_constructor_and_inv(monkeypatch, residual):
    # the constructor and inv() are the only ways in for an expanded
    # denominator: each names the factor left once the table forms are
    # divided out, and a rejected value interns nothing
    table = RatFunc.one() / (U + H)
    calls = _counting_gcd(monkeypatch)
    size = len(field._FORMS)
    message = f"denominator factor {format_poly(residual)} of degree 2 is not a product"
    for build in (
        lambda: RatFunc(Poly.var("u") - Poly.var("u1"), residual * (U + H).num),
        lambda: RatFunc(residual).inv(),
        lambda: table / RatFunc(residual * (U + H).num),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            build()
    assert len(field._FORMS) == size and calls == []


def test_a_residual_is_rejected_before_any_gcd(monkeypatch):
    r = parse_poly("u^2 + h^2")
    RatFunc(Poly.const(1), parse_poly("u + h"))  # enters u + h into the table
    calls = _counting_gcd(monkeypatch)
    with pytest.raises(ValueError, match=re.escape(f"denominator factor {format_poly(r)} of degree 2")):
        RatFunc(Poly.const(1), r * parse_poly("u + h"))
    with pytest.raises(ValueError, match=re.escape(f"denominator factor {format_poly(r)} of degree 2")):
        RatFunc(Poly.var("u"), r)
    assert calls == []
    # the same sum over table forms: u + h and u - h in place of r
    a = RatFunc.one() / (U + H) / (U - H) / (U + H)
    total = a + U / (U + H) / (U - H)
    assert calls == []
    assert total == RatFunc(Poly.var("u") * parse_poly("u + h") + Poly.const(1), parse_poly("u + h") ** 2 * parse_poly("u - h"))
    assert total.den_factors() == (1, {parse_poly("u + h"): 2, parse_poly("u - h"): 1})


def test_a_product_of_new_forms_builds_once_all_but_one_are_interned():
    # two forms no other test uses: their expanded product is rejected while
    # neither is in the table, and builds, the other joining the table as
    # the linear remainder, once one of them is
    l1, l2 = parse_poly("u3 + 5*u4 + h"), parse_poly("u4 - 3*u3 + 2*h")
    assert l1 not in field._FORM_ID and l2 not in field._FORM_ID
    with pytest.raises(ValueError, match=re.escape(f"denominator factor {format_poly(l1 * l2)} of degree 2")):
        RatFunc(Poly.var("u"), l1 * l2)
    assert l1 not in field._FORM_ID and l2 not in field._FORM_ID
    b = RatFunc(Poly.const(1), l1)
    a = RatFunc(Poly.var("u"), l1 * l2)
    assert a.den_factors() == (1, {l1: 1, l2: 1}) and l2 in field._FORM_ID
    assert a == RatFunc(Poly.var("u")) / l1 / l2
    for x, y in ((a, b), (b, a), (a, a * b), (a * b, b - a)):
        for got, num, den in (
            (x + y, x.num * y.den + y.num * x.den, x.den * y.den),
            (x - y, x.num * y.den - y.num * x.den, x.den * y.den),
            (x * y, x.num * y.num, x.den * y.den),
        ):
            assert (got.num, got.den) == _full_gcd_form(num, den), (str(x), str(y))
    assert a + b - b == a and (a + b) * l2 == RatFunc(Poly.var("u") + l2, l1)
    # with l4 interned, l3 l4 builds and l3 joins the table; l3 l4 q does
    # not, and its error names q, what is left once l3 and l4 are divided out
    l3, l4 = parse_poly("u4 + 7*u3 - h"), parse_poly("2*u4 - 5*u3 + 3*h")
    q = parse_poly("u^2 + h^2")
    assert l3 not in field._FORM_ID and l4 not in field._FORM_ID
    RatFunc(Poly.const(1), l4)
    a = RatFunc(Poly.const(1), l3 * l4)
    assert a.den_factors() == (1, {l4: 1, l3: 1})
    with pytest.raises(ValueError, match=re.escape(f"denominator factor {format_poly(q)} of degree 2")):
        RatFunc(Poly.const(1), l3 * l4 * q)


def test_a_zero_at_the_test_point_is_decided_by_exact_division(monkeypatch):
    # t vanishes at the one point of the hyperplane L = 0 that trial
    # division evaluates at, yet L does not divide t: poly_div_exact decides
    form_poly = parse_poly("u1 - u - h")
    form = field._FORMS[field._intern(form_poly)]
    x_k = Poly.var(VARS[form.k])
    t = (x_k.scale(form.lead) - Poly.const(form.root)) * parse_poly("u + 2*h")
    assert field._vanishes_on(t, form, {})
    with pytest.raises(ValueError):
        poly_div_exact(t, form_poly)
    divisions = []
    real = field.poly_div_exact

    def recording(f, g):
        divisions.append(g)
        return real(f, g)

    monkeypatch.setattr(field, "poly_div_exact", recording)
    quotient = RatFunc(t) / RatFunc(form_poly)
    assert form_poly in divisions
    assert quotient.den == form_poly and quotient.num == t
    assert (quotient.num, quotient.den) == _full_gcd_form(t, form_poly)
    # a nonzero value there settles it without a division
    divisions.clear()
    assert not field._vanishes_on(t + Poly.const(1), form, {})
    RatFunc(t + Poly.const(1)) / RatFunc(form_poly)
    assert form_poly not in divisions


def test_pickle_carries_the_value_not_the_table_ids():
    # form ids index one process's table, so a pickle holds num, the
    # content and each form as a Poly, and the load interns the forms
    quarter = RatFunc.const(Fraction(-3, 4)) * U / (2 * U1 + H) / (2 * U1 + H)
    for r in (H / (U1 + U2 + H) / (U - H), quarter, RatFunc.zero()):
        c, forms = r.den_factors()
        assert r.__reduce__() == (field._rebuild, (r.num, c, tuple(forms.items())))
        copy = pickle.loads(pickle.dumps(r))
        assert copy == r and hash(copy) == hash(r) and str(copy) == str(r) and copy.den_factors() == (c, forms)


def _fresh(code, stdin=b""):
    """The stdout, as bytes, of code run in a new interpreter that imports
    this checkout's refleq, whose form table holds only the variables."""
    src = Path(field.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-c", code], env=env, input=stdin, capture_output=True, check=True).stdout


_PICKLED = "H / (U1 + U2 + H) / (U - H)"
_SHOWN = "print(str(r), hash(r), sorted((str(p), e) for p, e in r.den_factors()[1].items()))"


def test_a_pickle_loads_in_a_new_interpreter():
    # made in one process and loaded in another, whose table holds neither
    # form: the value, its hash and its factored denominator come back
    data = _fresh(f"import pickle, sys\nfrom refleq.field import H, U, U1, U2\nsys.stdout.buffer.write(pickle.dumps({_PICKLED}))")
    shown = _fresh(f"import pickle, sys\nr = pickle.loads(sys.stdin.buffer.read())\n{_SHOWN}", data)
    r = H / (U1 + U2 + H) / (U - H)
    assert shown.decode().strip() == f"{r} {hash(r)} {sorted((str(p), e) for p, e in r.den_factors()[1].items())}"
    assert pickle.loads(data) == r


_SPLIT_RULE = """
from refleq.field import H, U1, U2, RatFunc
try:
    RatFunc.one() / ((U1 - U2) * (U1 + H))
except ValueError as e:
    print(e)
r = RatFunc.one() / (U1 - U2) / (U1 + H)
print(r, hash(r), sorted(map(str, r.den_factors()[1])))
"""


def test_an_expanded_denominator_builds_only_over_interned_forms():
    # in a new interpreter, whose table holds neither form, the expanded
    # product is rejected, naming it, and the same value built one form at a
    # time has both forms in its denominator; once they are interned, the
    # expanded product builds, and to a value equal in every part
    rejected, built = _fresh(_SPLIT_RULE).decode().splitlines()
    assert rejected == "denominator factor u1*u2 + h*u2 - u1^2 - h*u1 of degree 2 is not a product of the interned linear forms"
    r = RatFunc.one() / (U1 - U2) / (U1 + H)
    assert built == f"{r} {hash(r)} {sorted(map(str, r.den_factors()[1]))}"
    assert sorted(map(str, r.den_factors()[1])) == ["u1 + h", "u2 - u1"]
    expanded = RatFunc.one() / ((U1 - U2) * (U1 + H))
    assert expanded == r and hash(expanded) == hash(r) and expanded.den_factors() == r.den_factors()


def test_warm_hash_reads_nothing():
    # The first hash is cached; later ones read neither the terms of a Poly
    # nor the parts of a RatFunc, so an equal fresh value still agrees.
    p = parse_poly("h^2*u - 3*u + 1")
    h = hash(p)
    p.terms = None
    assert hash(p) == h == hash(parse_poly("h^2*u - 3*u + 1"))
    r = parse_ratfunc("(u + h) / (u - 2)")
    h = hash(r)
    r.num = r.den = None
    assert hash(r) == h == hash(parse_ratfunc("(u + h) / (u - 2)"))
