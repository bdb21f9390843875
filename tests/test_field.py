"""Field arithmetic tests.

The main oracle is deliberately dumb: rational functions as unreduced
(num, den) pairs with schoolbook add/mul and cross-multiplied equality.
Every RatFunc operation is compared against it.  sympy provides a second,
independent implementation for gcd and simplification spot checks.
"""

import math
import pickle
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
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


def random_ratfunc(rng):
    num = random_poly(rng)
    den = Poly()
    while den.is_zero():
        den = random_poly(rng, zero_ok=False)
    return num, den


def test_field_laws_against_naive_oracle():
    rng = random.Random(20260816)
    checked = 0
    while checked < 260:
        n1, d1 = random_ratfunc(rng)
        n2, d2 = random_ratfunc(rng)
        a = RatFunc(n1, d1)
        b = RatFunc(n2, d2)
        na = Naive(n1, d1)
        nb = Naive(n2, d2)
        assert na.add(nb).agrees_with(a + b)
        assert na.sub(nb).agrees_with(a - b)
        assert na.mul(nb).agrees_with(a * b)
        if not b.is_zero():
            assert na.div(nb).agrees_with(a / b)
            assert (a / b) * b == a
        # ring laws on the reduced side
        c = RatFunc(*random_ratfunc(rng))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        checked += 1


def test_additive_and_multiplicative_identities():
    rng = random.Random(7)
    for _ in range(50):
        a = RatFunc(*random_ratfunc(rng))
        assert a + RatFunc.zero() == a
        assert a * RatFunc.one() == a
        assert a - a == RatFunc.zero()
        if not a.is_zero():
            assert a * a.inv() == RatFunc.one()


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
        n, d = random_ratfunc(rng)
        r = RatFunc(n, d)
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
        r = RatFunc(*random_ratfunc(rng))
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
        a = RatFunc(*random_ratfunc(rng))
        b = RatFunc(*random_ratfunc(rng))
        results = [a, b, a + b, a - b, a * b]
        if not b.is_zero():
            results.append(a / b)
        for r in results:
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
    # a form the table cannot take would stay a residual and change what
    # later results cancel, so the cap fails loudly instead
    known, new = parse_poly("u + h"), parse_poly("u3 + 11*u4 + 13*h")
    RatFunc(Poly.const(1), known)
    assert new not in field._FORM_ID
    monkeypatch.setattr(field, "_FORMS_MAX", len(field._FORMS))
    assert RatFunc(Poly.const(1), known).den_factors() == (1, {known: 1}, None)
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


@settings(max_examples=60, deadline=None)
@given(n1=_poly_terms, d1=_poly_terms, n2=_poly_terms, d2=_poly_terms, op=st.sampled_from(sorted(_OPS)))
def test_arithmetic_agrees_with_sympy_cancel(n1, d1, n2, d2, op):
    n1, d1, n2, d2 = map(_poly_from_terms, (n1, d1, n2, d2))
    assume(not d1.is_zero() and not d2.is_zero())
    assume(op != "/" or not n2.is_zero())
    ours = _OPS[op](RatFunc(n1, d1), RatFunc(n2, d2))
    a, b = (_to_sympy(n, _SYMS) / _to_sympy(d, _SYMS) for n, d in ((n1, d1), (n2, d2)))
    num, den = sympy.fraction(sympy.cancel(_OPS[op](a, b)))
    ours_num, ours_den = _to_sympy(ours.num, _SYMS), _to_sympy(ours.den, _SYMS)
    # the same function ...
    assert sympy.expand(ours_num * den - num * ours_den) == 0
    # ... in reduced form: both denominators agree up to a rational constant
    ratio = sympy.cancel(ours_den / den)
    assert ratio.is_Rational and ratio != 0
    assert all(type(c) is int for c in _coefficients(ours))


# linear forms free of u, for u-leading coefficients that split over the table
_U_FREE_FORMS = [parse_poly(s) for s in ("u1 + h", "u1 - h", "2*u1 + h", "u1", "h")]


@settings(max_examples=40, deadline=None)
@given(
    n=_poly_terms,
    d=_poly_terms,
    lead=st.one_of(st.none(), st.lists(st.integers(0, len(_U_FREE_FORMS) - 1), max_size=3)),
)
def test_constant_term_agrees_with_sympy_limit(n, d, lead):
    for form in _U_FREE_FORMS:
        RatFunc(Poly.const(1), form)  # a linear denominator enters the table
    num, den = _poly_from_terms(n), _poly_from_terms(d)
    if lead is not None:
        # above every u-power of num and den: the u-leading coefficient of den
        # is the product of the forms lead picks
        top = Poly.const(1)
        for i in lead:
            top = top * _U_FREE_FORMS[i]
        den = den + top * Poly.var("u", max(den.degree("u") + 1, num.degree("u")))
    assume(not den.is_zero() and num.degree("u") <= den.degree("u"))
    ours = _limit(RatFunc(num, den))
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


def _factored_ratfunc(rng):
    den = Poly.const(rng.choice([1, 2, 3, -1]))
    for _ in range(rng.randint(1, 4)):
        den = den * rng.choice(_FACTORS)
    return RatFunc(_factored_poly(rng, zero_ok=rng.random() < 0.1), den)


def _assert_canonical_equal(ours, full):
    assert ours == full, f"{ours} != {full}"
    assert format_ratfunc(ours) == format_ratfunc(full)


def test_henrici_results_equal_the_full_gcd_form():
    rng = random.Random(5150)
    nontrivial = 0
    for _ in range(150):
        a, b, s = (_factored_ratfunc(rng) for _ in range(3))
        # (s - a) + a = s: the factors of a.den missing from s.den must cancel
        # through gcd(t, g)
        for x, y in ((a, b), (s - a, a)):
            _assert_canonical_equal(x * y, RatFunc(x.num * y.num, x.den * y.den))
            _assert_canonical_equal(x + y, RatFunc(x.num * y.den + y.num * x.den, x.den * y.den))
            _assert_canonical_equal(x - y, RatFunc(x.num * y.den - y.num * x.den, x.den * y.den))
        assert (s - a) + a == s
        if not a.is_zero():
            _assert_canonical_equal(a.inv(), RatFunc(a.den, a.num))
            _assert_canonical_equal(b / a, RatFunc(b.num * a.den, b.den * a.num))
        nontrivial += not poly_gcd(a.den, b.den).is_const()
    # the pool makes shared denominator factors common, so the g != 1 path runs
    assert nontrivial > 30


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
# table of linear forms, times a residual for what does not split.  These
# tests hold every operation to the form a full gcd of the unreduced pair
# gives, computed here by poly_gcd alone, and to sympy's cancel.
_LINEAR_FORMS = _FACTORS + [parse_poly("u1 + u2 + h"), parse_poly("u - u1 + h")]
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


def _mixed(const, picks, residual, extra, num_picks, num_terms):
    """(num, den): a small numerator times linear forms, over const times
    linear forms (repeats allowed) times at most one nonlinear factor."""
    den = Poly.const(const)
    for i in picks:
        den = den * _LINEAR_FORMS[i]
    if residual is not None:
        den = den * _RESIDUALS[residual]
    num = _poly_from_terms(num_terms) + extra
    for i in num_picks:
        num = num * _LINEAR_FORMS[i]
    return num, den


_mixed_ratfuncs = st.tuples(
    st.sampled_from([1, 2, 3, -1, -6]),
    st.lists(st.integers(0, len(_LINEAR_FORMS) - 1), max_size=3),
    st.one_of(st.none(), st.integers(0, len(_RESIDUALS) - 1)),
    st.sampled_from([Poly(), Poly.const(1), parse_poly("u1"), _RESIDUALS[0]]),
    st.lists(st.integers(0, len(_LINEAR_FORMS) - 1), max_size=2),
    st.lists(st.tuples(st.tuples(*[st.integers(0, 1)] * len(_HYP_VARS)), st.integers(-3, 3)), max_size=2),
)


@settings(max_examples=60, deadline=None)
@given(x=_mixed_ratfuncs, y=_mixed_ratfuncs, op=st.sampled_from(["+", "-", "*", "/", "inv"]))
def test_factor_base_agrees_with_full_gcd_and_sympy(x, y, op):
    (n1, d1), (n2, d2) = _mixed(*x), _mixed(*y)
    a, b = RatFunc(n1, d1), RatFunc(n2, d2)
    assert (a.num, a.den) == _full_gcd_form(n1, d1)
    if op == "inv":
        assume(not n1.is_zero())
        ours, num, den = a.inv(), d1, n1
    else:
        assume(op != "/" or not n2.is_zero())
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
    assert product.den_factors()[2] is None and total.den_factors()[2] is None
    assert product == RatFunc(a.num * b.num, a.den * b.den)
    assert total == RatFunc(a.num * b.den + b.num * a.den, a.den * b.den)
    assert difference == RatFunc(a.num * b.den - b.num * a.den, a.den * b.den)
    # the constructor splits a denominator over the table without a gcd too
    calls.clear()
    assert RatFunc(total.num, total.den) == total
    assert RatFunc(product.num * Poly.var("u2"), product.den * Poly.var("u2")) == product
    assert calls == []


@pytest.mark.parametrize("residual", _RESIDUALS)
def test_a_residual_operand_goes_to_the_constructor_once(monkeypatch, residual):
    table = (U1 - H) / (U + H) / (U1 + U2 + H)
    with_residual = RatFunc(Poly.var("u") - Poly.var("u1"), residual * (U + H).num)
    built = _counting_constructor(monkeypatch)
    for x, y in ((with_residual, table), (table, with_residual), (with_residual, with_residual * U)):
        for op, num, den in (
            ("+", x.num * y.den + y.num * x.den, x.den * y.den),
            ("-", x.num * y.den - y.num * x.den, x.den * y.den),
            ("*", x.num * y.num, x.den * y.den),
        ):
            built.clear()
            got = _OPS[op](x, y)
            assert built == [(num, den)], (str(x), op, str(y))
            assert (got.num, got.den) == _full_gcd_form(num, den)
            _assert_canonical_equal(got, RatFunc(num, den))


def test_residual_goes_to_the_general_gcd(monkeypatch):
    r = parse_poly("u^2 + h^2")
    RatFunc(Poly.const(1), parse_poly("u + h"))  # enters u + h into the table
    a = RatFunc(Poly.const(1), r * parse_poly("u + h"))
    calls = _counting_gcd(monkeypatch)
    total = a + RatFunc(Poly.var("u"), r)
    assert calls
    assert total == RatFunc(Poly.var("u") * parse_poly("u + h") + Poly.const(1), r * parse_poly("u + h"))
    c, forms, residual = total.den_factors()
    assert (c, forms, residual) == (1, {parse_poly("u + h"): 1}, r)


def test_a_residual_hiding_a_table_form_is_split_before_a_sum():
    # two forms no other test uses: their product enters as a residual, then
    # one of them joins the table; the sum must still see it as common
    l1, l2 = parse_poly("u3 + 5*u4 + h"), parse_poly("u4 - 3*u3 + 2*h")
    assert l1 not in field._FORM_ID and l2 not in field._FORM_ID
    a = RatFunc(Poly.var("u"), l1 * l2)
    assert a.den_factors() == (1, {}, l1 * l2)
    b = RatFunc(Poly.const(1), l1)
    assert l1 in field._FORM_ID
    # what is left of the residual is linear, so it joins the table as well
    assert a.den_factors() == (1, {l1: 1, l2: 1}, None)
    for x, y in ((a, b), (b, a), (a, a * b), (a * b, b - a)):
        for got, num, den in (
            (x + y, x.num * y.den + y.num * x.den, x.den * y.den),
            (x - y, x.num * y.den - y.num * x.den, x.den * y.den),
            (x * y, x.num * y.num, x.den * y.den),
        ):
            assert (got.num, got.den) == _full_gcd_form(num, den), (str(x), str(y))
    assert a + b - b == a and (a + b) * l2 == RatFunc(Poly.var("u") + l2, l1)
    # a's residual l3 l4 hides l4, which joins the table after a is built,
    # and l3, which d's residual l3 q shares: sums must cancel both
    l3, l4 = parse_poly("u4 + 7*u3 - h"), parse_poly("2*u4 - 5*u3 + 3*h")
    q = parse_poly("u^2 + h^2")
    assert l3 not in field._FORM_ID and l4 not in field._FORM_ID
    a = RatFunc(Poly.const(1), l3 * l4)
    RatFunc(Poly.const(1), l4)
    d = RatFunc(Poly.const(1), l3 * l4 * q)
    assert l3 not in field._FORM_ID and d.den_factors() == (1, {l4: 1}, l3 * q)
    for x, y in ((a, d), (d, a)):
        for got, num in ((x + y, x.num * y.den + y.num * x.den), (x - y, x.num * y.den - y.num * x.den)):
            assert (got.num, got.den) == _full_gcd_form(num, x.den * y.den), (str(x), str(y))
            assert got == RatFunc(num, x.den * y.den)


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
    # form ids index one process's table, so a pickle holds num and den
    for r in (H / (U1 + U2 + H) / (U - H), RatFunc(parse_poly("u"), parse_poly("u^2 + h^2")), RatFunc.zero()):
        state = r.__reduce__()
        assert state == (RatFunc, (r.num, r.den))
        copy = pickle.loads(pickle.dumps(r))
        assert copy == r and hash(copy) == hash(r) and str(copy) == str(r)


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
