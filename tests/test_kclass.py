"""Reflection transforms on K-classes, checked against hand-worked walks."""

import random

import pytest

from oracles import reflect_step_generic
from refleq.dynkin import DynkinType, coxeter_number, invast, longest_word
from refleq.kclass import (
    GenericityError,
    KClassExpr,
    QLaurent,
    framing_permutation,
    longest_reflection_transform,
    longest_transform_summary,
    q_integer,
    reflect_step,
    u_class,
    w0_summary_dict,
)

ALL_TYPES = [DynkinType.parse(s) for s in ("A1", "A2", "A3", "A4", "A5", "D4", "D5", "E6")]


def qp(k, c=1):
    return QLaurent.q_power(k, c)


def test_q_integer_values():
    assert q_integer(0).is_zero()
    assert q_integer(1) == QLaurent.one()
    assert q_integer(2) == qp(1) + qp(-1)
    assert q_integer(3) == qp(2) + qp(0) + qp(-2)
    for m in range(1, 8):
        assert q_integer(-m) == -q_integer(m)


def test_q_integer_recurrence():
    # [2][m] = [m+1] + [m-1], the standard quantum-integer product rule.
    for m in range(1, 10):
        assert q_integer(2) * q_integer(m) == q_integer(m + 1) + q_integer(m - 1)


def test_qlaurent_str():
    assert str(QLaurent.zero()) == "0"
    assert str(qp(5, -1)) == "-q^5"
    assert str(q_integer(2)) == "q + q^-1"
    assert str(q_integer(3)) == "q^2 + 1 + q^-2"
    assert str(qp(1, 2) + qp(0, -3)) == "2*q - 3"


def test_u_class_a2():
    t = DynkinType.parse("A2")
    got = u_class(t, 1)
    expected = KClassExpr(
        {
            ("W", 1): qp(-1),
            ("V", 1): qp(0, -1) + qp(-2, -1),
            ("V", 2): qp(-1),
        }
    )
    assert got == expected


def test_u_class_d4_center():
    t = DynkinType.parse("D4")
    got = u_class(t, 2)
    expected = KClassExpr(
        {
            ("W", 2): qp(-1),
            ("V", 2): qp(0, -1) + qp(-2, -1),
            ("V", 1): qp(-1),
            ("V", 3): qp(-1),
            ("V", 4): qp(-1),
        }
    )
    assert got == expected


def test_reflect_step_wall():
    t = DynkinType.parse("A2")
    exprs = {j: KClassExpr.symbol("U", j) for j in t.vertices}
    with pytest.raises(GenericityError):
        reflect_step(t, exprs, 2, (-1, 0))


def test_staircase_walk_reads_only_negative_chamber_values():
    # the walk of longest_reflection_transform, replayed step by step: every
    # zeta_i it reads is negative, so reflect_step's wall check never fires
    types = [f"A{n}" for n in range(1, 13)] + [f"D{n}" for n in range(4, 13)] + ["E6"]
    steps = 0
    for t in map(DynkinType.parse, types):
        for word in (longest_word(t), longest_word(t, prefer_high=True)):
            zeta = tuple(-k for k in range(1, t.rank + 1))
            exprs = {j: KClassExpr.symbol("U", j) for j in t.vertices}
            for i in reversed(word):
                assert zeta[i - 1] < 0, (t, word, zeta)
                exprs, zeta = reflect_step(t, exprs, i, zeta)
                steps += 1
            assert exprs == longest_reflection_transform(t, word)
    assert steps == 1928


def u_sym(j, coeff=None):
    return KClassExpr.symbol("U", j, coeff)


def test_a1_hand_walk():
    t = DynkinType.parse("A1")
    exprs = {1: u_sym(1)}
    exprs, zeta = reflect_step(t, exprs, 1, (-1,))
    assert zeta == (1,)
    assert exprs[1] == u_sym(1, qp(2, -1))


def test_a2_hand_walk():
    # Word (1, 2, 1), rightmost reflection first, worked by hand.
    t = DynkinType.parse("A2")
    exprs = {1: u_sym(1), 2: u_sym(2)}
    zeta = (-1, -2)

    exprs, zeta = reflect_step(t, exprs, 1, zeta)
    assert zeta == (1, -3)
    assert exprs[1] == u_sym(1, qp(2, -1))
    assert exprs[2] == u_sym(2) + u_sym(1, qp(1))

    exprs, zeta = reflect_step(t, exprs, 2, zeta)
    assert zeta == (-2, 3)
    assert exprs[1] == u_sym(2, qp(1))
    assert exprs[2] == u_sym(2, qp(2, -1)) + u_sym(1, qp(3, -1))

    exprs, zeta = reflect_step(t, exprs, 1, zeta)
    assert zeta == (2, 1)
    assert exprs[1] == u_sym(2, qp(3, -1))
    assert exprs[2] == u_sym(1, qp(3, -1))


def test_longest_transform_is_minus_q_coxeter_times_invast():
    for t in ALL_TYPES:
        summary = longest_transform_summary(t)
        iv = invast(t)
        h = coxeter_number(t)
        for j in t.vertices:
            image, coeff = summary[j]
            assert image == iv[j]
            assert coeff == qp(h, -1)


def test_longest_transform_word_independent():
    for t in ALL_TYPES:
        low = longest_reflection_transform(t, longest_word(t))
        high = longest_reflection_transform(t, longest_word(t, prefer_high=True))
        assert low == high


def test_framing_permutation():
    t = DynkinType.parse("A4")
    iv = invast(t)
    ident = {i: i for i in t.vertices}
    assert framing_permutation(t, iv) == ident
    assert framing_permutation(t, ident) == iv
    for t2 in ALL_TYPES:
        perm = framing_permutation(t2, invast(t2))
        assert sorted(perm.values()) == list(t2.vertices)


def test_w0_summary_dict_a4():
    assert w0_summary_dict(DynkinType.parse("A4")) == {
        "1": [4, "-q^5"],
        "2": [3, "-q^5"],
        "3": [2, "-q^5"],
        "4": [1, "-q^5"],
    }


def naive_product(a, b):
    out = {}
    for k1, c1 in a.coeffs.items():
        for k2, c2 in b.coeffs.items():
            out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
    return QLaurent(out)


def random_laurent(rng, terms):
    return QLaurent({rng.randint(-6, 6): rng.choice((-5, -3, -2, -1, 1, 2, 4, 7)) for _ in range(terms)})


def test_one_term_product_is_the_general_product():
    rng = random.Random(23)
    for _ in range(400):
        mono = QLaurent.q_power(rng.randint(-7, 7), rng.choice((-6, -2, -1, 1, 3, 9)))
        other = random_laurent(rng, rng.randint(0, 5))
        expected = naive_product(mono, other)
        assert mono * other == expected
        assert other * mono == expected
        assert mono * mono == naive_product(mono, mono)
    assert QLaurent.q_power(-3, 2) * QLaurent.zero() == QLaurent.zero()
    assert QLaurent.q_power(-2, -3) * (qp(1, 4) + qp(-5, -1)) == qp(-1, -12) + qp(-7, 3)


def random_expr(rng, t):
    parts = {}
    for _ in range(rng.randint(0, 4)):
        sym = (rng.choice("WVU"), rng.choice(t.vertices))
        parts[sym] = random_laurent(rng, rng.randint(1, 3))
    return KClassExpr(parts)


def test_sums_and_shifts_equal_the_filtered_constructor():
    # __add__ and shifted build their dicts without the constructor's zero
    # filter; they must still give its result and store no zero coefficient,
    # on sums that cancel too
    rng = random.Random(25)
    t = DynkinType.parse("D5")
    cancelled = 0
    for n in range(600):
        a = random_expr(rng, t)
        b = random_expr(rng, t)
        if n % 3 == 0:  # cancel some or all of a's terms
            b = b + KClassExpr({sym: -c for sym, c in a.parts.items() if rng.random() < 0.7})
        before = (str(a), str(b))
        total = a + b
        symbols = set(a.parts) | set(b.parts)
        assert total == KClassExpr(
            {sym: a.parts.get(sym, QLaurent.zero()) + b.parts.get(sym, QLaurent.zero()) for sym in symbols}
        )
        cancelled += len(symbols) - len(total.parts)
        k, sign = rng.randint(-4, 4), rng.choice((-3, -1, 1, 2))
        shifted = a.shifted(k, sign)
        assert shifted == KClassExpr({sym: cc * qp(k, sign) for sym, cc in a.parts.items()})
        difference = a + b.shifted(0, -1)
        assert difference == KClassExpr(
            {sym: a.parts.get(sym, QLaurent.zero()) - b.parts.get(sym, QLaurent.zero()) for sym in symbols}
        )
        for expr in (total, shifted, difference):
            assert all(isinstance(cc, QLaurent) and not cc.is_zero() for cc in expr.parts.values())
        assert (str(a), str(b)) == before
    assert cancelled > 100
    assert (a + a.shifted(0, -1)).parts == {}


ORACLE_TYPES = [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 9)] + ["E6"]


@pytest.mark.parametrize("name", ORACLE_TYPES)
def test_reflect_step_matches_the_generic_step(name):
    # start rows that mix W, V and U symbols: the u_class values and random
    # expressions, reflected at every vertex with zeta_i of either sign
    t = DynkinType.parse(name)
    rng = random.Random(name)
    starts = [{j: u_class(t, j) for j in t.vertices}]
    starts += [{j: random_expr(rng, t) for j in t.vertices} for _ in range(3)]
    for exprs in starts:
        for i in t.vertices:
            for sign in (-1, 1):
                zeta = tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in t.vertices)
                zeta = zeta[: i - 1] + (sign * abs(zeta[i - 1]),) + zeta[i:]
                assert reflect_step(t, exprs, i, zeta) == reflect_step_generic(t, exprs, i, zeta)


def test_longest_walk_needs_no_laurent_arithmetic(monkeypatch):
    # the walk shifts flat (symbol, exponent) terms: with QLaurent products
    # and sums raising, it still runs on both reduced words and the summary
    # still reads -q^h U_invast(j)
    def refuse(*args):
        raise AssertionError("Laurent arithmetic in the longest walk")

    for name in ("__mul__", "__add__"):
        monkeypatch.setattr(QLaurent, name, refuse)
    for t in map(DynkinType.parse, ("E6", "D8")):
        low = longest_reflection_transform(t, longest_word(t))
        high = longest_reflection_transform(t, longest_word(t, prefer_high=True))
        assert low == high
        h = coxeter_number(t)
        iv = invast(t)
        assert longest_transform_summary(t) == {j: (iv[j], qp(h, -1)) for j in t.vertices}
        assert {j: str(e) for j, e in low.items()} == {j: f"(-q^{h})*U{iv[j]}" for j in t.vertices}
    with pytest.raises(AssertionError):
        qp(1) * qp(1)


def test_parts_is_a_copy():
    expr = u_class(DynkinType.parse("D5"), 2)
    before = str(expr)
    same = KClassExpr(expr.parts)
    parts = expr.parts
    parts[("W", 2)] = qp(7, 3)
    parts[("U", 1)] = qp(0)
    parts[("V", 2)].coeffs[5] = 1
    del parts[("V", 1)]
    assert expr == same and str(expr) == before
    assert expr.parts == same.parts and expr.parts is not expr.parts
