"""R- and K-matrix construction, unitarity, and boundary transfer products."""

import functools
import json
import operator
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import entry, linear_combination, swap_matrix
from refleq import acceptance, rkmat
from refleq.field import H, RatFunc, U, U1, U2, format_ratfunc
from refleq.matrix import LabeledMatrix, embed_on_slots, verify_identity
from refleq.relations import (
    check_boundary_factorization,
    check_chain_reflection,
    check_reflection,
    check_ybe,
    run_suite,
)
from refleq.rkmat import (
    KINDS,
    _block,
    chain_factors,
    constant_term_matrix,
    cross_r,
    cross_r_flipped,
    embedded_product,
    k_matrix,
    monodromy_t,
    pair_labels,
    r_bullet_sigma,
    r_bullet_sigma_opposite,
    s_matrix,
    s_matrix_via_transfer,
    sigma_matrix,
    sigma_sigma_r,
    site_labels,
    twisted_monodromy,
    yang_r,
)

ZERO = RatFunc.zero()

# canonical entry strings of k_matrix(kind, l, u), pinned before the field
# switched from Fraction to int coefficients
CANONICAL_K = json.loads((Path(__file__).parent / "kmatrix_canonical.json").read_text())


def fmt(m, r, c):
    return format_ratfunc(entry(m, r, c))


def test_yang_r_frozen_entries():
    r = yang_r(2, U)
    assert fmt(r, (1, 1), (1, 1)) == "1"
    assert fmt(r, (1, 2), (1, 2)) == "u / (u + h)"
    assert fmt(r, (2, 1), (1, 2)) == "h / (u + h)"
    assert entry(r, (1, 1), (2, 2)).num.is_zero()


def test_yang_r_from_swap_oracle():
    # (u * Id + h * P) / (u + h), built independently from the flip matrix.
    for l in (2, 3):
        labels = site_labels(l)
        p = swap_matrix(labels, labels)
        denom = U + H
        oracle = linear_combination((U / denom, LabeledMatrix.identity(pair_labels(l))), (H / denom, p))
        assert yang_r(l, U) == oracle


def test_bullet_block_structure():
    b = r_bullet_sigma(3, U)
    c = H / (U + H * RatFunc.const(Fraction(3, 2)))
    one = RatFunc.one()
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            expected = (one - c) if i == j else ZERO - c
            assert entry(b, (i, i), (j, j)) == expected
    assert entry(b, (1, 2), (1, 2)) == one
    assert entry(b, (2, 1), (1, 2)).num.is_zero()
    assert entry(b, (1, 2), (3, 3)).num.is_zero()


def test_r_unitarity():
    for l in (2, 3):
        ident = LabeledMatrix.identity(pair_labels(l))
        assert yang_r(l, ZERO - U) * yang_r(l, U) == ident
        assert r_bullet_sigma(l, ZERO - U) * r_bullet_sigma(l, U) == ident


def test_k_matrix_frozen_entries():
    k = k_matrix("spInstanton", 2, U)
    assert fmt(k, 1, 1) == "2*u / (2*u + h)"
    assert fmt(k, 2, 1) == "-h / (2*u + h)"

    assert k_matrix("soInstanton", 3, U) == LabeledMatrix.identity((1, 2, 3))

    k = k_matrix("flagPlus", 3, U)
    assert fmt(k, 3, 1) == "1"
    assert fmt(k, 2, 2) == "1"
    assert entry(k, 1, 1).num.is_zero()

    k = k_matrix("flagMinus", 2, U)
    assert fmt(k, 1, 1) == "h / (2*u + h)"
    assert fmt(k, 2, 1) == "2*u / (2*u + h)"

    k = k_matrix("flagMinus", 3, U)
    assert fmt(k, 2, 2) == "1"
    assert fmt(k, 1, 1) == "h / (2*u + h)"
    assert fmt(k, 3, 1) == "2*u / (2*u + h)"
    assert entry(k, 2, 1).num.is_zero()


def test_k_unitarity():
    for kind in KINDS:
        for l in (2, 3):
            prod = k_matrix(kind, l, ZERO - U) * k_matrix(kind, l, U)
            assert prod == LabeledMatrix.identity(site_labels(l)), (kind, l)


def test_sigma_is_involution_and_limit():
    for kind in KINDS:
        for l in (2, 3):
            sig = sigma_matrix(kind, l)
            assert sig * sig == LabeledMatrix.identity(site_labels(l))
            assert constant_term_matrix(k_matrix(kind, l, U)) == sig


def test_r_constant_terms():
    # Both two-site R families tend to the identity at large argument.
    for l in (2, 3):
        ident = LabeledMatrix.identity(pair_labels(l))
        assert constant_term_matrix(yang_r(l, U)) == ident
        assert constant_term_matrix(r_bullet_sigma(l, U)) == ident


def test_cross_r_wiring():
    assert cross_r("spInstanton", 2, U) == r_bullet_sigma_opposite(2, U)
    assert cross_r("spInstanton", 3, U) == r_bullet_sigma(3, U)
    assert cross_r("soInstanton", 2, U) == r_bullet_sigma(2, U)
    assert cross_r("flagPlus", 2, U) == yang_r(2, U)
    assert cross_r("flagMinus", 2, U) == yang_r(2, U)
    for kind in KINDS:
        assert sigma_sigma_r(kind, 2, U) == yang_r(2, U)


def test_flipped_sigma_sigma_r_is_one_matrix_for_every_kind():
    # Y21 is sigma_sigma_r on the two slots in the other order, and
    # sigma_sigma_r is one operator, yang_r, for every kind
    p = swap_matrix(site_labels(3), site_labels(3))
    r = yang_r(3, U1 - U2)
    for kind in KINDS:
        assert sigma_sigma_r(kind, 3, U1 - U2) is r
        flipped = embed_on_slots(sigma_sigma_r(kind, 3, U1 - U2), (1, 0), [site_labels(3)] * 2)
        assert flipped.operator is r and flipped == p * r * p
    with pytest.raises(ValueError, match="unknown kind"):
        sigma_sigma_r("bogus", 3, U1 - U2)


def test_bullet_opposite_block():
    b = r_bullet_sigma_opposite(2, U)
    assert format_ratfunc(entry(b, (1, 1), (1, 1))) == "u / (u + h)"
    assert format_ratfunc(entry(b, (1, 1), (2, 2))) == "h / (u + h)"
    assert format_ratfunc(entry(b, (1, 2), (1, 2))) == "1"
    # Unitary at l = 2 only: the opposite-sign block squares to the identity
    # there, but not for any larger size.
    ident = LabeledMatrix.identity(pair_labels(2))
    assert r_bullet_sigma_opposite(2, ZERO - U) * r_bullet_sigma_opposite(2, U) == ident
    prod3 = r_bullet_sigma_opposite(3, ZERO - U) * r_bullet_sigma_opposite(3, U)
    assert prod3 != LabeledMatrix.identity(pair_labels(3))


def test_cross_r_flipped_is_p_conjugate():
    # The bullet matrix is flip-symmetric, so flipping is invisible there;
    # the Yangian R is flip-symmetric as well.
    for kind in ("spInstanton", "flagPlus"):
        assert cross_r_flipped(kind, 3, U) == cross_r(kind, 3, U)


@pytest.mark.parametrize("l", [2, 3, 4])
@pytest.mark.parametrize("kind", KINDS)
def test_each_flipped_builder_is_p_r_p(kind, l):
    # P from the flip oracle; cross_r_flipped and the flip of sigma_sigma_r
    # place the unflipped operator on the two slots in the other order
    p = swap_matrix(site_labels(l), site_labels(l))
    w = U1 + U2
    flips = (
        (cross_r_flipped(kind, l, w), cross_r(kind, l, w)),
        (embed_on_slots(sigma_sigma_r(kind, l, w), (1, 0), [site_labels(l)] * 2), sigma_sigma_r(kind, l, w)),
    )
    for f, r in flips:
        assert f == p * r * p
        assert f.operator is r


def test_yang_r_shares_its_values_across_sizes():
    w = U1 - U2 + U
    values = lambda m: {id(v) for v in m.entries.values() if v != RatFunc.one()}
    assert values(yang_r(2, w)) == values(yang_r(4, w)) and len(values(yang_r(2, w))) == 2
    # every flag kind's cross R and sigma_sigma_r is yang_r itself
    for kind in ("flagPlus", "flagMinus"):
        assert cross_r(kind, 3, w) is sigma_sigma_r(kind, 3, w) is yang_r(3, w)
    # the flagMinus boundary values are shared by every l and both placements
    flag_minus = [k_matrix("flagMinus", 2, w), k_matrix("flagMinus", 5, w), rkmat.k_matrix_opposite_placement(3, w)]
    assert values(flag_minus[0]) == values(flag_minus[1]) == values(flag_minus[2])
    # the bullet values are shared per (l, u) by both signs
    plain, opposite = r_bullet_sigma(3, w), r_bullet_sigma_opposite(3, w)
    assert entry(plain, (1, 1), (1, 1)) is entry(opposite, (1, 1), (1, 1))
    assert entry(opposite, (1, 1), (2, 2)) is rkmat._bullet_values(3, w)[1]


def test_constant_term_matrix_takes_one_limit_per_distinct_object(monkeypatch):
    for kind in KINDS:
        m = s_matrix(kind, 3, U, (U1,))
        # the limit of each entry on its own, as canonical strings
        expected = {}
        for key, v in m.entries.items():
            d = v.den.degree("u")
            expected[key] = format_ratfunc(RatFunc(v.num.coeff_of("u", d), v.den.coeff_of("u", d)))
        calls = []
        real = RatFunc.__init__
        monkeypatch.setattr(RatFunc, "__init__", lambda self, *args: calls.append(args) or real(self, *args))
        limit = constant_term_matrix(m)
        monkeypatch.undo()
        assert len(calls) == len({id(v) for v in m.entries.values()}) < len(m.entries)
        assert {key: format_ratfunc(v) for key, v in limit.entries.items()} == {
            key: s for key, s in expected.items() if s != "0"
        }
        # equal limits are one object
        assert len({id(v) for v in limit.entries.values()}) == len(set(limit.entries.values()))


def test_monodromy_small():
    ident1 = monodromy_t(2, U, [])
    assert ident1 == LabeledMatrix.identity([(s,) for s in (1, 2)])

    slots = [site_labels(2)] * 2
    assert monodromy_t(2, U, [U1]) == embed_on_slots(yang_r(2, U - U1), (0, 1), slots)

    slots3 = [site_labels(2)] * 3
    expected = embed_on_slots(yang_r(2, U - U2), (0, 2), slots3) * embed_on_slots(
        yang_r(2, U - U1), (0, 1), slots3
    )
    assert monodromy_t(2, U, [U1, U2]) == expected


def test_twisted_monodromy_uses_cross_r():
    slots = [site_labels(2)] * 2
    expected = embed_on_slots(r_bullet_sigma_opposite(2, ZERO - U - U1), (0, 1), slots)
    assert twisted_monodromy(2, U, [U1], "spInstanton") == expected
    expected = embed_on_slots(r_bullet_sigma(2, ZERO - U - U1), (0, 1), slots)
    assert twisted_monodromy(2, U, [U1], "soInstanton") == expected
    expected = embed_on_slots(yang_r(2, ZERO - U - U1), (0, 1), slots)
    assert twisted_monodromy(2, U, [U1], "flagMinus") == expected


def test_chain_factors_run_from_site_n_down():
    calls = []

    def pair(k):
        calls.append(k)
        return yang_r(2, U - k)

    factors = chain_factors(pair, 1, (5, 7, 9))
    assert calls == [3, 2, 1]
    assert [positions for _, positions in factors] == [(1, 9), (1, 7), (1, 5)]
    assert [m for m, _ in factors] == [yang_r(2, U - k) for k in (3, 2, 1)]
    assert chain_factors(pair, 0, ()) == []


def test_embedded_product_folds_from_the_left():
    slots = [site_labels(2)] * 3
    a, b, c = yang_r(2, U), yang_r(2, U1), k_matrix("flagMinus", 2, U2)
    got = embedded_product([(a, (0, 1)), (b, (1, 2)), (c, (2,))], slots)
    expected = embed_on_slots(a, (0, 1), slots) * embed_on_slots(b, (1, 2), slots)
    assert got == expected * embed_on_slots(c, (2,), slots)
    ident = LabeledMatrix.identity([(s, t) for s in (1, 2) for t in (1, 2, 3)])
    assert embedded_product([], [site_labels(2), site_labels(3)]) == ident


def test_s_matrix_no_sites_is_k():
    for kind in KINDS:
        slots = [site_labels(2)]
        expected = embed_on_slots(k_matrix(kind, 2, U), (0,), slots)
        assert s_matrix(kind, 2, U, []) == expected


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("l", [2, 3])
def test_one_tuple_labels_place_like_bare_labels(kind, l):
    # s_matrix with no sites carries 1-tuple labels; placing it again must
    # read each label as its one part
    slots = [site_labels(l)] * 2
    placed = embed_on_slots(s_matrix(kind, l, U, []), (1,), slots)
    assert placed == embed_on_slots(k_matrix(kind, l, U), (1,), slots)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("l,n", [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1)])
def test_s_matrix_routes_agree(kind, l, n):
    # the transfer route inverts the twisted monodromy; no check takes it,
    # so this keeps it, and LabeledMatrix.inverse, as the second route
    shifts = [U1, U2][:n]
    direct = s_matrix(kind, l, U, shifts)
    via = s_matrix_via_transfer(kind, l, U, shifts)
    assert verify_identity([direct], [via])["holds"]


@pytest.mark.parametrize("kind", KINDS)
def test_s_matrix_two_sites_factor_order(kind):
    # C21(u+u1) C21(u+u2) K(u) Y(u-u2) Y(u-u1) on slots (aux, site 1, site 2),
    # multiplied from the left, each C21 the cross R on (site, aux)
    slots = [site_labels(2)] * 3
    factors = [
        embed_on_slots(cross_r(kind, 2, U + U1), (1, 0), slots),
        embed_on_slots(cross_r(kind, 2, U + U2), (2, 0), slots),
        embed_on_slots(k_matrix(kind, 2, U), (0,), slots),
        embed_on_slots(yang_r(2, U - U2), (0, 2), slots),
        embed_on_slots(yang_r(2, U - U1), (0, 1), slots),
    ]
    assert s_matrix(kind, 2, U, [U1, U2]) == functools.reduce(operator.mul, factors)


@pytest.mark.parametrize("kind", KINDS)
def test_s_matrix_constant_term(kind):
    slots = [site_labels(2)] * 2
    expected = embed_on_slots(sigma_matrix(kind, 2), (0,), slots)
    assert constant_term_matrix(s_matrix(kind, 2, U, [U1])) == expected


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("l", [2, 3])
def test_k_matrix_canonical_strings_are_pinned(kind, l):
    m = k_matrix(kind, l, U)
    labels = list(m.row_labels)
    got = [[labels[i], labels[j], format_ratfunc(v)] for (i, j), v in sorted(m.entries.items())]
    assert got == CANONICAL_K[f"{kind} {l}"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("l", [2, 3])
def test_k_matrix_coefficients_are_ints(kind, l):
    for v in k_matrix(kind, l, U).entries.values():
        coeffs = list(v.num.terms.values()) + list(v.den.terms.values())
        assert all(type(c) is int for c in coeffs), format_ratfunc(v)


# every builder memoized per argument tuple; the chain operators cache a
# private body keyed on the sites as a tuple
CACHED_BUILDERS = (
    "yang_r", "r_bullet_sigma", "r_bullet_sigma_opposite", "k_matrix", "k_matrix_opposite_placement",
    "sigma_matrix", "cross_r", "cross_r_flipped", "_monodromy_t", "_twisted_monodromy", "_s_matrix",
)

# the entry values that builders of every size share, per spectral argument
VALUE_BUILDERS = ("_yang_values", "_bullet_values", "_flag_minus_values")


def test_cached_builders_are_the_listed_ones():
    cached = {name for name, f in vars(rkmat).items() if hasattr(f, "cache_info")}
    assert cached == set(CACHED_BUILDERS + VALUE_BUILDERS)


def test_chain_operators_key_sites_as_a_tuple():
    assert monodromy_t(2, U, [U1]) is monodromy_t(2, U, (U1,))
    assert twisted_monodromy(2, U, [U1, U2], "flagMinus") is twisted_monodromy(2, U, (U1, U2), "flagMinus")
    assert s_matrix("spInstanton", 2, U, [U1]) is s_matrix("spInstanton", 2, U, (U1,))


def test_shared_results_stay_equal_to_fresh_builds(monkeypatch):
    # record every builder result the checks are handed, then rebuild each
    # through the uncached body: a caller that wrote to a shared result
    # would leave it different from its fresh build
    built = {}
    modules = [m for name, m in sys.modules.items() if name == "refleq" or name.startswith("refleq.")]
    for name in CACHED_BUILDERS:
        cached = getattr(rkmat, name)

        def spy(*args, _name=name, _cached=cached, **kwargs):
            result = _cached(*args, **kwargs)
            built.setdefault((_name, args, tuple(sorted(kwargs.items()))), result)
            return result

        for module in modules:
            if vars(module).get(name) is cached:
                monkeypatch.setattr(module, name, spy)

    assert run_suite("all")["ok"]
    assert acceptance.run_acceptance()["ok"]
    for kind in KINDS:
        assert check_boundary_factorization(kind, 2, n=2)["holds"]
        assert check_chain_reflection(kind, 2, n=2)["holds"]
        # no check calls cross_r_flipped, which the benchmark tracer calls
        # by name
        rkmat.cross_r_flipped(kind, 2, U1 + U2)
    monkeypatch.undo()

    # the value builders are reached only through the matrix builders
    assert {name for name, _, _ in built} >= set(CACHED_BUILDERS)
    for (name, args, kwargs), result in built.items():
        cached = getattr(rkmat, name)
        assert cached(*args, **dict(kwargs)) is result
        # equal labels and entries
        assert result == cached.__wrapped__(*args, **dict(kwargs)), (name, args)


def test_a_shared_result_rejects_writes_and_later_proofs_hold():
    # check_ybe(2) and check_reflection("flagMinus", 2) place these very
    # objects, so a write that went through would flip their verdicts
    for mat in (yang_r(2, U1 - U2), k_matrix("flagMinus", 2, U1)):
        assert not hasattr(mat, "set")
        key = next(iter(mat.entries))
        with pytest.raises(TypeError):
            mat.entries[key] = ZERO
        with pytest.raises(AttributeError, match="read-only"):
            mat.entries = {k: v for k, v in mat.entries.items() if k != key}
    assert check_ybe(2)["holds"]
    assert check_reflection("flagMinus", 2)["holds"]


@pytest.mark.parametrize(
    "build",
    [
        lambda: LabeledMatrix.identity(site_labels(3)),
        lambda: yang_r(3, U),
        lambda: r_bullet_sigma(3, U),
        lambda: r_bullet_sigma_opposite(2, U),
        lambda: _block(site_labels(3), [1, 3], RatFunc.one() - H / U, H / U),
        *(lambda k=kind: k_matrix(k, 3, U) for kind in KINDS),
        lambda: k_matrix("flagMinus", 2, U),
        lambda: rkmat.k_matrix_opposite_placement(3, U),
        lambda: sigma_matrix("flagPlus", 3),
        lambda: cross_r_flipped("spInstanton", 2, U),
        lambda: constant_term_matrix(s_matrix("flagMinus", 2, U, (U1,))),
    ],
    ids=["identity", "yang_r", "r_bullet_sigma", "r_bullet_sigma_opposite", "_block",
         *(f"k_matrix-{kind}" for kind in KINDS), "k_matrix-flagMinus-even", "k_matrix_opposite_placement",
         "sigma_matrix", "cross_r_flipped", "constant_term_matrix"],
)
def test_a_builder_holds_one_object_per_distinct_entry_value(build):
    # the grid engine evaluates each distinct object once per point
    values = list(build().entries.values())
    assert len({id(v) for v in values}) == len(set(values))


def test_yang_r_holds_three_objects():
    assert len({id(v) for v in yang_r(3, U).entries.values()}) == 3
