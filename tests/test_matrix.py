import functools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import edited, embed_by_tuples, embed_eagerly, entry, fold_and_compare, kron, parse_ratfunc, swap_matrix
from refleq import matrix as matrix_module
from refleq.field import NVARS, U, U1, U2, U3, U4, Poly, RatFunc, _mono_key, poly_div_exact
from refleq.matrix import LabeledMatrix, embed_on_slots, first_difference, verify_identity
from refleq.rkmat import (
    constant_term_matrix,
    cross_r,
    k_matrix,
    monodromy_t,
    pair_labels,
    s_matrix,
    site_labels,
    twisted_monodromy,
    yang_r,
)


def rf(s):
    return parse_ratfunc(s)


def random_matrix(rng, labels, density=0.6):
    entries = {}
    for r in labels:
        for c in labels:
            if rng.random() < density:
                entries[r, c] = RatFunc.const(rng.randint(-4, 4))
    return LabeledMatrix(labels, labels, entries)


def test_labels_checked_on_multiply():
    a = LabeledMatrix([1, 2], ["x", "y"])
    b = LabeledMatrix([1, 2], [1, 2])
    with pytest.raises(ValueError):
        a * a
    assert (b * b).row_labels == (b * b).col_labels == (1, 2)


def test_labels_are_read_once():
    # one iterable for both sides, read once
    ident = LabeledMatrix.identity(iter([1, 2]))
    assert ident.row_labels == ident.col_labels == (1, 2)
    assert dict(ident.entries) == {(0, 0): RatFunc.one(), (1, 1): RatFunc.one()}
    labels = iter("ab")
    assert LabeledMatrix(labels, labels, {("a", "b"): rf("h")}).col_labels == ("a", "b")


def test_the_constructor_drops_zeros_and_checks_labels():
    m = LabeledMatrix([1, 2], ["x"], [((1, "x"), rf("u")), ((2, "x"), RatFunc.zero())])
    assert dict(m.entries) == {(0, 0): rf("u")}
    with pytest.raises(ValueError, match="duplicate row labels"):
        LabeledMatrix([1, 1], [1])
    with pytest.raises(ValueError, match="duplicate column labels"):
        LabeledMatrix([1], [2, 2])
    with pytest.raises(KeyError):
        LabeledMatrix([1], [1], {(1, 2): rf("u")})


def test_identity_and_multiplication():
    labels = [1, 2, 3]
    ident = LabeledMatrix.identity(labels)
    rng = random.Random(4)
    m = random_matrix(rng, labels)
    assert ident * m == m
    assert m * ident == m


def test_kron_labels_and_values():
    a = LabeledMatrix([1, 2], [1, 2], {(1, 1): rf("h"), (2, 2): rf("u")})
    b = LabeledMatrix(["x"], ["x"], {("x", "x"): rf("2")})
    k = kron(a, b)
    assert k.row_labels == ((1, "x"), (2, "x"))
    assert entry(k, (1, "x"), (1, "x")) == rf("2*h")
    assert entry(k, (2, "x"), (2, "x")) == rf("2*u")


def test_kron_agrees_with_embedding():
    rng = random.Random(9)
    a = random_matrix(rng, [1, 2])
    ident = LabeledMatrix.identity([1, 2, 3])
    left = kron(a, ident)
    emb = embed_on_slots(a, [0], [[1, 2], [1, 2, 3]])
    assert left == emb
    right = kron(ident, a)
    # embedding into slot 1 keeps slot-0 labels first in the tuples
    emb2 = embed_on_slots(a, [1], [[1, 2, 3], [1, 2]])
    assert emb2 == right


def test_embed_two_slots_of_three():
    rng = random.Random(10)
    labels = [1, 2]
    pair = [(i, j) for i in labels for j in labels]
    m = LabeledMatrix(
        pair, pair, {(r, c): RatFunc.const(rng.randint(1, 5)) for r in pair for c in pair if rng.random() < 0.5}
    )
    full = embed_on_slots(m, [0, 2], [labels, labels, labels])
    # entry ((a, x, b), (c, x, d)) must equal m[(a,b),(c,d)]
    for (a, b) in pair:
        for (c, d) in pair:
            for x in labels:
                assert entry(full, (a, x, b), (c, x, d)) == entry(m, (a, b), (c, d))
    # off-identity in the middle slot must vanish
    assert entry(full, (1, 1, 1), (1, 2, 1)).is_zero()


def _assert_same_placement(mat, positions, slots):
    """mat placed on positions of slots, checked against the oracles."""
    placed, reference = embed_on_slots(mat, positions, slots), embed_by_tuples(mat, positions, slots)
    assert (placed.row_labels, placed.col_labels) == (reference.row_labels, reference.col_labels)
    assert placed.entries == reference.entries
    # the map a placement builds on its first read is the eager one of its
    # operator on its positions, key by key and in the same order
    assert placed.operator is mat
    assert list(placed.entries.items()) == list(embed_eagerly(mat, positions, slots).items())
    # both provers dedupe entries by id, so a placement must share mat's values
    assert all(placed.entries[k] is v for k, v in reference.entries.items())
    return placed


@pytest.mark.parametrize(
    "build,positions,slots",
    [
        (lambda: s_matrix("flagMinus", 2, U, (U3, U4)), (1, 2, 3), [site_labels(2)] * 4),
        (lambda: s_matrix("soInstanton", 3, U, (U3,)), (1, 2), [site_labels(3)] * 3),
        (lambda: yang_r(3, U1), (1, 0), [site_labels(3)] * 3),
        (lambda: yang_r(2, U1 - U2), (2, 0), [site_labels(2)] * 3),
        (lambda: k_matrix("spInstanton", 3, U), (0,), [site_labels(3)]),
        (lambda: k_matrix("flagMinus", 3, U), (1,), [site_labels(2), site_labels(3), site_labels(4)]),
        (lambda: kron(k_matrix("flagMinus", 2, U), k_matrix("spInstanton", 3, U1)), (2, 0), [[1, 2, 3], ["x"], [1, 2]]),
    ],
    ids=["s_matrix-chain-n2", "s_matrix-chain-n1", "positions-1-0", "positions-2-0", "one-slot",
         "unequal-slots", "unequal-slots-reversed"],
)
def test_placement_matches_the_tuple_by_tuple_oracle(build, positions, slots):
    mat = build()
    placed = _assert_same_placement(mat, positions, slots)
    # the same operator behind one more slot, on the positions a placement of
    # the placement would compose; the placement itself is not placed again
    wider = [["a", "b"], *slots]
    _assert_same_placement(mat, [p + 1 for p in positions], wider)
    with pytest.raises(ValueError, match="place its operator"):
        embed_on_slots(placed, range(1, len(slots) + 1), wider)


def test_placements_share_their_label_tuples():
    slots = [site_labels(3)] * 3
    r12, r23 = embed_on_slots(yang_r(3, U1), (0, 1), slots), embed_on_slots(yang_r(3, U2), (1, 2), slots)
    assert r12.row_labels is r23.row_labels is r12.col_labels


@pytest.mark.parametrize(
    "positions,slot_count,match",
    [
        ((0, 0), 3, "not distinct"),
        ((0, 5), 3, "not distinct slots of 0..2"),
        ((0,), 3, "has 2 parts for positions"),
        ((0, 1, 2), 3, "has 2 parts for positions"),
    ],
    ids=["repeated-position", "position-out-of-range", "too-few-positions", "too-many-positions"],
)
def test_a_malformed_placement_is_rejected(positions, slot_count, match):
    with pytest.raises(ValueError, match=match):
        embed_on_slots(yang_r(2, U), positions, [site_labels(2)] * slot_count)


def test_a_label_off_its_slot_is_rejected():
    with pytest.raises(ValueError, match="is not on slots"):
        embed_on_slots(yang_r(3, U), (0, 1), [site_labels(2)] * 2)


def test_a_placement_placed_again_is_rejected():
    # whatever the slots, even where its identity slot would carry other
    # labels, where the positions are too few, or where it would be the
    # placement itself: a caller places its operator, so the operator a
    # placement records is never a placement
    inner = embed_on_slots(LabeledMatrix.identity([1, 2]), (0,), [[1, 2], [1]])
    flip = embed_on_slots(yang_r(2, U), (1, 0), [[1, 2], [1, 2]])
    for placement, positions, slots in [
        (inner, (0, 1), [[1, 2], [1, 2]]),
        (inner, (2, 0), [[1, 2], [2, 1], [1, 2]]),
        (inner, (0,), [[1, 2]]),
        (flip, (2, 0), [[1, 2, 3], ["x"], [1, 2]]),
        (flip, (0, 1), [[1, 2], [1, 2]]),
    ]:
        with pytest.raises(ValueError, match="cannot place a placement: place its operator"):
            embed_on_slots(placement, positions, slots)
    # the flip's operator on the composed positions, where a slot that it
    # acts on holds more labels than before
    wider = embed_on_slots(flip.operator, (0, 2), [[1, 2, 3], ["x"], [1, 2]])
    assert wider.operator is yang_r(2, U)
    assert wider == embed_by_tuples(yang_r(2, U), (0, 2), [[1, 2, 3], ["x"], [1, 2]])


def test_an_operator_on_all_of_its_own_slots_in_order_is_itself():
    slots = [site_labels(3)] * 2
    r = yang_r(3, U)
    assert embed_on_slots(r, (0, 1), slots) is r
    # reversed positions, another slot, or labels other than the tensor's
    # make a placement
    assert embed_on_slots(r, (1, 0), slots).operator is r
    assert embed_on_slots(r, (0, 1), [*slots, site_labels(3)]).operator is r
    k = k_matrix("flagMinus", 3, U)
    assert embed_on_slots(k, (0,), [site_labels(3)]).operator is k
    # so the one-site monodromies are the builders' R-matrices
    assert monodromy_t(3, U, (U1,)) is yang_r(3, U - U1)
    for kind in ("spInstanton", "flagMinus"):
        assert twisted_monodromy(3, U, (U1,), kind) is cross_r(kind, 3, -U - U1)


def test_a_placement_records_the_matrix_it_places():
    m = LabeledMatrix([1, 2], [1, 2], {(1, 1): rf("u"), (2, 1): rf("h")})
    placed = embed_on_slots(m, (0,), [[1, 2], [1, 2]])
    assert placed.operator is m and embed_on_slots(m, (1,), [[1, 2], [1, 2]]).operator is m
    assert m.operator is None and (m * m).operator is None
    # an empty slot among the others places nothing, and records nothing
    empty = embed_on_slots(m, (0,), [[1, 2], []])
    assert empty.operator is None and not empty.entries


def _counting_fills(monkeypatch):
    """The placements whose entry maps are built from now on, in order."""
    fills = []
    real = matrix_module._placed_entries

    def counting(mat):
        fills.append(mat)
        return real(mat)

    monkeypatch.setattr(matrix_module, "_placed_entries", counting)
    return fills


def _assert_rejects_writes(mat):
    """Every field and private slot of mat rejects assignment and deletion."""
    for field in LabeledMatrix.__slots__:
        with pytest.raises(AttributeError, match="read-only"):
            setattr(mat, field, None)
        with pytest.raises(AttributeError, match="read-only"):
            delattr(mat, field)


def test_every_kind_of_matrix_rejects_writes(monkeypatch):
    slots = [site_labels(2)] * 3
    # a fresh operator, so that the proofs below fill its private slots
    r = yang_r.__wrapped__(2, U1 - U2)
    fills = _counting_fills(monkeypatch)
    unread = embed_on_slots(r, (0, 1), slots)
    _assert_rejects_writes(unread)
    assert not fills and not hasattr(unread, "set")
    placed = embed_on_slots(r, (0, 1), slots)
    factors = [placed, embed_on_slots(yang_r(2, U1), (0, 2), slots), embed_on_slots(yang_r(2, U2), (1, 2), slots)]
    assert verify_identity(factors, factors[::-1])["holds"]
    assert verify_identity(factors, factors[::-1], "multipoint")["holds"]
    assert not fills
    # both proofs kept what they read on the operator, in its private slots:
    # the clearing, which holds the packed terms both read, the multipoint
    # prover's bounds and the symmetry verdicts
    assert all(getattr(r, slot, None) is not None for slot in ("_cleared", "_bounds", "_symmetry"))
    kinds = {
        "built": r,
        "constructed": LabeledMatrix([1, 2], [1, 2], {(1, 1): rf("u")}),
        "identity": LabeledMatrix.identity([1, 2]),
        "product": placed * placed,
        "placement": placed,
        "operator": placed.operator,
        "inverse": LabeledMatrix.identity([1, 2]).inverse(),
        "constant-term": constant_term_matrix(k_matrix("flagMinus", 2, U)),
    }
    # the product read the placement's entries, and nothing else built any
    assert fills == [placed]
    for name, mat in kinds.items():
        assert not hasattr(mat, "set"), name
        key, value = next(iter(mat.entries.items()))
        with pytest.raises(TypeError):
            mat.entries[key] = value
        with pytest.raises(TypeError):
            del mat.entries[key]
        with pytest.raises(AttributeError):
            mat.entries.pop(key)
        _assert_rejects_writes(mat)
    # the placement built its map once and kept it
    assert fills == [placed] and placed.entries is placed.entries
    assert dict(unread.entries) == dict(placed.entries) and fills == [placed, unread]
    _assert_rejects_writes(unread)


def test_swap_matrix_is_involution():
    p = swap_matrix([1, 2, 3], [1, 2, 3])
    ident = LabeledMatrix.identity(p.col_labels)
    assert p * p == ident


def test_a_placement_on_reversed_slots_moves_entries():
    pair = [(i, j) for i in [1, 2] for j in [1, 2]]
    m = LabeledMatrix(pair, pair, {((1, 2), (2, 1)): rf("h")})
    c = embed_on_slots(m, (1, 0), [[1, 2], [1, 2]])
    assert entry(c, (2, 1), (1, 2)) == rf("h")
    assert entry(c, (1, 2), (2, 1)).is_zero()
    # P * m * P with the flip built independently
    m = random_matrix(random.Random(6), pair)
    p = swap_matrix([1, 2], [1, 2])
    assert embed_on_slots(m, (1, 0), [[1, 2], [1, 2]]) == p * m * p


def test_inverse_round_trip():
    rng = random.Random(21)
    labels = [0, 1, 2, 3]
    # unipotent + diagonal: invertible by construction
    entries = {(i, i): RatFunc.one() for i in labels}
    for i in labels:
        for j in labels:
            if i < j and rng.random() < 0.7:
                entries[i, j] = RatFunc.var("h") * RatFunc.const(rng.randint(1, 3))
    entries[2, 2] = rf("u + h")
    m = LabeledMatrix(labels, labels, entries)
    inv = m.inverse()
    assert m * inv == LabeledMatrix.identity(labels)
    assert inv * m == LabeledMatrix.identity(labels)


def test_inverse_rejects_singular():
    m = LabeledMatrix([1, 2], [1, 2], {(1, 1): rf("h"), (2, 2): rf("0")})
    with pytest.raises(ValueError):
        m.inverse()


def test_verify_identity_label_mismatch():
    a = LabeledMatrix.identity([1, 2])
    b = LabeledMatrix.identity([2, 1])
    v = verify_identity([a], [b])
    assert not v["holds"]


def test_verify_identity_counterexample_is_first_differing_entry():
    a = LabeledMatrix.identity([1, 2])
    b = LabeledMatrix([1, 2], [1, 2], {(1, 1): RatFunc.one(), (2, 1): rf("h / (u + h)"), (2, 2): rf("u")})
    v = verify_identity([a], [b])
    assert not v["holds"] and "mismatches" not in v
    assert v["counterexample"] == {"row": 2, "col": 1, "lhs": "0", "rhs": "h / (u + h)"}
    assert "counterexample" not in verify_identity([a], [LabeledMatrix.identity([1, 2])])


def test_first_difference_is_the_least_differing_key():
    assert first_difference({(0, 1): 1, (1, 0): 2}, {(0, 1): 1, (1, 0): 3}) == (1, 0)
    # neither side holds a zero, so a key on one side only is a difference,
    # and it wins over a later key whose values differ
    assert first_difference({(1, 1): 4, (2, 0): 1}, {(2, 0): 2, (1, 1): 4, (0, 2): 5}) == (0, 2)
    assert first_difference({(0, 0): 1, (3, 0): 6}, {(0, 0): 1}) == (3, 0)
    assert first_difference({(0, 0): 1}, {(0, 0): 1}) is None
    assert first_difference({}, {}) is None


def test_first_difference_on_ratfunc_entries():
    x, y = rf("h / (u + h)"), rf("u / (u + h)")
    assert first_difference({(0, 0): x, (0, 1): y}, {(0, 0): x, (0, 1): x}) == (0, 1)
    assert first_difference({(0, 0): x, (1, 1): y}, {(1, 1): y}) == (0, 0)
    assert first_difference({(1, 0): y}, {(0, 1): y, (1, 0): y}) == (0, 1)
    # equal canonical data is no difference, whichever object holds it
    assert first_difference({(0, 0): x}, {(0, 0): rf("h / (h + u)")}) is None


def test_eval_entries():
    labels = [1, 2]
    m = LabeledMatrix(labels, labels, {(1, 1): rf("u / (u + h)")})
    from refleq.field import VARS

    vals = m.eval_entries({v: Fraction(1) for v in VARS})
    assert vals[(0, 0)] == Fraction(1, 2)


def _schoolbook_product(a, b):
    """Unmemoized dense product: every entry is a sum of entry products."""
    entries = {}
    for i, r in enumerate(a.row_labels):
        for j, c in enumerate(b.col_labels):
            total = RatFunc.zero()
            for k in range(len(a.col_labels)):
                x, y = a.entries.get((i, k)), b.entries.get((k, j))
                if x is not None and y is not None:
                    total = total + x * y
            entries[r, c] = total
    return LabeledMatrix(a.row_labels, b.col_labels, entries)


def test_product_multiplies_each_distinct_value_pair_once(monkeypatch):
    slots = [site_labels(2)] * 3
    r12 = embed_on_slots(yang_r(2, U1 - U2), (0, 1), slots)
    r13 = embed_on_slots(yang_r(2, U1 - U3), (0, 2), slots)
    by_row = {}
    for (k, j), b in r13.entries.items():
        by_row.setdefault(k, []).append(b)
    entry_products = [(a, b) for (i, k), a in r12.entries.items() for b in by_row.get(k, ())]
    distinct = set(entry_products)
    # embed_on_slots repeats values, so the memo has something to save
    assert len(distinct) < len(entry_products)

    calls = []
    real_mul = RatFunc.__mul__

    def counting_mul(self, other):
        calls.append((self, other))
        return real_mul(self, other)

    monkeypatch.setattr(RatFunc, "__mul__", counting_mul)
    product = r12 * r13
    assert len(calls) <= len(distinct)
    monkeypatch.undo()
    assert product == _schoolbook_product(r12, r13)


def test_symbolic_proofs_clear_and_pack_each_operator_at_most_once_per_process(monkeypatch):
    # every Yang-Baxter factor sits on both sides, and a second proof, on new
    # placements of the same operators, finds them read: each operator is
    # cleared once, each of its distinct entries' numerators is packed once,
    # by the clearing, and the proofs multiply the packed terms it stored
    slots = [site_labels(2)] * 3
    # fresh operators, which no earlier proof has read
    ops = [yang_r.__wrapped__(2, U1 - U2), yang_r.__wrapped__(2, U1 - U3), yang_r.__wrapped__(2, U2 - U3)]
    cleared, packed, rounds = {}, [], []
    real_clear, real_pack = matrix_module._clear, matrix_module._pack

    def counting_clear(mat):
        assert id(mat) not in cleared
        cleared[id(mat)] = real_clear(mat)
        return cleared[id(mat)]

    def counting_pack(p, k=1):
        packed.append(p)
        return real_pack(p, k)

    monkeypatch.setattr(matrix_module, "_clear", counting_clear)
    monkeypatch.setattr(matrix_module, "_pack", counting_pack)
    for _ in range(2):
        r12, r13, r23 = (embed_on_slots(op, pos, slots) for op, pos in zip(ops, ((0, 1), (0, 2), (1, 2))))
        assert verify_identity([r12, r13, r23], [r23, r13, r12])["holds"]
        rounds.append(len(packed))
    assert set(cleared) == {id(op) for op in ops}
    # the second proof packed nothing; each numerator was packed once, and
    # the rest are the shared denominators of the clearing's products
    assert rounds[0] == rounds[1]
    numerators = [v.num for op in ops for v in {id(v): v for v in op.entries.values()}.values()]
    assert sorted(id(p) for p in packed if any(p is num for num in numerators)) == sorted(map(id, numerators))
    keys = set().union(*(c.den for c in cleared.values()))
    assert all(p in keys for p in packed if not any(p is num for num in numerators))
    # the stored rows hold the clearing's one dict per distinct entry, v * D
    for op, c in zip(ops, map(cleared.get, map(id, ops))):
        stored = {(i, j): t for i, row in c.rows.items() for j, t in row}
        assert stored.keys() == op.entries.keys()
        # entries lists each stored dict once, one per distinct entry value
        assert {id(t) for t in stored.values()} == set(map(id, c.entries))
        assert len(c.entries) == len(set(map(id, c.entries))) == len({id(v) for v in op.entries.values()})
        d = Poly.const(c.c)
        for p, e in c.den.items():
            d = d * p ** e
        assert all(matrix_module._unpack(stored[k]) == poly_div_exact(d, v.den) * v.num for k, v in op.entries.items())


_EXPONENTS = st.tuples(*[st.integers(0, (1 << matrix_module._BITS) - 1)] * NVARS)


@given(st.lists(_EXPONENTS, min_size=1, max_size=12, unique=True))
def test_packed_monomials_unpack_and_sort_as_mono_key(exps):
    # every exponent within the field width comes back, and the packed
    # ints sort as field._mono_key sorts the tuples
    packed = matrix_module._pack(Poly(dict.fromkeys(exps, 1)))
    assert sorted(map(matrix_module._exponents, packed)) == sorted(exps)
    assert matrix_module._unpack(packed) == Poly(dict.fromkeys(exps, 1))
    assert [matrix_module._exponents(m) for m in sorted(packed)] == sorted(exps, key=_mono_key)


@pytest.mark.parametrize(
    "bits, message",
    [(1, "a cleared entry has total degree 2, over 1,"), (2, "a scaled product has total degree 6, over 3,")],
)
def test_a_degree_over_the_packing_width_raises_before_any_product(bits, message, monkeypatch):
    # fresh operators, cleared under the narrow width: each entry of u R(u1
    # - u2) cleared is of total degree 2, which both provers read, and a
    # product of three is of 6, which only the symbolic prover packs; the
    # multipoint prover evaluates the product at an integer point.  The
    # scalar u enters each side once per factor, so the Yang-Baxter
    # equation still holds
    slots = [site_labels(2)] * 3
    pairs = pair_labels(2)
    scalar = LabeledMatrix(pairs, pairs, {(x, x): U for x in pairs})
    ops = [yang_r.__wrapped__(2, w) * scalar for w in (U1 - U2, U1 - U3, U2 - U3)]
    factors = [embed_on_slots(op, pos, slots) for op, pos in zip(ops, ((0, 1), (0, 2), (1, 2)))]
    monkeypatch.setattr(matrix_module, "_BITS", bits)
    carry_values = matrix_module._carry_values

    def no_product(*args):
        raise AssertionError("a product ran before the guard")

    # no row is carried before the guard, by either prover's row product
    # (matrix._carry, matrix._carry_values)
    monkeypatch.setattr(matrix_module, "_carry", no_product)
    monkeypatch.setattr(matrix_module, "_carry_values", no_product)
    if bits == 1:
        monkeypatch.setattr(matrix_module, "_mul", no_product)
    for mode in ("symbolic", "multipoint") if bits == 1 else ("symbolic",):
        with pytest.raises(ValueError, match=message):
            verify_identity(factors, factors[::-1], mode)
    if bits == 2:
        monkeypatch.setattr(matrix_module, "_carry_values", carry_values)
        assert verify_identity(factors, factors[::-1], "multipoint")["holds"]


# entries for random factors: two denominators of two inhomogeneous linear
# forms each, two linear forms, an integer denominator and polynomials.  Each
# form is divided by on its own, so the pool builds in any process
ENTRY_POOL = (
    rf("h") / rf("u + 1") / rf("u1 - h"),
    rf("u + 1") / rf("u1 + 2") / rf("u2 + h"),
    rf("u1 / (u + h)"),
    rf("(u2 - h) / (u1 - u2)"),
    rf("3 / 2"),
    rf("u + 2*h"),
    rf("1"),
)


def random_factor(rng, labels, density=0.5):
    entries = {}
    for r in labels:
        for c in labels:
            if rng.random() < density:
                entries[r, c] = rng.choice(ENTRY_POOL) * RatFunc.const(rng.choice((-3, -1, 1, 2)))
    return LabeledMatrix(labels, labels, entries)


def _with_compound_difference(product):
    """A copy of product that first differs from it at its least entry whose
    denominator has two forms or more, and that entry's key; None when it
    has none."""
    keys = sorted(k for k, v in product.entries.items() if len(v.den_factors()[1]) > 1)
    if not keys:
        return None
    # the sum keeps every form of the entry but u + h: the entry's
    # numerator is coprime to them
    return edited(product, {keys[0]: product.entries[keys[0]] + rf("u1 / (u + h)")}), keys[0]


def test_product_verdict_matches_the_folded_products_on_compound_denominators():
    # the first differing entry has a denominator of several forms on both
    # sides, so its counterexample strings come from the one reduction the
    # route makes
    labels = ["a", "b", "c"]
    ident = LabeledMatrix.identity(labels)
    seen = 0
    for seed in range(12):
        rng = random.Random(seed)
        lhs = [random_factor(rng, labels) for _ in range(2 + seed % 2)]
        product = functools.reduce(operator.mul, lhs)
        found = _with_compound_difference(product)
        if found is None:
            continue
        changed, (i, j) = found
        seen += 1
        for rhs in ([product], [changed], [ident, changed]):
            v = verify_identity(lhs, rhs)
            # the oracle folds [product] as it would fold lhs, without
            # multiplying lhs out again
            assert v == fold_and_compare([product], rhs), (seed, len(rhs))
        cex = v["counterexample"]
        assert (cex["row"], cex["col"]) == (labels[i], labels[j])
        assert " / (" in cex["lhs"] and " / (" in cex["rhs"]
    assert seen >= 8


def test_product_verdict_on_high_degrees():
    # exponents far past one packed field of small products
    labels = [1, 2]
    cube = rf("u1 + h") * rf("u1 + h") * rf("u1 + h")
    a = LabeledMatrix(labels, labels, {(1, 1): rf("u^40") / cube, (1, 2): rf("h^70"), (2, 2): rf("u2^9")})
    b = LabeledMatrix(labels, labels, {(1, 1): cube, (2, 1): rf("u1^100 - 1"), (2, 2): rf("1 / u^5")})
    wrong = edited(a * b, {(0, 1): rf("h^70 / u^4")})
    for rhs in ([a * b], [wrong], [wrong, LabeledMatrix.identity(labels)]):
        assert verify_identity([a, b], rhs) == fold_and_compare([a, b], rhs)
    assert verify_identity([a, b], [a * b])["holds"]
    assert verify_identity([a, b], [wrong])["counterexample"]["lhs"] == "h^70 / u^5"


@pytest.mark.parametrize("mode", ["symbolic", "multipoint"])
def test_an_empty_side_is_rejected_before_any_factor_is_read(mode):
    a = LabeledMatrix.identity([1, 2])
    for lhs, rhs in (([], [a]), ([a], []), ([], [])):
        with pytest.raises(ValueError, match="each side needs at least one factor"):
            verify_identity(lhs, rhs, mode)
    assert getattr(a, "_cleared", None) is None


def test_product_labels_are_checked_inside_each_list():
    a = LabeledMatrix.identity([1, 2])
    b = LabeledMatrix.identity([2, 1])
    with pytest.raises(ValueError, match="label mismatch in matrix product"):
        verify_identity([a, b], [a])
    # the two sides may disagree on their outer labels only
    assert verify_identity([a, a], [b, b]) == fold_and_compare([a, a], [b, b])
    assert verify_identity([a, a], [b, b])["detail"] == "label mismatch between the two sides"
