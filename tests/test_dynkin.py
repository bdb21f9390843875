import random

import pytest

from oracles import positive_roots_by_closure, reflect_root
from refleq.dynkin import (
    DynkinType,
    adjacency,
    cartan_matrix,
    coxeter_number,
    info_dict,
    invast,
    longest_word,
    neighbors,
    positive_roots,
    weight_action,
)

ALL_TYPES = [
    DynkinType("A", 1),
    DynkinType("A", 2),
    DynkinType("A", 3),
    DynkinType("A", 4),
    DynkinType("A", 5),
    DynkinType("D", 4),
    DynkinType("D", 5),
    DynkinType("E", 6),
]


def test_type_validation():
    with pytest.raises(ValueError):
        DynkinType("D", 3)
    with pytest.raises(ValueError):
        DynkinType("E", 7)
    with pytest.raises(ValueError):
        DynkinType("B", 2)
    with pytest.raises(ValueError):
        DynkinType("A", 0)
    with pytest.raises(ValueError):
        DynkinType(family="D", rank=3)
    assert str(DynkinType.parse("A4")) == "A4"
    with pytest.raises(ValueError):
        DynkinType.parse("F4")


def test_cartan_matrix_a3():
    t = DynkinType("A", 3)
    assert cartan_matrix(t) == (
        (2, -1, 0),
        (-1, 2, -1),
        (0, -1, 2),
    )


def test_cartan_matrix_symmetric_with_correct_row_sums():
    for t in ALL_TYPES:
        c = cartan_matrix(t)
        n = t.rank
        for i in range(n):
            assert c[i][i] == 2
            for j in range(n):
                assert c[i][j] == c[j][i]
                if i != j:
                    assert c[i][j] in (0, -1)
        # number of -1 entries above diagonal = number of edges = n-1 for
        # trees
        offdiag = sum(1 for i in range(n) for j in range(i + 1, n) if c[i][j])
        assert offdiag == n - 1
        assert len(adjacency(t)) == n - 1


def test_coxeter_numbers():
    assert coxeter_number(DynkinType("A", 4)) == 5
    assert coxeter_number(DynkinType("D", 4)) == 6
    assert coxeter_number(DynkinType("D", 5)) == 8
    assert coxeter_number(DynkinType("E", 6)) == 12


ROOT_TYPES = [DynkinType.parse(f"A{n}") for n in range(1, 9)]
ROOT_TYPES += [DynkinType.parse(f"D{n}") for n in range(4, 9)] + [DynkinType("E", 6)]


def test_positive_root_counts():
    # closed forms: A_n n(n+1)/2, D_n n(n-1), E6 36
    for t in ROOT_TYPES:
        n = t.rank
        assert len(positive_roots(t)) == {"A": n * (n + 1) // 2, "D": n * (n - 1), "E": 36}[t.family], t


@pytest.mark.parametrize("t", ROOT_TYPES, ids=str)
def test_positive_roots_match_the_reflection_closure(t):
    assert positive_roots(t) == positive_roots_by_closure(t)


def test_invast_is_diagram_automorphism():
    for t in ALL_TYPES:
        iv = invast(t)
        assert sorted(iv.values()) == list(t.vertices)
        for i in t.vertices:
            assert iv[iv[i]] == i
        edges = adjacency(t)
        for e in edges:
            a, b = tuple(e)
            assert frozenset((iv[a], iv[b])) in edges


def test_invast_explicit_cases():
    assert invast(DynkinType("A", 5)) == {1: 5, 2: 4, 3: 3, 4: 2, 5: 1}
    assert invast(DynkinType("D", 4)) == {1: 1, 2: 2, 3: 3, 4: 4}
    assert invast(DynkinType("D", 5)) == {1: 1, 2: 2, 3: 3, 4: 5, 5: 4}
    assert invast(DynkinType("E", 6)) == {1: 5, 2: 4, 3: 3, 4: 2, 5: 1, 6: 6}


def test_longest_word_length_and_descent():
    for t in ALL_TYPES:
        word = longest_word(t)
        roots = positive_roots(t)
        assert len(word) == len(roots)
        # walking the word from the right, each reflection must send exactly
        # one positive root negative (never to recover)
        negatives = set()
        current = {r: r for r in roots}
        for i in reversed(word):
            new_negative = 0
            for orig, img in current.items():
                if all(x <= 0 for x in img) and any(x < 0 for x in img):
                    continue
                current[orig] = reflect_root(t, img, i)
                if all(x <= 0 for x in current[orig]):
                    new_negative += 1
            negatives.add(i)
            assert new_negative == 1, f"step {i} flipped {new_negative} roots"
        for img in current.values():
            assert all(x <= 0 for x in img)


def test_two_reduced_words_act_identically():
    rng = random.Random(12)
    for t in ALL_TYPES:
        w_lo = longest_word(t)
        w_hi = longest_word(t, prefer_high=True)
        for _ in range(10):
            lam = tuple(rng.randint(-4, 4) for _ in t.vertices)
            assert weight_action(t, w_lo, lam) == weight_action(t, w_hi, lam)


def test_w0_acts_as_minus_invast():
    # the hard-coded invast table, which the CLI and criterion 5 read, is -w0
    rng = random.Random(3)
    for t in ALL_TYPES:
        iv = invast(t)
        w0 = longest_word(t)
        for _ in range(50):
            lam = tuple(rng.randint(-5, 5) for _ in t.vertices)
            minus_invast = [0] * t.rank
            for i in t.vertices:
                minus_invast[iv[i] - 1] = -lam[i - 1]
            assert weight_action(t, w0, lam) == tuple(minus_invast)


def test_info_dict_shape():
    d = info_dict(DynkinType("A", 4))
    assert d["coxeter"] == 5
    assert d["longestWordLength"] == 10
    assert d["invast"] == {"1": 4, "2": 3, "3": 2, "4": 1}
    assert d["cartan"][0] == [2, -1, 0, 0]


def test_cached_type_data_is_immutable_and_shared():
    # every caller gets the same per-type objects, so none of them may change
    for t in ALL_TYPES + [DynkinType("D", 8)]:
        again = DynkinType.parse(str(t))
        cartan = cartan_matrix(t)
        assert isinstance(cartan, tuple) and all(isinstance(row, tuple) for row in cartan)
        roots = positive_roots(t)
        assert isinstance(roots, tuple) and all(isinstance(r, tuple) for r in roots)
        nb = neighbors(t)
        assert all(isinstance(v, frozenset) for v in nb.values())
        assert sorted(nb) == list(t.vertices)
        with pytest.raises(TypeError):
            nb[1] = frozenset()
        assert nb == {
            i: frozenset(j for j in t.vertices if cartan[i - 1][j - 1] == -1) for i in t.vertices
        }
        for prefer_high in (False, True):
            word = longest_word(t, prefer_high=prefer_high)
            assert isinstance(word, tuple)
            assert longest_word(again, prefer_high=prefer_high) is word
        assert cartan_matrix(again) is cartan
        assert positive_roots(again) is roots
        assert neighbors(again) is nb
