"""The contract of the four immutable record classes: DynkinType,
PolarizationInstance, InstantonTableau and FlagTableau.

Each is built by position or by keyword, compares and hashes by its fields
(DynkinType keys the per-type Dynkin caches), prints as Name(field=value,
...), and rejects every assignment.  DynkinType's validation is tested in
test_dynkin.py.
"""

import pytest

from refleq.dynkin import DynkinType, longest_word
from refleq.polarization import PolarizationInstance, build_instance
from refleq.tableaux import FlagTableau, InstantonTableau, flag_fixed_points


def _pairs():
    """(a, b, c) per class: a and b equal but built apart, c differing in one field."""
    return [
        (DynkinType("A", 3), DynkinType.parse("A3"), DynkinType("A", 4)),
        (
            InstantonTableau.from_positive_entries(3, 1, (2,)),
            InstantonTableau(l=3, w1=1, rows=((-1, (1, 3)), (1, (2,)))),
            InstantonTableau.from_positive_entries(3, 1, (1,)),
        ),
        (
            flag_fixed_points("plus", 3, 3)[0][0],
            FlagTableau(3, 3, ((-1, 3), (0, 2), (1, 1))),
            FlagTableau(3, 3, ((-1, 2), (0, 2), (1, 2))),
        ),
        (build_instance("+", 2), build_instance("+", 2), build_instance("-", 2)),
    ]


@pytest.mark.parametrize("a,b,c", _pairs(), ids=lambda x: type(x).__name__)
def test_equality_by_fields(a, b, c):
    assert a is not b
    assert a == b and not a != b
    assert a != c and not a == c


def test_hash_by_fields():
    for a, b, _ in _pairs()[:3]:
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1
    # the instance holds dicts, so it is no dict key
    with pytest.raises(TypeError):
        hash(build_instance("+", 2))


def test_dynkin_caches_are_shared_by_equal_types():
    assert longest_word(DynkinType("D", 5)) is longest_word(DynkinType.parse("D5"))


def test_keyword_construction():
    assert DynkinType(family="E", rank=6) == DynkinType("E", 6)
    inst = build_instance("-", 3)
    fields = ("sign", "l", "points", "pairs_at", "components")
    assert PolarizationInstance(**{f: getattr(inst, f) for f in fields}) == inst
    assert FlagTableau(l=3, w=1, entries=((0, 2),)) == FlagTableau(3, 1, ((0, 2),))


def test_repr():
    assert repr(DynkinType("D", 4)) == "DynkinType(family='D', rank=4)"
    assert repr(InstantonTableau.from_positive_entries(3, 1, (2,))) == (
        "InstantonTableau(l=3, w1=1, rows=((-1, (1, 3)), (1, (2,))))"
    )
    assert repr(flag_fixed_points("plus", 3, 3)[0][0]) == (
        "FlagTableau(l=3, w=3, entries=((-1, 3), (0, 2), (1, 1)))"
    )
    assert repr(build_instance("+", 2)) == (
        "PolarizationInstance(sign='+', l=2, points=((1, 1), (1, 2), (2, 1), (2, 2)), "
        "pairs_at={(1, 1): ('sum',), (1, 2): ('difference',), (2, 1): ('difference',), (2, 2): ('sum',)}, "
        "components={'u1EqualsU2': (((1, 2), (2, 1)), ((1, 1),), ((2, 2),)), "
        "'u1PlusU2Zero': (((1, 1), (2, 2)), ((1, 2),), ((2, 1),)), "
        "'u1Zero': (((1, 1),), ((1, 2),), ((2, 1),), ((2, 2),)), "
        "'u2Zero': (((1, 1),), ((1, 2),), ((2, 1),), ((2, 2),))})"
    )


@pytest.mark.parametrize(
    "record,field",
    [
        (DynkinType("A", 2), "rank"),
        (InstantonTableau.from_positive_entries(2, 1, (1,)), "rows"),
        (FlagTableau(3, 1, ((0, 2),)), "w"),
        (build_instance("+", 2), "l"),
    ],
    ids=lambda x: type(x).__name__ if not isinstance(x, str) else x,
)
def test_fields_cannot_be_assigned(record, field):
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, field, 7)
    with pytest.raises(AttributeError):
        record.extra = 7
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert repr(record) == before

