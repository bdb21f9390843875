"""ADE Cartan data, Weyl longest words, and diagram involutions.

Vertex numbering is 1-based.  Type A_n is the chain 1-2-...-n.  Type D_n is
the chain 1-...-(n-2) with both n-1 and n attached to n-2.  Type E6 is the
chain 1-2-3-4-5 with vertex 6 attached to 3, so the diagram flip fixes 3 and
6 and swaps the arms (1,5) and (2,4).

Weights are tuples of fundamental-weight coordinates; roots are tuples of
simple-root coordinates.  Everything is exact integer arithmetic.

The per-type data (neighbours, Cartan matrix, positive roots, longest
words) is computed once per process and shared by every caller, so it is
returned only as immutable values.
"""

from __future__ import annotations

import functools
import re
from collections import namedtuple
from operator import mul
from types import MappingProxyType

_TYPE_RE = re.compile(r"^([ADE])(\d+)$")


class DynkinType(namedtuple("DynkinType", "family rank")):
    """A supported ADE type, checked when it is built; immutable and hashed
    by its fields, so equal types share the per-type caches."""

    __slots__ = ()

    def __new__(cls, family, rank):
        if family == "A":
            if rank < 1:
                raise ValueError("type A needs rank >= 1")
        elif family == "D":
            if rank < 4:
                raise ValueError("type D needs rank >= 4")
        elif family == "E":
            if rank != 6:
                raise ValueError("only E6 is supported")
        else:
            raise ValueError(f"unknown family {family!r}")
        return super().__new__(cls, family, rank)

    @staticmethod
    def parse(s):
        m = _TYPE_RE.match(s.strip())
        if not m:
            raise ValueError(f"cannot parse Dynkin type {s!r}")
        return DynkinType(m.group(1), int(m.group(2)))

    def __str__(self):
        return f"{self.family}{self.rank}"

    @property
    def vertices(self):
        return tuple(range(1, self.rank + 1))


def adjacency(t):
    """Set of undirected edges as frozenset pairs."""
    n = t.rank
    if t.family == "A":
        edges = {(i, i + 1) for i in range(1, n)}
    elif t.family == "D":
        edges = {(i, i + 1) for i in range(1, n - 2)}
        edges |= {(n - 2, n - 1), (n - 2, n)}
    else:  # E6
        edges = {(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)}
    return {frozenset(e) for e in edges}


@functools.cache
def neighbors(t):
    """{vertex: frozenset of adjacent vertices}, read-only and shared."""
    out = {i: set() for i in t.vertices}
    for e in adjacency(t):
        a, b = tuple(e)
        out[a].add(b)
        out[b].add(a)
    return MappingProxyType({i: frozenset(nb) for i, nb in out.items()})


@functools.cache
def cartan_matrix(t):
    """Symmetric ADE Cartan matrix as a tuple of tuples (1-based vertices)."""
    nb = neighbors(t)
    return tuple(
        tuple(2 if i == j else (-1 if j in nb[i] else 0) for j in t.vertices)
        for i in t.vertices
    )


def coxeter_number(t):
    if t.family == "A":
        return t.rank + 1
    if t.family == "D":
        return 2 * t.rank - 2
    return 12  # E6


def invast(t):
    """The diagram involution -w0: vertex -> vertex, as a dict."""
    n = t.rank
    if t.family == "A":
        return {i: n + 1 - i for i in t.vertices}
    if t.family == "D":
        if n % 2 == 1:
            m = {i: i for i in t.vertices}
            m[n - 1], m[n] = n, n - 1
            return m
        return {i: i for i in t.vertices}
    # E6 in our labeling: flip the two arms
    return {1: 5, 2: 4, 3: 3, 4: 2, 5: 1, 6: 6}


@functools.cache
def positive_roots(t):
    """All positive roots in simple-root coordinates, as a sorted tuple.

    Every supported type is simply laced, so for a positive root beta other
    than alpha_i, beta + alpha_i is a root exactly when <beta, alpha_i> = -1.
    The roots grow from the simple ones by that rule, one height at a time.
    """
    n = t.rank
    cartan = cartan_matrix(t)
    layer = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    roots = []
    while layer:
        roots += layer
        up = set()
        for beta in layer:
            for i, row in enumerate(cartan):
                if sum(map(mul, beta, row)) == -1:
                    up.add(beta[:i] + (beta[i] + 1,) + beta[i + 1:])
        layer = list(up)
    return tuple(sorted(roots))


def reflect_weight(t, lam, i):
    """s_i acting on fundamental-weight coordinates (1-based vertex i)."""
    cartan = cartan_matrix(t)
    c = lam[i - 1]
    return tuple(x - c * cartan[i - 1][j] for j, x in enumerate(lam))


@functools.cache
def longest_word(t, prefer_high=False):
    """A reduced word for w0, rightmost letter acting first.

    Greedy descent of the staircase weight rho: repeatedly reflect at a
    vertex with positive coordinate.  prefer_high picks the largest such
    vertex instead of the smallest, giving a second reduced word.
    """
    n = t.rank
    lam = (1,) * n
    applied = []
    while True:
        pos = [i for i in range(1, n + 1) if lam[i - 1] > 0]
        if not pos:
            break
        i = max(pos) if prefer_high else min(pos)
        applied.append(i)
        lam = reflect_weight(t, lam, i)
    if lam != tuple(-1 for _ in range(n)):
        raise AssertionError("greedy descent failed to reach -rho")
    expected = len(positive_roots(t))
    if len(applied) != expected:
        raise AssertionError(
            f"longest word has length {len(applied)}, expected {expected}"
        )
    # applied[0] acted first; as a composition word the first letter applied
    # sits rightmost
    return tuple(reversed(applied))


def weight_action(t, word, lam):
    """Apply a Weyl word (rightmost letter first) to a weight."""
    for i in reversed(word):
        lam = reflect_weight(t, lam, i)
    return lam


def info_dict(t):
    """The JSON payload for the CLI info command."""
    return {
        "type": str(t),
        "cartan": [list(row) for row in cartan_matrix(t)],
        "coxeter": coxeter_number(t),
        "invast": {str(i): j for i, j in sorted(invast(t).items())},
        "longestWordLength": len(positive_roots(t)),
    }
