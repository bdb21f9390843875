"""Independent references for the benchmark's checks.

Every expected output here is a pinned verdict or a closed form computed
without the library, never the program's own earlier output:

  * reflection verdicts pinned as in the acceptance battery (oppositePlacement
    must fail);
  * polarization verdicts: plus-sign instances are SAT, minus-sign ones SAT at
    l = 2 and UNSAT from l = 3 on;
  * tableau counts l^w1, tangent dimensions w1(w1 +- 1), flag counts by content;
  * Poincare polynomials from the q-multinomial closed form
        sum over contents c of q^(sum_{v>=2} C(c_v, 2) + [sp](w1 - c_1)) [w1; c]_q
    with q = t^2 (Stanley, EC1 1.7);
  * Dynkin data: Coxeter numbers, positive-root counts and the diagram
    involution of A_n, D_n and E6 (in the library's E6 labeling).
"""

from __future__ import annotations

import itertools
from math import comb, factorial

PINNED_REFLECTION = {
    "flagPlus": (2, 3, 4, 5),
    "flagMinus": (2, 3, 4),
    "soInstanton": (2, 3),
    "spInstanton": (2,),
}


def reflection_holds(kind, l, boundary="standard"):
    if boundary == "oppositePlacement":
        return False
    if l not in PINNED_REFLECTION[kind]:
        raise ValueError(f"no pinned reflection verdict for {kind} at l={l}")
    return True


def polarization_verdict(sign, l):
    return "SAT" if sign == "+" or l == 2 else "UNSAT"


def tangent_dimension(kind, w1):
    return w1 * (w1 + 1) if kind == "sp" else w1 * (w1 - 1)


# ---------------------------------------------------------------------------
# q-series as coefficient lists


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _q_binomial(n, k):
    """[n; k]_q by the q-Pascal rule [n; k] = [n-1; k-1] + q^k [n-1; k]."""
    rows = [[1]]
    for m in range(1, n + 1):
        new = []
        for j in range(m + 1):
            left = rows[j - 1] if j >= 1 else []
            right = rows[j] if j < m else []
            c = [0] * max(len(left), len(right) + j, 1)
            for i, x in enumerate(left):
                c[i] += x
            for i, x in enumerate(right):
                c[i + j] += x
            new.append(c)
        rows = new
    return rows[k]


def _q_multinomial(parts):
    out = [1]
    total = 0
    for c in parts:
        total += c
        out = _mul(out, _q_binomial(total, c))
    return out


def _contents(l, w1):
    for cut in itertools.combinations(range(w1 + l - 1), l - 1):
        bounds = (-1,) + cut + (w1 + l - 1,)
        yield tuple(bounds[i + 1] - bounds[i] - 1 for i in range(l))


def poincare(kind, l, w1):
    """Betti generating function {t-exponent: coefficient} in closed form."""
    poly = {}
    for c in _contents(l, w1):
        shift = sum(comb(cv, 2) for cv in c[1:]) + (w1 - c[0] if kind == "sp" else 0)
        for i, coeff in enumerate(_q_multinomial(c)):
            if coeff:
                e = 2 * (shift + i)
                poly[e] = poly.get(e, 0) + coeff
    return poly


def parse_tpoly(text):
    """Read back the library's 'c*t^e + ...' string as {exponent: coefficient}."""
    poly = {}
    if text == "0":
        return poly
    for part in text.split(" + "):
        if "t" not in part:
            c, e = int(part), 0
        else:
            coeff, _, power = part.partition("t")
            c = int(coeff[:-1]) if coeff else 1
            e = int(power[1:]) if power else 1
        poly[e] = poly.get(e, 0) + c
    return poly


# ---------------------------------------------------------------------------
# flag fixed points


def flag_count(l, w, v=None):
    """Number of flag tableaux of framing w with content v (all when v is None).

    Positive rows k = 1..w//2 pick entries c_k in 1..l, row -k carries
    l + 1 - c_k and an odd w adds the middle value once.  With v given, the
    per-value totals n_e are fixed, so each mirror pair {e, l+1-e} splits its
    total between the two values and the count is a sum of multinomials.
    """
    m = w // 2
    if v is None:
        return l**m
    full = (w,) + tuple(v) + (0,)
    n = {e: full[e - 1] - full[e] for e in range(1, l + 1)}
    mid = (l + 1) // 2 if l % 2 else None
    if w % 2:
        n[mid] -= 1
    choices = []
    for e in range(1, l // 2 + 1):
        if n[e] != n[l + 1 - e]:
            return 0
        choices.append([(a, n[e] - a) for a in range(n[e] + 1)])
    fixed = ()
    if mid is not None:
        if n[mid] % 2:
            return 0
        fixed = (n[mid] // 2,)
    total = 0
    for split in itertools.product(*choices):
        sizes = [x for pair in split for x in pair] + list(fixed)
        if sum(sizes) != m:
            continue
        count = factorial(m)
        for s in sizes:
            count //= factorial(s)
        total += count
    return total


# ---------------------------------------------------------------------------
# Dynkin data


def coxeter_number(family, rank):
    return {"A": rank + 1, "D": 2 * rank - 2, "E": 12}[family]


def positive_root_count(family, rank):
    return {"A": rank * (rank + 1) // 2, "D": rank * (rank - 1), "E": 36}[family]


def diagram_involution(family, rank):
    if family == "A":
        return {i: rank + 1 - i for i in range(1, rank + 1)}
    if family == "D":
        inv = {i: i for i in range(1, rank + 1)}
        if rank % 2:
            inv[rank - 1], inv[rank] = rank, rank - 1
        return inv
    return {1: 5, 2: 4, 3: 3, 4: 2, 5: 1, 6: 6}
