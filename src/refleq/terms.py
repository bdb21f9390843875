"""Sparse-term arithmetic: the one sum, product and printer of {key: int}.

Every value refleq builds, clears, carries or prints is a dict from keys to
nonzero ints: a Poly's terms, keyed by packed monomials, and a RatFunc's
exponent maps, keyed by form ids (field); the provers' cleared entries and
scales (matrix); a QLaurent's coefficients, keyed by q exponents, and a
KClassExpr's terms, keyed by (symbol, exponent) (kclass).  A product of two
terms has the sum of their keys as its key, which is the monomial product for
every key type that is multiplied.

No function here writes a dict it is given, except mul_into its accumulator,
and add_terms returns f itself when g is empty, so a caller never writes a
dict once its value is built.  The module imports nothing from the library,
so kclass uses it without loading field or matrix.
"""

from __future__ import annotations


def add_terms(f, g, sign=1):
    """f + sign * g, keeping no zero; f itself when g is empty."""
    if not g:
        return f
    out = dict(f)
    for k, c in g.items():
        c = out.get(k, 0) + sign * c
        if c:
            out[k] = c
        else:
            out.pop(k, None)
    return out


def mul_into(acc, f, g):
    """Add f * g into acc, the key k1 + k2 for each pair of terms, and return
    acc.  A coefficient that cancels stays in acc as 0."""
    for k1, c1 in f.items():
        for k2, c2 in g.items():
            k = k1 + k2
            acc[k] = acc.get(k, 0) + c1 * c2
    return acc


def mul_terms(f, g):
    """f * g, keeping no zero."""
    t = mul_into({}, f, g)
    return {k: c for k, c in t.items() if c} if 0 in t.values() else t


def format_terms(terms, mono):
    """The terms as a signed sum in descending key order, "0" when there is
    none.  mono(k) prints the key k as a monomial, "" for the unit, and a
    coefficient of 1 or -1 on a monomial prints as its sign alone:
    "-2*u^2 + u - 3"."""
    out = []
    for n, (k, c) in enumerate(sorted(terms.items(), reverse=True)):
        m, mag = mono(k), abs(c)
        body = m if m and mag == 1 else f"{mag}*{m}" if m else str(mag)
        if n == 0:
            out.append(("-" if c < 0 else "") + body)
        else:
            out.append((" - " if c < 0 else " + ") + body)
    return "".join(out) or "0"
