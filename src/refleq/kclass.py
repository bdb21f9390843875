"""K-theory class bookkeeping: q-integers and reflection-functor transforms.

Classes live in the free module over Z[q, q^-1] spanned by symbols
("W", i), ("V", i), ("U", i).  The reflection at a vertex i rewrites the
distinguished classes U_j by

    U_j  ->  U_j - q^(eps) [a_ij] U_i

with eps = +1 exactly when the current chamber value zeta_i is negative,
and updates the chamber by the simple Weyl reflection.  Composing along a
reduced word for w0 (rightmost letter first) gives the longest transform;
on a generic chamber it sends U_j to a single term -q^c U_{invast(j)}.

A QLaurent stores {q_exponent: nonzero int}.  A KClassExpr takes
{symbol: QLaurent} and stores the flat terms {(symbol, q_exponent): nonzero
int}; a sum adds integers key by key, and times c*q^k (shifted) moves every
exponent by k.  parts, the {symbol: QLaurent} view, is a copy built on
each read.  Sums, products and the printed form of both are the sparse-term
functions of terms, which field and matrix share; kclass makes no call into
either.
"""

from __future__ import annotations

from .dynkin import cartan_matrix, invast, longest_word, neighbors
from .terms import add_terms, format_terms, mul_terms


class QLaurent:
    """Laurent polynomial in q with integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {}
        if coeffs:
            for k, c in coeffs.items():
                if c:
                    self.coeffs[int(k)] = int(c)

    @staticmethod
    def zero():
        return QLaurent()

    @staticmethod
    def one():
        return QLaurent({0: 1})

    @staticmethod
    def q_power(k, coeff=1):
        return QLaurent({k: coeff})

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, QLaurent) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __neg__(self):
        return QLaurent({k: -c for k, c in self.coeffs.items()})

    def __add__(self, other):
        return QLaurent(add_terms(self.coeffs, other.coeffs))

    def __sub__(self, other):
        return QLaurent(add_terms(self.coeffs, other.coeffs, -1))

    def __mul__(self, other):
        return QLaurent(mul_terms(self.coeffs, other.coeffs))

    def __str__(self):
        return format_terms(self.coeffs, _format_q)

    def __repr__(self):
        return f"QLaurent({self})"


def _format_q(k):
    """The power q^k as "q^k", "q" for k = 1 and "" for k = 0."""
    return "" if k == 0 else "q" if k == 1 else f"q^{k}"


def q_integer(m):
    """[m] = q^(m-1) + q^(m-3) + ... + q^(1-m); [0] = 0; [-m] = -[m]."""
    if m == 0:
        return QLaurent.zero()
    if m < 0:
        return -q_integer(-m)
    return QLaurent({m - 1 - 2 * k: 1 for k in range(m)})


class KClassExpr:
    """Finite Z[q,q^-1]-linear combination of W/V/U symbols."""

    __slots__ = ("terms",)

    def __init__(self, parts=None):
        self.terms = {}
        if parts:
            for sym, c in parts.items():
                for k, n in c.coeffs.items():
                    self.terms[sym, k] = n

    @staticmethod
    def symbol(kind, i, coeff=None):
        return KClassExpr({(kind, i): coeff if coeff is not None else QLaurent.one()})

    @property
    def parts(self):
        out = {}
        for (sym, k), n in self.terms.items():
            out.setdefault(sym, {})[k] = n
        return {sym: QLaurent(c) for sym, c in out.items()}

    def __eq__(self, other):
        return isinstance(other, KClassExpr) and self.terms == other.terms

    def __add__(self, other):
        e = KClassExpr()
        e.terms = add_terms(self.terms, other.terms)
        return e

    def shifted(self, k, sign):
        """This expression times sign * q^k (sign a nonzero integer)."""
        e = KClassExpr()
        e.terms = {(sym, j + k): sign * n for (sym, j), n in self.terms.items()}
        return e

    def single_symbol(self):
        """(symbol, coeff) if the expression is one term, else None."""
        parts = self.parts
        if len(parts) != 1:
            return None
        ((sym, c),) = parts.items()
        return sym, c

    def __str__(self):
        parts = self.parts
        if not parts:
            return "0"
        items = sorted(parts.items(), key=lambda kv: (kv[0][0], kv[0][1]))
        return " + ".join(f"({c})*{kind}{i}" for (kind, i), c in items)

    def __repr__(self):
        return f"KClassExpr({self})"


def u_class(t, i):
    """U_i = q^-1 W_i + sum_j q^-1 [-a_ij] V_j (j runs over all vertices)."""
    cartan = cartan_matrix(t)
    qinv = QLaurent.q_power(-1)
    parts = {("W", i): qinv}
    for j in t.vertices:
        coeff = qinv * q_integer(-cartan[i - 1][j - 1])
        if coeff:
            parts[("V", j)] = coeff
    return KClassExpr(parts)


class GenericityError(RuntimeError):
    """Chamber hit a wall: a reflection was requested at zeta_i = 0."""


def reflect_step(t, exprs, i, zeta):
    """One reflection at vertex i.  Returns (new exprs, new zeta).

    exprs maps each vertex j to the current transform of U_j (any symbols);
    zeta is the current chamber vector (1-based tuple).  The q-power sign is
    +1 when zeta_i < 0, -1 when zeta_i > 0; zeta_i = 0 is a wall and raises
    GenericityError.

    On an ADE diagram a_ii = 2, a_ij = -1 on an edge and 0 elsewhere, so
    U_j - q^eps [a_ij] U_i reads -q^(2 eps) U_i at j = i (1 - q^eps [2] =
    -q^(2 eps)), U_j + q^eps U_i at a neighbour j, and U_j everywhere else:
    only those rows are rebuilt, each by a monomial shift.
    """
    zi = zeta[i - 1]
    if zi == 0:
        raise GenericityError(f"chamber wall: zeta_{i} = 0")
    eps = 1 if zi < 0 else -1
    base_i = exprs[i]
    lifted = base_i.shifted(eps, 1)
    new_exprs = dict(exprs)
    new_exprs[i] = base_i.shifted(2 * eps, -1)
    new_zeta = list(zeta)
    new_zeta[i - 1] = -zi
    for j in neighbors(t)[i]:
        new_exprs[j] = exprs[j] + lifted
        new_zeta[j - 1] = zeta[j - 1] + zi
    return new_exprs, tuple(new_zeta)


def longest_reflection_transform(t, word=None):
    """Transform of each U_j under the full longest-word reflection chain.

    Returns {j: KClassExpr}.  The walk starts from the staircase chamber
    zeta0 = (-1, ..., -n) and never meets a wall.  For a reduced word
    i_1 ... i_N, step k applies s_(i_k) after v = s_(i_(k+1)) ... s_(i_N)
    and reads zeta_(i_k) = <v zeta0, alpha_(i_k)> = <zeta0, v^-1 alpha_(i_k)>.
    v^-1 alpha_(i_k) is a positive root, and zeta0 is negative on every
    simple root, hence on every positive root: every zeta read is negative.
    """
    if word is None:
        word = longest_word(t)
    zeta = tuple(-k for k in range(1, t.rank + 1))
    exprs = {j: KClassExpr.symbol("U", j) for j in t.vertices}
    for i in reversed(word):
        exprs, zeta = reflect_step(t, exprs, i, zeta)
    return exprs


def longest_transform_summary(t):
    """{vertex: (invast vertex, coefficient)} with the single-term check."""
    exprs = longest_reflection_transform(t)
    iv = invast(t)
    out = {}
    for j in t.vertices:
        single = exprs[j].single_symbol()
        if single is None:
            raise AssertionError(
                f"longest transform of U_{j} is not a single term: {exprs[j]}"
            )
        (kind, m), coeff = single
        if kind != "U" or m != iv[j]:
            raise AssertionError(
                f"longest transform sent U_{j} to {kind}_{m}, expected U_{iv[j]}"
            )
        out[j] = (m, coeff)
    return out


def framing_permutation(t, sigma_prime):
    """How the longest transform permutes framing symbols: i -> sigma'(invast i).

    The coefficient side of that move is dualized, q replaced by q^-1;
    callers track it with the permutation.
    """
    iv = invast(t)
    return {i: sigma_prime[iv[i]] for i in t.vertices}


def w0_summary_dict(t):
    """JSON payload for the CLI: vertex -> [image vertex, coefficient]."""
    return {
        str(j): [m, str(c)] for j, (m, c) in sorted(longest_transform_summary(t).items())
    }
