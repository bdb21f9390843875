"""Exact rational functions in h, u, u1, u2, u3, u4 over Q.

Poly is Z[h, u, u1..u4]; Q enters only as a RatFunc's content.  A Poly is a
dict mapping exponent tuples to nonzero int coefficients, and exact division
divides ints with divmod, so nothing here ever produces a float.  Every
division the library makes is exact over Z (Gauss's lemma): it divides by a
content or a primitive divisor, or it is a subresultant PRS step.  The
variable order is fixed once and for all:

    VARS = (h, u, u1, u2, u3, u4)

Monomial comparison is graded lexicographic with later variables dominating,
so the monomial u1 beats h and `2*u1 + 2*h` is the canonical print order for
descending terms.

Canonical RatFunc form: num/den reduced by their gcd, then scaled by a single
rational, the quotient of their contents, so all coefficients are ints with
joint content 1 and the leading coefficient of den is positive.  Equality and
hashing agree with that data.

The factor base.  The K- and R-matrices have poles on shifts such as
u1 + u2 + h or u - u1 + h, so every denominator they produce is a product of
a few linear forms.  A RatFunc keeps its denominator as a positive int times
exponents over an interned table of primitive linear forms, plus a residual
Poly for a factor not known to split over the table.  Products and sums of
operands without a residual are Henrici's algorithms on that form: exponents
add, a gcd of denominators is a minimum of exponents, and a cancellation is a
trial division by a form.  A trial division is exact: a nonzero integer value
of t at one rational point of the hyperplane L = 0 proves that L does not
divide t, and when the value is zero poly_div_exact decides.  Nothing is
decided modulo a prime or at a float.

Residuals arise only from the constructor and inv(), for denominators that do
not split over the table.  A sum or product with a residual operand is handed
to the constructor on the expanded polynomials, so the constructor alone
splits and cancels residuals.  Its general gcd is a content / primitive-part
recursion over a subresultant PRS.
"""

from __future__ import annotations

import sys
from heapq import heapify, heappop, heappush
from functools import reduce
from math import gcd as int_gcd
from math import lcm as int_lcm
from operator import add, index, mul, neg, sub

VARS = ("h", "u", "u1", "u2", "u3", "u4")
NVARS = len(VARS)
VAR_INDEX = {name: i for i, name in enumerate(VARS)}

ZERO_EXP = (0,) * NVARS


def _mono_key(exps):
    # graded lex, later variables dominate
    return (sum(exps), tuple(reversed(exps)))


def _heap_key(exps):
    # _mono_key negated, so that heapq's smallest entry is the leading monomial
    return (-sum(exps), *map(neg, reversed(exps)))


def _div_const(p, c):
    """p / c for a nonzero int c; ValueError unless c divides every
    coefficient."""
    q = Poly()
    if c == 1:
        q.terms = dict(p.terms)
        return q
    for e, cc in p.terms.items():
        q.terms[e], r = divmod(cc, c)
        if r:
            raise ValueError("not an exact polynomial division")
    return q


class Poly:
    """Multivariate polynomial over Z: an element of Z[h, u, u1..u4].

    Coefficients are ints, checked with operator.index, so a non-integer
    raises TypeError; Q enters only as a RatFunc's content.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        t = {}
        if terms:
            for exps, c in terms.items():
                c = index(c)
                if c:
                    t[tuple(exps)] = c
        self.terms = t

    @staticmethod
    def const(c):
        c = index(c)
        return Poly({ZERO_EXP: c}) if c else Poly()

    @staticmethod
    def var(name, power=1):
        exps = [0] * NVARS
        exps[VAR_INDEX[name]] = power
        return Poly({tuple(exps): 1})

    def is_zero(self):
        return not self.terms

    def is_const(self):
        return not self.terms or (len(self.terms) == 1 and ZERO_EXP in self.terms)

    def const_value(self):
        if not self.terms:
            return 0
        if len(self.terms) == 1 and ZERO_EXP in self.terms:
            return self.terms[ZERO_EXP]
        raise ValueError("not a constant polynomial")

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        # cached on first use: a Poly is never written to once it is shared
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(frozenset(self.terms.items()))
            return self._hash

    def __neg__(self):
        return Poly({e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        t = dict(self.terms)
        for e, c in other.terms.items():
            s = t.get(e, 0) + c
            if s:
                t[e] = s
            else:
                t.pop(e, None)
        p = Poly()
        p.terms = t
        return p

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.terms or not other.terms:
            return Poly()
        t = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                s = t.get(e, 0) + c1 * c2
                if s:
                    t[e] = s
                else:
                    t.pop(e, None)
        p = Poly()
        p.terms = t
        return p

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a Poly")
        result = Poly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, c):
        c = index(c)
        if not c:
            return Poly()
        return Poly({e: cc * c for e, cc in self.terms.items()})

    def leading(self):
        """(exponent tuple, coefficient) of the graded-lex leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=_mono_key)
        return e, self.terms[e]

    def degree(self, name=None):
        """Total degree, or degree in one variable.  Zero poly -> -1."""
        if not self.terms:
            return -1
        if name is None:
            return max(sum(e) for e in self.terms)
        i = VAR_INDEX[name]
        return max(e[i] for e in self.terms)

    def coeff_of(self, name, power):
        """Coefficient of name**power, a Poly in the remaining variables."""
        i = VAR_INDEX[name]
        t = {}
        for e, c in self.terms.items():
            if e[i] == power:
                e2 = list(e)
                e2[i] = 0
                t[tuple(e2)] = c
        p = Poly()
        p.terms = t
        return p

    def subs(self, assignment):
        """Evaluate at a full assignment {var: value}.

        Poly is over Z, so the value has the type of the point: an int at an
        integer point, a rational at a rational one.
        """
        total = 0
        for e, c in self.terms.items():
            v = c
            for i, x in enumerate(e):
                if x:
                    v *= assignment[VARS[i]] ** x
            total += v
        return total

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"Poly({format_poly(self)})"


def _format_mono(exps):
    """The monomial as "u*h^2", or "" for 1."""
    return "*".join(VARS[i] if x == 1 else f"{VARS[i]}^{x}" for i, x in enumerate(exps) if x)


def format_poly(p):
    if not p.terms:
        return "0"
    items = sorted(p.terms.items(), key=lambda kv: _mono_key(kv[0]), reverse=True)
    out = []
    for n, (e, c) in enumerate(items):
        neg = c < 0
        mag = -c if neg else c
        mono = _format_mono(e)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if n == 0:
            out.append(("-" if neg else "") + body)
        else:
            out.append((" - " if neg else " + ") + body)
    return "".join(out)


# ---------------------------------------------------------------------------
# gcd machinery
#
# A recursive content / primitive-part reduction feeds a univariate
# subresultant pseudo-remainder sequence (Cohen alg. 3.2.11): its
# beta-factors keep every division exact without the multivariate content gcd
# a primitive PRS needs at each step.  It is deterministic and needs no cache:
# with the factor base it sees residual denominators only.


def _to_univariate(p, name):
    """Represent p as {degree: Poly-in-other-vars} in the chosen variable."""
    out = {}
    i = VAR_INDEX[name]
    for e, c in p.terms.items():
        d = e[i]
        e2 = list(e)
        e2[i] = 0
        coeff = out.setdefault(d, Poly())
        coeff.terms[tuple(e2)] = coeff.terms.get(tuple(e2), 0) + c
    return {d: c for d, c in out.items() if c.terms}


def _from_univariate(coeffs, name):
    """The inverse of _to_univariate: each coefficient is free of name and
    nonzero, so its terms take the exponent d of name as they are."""
    i = VAR_INDEX[name]
    p = Poly()
    p.terms = {e[:i] + (d,) + e[i + 1:]: c for d, coeff in coeffs.items() for e, c in coeff.terms.items()}
    return p


def poly_div_exact(f, g):
    """Exact division f/g in Z[h..u4]; raises ValueError if g does not
    divide f there, so u / 2u raises as a remainder does.

    The remainder lives in a dict beside a heap of its monomials ordered by
    _mono_key, leading first (Monagan & Pearce, PASCO 2007).  Every monomial
    that a step adds to the remainder is smaller than the one it cancels, so
    each key enters the heap once; a key whose coefficient cancelled to 0 is
    skipped when it comes up.
    """
    if g.is_zero():
        raise ZeroDivisionError("poly division by zero")
    if f.is_zero():
        return Poly()
    if g.is_const():
        return _div_const(f, g.const_value())
    ge, gc = g.leading()
    tail = [(e, c) for e, c in g.terms.items() if e != ge]
    r = dict(f.terms)
    heap = [(_heap_key(e), e) for e in r]
    heapify(heap)
    q = {}
    while heap:
        re = heappop(heap)[1]
        rc = r.pop(re)
        if not rc:
            continue
        diff = tuple(map(sub, re, ge))
        qc, rem = divmod(rc, gc)
        if rem or min(diff) < 0:
            raise ValueError("not an exact polynomial division")
        q[diff] = qc
        for e, c in tail:
            e = tuple(map(add, diff, e))
            old = r.get(e)
            if old is None:
                r[e] = -qc * c
                heappush(heap, (_heap_key(e), e))
            else:
                r[e] = old - qc * c
    p = Poly()
    p.terms = q
    return p


def _pseudo_rem_uni(fu, gu):
    """True pseudo-remainder lc(g)^(deg f - deg g + 1) * f mod g."""
    dg = max(gu)
    df = max(fu)
    lg = gu[dg]
    needed = df - dg + 1
    done = 0
    r = dict(fu)
    while r and max(r) >= dg:
        dr = max(r)
        lr = r[dr]
        # r <- lg * r - lr * x^(dr-dg) * g
        new = {}
        for d, c in r.items():
            new[d] = c * lg
        done += 1
        for d, c in gu.items():
            dd = d + dr - dg
            val = new.get(dd, Poly()) - c * lr
            if val.terms:
                new[dd] = val
            else:
                new.pop(dd, None)
        r = {d: c for d, c in new.items() if c.terms}
    if r and done < needed:
        scale = lg ** (needed - done)
        r = {d: c * scale for d, c in r.items()}
    return r


def _content_wrt(p, name):
    coeffs = sorted(
        _to_univariate(p, name).values(), key=lambda c: len(c.terms)
    )
    c = Poly()
    for co in coeffs:
        c = poly_gcd(c, co)
        if c.is_const() and not c.is_zero():
            return Poly.const(1)
    return c


def _signed_content(p):
    """(s, q) with p = s * q for a nonzero p: s is the gcd of the
    coefficients, signed by the leading one, so q has content 1 and a
    positive leading coefficient."""
    s = int_gcd(*p.terms.values())
    if p.leading()[1] < 0:
        s = -s
    return s, _div_const(p, s)


def _normalize_primitive(p):
    """Divide out the signed content: content 1, positive leading coeff."""
    if p.is_zero():
        return p
    return _signed_content(p)[1]


def _mono_content(p):
    """Exponentwise min over terms: the largest monomial dividing p."""
    it = iter(p.terms)
    first = next(it)
    mins = list(first)
    for e in it:
        for i, x in enumerate(e):
            if x < mins[i]:
                mins[i] = x
    return tuple(mins)


def _try_div(f, g):
    try:
        return poly_div_exact(f, g)
    except ValueError:
        return None


def poly_gcd(f, g):
    """gcd over Q[h..u4], normalized to integer content 1, positive lead."""
    if f.is_zero():
        return _normalize_primitive(g)
    if g.is_zero():
        return _normalize_primitive(f)
    if f.is_const() or g.is_const():
        return Poly.const(1)
    return _gcd_nonconstant(f, g)


def _gcd_nonconstant(f, g):
    # pull out the common monomial factor first
    mf = _mono_content(f)
    mg = _mono_content(g)
    common = tuple(min(a, b) for a, b in zip(mf, mg))
    if any(common):
        f = Poly({tuple(a - b for a, b in zip(e, common)): c for e, c in f.terms.items()})
        g = Poly({tuple(a - b for a, b in zip(e, common)): c for e, c in g.terms.items()})
        return _normalize_primitive(Poly({common: 1}) * poly_gcd(f, g))
    if len(f.terms) == 1 or len(g.terms) == 1:
        # monomial gcd already extracted: nothing further in common
        return Poly.const(1)
    both = [n for n in VARS if f.degree(n) > 0 and g.degree(n) > 0]
    if not both:
        return Poly.const(1)
    # the main variable of least degree gives the shortest remainder sequence
    name = min(both, key=lambda n: max(f.degree(n), g.degree(n)))
    cf = _content_wrt(f, name)
    cg = _content_wrt(g, name)
    a = poly_div_exact(f, cf) if not cf.is_const() else f
    b = poly_div_exact(g, cg) if not cg.is_const() else g
    c = poly_gcd(cf, cg)
    h = _subresultant_gcd(a, b, name)
    return _normalize_primitive(h * c)


def _subresultant_gcd(a, b, name):
    """gcd of polynomials primitive w.r.t. `name`, via subresultant PRS."""
    au = _to_univariate(a, name)
    bu = _to_univariate(b, name)
    if max(au) < max(bu):
        au, bu = bu, au
    g_coef = Poly.const(1)
    h_coef = Poly.const(1)
    while True:
        if max(bu) == 0:
            # nonzero, primitive, and free of the main variable
            return Poly.const(1)
        delta = max(au) - max(bu)
        ru = _pseudo_rem_uni(au, bu)
        if not ru:
            break
        divisor = g_coef * h_coef ** delta
        r = _from_univariate(ru, name)
        if not divisor.is_const() or divisor.const_value() != 1:
            r = poly_div_exact(r, divisor)
        au = bu
        g_coef = au[max(au)]
        if delta == 1:
            h_coef = g_coef
        elif delta >= 2:
            h_coef = poly_div_exact(g_coef ** delta, h_coef ** (delta - 1))
        bu = _to_univariate(r, name)
    # gcd is the primitive part of the last nonzero remainder (now in bu)
    last = _from_univariate(bu, name)
    cont = _content_wrt(last, name)
    if not cont.is_const():
        last = poly_div_exact(last, cont)
    return _normalize_primitive(last)


# ---------------------------------------------------------------------------
# the factor base
#
# _FORMS interns linear forms, each primitive with a positive leading
# coefficient; the variables come first, so form i < NVARS is VARS[i].
# Whether a form L divides a polynomial t is decided exactly: t is evaluated
# in integers at the point of the hyperplane L = 0 whose other coordinates
# are _PT.  A nonzero value proves that L does not divide t; only a zero
# value leads to poly_div_exact, which decides.  Exponent maps are dicts
# {form id: exponent}, never mutated once built, so they are shared.

_PT = (5, 47, 431, 3967, 36497, 335779)
_FORMS_MAX = 1 << 12
_EXPANDED_MAX = 1 << 10


class _Form:
    """A form and its hyperplane point: lead * x_k = root, the rest at _PT."""

    __slots__ = ("poly", "k", "lead", "root", "value")

    def __init__(self, poly):
        top, self.lead = poly.leading()
        self.poly, self.k = poly, top.index(1)
        rest = sum(c * (_PT[e.index(1)] if any(e) else 1) for e, c in poly.terms.items() if e != top)
        self.root, self.value = -rest, self.lead * _PT[self.k] + rest


_FORMS = []
_FORM_ID = {}


def _intern(p):
    """Table id of the linear form p.  A full table raises: a form left out
    would stay a residual and change what later results cancel."""
    i = _FORM_ID.get(p)
    if i is None:
        if len(_FORMS) >= _FORMS_MAX:
            raise RuntimeError(f"form table full: {_FORMS_MAX} linear forms (_FORMS_MAX)")
        i = _FORM_ID[p] = len(_FORMS)
        _FORMS.append(_Form(p))
    return i


for _name in VARS:
    _intern(Poly.var(_name))


def _vanishes_on(t, form, images):
    """Whether t is 0 at the form's hyperplane point.  images caches, per
    variable k, t with the other variables at _PT as {degree: coefficient};
    Horner then runs in x_k = root / lead, cleared of lead^degree."""
    img = images.get(form.k)
    if img is None:
        img = images[form.k] = {}
        for e, c in t.terms.items():
            for j, x in enumerate(e):
                if x and j != form.k:
                    c *= _PT[j] ** x
            img[e[form.k]] = img.get(e[form.k], 0) + c
    acc, lead_pow = 0, 1
    for d in range(max(img), -1, -1):
        acc = acc * form.root + img.get(d, 0) * lead_pow
        lead_pow *= form.lead
    return not acc


def _divide_out(t, pairs):
    """Divide t by the form i of each (i, n) up to n times while it divides:
    (quotient, {form id: times it divided})."""
    took = {}
    images = {}
    for i, n in pairs:
        form = _FORMS[i]
        while took.get(i, 0) < n and not t.is_const() and _vanishes_on(t, form, images):
            q = _try_div(t, form.poly)
            if q is None:
                break
            t, images = q, {}
            took[i] = took.get(i, 0) + 1
    return t, took


def _merge(f, g, sign=1):
    """Exponent map f times (sign 1) or over (sign -1) the map g."""
    if not g:
        return f
    out = dict(f)
    for i, e in g.items():
        e = out.get(i, 0) + sign * e
        if e:
            out[i] = e
        else:
            del out[i]
    return out


def _tidy(f, r):
    """A residual that became constant leaves; a linear one joins the table."""
    d = r.degree()
    if d == 0:
        return f, None
    if d > 1:
        return f, r
    return _merge(f, {_intern(r): 1}), None


def _split(p):
    """(exponents, residual) of p, primitive with a positive leading
    coefficient: its monomial content and every table form dividing it."""
    m = _mono_content(p)
    f = {i: x for i, x in enumerate(m) if x}
    if f:
        p = Poly({tuple(map(sub, e, m)): c for e, c in p.terms.items()})
    d = p.degree()
    if d > 1:
        p, took = _divide_out(p, ((i, d) for i in range(NVARS, len(_FORMS))))
        f = _merge(f, took)
    return _tidy(f, p)


def _cancel(n, f, r):
    """Numerator n and denominator part (f, r) with their common factor
    divided out: trial division by the forms, the general gcd for r."""
    if f:
        n, took = _divide_out(n, f.items())
        f = _merge(f, took, -1)
    if r is not None:
        g = poly_gcd(n, r)
        if not g.is_const():
            n = poly_div_exact(n, g)
            f, r = _tidy(f, poly_div_exact(r, g))
    return n, f, r


_EXPANDED = {}


def _times(p, k, f):
    """p * k * prod form^e: an int k and exponents f (expansion cached)."""
    if f:
        key = frozenset(f.items())
        e = _EXPANDED.get(key)
        if e is None:
            if len(_EXPANDED) >= _EXPANDED_MAX:
                _EXPANDED.clear()
            e = _EXPANDED[key] = reduce(mul, (_FORMS[i].poly ** x for i, x in f.items()))
        p = p * e
    return p if k == 1 else p.scale(k)


# ---------------------------------------------------------------------------


class RatFunc:
    """Reduced rational function num / den in canonical form.

    The denominator is kept factored as den = c * prod form^e * residual: a
    positive int c, an exponent map over the form table and a residual, a
    primitive Poly with a positive leading coefficient or None.  Only the
    constructor and inv() split a new denominator over the table; whatever
    does not split is the residual, and only residuals reach poly_gcd.  den,
    the expanded Poly, is computed on first read and kept.

    A product or sum with a residual operand is the constructor applied to
    the expanded num and den, since a residual may hide a form interned after
    it was split.  Every other product and sum is Henrici's (Knuth, TAOCP
    vol. 2, 4.5.1): the operands are canonical, hence reduced.  A product
    trial-divides each numerator by the forms of the other denominator and
    adds the exponents.  A sum a/b + c/d takes g = gcd(b, d) as the minimum
    of the exponents, t = a (d/g) + c (b/g) from cached expansions, and
    gcd(t, g) by trial division of t.  The results are the canonical data the
    full gcd of the unreduced pair gives.
    """

    __slots__ = ("num", "den", "_c", "_f", "_r", "_hash")

    def __init__(self, num, den=None):
        if den is not None and den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        f, r, c = _NO_FORMS, None, 1
        if num.terms:
            k = int_gcd(*num.terms.values())
            num, s = _div_const(num, k), 1
            if den is not None:
                s, den = _signed_content(den)
                if not den.is_const():
                    f, r = _split(den)
            num, f, r = _cancel(num, f, r)
            # the two contents fold into the one rational k / s, in lowest
            # terms with a positive denominator
            g = int_gcd(k, s)
            if s < 0:
                g = -g
            num, c = num.scale(k // g), s // g
        self.num, self._c, self._f, self._r = num, c, f, r

    def __getattr__(self, name):
        # den is the only attribute computed on demand
        if name != "den":
            raise AttributeError(name)
        self.den = _times(Poly.const(1) if self._r is None else self._r, self._c, self._f)
        return self.den

    def __reduce__(self):
        # form ids index this process's table
        return RatFunc, (self.num, self.den)

    @staticmethod
    def zero():
        return _make(Poly(), 1, _NO_FORMS, None)

    @staticmethod
    def one():
        return RatFunc.const(1)

    @staticmethod
    def const(c):
        # an int or a Fraction only, as in _coerce: Fraction(0.1) is exact but
        # is not one tenth; both hold their lowest terms
        if not _is_rational(c):
            raise TypeError(f"a RatFunc constant is an int or a Fraction, not {type(c).__name__}")
        return _make(Poly.const(c.numerator), c.denominator, _NO_FORMS, None)

    @staticmethod
    def var(name, power=1):
        if power >= 0:
            return _make(Poly.var(name, power), 1, _NO_FORMS, None)
        return _make(Poly.const(1), 1, {VAR_INDEX[name]: -power}, None)

    def is_zero(self):
        return self.num.is_zero()

    def den_factors(self):
        """(c, {form: exponent}, residual) with den = c * prod form^exponent
        * residual, where no form of the table divides the residual."""
        f, r = self._f, self._r
        if r is not None:
            # forms interned since the residual was split may divide it now
            g, r = _split(r)
            f = _merge(f, g)
        return self._c, {_FORMS[i].poly: e for i, e in f.items()}, r

    def __bool__(self):
        return not self.num.is_zero()

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            if not _is_rational(other):
                return NotImplemented
            other = RatFunc.const(other)
        if self.num != other.num or self._c != other._c:
            return False
        if self._r is None and other._r is None:
            # distinct forms are distinct primes: exponents are the factorization
            return self._f == other._f
        return self.den == other.den

    def __hash__(self):
        # den enters by its value at _PT, which every factorization shares
        try:
            return self._hash
        except AttributeError:
            v = self._c
            for i, e in self._f.items():
                v *= _FORMS[i].value ** e
            if self._r is not None:
                v *= self._r.subs(dict(zip(VARS, _PT)))
            self._hash = hash((self.num, v))
            return self._hash

    def __neg__(self):
        return _make(-self.num, self._c, self._f, self._r)

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, Poly):
            return RatFunc(other)
        if _is_rational(other):
            return RatFunc.const(other)
        return None

    def _add_signed(self, o, sign):
        # Henrici: with g = gcd(b, d) and t = a (d/g) + c (b/g), only g can
        # share a factor with t, so a/b + c/d = (t/g2) / ((b/g) (d/g2)) for
        # g2 = gcd(t, g), and that pair is coprime.  A form whose exponents in
        # b and d differ divides b/g or d/g, both coprime to t, so only forms
        # with equal exponents are tried on t.
        a = self.num
        c = o.num if sign > 0 else -o.num
        if not c.terms:
            return self
        if not a.terms:
            return o if sign > 0 else -o
        if self._r is not None or o._r is not None:
            return RatFunc(a * o.den + c * self.den, self.den * o.den)
        fb, fd = self._f, o._f
        g = {i: min(e, fd[i]) for i, e in fb.items() if i in fd}
        cl = int_lcm(self._c, o._c)
        fbg = _merge(fb, g, -1)
        t = _times(a, cl // self._c, _merge(fd, g, -1)) + _times(c, cl // o._c, fbg)
        if not t.terms:
            return RatFunc.zero()
        t, g2 = _divide_out(t, ((i, e) for i, e in g.items() if fb[i] == fd[i]))
        return _make(t, cl, _merge(fbg, _merge(fd, g2, -1)), None)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._add_signed(o, 1)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._add_signed(o, -1)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.num.is_zero() or o.num.is_zero():
            return RatFunc.zero()
        if self._r is not None or o._r is not None:
            return RatFunc(self.num * o.num, self.den * o.den)
        # Henrici: after cross-cancellation n1 n2 and d1 d2 are coprime
        n1, f2, _ = _cancel(self.num, o._f, None)
        n2, f1, _ = _cancel(o.num, self._f, None)
        return _make(n1 * n2, self._c * o._c, _merge(f1, f2), None)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def inv(self):
        # a coprime pair swapped: only the new denominator needs splitting
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of zero")
        s, p = _signed_content(self.num)
        f, r = _split(p) if not p.is_const() else (_NO_FORMS, None)
        # den / (s p) = ±den / (|s| p)
        return _make(self.den if s > 0 else -self.den, abs(s), f, r)

    def eval(self, assignment):
        """Evaluate at {var: int or Fraction} -> Fraction; raises on a pole of
        the REDUCED form."""
        from fractions import Fraction

        d = self.den.subs(assignment)
        if d == 0:
            raise ZeroDivisionError(
                f"pole of rational function at {assignment}"
            )
        return Fraction(self.num.subs(assignment), d)

    def __str__(self):
        return format_ratfunc(self)

    def __repr__(self):
        return f"RatFunc({format_ratfunc(self)})"


_NO_FORMS = {}


def _is_rational(x):
    """Whether x is an int or a Fraction.  A Fraction exists only once the
    fractions module is loaded, so its class is looked up there and nothing
    is imported: a process that never makes a Fraction never loads it."""
    if isinstance(x, int):
        return True
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(x, fractions.Fraction)


def _make(num, c, f, r):
    """The RatFunc num / (c * prod form^e * r) for an integral num coprime
    to the polynomial part of the denominator: only the content is left."""
    if c != 1:
        k = int_gcd(c, *num.terms.values())
        if k != 1:
            num, c = _div_const(num, k), c // k
    x = RatFunc.__new__(RatFunc)
    x.num, x._c, x._f, x._r = num, c, f, r
    return x


def format_ratfunc(r):
    num_s = format_poly(r.num)
    if r.den.is_const() and r.den.const_value() == 1:
        return num_s
    den_s = format_poly(r.den)
    if len(r.num.terms) > 1:
        num_s = f"({num_s})"
    if len(r.den.terms) > 1 or _den_needs_parens(r.den):
        den_s = f"({den_s})"
    return f"{num_s} / {den_s}"


def _den_needs_parens(den):
    # single term: parenthesize unless it's a bare power like u, h^2
    ((e, c),) = den.terms.items()
    if c != 1:
        return True
    return sum(1 for x in e if x) > 1


# convenient pre-built generators
H = RatFunc.var("h")
U = RatFunc.var("u")
U1 = RatFunc.var("u1")
U2 = RatFunc.var("u2")
U3 = RatFunc.var("u3")
U4 = RatFunc.var("u4")
