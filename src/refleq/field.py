"""Exact rational functions in h, u, u1, u2, u3, u4 over Q.

Poly is Z[h, u, u1..u4]; Q enters only as a RatFunc's content.  A Poly is a
dict mapping packed monomials, one int each, to nonzero int coefficients, and
exact division divides ints with divmod, so nothing here ever produces a
float.  Every division the library makes is exact over Z (Gauss's lemma): it
divides by a content or a primitive divisor, or it is a subresultant PRS
step.  The variables and their order are one table, _PT, which also gives
each its coordinate in the factor base's hyperplane points:

    VARS = (h, u, u1, u2, u3, u4)

field owns the monomial format, and the provers in matrix read Poly.terms
as stored, through the public layout constants (EXP_SHIFT, EXP_MASK,
DEGREE_SHIFT) and the degree guard fit.  Monomial comparison is int
comparison: graded lexicographic with later variables dominating, so the
monomial u1 beats h and `2*u1 + 2*h` is the canonical print order for
descending terms.  A monomial product is an int sum, so a Poly's sum,
difference, product and printed form, and the sums of a RatFunc's exponent
maps, are the sparse-term functions of terms (add_terms, mul_terms,
format_terms), which matrix and kclass share; Poly.__mul__ adds only the
guard fit.

Canonical RatFunc form: num/den reduced by their gcd, then scaled by a single
rational, the quotient of their contents, so all coefficients are ints with
joint content 1 and the leading coefficient of den is positive.  Equality and
hashing agree with that data.

The factor base.  The K- and R-matrices have poles on shifts such as
u1 + u2 + h or u - u1 + h, so every denominator they produce is a product of
a few linear forms.  A RatFunc keeps its denominator as a positive int times
exponents over an interned table of primitive linear forms, and nothing
else.  Products and sums are Henrici's algorithms on that form: exponents
add, a gcd of denominators is a minimum of exponents, and a cancellation is a
trial division by a form.  A trial division is exact: a nonzero integer value
of t at one rational point of the hyperplane L = 0 proves that L does not
divide t, and when the value is zero poly_div_exact decides.  Nothing is
decided modulo a prime or at a float, and no gcd of polynomials is taken.

An expanded denominator, given to the constructor or made by inv(), is split
over the table: its monomial content, then trial division by every interned
form, and a linear remainder joins the table.  A remainder of degree over 1
raises ValueError, so whether an expanded denominator can be built depends
on the forms interned before it: 1 / ((u1 - u2) (u1 + h)) raises in a
process that has interned neither form, and 1 / (u1 - u2) / (u1 + h) builds.
A value once built does not depend on them: distinct forms are distinct
primes, so its num, content and form exponents, hence its equality, hash,
printed form and every bound and verdict read off it, are the same whatever
else the process interned.
"""

from __future__ import annotations

import sys
from heapq import heapify, heappop, heappush
from functools import lru_cache, reduce
from math import gcd as int_gcd
from math import lcm as int_lcm
from math import prod
from operator import index, lshift, mul

from .terms import add_terms, format_terms, mul_terms

# Every variable, in order, and its coordinate at the hyperplane points of
# the factor base (_vanishes_on): a new variable is one more line here, and
# the monomial layout below follows from this table.
_PT = {
    "h": 5,
    "u": 47,
    "u1": 431,
    "u2": 3967,
    "u3": 36497,
    "u4": 335779,
}
VARS = tuple(_PT)
NVARS = len(VARS)
VAR_INDEX = {name: i for i, name in enumerate(VARS)}

# A monomial is one int (Monagan and Pearce, PASCO 2007): each exponent in a
# field of EXP_BITS bits, in VARS order from the lowest bit, and the total
# degree above them, at DEGREE_SHIFT.  So int order is graded lexicographic
# with later variables dominating, the print order, and multiplying two
# monomials is adding two ints.  No field carries into the next while every
# total degree is at most MAX_DEGREE, which fit checks before any product.
EXP_BITS = 8
EXP_MASK = MAX_DEGREE = (1 << EXP_BITS) - 1
EXP_SHIFT = tuple(range(0, EXP_BITS * NVARS, EXP_BITS))
DEGREE_SHIFT = EXP_BITS * NVARS
# each variable's monomial of degree 1
_UNIT = tuple(1 << s | 1 << DEGREE_SHIFT for s in EXP_SHIFT)


def fit(degree, what):
    """Raise ValueError unless a monomial of total degree `degree` packs
    with no carry: at most MAX_DEGREE."""
    if degree > MAX_DEGREE:
        raise ValueError(f"{what} has total degree {degree}, over {MAX_DEGREE}, the most an exponent field holds")


def packed_poly(terms):
    """The Poly whose terms are the dict terms, {packed monomial: nonzero
    int}, taken as it is."""
    p = object.__new__(Poly)
    p.terms = terms
    return p


def _div_const(p, c):
    """p / c for a nonzero int c; ValueError unless c divides every
    coefficient."""
    if c == 1:
        return packed_poly(dict(p.terms))
    q = {}
    for m, cc in p.terms.items():
        q[m], r = divmod(cc, c)
        if r:
            raise ValueError("not an exact polynomial division")
    return packed_poly(q)


class Poly:
    """Multivariate polynomial over Z: an element of Z[h, u, u1..u4].

    terms maps each packed monomial to its nonzero int coefficient.  The
    constructor takes exponent tuples in VARS order, and it is the one place
    a tuple is packed: a tuple of the wrong length, a negative exponent or a
    total degree over MAX_DEGREE raises ValueError.  Coefficients are
    checked with operator.index, so a non-integer raises TypeError; Q enters
    only as a RatFunc's content.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        t = {}
        if terms:
            for exps, c in terms.items():
                c = index(c)
                exps = tuple(exps)
                if len(exps) != NVARS or min(exps) < 0:
                    raise ValueError(f"{exps} is not a tuple of {NVARS} exponents, each at least 0")
                degree = sum(exps)
                fit(degree, f"the monomial {exps}")
                if c:
                    t[sum(map(lshift, exps, EXP_SHIFT)) | degree << DEGREE_SHIFT] = c
        self.terms = t

    @staticmethod
    def const(c):
        c = index(c)
        return packed_poly({0: c} if c else {})

    @staticmethod
    def var(name, power=1):
        if power < 0:
            raise ValueError(f"negative power {power} of {name}")
        fit(power, f"{name}^{power}")
        return packed_poly({power * _UNIT[VAR_INDEX[name]]: 1})

    def is_zero(self):
        return not self.terms

    def is_const(self):
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def const_value(self):
        if not self.terms:
            return 0
        if len(self.terms) == 1 and 0 in self.terms:
            return self.terms[0]
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
        return packed_poly({m: -c for m, c in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return packed_poly(add_terms(self.terms, other.terms))

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return packed_poly(add_terms(self.terms, other.terms, -1))

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.terms or not other.terms:
            return Poly()
        # the largest monomial of a Poly is of its total degree
        fit((max(self.terms) >> DEGREE_SHIFT) + (max(other.terms) >> DEGREE_SHIFT), "a product")
        return packed_poly(mul_terms(self.terms, other.terms))

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a Poly")
        result, base = Poly.const(1), self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            # squared only while a higher bit is left
            if n:
                base = base * base
        return result

    def scale(self, c):
        c = index(c)
        if not c:
            return Poly()
        return packed_poly({m: cc * c for m, cc in self.terms.items()})

    def leading(self):
        """(packed monomial, coefficient) of the graded-lex leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms)
        return m, self.terms[m]

    def degree(self, name=None):
        """Total degree, or degree in one variable.  Zero poly -> -1."""
        if not self.terms:
            return -1
        if name is None:
            return max(self.terms) >> DEGREE_SHIFT
        s = EXP_SHIFT[VAR_INDEX[name]]
        return max(m >> s & EXP_MASK for m in self.terms)

    def coeff_of(self, name, power):
        """Coefficient of name**power, a Poly in the remaining variables."""
        i = VAR_INDEX[name]
        s, drop = EXP_SHIFT[i], power * _UNIT[i]
        return packed_poly({m - drop: c for m, c in self.terms.items() if m >> s & EXP_MASK == power})

    def subs(self, assignment):
        """Evaluate at a full assignment {var: value}.

        Poly is over Z, so the value has the type of the point: an int at an
        integer point, a rational at a rational one.
        """
        total = 0
        for m, c in self.terms.items():
            for v, s in zip(VARS, EXP_SHIFT):
                x = m >> s & EXP_MASK
                if x:
                    c *= assignment[v] ** x
            total += c
        return total

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"Poly({format_poly(self)})"


def _format_mono(m):
    """The monomial as "u*h^2", or "" for 1."""
    return "*".join(v if x == 1 else f"{v}^{x}" for v, s in zip(VARS, EXP_SHIFT) if (x := m >> s & EXP_MASK))


def format_poly(p):
    return format_terms(p.terms, _format_mono)


# ---------------------------------------------------------------------------
# gcd machinery
#
# A recursive content / primitive-part reduction feeds a univariate
# subresultant pseudo-remainder sequence (Cohen alg. 3.2.11): its
# beta-factors keep every division exact without the multivariate content gcd
# a primitive PRS needs at each step.  No RatFunc operation calls it, since
# every denominator is a product of table forms, cancelled by trial division;
# it stays for the tests, which check the factor base against it, and for
# perfbench/tracer.py, which wraps it by name.


def _to_univariate(p, name):
    """Represent p as {degree: Poly-in-other-vars} in the chosen variable."""
    out = {}
    i = VAR_INDEX[name]
    s, unit = EXP_SHIFT[i], _UNIT[i]
    for m, c in p.terms.items():
        d = m >> s & EXP_MASK
        out.setdefault(d, {})[m - d * unit] = c
    return {d: packed_poly(t) for d, t in out.items()}


def _from_univariate(coeffs, name):
    """The inverse of _to_univariate: each coefficient is free of name and
    nonzero, so its terms take the exponent d of name as they are."""
    unit = _UNIT[VAR_INDEX[name]]
    fit(max(d + coeff.degree() for d, coeff in coeffs.items()), "a remainder")
    return packed_poly({m + d * unit: c for d, coeff in coeffs.items() for m, c in coeff.terms.items()})


def poly_div_exact(f, g):
    """Exact division f/g in Z[h..u4]; raises ValueError if g does not
    divide f there, so u / 2u raises as a remainder does.

    The remainder lives in a dict beside a heap of its negated monomials,
    so the leading one comes first (Monagan & Pearce, PASCO 2007).  Every
    monomial that a step adds to the remainder is smaller than the one it
    cancels, so each key enters the heap once; a key whose coefficient
    cancelled to 0 is skipped when it comes up.  A remainder monomial that
    g's leading monomial does not divide, one exponent short, raises.
    """
    if g.is_zero():
        raise ZeroDivisionError("poly division by zero")
    if f.is_zero():
        return Poly()
    if g.is_const():
        return _div_const(f, g.const_value())
    ge, gc = g.leading()
    tail = [(m, c) for m, c in g.terms.items() if m != ge]
    # the exponent fields of ge that a divisible monomial must reach
    needs = [(s, x) for s in EXP_SHIFT if (x := ge >> s & EXP_MASK)]
    r = dict(f.terms)
    heap = [-m for m in r]
    heapify(heap)
    q = {}
    while heap:
        rm = -heappop(heap)
        rc = r.pop(rm)
        if not rc:
            continue
        qc, rem = divmod(rc, gc)
        if rem or any(rm >> s & EXP_MASK < x for s, x in needs):
            raise ValueError("not an exact polynomial division")
        diff = rm - ge
        q[diff] = qc
        for m, c in tail:
            m += diff
            old = r.get(m)
            if old is None:
                r[m] = -qc * c
                heappush(heap, -m)
            else:
                r[m] = old - qc * c
    return packed_poly(q)


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
    """The largest monomial dividing p: each exponent its least over the
    terms."""
    return sum(min([m >> s & EXP_MASK for m in p.terms]) * unit for s, unit in zip(EXP_SHIFT, _UNIT))


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
    # pull out the common monomial factor first: the largest monomial
    # dividing every term of both
    common = _mono_content(packed_poly(dict.fromkeys([*f.terms, *g.terms], 1)))
    if common:
        f = packed_poly({m - common: c for m, c in f.terms.items()})
        g = packed_poly({m - common: c for m, c in g.terms.items()})
        return _normalize_primitive(packed_poly({common: 1}) * poly_gcd(f, g))
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
# are the variables' points in _PT.  A nonzero value proves that L does not
# divide t; only a zero value leads to poly_div_exact, which decides.
# Exponent maps are dicts {form id: exponent}, never mutated once built, so
# they are shared; they multiply and divide by add_terms.

_FORMS_MAX = 1 << 12
_EXPANDED_MAX = 1 << 10


@lru_cache(maxsize=1 << 14)
def _value(m):
    """The packed monomial m at the point _PT."""
    return prod([x ** (m >> s & EXP_MASK) for s, x in zip(EXP_SHIFT, _PT.values())])


class _Form:
    """A form and its hyperplane point: lead * x_k = root, the rest at _PT."""

    __slots__ = ("poly", "k", "lead", "root")

    def __init__(self, poly):
        top, self.lead = poly.leading()
        # the leading monomial of a linear form is a variable's unit
        self.poly, self.k = poly, _UNIT.index(top)
        self.root = -sum(c * _value(m) for m, c in poly.terms.items() if m != top)


_FORMS = []
_FORM_ID = {}


def _intern(p):
    """Table id of the linear form p.  A full table raises: a denominator
    with a form left out could not be built."""
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
        at, unit = EXP_SHIFT[form.k], _UNIT[form.k]
        for m, c in t.terms.items():
            d = m >> at & EXP_MASK
            img[d] = img.get(d, 0) + c * _value(m - d * unit)
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


def _split(p):
    """The exponent map of p, primitive with a positive leading coefficient:
    its monomial content, every table form dividing it and a linear
    remainder, which joins the table.  A remainder of degree over 1 raises
    ValueError."""
    m = _mono_content(p)
    f = {i: x for i, s in enumerate(EXP_SHIFT) if (x := m >> s & EXP_MASK)}
    if f:
        p = packed_poly({n - m: c for n, c in p.terms.items()})
    d = p.degree()
    if d > 1:
        p, took = _divide_out(p, ((i, d) for i in range(NVARS, len(_FORMS))))
        f, d = add_terms(f, took), p.degree()
    if d > 1:
        raise ValueError(f"denominator factor {p} of degree {d} is not a product of the interned linear forms")
    return add_terms(f, {_intern(p): 1}) if d else f


def _cancel(n, f):
    """Numerator n and exponent map f with their common forms divided out."""
    if f:
        n, took = _divide_out(n, f.items())
        f = add_terms(f, took, -1)
    return n, f


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

    The denominator is kept factored as den = c * prod form^e: a positive
    int c and an exponent map over the form table.  Only the constructor and
    inv() split a new denominator over the table (_split), and one that does
    not split into interned forms and one linear remainder raises
    ValueError.  den, the expanded Poly, is computed on first read and kept.

    Products and sums are Henrici's (Knuth, TAOCP vol. 2, 4.5.1): the
    operands are canonical, hence reduced.  A product trial-divides each
    numerator by the forms of the other denominator and adds the exponents.
    A sum a/b + c/d takes g = gcd(b, d) as the minimum of the exponents,
    t = a (d/g) + c (b/g) from cached expansions, and gcd(t, g) by trial
    division of t.  The results are the canonical data the full gcd of the
    unreduced pair gives.
    """

    __slots__ = ("num", "den", "_c", "_f", "_hash")

    def __init__(self, num, den=None):
        if den is not None and den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        f, c = _NO_FORMS, 1
        if num.terms:
            k = int_gcd(*num.terms.values())
            num, s = _div_const(num, k), 1
            if den is not None:
                s, den = _signed_content(den)
                if not den.is_const():
                    num, f = _cancel(num, _split(den))
            # the two contents fold into the one rational k / s, in lowest
            # terms with a positive denominator
            g = int_gcd(k, s)
            if s < 0:
                g = -g
            num, c = num.scale(k // g), s // g
        self.num, self._c, self._f = num, c, f

    def __getattr__(self, name):
        # den is the only attribute computed on demand
        if name != "den":
            raise AttributeError(name)
        self.den = _times(Poly.const(1), self._c, self._f)
        return self.den

    def __reduce__(self):
        # form ids index this process's table, so the forms travel as Polys
        return _rebuild, (self.num, self._c, tuple((_FORMS[i].poly, e) for i, e in self._f.items()))

    @staticmethod
    def zero():
        return _make(Poly(), 1, _NO_FORMS)

    @staticmethod
    def one():
        return RatFunc.const(1)

    @staticmethod
    def const(c):
        # an int or a Fraction only, as in _coerce: Fraction(0.1) is exact but
        # is not one tenth; both hold their lowest terms
        if not _is_rational(c):
            raise TypeError(f"a RatFunc constant is an int or a Fraction, not {type(c).__name__}")
        return _make(Poly.const(c.numerator), c.denominator, _NO_FORMS)

    @staticmethod
    def var(name, power=1):
        if power >= 0:
            return _make(Poly.var(name, power), 1, _NO_FORMS)
        return _make(Poly.const(1), 1, {VAR_INDEX[name]: -power})

    def is_zero(self):
        return self.num.is_zero()

    def den_factors(self):
        """(c, {form: exponent}) with den = c * prod form^exponent."""
        return self._c, {_FORMS[i].poly: e for i, e in self._f.items()}

    def __bool__(self):
        return not self.num.is_zero()

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            if not _is_rational(other):
                return NotImplemented
            other = RatFunc.const(other)
        # distinct forms are distinct primes: exponents are the factorization
        return self.num == other.num and self._c == other._c and self._f == other._f

    def __hash__(self):
        # the forms enter as Polys, whose hash is not their table id's
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.num, self._c, frozenset((_FORMS[i].poly, e) for i, e in self._f.items())))
            return self._hash

    def __neg__(self):
        return _make(-self.num, self._c, self._f)

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
        fb, fd = self._f, o._f
        g = {i: min(e, fd[i]) for i, e in fb.items() if i in fd}
        cl = int_lcm(self._c, o._c)
        fbg = add_terms(fb, g, -1)
        t = _times(a, cl // self._c, add_terms(fd, g, -1)) + _times(c, cl // o._c, fbg)
        if not t.terms:
            return RatFunc.zero()
        t, g2 = _divide_out(t, ((i, e) for i, e in g.items() if fb[i] == fd[i]))
        return _make(t, cl, add_terms(fbg, add_terms(fd, g2, -1)))

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
        # Henrici: after cross-cancellation n1 n2 and d1 d2 are coprime
        n1, f2 = _cancel(self.num, o._f)
        n2, f1 = _cancel(o.num, self._f)
        return _make(n1 * n2, self._c * o._c, add_terms(f1, f2))

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
        # den / (s p) = ±den / (|s| p)
        return _make(self.den if s > 0 else -self.den, abs(s), _split(p) if not p.is_const() else _NO_FORMS)

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


def _make(num, c, f):
    """The RatFunc num / (c * prod form^e) for an integral num coprime to
    the polynomial part of the denominator: only the content is left."""
    if c != 1:
        k = int_gcd(c, *num.terms.values())
        if k != 1:
            num, c = _div_const(num, k), c // k
    x = RatFunc.__new__(RatFunc)
    x.num, x._c, x._f = num, c, f
    return x


def _rebuild(num, c, forms):
    """The RatFunc of RatFunc.__reduce__: its forms, as (Poly, exponent)
    pairs, are interned in this process's table."""
    return _make(num, c, {_intern(p): e for p, e in forms})


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
    ((m, c),) = den.terms.items()
    if c != 1:
        return True
    return sum(1 for s in EXP_SHIFT if m >> s & EXP_MASK) > 1


# convenient pre-built generators
H = RatFunc.var("h")
U = RatFunc.var("u")
U1 = RatFunc.var("u1")
U2 = RatFunc.var("u2")
U3 = RatFunc.var("u3")
U4 = RatFunc.var("u4")
