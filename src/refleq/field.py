"""Exact rational functions in h, u, u1, u2, u3, u4 over Q.

Polynomials are dicts mapping exponent tuples to coefficients.  A coefficient
is a plain int whenever it is integral and a Fraction only when a caller passed
in a non-integral value (parse_poly("3/2*h"), Poly.scale(Fraction(3, 7))), so
the canonical forms below, which are integral, do int arithmetic only.  Exact
division of coefficients goes through one helper that divides two ints with
divmod and falls back to Fraction only for a non-integral quotient; nothing
here ever produces a float.  The variable order is fixed once and for all:

    VARS = (h, u, u1, u2, u3, u4)

Monomial comparison is graded lexicographic with later variables dominating,
so the monomial u1 beats h and `2*u1 + 2*h` is the canonical print order for
descending terms.

Canonical RatFunc form: num/den reduced by their gcd, then scaled by a single
rational so all coefficients are ints with joint content 1 and the leading
coefficient of den is positive.  Equality is plain data equality on that form.

Only the constructor takes the gcd of a whole num/den pair.  Products and sums
use Henrici's algorithms (Knuth, TAOCP vol. 2, 4.5.1), which rely on the
operands being canonical and therefore reduced: a product cancels gcd(n1, d2)
and gcd(n2, d1) and is then reduced as it stands, and a sum a/b + c/d with
g = gcd(b, d) and t = a (d/g) + c (b/g) needs only g2 = gcd(t, g) to reach
(t/g2) / ((b/g) (d/g2)); an inverse swaps a pair that is coprime already.
poly_gcd keeps one cache level, keyed by the operand pair itself and looked up
before any normalization, and exact division keeps its remainder ordered in a
heap instead of rescanning it for the leading term.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd as int_gcd
from math import lcm as int_lcm
from operator import add, neg, sub

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


def _coef(c):
    """A coefficient as an int when it is integral, as a Fraction otherwise."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _div(a, b):
    """Exact quotient a / b of two coefficients, normalized like _coef.

    Two ints divide by divmod; only a non-integral quotient (or a Fraction
    operand) goes through Fraction.  Never a float.
    """
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return _coef(Fraction(a, b))


def _div_const(p, c):
    """p / c for a nonzero constant c, coefficient by coefficient."""
    q = Poly()
    if c == 1:
        q.terms = dict(p.terms)
    else:
        q.terms = {e: _div(cc, c) for e, cc in p.terms.items()}
    return q


class Poly:
    """Multivariate polynomial with rational coefficients.

    A coefficient is an int when integral and a Fraction otherwise.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        t = {}
        if terms:
            for exps, c in terms.items():
                c = _coef(c)
                if c:
                    t[tuple(exps)] = c
        self.terms = t

    @staticmethod
    def const(c):
        c = _coef(c)
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
                t[e] = s if type(s) is int else _coef(s)
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
                    t[e] = s if type(s) is int else _coef(s)
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
        c = _coef(c)
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

    def variables(self):
        used = set()
        for e in self.terms:
            for i, x in enumerate(e):
                if x:
                    used.add(VARS[i])
        return used

    def shift(self, name, power):
        """Multiply by name**power, power >= 0."""
        if not power:
            return self
        i = VAR_INDEX[name]
        t = {}
        for e, c in self.terms.items():
            e2 = list(e)
            e2[i] += power
            t[tuple(e2)] = c
        p = Poly()
        p.terms = t
        return p

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
        """Evaluate at a full assignment {var: Fraction} -> Fraction."""
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for i, x in enumerate(e):
                if x:
                    v *= Fraction(assignment[VARS[i]]) ** x
            total += v
        return total

    def content_and_integers(self):
        """Return (r, P) with self = r * P, P integer coefficients, content 1.

        The sign convention here is r > 0: P keeps the sign of self.  r is
        an int when integral.  Zero poly -> (1, zero).
        """
        if not self.terms:
            return 1, Poly()
        denom = int_lcm(*(c.denominator for c in self.terms.values()))
        numer = int_gcd(*(abs(c.numerator) for c in self.terms.values()))
        r = _div(numer, denom)
        return r, _div_const(self, r)

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"Poly({format_poly(self)})"


def _format_mono(exps, star_prefix):
    parts = []
    for i, x in enumerate(exps):
        if x == 0:
            continue
        if x == 1:
            parts.append(VARS[i])
        else:
            parts.append(f"{VARS[i]}^{x}")
    if not parts:
        return ""
    s = "*".join(parts)
    return ("*" + s) if star_prefix else s


def _format_coeff(c):
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def format_poly(p):
    if not p.terms:
        return "0"
    items = sorted(p.terms.items(), key=lambda kv: _mono_key(kv[0]), reverse=True)
    out = []
    for n, (e, c) in enumerate(items):
        neg = c < 0
        mag = -c if neg else c
        mono = _format_mono(e, star_prefix=(mag != 1))
        if mag == 1 and mono:
            body = mono.lstrip("*") if mono.startswith("*") else mono
        elif mono:
            body = _format_coeff(mag) + mono
        else:
            body = _format_coeff(mag)
        if n == 0:
            out.append(("-" if neg else "") + body)
        else:
            out.append((" - " if neg else " + ") + body)
    return "".join(out)


# ---------------------------------------------------------------------------
# gcd machinery
#
# Two algorithms stay.  GCDHEU (Char, Geddes & Gonnet 1989) answers almost
# every call: it evaluates at a large integer, reconstructs a candidate and
# proves it by trial division.  When it gives up, a recursive content /
# primitive-part reduction feeds a univariate subresultant pseudo-remainder
# sequence (Cohen alg. 3.2.11); primitive PRS would recompute a multivariate
# content gcd at every step, the subresultant beta-factors keep all divisions
# exact without that.  The PRS alone is correct but far slower on the dense
# denominators of the chain reflection checks, so it stays the fallback
# until a denominator factor base keeps those gcds small.


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
    p = Poly()
    for d, c in coeffs.items():
        p = p + c.shift(name, d)
    return p


def poly_div_exact(f, g):
    """Exact division f/g; raises ValueError if g does not divide f.

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
        if min(diff) < 0:
            raise ValueError("not an exact polynomial division")
        qc = q[diff] = _div(rc, gc)
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


def _normalize_primitive(p):
    """Scale to integer coefficients, content 1, positive leading coeff."""
    if p.is_zero():
        return p
    _, q = p.content_and_integers()
    _, lc = q.leading()
    if lc < 0:
        q = -q
    return q


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


_GCD_CACHE = {}
_GCD_CACHE_MAX = 1 << 15


def _cache_gcd(key, result):
    if len(_GCD_CACHE) >= _GCD_CACHE_MAX:
        _GCD_CACHE.clear()
    _GCD_CACHE[key] = result


def poly_gcd(f, g):
    """gcd over Q[h..u4], normalized to integer content 1, positive lead.

    _GCD_CACHE is keyed by the operand pair (f, g) itself: a Poly hashes
    once and compares by its terms, so the lookup comes before any
    normalization and builds nothing.  Cached results and keys are shared
    objects: no caller may mutate a Poly passed in or handed back.
    """
    if f.is_zero():
        return _normalize_primitive(g)
    if g.is_zero():
        return _normalize_primitive(f)
    if f.is_const() or g.is_const():
        return Poly.const(1)
    result = _GCD_CACHE.get((f, g))
    if result is None:
        result = _gcd_nonconstant(f, g)
        _cache_gcd((f, g), result)
    return result


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
    fv = f.variables()
    gv = g.variables()
    both = fv & gv
    if not both:
        return Poly.const(1)
    # cheap wins: equal up to scale, or one divides the other
    fn = _normalize_primitive(f)
    gn = _normalize_primitive(g)
    if fn == gn:
        return fn
    if f.degree() >= g.degree() and _try_div(fn, gn) is not None:
        return gn
    if g.degree() > f.degree() and _try_div(gn, fn) is not None:
        return fn
    result = _gcd_heuristic(fn, gn)
    if result is None:
        name = sorted(both, key=lambda n: VAR_INDEX[n])[-1]
        cf = _content_wrt(f, name)
        cg = _content_wrt(g, name)
        a = poly_div_exact(f, cf) if not cf.is_const() else f
        b = poly_div_exact(g, cg) if not cg.is_const() else g
        c = poly_gcd(cf, cg)
        h = _subresultant_gcd(a, b, name)
        result = _normalize_primitive(h * c)
    return result


def _eval_var_int(p, name, xi):
    """Evaluate one variable at an integer; coefficients stay exact."""
    i = VAR_INDEX[name]
    out = {}
    for e, c in p.terms.items():
        e2 = list(e)
        d = e2[i]
        e2[i] = 0
        key = tuple(e2)
        out[key] = out.get(key, 0) + c * xi ** d
    q = Poly()
    q.terms = {e: c for e, c in out.items() if c}
    return q


def _mods(c, xi):
    r = c % xi
    if r > xi // 2:
        r -= xi
    return r


def _gcd_heuristic(f, g, depth=0):
    """GCDHEU: evaluate at a big integer, reconstruct digits, verify by
    trial division.  Inputs integer-primitive; returns None if unlucky."""
    fvars = sorted(f.variables() & g.variables(), key=lambda n: VAR_INDEX[n])
    if not fvars:
        return Poly.const(1)
    name = fvars[-1]
    max_f = max(abs(c) for c in f.terms.values())
    max_g = max(abs(c) for c in g.terms.values())
    xi = 2 * min(max_f, max_g) + 29
    for _ in range(6):
        fe = _eval_var_int(f, name, xi)
        ge = _eval_var_int(g, name, xi)
        if fe.is_zero() or ge.is_zero():
            xi = xi * 4019 + 3
            continue
        if fe.is_const() and ge.is_const():
            gamma = Poly.const(int_gcd(fe.const_value(), ge.const_value()))
        else:
            fe_c, fe_i = fe.content_and_integers()
            ge_c, ge_i = ge.content_and_integers()
            sub = _gcd_heuristic(fe_i, ge_i, depth + 1) if depth < 8 else None
            if sub is None:
                xi = xi * 4019 + 3
                continue
            gamma = sub.scale(int_gcd(fe_c, ge_c))
        # digit reconstruction of the candidate in `name`
        cand = Poly()
        power = 0
        while not gamma.is_zero():
            digits = {e: _mods(c, xi) for e, c in gamma.terms.items()}
            cand = cand + Poly(digits).shift(name, power)
            gamma = Poly({e: _div(c - digits[e], xi) for e, c in gamma.terms.items()})
            power += 1
            if power > 64:
                break
        if not cand.is_zero():
            cand = _normalize_primitive(cand)
            if _try_div(f, cand) is not None and _try_div(g, cand) is not None:
                return cand
        xi = xi * 4019 + 3
    return None


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


class RatFunc:
    """Reduced rational function num/den in canonical form.

    The constructor reduces num/den by their gcd.  +, -, * and inv skip that
    gcd (Henrici): their operands are canonical, hence reduced, so the cross
    cancellations of a product, gcd(t, g) of a sum and the swap of an inverse
    leave a coprime pair that only needs scaling.  The results are the same canonical data the
    constructor would give for the unreduced pair.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num = Poly.const(num)
        if den is None:
            den = Poly.const(1)
        elif isinstance(den, (int, Fraction)):
            den = Poly.const(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.terms:
            g = poly_gcd(num, den)
            if not g.is_const():
                num = poly_div_exact(num, g)
                den = poly_div_exact(den, g)
        self.num, self.den = _scale_coprime(num, den)

    @staticmethod
    def zero():
        return RatFunc(Poly())

    @staticmethod
    def one():
        return RatFunc(Poly.const(1))

    @staticmethod
    def const(c):
        return RatFunc(Poly.const(c))

    @staticmethod
    def var(name, power=1):
        if power >= 0:
            return RatFunc(Poly.var(name, power))
        return RatFunc(Poly.const(1), Poly.var(name, -power))

    def is_zero(self):
        return self.num.is_zero()

    def is_const(self):
        return self.num.is_const() and self.den.is_const()

    def const_value(self):
        """The exact value of a constant RatFunc, always a Fraction."""
        return Fraction(self.num.const_value(), self.den.const_value())

    def __bool__(self):
        return not self.num.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc.const(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.num, self.den))
            return self._hash

    def __neg__(self):
        r = RatFunc.__new__(RatFunc)
        r.num = -self.num
        r.den = self.den
        return r

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return RatFunc.const(other)
        if isinstance(other, Poly):
            return RatFunc(other)
        if isinstance(other, RatFunc):
            return other
        return None

    def _add_signed(self, o, sign):
        # Henrici: with g = gcd(b, d) and t = a (d/g) + c (b/g), only g can
        # share a factor with t, so a/b + c/d = (t/g2) / ((b/g) (d/g2)) for
        # g2 = gcd(t, g), and that pair is coprime
        b, d = self.den, o.den
        c = o.num if sign > 0 else -o.num
        g = poly_gcd(b, d)
        if g.is_const():
            return _coprime(self.num * d + c * b, b * d)
        bg = poly_div_exact(b, g)
        t = self.num * poly_div_exact(d, g) + c * bg
        g2 = poly_gcd(t, g)
        if g2.is_const():
            return _coprime(t, bg * d)
        return _coprime(poly_div_exact(t, g2), bg * poly_div_exact(d, g2))

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
        # cross-cancel before multiplying out
        g1 = poly_gcd(self.num, o.den)
        g2 = poly_gcd(o.num, self.den)
        n1 = self.num if g1.is_const() else poly_div_exact(self.num, g1)
        d2 = o.den if g1.is_const() else poly_div_exact(o.den, g1)
        n2 = o.num if g2.is_const() else poly_div_exact(o.num, g2)
        d1 = self.den if g2.is_const() else poly_div_exact(self.den, g2)
        # Henrici: both operands are reduced, so n1 n2 and d1 d2 are coprime
        return _coprime(n1 * n2, d1 * d2)

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
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return _coprime(self.den, self.num)

    def variables(self):
        return self.num.variables() | self.den.variables()

    def eval(self, assignment):
        """Evaluate at {var: Fraction}; raises on a pole of the REDUCED form."""
        d = self.den.subs(assignment)
        if d == 0:
            raise ZeroDivisionError(
                f"pole of rational function at {assignment}"
            )
        return self.num.subs(assignment) / d

    def __str__(self):
        return format_ratfunc(self)

    def __repr__(self):
        return f"RatFunc({format_ratfunc(self)})"


def _scale_coprime(num, den):
    """Scale coprime polynomials num, den by one rational to canonical form.

    The pair becomes integral with joint content 1 and a positive leading den
    coefficient; a zero num gets den 1.
    """
    if not num.terms:
        return Poly(), Poly.const(1)
    coeffs = (*num.terms.values(), *den.terms.values())
    joint = _div(
        int_gcd(*(c.numerator for c in coeffs)),
        int_lcm(*(c.denominator for c in coeffs)),
    )
    if den.leading()[1] < 0:
        joint = -joint
    return _div_const(num, joint), _div_const(den, joint)


def _coprime(num, den):
    """The RatFunc num/den of two coprime polynomials, built without a gcd."""
    r = RatFunc.__new__(RatFunc)
    r.num, r.den = _scale_coprime(num, den)
    return r


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


# ---------------------------------------------------------------------------
# parsing (exact inverse of format_ratfunc / format_poly)


class _ParseError(ValueError):
    pass


def parse_ratfunc(s):
    """Parse the canonical string form back into a RatFunc."""
    s = s.strip()
    depth = 0
    split = None
    i = 0
    while i < len(s):
        ch = s[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and s.startswith(" / ", i):
            split = i
            break
        i += 1
    if split is None:
        return RatFunc(parse_poly(s))
    return RatFunc(parse_poly(s[:split]), parse_poly(s[split + 3:]))


def parse_poly(s):
    """Parse a polynomial string (terms joined by ' + ' / ' - ')."""
    s = s.strip()
    if s.startswith("(") and s.endswith(")") and _balanced_interior(s):
        s = s[1:-1].strip()
    if not s:
        raise _ParseError("empty polynomial string")
    out = Poly()
    for sign, term in _split_terms(s):
        out = out + _parse_term(term).scale(sign)
    return out


def _balanced_interior(s):
    depth = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0 and i != len(s) - 1:
                return False
    return depth == 0


def _split_terms(s):
    terms = []
    sign = 1
    if s.startswith("-"):
        sign = -1
        s = s[1:]
    cur = []
    i = 0
    while i < len(s):
        if s.startswith(" + ", i):
            terms.append((sign, "".join(cur)))
            sign, cur, i = 1, [], i + 3
        elif s.startswith(" - ", i):
            terms.append((sign, "".join(cur)))
            sign, cur, i = -1, [], i + 3
        else:
            cur.append(s[i])
            i += 1
    terms.append((sign, "".join(cur)))
    return terms


def _parse_term(t):
    t = t.strip()
    if not t:
        raise _ParseError("empty term")
    coeff = 1
    exps = [0] * NVARS
    for factor in t.split("*"):
        factor = factor.strip()
        if not factor:
            raise _ParseError(f"bad term {t!r}")
        if factor[0].isdigit() or factor[0] == "-" or "/" in factor and factor[0] not in VAR_INDEX:
            coeff *= _coef(factor)
            continue
        if "^" in factor:
            name, _, p = factor.partition("^")
            power = int(p)
        else:
            name, power = factor, 1
        if name not in VAR_INDEX:
            raise _ParseError(f"unknown variable {name!r}")
        exps[VAR_INDEX[name]] += power
    return Poly({tuple(exps): coeff})


# ---------------------------------------------------------------------------
# expansion at infinity


def expand_at_infinity(f, name, order):
    """Coefficients of the expansion of f in powers of 1/name at infinity.

    Requires deg_name(num) <= deg_name(den); returns a list of RatFuncs
    [c_0, c_1, ..., c_order] in the remaining variables with
    f = sum c_r * name**(-r) + O(name**-(order+1)).
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    num, den = f.num, f.den
    dn = num.degree(name)
    dd = den.degree(name)
    if dn > dd:
        raise ValueError(
            f"expansion at infinity needs deg({name}) of num <= den, got {dn} > {dd}"
        )
    d = dd
    N = [RatFunc(num.coeff_of(name, d - r)) for r in range(order + 1)]
    D = [RatFunc(den.coeff_of(name, d - r)) for r in range(order + 1)]
    coeffs = []
    for r in range(order + 1):
        acc = N[r]
        for s in range(r):
            acc = acc - coeffs[s] * D[r - s]
        coeffs.append(acc / D[0])
    return coeffs


# convenient pre-built generators
H = RatFunc.var("h")
U = RatFunc.var("u")
U1 = RatFunc.var("u1")
U2 = RatFunc.var("u2")
U3 = RatFunc.var("u3")
U4 = RatFunc.var("u4")
