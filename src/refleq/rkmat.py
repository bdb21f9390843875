"""Rational R- and K-matrices and the boundary transfer products built from them.

Single sites are copies of C^l with labels 1..l.  Tensor factors get tuple
labels via embed_on_slots, so the two-site matrices below carry pair labels
(s, t) with s the first (major) factor.  embedded_product multiplies matrices
placed on tensor slots; the monodromies and the dressed boundary use it.

Four scenario kinds are supported:

  spInstanton, soInstanton : boundary matrices on the instanton side
  flagPlus, flagMinus      : boundary matrices on the flag side

Every boundary matrix tends to an involutive constant matrix as the
spectral parameter grows; sigma_matrix returns that limit directly.

The builders of single R- and K-matrices and of the chain operators are
memoized per argument tuple (RatFunc hashing and equality are canonical;
r_bullet_sigma_opposite through cross_r, its one caller), so
a process builds each operator once, and every caller shares it, as a
LabeledMatrix is a read-only value.  A one- or two-site builder holds one
object per distinct entry value, and the values that do not depend on l are
built once per spectral argument for every size (_yang_values,
_flag_minus_values; _bullet_values per l).  A chain operator is a product
(LabeledMatrix.__mul__), whose equal entries may be distinct objects, so
constant_term_matrix takes one limit per object.  A flip is a position, not
a matrix: the "21" of an identity (C21, Y21) is the builder's operator
placed on the two slots in the other order, as embed_on_slots places
operators only.  Each operator keeps what the provers read of it
(matrix._kept: its clearing, bounds and symmetry verdicts), so a process
does that work once per operator, and a later proof or another placement of
it, on any positions, finds it done; cache_clear on a builder makes new
operators, which read afresh.
embedded_product multiplies placements, and the product reads each
placement's full-size entries; those placement views are dropped with the
product's other intermediates.
monodromy_t, twisted_monodromy and s_matrix take the sites us as any
sequence and key their cache on it as a tuple.
"""

from __future__ import annotations

import functools
import itertools

from .field import H, RatFunc
from .matrix import LabeledMatrix, embed_on_slots

KINDS = ("spInstanton", "soInstanton", "flagPlus", "flagMinus")


def site_labels(l):
    return tuple(range(1, l + 1))


def pair_labels(l):
    return tuple((s, t) for s in site_labels(l) for t in site_labels(l))


@functools.cache
def _yang_values(u):
    """yang_r's entries u/(u + h) and h/(u + h), shared by every l."""
    denom = u + H
    return u / denom, H / denom


@functools.cache
def yang_r(l, u):
    """(u * Id + h * P) / (u + h) on the two-site space."""
    stay, hop = _yang_values(u)
    one = RatFunc.one()
    entries = {}
    for s in site_labels(l):
        for t in site_labels(l):
            if s == t:
                entries[(s, s), (s, s)] = one
            else:
                entries[(s, t), (s, t)] = stay
                entries[(t, s), (s, t)] = hop
    labels = pair_labels(l)
    return LabeledMatrix(labels, labels, entries)


def _block(labels, block, diag, off):
    """Identity on labels except on span(block): diag on its diagonal and off
    off it."""
    one = RatFunc.one()
    entries = {(x, x): one for x in labels}
    for i in block:
        for j in block:
            entries[i, j] = diag if i == j else off
    return LabeledMatrix(labels, labels, entries)


@functools.cache
def _bullet_values(l, u):
    """1 - c and c for c = h/(u + l*h/2), the block entries of r_bullet_sigma
    and r_bullet_sigma_opposite; c is written 2h/(2u + l*h), in ints."""
    c = H * 2 / (u * 2 + H * l)
    return RatFunc.one() - c, c


@functools.cache
def r_bullet_sigma(l, u):
    """Identity except on span{(i, i)}, where it is Id - h/(u + l*h/2) * J."""
    diag, c = _bullet_values(l, u)
    return _block(pair_labels(l), [(i, i) for i in site_labels(l)], diag, -c)


def r_bullet_sigma_opposite(l, u):
    """r_bullet_sigma with the off-diagonal block entries negated.

    The sign of the block entries is a convention (it tracks which of the
    two halves of each dual weight pair the construction keeps).  The
    boundary matrix k_matrix('spInstanton') has off-diagonal entries
    -h/(2u + l*h/2), so the two-site matrix exchange-compatible with it
    carries the opposite sign on its block.  cross_r takes this variant at
    l = 2 only, where it is unitary; at l >= 3 it is not.  cross_r, its one
    caller in the library, is memoized on the same arguments, so this is
    not.
    """
    diag, c = _bullet_values(l, u)
    return _block(pair_labels(l), [(i, i) for i in site_labels(l)], diag, c)


@functools.cache
def _flag_minus_values(u):
    """h/(2u + h) and 2u/(2u + h), the flagMinus boundary entries, shared by
    every l and both placements."""
    denom = u + u + H
    return H / denom, (u + u) / denom


def _flag_minus_k(l, u, opposite):
    """The flagMinus boundary matrix: h/(2u + h) on the diagonal and
    2u/(2u + h) on the anti-diagonal, or the other way round if opposite,
    with 1 at the centre for odd l."""
    labels = site_labels(l)
    diag, anti = _flag_minus_values(u)
    if opposite:
        diag, anti = anti, diag
    entries = {}
    for i in labels:
        if l + 1 - i == i:
            entries[i, i] = RatFunc.one()
        else:
            entries[i, i] = diag
            entries[l + 1 - i, i] = anti
    return LabeledMatrix(labels, labels, entries)


@functools.cache
def k_matrix(kind, l, u):
    """Single-site boundary matrix for the given scenario kind."""
    if kind in ("soInstanton", "flagPlus"):
        return sigma_matrix(kind, l)
    if kind == "spInstanton":
        diag, c = _bullet_values(l, u + u)
        return _block(site_labels(l), site_labels(l), diag, -c)
    if kind == "flagMinus":
        return _flag_minus_k(l, u, opposite=False)
    raise ValueError(f"unknown kind {kind!r}")


@functools.cache
def k_matrix_opposite_placement(l, u):
    """flagMinus boundary matrix with diagonal and anti-diagonal exchanged.

    Puts the u-dependent entry on the diagonal and the constant-order entry
    on the anti-diagonal, the placement k_matrix('flagMinus') rejects.  Kept
    as a foil: relations.check_reflection must fail with this variant, which
    pins down the placement in k_matrix as the correct one.
    """
    return _flag_minus_k(l, u, opposite=True)


@functools.cache
def sigma_matrix(kind, l):
    """Limit of k_matrix at large spectral parameter: an involutive constant."""
    labels = site_labels(l)
    if kind in ("spInstanton", "soInstanton"):
        return LabeledMatrix.identity(labels)
    if kind in ("flagPlus", "flagMinus"):
        one = RatFunc.one()
        return LabeledMatrix(labels, labels, {(l + 1 - i, i): one for i in labels})
    raise ValueError(f"unknown kind {kind!r}")


@functools.cache
def cross_r(kind, l, u):
    """Two-site R with one twisted factor (acts as R before index flipping).

    spInstanton at l = 2 uses the opposite-sign bullet variant: that is the
    unique sign convention under which the boundary matrix satisfies the
    reflection identity (and it exists only at l = 2, matching the
    polarization dichotomy).  Larger l fall back to the plain convention.
    """
    if kind == "spInstanton":
        if l == 2:
            return r_bullet_sigma_opposite(l, u)
        return r_bullet_sigma(l, u)
    if kind == "soInstanton":
        return r_bullet_sigma(l, u)
    if kind in ("flagPlus", "flagMinus"):
        return yang_r(l, u)
    raise ValueError(f"unknown kind {kind!r}")


@functools.cache
def cross_r_flipped(kind, l, u):
    """The flipped-index variant P * cross_r * P: cross_r placed on positions
    (1, 0) of two sites.  A placement is never placed again, so the checks
    place cross_r on reversed positions of their own slots and do not call
    this; it stays for the benchmark tracer, which wraps it by name."""
    return embed_on_slots(cross_r(kind, l, u), (1, 0), [site_labels(l)] * 2)


def sigma_sigma_r(kind, l, u):
    """Two-site R with both factors twisted; plain Yangian R in every kind."""
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    return yang_r(l, u)


def constant_term_matrix(m):
    """Entrywise limit as u -> infinity.

    The limit of num / den is the ratio of their coefficients of u^deg_u(den),
    which is 0 when num has lower degree in u; an entry whose numerator has
    the higher degree grows and raises ValueError.
    """
    limits, of, entries = {}, {}, {}
    for (i, j), v in m.entries.items():
        # entries that share an object share its limit, computed once
        c0 = of.get(id(v))
        if c0 is None:
            d = v.den.degree("u")
            if v.num.degree("u") > d:
                raise ValueError(f"entry ({i}, {j}) grows as u -> infinity: {v}")
            c0 = RatFunc(v.num.coeff_of("u", d), v.den.coeff_of("u", d))
            c0 = of[id(v)] = limits.setdefault(c0, c0)
        entries[m.row_labels[i], m.col_labels[j]] = c0
    return LabeledMatrix(m.row_labels, m.col_labels, entries)


def _chain_slot_labels(l, n):
    return [site_labels(l)] * (n + 1)


def embedded_product(factors, slots):
    """Ordered product of (matrix, positions) factors on the tensor slots.

    Each matrix is placed on its positions by embed_on_slots; slots holds the
    label sequence of every tensor slot.  The product associates from the
    left, and with no factors it is the identity.
    """
    prod = None
    for mat, positions in factors:
        factor = embed_on_slots(mat, positions, slots)
        prod = factor if prod is None else prod * factor
    if prod is None:
        return LabeledMatrix.identity([tuple(t) for t in itertools.product(*slots)])
    return prod


def chain_factors(pair, aux, sites):
    """The factors pair(n) ... pair(1) of auxiliary-to-site couplings.

    pair(k) is the two-site matrix coupling slot aux to chain site k, which
    sits on slot sites[k - 1]; the site-n factor comes first.
    """
    return [(pair(k), (aux, sites[k - 1])) for k in range(len(sites), 0, -1)]


def _monodromy(l, n, pair):
    """pair(n) ... pair(1) on slots (aux, 1..n), pair(k) coupling aux to site k."""
    return embedded_product(chain_factors(pair, 0, range(1, n + 1)), _chain_slot_labels(l, n))


def monodromy_t(l, u, us):
    """T(u) = R_{0,n}(u - u_n) ... R_{0,1}(u - u_1) on slots (aux, 1..n)."""
    return _monodromy_t(l, u, tuple(us))


@functools.cache
def _monodromy_t(l, u, us):
    return _monodromy(l, len(us), lambda k: yang_r(l, u - us[k - 1]))


def twisted_monodromy(l, u, us, kind):
    """T_twist(-u) = R'_{0,n}(-u - u_n) ... R'_{0,1}(-u - u_1), R' = cross_r."""
    return _twisted_monodromy(l, u, tuple(us), kind)


@functools.cache
def _twisted_monodromy(l, u, us, kind):
    return _monodromy(l, len(us), lambda k: cross_r(kind, l, -u - us[k - 1]))


def s_matrix(kind, l, u, us):
    """Boundary transfer product in factored form.

    Left factors are the flipped twisted R at u + u_k for k = 1..n (k = 1
    leftmost), cross_r on slots (k, 0), then the boundary matrix at u on the
    auxiliary slot, then the monodromy T(u) of monodromy_t.
    """
    return _s_matrix(kind, l, u, tuple(us))


@functools.cache
def _s_matrix(kind, l, u, us):
    cross = [(cross_r(kind, l, u + w), (k, 0)) for k, w in enumerate(us, 1)]
    factors = cross + [(k_matrix(kind, l, u), (0,))]
    return embedded_product(factors, _chain_slot_labels(l, len(us))) * monodromy_t(l, u, us)


def s_matrix_via_transfer(kind, l, u, us):
    """Same boundary transfer, computed as Ttwist(-u)^-1 K(u) T(u).

    No check calls this: relations.check_boundary_factorization proves the
    inverse-free identity Ttwist(-u) S(u) = K(u) T(u) instead.  It stays
    only as the tests' second route to s_matrix and as a target of the
    benchmark tracer, until the tracer stops wrapping it (ROADMAP.md, the
    benchmark item).
    """
    k0 = embed_on_slots(k_matrix(kind, l, u), (0,), _chain_slot_labels(l, len(us)))
    return twisted_monodromy(l, u, us, kind).inverse() * k0 * monodromy_t(l, u, us)
