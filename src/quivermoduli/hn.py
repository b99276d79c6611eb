"""Harder-Narasimhan machinery: semistable loci, strata, stack masses and
Poincare polynomials of moduli spaces of stable representations.

The closed semistable mass is one resolved sum (Reineke's resolution of the
HN recursion) over the ordered decompositions g = e^1 + ... + e^s into
nonzero parts whose proper suffix sums e^k + ... + e^s (k >= 2) all have
slope above mu:

    R(g; mu) = sum (-1)^(s-1) prod_k w(e^k) q^(-<e^k, e^(k+1) + ... + e^s>)

with the weight w(e) = |R_e| / |G_e|, whose numerator is a power of q.
mass_ss_closed(d) is R(d; mu(d)), and for theta(d) coprime to dim d the
Poincare polynomial of the moduli space, in q = v^2, is

    P(q) = (q - 1) mass_ss_closed(d).

(A sum with the weights prod_i 1/[e_i]_{v^2}! and twists 2 a(e, g), where
a(x, y) = sum over arrows i -> j of x_i y_j, gives the same P: its weights
differ from these by the global factor (q - 1)^(dim d) q^(sum_i C(d_i, 2)),
since C(a + b, 2) = C(a, 2) + C(b, 2) + ab telescopes the exponents.)

mass_ss runs the HN recursion itself, so the two semistable masses are
computed independently and check each other.  Every representation has
exactly one HN type, so with T(f; b) the mass of the representations of
dimension f whose HN slopes all lie below b, and
X(e, f) = mass_ss(e) T(f - e; mu(e)) q^(-<f - e, e>) the term of the types
whose first part is e,

    T(f; b)    = mass(f) - sum over e < f with mu(e) >= b of X(e, f),
    mass_ss(f) = mass(f) - sum over e < f with mu(e) > mu(f) of X(e, f).

Both are read off one pass per f over its parts by descending slope, which
computes each X(e, f) once (see the comment above the HN recursion).
T(f; b) changes only where b passes the slope of a part of f, so the pass
unpacks each distinct value of T(f; .) once and every bound that reads it
shares the record.  Each record keeps its own packed forms, so within one
query it is packed once per digit width.

The semistable locus of d is nonempty iff no generic subrepresentation
dimension e of d has mu(e) > mu(d) (King, Quart. J. Math. 45, 1994;
Schofield, Proc. LMS 65, 1992).  The e are read off the table of
``generic`` in the context of the quiver, which every stability shares, at
a cost of prod_i (d_i + 1)(d_i + 2) / 2 pairs of vectors.  The HN types of
d are the tuples of parts with nonempty semistable loci and strictly
decreasing slopes that sum to d.

Below the public functions, everything runs on integer tuples in vertex
order.  Each public call checks its inputs and then builds one query for
its d, which lives as long as the call: the slope rank of each e <= d (a
smaller rank is a steeper slope, so every comparison of slopes is one of
integer ranks), for each h <= d the set of ranks below h, and the memo of
the call's recursions.  Only the theta-free context of the quiver, in the
one store that ``hn`` shares with ``generic``, outlives the call.  Each
quantity of a dimension vector g in either sum is kept as an integer
numerator over one fixed denominator,

    D(g) = prod_i prod_{k <= g_i} (x^k - 1) = |G_g| / q^(sum_i C(g_i, 2)),

which every term of the sums for g divides (Reineke, Invent. Math. 152,
2003, weighs each representation by 1 / |G_g|).  A sum for g is then a
convolution with the Gaussian binomials B(g, e) = D(g) / (D(e) D(g - e)):
its terms are packed into big integers at one digit width, proven from a
bound, added and unpacked once (see ``laurent``).  Only a final result
becomes a CycloFrac over D(d), reduced by exact division through whole
binomials x^k - 1 first and through cyclotomic polynomials only where a
binomial fails; the cyclotomics left over make the denominator in one
sieve (``laurent._cyclotomic_product``).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from operator import itemgetter, mul

from .errors import BudgetExceeded, CoprimalityError, InputError
from .generic import _subreps
from .laurent import (LaurentPoly, RationalFunc, _cyclotomic_product, _digit_bits,
                      _divexact, _gaussian_binomial, _lift_sum, _max_abs, _pack,
                      _trimmed, _unpack, cyclotomic)
from .quiver import (VECTOR_BUDGET, DimVector, Quiver, Stability, _below, _context,
                     _memoized, _minus, clear_caches)

__all__ = [
    "CycloFrac",
    "HNType",
    "mass",
    "ss_nonempty",
    "hn_types",
    "mass_ss",
    "mass_ss_closed",
    "poincare",
    "betti_via_mass",
    "betti_coefficients",
    "clear_caches",
]


# ---------------------------------------------------------------------------
# factored rational arithmetic

_set = object.__setattr__


class CycloFrac:
    """x^lo (co[0] + co[1] x + ...) / prod_k (x^k - 1)^{m_k}: a dense
    numerator, a coefficient tuple ``co`` with nonzero ends (empty for 0),
    over a dict ``den`` of factors; no cancellation until :meth:`reduce`.

    The recursions below keep numerators over the fixed denominator D(g) of
    each dimension vector and build a CycloFrac only around a result, to
    reduce it."""

    __slots__ = ("lo", "co", "den")

    def __init__(self, num, den=None):
        if isinstance(num, int):
            num = LaurentPoly({0: num})
        clean = {}
        for e, m in (den or {}).items():
            if e < 1 or m < 0:
                raise InputError("denominator factors need e >= 1, m >= 0")
            if m:
                clean[e] = m
        _set(self, "lo", num.lo)
        _set(self, "co", num.co)
        _set(self, "den", clean)

    @classmethod
    def _of(cls, lo, co, den):
        """A CycloFrac around trusted parts."""
        out = object.__new__(cls)
        _set(out, "lo", lo)
        _set(out, "co", co)
        _set(out, "den", den)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("CycloFrac is immutable")

    @property
    def num(self):
        """The numerator as a LaurentPoly."""
        return LaurentPoly._of(self.lo, self.co)

    def is_zero(self):
        return not self.co

    # caller: the benchmark's tracer (bench/tracing.py METHODS), not a command
    def __add__(self, other):
        """The sum over the least common denominator; both numerators are
        lifted to it and added as packed integers."""
        if not other.co:
            return self
        if not self.co:
            return other
        den = dict(self.den)
        for e, m in other.den.items():
            if m > den.get(e, 0):
                den[e] = m
        lo, co = _lift_sum(
            [(t.lo, t.co, {e: m - t.den.get(e, 0) for e, m in den.items()
                           if m != t.den.get(e, 0)})
             for t in (self, other)])
        return CycloFrac._of(lo, co, den)

    def reduce(self) -> RationalFunc:
        """Cancel and return the canonical rational function.

        Exact division first strips whole factors x^e - 1 while they divide
        the numerator, each a division with a one-term tail.  Each factor
        that fails splits into cyclotomics, and trial division strips every
        shared cyclotomic that is left.  Either way each cyclotomic is taken
        out min(multiplicity, valuation) times, and a Betti polynomial needs
        no cyclotomic at all.  The cyclotomics left over make the
        denominator in one sieve (``laurent._cyclotomic_product``): a lift by
        binomials and at most one exact division, all on integer tuples.
        The gcd of what is left is 1: each cyclotomic left in the
        denominator is irreducible and failed trial division (over Z, which
        for a monic divisor is the same as over Q), and the denominator, a
        product of monic factors with nonzero constant term, is already in
        canonical form.  So the result is canonical by construction, and no
        gcd is ever taken.
        """
        if self.is_zero():
            return RationalFunc.zero()
        co = self.co
        cyc = {}
        for e, m in sorted(self.den.items(), reverse=True):
            binomial = (-1,) + (0,) * (e - 1) + (1,)
            while m:
                q = _divexact(co, binomial)
                if q is None:
                    break
                co = q
                m -= 1
            if m:
                for n in range(1, e + 1):
                    if e % n == 0:
                        cyc[n] = cyc.get(n, 0) + m
        for n in sorted(cyc):
            divisor = cyclotomic(n).co
            while cyc[n]:
                q = _divexact(co, divisor)
                if q is None:
                    break
                co = q
                cyc[n] -= 1
        den = LaurentPoly._of(0, _cyclotomic_product(cyc))
        return RationalFunc(LaurentPoly._of(self.lo, co), den, _canonical=True)


# ---------------------------------------------------------------------------
# helpers on integer tuples

def _splits(g):
    """The pairs (e, g - e) for the nonzero tuples e <= g, lexicographically
    in e: g - e runs through descending ranges in lockstep."""
    below = _below(g)  # refuses before any range is built
    rests = product(*(range(n, -1, -1) for n in g))
    next(rests)
    return zip(below, rests)


def _query(quiver, theta, d, zero_message, coprime=False):
    """The query of one public call on d, once d names only vertices of the
    quiver and is nonzero, theta names only vertices of the quiver and, if
    ``coprime``, theta(d) is coprime to dim d, so that semistable = stable
    and the moduli space is smooth projective."""
    t = quiver.tup(d)
    if not any(t):
        raise InputError(zero_message)
    key = theta.key(quiver)
    if coprime:
        value, size = sum(map(mul, key, t)), sum(t)
        if math.gcd(value, size) != 1:
            raise CoprimalityError(
                f"theta(d) = {value} and dim d = {size} are not coprime")
    return _Query(_context(quiver), key, t)


# ---------------------------------------------------------------------------
# per-part weights

def _weight_exp(ctx, e):
    """The exponent of the numerator of w(e) = |R_e| / |G_e| over D(e)."""
    return ctx.arrow_pairing(e, e) - sum(n * (n - 1) // 2 for n in e)


def _den(g):
    """D(g) = |G_g| / q^(sum_i C(g_i, 2)) as a dict of factors
    {k: multiplicity of x^k - 1}."""
    return Counter(k for n in g for k in range(1, n + 1))


def mass(quiver: Quiver, d: DimVector) -> RationalFunc:
    """Stack mass |R_d|/|G_d| of all representations of dimension d, in q."""
    t = quiver.tup(d)
    # the denominator has dim d factors and the canonical one, a product of
    # cyclotomics, has degree sum_i d_i (d_i + 1) / 2; refuse before
    # building either
    required = sum(t)
    if required > VECTOR_BUDGET:
        raise BudgetExceeded(
            f"the mass of {list(t)} has {required} denominator factors",
            required=required, budget=VECTOR_BUDGET)
    required = sum(n * (n + 1) // 2 for n in t)
    if required > VECTOR_BUDGET:
        raise BudgetExceeded(
            f"the mass of {list(t)} has a denominator of degree {required}",
            required=required, budget=VECTOR_BUDGET)
    return CycloFrac._of(_weight_exp(_context(quiver), t), (1,), _den(t)).reduce()


# ---------------------------------------------------------------------------
# semistable nonemptiness and HN types

def _hn_types(query, d):
    """The HN types of d: tuples of ss-nonempty parts with strictly
    decreasing slopes, that is strictly increasing ranks."""
    rank = query.rank

    def dfs(rest, parts, floor):
        if not any(rest):
            yield parts
            return
        for p in _below(rest):
            r = rank[p]
            if r > floor and _ss_nonempty(query, p):
                yield from dfs(_minus(rest, p), parts + (p,), r)

    return dfs(d, (), -1)


@_memoized
def _ss_nonempty(query, d):
    """King's criterion on the generic subrepresentations of d."""
    rank = query.rank
    r = rank[d]
    return not any(rank[e] < r for e in _subreps(query.ctx, d))


def ss_nonempty(quiver: Quiver, theta: Stability, d: DimVector) -> bool:
    """True iff the semistable locus of dimension d is nonempty."""
    query = _query(quiver, theta, d, "the zero vector has no semistable locus")
    return _ss_nonempty(query, query.top)


@dataclass(frozen=True)
class HNType:
    parts: tuple  # nonzero DimVectors with strictly decreasing slopes
    codim: int

    def to_json(self):
        return {"parts": [p.to_json() for p in self.parts], "codim": self.codim}


def hn_types(quiver: Quiver, theta: Stability, d: DimVector):
    """All Harder-Narasimhan types of dimension d with their codimensions."""
    query = _query(quiver, theta, d, "the zero vector has no HN types")
    euler = query.ctx.euler
    out = []
    for parts in _hn_types(query, query.top):
        codim = -sum(euler(a, b)
                     for k, a in enumerate(parts) for b in parts[k + 1:])
        if codim < 0:
            raise AssertionError("HN stratum with negative codimension")
        out.append(HNType(tuple(map(quiver.vec, parts)), codim))
    return out


# ---------------------------------------------------------------------------
# numerators over the fixed denominator of each dimension vector

# Every term of either sum for g below has a denominator that divides
#   D(g) = prod_i prod_{k <= g_i} (x^k - 1),
# so each quantity of g is kept as its numerator over D(g): a record
# (lo, co, height, length, packs) of a low exponent, a coefficient tuple
# with nonzero ends (empty for zero), max |co| and sum |co| (both 0 for
# zero), and the dict of its packed forms that ``_lifted`` fills (None for
# zero, which is never packed).
# A product of quantities of e and g - e is over D(e) D(g - e), and
#   D(g) / (D(e) D(g - e)) = B(g, e) = prod_i [g_i choose e_i]_x,
# so a sum for g is a convolution with Gaussian binomials.

_ZERO = (0, (), 0, 0, None)


@_memoized
def _packed_binomial(query, n, m, width):
    """[n choose m]_x packed at ``width`` bits a digit, for m <= n - m."""
    return _pack(_gaussian_binomial(n, m), width)


def _lifted(query, p, n, m, width):
    """[n choose m]_x P packed at ``width`` bits a digit, for the nonzero
    record P, which keeps the value under (n, min(m, n - m), width): P is
    packed once per width, and lifted once per width and binomial, as it
    recurs in the sums of every g with the same last entry n;
    [n choose 0]_x = [n choose n]_x = 1 lifts nothing."""
    m = min(m, n - m)
    if m <= 0:
        n = m = 0
    packs = p[4]
    value = packs.get((n, m, width))
    if value is None:
        if n:
            value = _lifted(query, p, 0, 0, width) * _packed_binomial(query, n, m, width)
        else:
            value = _pack(p[1], width)
        packs[n, m, width] = value
    return value


def _binomial_sum(query, g, terms, cuts=()):
    """Numerators over D(g) of

        x^(w(g)) - sum_j x^(s_j) B(g, e_j) P_j Q_j

    over the terms (e_j, s_j, P_j, Q_j) of ``terms``: P_j is a nonzero
    numerator record and Q_j another one or None.  One numerator is
    returned for each c in the ascending ``cuts``, taking the first c terms,
    then one for the whole sum; equal consecutive numerators are one
    record.

    Everything is packed at one digit width (see ``laurent``) and added as
    integers.  The width comes from a bound that covers every partial sum:
    B(g, e) has positive coefficients summing to prod_i C(g_i, e_i), so
      |coefficient of B(g, e) P Q|
        <= prod_i C(g_i, e_i) min(height P length Q, length P height Q),
    and the coefficients of B(g, e) P are at most prod_i C(g_i, e_i)
    height P.  Consecutive terms whose e agree but for the last entry share
    the binomials of the other vertices, which multiply their packed sum
    once.  B(g_last, e_last) P and Q are packed through ``_lifted``, so each
    record is packed once per width and lifted once per width and binomial."""
    w = query.weight[g]
    lo = hi = w
    bound = 1
    shifts = []
    for e, s, p, q in terms:
        s += p[0]
        size = len(p[1]) - 1 + sum(map(mul, e, _minus(g, e)))
        if q is None:
            height = p[2]
        else:
            s += q[0]
            size += len(q[1]) - 1
            height = min(p[2] * q[3], p[3] * q[2])
        bound += height * math.prod(map(math.comb, g, e))
        shifts.append(s)
        lo, hi = min(lo, s), max(hi, s + size)
    k = _digit_bits(bound)
    last = len(g) - 1
    total = 1 << (k * (w - lo))
    group, head, sums = 0, None, []

    def flush():
        nonlocal total, group
        if group:
            for n, m in zip(g, head):
                if 0 < m < n:
                    group *= _packed_binomial(query, n, min(m, n - m), k)
            total -= group
            group = 0

    c = 0
    for j, ((e, _, p, q), s) in enumerate(zip(terms, shifts)):
        while c < len(cuts) and cuts[c] == j:
            flush()
            sums.append(total)
            c += 1
        if e[:last] != head:
            flush()
            head = e[:last]
        value = _lifted(query, p, g[last], e[last], k)
        if q is not None:
            value *= _lifted(query, q, 0, 0, k)
        group += value << (k * (s - lo))
    flush()
    sums += [total] * (len(cuts) - c + 1)
    out, previous = [], None
    for value in sums:
        if value != previous:
            low, co = _trimmed(lo, _unpack(value, hi - lo + 1, k))
            record = (low, co, _max_abs(co), sum(map(abs, co)), {}) if co else _ZERO
            previous = value
        out.append(record)
    return out


def _reduced(g, numerator):
    """The quantity of g whose numerator over D(g) is the record
    ``numerator``, reduced to a RationalFunc."""
    lo, co, *_ = numerator
    return CycloFrac._of(lo, co, _den(g)).reduce()


# ---------------------------------------------------------------------------
# the query of one public call

class _Query:
    """The theta-dependent state of one public call on the top-level d: it
    is built once every input is checked and dropped when the call returns.
    ``ctx`` is the context of the quiver and ``memo`` the memo of the
    call's recursions.

    ``slopes`` holds the distinct slopes of 0 < e <= d, reduced
    (theta(e), dim e) pairs, in descending order and ``rank[e]`` the index
    of mu(e) there, so a smaller rank is a steeper slope.  ``below[h]`` is
    the set of ranks of 0 < e <= h, for 0 <= h <= d, as a bitmask: the rank
    of h and the sets of each h minus a unit vector.  ``square[e]`` is
    <e, e>, so that <e, g - e> = <e, g> - <e, e> and
    <f - e, e> = <f, e> - <e, e> take one dot product with a row of the
    Euler form.  ``weight[e]`` is the exponent of w(e) over D(e).  The
    query builds ``rank``, which every recursion reads, from ``slopes``;
    each of the other tables is built the first time a recursion reads it:
    ``below`` by the HN recursion alone, ``square`` and ``weight`` by both
    sums, and none by ``ss_nonempty`` or ``hn_types``."""

    def __init__(self, ctx, theta, top):
        self.ctx, self.top, self.memo = ctx, top, {}
        mu = {}
        for e in _below(top):
            num, den = sum(map(mul, theta, e)), sum(e)
            g = math.gcd(num, den)
            mu[e] = num // g, den // g
        distinct = set(mu.values())
        # n / m sorts as n (scale / m), for a common multiple scale of the m
        scale = math.lcm(*(m for _, m in distinct))
        self.slopes = sorted(distinct, key=lambda s: -s[0] * (scale // s[1]))
        index = {s: r for r, s in enumerate(self.slopes)}
        self.rank = {e: index[s] for e, s in mu.items()}

    @cached_property
    def below(self):
        below = {(0,) * len(self.top): 0}
        for h, r in self.rank.items():  # lexicographic, so each h - unit comes first
            mask = 1 << r
            for i, n in enumerate(h):
                if n:
                    mask |= below[h[:i] + (n - 1,) + h[i + 1:]]
            below[h] = mask
        return below

    @cached_property
    def square(self):
        euler = self.ctx.euler
        return {e: euler(e, e) for e in self.rank}

    @cached_property
    def weight(self):
        return {e: _weight_exp(self.ctx, e) for e in self.rank}

    def bounds(self, f):
        """The ranks r of the bounds b = slopes[r] of L(f), ascending, so by
        descending b: the parts of f of slope >= b are those of rank <= r."""
        mask = self.below[_minus(self.top, f)] & ((1 << self.rank[f]) - 1)
        out = []
        while mask:
            out.append((mask & -mask).bit_length() - 1)
            mask &= mask - 1
        return out

    def parts(self, f):
        """(rank, e) for the parts 0 < e <= f steeper than f, by rank and
        lexicographically within a rank."""
        rank = self.rank
        r_f = rank[f]
        return sorted(((r, e) for e in _below(f) if (r := rank[e]) < r_f),
                      key=itemgetter(0))


# ---------------------------------------------------------------------------
# semistable masses (recursive / HN form)

# The HN recursion.  T(f; b) is the mass of the representations of dimension
# f whose HN parts all have slope below b, so T(0; b) = 1, T(f; b) = 0 when
# mu(f) >= b, and peeling the first HN part e of f gives the term
#   X(e, f) = mass_ss(e) T(f - e; mu(e)) q^{-<f - e, e>},
# which vanishes unless e = f or mu(e) > mu(f).  Every representation has
# exactly one HN type, so for mu(f) < b
#   T(f; b)    = mass(f) - sum_{e < f, mu(e) >= b} X(e, f),
#   mass_ss(f) = mass(f) - sum_{e < f, mu(e) > mu(f)} X(e, f).
# One pass per f walks the parts e < f above mu(f) by descending slope,
# computes each X(e, f) once and folds it into a running difference that
# starts at mass(f): read at each bound it is T(f; b), and at the end it is
# mass_ss(f).  Over D(f) the term X(e, f) has the numerator
#   B(f, e) x^{-<f - e, e>} times those of mass_ss(e) over D(e) and of
#   T(f - e; mu(e)) over D(f - e).
# Under the top-level d of a query, T(f; b) is asked for only at the bounds
#   L(f) = {mu(e) : 0 < e <= d - f, mu(e) > mu(f)},
# so the memo of the query keeps mass_ss(f) and T(f; b) for b in L(f), by
# the rank of b.  The query gives L(f) as the ranks below d - f that are
# steeper than f, a bitmask read off in ascending rank, and the parts of f
# as the e <= f of rank below that of f, sorted by rank.
# T(f; .) changes only at the slopes of the parts of f: bounds with no part
# between them cut the pass after the same terms and read one value.  So
# the pass unpacks each distinct value once and the bounds share its record,
# which the terms of the passes above f pack through ``_lifted`` once per
# digit width in the query, as they pack the record of mass_ss(e).

@_memoized
def _hn(query, f):
    """The pass of f: (mass_ss(f), {r: T(f; b)}) for the bounds b in L(f)
    of rank r, as numerators over D(f); bounds whose T(f; b) are equal share
    one record."""
    square = query.square
    column = query.ctx.column(f)  # <f, e> = sum(column * e)
    bounds = query.bounds(f)
    parts = query.parts(f)
    terms, cuts, i = [], [], 0
    for upto in [*bounds, query.rank[f] - 1]:  # every part lies above mu(f)
        chunk = []
        while i < len(parts) and parts[i][0] <= upto:
            # X(e, f) for the nonzero X; mu(f - e) < mu(f) < mu(e) and
            # e <= top - (f - e), so mu(e) is in L(f - e)
            r, e = parts[i]
            i += 1
            ss = _hn(query, e)[0]
            if not ss[1]:
                continue
            below = _hn(query, _minus(f, e))[1][r]
            if below[1]:
                chunk.append((e, square[e] - sum(map(mul, column, e)), ss, below))
        # in lexicographic order, terms that share binomials are adjacent
        terms += sorted(chunk, key=itemgetter(0))
        cuts.append(len(terms))
    *values, ss = _binomial_sum(query, f, terms, cuts[:-1])
    return ss, dict(zip(bounds, values))


def mass_ss(quiver: Quiver, theta: Stability, d: DimVector) -> RationalFunc:
    """Stack mass of the semistable locus, from the HN recursion, in q."""
    query = _query(quiver, theta, d, "the zero vector has no semistable mass")
    return _reduced(query.top, _hn(query, query.top)[0])


# ---------------------------------------------------------------------------
# the resolved sum: closed semistable masses and Poincare polynomials

@_memoized
def _resolved(query, g):
    """The numerator over D(g) of R(g; mu), for mu the slope of the top-level
    d of the query: the signed sum over tuples of g whose proper suffix sums
    all have slope above mu.  The caller gates g itself.  Over D(g) the term
    of e < g is -B(g, e) x^(w(e) - <e, g - e>) N(g - e), with N the
    numerator of R(g - e; mu), and the term of g is x^(w(g))."""
    rank, square, weight = query.rank, query.square, query.weight
    gate = rank[query.top]
    row = query.ctx.row(g)  # <e, g> = sum(e * row)
    terms = []
    for e, rest in _splits(g):
        if e != g and rank[rest] < gate:
            inner = _resolved(query, rest)
            if inner[1]:
                # w(e) - <e, g - e>
                terms.append((e, weight[e] + square[e] - sum(map(mul, e, row)),
                              inner, None))
    return _binomial_sum(query, g, terms)[0]


def mass_ss_closed(quiver: Quiver, theta: Stability, d: DimVector) -> RationalFunc:
    """Stack mass of the semistable locus, from the closed formula, in q."""
    query = _query(quiver, theta, d, "the zero vector has no semistable mass")
    return _reduced(query.top, _resolved(query, query.top))


# ---------------------------------------------------------------------------
# Poincare polynomials of stable moduli

def _times_q_minus_one(g, numerator):
    """(q - 1) times the semistable mass of g whose numerator over D(g) is
    the record ``numerator``, as a polynomial in q.  D(g) has a factor
    q - 1 for each nonzero entry, and the product takes one away."""
    lo, co, *_ = numerator
    if not co:
        return LaurentPoly()
    den = _den(g)
    den[1] -= 1
    return CycloFrac._of(lo, co, den).reduce().to_polynomial()


def _poincare_q(quiver, theta, d):
    """The Poincare polynomial of the stable moduli space in q = v^2:
    (q - 1) mass_ss_closed(d)."""
    query = _query(quiver, theta, d, "the zero vector has no moduli space", coprime=True)
    return _times_q_minus_one(query.top, _resolved(query, query.top))


def poincare(quiver: Quiver, theta: Stability, d: DimVector) -> LaurentPoly:
    """Poincare polynomial (in v, with v^2 = q) of the moduli space of stable
    representations of dimension d.

    Requires theta(d) coprime to dim d, so that semistable = stable and the
    moduli space is smooth projective.
    """
    return LaurentPoly({2 * e: a for e, a in _poincare_q(quiver, theta, d).items()})


def betti_via_mass(quiver: Quiver, theta: Stability, d: DimVector) -> LaurentPoly:
    """(q - 1) times the semistable mass; a polynomial in q equal to the
    Poincare polynomial under v^2 = q when the coprimality hypothesis holds."""
    query = _query(quiver, theta, d, "the zero vector has no moduli space", coprime=True)
    return _times_q_minus_one(query.top, _hn(query, query.top)[0])


def betti_coefficients(quiver, theta, d, method="closed"):
    """Betti numbers of the stable moduli space, ascending in q."""
    if method == "closed":
        p = _poincare_q(quiver, theta, d)
    elif method == "mass":
        p = betti_via_mass(quiver, theta, d)
    else:
        raise InputError(f"unknown method {method!r}")
    if p.is_zero():
        return []
    if p.lo < 0:
        raise AssertionError("Betti polynomial with negative exponents")
    return [0] * p.lo + list(p.co)
