"""Harder-Narasimhan machinery: semistable loci, strata, stack masses and
Poincare polynomials of moduli spaces of stable representations.

All heavy sums are carried out in a factored representation (CycloFrac)
whose denominator is a multiset of factors x^k - 1; this avoids polynomial
gcds on the hot path.  Only final results are reduced, by integer trial
division through cyclotomic polynomials, and no ``Fraction`` polynomial
arithmetic runs on the way.  A sum lifts each numerator to the common
denominator in one packed-integer multiply (see ``laurent``): the digit
width comes from the bound max|a| 2^(sum m) on the lifted coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import CoprimalityError, InputError
from .laurent import LaurentPoly, RationalFunc, _binomial_lift_sum, cyclotomic
from .quiver import DimVector, Quiver, Stability

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

def _binomial_factor(e, m):
    """(x^e - 1)^m as a Laurent polynomial."""
    return LaurentPoly({e: 1, 0: -1}) ** m


# CycloFrac.sum lifts its terms this many at a time: a larger batch lifts the
# running total fewer times but keeps more terms alive at once.
_SUM_BATCH = 8


class CycloFrac:
    """num / prod_k (x^k - 1)^{m_k}; no cancellation until :meth:`reduce`."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, int):
            num = LaurentPoly({0: num})
        clean = {}
        for e, m in (den or {}).items():
            if e < 1 or m < 0:
                raise InputError("denominator factors need e >= 1, m >= 0")
            if m:
                clean[e] = m
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", clean)

    def __setattr__(self, name, value):
        raise AttributeError("CycloFrac is immutable")

    @classmethod
    def zero(cls):
        return cls(LaurentPoly.zero())

    @classmethod
    def one(cls):
        return cls(LaurentPoly.one())

    def is_zero(self):
        return self.num.is_zero()

    @classmethod
    def sum(cls, terms):
        """The sum of the iterable ``terms``, taken _SUM_BATCH terms at a time
        so that few of them are alive at once."""
        batch = []
        for t in terms:
            if not t.is_zero():
                batch.append(t)
                if len(batch) == _SUM_BATCH:
                    total = cls._sum(batch)
                    batch = [] if total.is_zero() else [total]
        return cls._sum(batch)

    @classmethod
    def _sum(cls, terms):
        """The sum of nonzero ``terms`` over their least common denominator;
        each numerator is lifted to it in one packed multiply."""
        if len(terms) < 2:
            return terms[0] if terms else cls.zero()
        den = {}
        for t in terms:
            for e, m in t.den.items():
                if m > den.get(e, 0):
                    den[e] = m
        num = _binomial_lift_sum(
            [(t.num, {e: m - t.den.get(e, 0) for e, m in den.items()
                      if m != t.den.get(e, 0)})
             for t in terms])
        return cls(num, den)

    def __add__(self, other):
        return CycloFrac.sum((self, other))

    def __neg__(self):
        return CycloFrac(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return CycloFrac(self.num * other, self.den)
        den = dict(self.den)
        for e, m in other.den.items():
            den[e] = den.get(e, 0) + m
        return CycloFrac(self.num * other.num, den)

    __rmul__ = __mul__

    def shift(self, k):
        """Multiply by x^k."""
        return CycloFrac(self.num.shift(k), self.den)

    def reduce(self) -> RationalFunc:
        """Cancel and return the canonical rational function.

        Each x^e - 1 factors into cyclotomics; exact trial division strips
        every shared cyclotomic from the numerator.  The gcd of what is left
        is 1: each cyclotomic left in the denominator is irreducible and
        failed trial division (over Z, which for a monic divisor is the same
        as over Q), and the denominator, a product of monic factors with
        nonzero constant term, is already in canonical form.  So the result
        skips RationalFunc's general gcd.
        """
        if self.is_zero():
            return RationalFunc.zero()
        cyc = {}
        for e, m in self.den.items():
            for n in range(1, e + 1):
                if e % n == 0:
                    cyc[n] = cyc.get(n, 0) + m
        num = self.num
        for n in sorted(cyc):
            while cyc[n]:
                q = num.divexact(cyclotomic(n))
                if q is None:
                    break
                num = q
                cyc[n] -= 1
        den = LaurentPoly.one()
        for n, m in cyc.items():
            den = den * cyclotomic(n) ** m
        return RationalFunc(num, den, _canonical=True)


# ---------------------------------------------------------------------------
# point counts

def _arrow_pairing(quiver, x, y):
    """a(x, y) = sum over arrows i->j of x_i * y_j."""
    return sum(x[s] * y[t] for s, t in quiver.arrows)


@lru_cache(maxsize=None)
def _mass_cf(quiver, d):
    """|R_d| / |G_d| as a CycloFrac in q."""
    exp = _arrow_pairing(quiver, d, d) - sum(n * (n - 1) // 2 for n in quiver.tup(d))
    den = {}
    for n in quiver.tup(d):
        for k in range(1, n + 1):
            den[k] = den.get(k, 0) + 1
    return CycloFrac(LaurentPoly({exp: 1}), den)


def mass(quiver: Quiver, d: DimVector) -> RationalFunc:
    """Stack mass |R_d|/|G_d| of all representations of dimension d, in q."""
    quiver.check_vector(d)
    return _mass_cf(quiver, d).reduce()


# ---------------------------------------------------------------------------
# slopes keyed for memoization

def _theta_key(quiver, theta):
    return theta.key(quiver)


def _slope(quiver, tkey, d):
    t = quiver.tup(d)
    total = sum(t)
    if total == 0:
        raise InputError("slope of the zero vector is undefined")
    return Fraction(sum(a * b for a, b in zip(tkey, t)), total)


# ---------------------------------------------------------------------------
# semistable nonemptiness and HN types

@lru_cache(maxsize=None)
def _ss_nonempty(quiver, tkey, d):
    # empty iff d splits as d^1 + ... + d^s, s >= 2, strictly decreasing
    # slopes, every part ss-nonempty, <d^k, d^l> = 0 for k < l.
    def extend(remaining, prev, bound):
        if remaining.is_zero():
            return True
        for p in quiver.vectors_below(remaining):
            if bound is not None and not _slope(quiver, tkey, p) < bound:
                continue
            if any(quiver.euler(pr, p) != 0 for pr in prev):
                continue
            if not _ss_nonempty(quiver, tkey, p):
                continue
            if extend(remaining - p, prev + (p,), _slope(quiver, tkey, p)):
                return True
        return False

    for first in quiver.vectors_below(d):
        if first == d:
            continue
        if not _ss_nonempty(quiver, tkey, first):
            continue
        if extend(d - first, (first,), _slope(quiver, tkey, first)):
            return False
    return True


def ss_nonempty(quiver: Quiver, theta: Stability, d: DimVector) -> bool:
    """True iff the semistable locus of dimension d is nonempty."""
    quiver.check_vector(d)
    if d.is_zero():
        raise InputError("the zero vector has no semistable locus")
    return _ss_nonempty(quiver, _theta_key(quiver, theta), d)


@dataclass(frozen=True)
class HNType:
    parts: tuple  # nonzero DimVectors with strictly decreasing slopes
    codim: int

    def to_json(self):
        return {"parts": [p.to_json() for p in self.parts], "codim": self.codim}


def hn_types(quiver: Quiver, theta: Stability, d: DimVector):
    """All Harder-Narasimhan types of dimension d with their codimensions."""
    quiver.check_vector(d)
    if d.is_zero():
        raise InputError("the zero vector has no HN types")
    tkey = _theta_key(quiver, theta)
    out = []

    def dfs(remaining, prefix, bound):
        if remaining.is_zero():
            codim = -sum(quiver.euler(prefix[k], prefix[l])
                         for k in range(len(prefix))
                         for l in range(k + 1, len(prefix)))
            assert codim >= 0, "HN stratum with negative codimension"
            out.append(HNType(tuple(prefix), codim))
            return
        for p in quiver.vectors_below(remaining):
            if bound is not None and not _slope(quiver, tkey, p) < bound:
                continue
            if not _ss_nonempty(quiver, tkey, p):
                continue
            dfs(remaining - p, prefix + [p], _slope(quiver, tkey, p))

    dfs(d, [], None)
    return out


# ---------------------------------------------------------------------------
# semistable masses (recursive / HN form)

# The HN recursion reads mass(d) = sum over HN types of
#   q^{- sum_{k<l} <d^l, d^k>} prod_k mass_ss(d^k);
# peeling the first part e gives the suffix sum T below, restricted to
# slopes strictly below a bound.

_T_memo = {}
_mass_ss_memo = {}


def _T(quiver, tkey, f, bound):
    if f.is_zero():
        return CycloFrac.one()
    key = (quiver, tkey, f, bound)
    hit = _T_memo.get(key)
    if hit is not None:
        return hit

    def terms():
        if not _slope(quiver, tkey, f) < bound:  # no tuple fits below the bound
            return
        for e in quiver.vectors_below(f):
            if not _slope(quiver, tkey, e) < bound:
                continue
            term = _mass_ss_cf(quiver, tkey, e) * _T(quiver, tkey, f - e,
                                                     _slope(quiver, tkey, e))
            yield term.shift(-quiver.euler(f - e, e))

    total = CycloFrac.sum(terms())
    _T_memo[key] = total
    return total


def _mass_ss_cf(quiver, tkey, d):
    key = (quiver, tkey, d)
    hit = _mass_ss_memo.get(key)
    if hit is not None:
        return hit
    mu = _slope(quiver, tkey, d)

    def terms():
        yield _mass_cf(quiver, d)
        for e in quiver.vectors_below(d):
            if e == d or not _slope(quiver, tkey, e) > mu:
                continue
            term = _mass_ss_cf(quiver, tkey, e) * _T(quiver, tkey, d - e,
                                                     _slope(quiver, tkey, e))
            yield -term.shift(-quiver.euler(d - e, e))

    total = CycloFrac.sum(terms())
    _mass_ss_memo[key] = total
    return total


def mass_ss(quiver: Quiver, theta: Stability, d: DimVector) -> RationalFunc:
    """Stack mass of the semistable locus, from the HN recursion, in q."""
    quiver.check_vector(d)
    if d.is_zero():
        raise InputError("the zero vector has no semistable mass")
    return _mass_ss_cf(quiver, _theta_key(quiver, theta), d).reduce()


# ---------------------------------------------------------------------------
# semistable masses (closed / inclusion-exclusion form)

# Sum over tuples (d^1, ..., d^s) of nonzero vectors with d = sum d^k and
# mu(d^k + ... + d^s) > mu(d) for k = 2..s, of
#   (-1)^{s-1} q^{- sum_{k<l} <d^k, d^l>} prod_k mass(d^k).

_C_memo = {}


def _C(quiver, tkey, g, mu_d):
    """Signed suffix sum over tuples of g whose every partial suffix sum has
    slope above mu_d; zero when g itself fails the gate."""
    if not _slope(quiver, tkey, g) > mu_d:
        return CycloFrac.zero()
    key = (quiver, tkey, g, mu_d)
    hit = _C_memo.get(key)
    if hit is not None:
        return hit

    def terms():
        for e in quiver.vectors_below(g):
            inner = CycloFrac.one() if e == g else -_C(quiver, tkey, g - e, mu_d)
            if not inner.is_zero():
                yield (_mass_cf(quiver, e) * inner).shift(-quiver.euler(e, g - e))

    total = CycloFrac.sum(terms())
    _C_memo[key] = total
    return total


def _mass_ss_closed_cf(quiver, tkey, d):
    mu = _slope(quiver, tkey, d)

    def terms():
        for e in quiver.vectors_below(d):
            inner = CycloFrac.one() if e == d else -_C(quiver, tkey, d - e, mu)
            if not inner.is_zero():
                yield (_mass_cf(quiver, e) * inner).shift(-quiver.euler(e, d - e))

    return CycloFrac.sum(terms())


def mass_ss_closed(quiver: Quiver, theta: Stability, d: DimVector) -> RationalFunc:
    """Stack mass of the semistable locus, from the closed formula, in q."""
    quiver.check_vector(d)
    if d.is_zero():
        raise InputError("the zero vector has no semistable mass")
    return _mass_ss_closed_cf(quiver, _theta_key(quiver, theta), d).reduce()


# ---------------------------------------------------------------------------
# Poincare polynomials of stable moduli

def _check_coprime(theta, d):
    if math.gcd(abs(theta.value(d)), d.total()) != 1:
        raise CoprimalityError(
            f"theta(d) = {theta.value(d)} and dim d = {d.total()} are not coprime")


def _weight_cf(quiver, e):
    """prod_i ((e_i)_q!)^{-1} as a CycloFrac in v (q = v^2): the inverse
    q-multifactorial (q-factorial normalization, no balancing power of v),
    written over factors v^{2k} - 1."""
    t = quiver.tup(e)
    size = sum(t)
    num = _binomial_factor(2, size)
    den = {}
    for n in t:
        for k in range(1, n + 1):
            den[2 * k] = den.get(2 * k, 0) + 1
    return CycloFrac(num, den)


_P_memo = {}


def _P(quiver, tkey, g, mu_d):
    """v-variable analogue of _C with per-part factor v^{2a(e, g)} w(e)."""
    if not _slope(quiver, tkey, g) > mu_d:
        return CycloFrac.zero()
    key = (quiver, tkey, g, mu_d)
    hit = _P_memo.get(key)
    if hit is not None:
        return hit

    def terms():
        for e in quiver.vectors_below(g):
            inner = CycloFrac.one() if e == g else -_P(quiver, tkey, g - e, mu_d)
            if not inner.is_zero():
                yield (_weight_cf(quiver, e) * inner).shift(
                    2 * _arrow_pairing(quiver, e, g))

    total = CycloFrac.sum(terms())
    _P_memo[key] = total
    return total


def poincare(quiver: Quiver, theta: Stability, d: DimVector) -> LaurentPoly:
    """Poincare polynomial (in v, with v^2 = q) of the moduli space of stable
    representations of dimension d.

    Requires theta(d) coprime to dim d, so that semistable = stable and the
    moduli space is smooth projective.
    """
    quiver.check_vector(d)
    if d.is_zero():
        raise InputError("the zero vector has no moduli space")
    _check_coprime(theta, d)
    tkey = _theta_key(quiver, theta)
    mu = _slope(quiver, tkey, d)

    def terms():
        for e in quiver.vectors_below(d):
            inner = CycloFrac.one() if e == d else -_P(quiver, tkey, d - e, mu)
            if not inner.is_zero():
                yield (_weight_cf(quiver, e) * inner).shift(
                    2 * _arrow_pairing(quiver, e, d))

    total = CycloFrac.sum(terms())
    dim_d = d.total()
    pre_shift = -sum(n * (n - 1) for n in quiver.tup(d))
    total = CycloFrac(total.num.shift(pre_shift),
                      _merge_den(total.den, {2: dim_d - 1}))
    return total.reduce().to_polynomial()


def _merge_den(a, b):
    out = dict(a)
    for e, m in b.items():
        out[e] = out.get(e, 0) + m
    return {e: m for e, m in out.items() if m}


def betti_via_mass(quiver: Quiver, theta: Stability, d: DimVector) -> LaurentPoly:
    """(q - 1) times the semistable mass; a polynomial in q equal to the
    Poincare polynomial under v^2 = q when the coprimality hypothesis holds."""
    quiver.check_vector(d)
    if d.is_zero():
        raise InputError("the zero vector has no moduli space")
    _check_coprime(theta, d)
    cf = _mass_ss_cf(quiver, _theta_key(quiver, theta), d)
    return (cf * CycloFrac(LaurentPoly({1: 1, 0: -1}))).reduce().to_polynomial()


def betti_coefficients(quiver, theta, d, method="closed"):
    """Betti numbers of the stable moduli space, ascending in q."""
    if method == "closed":
        p = poincare(quiver, theta, d)
        if p.is_zero():
            return []
        p = p.halve_exponents()
    elif method == "mass":
        p = betti_via_mass(quiver, theta, d)
        if p.is_zero():
            return []
    else:
        raise InputError(f"unknown method {method!r}")
    if p.low() < 0:
        raise AssertionError("Betti polynomial with negative exponents")
    coeffs, lo = p.shifted_coeffs()
    return [0] * lo + coeffs


def clear_caches():
    _mass_cf.cache_clear()
    _ss_nonempty.cache_clear()
    _T_memo.clear()
    _mass_ss_memo.clear()
    _C_memo.clear()
    _P_memo.clear()
