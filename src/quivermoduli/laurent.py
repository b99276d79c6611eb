"""Exact Laurent polynomials and canonical rational functions in one variable.

Coefficients are arbitrary-precision integers.  There is one polynomial
format, dense: a low exponent and a tuple of coefficients, lowest first,
with nonzero ends, so storage grows with the span of the exponents.  A
LaurentPoly is a value type that holds it as ``lo`` and ``co``, and
``hn.CycloFrac`` and the numerators of the ``hn`` recursions hold it
inline; all arithmetic runs in the kernels below, on the coefficient
sequences.  The hot paths use integers only.  Exact division
(:func:`_divexact`) is integer synthetic division that gives up at the
first coefficient the divisor's leading coefficient does not divide.  The
lifts of numerators by products of binomials x^e - 1 (:func:`_lift_sum`)
and the sums of ``hn`` over the fixed denominator of a dimension vector,
which convolve numerators with the Gaussian binomials of
:func:`_gaussian_binomial`, use Kronecker substitution: coefficients become
the base-2^k digits of one integer, so a single big-integer multiply or add
does the work.  Digits are balanced (signed), and k always comes from a
proven bound on the result's coefficients, never from a guess.  A product
of cyclotomic polynomials, each cyclotomic among them, is one lift by
binomials and at most one exact division (:func:`_cyclotomic_product`).

A RationalFunc is a result, not a field element: ``hn.CycloFrac.reduce``
builds it in canonical form (no common factor, denominator with lowest
exponent zero and positive leading coefficient), so equality compares parts
and no gcd is needed.  ``Fraction`` remains only in evaluation at rational
points.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from functools import lru_cache

from .errors import InputError, NonPolynomialError

__all__ = [
    "LaurentPoly",
    "RationalFunc",
    "cyclotomic",
]


_set = object.__setattr__


def _as_poly(value):
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, int):
        return LaurentPoly({0: value})
    return NotImplemented


# -- Kronecker substitution ----------------------------------------------------
#
# A coefficient sequence c_0, ..., c_(n-1) is packed as the integer
# sum_i c_i 2^(k*i): the polynomial's value at x = 2^k.  Packing is a ring
# homomorphism, so products and sums of packed values are the packed products
# and sums.  When every coefficient of the result satisfies |c| < 2^(k-1), the
# result's balanced base-2^k digits are exactly its coefficients.  With
# B = sum_i 2^(k-1) 2^(k*i), the k-bit two's-complement digits u_i of the c_i
# satisfy u_i ^ 2^(k-1) = c_i + 2^(k-1), so the packed value is (U ^ B) - B
# for U the integer with digits u_i, and unpacking inverts this: at a machine
# word size k the digits u_i are a signed ``array`` and neither direction
# loops over coefficients in Python.

# Signed array type code of each machine-word digit width, in bits.  Rounding
# k up to a word size widens the packed integers, yet on K3 Betti
# computations it took 8% off the run time compared with whole bytes alone.
_WORD_CODES = {8 * array(code).itemsize: code for code in "qlihb"}
_WORD_BITS = tuple(sorted(_WORD_CODES))
_BIG_ENDIAN = sys.byteorder == "big"


def _digit_bits(bound):
    """Digit width k for coefficients of absolute value at most ``bound``:
    one sign bit and two guard bits above the bound, rounded up to a word
    size or else to whole bytes."""
    bits = bound.bit_length() + 3
    for k in _WORD_BITS:
        if bits <= k:
            return k
    return (bits + 7) & ~7


@lru_cache(maxsize=256)
def _bias(n, k):
    """B: the packed value of n digits all equal to 2^(k-1)."""
    return int.from_bytes((1 << (k - 1)).to_bytes(k >> 3, "little") * n, "little")


def _pack(co, k):
    """sum_i co[i] 2^(k*i); every co[i] in [-2^(k-1), 2^(k-1))."""
    code = _WORD_CODES.get(k)
    if code is None:
        nb = k >> 3
        raw = b"".join(c.to_bytes(nb, "little", signed=True) for c in co)
    else:
        raw = array(code, co)
        if _BIG_ENDIAN:
            raw.byteswap()
    b = _bias(len(co), k)
    return (int.from_bytes(raw, "little") ^ b) - b


def _unpack(value, n, k):
    """The n balanced base-2^k digits of ``value``, lowest first, as a tuple;
    the caller proves each lies in [-2^(k-1), 2^(k-1))."""
    b = _bias(n, k)
    nb = k >> 3
    raw = ((value + b) ^ b).to_bytes(n * nb, "little")
    code = _WORD_CODES.get(k)
    if code is None:
        from_bytes = int.from_bytes
        return tuple(from_bytes(raw[i:i + nb], "little", signed=True)
                     for i in range(0, len(raw), nb))
    digits = array(code, raw)
    if _BIG_ENDIAN:
        digits.byteswap()
    return tuple(digits)


def _max_abs(co):
    return max(max(co), -min(co))


def _trimmed(lo, co):
    """(lo, co) with the zero coefficients at both ends of the sequence ``co``
    dropped and the rest as a tuple; (0, ()) when every coefficient is
    zero."""
    i, j = 0, len(co)
    while j and not co[j - 1]:
        j -= 1
    if not j:
        return 0, ()
    while not co[i]:
        i += 1
    return lo + i, tuple(co[i:j])


def _lift_sum(terms):
    """sum_j x^lo_j c_j prod_e (x^e - 1)^(m_je) over the triples
    (lo_j, c_j, {e: m_je}) of ``terms``, with nonempty coefficient sequences
    c_j, as a trimmed (low exponent, coefficient tuple) pair.  Each c_j is
    packed once and lifted by shifts and subtractions of packed integers.

    Each coefficient of c * prod (x^e - 1)^(m_e) is at most max|c| 2^(sum m_e)
    in absolute value, since the absolute values of the coefficients of the
    product of binomials sum to at most 2^(sum m_e); the bound of the sum adds
    these.
    """
    lo = min(t[0] for t in terms)
    top = max(l + len(c) - 1 + sum(e * m for e, m in f.items()) for l, c, f in terms)
    k = _digit_bits(sum(_max_abs(c) << sum(f.values()) for _, c, f in terms))
    total = 0
    for l, c, f in terms:
        value = _pack(c, k)
        for e, m in f.items():
            # times x^e - 1: a shift and a subtraction; on K3 (14,15) this
            # took the lifts' own time to a third of multiplying by
            # (2^(k*e) - 1)^m
            for _ in range(m):
                value = (value << (k * e)) - value
        total += value << (k * (l - lo))
    return _trimmed(lo, _unpack(total, top - lo + 1, k))


def _divexact(co, dco):
    """The quotient of the coefficient sequences ``co`` by ``dco``, both
    nonempty with nonzero ends, as a tuple with nonzero ends; None when it is
    not an integer polynomial.

    Integer synthetic division over the divisor's nonzero terms.  Until a
    step fails, every quotient coefficient found is the one over Q, so a top
    coefficient that the divisor's leading coefficient does not divide means
    the quotient over Q is not integral: None at once.
    """
    m = len(dco) - 1
    n = len(co) - 1
    if n < m:
        return None
    lead = dco[m]
    tail = [(j - m, a) for j, a in enumerate(dco) if a and j < m]
    rem = list(co)
    quot = [0] * (n - m + 1)
    for i in range(n, m - 1, -1):
        c = rem[i]
        if c:
            if lead != 1:
                c, r = divmod(c, lead)
                if r:
                    return None
            quot[i - m] = c
            for off, a in tail:
                rem[i + off] -= c * a
    if any(rem[:m]):
        return None
    return tuple(quot)


class LaurentPoly:
    """Laurent polynomial with integer coefficients, x^lo (co[0] + co[1] x
    + ...): ``co`` is a tuple with nonzero ends, and zero is (0, ())."""

    __slots__ = ("lo", "co")

    def __init__(self, coeffs=None):
        lo, co = 0, ()
        if coeffs:
            for e, a in coeffs.items():
                if not isinstance(e, int) or not isinstance(a, int):
                    raise InputError("exponents and coefficients must be integers")
            terms = {e: a for e, a in coeffs.items() if a}
            if terms:
                lo = min(terms)
                dense = [0] * (max(terms) - lo + 1)
                for e, a in terms.items():
                    dense[e - lo] = a
                co = tuple(dense)
        _set(self, "lo", lo)
        _set(self, "co", co)

    @classmethod
    def _of(cls, lo, co):
        """A LaurentPoly around trusted parts: a tuple ``co`` with nonzero
        ends, or (0, ())."""
        out = object.__new__(cls)
        _set(out, "lo", lo)
        _set(out, "co", co)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls._of(0, ())

    @classmethod
    def one(cls):
        return cls._of(0, (1,))

    # -- structure ---------------------------------------------------------

    def items(self):
        """The nonzero terms as (exponent, coefficient) pairs, ascending."""
        return [(e, a) for e, a in enumerate(self.co, self.lo) if a]

    def is_zero(self):
        return not self.co

    def __eq__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.lo == other.lo and self.co == other.co

    def __hash__(self):
        # a constant hashes like the int it equals
        if not self.co:
            return hash(0)
        if self.lo == 0 and len(self.co) == 1:
            return hash(self.co[0])
        return hash((self.lo, self.co))

    def __bool__(self):
        return bool(self.co)

    # -- arithmetic --------------------------------------------------------

    # caller: the benchmark's tracer (bench/tracing.py METHODS), not a command
    def __mul__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.co or not other.co:
            return LaurentPoly.zero()
        out = [0] * (len(self.co) + len(other.co) - 1)
        for i, x in enumerate(self.co):
            if x:
                for j, y in enumerate(other.co, i):
                    out[j] += x * y
        return LaurentPoly._of(self.lo + other.lo, tuple(out))

    # caller: the benchmark's tracer (bench/test_bench.py), not a command
    __rmul__ = __mul__

    # caller: the benchmark's tracer (bench/tracing.py METHODS), not a command
    def divexact(self, other):
        """Exact division; returns None when the quotient is not an integer
        Laurent polynomial (see :func:`_divexact`)."""
        if not other.co:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self.co:
            return self
        quot = _divexact(self.co, other.co)
        return None if quot is None else LaurentPoly._of(self.lo - other.lo, quot)

    # -- polynomial views --------------------------------------------------

    def evaluate(self, v0):
        """Exact value at a rational point (nonzero when negative exponents occur)."""
        v0 = Fraction(v0)
        if v0 == 0 and self.co and self.lo < 0:
            raise InputError("cannot evaluate negative exponents at 0")
        return sum((Fraction(a) * v0 ** e for e, a in self.items()), Fraction(0))

    # -- serialization -----------------------------------------------------

    def to_json(self, variable="v"):
        terms = [{"exp": e, "coeff": str(a)} for e, a in self.items()]
        return {"variable": variable, "terms": terms}

    def __repr__(self):
        return f"LaurentPoly({self})"

    def __str__(self, variable="v"):
        if not self.co:
            return "0"
        parts = []
        for e, a in reversed(self.items()):
            if e == 0:
                term = str(abs(a))
            else:
                mag = "" if abs(a) == 1 else f"{abs(a)}*"
                term = f"{mag}{variable}^{e}" if e != 1 else f"{mag}{variable}"
            parts.append(("- " if a < 0 else "+ ") + term)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]


class RationalFunc:
    """A quotient of Laurent polynomials in canonical form.

    ``RationalFunc(num)`` is the polynomial ``num``.  A denominator comes
    only from ``hn.CycloFrac.reduce``, which passes ``_canonical=True`` for
    parts it has proven canonical.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _canonical=False):
        if isinstance(num, int):
            num = LaurentPoly({0: num})
        if den is None:
            den = LaurentPoly.one()
        elif not _canonical:
            raise InputError("a denominator comes only from CycloFrac.reduce, "
                             "which proves it canonical")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunc is immutable")

    @classmethod
    def zero(cls):
        return cls(LaurentPoly.zero(), LaurentPoly.one(), _canonical=True)

    @classmethod
    def one(cls):
        return cls(LaurentPoly.one(), LaurentPoly.one(), _canonical=True)

    def is_zero(self):
        return self.num.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            other = RationalFunc(other)
        if not isinstance(other, RationalFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a polynomial hashes like its numerator, which it equals
        return hash(self.num) if self.den == 1 else hash((self.num, self.den))

    def to_polynomial(self):
        """The numerator when the canonical denominator is 1; error otherwise."""
        if self.den == LaurentPoly.one():
            return self.num
        raise NonPolynomialError(
            f"not a polynomial: canonical denominator is {self.den}",
            remainder=self.den)

    def evaluate(self, v0):
        v0 = Fraction(v0)
        dval = self.den.evaluate(v0)
        if dval == 0:
            raise ZeroDivisionError(f"pole at {v0}")
        return self.num.evaluate(v0) / dval

    def to_json(self, variable="v"):
        return {"num": self.num.to_json(variable), "den": self.den.to_json(variable)}

    def __repr__(self):
        if self.den == LaurentPoly.one():
            return f"RationalFunc({self.num})"
        return f"RationalFunc(({self.num}) / ({self.den}))"


@lru_cache(maxsize=None)
def _gaussian_binomial(n, k):
    """The coefficient tuple, lowest first, of the Gaussian binomial
    [n choose k]_x = prod_{i <= k} (x^(n-k+i) - 1) / (x^i - 1), 0 <= k <= n:
    a polynomial of degree k (n - k) with positive coefficients summing to
    C(n, k).  Built factor by factor; each partial product is again a
    Gaussian binomial, so every division is exact."""
    k = min(k, n - k)
    co = [1]
    for i in range(1, k + 1):
        # times x^m - 1, then the quotient by x^i - 1: if p = q (x^i - 1),
        # then q_j = q_(j-i) - p_j
        m = n - k + i
        p = [-c for c in co] + [0] * m
        for j, c in enumerate(co, m):
            p[j] += c
        q = p[:len(p) - i]
        for j in range(len(q)):
            q[j] = (q[j - i] if j >= i else 0) - p[j]
        co = q
    return tuple(co)


def _cyclotomic_product(counts):
    """The coefficient tuple, lowest first, of prod_n Phi_n^(counts[n]) over
    the cyclotomic polynomials Phi_n, for the counts >= 0 of the dict
    ``counts``.

    x^n - 1 = prod_{d | n} Phi_d, so the product is prod_n (x^n - 1)^(E_n)
    for the E_n with counts[d] = sum of E_n over the multiples n of d, which
    a sieve from the largest n down finds.  The binomials of positive E_n
    are lifted in one step (:func:`_lift_sum`), and the lift of those of
    negative E_n, monic, divides the result exactly."""
    exps = [0] * (max(counts, default=0) + 1)
    for n in range(len(exps) - 1, 0, -1):
        exps[n] = counts.get(n, 0) - sum(exps[2 * n::n])
    co = _lift_sum([(0, (1,), {n: e for n, e in enumerate(exps) if e > 0})])[1]
    down = {n: -e for n, e in enumerate(exps) if e < 0}
    return _divexact(co, _lift_sum([(0, (1,), down)])[1]) if down else co


@lru_cache(maxsize=None)
def cyclotomic(n):
    """The n-th cyclotomic polynomial (in the working variable)."""
    if n < 1:
        raise InputError("cyclotomic index must be positive")
    return LaurentPoly._of(0, _cyclotomic_product({n: 1}))
