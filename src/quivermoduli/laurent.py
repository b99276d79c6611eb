"""Exact Laurent polynomials and rational functions in one variable.

Coefficients are arbitrary-precision integers; rational functions are kept
in a canonical form (common factor removed, denominator with lowest exponent
zero and positive leading coefficient) so that equality is decidable.

The hot paths use integers only.  Exact division is integer synthetic
division that gives up at the first coefficient the divisor's leading
coefficient does not divide.  Products of large operands, and the lifts of
numerators by products of binomials x^e - 1 (:func:`_binomial_lift_sum`),
use Kronecker substitution: coefficients become the base-2^k digits of one
integer, so a single big-integer multiply does the work.  Digits are
balanced (signed), and k always comes from a proven bound on the result's
coefficients, never from a guess.  The general gcd of :class:`RationalFunc`
is a primitive pseudo-remainder sequence over the integers; ``Fraction``
remains only in evaluation at rational points.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from functools import lru_cache
from math import gcd, prod

from .errors import InputError, NonPolynomialError

__all__ = [
    "LaurentPoly",
    "RationalFunc",
    "quantum_integer",
    "quantum_factorial",
    "cyclotomic",
]


def _as_coeff_dict(value):
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, int):
        return LaurentPoly({0: value})
    return NotImplemented


_BIG_ENDIAN = sys.byteorder == "big"


def _wrap(c):
    """A LaurentPoly around a trusted dict without zero coefficients."""
    out = LaurentPoly()
    object.__setattr__(out, "_c", c)
    return out


# -- Kronecker substitution ----------------------------------------------------
#
# A polynomial sum_i c_i x^(lo + g*i) is packed as the integer sum_i c_i 2^(k*i):
# its value at x^g = 2^k, up to the monomial x^lo.  Packing is a ring
# homomorphism, so products and sums of packed values are the packed products
# and sums.  When every coefficient of the result satisfies |c| < 2^(k-1), the
# result's balanced base-2^k digits are exactly its coefficients.  Adding the
# bias sum_i 2^(k-1) 2^(k*i) turns them into ordinary digits in [0, 2^k), which
# are converted through bytes: by machine words when k is a word size.

# LaurentPoly.__mul__ multiplies by Kronecker substitution when the smaller
# operand has at least this many terms and the operands have at least this
# many term pairs; schoolbook is faster otherwise.  Timed on operand pairs
# sampled from Betti computations on K3, this rule came within 1% of taking
# the faster method for every pair.  A third condition, exponent spans adding
# up to at most the number of term pairs, keeps sparse wide operands, which
# would pack into mostly empty digits, on schoolbook.
_KRONECKER_MIN_TERMS = 4
_KRONECKER_MIN_PAIRS = 128

# array type code of each machine-word digit width, in bits.  Word-sized
# digits convert in one call rather than one call per digit.  Rounding k up
# to a word size widens the packed integers, yet on K3 Betti computations it
# took 8% off the run time compared with whole bytes alone.
_WORD_CODES = {8 * array(code).itemsize: code for code in "QLIHB"}
_WORD_BITS = tuple(sorted(_WORD_CODES))


def _digit_bits(bound):
    """Digit width k for coefficients of absolute value at most ``bound``:
    one sign bit and two guard bits above the bound, rounded up to a word
    size or else to whole bytes."""
    bits = bound.bit_length() + 3
    for k in _WORD_BITS:
        if bits <= k:
            return k
    return (bits + 7) & ~7


def _bias(n, k):
    """The packed value of n digits all equal to 2^(k-1)."""
    return int.from_bytes(((1 << (k - 1)).to_bytes(k >> 3, "little")) * n, "little")


def _from_digits(digits, k):
    """sum_i digits[i] 2^(k*i) for digits in [0, 2^k)."""
    code = _WORD_CODES.get(k)
    if code is None:
        nb = k >> 3
        return int.from_bytes(b"".join(d.to_bytes(nb, "little") for d in digits),
                              "little")
    words = array(code, digits)
    if _BIG_ENDIAN:
        words.byteswap()
    return int.from_bytes(words.tobytes(), "little")


def _to_digits(value, n, k):
    """The n base-2^k digits of 0 <= value < 2^(k*n), lowest first."""
    raw = value.to_bytes(n * (k >> 3), "little")
    code = _WORD_CODES.get(k)
    if code is None:
        nb = k >> 3
        from_bytes = int.from_bytes
        return [from_bytes(raw[i:i + nb], "little") for i in range(0, len(raw), nb)]
    words = array(code, raw)
    if _BIG_ENDIAN:
        words.byteswap()
    return words


def _pack(c, lo, g, n, k):
    """sum c[lo + g*i] 2^(k*i) over the n digits; every exponent of ``c`` must
    be lo + g*i with 0 <= i < n and every |coefficient| < 2^(k-1)."""
    half = 1 << (k - 1)
    digits = [half] * n
    for e, a in c.items():
        digits[(e - lo) // g] = a + half
    return _from_digits(digits, k) - _bias(n, k)


def _unpack(value, lo, g, n, k):
    """Coefficient dict of the n balanced base-2^k digits of ``value``, digit i
    at exponent lo + g*i; the caller proves |digit| < 2^(k-1)."""
    half = 1 << (k - 1)
    digits = _to_digits(value + _bias(n, k), n, k)
    return {lo + g * i: a - half for i, a in enumerate(digits) if a != half}


def _stride(lo, exps):
    """The largest g with every exponent in ``exps`` congruent to lo mod g;
    0 when every exponent equals lo."""
    g = 0
    for e in exps:
        g = gcd(g, e - lo)
        if g == 1:
            break
    return g


def _max_abs(c):
    return max(max(c.values()), -min(c.values()))


def _kronecker_mul(a, b):
    """Product of two coefficient dicts, len(a) <= len(b), by one multiply of
    packed integers.  A coefficient of the product sums at most len(a) terms,
    each at most max|a| max|b|."""
    alo, blo = min(a), min(b)
    g = gcd(_stride(alo, a), _stride(blo, b)) or 1
    k = _digit_bits(_max_abs(a) * _max_abs(b) * len(a))
    na = (max(a) - alo) // g + 1
    nb = (max(b) - blo) // g + 1
    value = _pack(a, alo, g, na, k) * _pack(b, blo, g, nb, k)
    return _unpack(value, alo + blo, g, na + nb - 1, k)


def _binomial_lift_sum(terms):
    """sum_j p_j * prod_e (x^e - 1)^(m_je) over the pairs (p_j, {e: m_je}) of
    ``terms``, with one packed multiply per pair.

    Each coefficient of p * prod (x^e - 1)^(m_e) is at most max|p| 2^(sum m_e)
    in absolute value, since the absolute values of the coefficients of the
    product of binomials sum to at most 2^(sum m_e); the bound of the sum adds
    these.  Operands too sparse to pack, spanning more than twice as many
    digits as their lifts can have terms, are lifted term by term instead.
    """
    terms = [(p._c, f) for p, f in terms if p._c]
    if not terms:
        return LaurentPoly()
    lo = min(min(c) for c, _ in terms)
    top = max(max(c) + sum(e * m for e, m in f.items()) for c, f in terms)
    g = 0
    bound = 0
    for c, f in terms:
        g = gcd(g, _stride(lo, c), *f)
        bound += _max_abs(c) << sum(f.values())
    g = g or 1
    n = (top - lo) // g + 1
    if n > 2 * sum(len(c) * prod(m + 1 for m in f.values()) for c, f in terms):
        total = LaurentPoly()
        for c, f in terms:
            p = _wrap(c)
            for e, m in f.items():
                p = p * LaurentPoly({e: 1, 0: -1}) ** m
            total = total + p
        return total
    k = _digit_bits(bound)
    total = 0
    for c, f in terms:
        clo = min(c)
        value = _pack(c, clo, g, (max(c) - clo) // g + 1, k)
        for e, m in f.items():
            value *= ((1 << (k * e // g)) - 1) ** m
        total += value << (k * ((clo - lo) // g))
    return _wrap(_unpack(total, lo, g, n, k))


class LaurentPoly:
    """Sparse Laurent polynomial with integer coefficients."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for e, a in coeffs.items():
                if not isinstance(e, int) or not isinstance(a, int):
                    raise InputError("exponents and coefficients must be integers")
                if a != 0:
                    c[e] = a
        object.__setattr__(self, "_c", c)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def var(cls, power=1):
        return cls({power: 1})

    @classmethod
    def monomial(cls, exp, coeff):
        return cls({exp: coeff})

    # -- structure ---------------------------------------------------------

    def items(self):
        return self._c.items()

    def coeff(self, e):
        return self._c.get(e, 0)

    def is_zero(self):
        return not self._c

    def degree(self):
        if not self._c:
            raise InputError("degree of the zero polynomial is undefined")
        return max(self._c)

    def low(self):
        if not self._c:
            raise InputError("low exponent of the zero polynomial is undefined")
        return min(self._c)

    def leading_coeff(self):
        return self._c[self.degree()]

    def content(self):
        g = 0
        for a in self._c.values():
            g = gcd(g, a)
        return g

    def __eq__(self, other):
        other = _as_coeff_dict(other)
        if other is NotImplemented:
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __bool__(self):
        return bool(self._c)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _as_coeff_dict(other)
        if other is NotImplemented:
            return NotImplemented
        c = dict(self._c)
        for e, a in other._c.items():
            b = c.get(e, 0) + a
            if b:
                c[e] = b
            else:
                c.pop(e, None)
        out = LaurentPoly()
        object.__setattr__(out, "_c", c)
        return out

    __radd__ = __add__

    def __neg__(self):
        out = LaurentPoly()
        object.__setattr__(out, "_c", {e: -a for e, a in self._c.items()})
        return out

    def __sub__(self, other):
        other = _as_coeff_dict(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_coeff_dict(other) - self

    def __mul__(self, other):
        other = _as_coeff_dict(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._c or not other._c:
            return LaurentPoly()
        a, b = self._c, other._c
        if len(a) > len(b):
            a, b = b, a
        pairs = len(a) * len(b)
        if (len(a) >= _KRONECKER_MIN_TERMS and pairs >= _KRONECKER_MIN_PAIRS
                and max(a) - min(a) + max(b) - min(b) <= pairs):
            return _wrap(_kronecker_mul(a, b))
        c = {}
        get = c.get
        for e1, a1 in a.items():
            for e2, a2 in b.items():
                e = e1 + e2
                c[e] = get(e, 0) + a1 * a2
        return _wrap({e: v for e, v in c.items() if v})

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if len(self._c) == 1:
                ((e, a),) = self._c.items()
                if a in (1, -1):
                    return LaurentPoly({e * n: -1 if (a == -1 and n % 2) else 1})
            raise InputError("negative powers only for unit monomials; use RationalFunc")
        out = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def shift(self, k):
        """Multiply by the variable to the k-th power."""
        out = LaurentPoly()
        object.__setattr__(out, "_c", {e + k: a for e, a in self._c.items()})
        return out

    # -- polynomial views --------------------------------------------------

    def shifted_coeffs(self):
        """(ascending coefficient list, low exponent) with constant term nonzero."""
        if not self._c:
            return [], 0
        lo = self.low()
        hi = self.degree()
        coeffs = [self._c.get(e, 0) for e in range(lo, hi + 1)]
        return coeffs, lo

    @classmethod
    def from_coeff_list(cls, coeffs, low=0):
        return cls({low + i: a for i, a in enumerate(coeffs) if a})

    def divexact(self, other):
        """Exact division; returns None when the quotient does not exist.

        Integer synthetic division over the divisor's nonzero terms.  Until
        a step fails, every quotient coefficient found is the one over Q, so
        a top coefficient that the divisor's leading coefficient does not
        divide means the quotient over Q is not integral: None at once.
        """
        if not other._c:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self._c:
            return LaurentPoly()
        nlo, dlo = min(self._c), min(other._c)
        dhi = max(other._c)
        n = max(self._c) - nlo
        m = dhi - dlo
        if n < m:
            return None
        rem = [0] * (n + 1)
        for e, a in self._c.items():
            rem[e - nlo] = a
        lead = other._c[dhi]
        tail = [(e - dhi, a) for e, a in other._c.items() if e != dhi]
        qlo = nlo - dlo - m
        quot = {}
        for i in range(n, m - 1, -1):
            c = rem[i]
            if c:
                q, r = divmod(c, lead)
                if r:
                    return None
                quot[qlo + i] = q
                for off, a in tail:
                    rem[i + off] -= q * a
        if any(rem[:m]):
            return None
        return _wrap(quot)

    def evaluate(self, v0):
        """Exact value at a rational point (nonzero when negative exponents occur)."""
        v0 = Fraction(v0)
        if v0 == 0 and self._c and self.low() < 0:
            raise InputError("cannot evaluate negative exponents at 0")
        return sum((Fraction(a) * v0 ** e for e, a in self._c.items()), Fraction(0))

    def is_palindromic(self):
        """Invariant under inverting the variable."""
        return all(self.coeff(-e) == a for e, a in self._c.items())

    def even_exponents_only(self):
        return all(e % 2 == 0 for e in self._c)

    def halve_exponents(self):
        """Substitute x^2 -> x; requires all exponents even."""
        if not self.even_exponents_only():
            raise InputError("polynomial has odd exponents")
        return LaurentPoly({e // 2: a for e, a in self._c.items()})

    # -- serialization -----------------------------------------------------

    def to_json(self, variable="v"):
        terms = [{"exp": e, "coeff": str(a)} for e, a in sorted(self._c.items())]
        return {"variable": variable, "terms": terms}

    @classmethod
    def from_json(cls, data):
        try:
            return cls({int(t["exp"]): int(t["coeff"]) for t in data["terms"]})
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad polynomial JSON: {exc}") from None

    def __repr__(self):
        return f"LaurentPoly({self})"

    def __str__(self, variable="v"):
        if not self._c:
            return "0"
        parts = []
        for e, a in sorted(self._c.items(), reverse=True):
            if e == 0:
                term = str(abs(a))
            else:
                mag = "" if abs(a) == 1 else f"{abs(a)}*"
                term = f"{mag}{variable}^{e}" if e != 1 else f"{mag}{variable}"
            parts.append(("- " if a < 0 else "+ ") + term)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _trim(p):
    """Drop the zero top coefficients of the list p; return p."""
    while p and p[-1] == 0:
        p.pop()
    return p


def _primitive(p):
    """A nonzero trimmed p divided by the gcd of its coefficients."""
    g = gcd(*p)
    return [x // g for x in p] if g != 1 else p


def _pseudo_rem(p, q):
    """A nonzero integer multiple of the remainder of p by q, trimmed (p and
    q trimmed, q nonzero): each step scales p by lc(q) / gcd(lc(p), lc(q))
    and cancels its top coefficient against q."""
    p, n, lead = list(p), len(q), q[-1]
    while len(p) >= n:
        top = p.pop()
        g = gcd(top, lead)
        scale, top = lead // g, top // g
        if scale != 1:
            p = [x * scale for x in p]
        off = len(p) - n + 1
        for i in range(n - 1):
            p[off + i] -= top * q[i]
        _trim(p)
    return p


def _poly_gcd(a, b):
    """Gcd of two integer polynomials given as ascending coefficient lists:
    primitive with a positive leading coefficient, and [0] when both are 0.

    A primitive pseudo-remainder sequence: every remainder is an integer
    multiple of the Euclidean one and is divided by its content, so the last
    nonzero one is the gcd over Q up to a unit and the coefficients stay
    small (Gauss's lemma: a primitive gcd over Q is one over Z).
    """
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _pseudo_rem(a, b)
        if b:
            b = _primitive(b)
    if not a:
        return [0]
    a = _primitive(a)
    return a if a[-1] > 0 else [-x for x in a]


class RationalFunc:
    """Quotient of Laurent polynomials in canonical form."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _canonical=False):
        if isinstance(num, int):
            num = LaurentPoly({0: num})
        if den is None:
            den = LaurentPoly.one()
        elif isinstance(den, int):
            den = LaurentPoly({0: den})
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not _canonical:
            num, den = self._canonicalize(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunc is immutable")

    @staticmethod
    def _canonicalize(num, den):
        if num.is_zero():
            return LaurentPoly.zero(), LaurentPoly.one()
        ncoeffs, nlo = num.shifted_coeffs()
        dcoeffs, dlo = den.shifted_coeffs()
        g = _poly_gcd(ncoeffs, dcoeffs)
        gp = LaurentPoly.from_coeff_list(g)
        n1 = LaurentPoly.from_coeff_list(ncoeffs).divexact(gp)
        d1 = LaurentPoly.from_coeff_list(dcoeffs).divexact(gp)
        c = gcd(n1.content(), d1.content())
        if c > 1:
            n1 = n1.divexact(LaurentPoly({0: c}))
            d1 = d1.divexact(LaurentPoly({0: c}))
        if d1.leading_coeff() < 0:
            n1, d1 = -n1, -d1
        return n1.shift(nlo - dlo), d1

    @classmethod
    def zero(cls):
        return cls(LaurentPoly.zero(), LaurentPoly.one(), _canonical=True)

    @classmethod
    def one(cls):
        return cls(LaurentPoly.one(), LaurentPoly.one(), _canonical=True)

    @classmethod
    def from_poly(cls, p):
        return cls(p, LaurentPoly.one(), _canonical=True)

    def is_zero(self):
        return self.num.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            other = RationalFunc(other)
        if not isinstance(other, RationalFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            other = RationalFunc(other)
        if not isinstance(other, RationalFunc):
            return NotImplemented
        return RationalFunc(self.num * other.den + other.num * self.den,
                            self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunc(-self.num, self.den, _canonical=True)

    def __sub__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            other = RationalFunc(other)
        if not isinstance(other, RationalFunc):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return RationalFunc(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            other = RationalFunc(other)
        if not isinstance(other, RationalFunc):
            return NotImplemented
        return RationalFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RationalFunc(self.den, self.num)

    def __truediv__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            other = RationalFunc(other)
        if not isinstance(other, RationalFunc):
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = RationalFunc.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            if n > 1:
                base = base * base
            n >>= 1
        return out

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


# -- quantum numbers -------------------------------------------------------

def quantum_integer(n):
    """[n] = v^{n-1} + v^{n-3} + ... + v^{1-n}."""
    if n < 0:
        raise InputError("quantum integer of a negative number")
    return LaurentPoly({n - 1 - 2 * t: 1 for t in range(n)})


def quantum_factorial(n):
    """[n]! = [1] [2] ... [n]."""
    if n < 0:
        raise InputError("quantum factorial of a negative number")
    out = LaurentPoly.one()
    for k in range(2, n + 1):
        out = out * quantum_integer(k)
    return out


@lru_cache(maxsize=None)
def cyclotomic(n):
    """The n-th cyclotomic polynomial (in the working variable)."""
    if n < 1:
        raise InputError("cyclotomic index must be positive")
    p = LaurentPoly({n: 1, 0: -1})
    for d in range(1, n):
        if n % d == 0:
            p = p.divexact(cyclotomic(d))
    return p
