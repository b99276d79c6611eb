from fractions import Fraction

import pytest

from quivermoduli import generic, hn
from quivermoduli.laurent import LaurentPoly
from quivermoduli.quiver import DimVector, Quiver, Stability, kronecker_quiver


@pytest.fixture(scope="session")
def a2():
    return Quiver(["i", "j"], [("i", "j")])


@pytest.fixture(scope="session")
def a3():
    return Quiver(["1", "2", "3"], [("1", "2"), ("2", "3")])


@pytest.fixture(scope="session")
def k1():
    return kronecker_quiver(1)


@pytest.fixture(scope="session")
def k2():
    return kronecker_quiver(2)


@pytest.fixture(scope="session")
def k3():
    return kronecker_quiver(3)


@pytest.fixture(scope="session")
def theta_i():
    return Stability({"i": 1})


def dv(**kw):
    return DimVector(kw)


class Frac:
    """Reference rational function: a pair (num, den) of LaurentPolys with
    +, - and *, equal by cross-multiplication.  It shares no code with
    ``hn.CycloFrac`` and takes no gcd.  Operands may be ints, LaurentPolys,
    or anything with ``num`` and ``den``, such as a RationalFunc."""

    def __init__(self, num, den=None):
        self.num = LaurentPoly({0: num}) if isinstance(num, int) else num
        self.den = LaurentPoly.one() if den is None else den

    @staticmethod
    def of(x):
        return Frac(x) if isinstance(x, (int, LaurentPoly)) else Frac(x.num, x.den)

    def __add__(self, other):
        o = Frac.of(other)
        return Frac(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return Frac(-self.num, self.den)

    def __sub__(self, other):
        return self + -Frac.of(other)

    def __mul__(self, other):
        o = Frac.of(other)
        return Frac(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __eq__(self, other):
        o = Frac.of(other)
        return self.num * o.den == o.num * self.den


def fraction_divexact(a, b):
    """Reference exact division: long division over Q, then integrality."""
    num, nlo = a.co, a.lo
    den, dlo = b.co, b.lo
    if a.is_zero():
        return LaurentPoly()
    if len(num) < len(den):
        return None
    num = [Fraction(x) for x in num]
    dn = len(den)
    quot = [Fraction(0)] * (len(num) - dn + 1)
    for i in range(len(num) - dn, -1, -1):
        c = num[i + dn - 1] / den[-1]
        quot[i] = c
        for j in range(dn):
            num[i + j] -= c * den[j]
    if any(num) or any(c.denominator != 1 for c in quot):
        return None
    return LaurentPoly({nlo - dlo + i: int(c) for i, c in enumerate(quot)})
