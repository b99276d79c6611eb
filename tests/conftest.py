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


class ReferenceMonoid:
    """Reference congruence closure: a breadth-first search over tuples of
    vertex names that slices every position for every relation, each
    relation as often as the loops below list it.  It shares no code with
    ``words``."""

    @staticmethod
    def relations(quiver):
        rels = []
        for i in quiver.vertices:
            for j in quiver.vertices:
                if i == j or quiver.arrow_count(j, i) > 0:
                    continue
                n = quiver.arrow_count(i, j)
                rels.append(((i,) * (n + 1) + (j,), (i,) * n + (j, i)))
                rels.append(((i,) + (j,) * (n + 1), (j, i) + (j,) * n))
        return [r for r in rels if r[0] != r[1]]

    @staticmethod
    def rewrites(word, rels):
        for lhs, rhs in rels:
            for a, b in ((lhs, rhs), (rhs, lhs)):
                n = len(a)
                for p in range(len(word) - n + 1):
                    if word[p:p + n] == a:
                        yield word[:p] + b + word[p + n:]

    @classmethod
    def monoid_class(cls, quiver, word, budget):
        """(set of words reachable from word, closure-completed flag)."""
        word = tuple(word)
        rels = cls.relations(quiver)
        seen = {word}
        frontier = [word]
        while frontier:
            nxt = []
            for u in frontier:
                for v in cls.rewrites(u, rels):
                    if v not in seen:
                        if len(seen) >= budget:
                            return seen, False
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        return seen, True

    @classmethod
    def outcomes(cls, quiver, w, w2, size):
        """The values of ``MonoidOutcome`` for w against w2 at the budgets 1 to
        size + 1, where the class of w has ``size`` words.  The closure at
        budget b is the first min(b, size) words found, complete when
        b >= size, so it holds w2 from one budget on; that budget is found by
        bisection."""
        w, w2 = tuple(w), tuple(w2)
        budgets = range(1, size + 2)
        if sorted(w) != sorted(w2):
            return ["not-equal" for _ in budgets]
        lo, hi = 1, size + 1
        while lo < hi:
            mid = (lo + hi) // 2
            if w2 in cls.monoid_class(quiver, w, mid)[0]:
                hi = mid
            else:
                lo = mid + 1
        found = w2 in cls.monoid_class(quiver, w, lo)[0]
        return ["equal" if found and b >= lo else
                "not-equal" if b >= size else "undecided-at-budget" for b in budgets]


class ReferenceRoots:
    """Reference reflection descent on ``DimVector``s through
    ``Quiver.symmetric_form``, as ``roots`` ran before it moved to tuples.
    It shares no code with ``roots`` and has no reflection budget;
    ``classify_root`` gives (kind, witness, endpoint)."""

    @staticmethod
    def _is_simple(quiver, d):
        return sum(quiver.tup(d)) == 1

    @staticmethod
    def _support_connected(quiver, d):
        supp = d.support()
        if not supp:
            return False
        seen = {next(iter(supp))}
        frontier = list(seen)
        while frontier:
            u = frontier.pop()
            for v in supp:
                if v not in seen and quiver.arrow_count(u, v) + quiver.arrow_count(v, u):
                    seen.add(v)
                    frontier.append(v)
        return seen == supp

    @classmethod
    def classify_root(cls, quiver, d):
        witness = []
        while True:
            if cls._is_simple(quiver, d):
                return "real", tuple(witness), d
            reflected = False
            positive_pairing = False
            for v in quiver.vertices:
                if d[v] == 0:
                    continue
                p = quiver.symmetric_form(d, quiver.simple(v))
                if p <= 0:
                    continue
                positive_pairing = True
                if d[v] - p >= 0:
                    d = DimVector({w: d[w] - (p if w == v else 0)
                                   for w in quiver.vertices})
                    witness.append(v)
                    reflected = True
                    break
            if reflected:
                continue
            if positive_pairing:
                return "not-root", tuple(witness), None
            if cls._support_connected(quiver, d):
                return "imaginary", tuple(witness), d
            return "not-root", tuple(witness), None

    @classmethod
    def positive_roots_up_to(cls, quiver, bound):
        out = []
        for d in quiver.vectors_below(bound):
            kind = cls.classify_root(quiver, d)[0]
            if kind != "not-root":
                out.append((d, kind))
        return out
