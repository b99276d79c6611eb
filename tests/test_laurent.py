import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quivermoduli.errors import InputError, NonPolynomialError
from quivermoduli.hn import CycloFrac
from quivermoduli.laurent import (LaurentPoly, RationalFunc, _gaussian_binomial,
                                  _lift_sum, _pack, _unpack, cyclotomic)

from conftest import fraction_divexact, halve_exponents


def P(d):
    return LaurentPoly(d)


class TestLaurentPoly:
    def test_arithmetic(self):
        x = P({1: 1})
        assert (x + 1) * (x - 1) == P({2: 1, 0: -1})
        assert (x + 1) ** 2 == P({2: 1, 1: 2, 0: 1})
        assert x - x == LaurentPoly.zero()

    def test_negative_exponents(self):
        xinv = P({-1: 1})
        assert xinv * P({1: 1}) == LaurentPoly.one()
        assert xinv ** 2 == P({-2: 1})

    def test_unit_monomial_negative_power(self):
        # refused for unit monomials too: `n >>= 1` stays at -1 in the loop
        for p in (P({3: 1}), P({1: 1}) + 1):
            with pytest.raises(InputError):
                p ** -1

    def test_divexact(self):
        num = P({2: 1, 0: -1})
        assert num.divexact(P({1: 1, 0: 1})) == P({1: 1, 0: -1})
        assert num.divexact(P({1: 1, 0: 2})) is None
        # works through powers of the variable
        assert P({3: 1, 1: -1}).divexact(P({2: 1, 1: 1})) == P({1: 1, 0: -1})

    def test_evaluate(self):
        p = P({1: 1, -1: 1})
        assert p.evaluate(2) == Fraction(5, 2)
        with pytest.raises(InputError):
            P({-1: 1}).evaluate(0)

    def test_json_round_trip(self):
        p = P({-1: 2, 3: -5})
        terms = p.to_json()["terms"]
        assert P({t["exp"]: int(t["coeff"]) for t in terms}) == p
        assert terms[0]["coeff"] == "2"


class TestIntegerKernels:
    def test_divexact_non_monic(self):
        # (x^2 - 1) / (2x + 2) = (x - 1)/2 is not integral
        assert P({2: 1, 0: -1}).divexact(P({1: 2, 0: 2})) is None
        assert P({2: 2, 0: -2}).divexact(P({1: 2, 0: 2})) == P({1: 1, 0: -1})
        assert P({2: 3, 0: -3}).divexact(P({0: 3})) == P({2: 1, 0: -1})
        assert P({2: 3, 0: -3}).divexact(P({0: 2})) is None

    def test_divexact_remainder_below_the_divisor(self):
        # the quotient x + 1 is integral, but a remainder 1 is left
        assert P({2: 1, 0: 0}).divexact(P({1: 1, 0: -1})) is None
        assert P({2: 1}).divexact(P({1: 1, 0: -1})) is None

    def test_products_that_cancel(self):
        ones = P({i: 1 for i in range(40)})
        assert ones * P({1: 1, 0: -1}) == P({40: 1, 0: -1})
        assert (LaurentPoly._of(0, (-1, 1)) * LaurentPoly._of(0, (1,) * 40)
                == LaurentPoly._of(0, (-1,) + (0,) * 39 + (1,)))
        assert _lift_sum([(0, (1,) * 40, {1: 1}), (0, (-1,) * 40, {1: 1})]) == (0, ())

    def test_large_coefficients_and_negative_exponents(self):
        big = 2 ** 100
        a = P({-50 + i: big - i for i in range(30)})
        b = P({-7 + 3 * i: -big * (i + 1) for i in range(30)})
        assert a * b == schoolbook(a, b)

    @pytest.mark.parametrize("k", [8, 16, 32, 64, 72, 136])
    def test_pack_unpack_round_trip(self, k):
        # machine-word widths go through signed arrays, the others through
        # bytes; the digit range [-2^(k-1), 2^(k-1)) is used at both ends
        half = 1 << (k - 1)
        co = (-half, half - 1, 0, 1, -1, -half, half - 1)
        value = _pack(co, k)
        assert value == sum(c << (k * i) for i, c in enumerate(co))
        assert _unpack(value, len(co), k) == co
        assert _unpack(_pack(co[:1], k), 1, k) == co[:1]


def schoolbook(a, b):
    """Reference product: every pair of terms."""
    c = {}
    for e1, a1 in a.items():
        for e2, a2 in b.items():
            c[e1 + e2] = c.get(e1 + e2, 0) + a1 * a2
    return LaurentPoly(c)


def binomial_lift_reference(p, factors):
    """p * prod (x^e - 1)^m, one binomial at a time."""
    for e, m in factors.items():
        for _ in range(m):
            p = schoolbook(p, P({e: 1, 0: -1}))
    return p


coefficients = st.one_of(st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70))


def polys(min_size=0, max_size=40, low=-30, high=30):
    return st.dictionaries(st.integers(low, high), coefficients,
                           min_size=min_size, max_size=max_size).map(LaurentPoly)


operands = st.one_of(polys(), polys(min_size=20, max_size=60),
                     polys(max_size=12, low=-3000, high=3000))
factors = st.dictionaries(st.integers(1, 12), st.integers(0, 5), max_size=4)


class TestIntegerKernelProperties:
    @settings(deadline=None)
    @given(operands, operands)
    def test_mul_matches_schoolbook(self, a, b):
        want = schoolbook(a, b)
        assert a * b == want

    @settings(deadline=None)
    @given(operands, operands)
    def test_divexact_inverts_mul(self, a, b):
        if b.is_zero():
            return
        assert (a * b).divexact(b) == a

    @settings(deadline=None)
    @given(polys(max_size=8, low=-6, high=12), polys(min_size=1, max_size=4, low=-3, high=4),
           polys(max_size=3, low=-3, high=3))
    def test_divexact_matches_fraction_reference(self, q, b, r):
        if b.is_zero():
            return
        a = q * b + r  # divisible exactly when r is a multiple of b
        assert a.divexact(b) == fraction_divexact(a, b)

    @settings(deadline=None)
    @given(st.lists(st.tuples(operands, factors), max_size=4))
    def test_lift_matches_repeated_binomial_products(self, terms):
        want = LaurentPoly()
        for p, f in terms:
            want = want + binomial_lift_reference(p, f)
        dense = [(p.lo, p.co, f) for p, f in terms if p]
        lo, co = _lift_sum(dense) if dense else (0, ())
        assert LaurentPoly._of(lo, co) == want
        assert not co or (co[0] and co[-1])


def assert_canonical(p):
    """The parts of p are a tuple with nonzero ends, or (0, ()) for zero."""
    assert type(p.co) is tuple
    assert (p.co[0] and p.co[-1]) if p.co else p.lo == 0


class TestCanonicalParts:
    @settings(deadline=None)
    @given(operands, operands, st.integers(-50, 50))
    def test_every_path_gives_canonical_parts(self, a, b, k):
        x = P({1: 1})
        two = (a + 2) - a
        doubled = P({2 * e: c for e, c in a.items()})
        cancelled = CycloFrac(a * (x - 1), {1: 1}).reduce()
        r1 = CycloFrac(a * (x ** 2 - 1), {2: 1, 3: 1}).reduce()
        r2 = CycloFrac(a, {3: 1}).reduce()
        # each result beside the same value reached another way
        pairs = [
            (a + b, b + a), (a - b, -(b - a)), (two, P({0: 2})), (a + 0, a),
            (a * b, b * a), (a * 1, a), (a ** 2, a * a),
            (a * P({k: 1}), P({e + k: c for e, c in a.items()})),
            ((a * b).divexact(b) if b else a, a), (halve_exponents(doubled), a),
            (P(dict(a.items())), a), (cancelled.num, a), (cancelled.den, 1),
            (r1.num, r2.num), (r1.den, r2.den),
        ]
        for got, other in pairs:
            other = P({0: other}) if isinstance(other, int) else other
            assert_canonical(got)
            assert_canonical(other)
            assert got == other and hash(got) == hash(other)
        assert hash(two) == hash(2) and r1 == r2 and hash(r1) == hash(r2)


class TestRationalFunc:
    def test_canonical_cancellation(self):
        # the canonical form comes from CycloFrac.reduce
        r = CycloFrac(P({2: 1, 0: -1}), {1: 1}).reduce()
        assert r == RationalFunc(P({1: 1, 0: 1}))
        assert r.to_polynomial() == P({1: 1, 0: 1})

    def test_denominator_needs_proof(self):
        # no gcd normalizes a denominator, so one not proven canonical is refused
        with pytest.raises(InputError):
            RationalFunc(P({0: 2}), P({1: -4, 0: 4}))
        with pytest.raises(InputError):
            RationalFunc(P({0: -1}), P({1: 2, 0: -2}))

    def test_hash_agrees_with_equality(self):
        for value in (0, 5, P({1: 1})):
            poly = P({0: value}) if isinstance(value, int) else value
            rf = RationalFunc(value)
            assert poly == value and rf == value and rf == poly
            assert hash(poly) == hash(value) == hash(rf)
            assert len({value, poly, rf}) == 1

    def test_to_polynomial_failure_carries_witness(self):
        r = RationalFunc(LaurentPoly.one(), P({1: 1, 0: -1}), _canonical=True)
        with pytest.raises(NonPolynomialError) as exc:
            r.to_polynomial()
        assert exc.value.remainder == P({1: 1, 0: -1})

    def test_evaluate_and_poles(self):
        r = RationalFunc(P({1: 1, 0: 1}), P({1: 1, 0: -1}), _canonical=True)
        assert r.evaluate(2) == 3
        with pytest.raises(ZeroDivisionError):
            r.evaluate(1)


class TestQuantumNumbers:
    def test_cyclotomics(self):
        assert cyclotomic(1) == P({1: 1, 0: -1})
        assert cyclotomic(2) == P({1: 1, 0: 1})
        assert cyclotomic(6) == P({2: 1, 1: -1, 0: 1})
        # product of cyclotomics over divisors reassembles x^n - 1
        n = 12
        prod = LaurentPoly.one()
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic(d)
        assert prod == P({12: 1, 0: -1})

    def test_gaussian_binomials(self):
        # [n choose k]_x D(k) D(n - k) = D(n) for D(n) = prod_{i <= n} (x^i - 1);
        # it is palindromic and its value at 1 is C(n, k)
        dens = [LaurentPoly.one()]
        for n in range(1, 26):
            dens.append(dens[-1] * P({n: 1, 0: -1}))
        for n in range(26):
            for k in range(n + 1):
                g = LaurentPoly._of(0, _gaussian_binomial(n, k))
                assert g * dens[k] * dens[n - k] == dens[n], (n, k)
                assert g.co == g.co[::-1] and g.co[0] == 1
                assert sum(g.co) == math.comb(n, k)
