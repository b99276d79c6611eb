from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from quivermoduli.errors import InputError, NonPolynomialError
from quivermoduli.laurent import (LaurentPoly, RationalFunc, _binomial_lift_sum,
                                  _kronecker_mul, _pack, _poly_gcd, _unpack,
                                  cyclotomic, quantum_factorial, quantum_integer)


def P(d):
    return LaurentPoly(d)


class TestLaurentPoly:
    def test_arithmetic(self):
        x = LaurentPoly.var()
        assert (x + 1) * (x - 1) == P({2: 1, 0: -1})
        assert (x + 1) ** 2 == P({2: 1, 1: 2, 0: 1})
        assert x - x == LaurentPoly.zero()

    def test_negative_exponents(self):
        xinv = LaurentPoly.var(-1)
        assert xinv * LaurentPoly.var() == LaurentPoly.one()
        assert xinv ** 2 == P({-2: 1})

    def test_unit_monomial_negative_power(self):
        assert P({3: 1}) ** -2 == P({-6: 1})
        assert P({1: -1}) ** -3 == P({-3: -1})
        with pytest.raises(InputError):
            (LaurentPoly.var() + 1) ** -1

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

    def test_palindromic(self):
        assert P({2: 1, 0: 3, -2: 1}).is_palindromic()
        assert not P({2: 1, 0: 3}).is_palindromic()

    def test_halve_exponents(self):
        assert P({4: 1, 2: 2, 0: 1}).halve_exponents() == P({2: 1, 1: 2, 0: 1})
        with pytest.raises(InputError):
            P({1: 1}).halve_exponents()

    def test_json_round_trip(self):
        p = P({-1: 2, 3: -5})
        assert LaurentPoly.from_json(p.to_json()) == p
        assert p.to_json()["terms"][0]["coeff"] == "2"


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
        assert _kronecker_mul((-1, 1), (1,) * 40) == (-1,) + (0,) * 39 + (1,)
        lifted = _binomial_lift_sum([(ones, {1: 1}), (-ones, {1: 1})])
        assert lifted.is_zero()

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

    def test_sparse_wide_operands_stay_sparse(self):
        a = P({0: 1, 10 ** 9: 1})
        b = P({i: i + 1 for i in range(40)})
        assert len((a * b).items()) == 80
        lifted = _binomial_lift_sum([(a, {1: 1}), (b, {})])
        assert lifted == a * P({1: 1, 0: -1}) + b


def schoolbook(a, b):
    """Reference product: every pair of terms."""
    c = {}
    for e1, a1 in a.items():
        for e2, a2 in b.items():
            c[e1 + e2] = c.get(e1 + e2, 0) + a1 * a2
    return LaurentPoly(c)


def fraction_divexact(a, b):
    """Reference exact division: long division over Q, then integrality."""
    num, nlo = a.shifted_coeffs()
    den, dlo = b.shifted_coeffs()
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
        if a and b:
            (ca, la), (cb, lb) = a.shifted_coeffs(), b.shifted_coeffs()
            assert LaurentPoly.from_coeff_list(_kronecker_mul(ca, cb), la + lb) == want

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
        assert _binomial_lift_sum(terms) == want


def fraction_poly_gcd(a, b):
    """Reference gcd of ascending coefficient lists: Euclid over Q, made
    monic, then scaled to a primitive integer polynomial."""
    def trim(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    a, b = trim([Fraction(x) for x in a]), trim([Fraction(x) for x in b])
    while b:
        r = a[:]
        while len(r) >= len(b):
            c, off = r[-1] / b[-1], len(r) - len(b)
            for i, x in enumerate(b):
                r[off + i] -= c * x
            r = trim(r)
        a, b = b, r
    if not a:
        return [0]
    monic = [x / a[-1] for x in a]
    scale = lcm(*(x.denominator for x in monic))
    ints = [int(x * scale) for x in monic]
    g = gcd(*ints)
    return [x // g for x in ints]


def convolve(f, g):
    out = [0] * max(len(f) + len(g) - 1, 0)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


gcd_factors = st.lists(st.one_of(st.integers(-6, 6), st.integers(-2 ** 40, 2 ** 40)),
                       max_size=6)


class TestPolyGcdProperties:
    @settings(deadline=None, max_examples=300)
    @given(gcd_factors, gcd_factors, gcd_factors, st.integers(-6, 6), st.integers(-6, 6))
    def test_matches_fraction_reference(self, f, g, h, cf, cg):
        # a shared factor h and integer contents cf, cg, so the gcd is
        # usually nontrivial; trailing zeros and zero inputs included
        a = [cf * x for x in convolve(f, h)]
        b = [cg * x for x in convolve(g, h)]
        got = _poly_gcd(a, b)
        assert got == fraction_poly_gcd(a, b)
        assert got == [0] or (got[-1] > 0 and gcd(*got) == 1)

    def test_examples(self):
        assert _poly_gcd([-1, 0, 1], [2, 2]) == [1, 1]      # gcd(x^2-1, 2x+2)
        assert _poly_gcd([6], [4]) == [1]
        assert _poly_gcd([0, 0], []) == [0]
        assert _poly_gcd([0, -4, 0], [0]) == [0, 1]
        assert _poly_gcd([1, 1], [1, 2, 1, 0]) == [1, 1]


class TestRationalFunc:
    def test_canonical_cancellation(self):
        r = RationalFunc(P({2: 1, 0: -1}), P({1: 1, 0: -1}))
        assert r == RationalFunc(P({1: 1, 0: 1}))
        assert r.to_polynomial() == P({1: 1, 0: 1})

    def test_denominator_normalization(self):
        # common content and sign are removed, lowest denominator exponent 0
        a = RationalFunc(P({0: 2}), P({1: -4, 0: 4}))
        b = RationalFunc(P({0: -1}), P({1: 2, 0: -2}))
        assert a == b

    def test_field_ops(self):
        x = RationalFunc(LaurentPoly.var())
        r = (x + 1) / (x - 1)
        assert r * (x - 1) == x + 1
        assert r - r == RationalFunc.zero()
        assert r.inverse() * r == RationalFunc.one()
        assert (x ** -2) * (x ** 2) == RationalFunc.one()

    def test_to_polynomial_failure_carries_witness(self):
        r = RationalFunc(LaurentPoly.one(), P({1: 1, 0: -1}))
        with pytest.raises(NonPolynomialError) as exc:
            r.to_polynomial()
        assert exc.value.remainder == P({1: 1, 0: -1})

    def test_evaluate_and_poles(self):
        r = RationalFunc(P({1: 1, 0: 1}), P({1: 1, 0: -1}))
        assert r.evaluate(2) == 3
        with pytest.raises(ZeroDivisionError):
            r.evaluate(1)


small_poly = st.builds(
    lambda terms: LaurentPoly(dict(terms)),
    st.lists(st.tuples(st.integers(min_value=-3, max_value=3),
                       st.integers(min_value=-5, max_value=5)),
             max_size=4))


class TestRationalFuncProperties:
    @given(small_poly, small_poly, small_poly)
    def test_add_mul_consistent(self, a, b, c):
        # (a + b) * c == a*c + b*c through the canonical form
        if c.is_zero():
            return
        ra, rb, rc = RationalFunc(a), RationalFunc(b), RationalFunc(c, P({1: 1, 0: -1}))
        assert (ra + rb) * rc == ra * rc + rb * rc

    @given(small_poly, small_poly)
    def test_sub_then_add_round_trip(self, a, b):
        ra = RationalFunc(a, P({2: 1, 0: -1}))
        rb = RationalFunc(b, P({1: 1, 0: -1}))
        assert ra - rb + rb == ra


class TestQuantumNumbers:
    def test_quantum_integers(self):
        assert quantum_integer(1) == LaurentPoly.one()
        assert quantum_integer(2) == P({1: 1, -1: 1})
        assert quantum_integer(3) == P({2: 1, 0: 1, -2: 1})

    def test_factorial_values(self):
        assert quantum_factorial(0) == LaurentPoly.one()
        assert quantum_factorial(2) == P({1: 1, -1: 1})
        # [3]! = [2] [3]
        assert quantum_factorial(3) == quantum_integer(2) * quantum_integer(3)

    @given(st.integers(min_value=0, max_value=6))
    def test_factorial_palindromic_and_counts(self, n):
        f = quantum_factorial(n)
        assert f.is_palindromic()
        # at v = 1 the quantum factorial specializes to n!
        import math
        assert f.evaluate(1) == math.factorial(n)

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
