import functools
import json
import math
import time
from collections import Counter
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from quivermoduli import generic, hn
from quivermoduli.errors import BudgetExceeded, CoprimalityError, InputError
from quivermoduli.generic import generic_subrep
from quivermoduli.hn import (HNType, betti_coefficients, betti_via_mass, hn_types,
                             mass, mass_ss, mass_ss_closed, poincare, ss_nonempty)
from quivermoduli.laurent import LaurentPoly, RationalFunc, _pack, cyclotomic
from quivermoduli.quiver import (VECTOR_BUDGET, DimVector, Quiver, Stability,
                                 _context, _contexts, kronecker_quiver)

from conftest import (Frac, ReferenceHN, ThetaContext, binomial_product, cyclofrac,
                      dim_leq, dim_sub, dv, fraction_divexact, halve_exponents, less,
                      memo_entries, poly_add, poly_divexact, poly_mul, poly_neg,
                      reference_bounds, reference_hn_types, reference_parts,
                      reference_ss_nonempty, slope, theta_value)


A3 = Quiver(["1", "2", "3"], [("1", "2"), ("2", "3")])
D4 = Quiver(["a", "b", "c", "d"], [("a", "d"), ("b", "d"), ("c", "d")])
# two stabilities per quiver, each with nonempty and empty semistable loci
A3_THETAS = [Stability({"1": 1}), Stability({"1": 2, "2": 1})]
D4_THETAS = [Stability({"a": 1, "b": 1, "c": 1}), Stability({"a": 1, "b": -1})]


def nonzero_below(quiver, *bound):
    return [d for d in quiver.vectors_below(DimVector(dict(zip(quiver.vertices, bound))))
            if not d.is_zero()]


def R(num, den=None):
    return Frac(LaurentPoly(num), LaurentPoly(den) if den else None)


class TestCycloFrac:
    def test_add_and_reduce(self):
        half = cyclofrac(1, {1: 1})          # 1/(x-1)
        other = cyclofrac(1, {2: 1})         # 1/(x^2-1)
        s = (half + other).reduce()
        assert s == R({1: 1, 0: 2}, {2: 1, 0: -1})  # (x+2)/(x^2-1)

    def test_full_cancellation(self):
        # (x^6 - 1)/((x^2-1)(x^3-1)) reduces to (x^2 - x + 1)/(x - 1)
        a = cyclofrac(LaurentPoly({6: 1, 0: -1}), {2: 1, 3: 1})
        assert a.reduce() == R({2: 1, 1: -1, 0: 1}, {1: 1, 0: -1})
        assert a.reduce().evaluate(2) == Fraction(63, 21)


small_polys = st.dictionaries(st.integers(-4, 6), st.integers(-4, 4),
                              max_size=5).map(LaurentPoly)
cyclo_dens = st.dictionaries(st.integers(1, 8), st.integers(0, 3), max_size=3)


class TestCycloFracProperties:
    @settings(deadline=None)
    @given(small_polys, cyclo_dens, cyclo_dens)
    def test_reduce_is_canonical(self, p, shared, den):
        # num shares the factors of ``shared`` with the denominator, so the
        # reduction has cyclotomics to cancel
        for e, m in shared.items():
            den[e] = den.get(e, 0) + m
        num = poly_mul(p, binomial_product(shared))
        r = cyclofrac(num, den).reduce()
        assert r == Frac(num, binomial_product(den))
        # canonical: the denominator has low exponent 0 and a positive
        # leading coefficient, and it is a product of cyclotomics, its
        # irreducible factors, none of which divides the numerator
        assert r.den.lo == 0 and r.den.co[-1] > 0
        rest = r.den
        for n in range(1, max(den, default=0) + 1):
            phi = cyclotomic(n)
            while (q := fraction_divexact(rest, phi)) is not None:
                assert fraction_divexact(r.num, phi) is None, n
                rest = q
        assert rest == 1

    @settings(deadline=None)
    @given(st.lists(st.tuples(small_polys, cyclo_dens), max_size=12))
    def test_sum_matches_rational_function_sum(self, parts):
        # the reference expands each denominator by plain multiplication and
        # adds reference fractions, so it shares no code with the
        # common-denominator bookkeeping or the packed lifts of CycloFrac.__add__
        terms = [cyclofrac(p, den) for p, den in parts]
        expected = Frac(0)
        for p, den in parts:
            expected = expected + Frac(p, binomial_product(den))
        assert sum(terms, cyclofrac(0)).reduce() == expected

    @settings(deadline=None)
    @given(small_polys, st.integers(2, 12), st.integers(1, 3), cyclo_dens, st.data())
    def test_reduce_partial_binomial(self, p, e, m, den, data):
        # the numerator shares some but not all cyclotomic factors of
        # x^e - 1, so that whole binomial fails and its cyclotomics are
        # tried one by one; the reference does trial division only
        divisors = [n for n in range(1, e + 1) if e % n == 0]
        shared = data.draw(st.lists(st.sampled_from(divisors), min_size=1,
                                    max_size=len(divisors) - 1, unique=True))
        num = poly_mul(p, *map(cyclotomic, shared))
        den[e] = den.get(e, 0) + m
        r = cyclofrac(num, den).reduce()
        assert (r.num, r.den) == ReferenceHN.canonical((num, den))


wide_polys = st.dictionaries(st.integers(-20, 40), st.integers(-2 ** 70, 2 ** 70),
                             min_size=1, max_size=30).map(LaurentPoly)
dense_parts = st.tuples(st.one_of(small_polys, wide_polys), cyclo_dens)


class TestDenseCycloFracProperties:
    @settings(deadline=None, max_examples=150)
    @given(st.lists(dense_parts, min_size=1, max_size=6))
    def test_matches_rational_functions(self, parts):
        # the dense numerators against reference fraction arithmetic; wide
        # operands take wide packed digits
        terms = [cyclofrac(p, den) for p, den in parts]
        got = sum(terms, cyclofrac(0))
        assert got.reduce() == sum((Frac(p, binomial_product(den))
                                    for p, den in parts), Frac(0))
        # a dense numerator with nonzero ends, or () for zero
        assert not got.co or (got.co[0] and got.co[-1])
        for (p, _), t in zip(parts, terms):
            assert (t.lo, t.co) == (p.lo, p.co)


class TestMass:
    def test_single_vertex(self):
        q = Quiver(["x"], [])
        assert mass(q, DimVector({"x": 1})) == R({0: 1}, {1: 1, 0: -1})
        # d = 2: 1 / |GL_2| = 1 / (q (q-1)(q^2-1))
        assert mass(q, DimVector({"x": 2})) == \
            R({0: 1}, {4: 1, 3: -1, 2: -1, 1: 1})

    def test_single_vertex_denominator(self):
        # 1 / |GL_n(q)| = q^(-n(n-1)/2) / prod_{k <= n} (q^k - 1): every
        # cyclotomic is left over, and the sieve lifts them back into whole
        # binomials
        q = Quiver(["x"], [])
        want = LaurentPoly({0: 1})
        for n in range(1, 151):
            want = poly_mul(want, LaurentPoly({n: 1, 0: -1}))
            if n <= 30 or n == 150:
                got = mass(q, DimVector({"x": n}))
                assert got.den == want
                assert got.num == LaurentPoly({-n * (n - 1) // 2: 1})

    def test_single_vertex_at_300(self):
        # the canonical denominator is lifted from whole binomials q^k - 1
        start = time.perf_counter()
        mass(Quiver(["x"], []), DimVector({"x": 300}))
        assert time.perf_counter() - start < 10

    def test_k2_one_one(self, k2):
        # q^2 / (q-1)^2
        assert mass(k2, dv(i=1, j=1)) == R({2: 1}, {2: 1, 1: -2, 0: 1})

    def test_zero_vector(self, k2):
        assert mass(k2, dv()) == 1


class TestSSNonempty:
    def test_examples(self, k2, a2, theta_i):
        assert ss_nonempty(k2, theta_i, dv(i=1, j=1))
        assert ss_nonempty(k2, theta_i, dv(i=2, j=2))
        assert not ss_nonempty(a2, theta_i, dv(i=2, j=1))
        assert ss_nonempty(a2, theta_i, dv(i=1, j=1))
        assert ss_nonempty(a2, theta_i, dv(i=1))

    def test_zero_rejected(self, k2, theta_i):
        with pytest.raises(InputError):
            ss_nonempty(k2, theta_i, dv())


class TestHNTypes:
    def test_a2_one_one(self, a2, theta_i):
        types = {t.parts: t.codim for t in hn_types(a2, theta_i, dv(i=1, j=1))}
        assert types == {(dv(i=1, j=1),): 0,
                         (dv(i=1), dv(j=1)): 1}

    def test_unique_zero_codim(self, k2, k3, a2, theta_i):
        for q in (k2, k3, a2):
            for d in q.vectors_below(dv(i=2, j=2)):
                if d.is_zero():
                    continue
                types = hn_types(q, theta_i, d)
                zero = [t for t in types if t.codim == 0]
                assert len(zero) == 1
                # slopes strictly decrease along every type
                for t in types:
                    slopes = [slope(theta_i, p) for p in t.parts]
                    assert slopes == sorted(slopes, reverse=True)
                    assert sum(t.parts, DimVector({})) == d


class TestMassSS:
    def test_k2_one_one(self, k2, theta_i):
        assert mass_ss(k2, theta_i, dv(i=1, j=1)) == \
            R({1: 1, 0: 1}, {1: 1, 0: -1})

    def test_empty_locus_gives_zero(self, a2, theta_i):
        assert mass_ss(a2, theta_i, dv(i=2, j=1)) == 0

    def test_closed_matches_recursive(self, k2, k3, a2, theta_i):
        cases = [(q, [theta_i], nonzero_below(q, 2, 2)) for q in (k2, k3, a2)]
        cases += [(A3, A3_THETAS, nonzero_below(A3, 2, 2, 2)),
                  (D4, D4_THETAS, nonzero_below(D4, 1, 1, 1, 2))]
        for q, thetas, dims in cases:
            for theta in thetas:
                for d in dims:
                    assert mass_ss(q, theta, d) == mass_ss_closed(q, theta, d)

    def test_hn_partition_of_mass(self, k3, theta_i):
        # sum over HN types of q^{-sum_{k<l} <d^l, d^k>} prod mass_ss(d^k)
        # recovers the full stack mass
        for d in [dv(i=1, j=1), dv(i=2, j=1), dv(i=2, j=2)]:
            total = Frac(0)
            for t in hn_types(k3, theta_i, d):
                term = Frac(1)
                for p in t.parts:
                    term = term * mass_ss(k3, theta_i, p)
                shift = -sum(k3.euler(t.parts[l], t.parts[k])
                             for k in range(len(t.parts))
                             for l in range(k + 1, len(t.parts)))
                term = term * LaurentPoly({shift: 1})
                total = total + term
            assert total == mass(k3, d)

    def test_theta_shift_invariance(self, k3):
        t1 = Stability({"i": 1})
        t2 = Stability({"i": 4, "j": 3})  # same slope order: theta + 3 dim
        for d in [dv(i=1, j=1), dv(i=2, j=3)]:
            assert mass_ss(k3, t1, d) == mass_ss(k3, t2, d)


class TestPoincareBetti:
    def test_k3_one_one_is_projective_plane(self, k3, theta_i):
        # moduli space is P^2: Poincare polynomial 1 + v^2 + v^4
        assert poincare(k3, theta_i, dv(i=1, j=1)) == \
            LaurentPoly({0: 1, 2: 1, 4: 1})
        assert betti_coefficients(k3, theta_i, dv(i=1, j=1)) == [1, 1, 1]
        assert betti_coefficients(k3, theta_i, dv(i=1, j=1), method="mass") \
            == [1, 1, 1]

    def test_k2_one_one_is_projective_line(self, k2, theta_i):
        assert betti_coefficients(k2, theta_i, dv(i=1, j=1)) == [1, 1]

    def test_methods_agree(self, k3, theta_i):
        cases = [(k3, [theta_i], [dv(i=2, j=3), dv(i=3, j=4)]),
                 (A3, A3_THETAS, nonzero_below(A3, 2, 2, 2)),
                 (D4, D4_THETAS, nonzero_below(D4, 1, 1, 1, 2))]
        compared = 0
        for q, thetas, dims in cases:
            for theta in thetas:
                for d in dims:
                    try:
                        closed = betti_coefficients(q, theta, d, method="closed")
                    except CoprimalityError:
                        continue
                    assert closed == betti_coefficients(q, theta, d, method="mass")
                    compared += bool(closed)
        assert compared >= 20  # enough nonempty moduli spaces to mean something

    @pytest.mark.parametrize("arrows", [2, 3, 4])
    def test_methods_agree_on_kronecker_quivers(self, arrows):
        # every d <= (8, 8) with theta(d) coprime to dim d, at theta = (1, 0)
        # and (-1, 2), each method on cold caches
        quiver = kronecker_quiver(arrows)
        compared = 0
        for theta in (Stability({"i": 1}), Stability({"i": -1, "j": 2})):
            for d in nonzero_below(quiver, 8, 8):
                if math.gcd(theta_value(theta, d), d.total()) != 1:
                    continue
                hn.clear_caches()
                closed = betti_coefficients(quiver, theta, d)
                hn.clear_caches()
                assert betti_coefficients(quiver, theta, d, method="mass") == closed, \
                    (theta, d)
                compared += bool(closed)
        assert compared >= {2: 4, 3: 30, 4: 30}[arrows]

    def test_betti_via_mass_is_q_minus_one_times_mass(self, k3, theta_i):
        d = dv(i=2, j=3)
        prod = mass_ss(k3, theta_i, d) * R({1: 1, 0: -1})
        assert RationalFunc(betti_via_mass(k3, theta_i, d)) == prod

    def test_coprimality_enforced(self, k2, theta_i):
        with pytest.raises(CoprimalityError):
            poincare(k2, theta_i, dv(i=2, j=2))
        with pytest.raises(CoprimalityError):
            betti_via_mass(k2, theta_i, dv(i=2, j=2))

    def test_empty_moduli(self, a2, theta_i):
        assert betti_coefficients(a2, theta_i, dv(i=2, j=1)) == []

    def test_unknown_method(self, k2, theta_i):
        with pytest.raises(InputError):
            betti_coefficients(k2, theta_i, dv(i=1, j=1), method="bogus")


def v_weight_poincare(quiver, theta, d):
    """The Poincare polynomial in v from the resolved sum with v-weights:
    R(g) = sum over e <= g, the rest g - e zero or of slope above mu(d), of
    -w(e) R(g - e) v^(2 a(e, g)) (w(e) alone at e = g), with w(e) the inverse
    q-multifactorial prod_i 1/(e_i)_{v^2}!, normalized as
    v^(-sum_i d_i (d_i - 1)) R(d) / (v^2 - 1)^(dim d - 1).  It runs on
    DimVector and Fraction slopes and sums the fractions of ``ReferenceHN``,
    apart from ``hn``'s recursions."""
    mu = slope(theta, d)
    memo = {}

    def pairing(x, y):
        return sum(x[s] * y[t] for s, t in quiver.arrows)

    def weight(e):
        den = {}
        for n in e.values():
            for k in range(1, n + 1):
                den[2 * k] = den.get(2 * k, 0) + 1
        return poly_mul(*[LaurentPoly({2: 1, 0: -1})] * e.total()), den

    def resolved(g):
        if g not in memo:
            terms = []
            for e in quiver.vectors_below(g):
                num, den = weight(e)
                if e != g:
                    if not slope(theta, dim_sub(g, e)) > mu:
                        continue
                    num, den = ReferenceHN.mul((poly_neg(num), den),
                                               resolved(dim_sub(g, e)))
                terms.append((poly_mul(num, LaurentPoly({2 * pairing(e, g): 1})), den))
            memo[g] = ReferenceHN.add(terms)
        return memo[g]

    norm = (LaurentPoly({-sum(n * (n - 1) for n in d.values()): 1}),
            {2: d.total() - 1})
    num, den = ReferenceHN.canonical(ReferenceHN.mul(resolved(d), norm))
    assert den == 1, den
    return num


KRONECKER_THETAS = [(1, 0), (4, 3), (0, 1), (-1, 2)]


class TestPoincareTwoWays:
    CASES = {f"K{m}": (kronecker_quiver(m),
                       [Stability({"i": a, "j": b}) for a, b in KRONECKER_THETAS],
                       (5, 5)) for m in (1, 2, 3, 4)}
    CASES["A3"] = (A3, A3_THETAS, (2, 2, 2))
    CASES["D4"] = (D4, D4_THETAS, (1, 1, 1, 2))

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_v_weights_and_hn_recursion_match_poincare(self, name):
        # the closed Poincare polynomial, (q - 1) mass_ss_closed with q = v^2,
        # against the v-weight resolved sum and against the HN recursion
        quiver, thetas, bound = self.CASES[name]
        compared = 0
        for theta in thetas:
            for d in nonzero_below(quiver, *bound):
                try:
                    p = poincare(quiver, theta, d)
                except CoprimalityError:
                    continue
                assert p == v_weight_poincare(quiver, theta, d), (theta, d)
                assert halve_exponents(p) == betti_via_mass(quiver, theta, d)
                compared += bool(p.co)
        assert compared >= 5


class TestAgainstReference:
    # K1-K4 at d <= (5, 5) with four stabilities; A3 and the D4 star with
    # three each
    CASES = {f"K{m}": (kronecker_quiver(m),
                       [Stability({"i": a, "j": b}) for a, b in KRONECKER_THETAS],
                       (5, 5)) for m in (1, 2, 3, 4)}
    CASES["A3"] = (A3, A3_THETAS + [Stability({"1": 1, "3": -1})], (2, 2, 2))
    CASES["D4"] = (D4, D4_THETAS + [Stability({"a": 1, "b": 1, "c": 1, "d": -1})],
                   (2, 1, 1, 2))

    @staticmethod
    def answers(source, quiver, theta, d):
        """mass_ss and mass_ss_closed as (num, den), then poincare and
        betti_via_mass, None where theta(d) and dim d are not coprime."""
        if source is hn:
            def call(name):
                out = getattr(hn, name)(quiver, theta, d)
                return (out.num, out.den) if isinstance(out, RationalFunc) else out
        else:
            def call(name):
                return getattr(source, name)(d)
        out = [call("mass_ss"), call("mass_ss_closed")]
        coprime = math.gcd(theta_value(theta, d), d.total()) == 1
        out += [call("poincare"), call("betti_via_mass")] if coprime else [None, None]
        return out

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bit_identical_to_reference(self, name):
        # every answer equals, part for part, that of the least-common-
        # denominator recursions, cold and on a context that served the
        # largest d first
        quiver, thetas, bound = self.CASES[name]
        largest = DimVector(dict(zip(quiver.vertices, bound)))
        dims = nonzero_below(quiver, *bound)
        nonzero = 0
        for theta in thetas:
            reference = ReferenceHN(quiver, theta)
            expected = [self.answers(reference, quiver, theta, d) for d in dims]
            for d, want in zip(dims, expected):
                hn.clear_caches()
                assert self.answers(hn, quiver, theta, d) == want, (theta, d)
                nonzero += bool(want[0][0].co)
            hn.clear_caches()
            self.answers(hn, quiver, theta, largest)
            for d, want in zip(dims, expected):
                assert self.answers(hn, quiver, theta, d) == want, (theta, d)
        assert nonzero >= len(thetas)


def king_semistable(quiver, theta, d):
    """King's criterion on the general representation of dimension d: it has
    no subrepresentation of larger slope, where its subrepresentation
    dimensions are Schofield's generic ones."""
    mu = slope(theta, d)
    return not any(slope(theta, e) > mu for e in quiver.vectors_below(d)
                   if e != d and generic_subrep(quiver, e, d))


# quiver, bound on d, bound on dim d
SEMISTABILITY_CASES = {
    "A2": (Quiver(["i", "j"], [("i", "j")]), (3, 3), 5),
    "K1": (kronecker_quiver(1), (3, 3), 5),
    "K2": (kronecker_quiver(2), (3, 3), 5),
    "K3": (kronecker_quiver(3), (3, 3), 5),
    "A3": (A3, (2, 2, 2), 4),
    "D4": (D4, (1, 1, 1, 2), 4),
}


class TestSemistabilityThreeWays:
    @pytest.mark.parametrize("name", sorted(SEMISTABILITY_CASES))
    def test_hn_king_and_mass_agree(self, name):
        # four deciders of "the semistable locus is nonempty": ss_nonempty by
        # King's criterion on the shared subrepresentation table, the search
        # for a flat HN type, King's criterion through generic_subrep one e
        # at a time, and a nonzero semistable mass
        quiver, bound, max_total = SEMISTABILITY_CASES[name]
        dims = [d for d in nonzero_below(quiver, *bound) if d.total() <= max_total]
        empty = 0
        for values in product(range(-1, 3), repeat=len(quiver.vertices)):
            theta = Stability(dict(zip(quiver.vertices, values)))
            ctx = ThetaContext(quiver, theta)
            for d in dims:
                by_king = ss_nonempty(quiver, theta, d)
                assert by_king == reference_ss_nonempty(ctx, quiver.tup(d)), (values, d)
                assert by_king == king_semistable(quiver, theta, d), (values, d)
                assert by_king == bool(mass_ss(quiver, theta, d).num.co), (values, d)
                empty += not by_king
        assert empty  # every case has empty loci, so the deciders are tested both ways


# quiver, stabilities and bound on d of the grid on which ss_nonempty and
# hn_types are compared with the flat search and the HN type search that
# they replaced: 1,593 (theta, d) cases in all
REFERENCE_GRID = {f"K{m}": (kronecker_quiver(m),
                            [Stability({"i": a, "j": b}) for a, b in KRONECKER_THETAS],
                            (6, 6)) for m in (1, 2, 3, 4)}
REFERENCE_GRID.update({
    name: (quiver, [Stability(dict(zip("123", v)))
                    for v in ((1, 0, 0), (2, 1, 0), (1, 0, -1), (0, 1, 0))], (3, 3, 3))
    for name, quiver in (("A3", A3),
                         ("A3-sink", Quiver(["1", "2", "3"], [("1", "2"), ("3", "2")])))})
REFERENCE_GRID["D4"] = (D4, D4_THETAS + [Stability({"a": 1, "b": 1, "c": 1, "d": -1})],
                        (3, 2, 2, 2))


class TestAgainstSearch:
    @pytest.mark.parametrize("name", sorted(REFERENCE_GRID))
    def test_ss_nonempty_and_hn_types_match(self, name):
        quiver, thetas, bound = REFERENCE_GRID[name]
        dims = nonzero_below(quiver, *bound)
        for theta in thetas:
            hn.clear_caches()
            ctx = ThetaContext(quiver, theta)
            for d in dims:
                t = quiver.tup(d)
                assert ss_nonempty(quiver, theta, d) == reference_ss_nonempty(ctx, t), \
                    (theta, d)
                want = [(parts, -sum(ctx.euler(a, b) for k, a in enumerate(parts)
                                     for b in parts[k + 1:]))
                        for parts in reference_hn_types(ctx, t)]
                assert [(tuple(map(quiver.tup, h.parts)), h.codim)
                        for h in hn_types(quiver, theta, d)] == want, (theta, d)


def numerators(max_coeff):
    """Nonzero numerator records (lo, co, height, length, packs) with
    coefficients up to max_coeff in absolute value, all positive half of the
    time, so that no cancellation hides a digit width that is too narrow,
    and no packed form yet."""
    coeffs = st.one_of(st.integers(1, max_coeff), st.integers(-max_coeff, max_coeff))

    def record(args):
        lo, co = args
        co = [c or 1 for c in co]
        return lo, tuple(co), max(map(abs, co)), sum(map(abs, co)), {}

    return st.tuples(st.integers(-6, 6),
                     st.lists(coeffs, min_size=1, max_size=24)).map(record)


def fixed_denominator(g):
    return binomial_product(Counter(k for n in g for k in range(1, n + 1)))


def laurent_sums(ctx, g, terms, cuts):
    """The sums of ``hn._binomial_sum`` by schoolbook products, with
    B(g, e) found by exact division of the fixed denominators."""
    running = LaurentPoly({hn._weight_exp(ctx, g): 1})
    sums = []
    for j, (e, s, p, q) in enumerate(terms):
        sums += [running] * cuts.count(j)
        rest = tuple(x - y for x, y in zip(g, e))
        binomial = poly_divexact(fixed_denominator(g),
                                 poly_mul(fixed_denominator(e), fixed_denominator(rest)))
        term = poly_mul(binomial, LaurentPoly._of(p[0] + s, p[1]))
        if q is not None:
            term = poly_mul(term, LaurentPoly._of(q[0], q[1]))
        running = poly_add(running, poly_neg(term))
    return sums + [running] * (cuts.count(len(terms)) + 1)


def assert_sums(got, want):
    """Each record of ``got`` is the numerator ``want`` gives, born with one
    packed form, its own at the digit width of the sum, and equal
    consecutive records are one record."""
    assert len(got) == len(want)
    widths = set()
    for (lo, co, height, length, packs), poly in zip(got, want):
        assert LaurentPoly._of(lo, co) == poly
        if not co:
            assert (height, length, packs) == (0, 0, None)
            continue
        assert (height, length) == (max(map(abs, co)), sum(map(abs, co)))
        [(n, m, width)] = packs
        assert (n, m) == (0, 0) and packs[n, m, width] == _pack(co, width)
        widths.add(width)
    assert len(widths) <= 1
    for a, b in zip(got, got[1:]):
        assert (a == b) == (a is b)


class TestBinomialSum:
    @settings(deadline=None, max_examples=250)
    @given(st.data())
    def test_matches_laurent_arithmetic(self, data):
        # the packed convolution against schoolbook products, with
        # repeated cuts, so empty chunks, half of the time; half of the time
        # every P and Q is one of two drawn records, so that one record is P
        # under several e or both P and Q, and must keep each packed form
        # apart
        quiver = data.draw(st.sampled_from([kronecker_quiver(2), A3]))
        g = tuple(data.draw(st.lists(st.integers(0, 5), min_size=len(quiver.vertices),
                                     max_size=len(quiver.vertices))))
        parts = [e for e in product(*(range(n + 1) for n in g)) if any(e)]
        if not parts:
            return
        big = data.draw(st.sampled_from([2 ** 8, 2 ** 40, 2 ** 62, 2 ** 90]))
        records = (st.sampled_from([data.draw(numerators(big)) for _ in range(2)])
                   if data.draw(st.booleans()) else numerators(big))
        terms = []
        for _ in range(data.draw(st.integers(0, 8))):
            e = data.draw(st.sampled_from(parts))
            terms.append((e, data.draw(st.integers(-8, 8)), data.draw(records),
                          data.draw(st.one_of(st.none(), records))))
        terms.sort(key=lambda t: t[0])
        cuts = data.draw(st.lists(st.integers(0, len(terms)), max_size=6))
        if cuts and data.draw(st.booleans()):
            cuts += cuts[:2]
        cuts.sort()
        hn.clear_caches()
        ctx = _context(quiver)
        got = hn._binomial_sum(hn._Query(ctx, (0,) * len(g), g), g, terms, cuts)
        assert_sums(got, laurent_sums(ctx, g, terms, cuts))
        ends = cuts + [len(terms)]
        for (a, b), (i, j) in zip(zip(got, got[1:]), zip(ends, ends[1:])):
            if i == j:
                assert a is b  # no term since the previous cut

    def test_repeated_cuts_and_empty_chunks(self, k2):
        # cuts at 0, 0, 2, 2, 2 and 4 of four terms, the last two of which
        # cancel: the sums at 0 are one record, and those from 2 on another
        g = (2, 2)
        p, q = (0, (1, -2, 3), 3, 6, {}), (1, (4, 5), 5, 9, {})
        minus_p = (0, (-1, 2, -3), 3, 6, {})
        terms = [((1, 0), 1, p, q),
                 ((1, 1), 0, q, None),
                 ((2, 1), 2, p, q),
                 ((2, 1), 2, minus_p, q)]
        cuts = [0, 0, 2, 2, 2, 4]
        hn.clear_caches()
        ctx = _context(k2)
        got = hn._binomial_sum(hn._Query(ctx, (0, 0), g), g, terms, cuts)
        assert_sums(got, laurent_sums(ctx, g, terms, cuts))
        assert got[0] is got[1] and got[1] != got[2]
        assert all(r is got[2] for r in got[2:])

    @pytest.mark.parametrize("method", ["closed", "mass"])
    def test_packs_each_record_once_per_width(self, k3, theta_i, method, monkeypatch):
        # K3 (9, 10): every _pack call packs a coefficient tuple not yet
        # packed at its width
        pack, packed, seen = hn._pack, [], set()

        def counted_pack(co, width):
            packed.append(co)  # kept alive, so that no id is reused
            seen.add((id(co), width))
            return pack(co, width)

        hn.clear_caches()
        monkeypatch.setattr(hn, "_pack", counted_pack)
        betti_coefficients(k3, theta_i, dv(i=9, j=10), method=method)
        assert packed and len(packed) == len(seen)

    @pytest.mark.parametrize("method, most", [("closed", 97), ("mass", 397)])
    def test_records_are_born_packed(self, k3, theta_i, method, most, monkeypatch):
        # K3 (9, 10): each record comes out of its sum packed at the sum's
        # width, so no _pack call packs it at that width, and the calls fall
        # from 144 (closed) and 574 (mass) to at most 97 and 397
        pack, binomial_sum = hn._pack, hn._binomial_sum
        born, calls = {}, []

        def counted_sum(*args):
            out = binomial_sum(*args)
            for _, co, _, _, packs in out:
                if co:
                    [(_, _, width)] = packs
                    born[id(co)] = co, width  # kept alive, so that no id is reused
            return out

        def counted_pack(co, width):
            calls.append((co, width))
            return pack(co, width)

        hn.clear_caches()
        monkeypatch.setattr(hn, "_binomial_sum", counted_sum)
        monkeypatch.setattr(hn, "_pack", counted_pack)
        betti_coefficients(k3, theta_i, dv(i=9, j=10), method=method)
        assert born and calls and len(calls) <= most
        assert not [co for co, width in calls if born.get(id(co)) == (co, width)]

    @pytest.mark.parametrize("method", ["closed", "mass"])
    def test_builds_each_binomial_once_per_query(self, k3, theta_i, method,
                                                monkeypatch):
        # K3 (9, 10) from a cold cache: the cache of [n choose m] misses once
        # for each (n, min(m, n - m)) asked for, however many digit widths
        # pack it, and the next cold query misses none
        gaussian, asked = hn._gaussian_binomial, set()

        def spy(n, m):
            asked.add((n, min(m, n - m)))
            return gaussian(n, m)

        monkeypatch.setattr(hn, "_gaussian_binomial", spy)
        gaussian.cache_clear()
        hn.clear_caches()
        row = betti_coefficients(k3, theta_i, dv(i=9, j=10), method=method)
        assert asked and gaussian.cache_info().misses == len(asked)
        hn.clear_caches()
        assert betti_coefficients(k3, theta_i, dv(i=9, j=10), method=method) == row
        assert gaussian.cache_info().misses == len(asked)

    def test_mass_unpacks_each_distinct_record_once(self, k3, theta_i, monkeypatch):
        # K3 (9, 10) by the HN recursion: one _unpack per distinct record of
        # each pass, though most passes read T(f; b) at equal cuts
        calls, records, seen = [0], [0], [0]
        unpack, binomial_sum = hn._unpack, hn._binomial_sum

        def counted_unpack(*args):
            calls[0] += 1
            return unpack(*args)

        def counted_sum(*args):
            out = binomial_sum(*args)
            records[0] += sum(j == 0 or r is not out[j - 1] for j, r in enumerate(out))
            seen[0] += len(out)
            return out

        hn.clear_caches()
        monkeypatch.setattr(hn, "_unpack", counted_unpack)
        monkeypatch.setattr(hn, "_binomial_sum", counted_sum)
        row = betti_coefficients(k3, theta_i, dv(i=9, j=10), method="mass")
        monkeypatch.undo()
        assert row == betti_coefficients(k3, theta_i, dv(i=9, j=10))
        assert calls[0] == records[0] < seen[0] // 2


class TestSlopeTable:
    # every top-level d up to the bound, every f <= d
    CASES = {f"K{m}": (kronecker_quiver(m),
                       [Stability({"i": a, "j": b}) for a, b in KRONECKER_THETAS],
                       (6, 6)) for m in (1, 2, 3, 4)}
    CASES["A3"] = (A3, A3_THETAS, (2, 2, 2))
    CASES["D4"] = (D4, D4_THETAS, (1, 1, 1, 2))

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bounds_and_parts_match_reference(self, name):
        # L(f) and the parts of f from the query against the comprehensions
        # over slope pairs that the HN pass ran before
        quiver, thetas, bound = self.CASES[name]
        tops = [quiver.tup(d) for d in nonzero_below(quiver, *bound)]
        for theta in thetas:
            ctx = ThetaContext(quiver, theta)
            for top in tops:
                query = hn._Query(ctx.base, ctx.theta, top)
                for f in query.rank:
                    want = reference_bounds(ctx, top, f)
                    bounds = query.bounds(f)
                    assert [query.slopes[r] for r in bounds] == want, (theta, top, f)
                    parts = query.parts(f)
                    want_parts = reference_parts(ctx, f)
                    assert [(query.slopes[r], e) for r, e in parts] == want_parts
                    # the parts of rank <= r are those of slope >= slopes[r]
                    for r in bounds:
                        assert [e for s, e in parts if s <= r] == \
                            [e for mu, e in want_parts if not less(mu, query.slopes[r])]


class TestCaches:
    def test_warm_equals_cold(self, k3):
        questions = [(k3, Stability({"i": 1}), DimVector({"i": 2, "j": 3})),
                     (A3, A3_THETAS[1], DimVector({"1": 1, "2": 2, "3": 1})),
                     (D4, D4_THETAS[0], DimVector({"a": 1, "b": 1, "c": 1, "d": 2}))]

        def answers():
            out = []
            for q, theta, d in questions:
                out += [mass(q, d), ss_nonempty(q, theta, d), hn_types(q, theta, d),
                        mass_ss(q, theta, d), mass_ss_closed(q, theta, d)]
                for method in ("closed", "mass"):
                    try:
                        out.append(betti_coefficients(q, theta, d, method=method))
                    except CoprimalityError as exc:
                        out.append(str(exc))
            return out

        hn.clear_caches()
        cold = answers()
        assert _contexts
        warm = answers()
        hn.clear_caches()
        assert not _contexts
        assert warm == cold == answers()

    def test_generic_and_hn_share_the_store(self, k3):
        # generic and hn memoize in the one store; interleaved queries on one
        # quiver must answer warm as they did cold, whichever module clears
        theta = Stability({"i": 1})
        dims = [DimVector({"i": a, "j": b}) for a, b in ((2, 3), (3, 2), (1, 2))]

        def answers():
            out = []
            for d in dims:
                out += [generic.generic_decomposition(k3, d), mass(k3, d),
                        generic.schur_test(k3, d), mass_ss(k3, theta, d),
                        generic.generic_ext(k3, d, dims[0]),
                        hn_types(k3, theta, d),
                        generic.generic_hom(k3, dims[1], d)]
            return out

        assert generic.clear_caches is hn.clear_caches
        hn.clear_caches()
        cold = answers()
        for clear in (generic.clear_caches, hn.clear_caches):
            assert answers() == cold
            assert _context(k3).memo
            clear()
            assert not _contexts
            assert answers() == cold

    def test_store_keeps_no_theta_state(self, k3):
        # the store keeps one context per quiver and no entry of hn, whose
        # theta-dependent state lives for one call
        hn.clear_caches()
        for values in ((1, 0), (2, -1)):
            theta = Stability(dict(zip(k3.vertices, values)))
            for d in (dv(i=2, j=3), dv(i=3, j=4)):
                mass_ss(k3, theta, d)
                mass_ss_closed(k3, theta, d)
                ss_nonempty(k3, theta, d)
                hn_types(k3, theta, d)
                for method in ("closed", "mass"):
                    betti_coefficients(k3, theta, d, method=method)
        assert _contexts and all(isinstance(key, Quiver) for key in _contexts)
        assert not [key for ctx in _contexts.values() for key in ctx.memo
                    if getattr(key[0], "__module__", None) == hn.__name__]

    # (quiver, theta with negative entries, [small d, larger d, d incomparable
    # with the larger one])
    WARM_CASES = {
        "K3": (kronecker_quiver(3), Stability({"i": 2, "j": -1}),
               [(1, 2), (3, 4), (4, 2)]),
        "A3": (A3, Stability({"1": 1, "3": -1}), [(1, 1, 1), (2, 2, 1), (1, 1, 2)]),
        "D4": (D4, Stability({"a": 1, "b": 1, "c": 1, "d": -1}),
               [(1, 1, 0, 1), (1, 1, 1, 2), (2, 1, 0, 1)]),
    }

    @staticmethod
    def mass_answers(quiver, theta, d):
        try:
            betti = betti_coefficients(quiver, theta, d, method="mass")
        except CoprimalityError as exc:
            betti = str(exc)
        return mass_ss(quiver, theta, d), betti

    @pytest.mark.parametrize("name", sorted(WARM_CASES))
    def test_warm_orders_equal_cold(self, name):
        # each call fills the HN memo of its own query under its own d;
        # later, larger or incomparable d must still be right
        quiver, theta, values = self.WARM_CASES[name]
        small, large, other = (DimVector(dict(zip(quiver.vertices, v)))
                               for v in values)
        assert not (dim_leq(other, large) or dim_leq(large, other))
        cold = {}
        for d in (small, large, other):
            hn.clear_caches()
            cold[d] = self.mass_answers(quiver, theta, d)
            hn.clear_caches()
            assert cold[d][0] == mass_ss_closed(quiver, theta, d)
        for order in permutations((small, large, other)):
            hn.clear_caches()
            for d in order:
                assert self.mass_answers(quiver, theta, d) == cold[d], (order, d)

    @pytest.mark.parametrize("name", sorted(WARM_CASES))
    def test_warm_hn_types_equal_cold(self, name):
        quiver, theta, values = self.WARM_CASES[name]
        dims = [DimVector(dict(zip(quiver.vertices, v))) for v in values]
        cold = {}
        for d in dims:
            hn.clear_caches()
            cold[d] = hn_types(quiver, theta, d)
            assert cold[d]
        for order in permutations(dims):
            hn.clear_caches()
            for d in order:
                assert hn_types(quiver, theta, d) == cold[d], (order, d)
                assert hn_types(quiver, theta, d) == cold[d], (order, d)

    def test_hn_types_list_is_the_callers(self, k3, theta_i):
        d = dv(i=2, j=3)
        hn.clear_caches()
        first = hn_types(k3, theta_i, d)
        want = list(first)
        first.reverse()
        first.append(None)
        assert hn_types(k3, theta_i, d) == want
        assert hn_types(k3, theta_i, d) is not hn_types(k3, theta_i, d)


def assert_refused(error, call):
    """``call()`` raises ``error`` and adds no memo entry."""
    before = memo_entries()
    with pytest.raises(error):
        call()
    assert memo_entries() == before


BETTI_CALLS = {
    "poincare": lambda q, th, d: hn.poincare(q, th, d).to_json(),
    "betti_via_mass": lambda q, th, d: hn.betti_via_mass(q, th, d).to_json(),
    "betti closed": lambda q, th, d: hn.betti_coefficients(q, th, d, method="closed"),
    "betti mass": lambda q, th, d: hn.betti_coefficients(q, th, d, method="mass"),
}


def hn_answers(quiver, theta, d):
    """The JSON text of every memoized public answer of ``hn`` at d.  Where
    theta(d) and dim d are not coprime, each Betti call must be refused
    without a memo entry.  Names are looked up on the module, so a wrapped
    public name is the one called."""
    out = {"mass": hn.mass(quiver, d).to_json(),
           "ss_nonempty": hn.ss_nonempty(quiver, theta, d),
           "hn_types": [t.to_json() for t in hn.hn_types(quiver, theta, d)],
           "mass_ss": hn.mass_ss(quiver, theta, d).to_json(),
           "mass_ss_closed": hn.mass_ss_closed(quiver, theta, d).to_json()}
    coprime = math.gcd(theta_value(theta, d), d.total()) == 1
    for name, call in BETTI_CALLS.items():
        if coprime:
            out[name] = call(quiver, theta, d)
        else:
            assert_refused(CoprimalityError, lambda: call(quiver, theta, d))
    return json.dumps(out, sort_keys=True)


class TestWarmAnswers:
    # K1-K4 at d <= (5, 5) with four stabilities, A3 at d <= (2, 2, 2) and
    # the D4 star at d <= (1, 1, 1, 2)
    CASES = TestPoincareTwoWays.CASES

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_second_call_equals_cold(self, name):
        # a repeat reads the numerators a cold call stored and builds the
        # same answer; a list the caller changes is its own
        quiver, thetas, bound = self.CASES[name]
        for theta in thetas:
            for d in nonzero_below(quiver, *bound):
                hn.clear_caches()
                cold = hn_answers(quiver, theta, d)
                assert hn_answers(quiver, theta, d) == cold, (theta, d)
                types = hn.hn_types(quiver, theta, d)
                types.reverse()
                types.append(None)
                assert hn_answers(quiver, theta, d) == cold, (theta, d)

    def test_refusals_on_every_call(self, k3, theta_i):
        # refusals run before any memo lookup, on a cold store and a warm one
        single = Quiver(["x"], [])
        zero, even = dv(), dv(i=2, j=2)  # theta(even) = 2, dim even = 4
        calls = [(InputError, lambda fn=fn: fn(k3, theta_i, zero))
                 for fn in (hn.ss_nonempty, hn.hn_types, hn.mass_ss,
                            hn.mass_ss_closed, hn.poincare, hn.betti_via_mass,
                            hn.betti_coefficients)]
        calls += [(CoprimalityError, lambda call=call: call(k3, theta_i, even))
                  for call in BETTI_CALLS.values()]
        # more factors than the budget, and a denominator of degree 500500
        calls += [(BudgetExceeded, lambda n=n: hn.mass(single, DimVector({"x": n})))
                  for n in (VECTOR_BUDGET + 1, 1000)]
        hn.clear_caches()
        for _ in range(2):
            for error, call in calls:
                assert_refused(error, call)
        assert memo_entries() == 0
        hn_answers(k3, theta_i, even)
        hn.mass(single, DimVector({"x": 3}))
        assert memo_entries()
        for _ in range(2):
            for error, call in calls:
                assert_refused(error, call)


class TestWrappedPublicNames:
    QUESTIONS = [
        (kronecker_quiver(3), Stability({"i": 1}), DimVector({"i": 2, "j": 3})),
        (A3, A3_THETAS[1], DimVector({"1": 1, "2": 2, "3": 1})),
        (D4, D4_THETAS[0], DimVector({"a": 1, "b": 1, "c": 1, "d": 2}))]

    @classmethod
    def answers(cls):
        out = []
        for q, theta, d in cls.QUESTIONS:
            out += [hn_answers(q, theta, d),
                    [p.to_json() for p in generic.generic_decomposition(q, d)],
                    generic.schur_test(q, d), generic.generic_ext(q, d, d),
                    generic.generic_hom(q, d, d), generic.generic_subrep(q, d, d)]
        return out

    def test_warm_repeat_adds_no_entry(self, monkeypatch):
        # the bench tracer rebinds each public function of a module to a
        # pass-through wrapper for its traced passes only; memo keys are
        # private functions, so a repeat through the wrappers finds what a
        # plain pass stored, and the other way round
        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return fn(*args, **kwargs)
            return wrapper

        def wrap_public_names():
            for module in (hn, generic):
                for name in module.__all__:
                    fn = getattr(module, name)
                    if name != "clear_caches" and not isinstance(fn, type):
                        monkeypatch.setattr(module, name, wrap(fn))

        for wrapped_first in (False, True):
            monkeypatch.undo()
            hn.clear_caches()
            if wrapped_first:
                wrap_public_names()
            first = self.answers()
            entries = memo_entries()
            if wrapped_first:
                monkeypatch.undo()
            else:
                wrap_public_names()
            assert self.answers() == first
            assert memo_entries() == entries
            assert all(key[0].__name__.startswith("_")
                       for ctx in _contexts.values() for key in ctx.memo)

    def test_memo_keeps_no_final_form(self):
        # the memo keeps what a recursion reads: integer tuples, numerator
        # records and packed integers, never an answer in its public form
        final = (RationalFunc, LaurentPoly, HNType, DimVector)

        def holds_final_form(value):
            if isinstance(value, final):
                return True
            if isinstance(value, dict):
                value = [*value, *value.values()]
            elif not isinstance(value, (tuple, list, set, frozenset)):
                return False
            return any(isinstance(x, final) for x in value)

        hn.clear_caches()
        self.answers()
        values = [v for ctx in _contexts.values() for v in ctx.memo.values()]
        assert values and not any(map(holds_final_form, values))


class TestInputEdge:
    def test_unknown_theta_vertex(self, a2):
        with pytest.raises(InputError, match="unknown vertex 'I'"):
            betti_coefficients(a2, Stability({"I": 1}), dv(i=1, j=1))
        with pytest.raises(InputError, match="unknown vertex"):
            ss_nonempty(a2, Stability({"i": 1, "x": 0}), dv(i=1))

    def test_unknown_dimension_vertex(self, k3, theta_i):
        for fn in (ss_nonempty, hn_types, mass_ss, mass_ss_closed, poincare):
            with pytest.raises(InputError, match="unknown vertices"):
                fn(k3, theta_i, dv(x=1))
