"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line (outside pytest's capture) so the result of every criterion is
visible in the run log.
"""

import itertools
import math
import random
import time
from fractions import Fraction
from functools import lru_cache

import pytest

from quivermoduli.cli import main as cli_main
from quivermoduli.generic import generic_ext
from quivermoduli.hn import (betti_coefficients, betti_via_mass, mass_ss,
                             mass_ss_closed, poincare)
from quivermoduli.oracle import (FFRep, count_semistable, enumerate_reps,
                                 has_comp_series, is_indecomposable,
                                 is_semistable, kronecker_quadratic_form,
                                 min_generic_ext)
from quivermoduli.quiver import DimVector, Quiver, Stability, kronecker_quiver
from quivermoduli.roots import classify_root
from quivermoduli.series import two_row_partition_series
from quivermoduli.words import MonoidOutcome, monoid_equal, word_leq, word_weight
from quivermoduli.words import _relations  # noqa: internal, used as test data

from conftest import group_order, halve_exponents, theta_value

A2 = Quiver(["i", "j"], [("i", "j")])
A3 = Quiver(["1", "2", "3"], [("1", "2"), ("2", "3")])
K = {m: kronecker_quiver(m) for m in (1, 2, 3, 4)}
THETA_I = Stability({"i": 1})

K3_TABLES = {
    (1, 1): [1, 1, 1],
    (2, 3): [1, 1, 3, 3, 3, 1, 1],
    (3, 4): [1, 1, 3, 5, 8, 10, 12, 10, 8, 5, 3, 1, 1],
    (4, 5): [1, 1, 3, 5, 10, 14, 23, 30, 41, 46, 51, 46, 41, 30, 23, 14,
             10, 5, 3, 1, 1],
}
K3_67_PREFIX = [1, 1, 3, 5, 10, 16, 29, 43, 69, 100, 149, 206, 289, 380,
                504, 635, 792, 942, 1102, 1221, 1316, 1339]


def report(capsys, num, ok, desc):
    with capsys.disabled():
        print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def dvec(quiver, *vals):
    return DimVector(dict(zip(quiver.vertices, vals)))


# ---------------------------------------------------------------------------
# shared catalog for criteria 2 and 7

@lru_cache(maxsize=1)
def catalog():
    """(quiver, theta, d) triples over the small quiver zoo."""
    out = []
    for q in (K[1], K[2], K[3], K[4], A2):
        for a in range(4):
            for b in range(4):
                if 1 <= a + b <= 5:
                    out.append((q, THETA_I, dvec(q, a, b)))
    for theta in (Stability({"1": 1}), Stability({"1": 2, "2": 1})):
        for t in itertools.product(range(3), repeat=3):
            if 1 <= sum(t) <= 4:
                out.append((A3, theta, dvec(A3, *t)))
    return out


def test_c1_betti_tables_of_three_arrow_kronecker(capsys):
    started = time.perf_counter()
    ok = True
    for (a, b), row in K3_TABLES.items():
        d = dvec(K[3], a, b)
        ok = ok and betti_coefficients(K[3], THETA_I, d) == row
        ok = ok and betti_coefficients(K[3], THETA_I, d, method="mass") == row
    big = betti_coefficients(K[3], THETA_I, dvec(K[3], 6, 7))
    ok = ok and big[:len(K3_67_PREFIX)] == K3_67_PREFIX
    # bundled fixture set (all seven rows, both methods, plus the series)
    ok = ok and cli_main(["fixtures", "run"]) == 0
    elapsed = time.perf_counter() - started
    ok = ok and elapsed <= 60
    report(capsys, 1, ok,
           f"Betti tables for the 3-arrow Kronecker quiver reproduced "
           f"exactly in {elapsed:.1f}s")


def test_c2_mass_methods_cross_check(capsys):
    triples = catalog()
    assert len(triples) >= 50
    ok = True
    checked_poincare = 0
    for q, theta, d in triples:
        rec = mass_ss(q, theta, d)
        ok = ok and rec == mass_ss_closed(q, theta, d)
        if math.gcd(abs(theta_value(theta, d)), d.total()) == 1:
            bm = betti_via_mass(q, theta, d)
            p = poincare(q, theta, d)
            half = halve_exponents(p)
            ok = ok and bm == half
            checked_poincare += 1
    report(capsys, 2, ok,
           f"recursive and closed semistable masses agree on "
           f"{len(triples)} triples; (q-1)*mass matches the Poincare "
           f"polynomial in {checked_poincare} coprime cases")


def test_c3_point_counts_match_masses(capsys):
    # K2 and A2 at |d| <= 4 over F_2 and F_3; K3 at every d <= (2,3) over
    # F_2, K3 (2,2) over F_3 and K4 (2,2) over F_2
    triples = [(q, (a, b), p) for q in (K[2], A2) for a in range(5)
               for b in range(5) if 1 <= a + b <= 4 for p in (2, 3)]
    triples += [(K[3], (a, b), 2) for a in range(3) for b in range(4) if a + b]
    triples += [(K[3], (2, 2), 3), (K[4], (2, 2), 2)]
    ok = True
    cases = 0
    for q, (a, b), p in triples:
        d = dvec(q, a, b)
        count = count_semistable(q, THETA_I, d, p)
        expect = mass_ss(q, THETA_I, d).evaluate(p)
        ok = ok and Fraction(count, group_order(q, d, p)) == expect
        cases += 1
    report(capsys, 3, ok,
           f"finite-field semistable counts match the stack masses in "
           f"{cases} cases (including empty loci)")


def test_c4_generic_ext_vs_oracle_minimum(capsys):
    ok = True
    cases = 0
    for q in (K[1], K[2], K[3], A2):
        vecs = [dvec(q, a, b) for a in range(4) for b in range(4)
                if 1 <= a + b <= 3]
        for d in vecs:
            for e in vecs:
                if d.total() + e.total() > 4:
                    continue
                want = generic_ext(q, d, e)
                for p in (2, 3):
                    ok = ok and min_generic_ext(q, d, e, p) == want
                    cases += 1
    report(capsys, 4, ok,
           f"generic ext equals the oracle minimum of ext over all "
           f"representation pairs in {cases} cases")


def _indecomposable_exists(quiver, d, q):
    t = quiver.tup(d)
    if sum(1 for x in t if x) == 1:
        # single-vertex support: the representation is a bare vector space
        return max(t) == 1
    return any(is_indecomposable(X) for X in enumerate_reps(quiver, d, q))


def test_c5_roots_match_indecomposables(capsys):
    ok = True
    cases = 0
    zoo = [(K[2], [(a, b) for a in range(5) for b in range(5)
                   if 1 <= a + b <= 4]),
           (A2, [(a, b) for a in range(5) for b in range(5)
                 if 1 <= a + b <= 4]),
           (A3, [t for t in itertools.product(range(5), repeat=3)
                 if 1 <= sum(t) <= 4])]
    for q, dims in zoo:
        for t in dims:
            d = dvec(q, *t)
            is_root = classify_root(q, d).kind != "not-root"
            for p in (2, 3):
                ok = ok and _indecomposable_exists(q, d, p) == is_root
                cases += 1
    report(capsys, 5, ok,
           f"positive roots coincide with dimension vectors of "
           f"indecomposables in {cases} cases")


def _check_quadric(X, m, theta):
    """The quadric of the (2,2) rep X of K_m is nonzero iff X is
    theta-semistable, and its rank is at most min(4, m)."""
    q = X.q
    coeffs, rank = kronecker_quadratic_form(X.mats, q)
    nonzero = any(c % q for c in coeffs.values())
    return nonzero == is_semistable(X, theta) and rank <= min(4, m)


def test_c6_quadric_criterion_for_two_two(capsys):
    ok = True
    cases = 0
    # full enumeration where feasible
    for m, q in [(2, 3), (2, 5), (3, 3)]:
        quiver = kronecker_quiver(m)
        for X in enumerate_reps(quiver, dvec(quiver, 2, 2), q):
            ok = ok and _check_quadric(X, m, THETA_I)
            cases += 1
        if not ok:
            break
    # seeded samples for the larger parameter sets
    rng = random.Random(20260826)
    for m, q in [(4, 3), (3, 5), (4, 5)]:
        quiver = kronecker_quiver(m)
        samples = [[[[0, 0], [0, 0]] for _ in range(m)]]  # the zero tuple
        for _ in range(1000):
            samples.append([[[rng.randrange(q) for _ in range(2)]
                             for _ in range(2)] for _ in range(m)])
        for mats in samples:
            X = FFRep(quiver, q, dvec(quiver, 2, 2), mats)
            ok = ok and _check_quadric(X, m, THETA_I)
            cases += 1
    # the reference 4-tuple over F_5 spans a rank-4 quadratic form
    shown = [[[1, 0], [0, 1]], [[2, 0], [0, -2]],
             [[0, 1], [-1, 0]], [[0, 2], [2, 0]]]
    coeffs, rank = kronecker_quadratic_form(shown, 5)
    ok = ok and rank == 4
    X = FFRep(K[4], 5, dvec(K[4], 2, 2), shown)
    ok = ok and _check_quadric(X, 4, THETA_I)
    report(capsys, 6, ok,
           f"semistability of (2,2)-tuples is detected by the determinant "
           f"quadric in {cases} cases; reference tuple has rank 4")


def test_c7_poincare_shape_properties(capsys):
    ok = True
    cases = 0
    for q, theta, d in catalog():
        if math.gcd(abs(theta_value(theta, d)), d.total()) != 1:
            continue
        p = poincare(q, theta, d)
        if not p.co:
            continue
        ok = ok and p.co == p.co[::-1]
        b = betti_coefficients(q, theta, d)
        ok = ok and b[0] == 1 and b[-1] == 1
        ok = ok and len(b) - 1 == 1 - q.euler(d, d)
        cases += 1
    report(capsys, 7, ok,
           f"all {cases} nonzero Poincare polynomials are palindromic with "
           f"constant term 1 and top degree 1 - <d,d>")


def test_c8_partition_series_asymptotics(capsys):
    series = list(two_row_partition_series(6))
    betti = betti_coefficients(K[3], THETA_I, dvec(K[3], 6, 7))
    ok = series == [1, 1, 3, 5, 10, 16, 29] and betti[:7] == series
    report(capsys, 8, ok,
           "two-row partition series matches the stable Betti numbers of "
           "the (6,7) moduli space through degree 6")


@lru_cache(maxsize=None)
def _points(quiver, word):
    return frozenset(X for X in enumerate_reps(quiver, word_weight(quiver, word), 2)
                     if has_comp_series(X, word))


def test_c9_composition_monoid_soundness(capsys):
    ok = True
    rel_cases = 0
    for quiver in (A2, K[2]):
        letters = quiver.vertices
        for lhs, rhs in _relations(quiver):
            room = 4 - len(lhs)
            for pre_n in range(room + 1):
                for post_n in range(room - pre_n + 1):
                    for pre in itertools.product(letters, repeat=pre_n):
                        for post in itertools.product(letters, repeat=post_n):
                            w1 = pre + lhs + post
                            w2 = pre + rhs + post
                            ok = ok and monoid_equal(quiver, w1, w2) is \
                                MonoidOutcome.EQUAL
                            ok = ok and _points(quiver, w1) == \
                                _points(quiver, w2)
                            rel_cases += 1
        # degeneration: w <= w2 implies containment of point sets
        words = [w for n in range(5)
                 for w in itertools.product(letters, repeat=n)]
        for w1 in words:
            for w2 in words:
                if word_leq(quiver, w1, w2):
                    ok = ok and _points(quiver, w1) >= _points(quiver, w2)
    report(capsys, 9, ok,
           f"straightening relations are sound for the oracle point sets "
           f"({rel_cases} instances) and the degeneration order gives "
           f"containment for all words of length <= 4")
