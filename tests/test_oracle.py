import ast
import functools
import math
import random
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction
from itertools import islice, permutations, product
from operator import mul
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from quivermoduli import oracle
from quivermoduli.errors import BudgetExceeded, InputError
from quivermoduli.oracle import (FFRep, count_comp_series, count_indecomposable,
                                 count_semistable, count_stable,
                                 enumerate_reps, ext_dim,
                                 has_comp_series,
                                 hom_dim, is_indecomposable, is_semistable,
                                 is_simple_tuple, is_stable,
                                 kronecker_quadratic_form, min_generic_ext,
                                 rep_count, subspace_count)
from quivermoduli.quiver import DimVector, Quiver, Stability, kronecker_quiver

from conftest import dv, reference_enumerate_reps


def a2_rep(a2, q, entries, d=None):
    d = d or dv(i=1, j=1)
    return FFRep(a2, q, d, [entries])


class TestRepBasics:
    def test_counts(self, a2, k2):
        assert rep_count(a2, dv(i=1, j=1), 3) == 3
        assert rep_count(k2, dv(i=1, j=1), 2) == 4
        assert rep_count(a2, dv(), 5) == 1

    def test_enumeration_exact_and_deterministic(self, a2):
        reps = list(enumerate_reps(a2, dv(i=1, j=1), 3))
        assert len(reps) == 3
        assert len(set(reps)) == 3
        assert reps == list(enumerate_reps(a2, dv(i=1, j=1), 3))

    def test_budget(self, k2):
        with pytest.raises(BudgetExceeded) as exc:
            list(enumerate_reps(k2, dv(i=2, j=2), 5, budget=10))
        assert exc.value.required == 5 ** 8
        assert exc.value.budget == 10

    def test_shape_validation(self, a2):
        with pytest.raises(InputError):
            FFRep(a2, 2, dv(i=1, j=1), [[(0, 0)]])
        with pytest.raises(InputError):
            FFRep(a2, 4, dv(i=1, j=1), [[(0,)]])  # 4 is not prime

    def test_arrow_count_is_checked_before_shapes(self, a3):
        d = DimVector({"1": 1, "2": 1, "3": 1})
        # one matrix short or one too many, each of the wrong shape
        for mats in ([[[0, 0]]], [[[0, 0]]] * 3, (m for m in [[[0], [0]]])):
            with pytest.raises(InputError, match="^need one matrix per arrow$"):
                FFRep(a3, 2, d, mats)

    def test_first_bad_arrow_is_named(self, a3):
        d = DimVector({"1": 1, "2": 2, "3": 1})
        # 1->2 takes a 2 x 1 matrix, 2->3 a 1 x 2 matrix
        for mats, arrow in (([[[0], [0], [0]], [[0, 0, 0]]], "1->2"),
                            ([[[0, 0], [0]], [[0]]], "1->2"),
                            ([[[0]], [[0]]], "1->2"),
                            ([[[0], [0]], [[0]]], "2->3"),
                            ([[[0], [0]], []], "2->3"),
                            ([[[0], [0]], [[0, 0], [0, 0]]], "2->3")):
            with pytest.raises(InputError, match=f"^matrix shape mismatch on arrow {arrow}$"):
                FFRep(a3, 3, d, mats)

    def test_any_iterable_of_matrices(self, k2):
        d = dv(i=2, j=2)
        mats = [[[1, 5], [-1, 3]], [[0, 7], [2, -4]]]
        X = FFRep(k2, 3, d, mats)
        assert X.mats == (((1, 2), (2, 0)), ((0, 1), (2, 2)))
        assert FFRep(k2, 3, d, (m for m in mats)) == X
        assert FFRep(k2, 3, d, ((iter(row) for row in m) for m in mats)) == X
        assert FFRep(k2, 3, d, tuple(map(tuple, X.mats))) == X

    def test_enumeration_equals_validated_reps(self, a2, k2, a3, monkeypatch):
        cases = [(a2, dv(i=1, j=2), 3), (k2, dv(i=1, j=2), 2),
                 (a3, DimVector({"1": 1, "2": 2, "3": 1}), 2), (k2, dv(j=2), 3),
                 (k2, dv(i=2, j=1), 3), (a3, DimVector({"1": 2, "3": 1}), 3),
                 (D4, D4.vec((1, 0, 1, 2)), 2), (Quiver(["x", "y"], []), dv(x=2), 2)]
        for quiver, d, q in cases:
            reps = list(enumerate_reps(quiver, d, q))
            checked = [FFRep(quiver, q, d, X.mats) for X in reps]
            assert reps == checked
            assert [X.dims for X in reps] == [X.dims for X in checked]
            assert len(set(reps)) == rep_count(quiver, d, q)
            # odometer order: the last cell of the last arrow moves fastest
            flat = [tuple(x for m in X.mats for row in m for x in row) for X in reps]
            assert flat == list(product(range(q), repeat=len(flat[0])))
            dims, shapes = oracle._shapes(quiver, d, q, None)
            for X in reps + [X for _, X in oracle._slices(quiver, q, dims, shapes)()]:
                self.check_one_tuple(X)
        # the subreps has_comp_series builds on the hyperplanes it tries, as
        # (dims, mats) on the arrows of the quiver searched
        subs = []
        restrict = oracle._restrict

        def spy(*args):
            sub = restrict(*args)
            if sub is not None:
                subs.append((quiver, *sub))
            return sub

        monkeypatch.setattr(oracle, "_restrict", spy)
        for quiver, d, words in ((a3, DimVector({"1": 1, "2": 2, "3": 1}),
                                  ("3221", "2321", "1223")),
                                 (k2, dv(i=2, j=2), ("jjii", "ijij", "jiji")),
                                 (D4, D4.vec((1, 1, 1, 2)), ("dabcd", "abdcd")),
                                 (D4_OUT, D4_OUT.vec((1, 1, 1, 2)), ("bdacd", "dcdab"))):
            for X in enumerate_reps(quiver, d, 2):
                for word in words:
                    has_comp_series(X, word)
        assert {sum(dims) for _, dims, _ in subs} == {0, 1, 2, 3, 4}
        for quiver, dims, mats in subs:
            self.check_one_tuple(FFRep._trusted(quiver, 2, dims, mats))

    @staticmethod
    def check_one_tuple(X):
        checked = FFRep(X.quiver, X.q, X.dim, X.mats)
        assert X == checked and hash(X) == hash(checked)
        assert X.dims == checked.dims
        assert X.dim == X.quiver.vec(X.dims)
        with pytest.raises(AttributeError):
            X.dim = X.dim

    def test_subspace_count_is_the_number_of_subspaces(self):
        for q in (2, 3, 5):
            for n in range(5):
                assert subspace_count(n, q) == sum(
                    len(oracle._member_spaces(n, r, q)) for r in range(n + 1))
        assert subspace_count(2, 2) == 5  # 0, three lines, the plane
        assert subspace_count(3, 3) == 28
        assert subspace_count(6, 5) == 3583232  # counted, not enumerated


D4 = Quiver(["a", "b", "c", "d"], [("a", "d"), ("b", "d"), ("c", "d")])
D4_OUT = Quiver(["a", "b", "c", "d"], [("d", "a"), ("d", "b"), ("d", "c")])
A3 = Quiver(["1", "2", "3"], [("1", "2"), ("2", "3")])
# K1-K4, A3, the D4 star and a quiver without arrows, each with dimension
# vectors that leave some vertices at 0
ENUMERATED = [(kronecker_quiver(m), d) for m in (1, 2, 3, 4)
              for d in ((0, 0), (1, 0), (0, 2), (1, 1), (2, 1), (1, 2), (2, 2), (1, 3))]
ENUMERATED += [(A3, d) for d in ((1, 1, 1), (2, 1, 0), (0, 2, 1), (1, 2, 1), (2, 2, 1))]
ENUMERATED += [(D4, d) for d in ((1, 1, 1, 1), (1, 0, 1, 2), (0, 0, 0, 3), (1, 1, 1, 2))]
ENUMERATED += [(Quiver(["x", "y"], []), (2, 3))]


class TestEnumerationOrder:
    """``enumerate_reps`` yields the reference's matrices in its order.  The
    cap on a matrix list is also lowered, so that small cases take the path
    of arrows with too many matrices: 20 splits most arrows into row chunks
    of a few cells, 0 into chunks of one cell."""

    @pytest.mark.parametrize("cap", (2 ** 16, 20, 0))
    @pytest.mark.parametrize("q", (2, 3, 5))
    def test_same_matrices_in_the_same_order(self, q, cap, monkeypatch):
        monkeypatch.setattr(oracle, "_TABLE_CAP", cap)
        seen = 0
        for quiver, d in ENUMERATED:
            dim = quiver.vec(d)
            if rep_count(quiver, dim, q) > 2 ** 13:
                continue
            got = [X.mats for X in enumerate_reps(quiver, dim, q)]
            assert got == list(reference_enumerate_reps(quiver, dim, q)), (quiver, d)
            seen += 1
        assert seen >= 30

    def test_rows_longer_than_a_chunk(self, k1):
        # over F_5 a chunk has at most 6 cells (5^6 <= 2^16 < 5^7)
        for d in (dv(i=7, j=1), dv(i=1, j=7), dv(i=2, j=5)):
            first = [X.mats for X in islice(enumerate_reps(k1, d, 5), 700)]
            assert first == list(islice(reference_enumerate_reps(k1, d, 5), 700))

    def test_first_reps_need_little_memory(self, k1):
        # 5^10 reps of K1 (2,5) over F_5: a list of every 5 x 2 matrix
        # would hold 9.8 M of them
        tracemalloc.start()
        try:
            reps = list(islice(enumerate_reps(k1, dv(i=2, j=5), 5), 10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(reps) == 10
        assert peak < 2 ** 17


class TestHomExt:
    def test_a2_hom_examples(self, a2):
        zero = a2_rep(a2, 2, [(0,)])
        iso = a2_rep(a2, 2, [(1,)])
        # Hom(zero, zero) = 2 (independent scalars), Hom(iso, iso) = 1
        assert hom_dim(zero, zero) == 2
        assert hom_dim(iso, iso) == 1
        assert hom_dim(iso, zero) == 1
        assert hom_dim(zero, iso) == 1

    def test_ext_via_euler(self, a2):
        zero = a2_rep(a2, 2, [(0,)])
        iso = a2_rep(a2, 2, [(1,)])
        # <d, e> = 1 for d = e = (1,1) on one arrow
        assert ext_dim(zero, zero) == 1
        assert ext_dim(iso, iso) == 0

    def test_hom_of_self_positive(self, k2):
        for X in enumerate_reps(k2, dv(i=1, j=1), 3):
            assert hom_dim(X, X) >= 1
            assert ext_dim(X, X) >= 0

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_ext_is_hom_minus_the_euler_form(self, data):
        quiver = data.draw(st.sampled_from(
            [kronecker_quiver(m) for m in (1, 2, 3, 4)] + [A3, D4]))
        q = data.draw(st.sampled_from((2, 3, 5)))
        entry = st.integers(-q, 2 * q)
        M, N = (FFRep(quiver, q, quiver.vec(d), [
            data.draw(st.lists(st.lists(entry, min_size=d[s], max_size=d[s]),
                               min_size=d[t], max_size=d[t]))
            for s, t in quiver.arrow_pairs])
            for d in [data.draw(st.tuples(*[st.integers(0, 2)] * len(quiver.vertices)))
                      for _ in range(2)])
        assert ext_dim(M, N) == hom_dim(M, N) - quiver.euler(M.dim, N.dim)

    def test_field_mismatch(self, a2):
        with pytest.raises(InputError):
            hom_dim(a2_rep(a2, 2, [(0,)]), a2_rep(a2, 3, [(0,)]))


# Reference linear algebra: full reduction to reduced row echelon form, and
# the kernel read off it, as the oracle computed them before it switched to
# forward elimination and back-substitution.

def reference_rref(rows, p):
    """Row-reduce in place; returns (rref rows, pivot columns)."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] % p), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return [rows[i] for i in range(r)], pivots


def reference_nullspace(rows, ncols, p):
    """Basis of the right kernel of the matrix (rows over F_p)."""
    rref, pivots = reference_rref(rows, p) if rows else ([], [])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for r, c in enumerate(pivots):
            vec[c] = (-rref[r][f]) % p
        basis.append(vec)
    return basis


@st.composite
def matrices_mod_p(draw):
    """(rows, ncols, p): at most 6 x 8 over F_2, F_3 or F_5, with unreduced
    and negative entries, rows that vanish mod p and rows repeating an
    earlier one."""
    p = draw(st.sampled_from((2, 3, 5)))
    ncols = draw(st.integers(0, 8))
    rows = []
    for kind in draw(st.lists(st.sampled_from(("any", "zero", "repeat")), max_size=6)):
        if kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            entry = st.integers(-2 * p, 2 * p)
            if kind == "zero":
                entry = entry.map(lambda x: x * p)
            rows.append(draw(st.lists(entry, min_size=ncols, max_size=ncols)))
    return rows, ncols, p


class TestLinearAlgebraAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(matrices_mod_p())
    # rows that reduce to zero, among them the last row and a row the pivot
    # row's elimination reaches after one was dropped
    @example(([[1, 2, 0], [2, 4, 0], [0, 1, 1], [3, 6, 0]], 3, 5))
    @example(([[0, 1, 1], [1, 1, 0], [0, 2, 2], [1, 0, 1]], 3, 2))
    # pivots of 1 on rows with unreduced or negative entries
    @example(([[1, 5, -1], [4, 3, 0], [-2, -4, 7]], 3, 3))
    @example(([[6, 1, 1], [-4, 2, 5]], 3, 5))
    def test_echelon_and_nullspace(self, case):
        rows, ncols, p = case
        given_rows = [list(row) for row in rows]
        echelon, pivots = oracle._echelon(rows, p)
        assert len(echelon) == len(pivots) == len(reference_rref(rows, p)[1])
        # echelon rows: reduced mod p, a leading 1 at the pivot
        for row, c in zip(echelon, pivots):
            assert all(0 <= x < p for x in row)
            assert row[:c] == [0] * c and row[c] == 1
        basis = oracle._nullspace(rows, ncols, p)
        assert basis == reference_nullspace(rows, ncols, p)
        for vec in basis:
            assert all(sum(map(mul, row, vec)) % p == 0 for row in rows)
        assert rows == given_rows

    def test_gram_rank_is_the_reference_rank(self, k2):
        # the Gram matrix of the quadric, built from its coefficients: the
        # l_k l_l coefficient off the diagonal is twice the Gram entry
        half = pow(2, -1, 3)
        for X in enumerate_reps(k2, dv(i=2, j=2), 3):
            coeffs, rank = kronecker_quadratic_form(X.mats, 3)
            gram = [[coeffs[min(k, l), max(k, l)] * (1 if k == l else half) % 3
                     for l in range(2)] for k in range(2)]
            assert rank == len(reference_rref(gram, 3)[1])

    def test_hom_basis_is_the_reference_kernel(self, k2):
        for X in enumerate_reps(k2, dv(i=1, j=2), 2):
            rows, n, offs = oracle._intertwining(X, X)
            assert oracle._hom_basis(X, X) == (reference_nullspace(rows, n, 2), offs)
            assert hom_dim(X, X) == n - len(reference_rref(rows, 2)[1])


def reference_intertwining(M, N):
    """The intertwining equations built entry by entry, as the oracle built
    them before it filled a cached template."""
    p, d, e = M.q, M.dims, N.dims
    offs = []
    n = 0
    for dv_, ev in zip(d, e):
        offs.append(n)
        n += ev * dv_
    rows = []
    for (s, t), Ma, Na in zip(M.quiver.arrow_pairs, M.mats, N.mats):
        for r in range(e[t]):
            for c in range(d[s]):
                row = [0] * n
                for k in range(d[t]):
                    i = offs[t] + r * d[t] + k
                    row[i] = (row[i] + Ma[k][c]) % p
                for k in range(e[s]):
                    i = offs[s] + k * d[s] + c
                    row[i] = (row[i] - Na[r][k]) % p
                if any(row):
                    rows.append(row)
    return rows, n, offs


class TestIntertwiningTemplate:
    @pytest.mark.parametrize("quiver", [
        kronecker_quiver(2), kronecker_quiver(3),
        Quiver(["1", "2", "3"], [("1", "2"), ("2", "3")]),
        Quiver(["i", "j", "k"], [("j", "k"), ("i", "j"), ("i", "k"), ("i", "j")]),
    ], ids=["K2", "K3", "A3", "mixed"])
    def test_rows_are_the_reference_rows(self, quiver):
        rng = random.Random(str(quiver))
        for _ in range(150):
            q = rng.choice((2, 3, 5))
            reps = []
            for _ in range(2):
                d = [rng.randrange(3) for _ in quiver.vertices]
                mats = [[[rng.randrange(q) for _ in range(d[s])] for _ in range(d[t])]
                        for s, t in quiver.arrow_pairs]
                reps.append(FFRep(quiver, q, quiver.vec(d), mats))
            M, N = reps
            rows, n, offs = oracle._intertwining(M, N)
            expected = reference_intertwining(M, N)
            assert (rows, n, list(offs)) == expected
            assert oracle._hom_basis(M, N) == \
                (reference_nullspace(expected[0], n, q), offs)
            assert hom_dim(M, N) == n - len(reference_rref(expected[0], q)[1])


class TestStability:
    def test_a2_semistable(self, a2, theta_i):
        iso = a2_rep(a2, 2, [(1,)])
        zero = a2_rep(a2, 2, [(0,)])
        assert is_semistable(iso, theta_i)
        assert is_stable(iso, theta_i)
        # the zero map has the destabilizing subrep (1, 0)
        assert not is_semistable(zero, theta_i)

    def test_counts(self, a2, k2, theta_i):
        assert count_semistable(a2, theta_i, dv(i=1, j=1), 3) == 2
        assert count_stable(a2, theta_i, dv(i=1, j=1), 3) == 2
        # K_2 (1,1): destabilized iff both arrow maps vanish
        assert count_semistable(k2, theta_i, dv(i=1, j=1), 3) == 8

    def test_zero_weight_everything_semistable(self, k2):
        theta0 = Stability({})
        for X in enumerate_reps(k2, dv(i=1, j=1), 2):
            assert is_semistable(X, theta0)


# Plain references for the oracle's packed paths: every subspace as the
# frozenset of its vectors, images by list arithmetic, nothing shared with
# the oracle's echelon forms or member sets.

@functools.cache
def all_subspaces(k, q):
    """Every subspace of F_q^k, as the frozenset of its vectors: spans grown
    one vector at a time from the zero space."""
    vectors = list(product(range(q), repeat=k))
    zero = frozenset([(0,) * k])
    found, todo = {zero}, [zero]
    while todo:
        S = todo.pop()
        for v in vectors:
            span = frozenset(tuple((a + c * b) % q for a, b in zip(u, v))
                             for u in S for c in range(q))
            if span not in found:
                found.add(span)
                todo.append(span)
    return found


def apply(m, u, q):
    return tuple(sum(a * b for a, b in zip(row, u)) % q for row in m)


def dimension(space, q):
    return round(math.log(len(space), q))


def reference_subreps(X):
    """Every subrepresentation of X as a tuple of vertex subspaces."""
    q, quiver = X.q, X.quiver
    spaces = [all_subspaces(X.dim[v], q) for v in quiver.vertices]
    arrows = [(quiver.index(s), quiver.index(t), m)
              for (s, t), m in zip(quiver.arrows, X.mats)]
    return [choice for choice in product(*spaces)
            if all(apply(m, u, q) in choice[t]
                   for s, t, m in arrows for u in choice[s])]


def reference_subrep_dims(X):
    return {tuple(dimension(space, X.q) for space in sub)
            for sub in reference_subreps(X)}


def reference_stability(subdims, d, theta):
    """(semistable, stable) from the subrepresentation dimension vectors."""
    slope = Fraction(sum(map(int.__mul__, theta, d)), sum(d))
    proper = [e for e in subdims if any(e) and e != d]
    slopes = [Fraction(sum(map(int.__mul__, theta, e)), sum(e)) for e in proper]
    return (all(s <= slope for s in slopes),
            any(d) and all(s < slope for s in slopes))


def per_rep_count(check, quiver, theta, d, q):
    return sum(check(X, theta) for X in enumerate_reps(quiver, d, q))


# every d <= (2, 2) but K3 (2, 2) over F_3, whose 3^12 reps would take minutes
KRONECKER_PLANS = [(m, q) for m in (1, 2, 3) for q in (2, 3)]


class TestCountsShareOnePlan:
    """A count searches every rep with one plan: it must equal the sum of
    the per-rep tests, which each look the plan up."""

    @pytest.mark.parametrize("m, q", KRONECKER_PLANS,
                             ids=[f"K{m}-F{q}" for m, q in KRONECKER_PLANS])
    def test_kronecker(self, m, q):
        quiver = kronecker_quiver(m)
        for d in product(range(3), repeat=2):
            if (m, d, q) == (3, (2, 2), 3):
                continue
            dim = quiver.vec(d)
            for t in ((1, 0), (0, 1), (-1, 2)):
                self.check(quiver, Stability(dict(zip(quiver.vertices, t))), dim, q)

    @pytest.mark.parametrize("q", (2, 3))
    def test_a3(self, a3, q):
        for d in product(range(2), repeat=3):
            dim = a3.vec(d)
            for t in ((1, 0, 0), (0, 0, 1), (-1, 2, 1)):
                self.check(a3, Stability(dict(zip(a3.vertices, t))), dim, q)

    @staticmethod
    def check(quiver, theta, d, q):
        assert count_stable(quiver, theta, d, q) == \
            per_rep_count(is_stable, quiver, theta, d, q)
        if d.is_zero():
            with pytest.raises(InputError, match="zero dimension vector"):
                count_semistable(quiver, theta, d, q)
            with pytest.raises(InputError, match="zero dimension vector"):
                per_rep_count(is_semistable, quiver, theta, d, q)
        else:
            assert count_semistable(quiver, theta, d, q) == \
                per_rep_count(is_semistable, quiver, theta, d, q)

    def test_zero_vector(self, k2, theta_i):
        assert count_stable(k2, theta_i, dv(), 2) == 0
        with pytest.raises(InputError, match="zero dimension vector"):
            count_semistable(k2, theta_i, dv(), 2)

    def test_rep_budget_refuses_before_subspace_budget(self, k2, theta_i,
                                                       monkeypatch):
        # QI_BUDGET sets both budgets: 2^8 reps and 5 * 5 subspace tuples
        # both exceed 24
        monkeypatch.setenv("QI_BUDGET", "24")
        for count in (count_semistable, count_stable):
            with pytest.raises(BudgetExceeded) as exc:
                count(k2, theta_i, dv(i=2, j=2), 2)
            assert str(exc.value) == "256 representations exceed the budget 24"
            with pytest.raises(BudgetExceeded) as exc:
                count(k2, theta_i, dv(i=2, j=2), 2, budget=256)
            assert str(exc.value) == "25 subspace tuples exceed the budget 24"


# (q, largest rows and cols): every matrix of these shapes is ranked
RANKED = ((2, 3), (3, 3), (5, 2))


class TestSlices:
    """The counts run over one rank normal form per rank of one arrow,
    weighted by the number of matrices of that rank: each must equal the
    full enumeration."""

    @pytest.mark.parametrize("q, top", RANKED, ids=[f"F{q}" for q, _ in RANKED])
    def test_rank_counts_are_the_echelon_ranks(self, q, top):
        for rows, cols in product(range(top + 1), repeat=2):
            ranks = [0] * (min(rows, cols) + 1)
            for m in product(product(range(q), repeat=cols), repeat=rows):
                ranks[len(oracle._echelon(m, q)[1])] += 1
            counts = [oracle._rank_count(rows, cols, r, q) for r in range(len(ranks))]
            assert counts == ranks, (rows, cols)
            assert sum(counts) == q ** (rows * cols)

    def test_weights_cover_every_rep_and_zero_comes_first(self):
        for quiver, d in ENUMERATED:
            dim = quiver.vec(d)
            dims, shapes = oracle._shapes(quiver, dim, 2, None)
            slices = list(oracle._slices(quiver, 2, dims, shapes)())
            assert sum(w for w, _ in slices) == rep_count(quiver, dim, 2), (quiver, d)
            zero = slices[0][1]
            assert not any(x for m in zero.mats for row in m for x in row)

    def test_indecomposables_equal_full_enumeration(self, k1, k2, k3, a3):
        cases = [(quiver, d, 2) for quiver in (k1, k2, k3)
                 for d in product(range(3), repeat=2)]
        cases += [(a3, d, q) for d in product(range(2), range(3), range(2))
                  for q in (2, 3)]
        cases.append((D4, (1, 1, 1, 2), 2))
        for quiver, d, q in cases:
            dim = quiver.vec(d)
            assert count_indecomposable(quiver, dim, q) == sum(
                map(is_indecomposable, enumerate_reps(quiver, dim, q))), (quiver, d, q)


class TestStabilityAgainstReference:
    @pytest.mark.parametrize("quiver, d, q", [
        (kronecker_quiver(2), (2, 2), 2),
        (kronecker_quiver(3), (1, 2), 3),
        (Quiver(["1", "2", "3"], [("1", "2"), ("2", "3")]), (1, 1, 1), 3),
    ], ids=["K2-22-F2", "K3-12-F3", "A3-111-F3"])
    def test_every_rep_and_theta(self, quiver, d, q):
        dim = quiver.vec(d)
        thetas = list(product(range(-1, 3), repeat=len(d)))
        reps = 0
        for X in enumerate_reps(quiver, dim, q):
            subdims = reference_subrep_dims(X)
            for t in thetas:
                theta = Stability(dict(zip(quiver.vertices, t)))
                expected = reference_stability(subdims, d, t)
                assert (is_semistable(X, theta), is_stable(X, theta)) == expected, \
                    (X, t)
            reps += 1
        assert reps == q ** sum(d[quiver.index(s)] * d[quiver.index(t)]
                                for s, t in quiver.arrows)

    def test_zero_vector(self, k2, theta_i):
        X = FFRep(k2, 2, dv(), [(), ()])
        with pytest.raises(InputError, match="zero dimension vector"):
            is_semistable(X, theta_i)
        assert not is_stable(X, theta_i)

    def test_subspace_budget_refusal(self, k2, theta_i):
        # subspace_count(2, 2) = 5 at each vertex: 25 tuples
        X = FFRep(k2, 2, dv(i=2, j=2), [((0, 0), (0, 0))] * 2)
        for check in (is_semistable, is_stable):
            with pytest.raises(BudgetExceeded) as exc:
                check(X, theta_i, budget=24)
            assert exc.value.required == 25
            assert exc.value.budget == 24
            assert str(exc.value) == "25 subspace tuples exceed the budget 24"
            check(X, theta_i, budget=25)
        # 28 * 6 tuples for (3, 2) over F_3; refused before any is built
        Y = FFRep(k2, 3, dv(i=3, j=2), [((0, 0, 0), (0, 0, 0))] * 2)
        with pytest.raises(BudgetExceeded) as exc:
            is_semistable(Y, theta_i, budget=167)
        assert exc.value.required == 168
        # far too many to enumerate: the count comes from the formula
        Z = FFRep(k2, 5, dv(i=6, j=6), [[[0] * 6] * 6] * 2)
        with pytest.raises(BudgetExceeded) as exc:
            is_semistable(Z, theta_i)
        assert exc.value.required == 3583232 ** 2


THETAS_2 = ((1, 0), (0, 1), (-1, 2))


def some_reps(quiver, d, q, limit=3 ** 8, samples=1000):
    """Every rep of dimension ``d`` when there are at most ``limit``, else
    the zero rep and a seeded sample."""
    dim = quiver.vec(d)
    if rep_count(quiver, dim, q) <= limit:
        return list(enumerate_reps(quiver, dim, q))
    rng = random.Random(f"{quiver}{d}{q}")
    shapes = [(d[t], d[s]) for s, t in quiver.arrow_pairs]
    return [FFRep(quiver, q, dim, [[[rng.randrange(q) * bool(k) for _ in range(c)]
                                    for _ in range(r)] for r, c in shapes])
            for k in range(samples)]


def stability_answers(quiver, reps, thetas):
    thetas = [Stability(dict(zip(quiver.vertices, t))) for t in thetas]
    return [(is_semistable(X, theta), is_stable(X, theta))
            for X in reps for theta in thetas]


def plan_of(quiver, t, d, q, strict=True):
    theta = Stability(dict(zip(quiver.vertices, t)))
    return oracle._destab_plan(quiver.arrow_pairs, theta.key(quiver), d, q, strict,
                               oracle.default_budget("subspace"))


@contextmanager
def search_plans_only():
    """Plans built inside search their candidates: the cap is 0, and the
    plans cached under the real cap are dropped on the way in and out."""
    cap = oracle._TABLE_CAP
    oracle._destab_plan.cache_clear()
    oracle._TABLE_CAP = 0
    try:
        yield
    finally:
        oracle._TABLE_CAP = cap
        oracle._destab_plan.cache_clear()


class TestPlanRegimes:
    """A plan looks up one candidate mask per arrow when every arrow has a
    parallel one and its tables are small, and searches the candidates
    otherwise.  With the cap at 0 every plan searches: both must answer
    alike."""

    @pytest.mark.parametrize("m, q", [(m, q) for m in (2, 3, 4) for q in (2, 3)])
    def test_tables_agree_with_search(self, m, q):
        quiver = kronecker_quiver(m)
        # every rep, but a sample of K3 (2, 2) over F_3 and K4 (2, 2)
        reps = [X for d in product(range(3), repeat=2) if any(d)
                for X in some_reps(quiver, d, q)]
        tabulated = stability_answers(quiver, reps, THETAS_2)
        for strict in (True, False):
            assert plan_of(quiver, (1, 0), (2, 2), q, strict)[2] is not None
            # the subrep (0, 1) destabilizes every rep: one candidate, no checks
            assert plan_of(quiver, (0, 1), (2, 2), q, strict)[1:] == (((),), None)
        with search_plans_only():
            assert plan_of(quiver, (1, 0), (2, 2), q)[2] is None
            assert stability_answers(quiver, reps, THETAS_2) == tabulated
        assert plan_of(quiver, (1, 0), (2, 2), q)[2] is not None

    @pytest.mark.parametrize("arrows", [
        [("i", "j"), ("i", "j"), ("j", "k")],
        [("j", "k"), ("i", "j"), ("i", "j")],
        [("i", "j"), ("j", "k"), ("i", "j"), ("j", "k")],
        [("j", "k"), ("j", "k"), ("i", "j"), ("i", "j")],
    ], ids=["ij-ij-jk", "jk-ij-ij", "ij-jk-ij-jk", "jk-jk-ij-ij"])
    def test_mixed_arrows_against_reference(self, arrows):
        # i => j -> k searches, for its single arrow; i => j => k tabulates
        quiver = Quiver(["i", "j", "k"], arrows)
        parallel = all(arrows.count(a) > 1 for a in arrows)
        thetas = ((1, 0, 0), (0, 0, 1), (-1, 2, 1), (2, 1, 0))
        for d, q in (((1, 1, 1), 3), ((1, 2, 1), 2), ((2, 1, 1), 2)):
            reps = list(enumerate_reps(quiver, quiver.vec(d), q))
            expected = []
            for X in reps:
                subdims = reference_subrep_dims(X)
                expected += [reference_stability(subdims, d, t) for t in thetas]
            assert stability_answers(quiver, reps, thetas) == expected
            for t in thetas:
                plan = plan_of(quiver, t, d, q)
                if plan[1] != ((),):
                    assert (plan[2] is not None) == parallel
            with search_plans_only():
                assert stability_answers(quiver, reps, thetas) == expected

    def test_tables_stay_under_the_cap(self):
        cap, tabulated = oracle._TABLE_CAP, 0
        for m, q in product((2, 3), (2, 3)):
            quiver = kronecker_quiver(m)
            for d in product(range(4), repeat=2):
                if not any(d):
                    continue
                for t, strict in product(THETAS_2, (True, False)):
                    key = (quiver.arrow_pairs, t, d, q, strict,
                           oracle.default_budget("subspace"))
                    slots, candidates, tables = oracle._destab_plan.__wrapped__(*key)
                    if tables is None:
                        continue
                    tabulated += 1
                    table = tables[0]
                    # one table, shared by the parallel arrows, with every
                    # matrix, built whole from the plan key alone
                    assert all(x is table for x in tables)
                    assert len(table) == q ** (d[0] * d[1])
                    assert 0 < len(table) * len(candidates) <= cap
                    assert all(0 <= mask < 1 << len(candidates)
                               for mask in table.values())
                    assert oracle._destab_plan.__wrapped__(*key)[2] == tables
        # 66 plans: those without candidates carry no table
        assert tabulated > 60
        # 3^9 matrices times hundreds of candidates: K2 (3, 3) over F_3
        # stays on the search
        for t, strict in product(THETAS_2, (True, False)):
            assert plan_of(kronecker_quiver(2), t, (3, 3), 3, strict)[2] is None

    @pytest.mark.parametrize("theta", [{}, {"i": 1, "j": 1}], ids=["zero", "11"])
    def test_no_candidates_no_tables(self, theta):
        # every vector has one slope: no candidate destabilizes, and no
        # table of the 2^25 matrices of K2 (5, 5) over F_2 is built
        quiver = kronecker_quiver(2)
        t = Stability(theta).key(quiver)
        # (2, 2) first, so that a plan which tabulates fails here cheaply
        assert plan_of(quiver, t, (2, 2), 2) == ((), (), None)
        rng = random.Random(5)
        mats = [[tuple(rng.randrange(2) for _ in range(5)) for _ in range(5)]
                for _ in range(2)]
        X = FFRep(quiver, 2, quiver.vec((5, 5)), mats)
        assert is_semistable(X, Stability(theta))
        assert plan_of(quiver, t, (5, 5), 2) == ((), (), None)


    def test_a_warm_test_looks_up_one_plan(self, monkeypatch):
        monkeypatch.delenv("QI_BUDGET", raising=False)
        caches = [f for f in vars(oracle).values() if hasattr(f, "cache_info")]
        assert "_destab_plan" in {f.__name__ for f in caches}

        def lookups():
            return sum(f.cache_info().hits + f.cache_info().misses for f in caches)

        quiver = kronecker_quiver(3)
        theta = Stability({"i": 1})
        X = FFRep(quiver, 3, quiver.vec((2, 2)),
                  [[[1, 0], [0, 1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]]])

        def answers(budget):
            return [is_semistable(X, theta, budget), is_stable(X, theta, budget)]

        # 6 * 6 subspace tuples: 36 admit the plan, 35 refuse it
        expected = answers(None)
        assert answers(36) == answers(5000) == expected
        # warm: one lookup per test
        for budget in (None, 36, 5000):
            before = lookups()
            assert answers(budget) == expected
            assert lookups() == before + 2
        with pytest.raises(BudgetExceeded) as exc:
            is_semistable(X, theta, 35)
        assert str(exc.value) == "36 subspace tuples exceed the budget 35"


def reference_comp_series(X, word):
    """A chain of subreps from X down to 0 whose k-th quotient is the simple
    rep at word[k]."""
    subs = reference_subreps(X)
    index = [X.quiver.index(x) for x in word]

    def down(U, k):
        if k == len(index):
            return all(len(space) == 1 for space in U)
        return any(all(b <= a for a, b in zip(U, V)) and down(V, k + 1)
                   for V in subs
                   if [dimension(a, X.q) - dimension(b, X.q) for a, b in zip(U, V)]
                   == [int(i == index[k]) for i in range(len(U))])

    return down(max(subs, key=lambda U: sum(map(len, U))), 0)


def reference_is_indecomposable(X):
    """No endomorphism besides 0 and 1 is idempotent; every tuple of square
    matrices is tried as an endomorphism."""
    q, quiver = X.q, X.quiver
    n = [X.dim[v] for v in quiver.vertices]

    def matrices(k):
        return [tuple(tuple(flat[r * k:(r + 1) * k]) for r in range(k))
                for flat in product(range(q), repeat=k * k)]

    def mul(a, b):
        return tuple(tuple(sum(a[i][l] * b[l][j] for l in range(len(b))) % q
                           for j in range(len(b[0]) if b else 0))
                     for i in range(len(a)))

    zero = tuple(matrices(k)[0] for k in n)
    one = tuple(tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
                for k in n)
    if all(k == 0 for k in n):
        return False
    for g in product(*(matrices(k) for k in n)):
        if any(mul(g[quiver.index(t)], m) != mul(m, g[quiver.index(s)])
               for (s, t), m in zip(quiver.arrows, X.mats)):
            continue
        if g not in (zero, one) and tuple(mul(a, a) for a in g) == g:
            return False
    return True


class TestAgainstReference:
    def test_comp_series(self, k2, a3):
        # the D4 star has three arrows into one vertex, its opposite three out
        for quiver, d, q in ((k2, (2, 2), 2), (k2, (1, 2), 3), (a3, (1, 1, 1), 2),
                             (a3, (1, 3, 1), 2), (D4, (1, 1, 1, 1), 2),
                             (D4_OUT, (1, 1, 1, 1), 2)):
            letters = [v for v, k in zip(quiver.vertices, d) for _ in range(k)]
            words = sorted(set(permutations(letters)))
            for X in enumerate_reps(quiver, quiver.vec(d), q):
                for word in words:
                    assert has_comp_series(X, word) == reference_comp_series(X, word)

    def test_simple_tuple(self):
        rng = random.Random(7070)
        # over F_2, n = 2 or 3 with m >= 2 builds mask tables, n = 4 does not
        for _ in range(120):
            q = rng.choice((2, 3))
            n, m = rng.randrange(5 if q == 2 else 4), rng.randrange(4)
            mats = [[[rng.randrange(q) for _ in range(n)] for _ in range(n)]
                    for _ in range(m)]
            proper = [W for W in all_subspaces(n, q) if 1 < len(W) < q ** n]
            invariant = any(all(apply(a, u, q) in W for a in mats for u in W)
                            for W in proper)
            assert is_simple_tuple(n, mats, q) == (n > 0 and not invariant)

    def test_indecomposable(self, k2, a3):
        found = 0
        for quiver, d, q in ((k2, (1, 1), 3), (k2, (1, 2), 2), (k2, (2, 2), 2),
                             (a3, (1, 1, 1), 2), (a3, (1, 2, 1), 2)):
            for X in enumerate_reps(quiver, quiver.vec(d), q):
                expected = reference_is_indecomposable(X)
                assert is_indecomposable(X) == expected, X
                found += expected
        # the 66 of K2 (2,2) have a 2-dimensional End, so 0 and 1 are not
        # its only elements
        assert found == 8 + 6 + 66 + 1 + 0


class TestArrowOrder:
    """Equal quivers whose arrows are listed in different orders: a rep's
    matrices follow its own quiver's order, whichever of the two was used
    first."""

    ijk = ["i", "j", "k"]
    a = Quiver(ijk, [("i", "j"), ("j", "k"), ("i", "k")])
    b = Quiver(ijk, [("i", "k"), ("j", "k"), ("i", "j")])

    @staticmethod
    def shaped(quiver, d, x=0):
        return [[[x] * d[s] for _ in range(d[t])] for s, t in quiver.arrows]

    @pytest.mark.parametrize("first, second", [(a, b), (b, a)],
                             ids=["a-then-b", "b-then-a"])
    def test_each_quiver_keeps_its_own_order(self, first, second):
        assert first == second and first.arrows != second.arrows
        # second.arrows[k] is first.arrows[perm[k]]
        perm = [first.arrows.index(arrow) for arrow in second.arrows]
        d = {"i": 1, "j": 2, "k": 3}
        ends = []
        for quiver in (first, second):
            # all-ones matrices: the same rep in either order
            X = FFRep(quiver, 2, DimVector(d), self.shaped(quiver, d, 1))
            ends.append(hom_dim(X, X))
            reps = list(enumerate_reps(quiver, DimVector(d), 2, budget=10 ** 6))
            assert reps[5] == FFRep(quiver, 2, DimVector(d), reps[5].mats)
        assert ends[0] == ends[1]
        thetas = [Stability(dict(zip(self.ijk, t)))
                  for t in product(range(-1, 2), repeat=3)]
        dim = DimVector({"i": 1, "j": 1, "k": 1})
        answers = {}
        for quiver in (first, second):
            for X in enumerate_reps(quiver, dim, 3):
                mats = X.mats if quiver is first else \
                    tuple(X.mats[perm.index(k)] for k in range(3))
                subdims = reference_subrep_dims(X)
                got = ([(is_semistable(X, t), is_stable(X, t)) for t in thetas],
                       hom_dim(X, X), is_indecomposable(X),
                       [has_comp_series(X, w) for w in permutations(self.ijk)])
                assert got[0] == [reference_stability(subdims, (1, 1, 1),
                                                      t.key(quiver))
                                  for t in thetas]
                assert answers.setdefault(mats, got) == got
        assert len(answers) == 27
        X = next(enumerate_reps(first, dim, 3))
        Y = next(enumerate_reps(second, dim, 3))
        with pytest.raises(InputError, match="different quivers"):
            hom_dim(X, Y)

    def test_equal_matrices_on_reordered_arrows_are_different_reps(self):
        # the same matrices make a path i -> j -> k on a and i -> k <- j on b
        dim = DimVector({"i": 1, "j": 1, "k": 1})
        mats = (((1,),), ((1,),), ((0,),))
        X, Y = FFRep(self.a, 3, dim, mats), FFRep(self.b, 3, dim, mats)
        # only Y has the subrep on {i, k}, of slope 1/2 > 0 = mu(d)
        theta = Stability({"i": 1, "j": -1})
        assert is_semistable(X, theta) and not is_semistable(Y, theta)
        assert X != Y and len({X, Y}) == 2
        again = FFRep(self.a, 3, dim, [[[1]], [[1]], [[0]]])
        assert X == again and hash(X) == hash(again)


class TestBudgetsReadOnce:
    def test_each_budget_once_per_public_call(self, k2, a3, monkeypatch):
        reads = []
        read = oracle.default_budget

        def spy(kind="rep"):
            reads.append(kind)
            return read(kind)

        monkeypatch.setattr(oracle, "default_budget", spy)
        assert count_indecomposable(k2, dv(i=1, j=2), 3) == \
            sum(map(is_indecomposable, enumerate_reps(k2, dv(i=1, j=2), 3)))
        reads.clear()
        count_indecomposable(k2, dv(i=1, j=2), 3)
        assert reads == ["rep", "end"]
        reps = list(enumerate_reps(a3, DimVector({"1": 1, "2": 1, "3": 1}), 2))
        expected = sum(has_comp_series(X, ["3", "2", "1"]) for X in reps)
        reads.clear()
        assert count_comp_series(a3, ["3", "2", "1"], 2) == expected
        assert reads == ["rep", "subspace"]
        reads.clear()
        assert has_comp_series(reps[0], ["3", "2", "1"])
        assert reads == ["subspace"]

    def test_refusals_keep_their_order(self, k2, monkeypatch):
        monkeypatch.setenv("QI_BUDGET", "many")
        # an explicit rep budget refuses before the bad variable is read
        with pytest.raises(BudgetExceeded, match="256 representations"):
            count_indecomposable(k2, dv(i=2, j=2), 2, budget=10)
        with pytest.raises(BudgetExceeded, match="256 representations"):
            count_comp_series(k2, ["j", "j", "i", "i"], 2, budget=10)
        # nothing reads it for the zero vector
        assert count_indecomposable(k2, dv(), 2, budget=10) == 0
        assert count_comp_series(k2, [], 2, budget=10) == 1
        for call in (lambda: count_indecomposable(k2, dv(i=1, j=1), 2, budget=10),
                     lambda: count_comp_series(k2, ["j", "i"], 2, budget=10)):
            with pytest.raises(InputError, match="QI_BUDGET must be an integer"):
                call()

    def test_budget_refusals_are_unchanged(self, k2, monkeypatch):
        monkeypatch.setenv("QI_BUDGET", "8")
        with pytest.raises(BudgetExceeded) as exc:
            count_indecomposable(k2, dv(i=1, j=2), 2)
        assert str(exc.value) == "16 representations exceed the budget 8"
        monkeypatch.setenv("QI_BUDGET", "40")
        # the zero rep of (2, 2) over F_2: End has dimension 8
        with pytest.raises(BudgetExceeded) as exc:
            count_indecomposable(k2, dv(i=2, j=2), 2, budget=256)
        assert (exc.value.required, exc.value.budget) == (2 ** 8, 40)
        assert str(exc.value) == "|End| = 2^8 exceeds the budget 40"
        # the first hyperplane level of (0, 4) over F_2 has 15 * 8 members
        monkeypatch.setenv("QI_BUDGET", "100")
        with pytest.raises(BudgetExceeded) as exc:
            count_comp_series(k2, ["j"] * 4, 2)
        assert (exc.value.required, exc.value.budget) == (120, 100)
        assert str(exc.value) == "120 hyperplane members exceed the budget 100"

    def test_comp_series_prices_every_step_first(self, k2, monkeypatch):
        # K2 at (4, 1) with one nonzero arrow: no hyperplane at j holds its
        # image, but the steps at i, up to 15 * 8 members, are priced first
        X = FFRep(k2, 2, dv(i=4, j=1), [[[1, 0, 0, 0]], [[0, 0, 0, 0]]])
        monkeypatch.setenv("QI_BUDGET", "100")
        for call in (lambda: has_comp_series(X, "jiiii"),
                     lambda: count_comp_series(k2, "jiiii", 2, budget=1000)):
            with pytest.raises(BudgetExceeded) as exc:
                call()
            assert (exc.value.required, exc.value.budget) == (120, 100)
            assert str(exc.value) == "120 hyperplane members exceed the budget 100"
        monkeypatch.delenv("QI_BUDGET")
        assert not has_comp_series(X, "jiiii")
        # every subspace at i with all of j is a subrep: all 2^8 points count
        assert has_comp_series(X, "iiiij")
        assert count_comp_series(k2, "iiiij", 2) == 2 ** 8

    def test_a_word_of_another_weight_reads_no_budget(self, k2, monkeypatch):
        monkeypatch.setenv("QI_BUDGET", "many")
        X = FFRep(k2, 2, dv(i=1, j=1), [[[0]], [[0]]])
        assert not has_comp_series(X, "jj")
        assert not has_comp_series(X, "jij")
        with pytest.raises(InputError, match="unknown vertex"):
            has_comp_series(X, "jx")
        with pytest.raises(InputError, match="QI_BUDGET must be an integer"):
            has_comp_series(X, "ji")


class TestIndecomposable:
    def test_a2_counts(self, a2):
        # indecomposables of dim (1,1): exactly the reps with nonzero map
        assert count_indecomposable(a2, dv(i=1, j=1), 3) == 2
        assert count_indecomposable(a2, dv(i=2), 3) == 0

    def test_k2_isotropic_root(self, k2):
        # (1,1) is a root: indecomposables exist
        assert count_indecomposable(k2, dv(i=1, j=1), 2) > 0

    def test_budget(self, k2):
        X = FFRep(k2, 2, dv(i=2, j=2),
                  [((0, 0), (0, 0)), ((0, 0), (0, 0))])
        with pytest.raises(BudgetExceeded) as exc:
            is_indecomposable(X, budget=3)
        assert exc.value.required > 3


class TestSimpleTuple:
    def test_examples(self):
        assert is_simple_tuple(1, [], 2)
        assert not is_simple_tuple(2, [], 2)
        assert not is_simple_tuple(2, [[[1, 0], [0, 1]]], 2)
        # companion-style pair with no common invariant line over F_2
        assert is_simple_tuple(2, [[[0, 1], [1, 1]]], 2)

    def test_validation(self):
        with pytest.raises(InputError):
            is_simple_tuple(2, [[[1, 0]]], 2)
        with pytest.raises(InputError, match="n must be nonnegative"):
            is_simple_tuple(-1, [], 2)

    def test_subspaces_are_priced_first(self, monkeypatch):
        monkeypatch.setenv("QI_BUDGET", "100")
        with pytest.raises(BudgetExceeded) as exc:
            is_simple_tuple(4, [], 3)
        assert (exc.value.required, exc.value.budget) == (212, 100)
        assert str(exc.value) == "212 subspace tuples exceed the budget 100"
        assert not is_simple_tuple(3, [], 3)  # 28 subspaces
        monkeypatch.delenv("QI_BUDGET")
        # 8.3 * 10^6 subspaces of F_2^9, and a total dimension past its budget
        for n, q, required in ((9, 2, subspace_count(9, 2)), (7, 3, subspace_count(7, 3)),
                               (oracle.VECTOR_BUDGET + 1, 2, oracle.VECTOR_BUDGET + 1)):
            with pytest.raises(BudgetExceeded) as exc:
                is_simple_tuple(n, [], q)
            assert exc.value.required == required


class TestCompSeries:
    def test_a2_examples(self, a2):
        iso = a2_rep(a2, 2, [(1,)])
        zero = a2_rep(a2, 2, [(0,)])
        # top quotient of type j requires the arrow image inside the
        # hyperplane at j; for dim (1,1) that means the map is zero
        assert has_comp_series(zero, "ij")
        assert has_comp_series(zero, "ji")
        assert has_comp_series(iso, "ij")
        assert not has_comp_series(iso, "ji")

    def test_wrong_length(self, a2):
        iso = a2_rep(a2, 2, [(1,)])
        assert not has_comp_series(iso, "j")

    def test_count_is_the_size_of_the_reference_set(self, k1, k2, k3, a3):
        # the slices' weighted count against the full enumeration's point set
        for quiver in (k1, k2, k3, a3, D4, Quiver(["x", "y"], [])):
            words = [w for n in range(4)
                     for w in product(quiver.vertices, repeat=n)]
            for q in (2, 3):
                for word in words:
                    d = quiver.vec(map(word.count, quiver.vertices))
                    points = frozenset(X for X in enumerate_reps(quiver, d, q)
                                       if has_comp_series(X, word))
                    assert count_comp_series(quiver, word, q) == len(points), \
                        (quiver, word, q)


class TestQuadraticForm:
    def test_displayed_tuple_rank_four(self):
        mats = [[[1, 0], [0, 1]], [[2, 0], [0, -2]],
                [[0, 1], [-1, 0]], [[0, 2], [2, 0]]]
        coeffs, rank = kronecker_quadratic_form(mats, 5)
        assert rank == 4

    def test_zero_tuple(self):
        coeffs, rank = kronecker_quadratic_form([[[0, 0], [0, 0]]] * 3, 3)
        assert rank == 0
        assert all(c == 0 for c in coeffs.values())

    def test_single_invertible(self):
        coeffs, rank = kronecker_quadratic_form([[[1, 0], [0, 1]]], 3)
        assert coeffs == {(0, 0): 1}
        assert rank == 1

    def test_coefficients_are_priced_first(self):
        zero = [[0, 0], [0, 0]]
        coeffs, rank = kronecker_quadratic_form([zero] * 446, 3)
        assert (len(coeffs), rank) == (446 * 447 // 2, 0)
        with pytest.raises(BudgetExceeded) as exc:
            kronecker_quadratic_form([zero] * 447, 3)
        assert (exc.value.required, exc.value.budget) == (447 * 448 // 2, 10 ** 5)
        assert str(exc.value) == "100128 quadric coefficients exceed the budget 100000"

    def test_even_field_rejected(self):
        with pytest.raises(InputError):
            kronecker_quadratic_form([[[1, 0], [0, 1]]], 2)

    def test_coefficients_match_the_determinant_identity(self):
        def det(a):
            return a[0][0] * a[1][1] - a[0][1] * a[1][0]

        rng = random.Random(4041)
        for _ in range(400):
            q, m = rng.choice((3, 5)), rng.randrange(5)
            mats = [[[rng.randrange(-9, 10) for _ in range(2)] for _ in range(2)]
                    for _ in range(m)]
            coeffs, rank = kronecker_quadratic_form(mats, q)
            expected = {}
            for k in range(m):
                expected[(k, k)] = det(mats[k]) % q
            for k in range(m):
                for l in range(k + 1, m):
                    s = [[mats[k][i][j] + mats[l][i][j] for j in range(2)]
                         for i in range(2)]
                    expected[(k, l)] = (det(s) - det(mats[k]) - det(mats[l])) % q
            assert coeffs == expected
            assert list(coeffs) == list(expected)
            # rank of the polar form: q^rank vectors in its image
            half = pow(2, q - 2, q)
            gram = [[expected[min(k, l), max(k, l)] * (1 if k == l else half) % q
                     for l in range(m)] for k in range(m)]
            image = {tuple(sum(g * x for g, x in zip(row, v)) % q for row in gram)
                     for v in product(range(q), repeat=m)}
            assert q ** rank == len(image)

    def test_shape_validation(self):
        with pytest.raises(InputError, match="2 x 2"):
            kronecker_quadratic_form([[[1, 0, 0], [0, 1, 0]]], 3)
        with pytest.raises(InputError, match="2 x 2"):
            kronecker_quadratic_form([[[1, 0]]], 3)

    @staticmethod
    def reference(mats, q):
        """(coefficients, rank) of det(sum l_k A_k) by the determinant
        identity, and the rank of its polar form by counting its image: the
        span of the Gram rows, grown one row at a time, has q^rank vectors."""
        def det(a):
            return a[0][0] * a[1][1] - a[0][1] * a[1][0]

        m = len(mats)
        coeffs = {(k, k): det(mats[k]) % q for k in range(m)}
        for k in range(m):
            for l in range(k + 1, m):
                s = [[mats[k][i][j] + mats[l][i][j] for j in range(2)]
                     for i in range(2)]
                coeffs[(k, l)] = (det(s) - det(mats[k]) - det(mats[l])) % q
        half = pow(2, q - 2, q)
        span = {(0,) * m}
        for k in range(m):
            row = [coeffs[min(k, l), max(k, l)] * (1 if k == l else half) % q
                   for l in range(m)]
            span = {tuple((x + c * y) % q for x, y in zip(v, row))
                    for v in span for c in range(q)}
        return coeffs, round(math.log(len(span), q))

    @staticmethod
    def random_mats(rng, m, low=-9, high=9):
        return [[[rng.randint(low, high) for _ in range(2)] for _ in range(2)]
                for _ in range(m)]

    def test_rank_matches_image_count_cold_and_warm(self):
        rng = random.Random(3030)
        rank_of = oracle._quadric_rank
        for _ in range(300):
            q, m = rng.choice((3, 5)), rng.randrange(7)
            mats = self.random_mats(rng, m)
            want = self.reference(mats, q)
            rank_of.cache_clear()
            cold = kronecker_quadratic_form(mats, q)
            assert rank_of.cache_info().misses == 1
            warm = kronecker_quadratic_form(mats, q)
            assert rank_of.cache_info().hits == 1
            for coeffs, rank in (cold, warm):
                assert (coeffs, rank) == want
                assert list(coeffs) == list(want[0])

    def test_entries_equal_mod_q_share_one_entry(self):
        rng = random.Random(3031)
        rank_of = oracle._quadric_rank
        for _ in range(100):
            q, m = rng.choice((3, 5)), rng.randrange(1, 7)
            mats = self.random_mats(rng, m)
            shifted = [[[x + q * rng.randint(-5, 5) for x in row] for row in a]
                       for a in mats]
            rank_of.cache_clear()
            first = kronecker_quadratic_form(mats, q)
            assert kronecker_quadratic_form(shifted, q) == first
            assert rank_of.cache_info()[:2] == (1, 1)  # (hits, misses)
            assert first == self.reference(mats, q)

    def test_mutating_a_result_changes_no_later_answer(self):
        mats = [[[1, 2], [3, 4]], [[0, 1], [1, 0]], [[2, 2], [0, 1]]]
        want = self.reference(mats, 5)
        coeffs, rank = kronecker_quadratic_form(mats, 5)
        coeffs[(0, 0)] = 0
        coeffs[(5, 5)] = 7
        del coeffs[(1, 2)]
        again = kronecker_quadratic_form(mats, 5)
        assert again == want
        assert list(again[0]) == list(want[0])
        again[0].clear()
        assert kronecker_quadratic_form(mats, 5) == want

    def test_bounded_cache_keeps_answering(self):
        # more distinct K4 quadrics over F_5 than the cache holds
        rng = random.Random(3032)
        rank_of = oracle._quadric_rank
        rank_of.cache_clear()
        seen, distinct = set(), []
        while len(seen) < 5000:
            mats = self.random_mats(rng, 4, 0, 4)
            key = tuple(kronecker_quadratic_form(mats, 5)[0].values())
            if key not in seen:
                seen.add(key)
                distinct.append(mats)
        info = rank_of.cache_info()
        assert info.currsize <= info.maxsize < len(seen)
        # the first quadrics were evicted and the last are held: both answer
        # as the reference does
        for mats in distinct[:150] + distinct[-150:]:
            assert kronecker_quadratic_form(mats, 5) == self.reference(mats, 5)
        assert rank_of.cache_info().currsize <= info.maxsize


class TestMinGenericExt:
    def test_matches_euler_bound(self, a2):
        # generic ext(d, e) = max(0, -<d, e>) in the A_2 tame cases below
        assert min_generic_ext(a2, dv(i=1), dv(j=1), 2) == 1
        assert min_generic_ext(a2, dv(j=1), dv(i=1), 2) == 0
        assert min_generic_ext(a2, dv(i=1, j=1), dv(i=1, j=1), 2) == 0

    @pytest.mark.parametrize("q", (2, 3))
    def test_equals_the_minimum_over_all_pairs(self, k1, k2, k3, a2, q):
        # over F_2 also |d| + |e| = 5, where e = (2, 2) has a normal form of
        # rank 2 on its slice
        most = 5 if q == 2 else 4
        for quiver in (k1, k2, k3, a2):
            vecs = [quiver.vec((a, b)) for a in range(most) for b in range(most)
                    if 1 <= a + b < most]
            for d, e in product(vecs, repeat=2):
                if d.total() + e.total() > most:
                    continue
                want = min(ext_dim(M, N) for M in enumerate_reps(quiver, d, q)
                           for N in enumerate_reps(quiver, e, q))
                assert min_generic_ext(quiver, d, e, q) == want, (quiver, d, e)

    def test_pairs_are_budgeted(self, k2):
        # 2^2 reps on each side, 16 pairs
        d = dv(i=1, j=1)
        with pytest.raises(BudgetExceeded) as exc:
            min_generic_ext(k2, d, d, 2, budget=15)
        assert exc.value.required == 16
        assert str(exc.value) == "16 representation pairs exceed the budget 15"
        assert min_generic_ext(k2, d, d, 2, budget=16) == 0

    def test_floor_needs_no_euler_call(self, a2, k2, a3, monkeypatch):
        # the floor max(0, -<d, e>) comes from the dimension tuples, once;
        # on A2 (2,1), (1,2) no pair reaches it, so every pair is walked
        cases = [(a2, dv(i=1), dv(j=1)), (a2, dv(i=1, j=1), dv(i=1, j=1)),
                 (a2, dv(i=2, j=1), dv(i=1, j=2)),
                 (k2, dv(i=1), dv(j=1)), (k2, dv(i=1, j=1), dv(i=1)),
                 (k2, dv(i=1, j=2), dv(i=2, j=1)),
                 (a3, DimVector({"1": 1, "3": 1}), DimVector({"2": 1}))]
        want = [min_generic_ext(q, d, e, 2) for q, d, e in cases]
        assert want == [1, 0, 1, 2, 0, 0, 1]

        def euler(*args):
            raise AssertionError("Quiver.euler was called")

        monkeypatch.setattr(Quiver, "euler", euler)
        assert [min_generic_ext(q, d, e, 2) for q, d, e in cases] == want


# The oracle is the brute-force check on the symbolic code, so it must not
# share any of it, neither directly nor through a package module it imports.
SYMBOLIC = {"hn", "generic", "laurent", "roots", "words", "series"}
PACKAGE = {p.stem for p in Path(oracle.__file__).parent.glob("*.py")}


def imported_modules(source, among):
    """The modules named in ``among`` that ``source`` imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths = [alias.name.split(".") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = (node.module or "").split(".")
            # ``from . import hn`` and ``from quivermoduli import hn`` import
            # modules by name
            names = ([[alias.name] for alias in node.names]
                     if node.module in (None, "quivermoduli") else [])
            paths = [base] + names
        else:
            continue
        for path in paths:
            found |= among.intersection(path)
    return found


def symbolic_imports(source):
    """The symbolic modules of this package that ``source`` imports."""
    return imported_modules(source, SYMBOLIC)


class TestIndependence:
    def test_oracle_imports_no_symbolic_module(self):
        # the oracle and every package module it reaches, such as quiver,
        # which holds the symbolic modules' shared context
        package = Path(oracle.__file__).parent
        reached, todo = set(), ["oracle"]
        while todo:
            name = todo.pop()
            if name in reached:
                continue
            reached.add(name)
            source = (package / f"{name}.py").read_text()
            assert symbolic_imports(source) == set(), name
            todo += imported_modules(source, PACKAGE)
        assert {"oracle", "quiver", "errors"} <= reached

    def test_guard_sees_every_import_form(self):
        assert symbolic_imports("from .hn import mass") == {"hn"}
        assert symbolic_imports("from . import generic, quiver") == {"generic"}
        assert symbolic_imports("import quivermoduli.laurent as lp") == {"laurent"}
        assert symbolic_imports("from quivermoduli import roots") == {"roots"}
        assert symbolic_imports("def f():\n    from .words import x") == {"words"}
        assert symbolic_imports("from .quiver import DimVector, series") == set()
