import ast
import functools
import math
import random
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

import pytest

from quivermoduli import oracle
from quivermoduli.errors import BudgetExceeded, InputError
from quivermoduli.oracle import (FFRep, count_indecomposable, count_semistable,
                                 count_stable, enumerate_reps, ext_dim,
                                 group_order, gl_order, has_comp_series,
                                 hom_dim, is_indecomposable, is_semistable,
                                 is_simple_tuple, is_stable,
                                 kronecker_quadratic_form, min_generic_ext,
                                 rep_count, subspace_count)
from quivermoduli.quiver import DimVector, Quiver, Stability, kronecker_quiver

from conftest import dv


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

    def test_group_order(self, a2):
        assert gl_order(2, 2) == 6
        assert group_order(a2, dv(i=2, j=1), 2) == 6 * 1
        assert subspace_count(2, 2) == 5  # 0, three lines, the plane

    def test_enumeration_equals_validated_reps(self, a2, k2, a3):
        for quiver, d, q in ((a2, dv(i=1, j=2), 3), (k2, dv(i=1, j=2), 2),
                             (a3, DimVector({"1": 1, "2": 2, "3": 1}), 2)):
            reps = list(enumerate_reps(quiver, d, q))
            checked = [FFRep(quiver, q, d, X.mats) for X in reps]
            assert reps == checked
            assert [X.dims for X in reps] == [X.dims for X in checked]
            assert len(set(reps)) == rep_count(quiver, d, q)
            # odometer order: the last cell of the last arrow moves fastest
            flat = [tuple(x for m in X.mats for row in m for x in row) for X in reps]
            assert flat == list(product(range(q), repeat=len(flat[0])))

    def test_subspace_count_is_the_number_of_subspaces(self):
        for q in (2, 3, 5):
            for n in range(5):
                assert subspace_count(n, q) == sum(
                    len(oracle._subspaces(n, r, q)) for r in range(n + 1))
        assert subspace_count(3, 3) == 28
        assert subspace_count(6, 5) == 3583232  # counted, not enumerated


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

    def test_field_mismatch(self, a2):
        with pytest.raises(InputError):
            hom_dim(a2_rep(a2, 2, [(0,)]), a2_rep(a2, 3, [(0,)]))


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
        for quiver, d, q in ((k2, (2, 2), 2), (k2, (1, 2), 3), (a3, (1, 1, 1), 2),
                             (a3, (1, 3, 1), 2)):
            letters = [v for v, k in zip(quiver.vertices, d) for _ in range(k)]
            words = sorted(set(permutations(letters)))
            for X in enumerate_reps(quiver, quiver.vec(d), q):
                for word in words:
                    assert has_comp_series(X, word) == reference_comp_series(X, word)

    def test_simple_tuple(self):
        rng = random.Random(7070)
        for _ in range(120):
            n, q, m = rng.randrange(4), rng.choice((2, 3)), rng.randrange(3)
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


class TestMinGenericExt:
    def test_matches_euler_bound(self, a2):
        # generic ext(d, e) = max(0, -<d, e>) in the A_2 tame cases below
        assert min_generic_ext(a2, dv(i=1), dv(j=1), 2) == 1
        assert min_generic_ext(a2, dv(j=1), dv(i=1), 2) == 0
        assert min_generic_ext(a2, dv(i=1, j=1), dv(i=1, j=1), 2) == 0


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
