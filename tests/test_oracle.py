import ast
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
from quivermoduli.quiver import DimVector, Stability

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


class TestMinGenericExt:
    def test_matches_euler_bound(self, a2):
        # generic ext(d, e) = max(0, -<d, e>) in the A_2 tame cases below
        assert min_generic_ext(a2, dv(i=1), dv(j=1), 2) == 1
        assert min_generic_ext(a2, dv(j=1), dv(i=1), 2) == 0
        assert min_generic_ext(a2, dv(i=1, j=1), dv(i=1, j=1), 2) == 0


# The oracle is the brute-force check on the symbolic code, so it must not
# share any of it.
SYMBOLIC = {"hn", "generic", "laurent", "roots", "words", "series"}


def symbolic_imports(source):
    """The symbolic modules of this package that ``source`` imports."""
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
            found |= SYMBOLIC.intersection(path)
    return found


class TestIndependence:
    def test_oracle_imports_no_symbolic_module(self):
        assert symbolic_imports(Path(oracle.__file__).read_text()) == set()

    def test_guard_sees_every_import_form(self):
        assert symbolic_imports("from .hn import mass") == {"hn"}
        assert symbolic_imports("from . import generic, quiver") == {"generic"}
        assert symbolic_imports("import quivermoduli.laurent as lp") == {"laurent"}
        assert symbolic_imports("from quivermoduli import roots") == {"roots"}
        assert symbolic_imports("def f():\n    from .words import x") == {"words"}
        assert symbolic_imports("from .quiver import DimVector, series") == set()
