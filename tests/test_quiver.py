import json
import time
from itertools import product

import pytest
from hypothesis import given, strategies as st

from quivermoduli import oracle
from quivermoduli.errors import InputError
from quivermoduli.quiver import (DimVector, LoopReduction, Quiver, Stability,
                                 birational_type, kronecker_quiver, local_quiver)

from conftest import dv, gl_order, slope, symmetric_form


class TestDimVector:
    def test_basic_ops(self):
        a = dv(i=1, j=2)
        b = dv(i=2, j=2)
        assert (a + b) == dv(i=3, j=4)
        assert (b - a) == dv(i=1)
        with pytest.raises(InputError):
            a - b  # negative entry
        assert 2 * a == dv(i=2, j=4)
        assert a.total() == 3

    def test_zero_stripping_in_equality(self):
        assert dv(i=1, j=0) == dv(i=1)
        assert hash(dv(i=1, j=0)) == hash(dv(i=1))

    def test_partial_order(self):
        assert dv(i=1) <= dv(i=1, j=2)
        assert dv(i=1) < dv(i=1, j=2)
        assert not dv(i=2) <= dv(i=1, j=2)

    def test_rejects_negative_and_nonint(self):
        with pytest.raises(InputError):
            DimVector({"i": -1})
        with pytest.raises(InputError):
            DimVector({"i": 1.5})

    def test_json_round_trip(self):
        d = dv(b=2, a=1)
        assert DimVector(d.to_json()) == d
        assert list(d.to_json()) == ["a", "b"]


def reference_topological_order(vertices, arrows):
    """The quadratic Kahn loop that first ordered the vertices: after each
    step, the earliest-listed vertex with no arrow left into it comes next."""
    succ = {v: [] for v in vertices}
    indeg = {v: 0 for v in vertices}
    for s, t in arrows:
        succ[s].append(t)
        indeg[t] += 1
    order = []
    ready = [v for v in vertices if indeg[v] == 0]
    while ready:
        v = ready.pop(0)
        order.append(v)
        for t in succ[v]:
            indeg[t] -= 1
        ready = [w for w in vertices if indeg[w] == 0 and w not in order]
    if len(order) != len(vertices):
        raise InputError("quiver contains an oriented cycle")
    return tuple(order)


class TestQuiver:
    def test_topological_order(self):
        q = Quiver(["c", "a", "b"], [("b", "a"), ("a", "c")])
        assert q.vertices == ("b", "a", "c")

    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(
        st.permutations([str(v) for v in range(n)]),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                 .filter(lambda a: a[0] != a[1]), max_size=12))))
    def test_topological_order_matches_reference(self, graph):
        vertices, pairs = graph
        arrows = [(str(s), str(t)) for s, t in pairs]
        try:
            want = reference_topological_order(vertices, arrows)
        except InputError:
            want = None
        try:
            got = Quiver(vertices, arrows).vertices
        except InputError:
            got = None
        assert got == want

    def test_large_quiver_builds_fast(self):
        n = 5000
        start = time.perf_counter()
        q = Quiver([str(v) for v in reversed(range(n))],
                   [(str(v), str(v + 1)) for v in range(n - 1)])
        assert time.perf_counter() - start < 1
        assert q.vertices == tuple(str(v) for v in range(n))

    def test_rejects_loops_and_cycles(self):
        with pytest.raises(InputError):
            Quiver(["a"], [("a", "a")])
        with pytest.raises(InputError):
            Quiver(["a", "b"], [("a", "b"), ("b", "a")])

    def test_rejects_unknown_vertex_and_duplicates(self):
        with pytest.raises(InputError):
            Quiver(["a"], [("a", "b")])
        with pytest.raises(InputError):
            Quiver(["a", "a"], [])

    def test_vector_check_and_tuple(self, a3):
        # entries at unknown vertices: refused when nonzero, named in
        # sorted order; accepted when zero
        with pytest.raises(InputError) as exc:
            a3.tup(DimVector({"2": 1, "z": 2, "x": 1, "y": 0}))
        assert str(exc.value) == "dimension vector mentions unknown vertices ['x', 'z']"
        with pytest.raises(InputError, match=r"unknown vertices \['x'\]"):
            a3.check_vector(DimVector({"x": 3}))
        assert a3.tup(DimVector({"3": 2, "x": 0, "1": 1})) == (1, 0, 2)
        assert a3.tup(DimVector({})) == (0, 0, 0)
        a3.check_vector(DimVector({"y": 0}))
        # the tuple follows the topological order, not the listed one
        q = Quiver(["b", "a"], [("a", "b")])
        assert q.tup(DimVector({"a": 1, "b": 2})) == (1, 2)

    @pytest.mark.parametrize("vertices, arrows", [
        ([1, 2], [(1, 2)]), (["1", 2], []), (["1", "2"], [(1, "2")]),
        (["1", "2"], [("1", 2)]), ([("a",), ("b",)], []), (["a", None], [])])
    def test_rejects_names_that_are_not_strings(self, vertices, arrows):
        # as Quiver.from_json does: the Python API turns no name into a
        # string, so Quiver([1, 2], [(1, 2)]) is no quiver on "1", "2"
        with pytest.raises(InputError, match="strings"):
            Quiver(vertices, arrows)

    def test_euler_form_k3(self, k3):
        assert k3.euler(dv(i=1, j=1), dv(i=1, j=1)) == -1
        assert k3.euler(dv(i=1), dv(j=1)) == -3
        assert k3.euler(dv(j=1), dv(i=1)) == 0

    def test_cartan_is_symmetrized_euler(self, a2):
        simples = [DimVector({v: 1}) for v in a2.vertices]
        C = tuple(tuple(symmetric_form(a2, s, t) for t in simples) for s in simples)
        assert C == ((2, -1), (-1, 2))

    def test_json_round_trip(self, k2):
        text = json.dumps(k2.to_json())
        assert Quiver.from_json(json.loads(text)) == k2

    def test_arrow_order_changes_neither_equality_nor_hash(self):
        ijk = ["i", "j", "k"]
        a = Quiver(ijk, [("i", "j"), ("j", "k"), ("i", "k")])
        b = Quiver(ijk, [("i", "k"), ("j", "k"), ("i", "j")])
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_different_arrows_or_vertices_stay_unequal(self):
        ijk = ["i", "j", "k"]
        a = Quiver(ijk, [("i", "j"), ("j", "k"), ("i", "k")])
        others = [Quiver(ijk, [("i", "j"), ("j", "k")]),
                  Quiver(ijk, [("i", "j"), ("j", "k"), ("i", "k"), ("i", "k")]),
                  Quiver(ijk, [("i", "j"), ("j", "k"), ("i", "j")]),
                  Quiver(ijk + ["l"], [("i", "j"), ("j", "k"), ("i", "k")]),
                  Quiver(["i", "k", "j"], [("i", "j"), ("k", "j"), ("i", "k")])]
        for other in others:
            assert a != other and other != a
        assert len({a, *others}) == len(others) + 1
        assert a != "not a quiver"

    def test_vectors_below_lex(self, a2):
        vs = list(a2.vectors_below(dv(i=1, j=1)))
        assert vs == [dv(j=1), dv(i=1), dv(i=1, j=1)]


class TestStability:
    def test_key_follows_each_vertex_order(self, k2):
        theta = Stability({"i": 1, "j": -2})
        assert theta.key(k2) == (1, -2)
        assert theta.key(k2) == (1, -2)
        # topological order j, i
        assert theta.key(Quiver(["i", "j"], [("j", "i")])) == (-2, 1)
        assert theta.key(Quiver(["i", "j", "k"], [])) == (1, -2, 0)

    def test_unknown_vertex_refused_for_every_order(self, k2):
        theta = Stability({"i": 1, "x": 1})
        for quiver in (k2, k2, Quiver(["j", "i"], [("j", "i")]), k2):
            with pytest.raises(InputError):
                theta.key(quiver)
        assert theta.key(Quiver(["i", "x"], [])) == (1, 1)
        with pytest.raises(InputError):
            theta.key(k2)


def determinant(m):
    """Laplace expansion along the first row."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** c * m[0][c] * determinant([row[:c] + row[c + 1:] for row in m[1:]])
               for c in range(len(m)))


coeff = st.integers(min_value=0, max_value=4)
vec = st.builds(lambda a, b: DimVector({"i": a, "j": b}), coeff, coeff)


class TestFormProperties:
    @given(vec, vec, vec)
    def test_euler_bilinear(self, a, b, c):
        q = kronecker_quiver(2)
        assert q.euler(a + b, c) == q.euler(a, c) + q.euler(b, c)
        assert q.euler(a, b + c) == q.euler(a, b) + q.euler(a, c)

    @given(vec, vec, st.integers(min_value=-3, max_value=3))
    def test_king_equivalence(self, d, e, shift):
        # slope comparisons are invariant under theta -> theta + c * dim
        if d.is_zero() or e.is_zero():
            return
        t1 = Stability({"i": 1})
        t2 = Stability({"i": 1 + shift, "j": shift})
        assert (slope(t1, e) > slope(t1, d)) == (slope(t2, e) > slope(t2, d))
        assert (slope(t1, e) == slope(t1, d)) == (slope(t2, e) == slope(t2, d))


class TestDerivedConstructions:
    def test_local_quiver_of_double_stable(self, k3):
        # two copies of the same stable: one vertex, 1 - <e,e> loops
        counts, dX = local_quiver(k3, [(dv(i=1, j=1), 2)])
        assert counts == {("1", "1"): 2}
        assert dX == DimVector({"1": 2})

    def test_local_quiver_two_stables(self, k3):
        e, f = dv(i=1, j=1), dv(i=1, j=2)
        counts, dX = local_quiver(k3, [(e, 1), (f, 1)])
        assert counts == {("1", "1"): 1 - k3.euler(e, e), ("1", "2"): -k3.euler(e, f),
                          ("2", "2"): 1 - k3.euler(f, f)}
        assert k3.euler(f, e) == 0
        assert dX == DimVector({"1": 1, "2": 1})

    def test_birational_type(self, k3):
        assert birational_type(k3, dv(i=2, j=3)) == (1, 6)
        assert birational_type(k3, dv(i=2, j=2)) == (2, 2)

    def test_loop_reduction_shape(self):
        red = LoopReduction(2, 2)
        assert red.quiver == kronecker_quiver(3)
        assert red.dim == DimVector({"i": 2, "j": 2})
        emb = red.embed([[[1, 0], [0, 1]], [[0, 1], [0, 0]]])
        assert emb[0] == ((1, 0), (0, 1))
        assert len(emb) == 3

    # (2, 2, 3) holds too, with 196,992 stable representations, but takes 19 s
    @pytest.mark.parametrize("m, n, q", [
        (m, n, q) for m in (0, 1, 2) for n in (1, 2) for q in (2, 3)
        if (m, n, q) != (2, 2, 3)])
    def test_loop_reduction_stable_count(self, m, n, q):
        """A tuple is simple iff its embedding is i*-stable; the
        representations with an invertible first arrow are all semistable,
        and gl_n(q) times the simple tuples of them are stable."""
        red = LoopReduction(m, n)
        entries = list(product(range(q), repeat=n * n))
        matrices = [[row[k * n:(k + 1) * n] for k in range(n)] for row in entries]
        simple = 0
        for mats in product(matrices, repeat=m):
            X = oracle.FFRep(red.quiver, q, red.dim, red.embed(mats))
            is_simple = oracle.is_simple_tuple(n, mats, q)
            assert oracle.is_stable(X, red.stability) == is_simple
            simple += is_simple
        stable = 0
        for X in oracle.enumerate_reps(red.quiver, red.dim, q):
            if determinant(X.mats[0]) % q:
                assert oracle.is_semistable(X, red.stability)
                stable += oracle.is_stable(X, red.stability)
        assert stable == gl_order(n, q) * simple
