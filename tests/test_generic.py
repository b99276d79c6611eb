import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from quivermoduli import generic
from quivermoduli.cli import main
from quivermoduli.errors import InputError
from quivermoduli.generic import (generic_decomposition, generic_ext,
                                  generic_hom, generic_subrep, schur_test)
from quivermoduli.quiver import DimVector, Quiver, kronecker_quiver

from conftest import dim_leq, dv, memo_entries


class TestExtHom:
    def test_k3_simples(self, k3):
        assert generic_ext(k3, dv(i=1), dv(j=1)) == 3
        assert generic_ext(k3, dv(j=1), dv(i=1)) == 0
        assert generic_hom(k3, dv(j=1), dv(i=1)) == 0

    def test_zero_vector(self, k3):
        assert generic_ext(k3, dv(), dv(i=1)) == 0
        assert generic_ext(k3, dv(i=1), dv()) == 0

    def test_self_ext_vanishes_on_real_roots(self, a2, k2):
        for q, d in [(a2, dv(i=1, j=1)), (k2, dv(i=2, j=1)), (k2, dv(i=1, j=2))]:
            assert generic_ext(q, d, d) == 0

    def test_hom_minus_ext_is_euler(self, k2, k3, a2):
        for q in (k2, k3, a2):
            for d in q.vectors_below(dv(i=2, j=2)):
                for e in q.vectors_below(dv(i=2, j=2)):
                    assert (generic_hom(q, d, e) - generic_ext(q, d, e)
                            == q.euler(d, e))

    def test_ext_nonnegative_and_at_least_minus_euler(self, k3):
        for d in k3.vectors_below(dv(i=2, j=2)):
            for e in k3.vectors_below(dv(i=2, j=2)):
                x = generic_ext(k3, d, e)
                assert x >= 0
                assert x >= -k3.euler(d, e)


class TestSubrep:
    def test_examples(self, k3, a2):
        assert generic_subrep(k3, dv(j=1), dv(i=1, j=1))
        assert not generic_subrep(k3, dv(i=1), dv(i=1, j=1))
        assert generic_subrep(a2, dv(i=1, j=1), dv(i=1, j=1))
        assert generic_subrep(a2, dv(j=1), dv(i=1, j=1))

    def test_requires_containment(self, k3):
        with pytest.raises(InputError):
            generic_subrep(k3, dv(i=2), dv(i=1, j=1))


class TestSchur:
    def test_examples(self, k2, k3, a2):
        assert schur_test(a2, dv(i=1, j=1))
        assert not schur_test(a2, dv(i=1, j=2))
        assert schur_test(k2, dv(i=1, j=1))
        assert not schur_test(k2, dv(i=2, j=2))
        assert schur_test(k3, dv(i=2, j=3))
        assert schur_test(k3, dv(i=2, j=2))

    def test_single_vertex(self):
        q = Quiver(["x"], [])
        assert schur_test(q, DimVector({"x": 1}))
        assert not schur_test(q, DimVector({"x": 2}))

    def test_zero_rejected(self, k2):
        with pytest.raises(InputError):
            schur_test(k2, dv())


class TestDecomposition:
    def test_examples(self, k1, k2, a2):
        assert generic_decomposition(a2, dv(i=2, j=1)) == \
            [dv(i=1), dv(i=1, j=1)]
        assert generic_decomposition(k1, dv(i=2, j=2)) == \
            [dv(i=1, j=1), dv(i=1, j=1)]
        assert generic_decomposition(k2, dv(i=3, j=1)) == \
            [dv(i=1), dv(i=2, j=1)]

    def test_schur_iff_singleton(self, k2, k3, a2):
        for q in (k2, k3, a2):
            for d in q.vectors_below(dv(i=3, j=3)):
                if d.is_zero():
                    continue
                parts = generic_decomposition(q, d)
                assert (parts == [d]) == schur_test(q, d)

    def test_invariants(self, k3, a3):
        cases = [(k3, dv(i=3, j=2)),
                 (a3, DimVector({"1": 2, "2": 1, "3": 2}))]
        for q, d in cases:
            parts = generic_decomposition(q, d)
            assert sum(parts, DimVector({})) == d
            for p in parts:
                assert schur_test(q, p)
            for i, a in enumerate(parts):
                for j, b in enumerate(parts):
                    if i != j:
                        assert generic_ext(q, a, b) == 0

    def test_checks_survive_optimize(self):
        # the result checks are explicit raises, not asserts, so they still
        # run under python -O; here a broken decomposition must be refused
        script = (
            "from quivermoduli import generic\n"
            "from quivermoduli.quiver import DimVector, kronecker_quiver\n"
            "generic._decompose = lambda ctx, d: ((1, 0),)\n"
            "try:\n"
            "    generic.generic_decomposition(kronecker_quiver(2), DimVector({'i': 2}))\n"
            "except AssertionError as exc:\n"
            "    print(exc)\n")
        src = str(Path(generic.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert "does not sum to" in out

    def test_order_independence(self):
        # the decomposition multiset does not depend on vertex listing order
        q1 = Quiver(["i", "j"], [("i", "j"), ("i", "j")])
        q2 = Quiver(["j", "i"], [("i", "j"), ("i", "j")])
        for d in q1.vectors_below(dv(i=3, j=3)):
            if d.is_zero():
                continue
            p1 = sorted(tuple(sorted(p.to_json().items()))
                        for p in generic_decomposition(q1, d))
            p2 = sorted(tuple(sorted(p.to_json().items()))
                        for p in generic_decomposition(q2, d))
            assert p1 == p2


vec = st.builds(lambda a, b: DimVector({"i": a, "j": b}),
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=3))


A3 = Quiver(["1", "2", "3"], [("1", "2"), ("2", "3")])
D4 = Quiver(["a", "b", "c", "d"], [("a", "d"), ("b", "d"), ("c", "d")])
# the quivers of the hn warm-answer cases, with their bounds
WARM_CASES = {f"K{m}": (kronecker_quiver(m), (5, 5)) for m in (1, 2, 3, 4)}
WARM_CASES["A3"] = (A3, (2, 2, 2))
WARM_CASES["D4"] = (D4, (1, 1, 1, 2))


class TestWarmAnswers:
    @staticmethod
    def answers(quiver, d, dims):
        """The JSON text of every memoized public answer at d."""
        return json.dumps({
            "decomposition": [p.to_json() for p in generic_decomposition(quiver, d)],
            "schur": schur_test(quiver, d),
            "ext": [generic_ext(quiver, d, e) for e in dims],
            "hom": [generic_hom(quiver, e, d) for e in dims],
            "subrep": [generic_subrep(quiver, e, d) for e in dims if dim_leq(e, d)],
        }, sort_keys=True)

    @pytest.mark.parametrize("name", sorted(WARM_CASES))
    def test_second_call_equals_cold(self, name):
        # a repeat reads what a cold call stored and builds the same
        # answer; a list the caller changes is its own
        quiver, bound = WARM_CASES[name]
        top = DimVector(dict(zip(quiver.vertices, bound)))
        dims = [d for d in quiver.vectors_below(top) if not d.is_zero()]
        for d in dims:
            generic.clear_caches()
            cold = self.answers(quiver, d, dims)
            assert self.answers(quiver, d, dims) == cold, d
            parts = generic_decomposition(quiver, d)
            parts.reverse()
            parts.append(None)
            assert self.answers(quiver, d, dims) == cold, d

    def test_refusals_on_every_call(self, k3, monkeypatch):
        # the zero vector is refused before any memo lookup, and a broken
        # decomposition is refused each time it is asked for: the second
        # refusal shows that the first stored nothing
        generic.clear_caches()
        for _ in range(2):
            with pytest.raises(InputError):
                schur_test(k3, dv())
        assert memo_entries() == 0
        monkeypatch.setattr(generic, "_decompose", lambda ctx, d: ((1, 0),))
        for _ in range(2):
            with pytest.raises(AssertionError, match="does not sum to"):
                generic_decomposition(k3, dv(i=2))

    def test_pair_budget_refuses_before_the_table(self, k3, capsys, monkeypatch):
        # K3 (3, 4) spans 10 * 15 = 150 pairs: with the limit one pair
        # lower, schur exits 3 and stores nothing; at the limit it answers
        argv = ["schur", "--quiver", json.dumps(k3.to_json()), "--dim", '{"i": 3, "j": 4}']
        generic.clear_caches()
        monkeypatch.setattr(generic, "PAIR_BUDGET", 149)
        assert main(argv) == 3
        doc = json.loads(capsys.readouterr().err)
        assert (doc["required"], doc["budget"]) == ("150", "149")
        assert memo_entries() == 0
        monkeypatch.setattr(generic, "PAIR_BUDGET", 150)
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["result"] == {"schur": True}


class TestProperties:
    @settings(deadline=None, max_examples=40)
    @given(vec, vec)
    def test_ext_additive_floor(self, d, e):
        q = kronecker_quiver(2)
        # ext dominates -<d,e> and vanishes symmetrically only when generic
        # reps glue trivially; weak sanity bound: ext(d, e) <= dim Ext upper
        # bound a(d, e)
        x = generic_ext(q, d, e)
        assert 0 <= x <= 2 * d["i"] * e["j"]
