import pytest
from hypothesis import given, strategies as st

from quivermoduli.errors import InputError
from quivermoduli.quiver import DimVector, Quiver, kronecker_quiver
from quivermoduli.roots import classify_root, positive_roots_up_to

from conftest import ReferenceRoots, dv, replay_witness, symmetric_form


class TestClassify:
    def test_a2_examples(self, a2):
        assert classify_root(a2, dv(i=1, j=1)).kind == "real"
        assert classify_root(a2, dv(i=2)).kind == "not-root"
        assert classify_root(a2, dv(i=1)).kind == "real"

    def test_k2_examples(self, k2):
        assert classify_root(k2, dv(i=2, j=2)).kind == "imaginary"
        assert classify_root(k2, dv(i=1, j=1)).kind == "imaginary"  # isotropic
        assert classify_root(k2, dv(i=2, j=1)).kind == "real"

    def test_zero_rejected(self, a2):
        with pytest.raises(InputError):
            classify_root(a2, dv())

    def test_disconnected_support_not_root(self, a3):
        assert classify_root(a3, DimVector({"1": 1, "3": 1})).kind == "not-root"
        # every pairing is <= 0, so only the support rules it out
        d = DimVector({"a": 1, "b": 1, "d": 1, "e": 1})
        assert classify_root(QUIVERS["two-K2"], d).kind == "not-root"

    def test_witness_replays_to_input(self, k2, a3):
        for q, d in [(k2, dv(i=2, j=1)), (k2, dv(i=3, j=2)),
                     (a3, DimVector({"1": 1, "2": 1, "3": 1}))]:
            cls = classify_root(q, d)
            assert cls.kind == "real"
            assert replay_witness(q, cls.endpoint, cls.witness) == d

    def test_imaginary_endpoint_in_fundamental_domain(self, k3):
        cls = classify_root(k3, dv(i=2, j=3))
        assert cls.kind == "imaginary"
        e = cls.endpoint
        for v in {v for v, n in e.items() if n}:
            assert symmetric_form(k3, e, DimVector({v: 1})) <= 0


class TestEnumeration:
    def test_a2_roots(self, a2):
        roots = positive_roots_up_to(a2, dv(i=2, j=2))
        assert roots == [(dv(j=1), "real"), (dv(i=1), "real"),
                         (dv(i=1, j=1), "real")]

    def test_k2_affine_roots(self, k2):
        roots = dict(positive_roots_up_to(k2, dv(i=2, j=2)))
        # affine A1: roots are (a,b) with |a-b| <= 1
        assert roots == {dv(i=1): "real", dv(j=1): "real",
                         dv(i=1, j=1): "imaginary", dv(i=2, j=1): "real",
                         dv(i=1, j=2): "real", dv(i=2, j=2): "imaginary"}

    def test_single_vertex(self):
        q = Quiver(["x"], [])
        assert positive_roots_up_to(q, DimVector({"x": 3})) == \
            [(DimVector({"x": 1}), "real")]

    def test_tits_form_values(self, k2, k3, a2, a3):
        for q, bound in [(k2, dv(i=3, j=3)), (k3, dv(i=3, j=3)),
                         (a2, dv(i=3, j=3)),
                         (a3, DimVector({"1": 2, "2": 2, "3": 2}))]:
            for d, kind in positive_roots_up_to(q, bound):
                tits = q.euler(d, d)
                if kind == "real":
                    assert tits == 1, (d, kind)
                else:
                    assert tits <= 0, (d, kind)


QUIVERS = {
    **{f"K{m}": kronecker_quiver(m) for m in range(6)},
    "A3": Quiver(["1", "2", "3"], [("1", "2"), ("2", "3")]),
    "A3-sink": Quiver(["1", "2", "3"], [("1", "2"), ("3", "2")]),
    "D4": Quiver(["c", "x", "y", "z"], [("x", "c"), ("y", "c"), ("z", "c")]),
    "E6": Quiver(["1", "2", "3", "4", "5", "6"],
                 [("1", "2"), ("2", "3"), ("4", "3"), ("5", "4"), ("6", "3")]),
    "wild3": Quiver(["x", "y", "z"], [("x", "y"), ("x", "y"), ("y", "z"),
                                      ("y", "z"), ("x", "z")]),
    "no-arrows": Quiver(["i", "j"], []),
    # two K2 joined through c
    "two-K2": Quiver(["a", "b", "c", "d", "e"], [("a", "b"), ("a", "b"), ("b", "c"),
                                                  ("c", "d"), ("d", "e"), ("d", "e")]),
    # the topological order a1, a2, a10 is neither the listed nor the sorted one
    "a10": Quiver(["a10", "a2", "a1"], [("a1", "a2"), ("a2", "a10")]),
}


@st.composite
def quiver_and_dim(draw):
    name = draw(st.sampled_from(sorted(QUIVERS)))
    quiver = QUIVERS[name]
    top = 3 if len(quiver.vertices) <= 4 else 2
    entries = draw(st.lists(st.integers(0, top), min_size=len(quiver.vertices),
                            max_size=len(quiver.vertices)).filter(any))
    return quiver, quiver.vec(tuple(entries))


class TestAgainstReference:
    @given(quiver_and_dim())
    def test_same_classification_and_roots(self, case):
        quiver, d = case
        cls = classify_root(quiver, d)
        kind, witness, endpoint = ReferenceRoots.classify_root(quiver, d)
        assert (cls.kind, cls.witness) == (kind, witness)
        assert (cls.endpoint and cls.endpoint.to_json()) == \
            (endpoint and endpoint.to_json())
        if cls.kind == "real":
            assert replay_witness(quiver, cls.endpoint, cls.witness) == d
        roots = positive_roots_up_to(quiver, d)
        assert roots == ReferenceRoots.positive_roots_up_to(quiver, d)
        for e, kind in roots:
            if kind == "real":
                cls = classify_root(quiver, e)
                assert replay_witness(quiver, cls.endpoint, cls.witness) == e
