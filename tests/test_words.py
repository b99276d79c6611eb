import pytest
from hypothesis import given, settings, strategies as st

from quivermoduli.errors import InputError
from quivermoduli.quiver import Quiver, kronecker_quiver
from quivermoduli.words import (MonoidOutcome, monoid_equal, schur_normal_form,
                                word_leq, word_weight)

from conftest import ReferenceMonoid, dv


class TestWeightAndOrder:
    def test_weight(self, a2):
        assert word_weight(a2, "iij") == dv(i=2, j=1)
        assert word_weight(a2, "") == dv()
        with pytest.raises(InputError):
            word_weight(a2, "ix")

    def test_leq_examples(self, a2):
        assert word_leq(a2, "ij", "ji")
        assert not word_leq(a2, "ji", "ij")
        assert word_leq(a2, "iijj", "jjii")
        assert word_leq(a2, "ijij", "jjii")
        assert not word_leq(a2, "ij", "ij" + "i")  # weight mismatch
        assert word_leq(a2, "ij", "ij")

    def test_leq_is_partial_order_on_small_words(self, k2):
        words = [w for n in range(4)
                 for w in __import__("itertools").product("ij", repeat=n)]
        for u in words:
            for v in words:
                if word_leq(k2, u, v) and word_leq(k2, v, u):
                    assert u == v
                for w in words:
                    if word_leq(k2, u, v) and word_leq(k2, v, w):
                        assert word_leq(k2, u, w)


def search_word_leq(quiver, w, w2):
    """Reference: breadth-first search upward from w by the generating moves
    u i j u' -> u j i u' (i before j) within the weight class."""
    w, w2 = tuple(w), tuple(w2)
    if word_weight(quiver, w) != word_weight(quiver, w2):
        return False
    idx = quiver.index
    seen, frontier = {w}, [w]
    while frontier:
        nxt = []
        for u in frontier:
            for p in range(len(u) - 1):
                if idx(u[p]) < idx(u[p + 1]):  # move the larger letter left
                    v = u[:p] + (u[p + 1], u[p]) + u[p + 2:]
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
        frontier = nxt
    return w2 in seen


LEQ_QUIVERS = {"A3": Quiver(["1", "2", "3"], [("1", "2"), ("2", "3")]),
               "D4": Quiver(["a", "b", "c", "d"], [("a", "d"), ("b", "d"), ("c", "d")]),
               "K3": kronecker_quiver(3)}

small_word = st.lists(st.sampled_from("ij"), max_size=5).map(tuple)


class TestOrderProperties:
    @settings(deadline=None, max_examples=60)
    @given(small_word, small_word)
    def test_antisymmetry(self, u, v):
        q = kronecker_quiver(2)
        if u != v:
            assert not (word_leq(q, u, v) and word_leq(q, v, u))

    @pytest.mark.parametrize("name", sorted(LEQ_QUIVERS))
    @settings(deadline=None, max_examples=100)
    @given(data=st.data())
    def test_counts_match_search(self, name, data):
        # the weak-order count against the search it replaced, on words of
        # one weight (and of two, when w2 drops or adds a letter)
        quiver = LEQ_QUIVERS[name]
        letters = st.sampled_from(quiver.vertices)
        w = data.draw(st.lists(letters, max_size=8))
        w2 = data.draw(st.permutations(w))
        if data.draw(st.booleans()):
            w2 = w2[1:] + data.draw(st.lists(letters, max_size=1))
        assert word_leq(quiver, w, w2) == search_word_leq(quiver, w, w2)

    @settings(deadline=None, max_examples=60)
    @given(small_word)
    def test_reflexive_and_sorted_is_minimum(self, u):
        q = kronecker_quiver(2)
        assert word_leq(q, u, u)
        lo = tuple(sorted(u))  # all i's first: the generic (least) word
        assert word_leq(q, lo, u)


class TestMonoid:
    def test_a2_relation_instances(self, a2):
        # one arrow i -> j: iij ~ iji and ijj ~ jij
        assert monoid_equal(a2, "iij", "iji") == MonoidOutcome.EQUAL
        assert monoid_equal(a2, "ijj", "jij") == MonoidOutcome.EQUAL
        assert monoid_equal(a2, "ij", "ji") == MonoidOutcome.NOT_EQUAL

    def test_k2_relation_instances(self, k2):
        # two arrows: iiij ~ iiji but iij !~ iji
        assert monoid_equal(k2, "iiij", "iiji") == MonoidOutcome.EQUAL
        assert monoid_equal(k2, "iij", "iji") == MonoidOutcome.NOT_EQUAL

    def test_no_arrows_commute(self):
        q = Quiver(["a", "b"], [])
        assert monoid_equal(q, "ab", "ba") == MonoidOutcome.EQUAL

    def test_weight_mismatch_is_not_equal(self, a2):
        assert monoid_equal(a2, "i", "j") == MonoidOutcome.NOT_EQUAL

    def test_tiny_budget_undecided(self, a2):
        out = monoid_equal(a2, "iijjiijj", "jjiijjii", budget=2)
        assert out == MonoidOutcome.UNDECIDED


CLOSURE_QUIVERS = {
    **{f"K{m}": kronecker_quiver(m) for m in (1, 2, 3, 4)},
    "A2": Quiver(["i", "j"], [("i", "j")]),
    "A3": LEQ_QUIVERS["A3"],
    "A3-sink": Quiver(["1", "2", "3"], [("1", "2"), ("3", "2")]),
    "D4": LEQ_QUIVERS["D4"],
    "no-arrows": Quiver(["a", "b"], []),
    # names of more than one character, spelled a1,a1,a2 on the command line;
    # the topological order (a10, a1, a2) differs from the listed one
    "long-names": Quiver(["a1", "a2", "a10"],
                         [("a1", "a2"), ("a1", "a2"), ("a10", "a1")]),
}


class TestClosureAgainstReference:
    @pytest.mark.parametrize("name", sorted(CLOSURE_QUIVERS))
    @settings(deadline=None, max_examples=25)
    @given(data=st.data())
    def test_every_budget(self, name, data):
        # the string closure against the tuple search it replaced: the same
        # answers of monoid_equal at every budget up to one past the class
        # size
        quiver = CLOSURE_QUIVERS[name]
        letters = st.sampled_from(quiver.vertices)
        w = tuple(data.draw(st.lists(letters, max_size=8)))
        w2 = tuple(data.draw(st.permutations(w)))
        if data.draw(st.booleans()):
            w2 = w2[1:] + tuple(data.draw(st.lists(letters, max_size=1)))
        size = len(ReferenceMonoid.monoid_class(quiver, w, 10 ** 6)[0])
        outcomes = ReferenceMonoid.outcomes(quiver, w, w2, size)
        for budget, outcome in enumerate(outcomes, 1):
            assert monoid_equal(quiver, w, w2, budget).value == outcome


class TestSchurNormalForm:
    def test_merge_example(self, k3):
        # ext(j, i) = 0 and ext(i, j) = 3: S_i * S_j collapses to (1,1)
        nf = schur_normal_form(k3, [dv(i=1), dv(j=1)])
        assert nf == [dv(i=1, j=1)]

    def test_opposite_order_stays_split(self, k3):
        nf = schur_normal_form(k3, [dv(j=1), dv(i=1)])
        assert nf == [dv(j=1), dv(i=1)]

    def test_non_schur_part_decomposes(self, k1):
        nf = schur_normal_form(k1, [dv(i=2, j=2)])
        assert nf == [dv(i=1, j=1), dv(i=1, j=1)]

    def test_zero_parts_dropped(self, k3):
        assert schur_normal_form(k3, [dv(), dv(i=1)]) == [dv(i=1)]

    def test_weight_preserved(self, k2, a2):
        from quivermoduli.quiver import DimVector
        for q in (k2, a2):
            parts = [dv(i=1), dv(i=1, j=1), dv(j=2)]
            nf = schur_normal_form(q, parts)
            assert sum(nf, DimVector({})) == sum(parts, DimVector({}))
