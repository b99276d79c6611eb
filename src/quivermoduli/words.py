"""Word combinatorics of composition series: the degeneration order on
words, the abstract monoid with its straightening relations, and normal
forms for products of Schur-root strata.

The congruence closure codes vertex i as the character chr(i), so a word is
a string.  It searches breadth-first from the given word, trying the
relations in ``_relations`` order, each forward then backward, at ascending
positions.  ``budget`` counts distinct words, the start word included: the
search refuses when a new word would make more than ``budget`` of them.
``monoid_equal`` returns EQUAL as soon as it reaches the second word, so
the answer is EQUAL whenever that word comes before the refusal, UNDECIDED
after a refusal, and NOT_EQUAL only after a complete search.
"""

from __future__ import annotations

from enum import Enum
from operator import le

from .generic import generic_decomposition, generic_ext, schur_test
from .quiver import DimVector, Quiver

__all__ = [
    "MonoidOutcome",
    "word_weight",
    "word_leq",
    "monoid_equal",
    "schur_normal_form",
]

DEFAULT_WORD_BUDGET = 10 ** 6


def word_weight(quiver: Quiver, word) -> DimVector:
    coded = _code(quiver, word)
    return DimVector({quiver.vertices[ord(c)]: coded.count(c)
                      for c in dict.fromkeys(coded)})


def _later_counts(quiver, coded):
    """For each vertex index a, one list per occurrence of a in the coded
    word: how many of each later vertex b > a come before that occurrence."""
    seen = [0] * len(quiver.vertices)
    out = [[] for _ in seen]
    for c in coded:
        a = ord(c)
        out[a].append(seen[a + 1:])
        seen[a] += 1
    return out


def word_leq(quiver: Quiver, w, w2) -> bool:
    """Degeneration order: generated by u i j u' < u j i u' for i before j
    in the canonical vertex order.  It is the weak order on words of one
    weight, so w <= w2 iff for all vertices a < b and every p, w has at most
    as many b's before its p-th a as w2 has: O(len * |V|), no search."""
    w, w2 = _code(quiver, w), _code(quiver, w2)
    if sorted(w) != sorted(w2):
        return False
    return all(all(map(le, x, y))
               for xs, ys in zip(_later_counts(quiver, w), _later_counts(quiver, w2))
               for x, y in zip(xs, ys))


class MonoidOutcome(Enum):
    EQUAL = "equal"
    NOT_EQUAL = "not-equal"
    UNDECIDED = "undecided-at-budget"


def _relations(quiver):
    """Straightening relations, each once, as unordered pairs (lhs, rhs) of
    words in first-seen order.

    For vertices i != j with no arrow j -> i and n = #arrows i -> j:
    i^{n+1} j  ~  i^n j i   and   i j^{n+1}  ~  j i j^n.
    (With n = 0 both reduce to the commutation i j ~ j i, listed once.)
    """
    rels = []
    for i in quiver.vertices:
        for j in quiver.vertices:
            if i == j or quiver.arrow_count(j, i) > 0:
                continue
            n = quiver.arrow_count(i, j)
            for lhs, rhs in (((i,) * (n + 1) + (j,), (i,) * n + (j, i)),
                             ((i,) + (j,) * (n + 1), (j, i) + (j,) * n)):
                if (lhs, rhs) not in rels and (rhs, lhs) not in rels:
                    rels.append((lhs, rhs))
    return rels


def _code(quiver, word):
    """``word`` as a string of one character chr(i) per letter, i its vertex
    index, so code point order is the canonical vertex order."""
    return "".join(chr(quiver.index(str(x))) for x in word)


def _closure(quiver, coded, budget, goal):
    """(set of coded words reachable from ``coded``, closure-completed flag).

    Stops, incomplete, once ``goal`` is reached or a new word would make the
    set larger than ``budget``."""
    rules = []
    for lhs, rhs in _relations(quiver):
        lhs, rhs = _code(quiver, lhs), _code(quiver, rhs)
        rules += [(lhs, rhs, len(lhs)), (rhs, lhs, len(rhs))]
    seen = {coded}
    frontier = [coded]
    while frontier:
        nxt = []
        for u in frontier:
            for a, b, n in rules:
                p = u.find(a)
                while p >= 0:
                    v = u[:p] + b + u[p + n:]
                    if v not in seen:
                        if len(seen) >= budget:
                            return seen, False
                        seen.add(v)
                        if v == goal:
                            return seen, False
                        nxt.append(v)
                    p = u.find(a, p + 1)
        frontier = nxt
    return seen, True


def monoid_equal(quiver: Quiver, w, w2,
                 budget=DEFAULT_WORD_BUDGET) -> MonoidOutcome:
    """Congruence of two words under the straightening relations.

    Tri-state: the closure may hit the word budget before reaching ``w2``,
    in which case neither equality nor inequality is claimed.
    """
    w, w2 = _code(quiver, w), _code(quiver, w2)
    if sorted(w) != sorted(w2):
        return MonoidOutcome.NOT_EQUAL
    if w == w2:
        return MonoidOutcome.EQUAL
    seen, complete = _closure(quiver, w, budget, goal=w2)
    if w2 in seen:
        return MonoidOutcome.EQUAL
    return MonoidOutcome.NOT_EQUAL if complete else MonoidOutcome.UNDECIDED


def schur_normal_form(quiver: Quiver, parts):
    """Normal form of a product of strata R_{d^1} * ... * R_{d^s}.

    Adjacent factors (a, b) merge into a + b when ext(b, a) = 0 but
    ext(a, b) != 0 (the product collapses to a single stratum and the pair
    cannot be re-split the same way); non-Schur parts are replaced by their
    generic decomposition.  Iterates to a fixed point.
    """
    out = []
    for p in parts:
        quiver.check_vector(p)
        if not p.is_zero():
            out.append(p)
    for _ in range(1000):
        changed = False
        expanded = []
        for p in out:
            if schur_test(quiver, p):
                expanded.append(p)
            else:
                expanded.extend(generic_decomposition(quiver, p))
                changed = True
        out = expanded
        k = 0
        while k + 1 < len(out):
            a, b = out[k], out[k + 1]
            if generic_ext(quiver, b, a) == 0 and generic_ext(quiver, a, b) != 0:
                out[k:k + 2] = [a + b]
                changed = True
            else:
                k += 1
        if not changed:
            return out
    raise AssertionError("schur_normal_form did not stabilize")
