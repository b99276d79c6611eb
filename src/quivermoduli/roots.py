"""Kac root system of the underlying graph of a quiver.

Classification uses reflection descent on the symmetrized Euler form: real
roots descend to a simple root through Weyl reflections, imaginary roots
descend into the fundamental domain (all pairings nonpositive, connected
support).  The descent runs on integer tuples in vertex order; a reflection
lowers the sum of the entries by at least 1, so it refuses with
``BudgetExceeded`` when one more reflection would make the witness longer
than ``quiver.VECTOR_BUDGET`` (10^5), and every d with entries summing to at
most 10^5 + 1 is classified.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceeded, InputError
from .quiver import VECTOR_BUDGET, DimVector, Quiver, _below

__all__ = [
    "RootClassification",
    "classify_root",
    "positive_roots_up_to",
]


@dataclass(frozen=True)
class RootClassification:
    kind: str  # "not-root" | "real" | "imaginary"
    witness: tuple  # vertices reflected at, in order
    endpoint: DimVector | None  # simple root / fundamental-domain vector

    @property
    def is_root(self):
        return self.kind != "not-root"

    def to_json(self):
        out = {"kind": self.kind, "witness": list(self.witness)}
        if self.endpoint is not None:
            out["endpoint"] = self.endpoint.to_json()
        return out


def _pairings(arrows, d):
    """The pairings (d, e_v) of the tuple d with every simple root: 2 d_v
    minus d at the other end of each arrow at v."""
    p = [2 * x for x in d]
    for s, t in arrows:
        p[s] -= d[t]
        p[t] -= d[s]
    return p


def _connected(arrows, d):
    """Whether the support of the nonzero tuple d is connected."""
    supp = {v for v, x in enumerate(d) if x}
    seen = {min(supp)}
    grew = True
    while grew:
        grew = False
        for s, t in arrows:
            if s in supp and t in supp and (s in seen) != (t in seen):
                seen.update((s, t))
                grew = True
    return seen == supp


def _descend(arrows, t):
    """(kind, witness as vertex indices, endpoint list or None) of the
    nonzero tuple t.  Each step reflects at the first vertex whose pairing is
    positive and at most its entry, so the entries stay nonnegative."""
    d = list(t)
    witness = []
    while sum(d) != 1:
        p = _pairings(arrows, d)
        v = next((v for v, (x, y) in enumerate(zip(d, p)) if 0 < y <= x), None)
        if v is None:
            # every positive-pairing reflection leaves the positive cone;
            # with none, d is in the fundamental domain
            if max(p) > 0 or not _connected(arrows, d):
                return "not-root", witness, None
            return "imaginary", witness, d
        if len(witness) == VECTOR_BUDGET:
            raise BudgetExceeded(
                f"the reflection descent of {list(t)} takes more than {VECTOR_BUDGET} "
                "reflections", budget=VECTOR_BUDGET)
        d[v] -= p[v]
        witness.append(v)
    return "real", witness, d


def classify_root(quiver: Quiver, d: DimVector) -> RootClassification:
    """Classify d as a positive real root, imaginary root, or non-root."""
    t = quiver.tup(d)
    if not any(t):
        raise InputError("cannot classify the zero vector")
    kind, witness, end = _descend(quiver.arrow_pairs, t)
    if end is not None:
        # unreflected, the endpoint is d itself, whose JSON keeps the keys given
        end = quiver.vec(end) if witness else d
    return RootClassification(kind, tuple(quiver.vertices[v] for v in witness), end)


def positive_roots_up_to(quiver: Quiver, bound: DimVector):
    """All roots 0 < d <= bound with their kinds, lexicographically ordered."""
    out = []
    for t in _below(quiver.tup(bound)):
        kind = _descend(quiver.arrow_pairs, t)[0]
        if kind != "not-root":
            out.append((quiver.vec(t), kind))
    return out
