"""Kac root system of the underlying graph of a quiver.

Classification uses reflection descent on the symmetrized Euler form: real
roots descend to a simple root through Weyl reflections, imaginary roots
descend into the fundamental domain (all pairings nonpositive, connected
support).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .quiver import DimVector, Quiver

__all__ = [
    "RootClassification",
    "classify_root",
    "positive_roots_up_to",
    "decomposition_stratum_nonempty",
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


def _is_simple(quiver, d):
    t = quiver.tup(d)
    return sum(t) == 1


def _support_connected(quiver, d):
    supp = d.support()
    if not supp:
        return False
    seen = {next(iter(supp))}
    frontier = list(seen)
    while frontier:
        u = frontier.pop()
        for v in supp:
            if v not in seen and quiver.undirected_adjacent(u, v):
                seen.add(v)
                frontier.append(v)
    return seen == supp


def classify_root(quiver: Quiver, d: DimVector) -> RootClassification:
    """Classify d as a positive real root, imaginary root, or non-root."""
    quiver.check_vector(d)
    if d.is_zero():
        raise InputError("cannot classify the zero vector")
    witness = []
    while True:
        if _is_simple(quiver, d):
            return RootClassification("real", tuple(witness), d)
        # pairing with each simple, smallest vertex index first
        reflected = False
        positive_pairing = False
        for v in quiver.vertices:
            if d[v] == 0:
                continue
            p = quiver.symmetric_form(d, quiver.simple(v))
            if p <= 0:
                continue
            positive_pairing = True
            if d[v] - p >= 0:
                d = DimVector({w: d[w] - (p if w == v else 0)
                               for w in quiver.vertices})
                witness.append(v)
                reflected = True
                break
        if reflected:
            continue
        if positive_pairing:
            # every positive-pairing reflection leaves the positive cone
            return RootClassification("not-root", tuple(witness), None)
        # fundamental domain: all pairings on the support are <= 0
        if _support_connected(quiver, d):
            return RootClassification("imaginary", tuple(witness), d)
        return RootClassification("not-root", tuple(witness), None)


def replay_witness(quiver, endpoint, witness):
    """Apply the recorded reflections in reverse to recover the input."""
    d = endpoint
    for v in reversed(witness):
        p = quiver.symmetric_form(d, quiver.simple(v))
        d = DimVector({w: d[w] - (p if w == v else 0) for w in quiver.vertices})
    return d


def positive_roots_up_to(quiver: Quiver, bound: DimVector):
    """All roots 0 < d <= bound with their kinds, lexicographically ordered."""
    out = []
    for d in quiver.vectors_below(bound):
        cls = classify_root(quiver, d)
        if cls.is_root:
            out.append((d, cls.kind))
    return out


def decomposition_stratum_nonempty(quiver: Quiver, parts) -> bool:
    """True iff every part of the decomposition type is a positive root."""
    parts = list(parts)
    if not parts:
        raise InputError("decomposition type must have at least one part")
    for p in parts:
        if p.is_zero():
            raise InputError("decomposition type contains a zero part")
    return all(classify_root(quiver, p).is_root for p in parts)
