"""Generic (Schofield/Kac) calculus of general quiver representations.

ext(d, e) is the dimension of Ext between representations in general
position; it is computed by Schofield's recursion over generic
subrepresentation dimensions of d.  Everything else (generic hom, Schur-root
test, canonical decomposition) is derived from it.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import InputError
from .quiver import DimVector, Quiver

__all__ = [
    "generic_ext",
    "generic_hom",
    "generic_subrep",
    "schur_test",
    "generic_decomposition",
    "clear_caches",
]


@lru_cache(maxsize=None)
def _ext(quiver, d, e):
    # max over generic subrep dimensions d' of d of -<d', e>, floored at 0.
    dt = quiver.tup(d)
    if all(x == 0 for x in dt) or all(x == 0 for x in quiver.tup(e)):
        return 0
    best = 0
    for dp in quiver.vectors_below(d):
        if dp == d:
            continue
        if _ext(quiver, dp, d - dp) == 0:
            best = max(best, -quiver.euler(dp, e))
    # d' = d always qualifies (ext(d, 0) = 0)
    best = max(best, -quiver.euler(d, e))
    return best


def generic_ext(quiver: Quiver, d: DimVector, e: DimVector) -> int:
    """dim Ext(M, N) for M, N in general position of dimensions d, e."""
    quiver.check_vector(d)
    quiver.check_vector(e)
    return _ext(quiver, d, e)


def generic_hom(quiver: Quiver, d: DimVector, e: DimVector) -> int:
    """dim Hom(M, N) for general M, N; equals <d,e> + ext(d,e)."""
    return quiver.euler(d, e) + generic_ext(quiver, d, e)


def generic_subrep(quiver: Quiver, e: DimVector, d: DimVector) -> bool:
    """True iff the general representation of dimension d has a subrepresentation
    of dimension e; equivalent to ext(e, d-e) = 0."""
    quiver.check_vector(e)
    quiver.check_vector(d)
    if not e <= d:
        raise InputError("subdimension vector must be componentwise <= ambient")
    return _ext(quiver, e, d - e) == 0


@lru_cache(maxsize=None)
def _schur(quiver, d):
    if d.is_zero():
        raise InputError("zero vector is not a Schur root candidate")
    for e in quiver.vectors_below(d):
        if e == d:
            continue
        if _ext(quiver, e, d - e) == 0 and not quiver.euler(d, e) < quiver.euler(e, d):
            return False
    return True


def schur_test(quiver: Quiver, d: DimVector) -> bool:
    """True iff the general representation of dimension d has trivial
    endomorphism ring (d is a Schur root).

    Criterion: <d,e> < <e,d> for every proper nonzero generic subrep
    dimension e of d.
    """
    quiver.check_vector(d)
    return _schur(quiver, d)


@lru_cache(maxsize=None)
def _decompose(quiver, d):
    if d.is_zero():
        return ()
    if _schur(quiver, d):
        return (d,)
    for e in quiver.vectors_below(d):
        if e == d:
            continue
        if _ext(quiver, e, d - e) != 0:
            continue
        cand = tuple(sorted(_decompose(quiver, e) + _decompose(quiver, d - e),
                            key=quiver.tup))
        if _kac_conditions(quiver, cand):
            return cand
    raise AssertionError(
        f"no generic decomposition found for {d!r}; this should be impossible")


def _kac_conditions(quiver, parts):
    for p in parts:
        if not _schur(quiver, p):
            return False
    for i, a in enumerate(parts):
        for j, b in enumerate(parts):
            if i != j and _ext(quiver, a, b) != 0:
                return False
    return True


def generic_decomposition(quiver: Quiver, d: DimVector):
    """The canonical decomposition d = d1 + ... + dn: the unique multiset of
    Schur roots with pairwise vanishing generic ext, returned sorted
    lexicographically in the canonical vertex order."""
    quiver.check_vector(d)
    parts = _decompose(quiver, d)
    if not _kac_conditions(quiver, parts):
        raise AssertionError(f"decomposition {parts!r} breaks Kac's conditions")
    if sum(parts, DimVector({})) != d:
        raise AssertionError(f"decomposition {parts!r} does not sum to {d!r}")
    return list(parts)


def clear_caches():
    _ext.cache_clear()
    _schur.cache_clear()
    _decompose.cache_clear()
