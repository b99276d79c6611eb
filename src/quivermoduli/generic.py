"""Generic (Schofield/Kac) calculus of general quiver representations.

ext(d, e) is the dimension of Ext between representations in general
position; it is computed by Schofield's recursion over generic
subrepresentation dimensions of d.  Everything else (generic hom, Schur-root
test, canonical decomposition) is derived from it.

Below the public functions, everything runs on integer tuples against the
context of the quiver, in the one store whose tables ``hn`` reads too.
"""

from __future__ import annotations

from itertools import permutations
from operator import le, mul

from .errors import InputError
from .quiver import DimVector, Quiver, _below, _context, _memoized, _minus, clear_caches

__all__ = [
    "generic_ext",
    "generic_hom",
    "generic_subrep",
    "schur_test",
    "generic_decomposition",
    "clear_caches",
]


def _subreps(ctx, d):
    """{e: <e, d>} over the dimensions 0 < e <= d of generic
    subrepresentations, those with ext(e, d - e) = 0, lexicographically, so
    d itself comes last.  Kept in ``ctx.memo`` under (_subreps, d), which
    the loop reads first."""
    memo = ctx.memo
    subreps = memo.get((_subreps, d))
    if subreps is not None:
        return subreps
    row = ctx.row(d)  # <e, d> = sum(e * row)
    pairing = {e: sum(map(mul, e, row)) for e in _below(d)}
    subreps = {}
    for e, p in pairing.items():
        # by Schofield, ext(e, d - e) = 0 iff <x, d - e> >= 0, that is
        # <x, e> <= <x, d>, for every x in _subreps(ctx, e); d itself always
        # qualifies, and the largest x most often fails, so it is tried first
        sub = {} if e == d else memo.get((_subreps, e)) or _subreps(ctx, e)
        if all(map(le, reversed(sub.values()),
                   map(pairing.__getitem__, reversed(sub)))):
            subreps[e] = p
    memo[_subreps, d] = subreps
    return subreps


@_memoized
def _ext(ctx, d, e):
    """Schofield: the max of 0 and -<d', e> over the generic
    subrepresentation dimensions d' of d."""
    return max([0] + [-ctx.euler(x, e) for x in _subreps(ctx, d)])


def generic_ext(quiver: Quiver, d: DimVector, e: DimVector) -> int:
    """dim Ext(M, N) for M, N in general position of dimensions d, e."""
    return _ext(_context(quiver), quiver.tup(d), quiver.tup(e))


def generic_hom(quiver: Quiver, d: DimVector, e: DimVector) -> int:
    """dim Hom(M, N) for general M, N; equals <d,e> + ext(d,e)."""
    return quiver.euler(d, e) + generic_ext(quiver, d, e)


def generic_subrep(quiver: Quiver, e: DimVector, d: DimVector) -> bool:
    """True iff the general representation of dimension d has a subrepresentation
    of dimension e; equivalent to ext(e, d-e) = 0."""
    x, y = quiver.tup(e), quiver.tup(d)
    if not all(map(le, x, y)):
        raise InputError("subdimension vector must be componentwise <= ambient")
    return _ext(_context(quiver), x, _minus(y, x)) == 0


@_memoized
def _schur(ctx, d):
    return all(ctx.euler(d, e) < p
               for e, p in _subreps(ctx, d).items() if e != d)


def schur_test(quiver: Quiver, d: DimVector) -> bool:
    """True iff the general representation of dimension d has trivial
    endomorphism ring (d is a Schur root).

    Criterion: <d,e> < <e,d> for every proper nonzero generic subrep
    dimension e of d.
    """
    t = quiver.tup(d)
    if not any(t):
        raise InputError("zero vector is not a Schur root candidate")
    return _schur(_context(quiver), t)


@_memoized
def _decompose(ctx, d):
    if not any(d):
        return ()
    if _schur(ctx, d):
        return (d,)
    for e in _subreps(ctx, d):
        if e == d:
            break
        cand = tuple(sorted(_decompose(ctx, e) + _decompose(ctx, _minus(d, e))))
        if _kac_conditions(ctx, cand):
            return cand
    raise AssertionError(
        f"no generic decomposition found for {d!r}; this should be impossible")


def _kac_conditions(ctx, parts):
    return (all(_schur(ctx, p) for p in parts)
            and all(_ext(ctx, a, b) == 0 for a, b in permutations(parts, 2)))


def generic_decomposition(quiver: Quiver, d: DimVector):
    """The canonical decomposition d = d1 + ... + dn: the unique multiset of
    Schur roots with pairwise vanishing generic ext, returned sorted
    lexicographically in the canonical vertex order."""
    ctx, t = _context(quiver), quiver.tup(d)
    parts = _decompose(ctx, t)
    out = list(map(quiver.vec, parts))
    if not _kac_conditions(ctx, parts):
        raise AssertionError(f"decomposition {out!r} breaks Kac's conditions")
    if any(x != sum(ps) for x, *ps in zip(t, *parts)):
        raise AssertionError(f"decomposition {out!r} does not sum to {quiver.vec(t)!r}")
    return out
