"""Quivers, dimension vectors, Euler forms and stability functionals.

A quiver here is a finite directed graph without loops or oriented cycles.
Vertices are kept in a topological order (arrows always point forward in the
stored order), which is also the total order used by the word combinatorics.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Mapping
from itertools import product
from operator import mul, sub

from .errors import BudgetExceeded, InputError

__all__ = [
    "DimVector",
    "Quiver",
    "Stability",
    "LoopReduction",
    "kronecker_quiver",
    "local_quiver",
    "birational_type",
]


class DimVector(Mapping):
    """Immutable map vertex -> nonnegative integer."""

    __slots__ = ("_entries", "_hash")

    def __init__(self, entries):
        clean = {}
        for v, n in dict(entries).items():
            if not isinstance(n, int) or isinstance(n, bool):
                raise InputError(f"dimension at {v!r} must be an integer, got {n!r}")
            if n < 0:
                raise InputError(f"dimension at {v!r} is negative: {n}")
            clean[str(v)] = n
        object.__setattr__(self, "_entries", clean)
        object.__setattr__(self, "_hash", None)

    def __getitem__(self, v):
        return self._entries.get(v, 0)

    def __iter__(self):
        return iter(self._entries)

    def __len__(self):
        return len(self._entries)

    def __eq__(self, other):
        if not isinstance(other, DimVector):
            return NotImplemented
        return self._stripped() == other._stripped()

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(frozenset(self._stripped().items())))
        return self._hash

    def _stripped(self):
        return {v: n for v, n in self._entries.items() if n != 0}

    def __add__(self, other):
        keys = set(self._entries) | set(other._entries)
        return DimVector({v: self[v] + other[v] for v in keys})

    def total(self):
        """Total dimension: the sum of all entries."""
        return sum(self._entries.values())

    def is_zero(self):
        return all(n == 0 for n in self._entries.values())

    def to_json(self):
        return {v: self._entries[v] for v in sorted(self._entries)}

    def __repr__(self):
        inner = ", ".join(f"{v}: {n}" for v, n in sorted(self._entries.items()))
        return f"DimVector({{{inner}}})"


class Quiver:
    """Finite quiver without loops or oriented cycles.

    ``vertices`` is stored as a topological order (stable with respect to the
    input order), so an arrow i -> j always has i before j.
    """

    __slots__ = ("vertices", "arrows", "arrow_pairs", "_index", "_arrow_counts",
                 "_key", "_hash")

    def __init__(self, vertices, arrows):
        vertices = tuple(vertices)
        for v in vertices:
            if not isinstance(v, str):
                raise InputError(f"vertices must be a list of strings, got {v!r}")
        if len(set(vertices)) != len(vertices):
            raise InputError("duplicate vertex names")
        arrows = tuple((s, t) for s, t in arrows)
        vset = set(vertices)
        for s, t in arrows:
            if not (isinstance(s, str) and isinstance(t, str)):
                raise InputError("arrows must be pairs whose from and to are strings, "
                                 f"got {s!r} -> {t!r}")
            if s not in vset or t not in vset:
                raise InputError(f"arrow {s}->{t} uses an unknown vertex")
            if s == t:
                raise InputError(f"loop at vertex {s!r} is not allowed")
        order = self._topological_order(vertices, arrows)
        object.__setattr__(self, "vertices", order)
        object.__setattr__(self, "arrows", arrows)
        index = {v: i for i, v in enumerate(order)}
        object.__setattr__(self, "_index", index)
        # (source, target) vertex indices in the order the arrows are listed;
        # per-arrow data (matrices of a representation) follows this order.
        object.__setattr__(self, "arrow_pairs",
                           tuple((index[s], index[t]) for s, t in arrows))
        counts = {}
        for s, t in arrows:
            counts[(s, t)] = counts.get((s, t), 0) + 1
        object.__setattr__(self, "_arrow_counts", counts)
        # equality and the hash ignore the order arrows are listed in
        key = (order, tuple(sorted(arrows)))
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __setattr__(self, name, value):
        raise AttributeError("Quiver is immutable")

    @staticmethod
    def _topological_order(vertices, arrows):
        """Kahn's algorithm over a heap of input positions: the earliest-listed
        vertex with no arrow left into it comes next."""
        succ = [[] for _ in vertices]
        indeg = [0] * len(vertices)
        position = {v: i for i, v in enumerate(vertices)}
        for s, t in arrows:
            succ[position[s]].append(position[t])
            indeg[position[t]] += 1
        ready = [i for i, n in enumerate(indeg) if n == 0]
        order = []
        while ready:
            i = heapq.heappop(ready)
            order.append(vertices[i])
            for j in succ[i]:
                indeg[j] -= 1
                if not indeg[j]:
                    heapq.heappush(ready, j)
        if len(order) != len(vertices):
            raise InputError("quiver contains an oriented cycle")
        return tuple(order)

    def __eq__(self, other):
        if not isinstance(other, Quiver):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Quiver(vertices={list(self.vertices)}, arrows={list(self.arrows)})"

    # -- basic queries -----------------------------------------------------

    def index(self, v):
        try:
            return self._index[v]
        except KeyError:
            raise InputError(f"unknown vertex {v!r}") from None

    def arrow_count(self, s, t):
        return self._arrow_counts.get((s, t), 0)

    def check_vector(self, d):
        """Refuse a dimension vector with a nonzero entry at an unknown
        vertex; a zero entry there is accepted."""
        entries = d._entries
        if not entries.keys() <= self._index.keys():
            extra = sorted(v for v, n in entries.items() if n and v not in self._index)
            if extra:
                raise InputError(f"dimension vector mentions unknown vertices {extra}")

    def tup(self, d):
        """Dimension vector as a tuple in the canonical vertex order."""
        self.check_vector(d)
        get = d._entries.get
        return tuple([get(v, 0) for v in self.vertices])

    def vec(self, t):
        return DimVector(dict(zip(self.vertices, t)))

    # -- forms -------------------------------------------------------------

    def euler(self, d, e):
        """Euler form <d, e> = sum_i d_i e_i - sum_{arrows i->j} d_i e_j."""
        return _context(self).euler(self.tup(d), self.tup(e))

    # -- enumeration helpers ----------------------------------------------

    # caller: the benchmark's tracer (bench/tracing.py METHODS), not a command
    def vectors_below(self, bound):
        """All dimension vectors 0 < e <= bound, lexicographic in vertex order."""
        return map(self.vec, _below(self.tup(bound)))

    # -- serialization -----------------------------------------------------

    def to_json(self):
        return {
            "vertices": list(self.vertices),
            "arrows": [{"from": s, "to": t} for s, t in self.arrows],
        }

    @classmethod
    def from_json(cls, data):
        try:
            vertices = data["vertices"]
            arrows = [(a["from"], a["to"]) for a in data["arrows"]]
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad quiver JSON structure: {exc}") from None
        # Quiver checks the names themselves
        if not isinstance(vertices, list):
            raise InputError("bad quiver JSON structure: vertices must be a list of strings")
        if not isinstance(data["arrows"], list):
            raise InputError("bad quiver JSON structure: arrows must be a list of "
                             "objects whose from and to are strings")
        return cls(vertices, arrows)


class Stability:
    """Integer linear functional theta, one integer per vertex; ``hn`` ranks
    the slopes theta(e) / dim e of each query as reduced integer pairs."""

    __slots__ = ("theta", "_keys")

    def __init__(self, theta):
        clean = {}
        for v, n in dict(theta).items():
            if not isinstance(n, int) or isinstance(n, bool):
                raise InputError(f"theta at {v!r} must be an integer, got {n!r}")
            clean[str(v)] = n
        object.__setattr__(self, "theta", clean)
        # key() by vertex order: the order alone decides both the tuple and
        # whether theta names a vertex outside it
        object.__setattr__(self, "_keys", {})

    def __setattr__(self, name, value):
        raise AttributeError("Stability is immutable")

    def __getitem__(self, v):
        return self.theta.get(v, 0)

    def key(self, quiver):
        """theta as a tuple in the quiver's vertex order; theta must name
        only vertices of the quiver."""
        vertices = quiver.vertices
        key = self._keys.get(vertices)
        if key is None:
            for v in self.theta:
                quiver.index(v)
            key = self._keys[vertices] = tuple(self[v] for v in vertices)
        return key

    def to_json(self):
        return {v: n for v, n in sorted(self.theta.items())}

    def __repr__(self):
        return f"Stability({self.to_json()})"


# -- integer-tuple contexts --------------------------------------------------

class _Context:
    """A quiver as integer tuples in vertex order, with the memo of the
    theta-free recursions of ``generic`` and the CLI's kept results."""

    __slots__ = ("arrows", "memo")

    def __init__(self, quiver):
        self.arrows = quiver.arrow_pairs
        self.memo = {}

    def arrow_pairing(self, x, y):
        """a(x, y) = sum over arrows i->j of x_i * y_j."""
        return sum(x[s] * y[t] for s, t in self.arrows)

    def euler(self, x, y):
        return sum(map(mul, x, y)) - self.arrow_pairing(x, y)

    def row(self, y):
        """The coefficients c of <x, y> = sum_i c_i x_i."""
        c = list(y)
        for s, t in self.arrows:
            c[s] -= y[t]
        return c

    def column(self, x):
        """The coefficients c of <x, y> = sum_i c_i y_i."""
        c = list(x)
        for s, t in self.arrows:
            c[t] -= x[s]
        return c


_contexts = {}


def _context(quiver):
    """The context of ``quiver``, kept in the one store."""
    ctx = _contexts.get(quiver)
    if ctx is None:
        ctx = _contexts[quiver] = _Context(quiver)
    return ctx


def _memoized(fn):
    """Memoize fn(ctx, *args) in ctx.memo, for a context."""
    def wrapper(ctx, *args):
        key = (fn, *args)
        value = ctx.memo.get(key)
        if value is None:
            value = ctx.memo[key] = fn(ctx, *args)
        return value
    return wrapper


def clear_caches():
    """Empty the one memo store of the symbolic modules."""
    _contexts.clear()


# The most tuples 0 <= e <= g that one enumeration may walk.  The symbolic
# recursions visit pairs of such tuples and are out of reach long before this
# count; above it they refuse before building any range.
VECTOR_BUDGET = 10 ** 5


def _below(g):
    """The nonzero tuples 0 <= e <= g, lexicographically; g comes last."""
    required = math.prod(n + 1 for n in g)
    if required > VECTOR_BUDGET:
        raise BudgetExceeded(f"{required} dimension vectors lie below {list(g)}",
                             required=required, budget=VECTOR_BUDGET)
    it = product(*(range(n + 1) for n in g))
    next(it)
    return it


def _minus(g, e):
    return tuple(map(sub, g, e))


# -- standard quivers ------------------------------------------------------

def kronecker_quiver(m):
    """The m-arrow Kronecker quiver K_m on vertices i, j."""
    if m < 0:
        raise InputError("arrow count must be nonnegative")
    return Quiver(["i", "j"], [("i", "j")] * m)


# -- derived constructions -------------------------------------------------

def local_quiver(quiver, stables):
    """Local quiver of a polystable point sum_k X_k^{m_k}.

    ``stables`` is a list of (dimension vector, multiplicity) pairs. The
    result is the arrow counts ``{(k, l): delta_{k,l} - <e_k, e_l>}`` on the
    vertices "1", ..., "s", zero counts left out and loops allowed, and the
    dimension vector (m_1, ..., m_s).
    """
    if not stables:
        raise InputError("need at least one stable summand")
    dims = []
    mults = []
    for e, m in stables:
        if e.is_zero():
            raise InputError("stable summand with zero dimension vector")
        if not isinstance(m, int) or m < 1:
            raise InputError(f"multiplicity must be a positive integer, got {m!r}")
        quiver.check_vector(e)
        dims.append(e)
        mults.append(m)
    s = len(dims)
    names = [str(k + 1) for k in range(s)]
    counts = {}
    for k in range(s):
        for l in range(s):
            n = (1 if k == l else 0) - quiver.euler(dims[k], dims[l])
            if n < 0:
                raise InputError(
                    f"negative arrow count {n} between summands {k + 1} and {l + 1}; "
                    "input is not a geometrically sensible polystable point")
            if n:
                counts[(names[k], names[l])] = n
    return counts, DimVector(dict(zip(names, mults)))


def birational_type(quiver, d):
    """(n, p) with n = gcd of the entries and p = 1 - <d/n, d/n>."""
    quiver.check_vector(d)
    if d.is_zero():
        raise InputError("birational type of the zero vector is undefined")
    n = math.gcd(*[x for x in quiver.tup(d)])
    base = quiver.vec(tuple(x // n for x in quiver.tup(d)))
    return n, 1 - quiver.euler(base, base)


class LoopReduction:
    """Embedding data of m-tuples of n x n matrices into Kronecker moduli.

    A tuple (A_1, ..., A_m) maps to the K_{m+1}-representation
    (id_n, A_1, ..., A_m) of dimension vector n i + n j, with stability i*.
    Every representation with an invertible first arrow is semistable, and it
    is stable iff the tuple of A_0^{-1} A_k has no proper invariant subspace.
    """

    __slots__ = ("m", "n", "quiver", "dim", "stability")

    def __init__(self, m, n):
        if m < 0 or n < 1:
            raise InputError("need m >= 0 loops and n >= 1")
        self.m = m
        self.n = n
        self.quiver = kronecker_quiver(m + 1)
        self.dim = DimVector({"i": n, "j": n})
        self.stability = Stability({"i": 1, "j": 0})

    def embed(self, mats):
        """Prefix an m-tuple of n x n matrices with the identity matrix."""
        if len(mats) != self.m:
            raise InputError(f"expected {self.m} matrices, got {len(mats)}")
        ident = tuple(tuple(1 if r == c else 0 for c in range(self.n)) for r in range(self.n))
        return (ident,) + tuple(tuple(tuple(row) for row in a) for a in mats)
