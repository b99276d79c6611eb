"""Brute-force verification engine over small prime fields.

Everything here is deliberately independent of the symbolic modules: linear
algebra is plain Gaussian elimination mod p, and all notions (hom spaces,
stability, indecomposability, composition series) are decided by exhaustive
enumeration within explicit budgets.
"""

from __future__ import annotations

import os
from functools import lru_cache
from itertools import combinations, product
from math import prod
from operator import mul

from .errors import BudgetExceeded, InputError
from .quiver import VECTOR_BUDGET, DimVector, Quiver, Stability

__all__ = [
    "FFRep",
    "enumerate_reps",
    "rep_count",
    "hom_dim",
    "ext_dim",
    "is_semistable",
    "is_stable",
    "is_indecomposable",
    "is_simple_tuple",
    "has_comp_series",
    "kronecker_quadratic_form",
    "count_semistable",
    "count_stable",
    "count_indecomposable",
    "min_generic_ext",
    "comp_series_point_set",
    "gl_order",
    "default_budget",
]

DEFAULT_REP_BUDGET = 10 ** 7
DEFAULT_SUBSPACE_BUDGET = 10 ** 6
DEFAULT_END_BUDGET = 10 ** 5

_PRIMES = (2, 3, 5)

# A refused count is given exactly only while it has at most this many bits:
# a wider one takes long to build, and Python will not print an int of more
# than 4300 digits.
_EXACT_BITS = 4096


def default_budget(kind="rep"):
    """The budget of one kind; QI_BUDGET, when set, replaces all three and
    must be positive."""
    env = os.environ.get("QI_BUDGET")
    if env is not None:
        try:
            budget = int(env)
        except ValueError:
            raise InputError(f"QI_BUDGET must be an integer, got {env!r}") from None
        if budget <= 0:
            raise InputError(f"QI_BUDGET must be positive, got {budget}")
        return budget
    return {"rep": DEFAULT_REP_BUDGET,
            "subspace": DEFAULT_SUBSPACE_BUDGET,
            "end": DEFAULT_END_BUDGET}[kind]


def _check_prime(q):
    if q not in _PRIMES:
        raise InputError(f"field size must be one of {_PRIMES}, got {q}")


def _check_budget(noun, lower, upper, exact, budget):
    """Refuse when the count of ``noun`` exceeds ``budget``.  The count is
    at least 2^lower, has at most ``upper()`` bits, and ``exact()`` computes
    it.  Since 2^lower > budget once lower >= budget.bit_length(), it is
    built only when it may be within the budget or is printable; otherwise
    the refusal names the lower bound and omits ``required``."""
    if lower < budget.bit_length() or upper() <= _EXACT_BITS:
        total = exact()
        if total <= budget:
            return
        if total.bit_length() <= _EXACT_BITS:
            raise BudgetExceeded(f"{total} {noun} exceed the budget {budget}",
                                 required=total, budget=budget)
    raise BudgetExceeded(f"at least 2^{lower} {noun} exceed the budget {budget}",
                         budget=budget)


# ---------------------------------------------------------------------------
# dense linear algebra mod p

def _echelon(rows, p):
    """Forward elimination mod p: (echelon rows, pivot columns).  Each pivot
    row has a leading 1 and is reduced mod p; only the entries below a pivot
    are cleared, since a rank needs no more and a kernel back-substitutes.
    The given rows are left as they are: a changed row is a new list."""
    rows = list(rows)
    pivots = []
    r, n = 0, len(rows)
    for c in range(len(rows[0]) if rows else 0):
        for i in range(r, n):
            x = rows[i][c] % p
            if x:
                break
        else:
            continue
        top = rows[i]
        rows[i] = rows[r]
        inv = pow(x, p - 2, p)
        rows[r] = top = [y * inv % p for y in top]
        for i in range(r + 1, n):
            f = rows[i][c] % p
            if f:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], top)]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return rows[:r], pivots


def _nullspace(rows, ncols, p):
    """Basis of the right kernel of the matrix (rows over F_p): for each free
    column, the solution that is 1 there and 0 at the other free columns."""
    echelon, pivots = _echelon(rows, p)
    pivot_set = set(pivots)
    steps = list(zip(reversed(pivots), reversed(echelon)))
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        vec = [0] * ncols
        vec[f] = 1
        # the pivot entry is 1 and the entries before it vanish mod p
        for c, row in steps:
            vec[c] = -sum(map(mul, row[c + 1:], vec[c + 1:])) % p
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# representations

class FFRep:
    """A representation over F_q: one d_target x d_source matrix per arrow.

    ``dims`` is the dimension vector as a tuple in vertex order.
    """

    __slots__ = ("quiver", "q", "dim", "dims", "mats")

    def __init__(self, quiver, q, dim, mats):
        _check_prime(q)
        dims = quiver.tup(dim)
        mats = tuple([tuple([tuple([x % q for x in row]) for row in m]) for m in mats])
        if len(mats) != len(quiver.arrows):
            raise InputError("need one matrix per arrow")
        for (s, t), (si, ti), m in zip(quiver.arrows, quiver.arrow_pairs, mats):
            if len(m) != dims[ti] or any(len(row) != dims[si] for row in m):
                raise InputError(f"matrix shape mismatch on arrow {s}->{t}")
        self._fill(quiver, q, dim, dims, mats)

    def _fill(self, quiver, q, dim, dims, mats):
        self.quiver = quiver
        self.q = q
        self.dim = dim
        self.dims = dims
        self.mats = mats

    @classmethod
    def _trusted(cls, quiver, q, dim, dims, mats):
        """A rep whose entries are already reduced mod q and whose shapes
        already match ``dims``: no checks."""
        X = cls.__new__(cls)
        X._fill(quiver, q, dim, dims, mats)
        return X

    # Quiver equality ignores the order arrows are listed in, but the
    # matrices follow it, so equal reps also list their arrows alike.
    def __eq__(self, other):
        return (isinstance(other, FFRep) and self.quiver == other.quiver
                and self.quiver.arrow_pairs == other.quiver.arrow_pairs
                and self.q == other.q and self.dim == other.dim
                and self.mats == other.mats)

    def __hash__(self):
        return hash((self.quiver, self.quiver.arrow_pairs, self.q, self.dim,
                     self.mats))

    def __repr__(self):
        return f"FFRep(q={self.q}, dim={self.dim.to_json()}, mats={self.mats})"


def rep_count(quiver, d, q):
    cells = sum(d[s] * d[t] for s, t in quiver.arrows)
    return q ** cells


def enumerate_reps(quiver, d, q, budget=None):
    """Every point of R_d(F_q) exactly once, odometer order (last cell
    fastest)."""
    _check_prime(q)
    quiver.check_vector(d)
    budget = budget if budget is not None else default_budget("rep")
    dims = quiver.tup(d)
    shapes = [(dims[t], dims[s]) for s, t in quiver.arrow_pairs]
    cells = sum(r * c for r, c in shapes)
    # q^cells >= 2^cells
    _check_budget("representations", cells, lambda: cells * q.bit_length(),
                  lambda: q ** cells, budget)
    trusted = FFRep._trusted
    for flat in product(range(q), repeat=cells):
        mats = []
        pos = 0
        for r, c in shapes:
            mats.append(tuple(flat[pos + i * c: pos + (i + 1) * c]
                              for i in range(r)))
            pos += r * c
        yield trusted(quiver, q, d, dims, tuple(mats))


# ---------------------------------------------------------------------------
# hom and ext

def _intertwining(M, N):
    """The equations g_t M_a - N_a g_s = 0 on the unknowns g_v (e_v x d_v,
    flattened row-major in vertex order): (nonzero rows, unknowns, offsets)."""
    # arrows compared in listed order: the matrices follow it
    if (M.quiver.vertices, M.quiver.arrows, M.q) != \
            (N.quiver.vertices, N.quiver.arrows, N.q):
        raise InputError("representations live over different quivers or fields")
    p, d, e = M.q, M.dims, N.dims
    offs = []
    n = 0
    for dv, ev in zip(d, e):
        offs.append(n)
        n += ev * dv
    rows = []
    for (s, t), Ma, Na in zip(M.quiver.arrow_pairs, M.mats, N.mats):
        # entry (r, c) of the equation: r < e_t, c < d_s
        for r in range(e[t]):
            for c in range(d[s]):
                row = [0] * n
                for k in range(d[t]):  # g_t[r][k] * Ma[k][c]
                    i = offs[t] + r * d[t] + k
                    row[i] = (row[i] + Ma[k][c]) % p
                for k in range(e[s]):  # -Na[r][k] * g_s[k][c]
                    i = offs[s] + k * d[s] + c
                    row[i] = (row[i] - Na[r][k]) % p
                if any(row):
                    rows.append(row)
    return rows, n, offs


def hom_dim(M: FFRep, N: FFRep) -> int:
    """dim of the space of homomorphisms M -> N, by Gaussian elimination on
    the intertwining equations g_j M_a = N_a g_i."""
    rows, n, _ = _intertwining(M, N)
    return n - len(_echelon(rows, M.q)[1])


def _hom_basis(M, N):
    """Basis of Hom(M, N) as flat vectors in the unknowns of the intertwining
    equations, with the per-vertex offsets."""
    rows, n, offs = _intertwining(M, N)
    return _nullspace(rows, n, M.q), offs


def ext_dim(M: FFRep, N: FFRep) -> int:
    """dim Ext^1(M, N) = hom_dim - <dim M, dim N>; path algebras are
    hereditary so there is nothing beyond Ext^1."""
    return hom_dim(M, N) - M.quiver.euler(M.dim, N.dim)


# ---------------------------------------------------------------------------
# subspaces

@lru_cache(maxsize=None)
def _subspaces(n, r, q):
    """All r-dimensional subspaces of F_q^n as reduced-echelon basis rows,
    returned with their pivot columns: tuple of (rows, pivots)."""
    if not 0 <= r <= n:
        return ()
    out = []
    for pivots in combinations(range(n), r):
        free_cells = [(i, c) for i, pc in enumerate(pivots)
                      for c in range(pc + 1, n) if c not in pivots]
        for vals in product(range(q), repeat=len(free_cells)):
            rows = [[0] * n for _ in range(r)]
            for i, pc in enumerate(pivots):
                rows[i][pc] = 1
            for (i, c), x in zip(free_cells, vals):
                rows[i][c] = x
            out.append((tuple(tuple(rw) for rw in rows), pivots))
    return tuple(out)


@lru_cache(maxsize=None)
def subspace_count(n, q):
    """Number of subspaces of F_q^n: the sum over r of the Gaussian binomials
    [n, r]_q, so a budget check never enumerates them."""
    total, binom = 0, 1
    for r in range(n + 1):
        total += binom
        binom = binom * (q ** (n - r) - 1) // (q ** (r + 1) - 1)
    return total


def _pack(vec, q):
    """A vector over F_q as one int in base q, first entry most significant
    (for q = 2 the bitmask)."""
    out = 0
    for x in vec:
        out = out * q + x
    return out


def _image(m, vec, q):
    """m . vec over F_q, packed as by :func:`_pack`."""
    out = 0
    for row in m:
        out = out * q + sum(map(mul, row, vec)) % q
    return out


@lru_cache(maxsize=None)
def _member_spaces(n, r, q):
    """Every r-dimensional subspace of F_q^n as (echelon basis, packed
    members); the members are None for the whole space, which contains
    every image."""
    out = []
    for rows, _ in _subspaces(n, r, q):
        members = None
        if r < n:
            members = frozenset(
                _pack([sum(map(mul, coeffs, col)) % q for col in zip(*rows)], q)
                for coeffs in product(range(q), repeat=r))
        out.append((rows, members))
    return tuple(out)


@lru_cache(maxsize=None)
def _destab_plan(arrows, tkey, dims, q, strict):
    """The rep-independent part of the search for destabilizing subspace
    tuples: (slots, candidates).

    ``arrows`` are (source, target) vertex-index pairs, ``tkey`` is theta in
    vertex order.  ``slots`` lists the (arrow, source basis vector) pairs
    whose images some check needs.  A candidate is a tuple of (slot, target
    members) checks, met iff every image lies in its target; checks that
    always pass (zero source, whole target) are left out.
    """
    value, size = sum(map(mul, tkey, dims)), sum(dims)
    if not size:
        raise InputError("slope of the zero dimension vector is undefined")
    slot_of = {}
    candidates = []
    for e in product(*(range(n + 1) for n in dims)):
        if e == dims or not any(e):
            continue
        # slope(e) > slope(d), or >= when not strict
        gap = sum(map(mul, tkey, e)) * size - value * sum(e)
        if not (gap > 0 if strict else gap >= 0):
            continue
        for combo in product(*map(_member_spaces, dims, e, [q] * len(e))):
            candidates.append(tuple(
                (slot_of.setdefault((a, vec), len(slot_of)), combo[t][1])
                for a, (s, t) in enumerate(arrows) if combo[t][1] is not None
                for vec in combo[s][0]))
    return tuple(slot_of), tuple(candidates)


def is_semistable(X: FFRep, theta: Stability, budget=None) -> bool:
    """No proper nonzero subrepresentation of strictly larger slope.

    Only candidate subspace tuples whose dimension vector already
    destabilizes are enumerated; the rest cannot violate semistability.
    """
    plan = _plan(X.quiver, theta, X.dims, X.q, True, budget)
    return not _destabilized(X.mats, plan, X.q)


def is_stable(X: FFRep, theta: Stability, budget=None) -> bool:
    """Every proper nonzero subrepresentation has strictly smaller slope."""
    if X.dim.is_zero():
        return False
    plan = _plan(X.quiver, theta, X.dims, X.q, False, budget)
    return not _destabilized(X.mats, plan, X.q)


@lru_cache(maxsize=None)
def _check_subspace_budget(dims, q, budget):
    """Refuse when the subspace tuples of F_q^dims exceed ``budget``;
    cached, since every rep of one dimension vector asks the same."""
    # a huge total dimension is refused with its exact size, as hn.mass does
    size = sum(dims)
    if size > VECTOR_BUDGET:
        raise BudgetExceeded(
            f"total dimension {size} exceeds the budget {VECTOR_BUDGET}",
            required=size, budget=VECTOR_BUDGET)
    # F_q^n has at least 2^n subspaces and, with the Gaussian binomials
    # [n, r]_q < 4 q^(r(n - r)), fewer than 4 (n + 1) q^(n^2 / 4)
    _check_budget("subspace tuples", size,
                  lambda: sum((n * n // 4 + n + 2) * q.bit_length() for n in dims),
                  lambda: prod(subspace_count(n, q) for n in dims), budget)


def _plan(quiver, theta, dims, q, strict, budget):
    """The search plan of :func:`_destab_plan` for every rep of dimension
    ``dims``, once the subspace budget admits it."""
    budget = budget if budget is not None else default_budget("subspace")
    _check_subspace_budget(dims, q, budget)
    return _destab_plan(quiver.arrow_pairs, theta.key(quiver), dims, q, strict)


def _destabilized(mats, plan, q):
    """Whether some candidate of ``plan`` is a subrepresentation of the rep
    with matrices ``mats``."""
    slots, candidates = plan
    # packed images, each computed the first time a check needs it
    images = [None] * len(slots)
    for checks in candidates:
        for k, members in checks:
            img = images[k]
            if img is None:
                a, vec = slots[k]
                img = images[k] = _image(mats[a], vec, q)
            if img not in members:
                break
        else:
            return True
    return False


# ---------------------------------------------------------------------------
# indecomposability / simplicity

def is_indecomposable(X: FFRep, budget=None) -> bool:
    """No idempotent endomorphism besides 0 and 1."""
    if X.dim.is_zero():
        return False
    budget = budget if budget is not None else default_budget("end")
    basis, offs = _hom_basis(X, X)
    p, h = X.q, len(basis)
    if h == 1:
        return True  # End = F_q, local
    if p ** h > budget:
        raise BudgetExceeded(
            f"|End| = {p}^{h} exceeds the budget {budget}",
            required=p ** h, budget=budget)
    # g_v is the n x n block at offset o, row-major
    blocks = [(o, n) for o, n in zip(offs, X.dims) if n]
    one = [0] * len(basis[0])
    for o, n in blocks:
        for i in range(n):
            one[o + i * n + i] = 1
    cols = list(zip(*basis))
    for coeffs in product(range(p), repeat=h):
        g = [sum(map(mul, coeffs, col)) % p for col in cols]
        if any(g) and g != one and all(
                sum(g[o + i * n + k] * g[o + k * n + j] for k in range(n)) % p
                == g[o + i * n + j]
                for o, n in blocks for i in range(n) for j in range(n)):
            return False
    return True


def is_simple_tuple(n, mats, q) -> bool:
    """No common invariant subspace 0 < W < F_q^n for the matrix tuple."""
    _check_prime(q)
    mats = [tuple(tuple(x % q for x in row) for row in m) for m in mats]
    for m in mats:
        if len(m) != n or any(len(row) != n for row in m):
            raise InputError("matrices must be n x n")
    if n == 0:
        return False
    for r in range(1, n):
        for rows, members in _member_spaces(n, r, q):
            if all(_image(m, vec, q) in members for m in mats for vec in rows):
                return False
    return True


# ---------------------------------------------------------------------------
# composition series

def _restrict(X, h, rows, members):
    """Subrepresentation on the hyperplane ``rows`` at vertex index ``h``
    (full spaces elsewhere), in the basis given by the rows; None if an
    arrow into ``h`` leaves the hyperplane."""
    p, dims = X.q, list(X.dims)
    pivots = [row.index(1) for row in rows]  # echelon rows: unit pivots
    bases = [rows if v == h else [[int(i == j) for j in range(n)] for i in range(n)]
             for v, n in enumerate(dims)]
    dims[h] -= 1
    mats = []
    for (s, t), m in zip(X.quiver.arrow_pairs, X.mats):
        cols = []
        for vec in bases[s]:
            img = [sum(map(mul, row, vec)) % p for row in m]
            if t == h:
                if _pack(img, p) not in members:
                    return None
                img = [img[c] for c in pivots]  # coordinates in the rows
            cols.append(img)
        mats.append(tuple(tuple(col[r] for col in cols) for r in range(dims[t])))
    dims = tuple(dims)
    return FFRep._trusted(X.quiver, p, X.quiver.vec(dims), dims, tuple(mats))


def has_comp_series(X: FFRep, word) -> bool:
    """Existence of a composition series with simple quotients of types
    word[0], word[1], ... from the top."""
    word = tuple(str(x) for x in word)
    for x in word:
        X.quiver.index(x)
    if len(word) != X.dim.total():
        return False
    if not word:
        return True
    h = X.quiver.index(word[0])
    n = X.dims[h]
    if n == 0:
        return False
    # subreps of codimension 1 at the head: hyperplanes W there that contain
    # the images of all arrows into it.  The (q^n - 1)/(q - 1) hyperplanes
    # have q^(n - 1) members each, at least 2^(2n - 2) and at most
    # q^(2n - 1) in all; refuse before building them.
    q = X.q
    _check_budget("hyperplane members", 2 * n - 2,
                  lambda: (2 * n - 1) * q.bit_length(),
                  lambda: (q ** n - 1) // (q - 1) * q ** (n - 1),
                  default_budget("subspace"))
    for rows, members in _member_spaces(n, n - 1, q):
        sub = _restrict(X, h, rows, members)
        if sub is not None and has_comp_series(sub, word[1:]):
            return True
    return False


def comp_series_point_set(quiver, word, q, budget=None):
    """All representations of the word's weight admitting a composition
    series of that type; the oracle's version of the stratum closure
    question."""
    weight = {}
    for x in map(str, word):
        quiver.index(x)
        weight[x] = weight.get(x, 0) + 1
    d = DimVector(weight)
    return frozenset(X for X in enumerate_reps(quiver, d, q, budget)
                     if has_comp_series(X, word))


# ---------------------------------------------------------------------------
# the quadric criterion for K_m, d = (2, 2)

def kronecker_quadratic_form(mats, q):
    """Coefficients and rank of f_A(l) = det(sum_k l_k A_k) for a tuple of
    2x2 matrices; q must be odd so that the Gram matrix determines the rank.

    Returns ({(k, l): coefficient for k <= l}, rank).
    """
    _check_prime(q)
    if q == 2:
        raise InputError("quadratic-form rank needs an odd field")
    try:
        mats = [((a % q, b % q), (c % q, d % q)) for (a, b), (c, d) in mats]
    except ValueError:
        raise InputError("matrices must be 2 x 2") from None
    m = len(mats)
    # det(sum l_k A_k) with A_k = [[a_k, b_k], [c_k, d_k]]: the l_k l_l
    # coefficient is a_k d_l + a_l d_k - b_k c_l - b_l c_k
    coeffs = {}
    gram = [[0] * m for _ in range(m)]
    for k, ((a, b), (c, d)) in enumerate(mats):
        coeffs[(k, k)] = gram[k][k] = (a * d - b * c) % q
    inv2 = pow(2, q - 2, q)
    for k, ((a, b), (c, d)) in enumerate(mats):
        for l in range(k + 1, m):
            (a2, b2), (c2, d2) = mats[l]
            coeffs[(k, l)] = x = (a * d2 + a2 * d - b * c2 - b2 * c) % q
            gram[k][l] = gram[l][k] = x * inv2 % q
    return coeffs, len(_echelon(gram, q)[1])


# ---------------------------------------------------------------------------
# aggregate counts

def _count_undestabilized(quiver, theta, d, q, budget, strict):
    """The number of reps of R_d(F_q) with no destabilizing candidate, all
    searched with one plan.  The plan is built at the first draw, so that
    the rep budget refuses before the subspace budget."""
    plan, count = None, 0
    for X in enumerate_reps(quiver, d, q, budget):
        if plan is None:
            if not strict and X.dim.is_zero():
                return 0  # the zero rep, the only one, is not stable
            plan = _plan(quiver, theta, X.dims, q, strict, None)
        count += not _destabilized(X.mats, plan, q)
    return count


def count_semistable(quiver, theta, d, q, budget=None):
    return _count_undestabilized(quiver, theta, d, q, budget, strict=True)


def count_stable(quiver, theta, d, q, budget=None):
    return _count_undestabilized(quiver, theta, d, q, budget, strict=False)


def count_indecomposable(quiver, d, q, budget=None):
    return sum(1 for X in enumerate_reps(quiver, d, q, budget)
               if is_indecomposable(X))


def min_generic_ext(quiver, d, e, q, budget=None):
    """min over all pairs (M, N) of dim Ext(M, N): the oracle's value of the
    generic ext.  The pairs, at least 2^(cells of d + cells of e), count
    against the rep budget before any is drawn."""
    _check_prime(q)
    quiver.check_vector(d)
    quiver.check_vector(e)
    budget = budget if budget is not None else default_budget("rep")
    cells = sum(d[s] * d[t] + e[s] * e[t] for s, t in quiver.arrows)
    _check_budget("representation pairs", cells, lambda: cells * q.bit_length(),
                  lambda: q ** cells, budget)
    best = None
    for M in enumerate_reps(quiver, d, q, budget):
        for N in enumerate_reps(quiver, e, q, budget):
            val = ext_dim(M, N)
            if best is None or val < best:
                best = val
                if best == max(0, -quiver.euler(d, e)):
                    return best  # cannot go lower
    return best


def gl_order(n, q):
    out = 1
    for k in range(n):
        out *= q ** n - q ** k
    return out


def group_order(quiver, d, q):
    out = 1
    for v in quiver.vertices:
        out *= gl_order(d[v], q)
    return out
