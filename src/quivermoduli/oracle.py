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

from .errors import BudgetExceeded, InputError
from .quiver import DimVector, Quiver, Stability

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


def default_budget(kind="rep"):
    env = os.environ.get("QI_BUDGET")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise InputError(f"QI_BUDGET must be an integer, got {env!r}") from None
    return {"rep": DEFAULT_REP_BUDGET,
            "subspace": DEFAULT_SUBSPACE_BUDGET,
            "end": DEFAULT_END_BUDGET}[kind]


def _check_prime(q):
    if q not in _PRIMES:
        raise InputError(f"field size must be one of {_PRIMES}, got {q}")


# ---------------------------------------------------------------------------
# dense linear algebra mod p

def _rref(rows, p):
    """Row-reduce in place; returns (rref rows, pivot columns)."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] % p), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return [rows[i] for i in range(r)], pivots


def _nullspace(rows, ncols, p):
    """Basis of the right kernel of the matrix (rows over F_p)."""
    rref, pivots = _rref(rows, p) if rows else ([], [])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for r, c in enumerate(pivots):
            vec[c] = (-rref[r][f]) % p
        basis.append(vec)
    return basis


def _mat_vec(m, v, p):
    return [sum(a * b for a, b in zip(row, v)) % p for row in m]


def _in_span(rref_rows, pivots, v, p):
    """Membership of v in the row space given in reduced echelon form."""
    v = list(v)
    for r, c in enumerate(rref_rows):
        if v[pivots[r]] % p:
            f = v[pivots[r]]
            v = [(a - f * b) % p for a, b in zip(v, c)]
    return not any(x % p for x in v)


# ---------------------------------------------------------------------------
# representations

class FFRep:
    """A representation over F_q: one d_target x d_source matrix per arrow."""

    __slots__ = ("quiver", "q", "dim", "mats")

    def __init__(self, quiver, q, dim, mats):
        _check_prime(q)
        quiver.check_vector(dim)
        mats = tuple(tuple(tuple(x % q for x in row) for row in m) for m in mats)
        if len(mats) != len(quiver.arrows):
            raise InputError("need one matrix per arrow")
        for (s, t), m in zip(quiver.arrows, mats):
            if len(m) != dim[t] or any(len(row) != dim[s] for row in m):
                raise InputError(f"matrix shape mismatch on arrow {s}->{t}")
        self.quiver = quiver
        self.q = q
        self.dim = dim
        self.mats = mats

    def __eq__(self, other):
        return (isinstance(other, FFRep) and self.quiver == other.quiver
                and self.q == other.q and self.dim == other.dim
                and self.mats == other.mats)

    def __hash__(self):
        return hash((self.quiver, self.q, self.dim, self.mats))

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
    total = rep_count(quiver, d, q)
    if total > budget:
        raise BudgetExceeded(
            f"{total} representations exceed the budget {budget}",
            required=total, budget=budget)
    shapes = [(d[t], d[s]) for s, t in quiver.arrows]
    cells = sum(r * c for r, c in shapes)
    for flat in product(range(q), repeat=cells):
        mats = []
        pos = 0
        for r, c in shapes:
            mats.append(tuple(tuple(flat[pos + i * c: pos + (i + 1) * c])
                              for i in range(r)))
            pos += r * c
        yield FFRep(quiver, q, d, mats)


# ---------------------------------------------------------------------------
# hom and ext

def hom_dim(M: FFRep, N: FFRep) -> int:
    """dim of the space of homomorphisms M -> N, by Gaussian elimination on
    the intertwining equations g_j M_a = N_a g_i."""
    if M.quiver != N.quiver or M.q != N.q:
        raise InputError("representations live over different quivers or fields")
    Q, p = M.quiver, M.q
    d, e = M.dim, N.dim
    # unknowns: g_v of shape e_v x d_v, flattened row-major, vertex order
    offs = {}
    n = 0
    for v in Q.vertices:
        offs[v] = n
        n += e[v] * d[v]
    rows = []
    for (s, t), Ma, Na in zip(Q.arrows, M.mats, N.mats):
        # equation g_t Ma - Na g_s = 0, entry (r, c): r < e_t, c < d_s
        for r in range(e[t]):
            for c in range(d[s]):
                row = [0] * n
                for k in range(d[t]):  # g_t[r][k] * Ma[k][c]
                    row[offs[t] + r * d[t] + k] = (row[offs[t] + r * d[t] + k]
                                                   + Ma[k][c]) % p
                for k in range(e[s]):  # -Na[r][k] * g_s[k][c]
                    row[offs[s] + k * d[s] + c] = (row[offs[s] + k * d[s] + c]
                                                   - Na[r][k]) % p
                if any(row):
                    rows.append(row)
    _, pivots = _rref(rows, p) if rows else ([], [])
    return n - len(pivots)


def _hom_basis(M, N):
    """Basis of Hom(M, N) as per-vertex matrices."""
    Q, p = M.quiver, M.q
    d, e = M.dim, N.dim
    offs = {}
    n = 0
    for v in Q.vertices:
        offs[v] = n
        n += e[v] * d[v]
    rows = []
    for (s, t), Ma, Na in zip(Q.arrows, M.mats, N.mats):
        for r in range(e[t]):
            for c in range(d[s]):
                row = [0] * n
                for k in range(d[t]):
                    row[offs[t] + r * d[t] + k] = (row[offs[t] + r * d[t] + k]
                                                   + Ma[k][c]) % p
                for k in range(e[s]):
                    row[offs[s] + k * d[s] + c] = (row[offs[s] + k * d[s] + c]
                                                   - Na[r][k]) % p
                if any(row):
                    rows.append(row)
    basis = []
    for vec in _nullspace(rows, n, p):
        g = {}
        for v in Q.vertices:
            g[v] = tuple(tuple(vec[offs[v] + r * d[v]: offs[v] + (r + 1) * d[v]])
                         for r in range(e[v]))
        basis.append(g)
    return basis


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
        free_cells = []
        for i, pc in enumerate(pivots):
            for c in range(pc + 1, n):
                if c not in pivots:
                    free_cells.append((i, c))
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
    return sum(len(_subspaces(n, r, q)) for r in range(n + 1))


def _invariant(X, spaces):
    """Arrow-invariance of a per-vertex subspace choice.

    ``spaces`` maps vertex -> (rows, pivots) in reduced echelon form.
    """
    p = X.q
    for (s, t), m in zip(X.quiver.arrows, X.mats):
        rows_t, piv_t = spaces[t]
        for vec in spaces[s][0]:
            img = _mat_vec(m, vec, p)
            if any(img) and not _in_span(rows_t, piv_t, img, p):
                return False
    return True


def _proper_sub_dims(quiver, d, pred):
    for e in quiver.vectors_below(d):
        if e != d and pred(e):
            yield e


def is_semistable(X: FFRep, theta: Stability, budget=None) -> bool:
    """No proper nonzero subrepresentation of strictly larger slope.

    Only candidate subspace tuples whose dimension vector already
    destabilizes are enumerated; the rest cannot violate semistability.
    """
    return not _has_destabilizing(X, theta, strict=True, budget=budget)


def is_stable(X: FFRep, theta: Stability, budget=None) -> bool:
    """Every proper nonzero subrepresentation has strictly smaller slope."""
    if X.dim.is_zero():
        return False
    return not _has_destabilizing(X, theta, strict=False, budget=budget)


@lru_cache(maxsize=None)
def _destab_candidates(quiver, tkey, d, q, strict):
    """All subspace tuples whose dimension vector destabilizes, precomputed
    once per (quiver, theta, d, q): tuple of per-vertex (rows, pivots)
    dicts is too costly, so plain tuples in vertex order."""
    theta = Stability(dict(zip(quiver.vertices, tkey)))
    mu = theta.slope(d)
    combos = []
    for e in quiver.vectors_below(d):
        if e == d:
            continue
        mue = theta.slope(e)
        if not (mue > mu if strict else mue >= mu):
            continue
        choices = [_subspaces(d[v], e[v], q) for v in quiver.vertices]
        combos.extend(product(*choices))
    return tuple(combos)


def _has_destabilizing(X, theta, strict, budget):
    budget = budget if budget is not None else default_budget("subspace")
    Q, p, d = X.quiver, X.q, X.dim
    total = 1
    for v in Q.vertices:
        total *= subspace_count(d[v], p)
    if total > budget:
        raise BudgetExceeded(
            f"{total} subspace tuples exceed the budget {budget}",
            required=total, budget=budget)
    tkey = theta.key(Q)
    arrow_idx = [(Q.index(s), Q.index(t)) for s, t in Q.arrows]
    for combo in _destab_candidates(Q, tkey, d, p, strict):
        ok = True
        for (si, ti), m in zip(arrow_idx, X.mats):
            rows_t, piv_t = combo[ti]
            for vec in combo[si][0]:
                img = _mat_vec(m, vec, p)
                if any(img) and not _in_span(rows_t, piv_t, img, p):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


# ---------------------------------------------------------------------------
# indecomposability / simplicity

def _compose(g, h, quiver, p):
    out = {}
    for v in quiver.vertices:
        a, b = g[v], h[v]
        out[v] = tuple(tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) % p
                             for j in range(len(b[0]) if b else 0))
                       for i in range(len(a)))
    return out


def _is_idempotent(g, X):
    p = X.q
    gg = _compose(g, g, X.quiver, p)
    return gg == g


def _is_zero_or_identity(g, X):
    zero = all(all(all(x == 0 for x in row) for row in m) for m in g.values())
    ident = all(all(g[v][i][j] == (1 if i == j else 0)
                    for i in range(X.dim[v]) for j in range(X.dim[v]))
                for v in X.quiver.vertices)
    return zero or ident


def is_indecomposable(X: FFRep, budget=None) -> bool:
    """No idempotent endomorphism besides 0 and 1."""
    if X.dim.is_zero():
        return False
    budget = budget if budget is not None else default_budget("end")
    basis = _hom_basis(X, X)
    h = len(basis)
    if h == 1:
        return True  # End = F_q, local
    if X.q ** h > budget:
        raise BudgetExceeded(
            f"|End| = {X.q}^{h} exceeds the budget {budget}",
            required=X.q ** h, budget=budget)
    p = X.q
    for coeffs in product(range(p), repeat=h):
        g = {v: [[0] * X.dim[v] for _ in range(X.dim[v])]
             for v in X.quiver.vertices}
        for c, b in zip(coeffs, basis):
            if c:
                for v in X.quiver.vertices:
                    gv, bv = g[v], b[v]
                    for i in range(X.dim[v]):
                        for j in range(X.dim[v]):
                            gv[i][j] = (gv[i][j] + c * bv[i][j]) % p
        g = {v: tuple(tuple(row) for row in m) for v, m in g.items()}
        if _is_idempotent(g, X) and not _is_zero_or_identity(g, X):
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
        for rows, pivots in _subspaces(n, r, q):
            if all(all(_in_span(rows, pivots, _mat_vec(m, vec, q), q)
                       for vec in rows) for m in mats):
                return False
    return True


# ---------------------------------------------------------------------------
# composition series

def _restrict(X, vertex, rows, pivots):
    """Subrepresentation on the hyperplane `rows` at `vertex` (full spaces
    elsewhere), expressed in the basis given by the rows."""
    Q, p = X.quiver, X.q
    d = X.dim
    new_dim = d - DimVector({vertex: 1})
    bases = {}
    for v in Q.vertices:
        if v == vertex:
            bases[v] = (rows, pivots)
        else:
            ident = tuple(tuple(1 if i == j else 0 for j in range(d[v]))
                          for i in range(d[v]))
            bases[v] = (ident, tuple(range(d[v])))
    mats = []
    for (s, t), m in zip(Q.arrows, X.mats):
        rows_t, piv_t = bases[t]
        new_rows = []
        for vec in bases[s][0]:
            img = _mat_vec(m, vec, p)
            # coordinates of img in the echelon basis rows_t
            coords = [img[c] % p for c in piv_t]
            # echelon rows have unit pivots and zeros above/below, so the
            # pivot coordinates are the coefficients; verify the remainder
            resid = list(img)
            for co, rw in zip(coords, rows_t):
                resid = [(a - co * b) % p for a, b in zip(resid, rw)]
            if any(resid):
                return None  # image leaves the subspace
            new_rows.append(tuple(coords))
        # transpose convention: matrix rows indexed by target coords
        nt, ns = new_dim[t], new_dim[s]
        mat = tuple(tuple(new_rows[c][r] for c in range(ns)) for r in range(nt))
        mats.append(mat)
    return FFRep(Q, p, new_dim, mats)


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
    head = word[0]
    p = X.q
    n = X.dim[head]
    if n == 0:
        return False
    # subrep of codimension 1 at `head`: hyperplane W containing the images
    # of all arrows into `head`
    for rows, pivots in _subspaces(n, n - 1, p):
        ok = True
        for (s, t), m in zip(X.quiver.arrows, X.mats):
            if t != head:
                continue
            for c in range(X.dim[s]):
                col = [m[r][c] for r in range(n)]
                if any(col) and not _in_span(rows, pivots, col, p):
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        sub = _restrict(X, head, rows, pivots)
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

def _det2(m, p):
    return (m[0][0] * m[1][1] - m[0][1] * m[1][0]) % p


def kronecker_quadratic_form(mats, q):
    """Coefficients and rank of f_A(l) = det(sum_k l_k A_k) for a tuple of
    2x2 matrices; q must be odd so that the Gram matrix determines the rank.

    Returns ({(k, l): coefficient for k <= l}, rank).
    """
    _check_prime(q)
    if q == 2:
        raise InputError("quadratic-form rank needs an odd field")
    mats = [tuple(tuple(x % q for x in row) for row in m) for m in mats]
    m = len(mats)
    for a in mats:
        if len(a) != 2 or any(len(row) != 2 for row in a):
            raise InputError("matrices must be 2 x 2")
    coeffs = {}
    for k in range(m):
        coeffs[(k, k)] = _det2(mats[k], q)
    for k in range(m):
        for l in range(k + 1, m):
            s = tuple(tuple((mats[k][i][j] + mats[l][i][j]) % q
                            for j in range(2)) for i in range(2))
            coeffs[(k, l)] = (_det2(s, q) - coeffs[(k, k)] - coeffs[(l, l)]) % q
    inv2 = pow(2, q - 2, q)
    gram = [[0] * m for _ in range(m)]
    for k in range(m):
        gram[k][k] = coeffs[(k, k)]
        for l in range(k + 1, m):
            gram[k][l] = gram[l][k] = coeffs[(k, l)] * inv2 % q
    _, pivots = _rref(gram, q)
    return coeffs, len(pivots)


# ---------------------------------------------------------------------------
# aggregate counts

def count_semistable(quiver, theta, d, q, budget=None):
    return sum(1 for X in enumerate_reps(quiver, d, q, budget)
               if is_semistable(X, theta))


def count_stable(quiver, theta, d, q, budget=None):
    return sum(1 for X in enumerate_reps(quiver, d, q, budget)
               if is_stable(X, theta))


def count_indecomposable(quiver, d, q, budget=None):
    return sum(1 for X in enumerate_reps(quiver, d, q, budget)
               if is_indecomposable(X))


def min_generic_ext(quiver, d, e, q, budget=None):
    """min over all pairs (M, N) of dim Ext(M, N): the oracle's value of the
    generic ext."""
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
