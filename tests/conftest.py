import json
import math
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from itertools import product
from operator import mul

import pytest

from quivermoduli import generic, roots
from quivermoduli.cli import _COMMANDS, _HELP, _PROG, _command, _Help
from quivermoduli.errors import InputError
from quivermoduli.laurent import LaurentPoly
from quivermoduli.quiver import (DimVector, Quiver, Stability, _below, _context,
                                 _contexts, _memoized, _minus, kronecker_quiver)


@pytest.fixture(scope="session")
def a2():
    return Quiver(["i", "j"], [("i", "j")])


@pytest.fixture(scope="session")
def a3():
    return Quiver(["1", "2", "3"], [("1", "2"), ("2", "3")])


@pytest.fixture(scope="session")
def k1():
    return kronecker_quiver(1)


@pytest.fixture(scope="session")
def k2():
    return kronecker_quiver(2)


@pytest.fixture(scope="session")
def k3():
    return kronecker_quiver(3)


@pytest.fixture(scope="session")
def theta_i():
    return Stability({"i": 1})


def dv(**kw):
    return DimVector(kw)


def theta_value(theta, d):
    return sum(theta[v] * n for v, n in d.items())


def slope(theta, d):
    return Fraction(theta_value(theta, d), d.total())


def memo_entries():
    """The number of entries over every context's memo."""
    return sum(len(ctx.memo) for ctx in _contexts.values())


def dim_leq(e, d):
    """e <= d entrywise, for DimVectors."""
    return all(e[v] <= d[v] for v in set(e) | set(d))


def dim_sub(d, e):
    """d - e for DimVectors with e <= d."""
    return DimVector({v: d[v] - e[v] for v in set(d) | set(e)})


# Reference polynomial arithmetic.  LaurentPoly is a value type: every sum,
# product and quotient that a command computes runs on coefficient tuples in
# the integer kernels of ``laurent``.  The tests build their references with
# these instead, term by term, apart from those kernels.

def poly(x):
    """x as a LaurentPoly; an int is a constant."""
    return LaurentPoly({0: x}) if isinstance(x, int) else x


def poly_add(*xs):
    """The sum of the LaurentPolys or ints ``xs``."""
    out = {}
    for x in xs:
        for e, a in poly(x).items():
            out[e] = out.get(e, 0) + a
    return LaurentPoly(out)


def poly_neg(x):
    return LaurentPoly({e: -a for e, a in poly(x).items()})


def poly_mul(*xs):
    """The schoolbook product of the LaurentPolys or ints ``xs``: every pair
    of nonzero coefficients."""
    lo, co = 0, [1]
    for x in map(poly, xs):
        terms = [(j, b) for j, b in enumerate(x.co) if b]
        out = [0] * (len(co) + len(x.co) - 1)
        for i, a in enumerate(co):
            if a:
                for j, b in terms:
                    out[i + j] += a * b
        lo, co = lo + x.lo, out
    return LaurentPoly(dict(enumerate(co, lo)))


def poly_divexact(a, b):
    """a / b for a nonzero b when the quotient is an integer Laurent
    polynomial, else None: long division from the top over the nonzero
    terms of b, which stops at the first coefficient that b's leading
    coefficient does not divide."""
    if not a.co:
        return a
    top = len(b.co) - 1
    lead = b.co[top]
    tail = [(j - top, c) for j, c in enumerate(b.co[:top]) if c]
    rem = list(a.co)
    quot = {}
    for i in range(len(rem) - 1, top - 1, -1):
        c, r = divmod(rem[i], lead)
        if r:
            return None
        quot[a.lo - b.lo + i - top] = c
        for off, t in tail:
            rem[i + off] -= c * t
    return None if any(rem[:top]) else LaurentPoly(quot)


@lru_cache(maxsize=None)
def reference_cyclotomic(n):
    """Phi_n as ``laurent.cyclotomic`` built it before its sieve: x^n - 1
    divided exactly by Phi_d for each proper divisor d of n, smallest
    first."""
    p = LaurentPoly({n: 1, 0: -1})
    for d in range(1, n):
        if n % d == 0:
            p = poly_divexact(p, reference_cyclotomic(d))
    return p


def binomial_product(den):
    """prod_e (x^e - 1)^m over the items (e, m) of the dict ``den``."""
    return poly_mul(*(LaurentPoly({e: 1, 0: -1}) for e, m in den.items()
                      for _ in range(m)))


class Frac:
    """Reference rational function: a pair (num, den) of LaurentPolys with
    +, - and * by the reference arithmetic above, equal by
    cross-multiplication.  It shares no code with ``hn.CycloFrac`` and
    takes no gcd.  Operands may be ints, LaurentPolys, or anything with
    ``num`` and ``den``, such as a RationalFunc."""

    def __init__(self, num, den=None):
        self.num = poly(num)
        self.den = LaurentPoly.one() if den is None else den

    @staticmethod
    def of(x):
        return Frac(x) if isinstance(x, (int, LaurentPoly)) else Frac(x.num, x.den)

    def __add__(self, other):
        o = Frac.of(other)
        return Frac(poly_add(poly_mul(self.num, o.den), poly_mul(o.num, self.den)),
                    poly_mul(self.den, o.den))

    __radd__ = __add__

    def __neg__(self):
        return Frac(poly_neg(self.num), self.den)

    def __sub__(self, other):
        return self + -Frac.of(other)

    def __mul__(self, other):
        o = Frac.of(other)
        return Frac(poly_mul(self.num, o.num), poly_mul(self.den, o.den))

    __rmul__ = __mul__

    def __eq__(self, other):
        o = Frac.of(other)
        return poly_mul(self.num, o.den) == poly_mul(o.num, self.den)


def halve_exponents(p):
    """p with x^2 replaced by x; every exponent of p must be even."""
    assert not p.co or (p.lo % 2 == 0 and not any(p.co[1::2])), p
    return LaurentPoly._of(p.lo // 2, p.co[::2])


def symmetric_form(quiver, d, e):
    """(d, e) = <d, e> + <e, d>, the Cartan pairing."""
    return quiver.euler(d, e) + quiver.euler(e, d)


def gl_order(n, q):
    """|GL_n(F_q)|."""
    out = 1
    for k in range(n):
        out *= q ** n - q ** k
    return out


def group_order(quiver, d, q):
    """|G_d| = prod over the vertices i of |GL_(d_i)(F_q)|."""
    out = 1
    for v in quiver.vertices:
        out *= gl_order(d[v], q)
    return out


def reference_enumerate_reps(quiver, d, q):
    """The matrices of every point of R_d(F_q), sliced from one flat
    odometer over all cells (last cell fastest), as the oracle enumerated
    them before it drew from per-shape matrix lists."""
    dims = quiver.tup(d)
    shapes = [(dims[t], dims[s]) for s, t in quiver.arrow_pairs]
    cells = sum(r * c for r, c in shapes)
    for flat in product(range(q), repeat=cells):
        mats = []
        pos = 0
        for r, c in shapes:
            mats.append(tuple(flat[pos + i * c: pos + (i + 1) * c]
                              for i in range(r)))
            pos += r * c
        yield tuple(mats)


def fraction_divexact(a, b):
    """Reference exact division: long division over Q, then integrality."""
    num, nlo = a.co, a.lo
    den, dlo = b.co, b.lo
    if a.is_zero():
        return LaurentPoly()
    if len(num) < len(den):
        return None
    num = [Fraction(x) for x in num]
    dn = len(den)
    quot = [Fraction(0)] * (len(num) - dn + 1)
    for i in range(len(num) - dn, -1, -1):
        c = num[i + dn - 1] / den[-1]
        quot[i] = c
        for j in range(dn):
            num[i + j] -= c * den[j]
    if any(num) or any(c.denominator != 1 for c in quot):
        return None
    return LaurentPoly({nlo - dlo + i: int(c) for i, c in enumerate(quot)})


class ReferenceMonoid:
    """Reference congruence closure: a breadth-first search over tuples of
    vertex names that slices every position for every relation, each
    relation as often as the loops below list it.  It shares no code with
    ``words``."""

    @staticmethod
    def relations(quiver):
        rels = []
        for i in quiver.vertices:
            for j in quiver.vertices:
                if i == j or quiver.arrow_count(j, i) > 0:
                    continue
                n = quiver.arrow_count(i, j)
                rels.append(((i,) * (n + 1) + (j,), (i,) * n + (j, i)))
                rels.append(((i,) + (j,) * (n + 1), (j, i) + (j,) * n))
        return [r for r in rels if r[0] != r[1]]

    @staticmethod
    def rewrites(word, rels):
        for lhs, rhs in rels:
            for a, b in ((lhs, rhs), (rhs, lhs)):
                n = len(a)
                for p in range(len(word) - n + 1):
                    if word[p:p + n] == a:
                        yield word[:p] + b + word[p + n:]

    @classmethod
    def monoid_class(cls, quiver, word, budget):
        """(set of words reachable from word, closure-completed flag)."""
        word = tuple(word)
        rels = cls.relations(quiver)
        seen = {word}
        frontier = [word]
        while frontier:
            nxt = []
            for u in frontier:
                for v in cls.rewrites(u, rels):
                    if v not in seen:
                        if len(seen) >= budget:
                            return seen, False
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        return seen, True

    @classmethod
    def outcomes(cls, quiver, w, w2, size):
        """The values of ``MonoidOutcome`` for w against w2 at the budgets 1 to
        size + 1, where the class of w has ``size`` words.  The closure at
        budget b is the first min(b, size) words found, complete when
        b >= size, so it holds w2 from one budget on; that budget is found by
        bisection."""
        w, w2 = tuple(w), tuple(w2)
        budgets = range(1, size + 2)
        if sorted(w) != sorted(w2):
            return ["not-equal" for _ in budgets]
        lo, hi = 1, size + 1
        while lo < hi:
            mid = (lo + hi) // 2
            if w2 in cls.monoid_class(quiver, w, mid)[0]:
                hi = mid
            else:
                lo = mid + 1
        found = w2 in cls.monoid_class(quiver, w, lo)[0]
        return ["equal" if found and b >= lo else
                "not-equal" if b >= size else "undecided-at-budget" for b in budgets]


class ReferenceRoots:
    """Reference reflection descent on ``DimVector``s through
    :func:`symmetric_form`, as ``roots`` ran before it moved to tuples.
    It shares no code with ``roots`` and has no reflection budget;
    ``classify_root`` gives (kind, witness, endpoint)."""

    @staticmethod
    def _is_simple(quiver, d):
        return sum(quiver.tup(d)) == 1

    @staticmethod
    def _support_connected(quiver, d):
        supp = {v for v, n in d.items() if n}
        if not supp:
            return False
        seen = {next(iter(supp))}
        frontier = list(seen)
        while frontier:
            u = frontier.pop()
            for v in supp:
                if v not in seen and quiver.arrow_count(u, v) + quiver.arrow_count(v, u):
                    seen.add(v)
                    frontier.append(v)
        return seen == supp

    @classmethod
    def classify_root(cls, quiver, d):
        witness = []
        while True:
            if cls._is_simple(quiver, d):
                return "real", tuple(witness), d
            reflected = False
            positive_pairing = False
            for v in quiver.vertices:
                if d[v] == 0:
                    continue
                p = symmetric_form(quiver, d, DimVector({v: 1}))
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
                return "not-root", tuple(witness), None
            if cls._support_connected(quiver, d):
                return "imaginary", tuple(witness), d
            return "not-root", tuple(witness), None

    @classmethod
    def positive_roots_up_to(cls, quiver, bound):
        out = []
        for d in quiver.vectors_below(bound):
            kind = cls.classify_root(quiver, d)[0]
            if kind != "not-root":
                out.append((d, kind))
        return out


def replay_witness(quiver, endpoint, witness):
    """Apply the recorded reflections in reverse to recover the input."""
    d = list(quiver.tup(endpoint))
    for name in reversed(witness):
        v = quiver.index(name)
        d[v] -= roots._pairings(quiver.arrow_pairs, d)[v]
    return quiver.vec(d)


class ReferenceHN:
    """Reference semistable masses for one (quiver, theta): the resolved sum
    and the HN pass as they ran on ``hn.CycloFrac``, over least common
    denominators, before each quantity was kept over the fixed denominator
    of its dimension vector.  Fractions are pairs (LaurentPoly numerator,
    {e: m} for prod_e (x^e - 1)^m) added by lifting to the lcm with
    schoolbook products, and reduced by trial division through cyclotomic
    polynomials.  It shares no code with ``hn`` or the kernels of
    ``laurent``; ``mass_ss``,
    ``mass_ss_closed``, ``poincare`` and ``betti_via_mass`` return what the
    functions of ``hn`` of the same names return."""

    def __init__(self, quiver, theta):
        self.pairs = quiver.arrow_pairs
        self.theta = theta.key(quiver)
        self.quiver = quiver
        self.memo = {}

    # -- fractions ---------------------------------------------------------

    @staticmethod
    def add(terms):
        terms = [t for t in terms if not t[0].is_zero()]
        den = {}
        for _, d in terms:
            for e, m in d.items():
                den[e] = max(den.get(e, 0), m)
        num = poly_add(*(poly_mul(n, binomial_product({e: m - d.get(e, 0)
                                                         for e, m in den.items()}))
                         for n, d in terms))
        return (num, den) if not num.is_zero() else (num, {})

    @staticmethod
    def mul(a, b):
        den = dict(a[1])
        for e, m in b[1].items():
            den[e] = den.get(e, 0) + m
        return poly_mul(a[0], b[0]), den

    @staticmethod
    def canonical(frac):
        """(numerator, denominator) in the canonical form of RationalFunc."""
        num, den = frac
        if num.is_zero():
            return LaurentPoly.zero(), LaurentPoly.one()
        cyc = {}
        for e, m in den.items():
            for n in range(1, e + 1):
                if e % n == 0:
                    cyc[n] = cyc.get(n, 0) + m
        left = []
        for n in sorted(cyc):
            for _ in range(cyc[n]):
                q = poly_divexact(num, reference_cyclotomic(n))
                if q is None:
                    left.append(reference_cyclotomic(n))
                else:
                    num = q
        return num, poly_mul(*left)

    # -- quiver data -------------------------------------------------------

    def below(self, g):
        return [e for e in product(*(range(n + 1) for n in g)) if any(e)]

    def slope(self, e):
        return Fraction(sum(a * b for a, b in zip(self.theta, e)), sum(e))

    def euler(self, x, y):
        return (sum(a * b for a, b in zip(x, y))
                - sum(x[s] * y[t] for s, t in self.pairs))

    def weight(self, e):
        exp = (sum(e[s] * e[t] for s, t in self.pairs)
               - sum(n * (n - 1) // 2 for n in e))
        den = {}
        for n in e:
            for k in range(1, n + 1):
                den[k] = den.get(k, 0) + 1
        return LaurentPoly({exp: 1}), den

    # -- the recursions ----------------------------------------------------

    def resolved(self, g, mu):
        key = ("resolved", g, mu)
        if key not in self.memo:
            terms = []
            for e in self.below(g):
                term = self.weight(e)
                rest = tuple(x - y for x, y in zip(g, e))
                if e != g:
                    if not self.slope(rest) > mu:
                        continue
                    inner = self.resolved(rest, mu)
                    if inner[0].is_zero():
                        continue
                    term = self.mul(term, inner)
                    term = (poly_neg(term[0]), term[1])
                shift = LaurentPoly({-self.euler(e, rest): 1})
                terms.append((poly_mul(term[0], shift), term[1]))
            self.memo[key] = self.add(terms)
        return self.memo[key]

    def hn(self, f, top, bound=None):
        key = ("hn", f)
        entry = self.memo.get(key)
        if entry is None or (bound is not None and bound not in entry[1]):
            entry = self.memo[key] = self.hn_pass(f, top)
        return entry

    def hn_pass(self, f, top):
        mu_f = self.slope(f)
        rest_top = tuple(x - y for x, y in zip(top, f))
        bounds = {b for e in self.below(rest_top) if (b := self.slope(e)) > mu_f}
        parts = sorted(((self.slope(e), e) for e in self.below(f)
                        if self.slope(e) > mu_f), key=lambda p: -p[0])
        running, table, i = self.weight(f), {}, 0
        for b in sorted(bounds, reverse=True) + [mu_f]:
            terms = [running]
            while i < len(parts) and parts[i][0] >= b:
                mu, e = parts[i]
                i += 1
                ss = self.hn(e, top)[0]
                if ss[0].is_zero():
                    continue
                rest = tuple(x - y for x, y in zip(f, e))
                num, den = self.mul(ss, self.hn(rest, top, mu)[1][mu])
                terms.append((poly_mul(-1, num, LaurentPoly({-self.euler(rest, e): 1})),
                              den))
            running = table[b] = self.add(terms)
        return table.pop(mu_f), table

    # -- the answers -------------------------------------------------------

    def mass_ss_closed(self, d):
        t = self.quiver.tup(d)
        return self.canonical(self.resolved(t, self.slope(t)))

    def mass_ss(self, d):
        t = self.quiver.tup(d)
        return self.canonical(self.hn(t, t)[0])

    @classmethod
    def times_q_minus_one(cls, frac):
        num, den = frac
        if num.is_zero():
            return LaurentPoly.zero()
        den = dict(den)
        den[1] -= 1
        num, den = cls.canonical((num, den))
        if den != LaurentPoly.one():
            raise ValueError("not a polynomial")
        return num

    def poincare(self, d):
        t = self.quiver.tup(d)
        p = self.times_q_minus_one(self.resolved(t, self.slope(t)))
        return LaurentPoly({2 * e: a for e, a in p.items()})

    def betti_via_mass(self, d):
        t = self.quiver.tup(d)
        return self.times_q_minus_one(self.hn(t, t)[0])


class ThetaContext:
    """A quiver at one stability, as ``hn`` kept it in the memo store before
    its theta-dependent state lived for one call: the context of the quiver,
    theta as a tuple in vertex order, a memo of its own and reduced slope
    pairs.  The references below run on it."""

    def __init__(self, quiver, theta):
        self.base = _context(quiver)
        self.theta = theta.key(quiver)
        self.memo = {}

    def slope(self, e):
        """theta(e) / dim e as a reduced (numerator, denominator > 0) pair."""
        num, den = sum(map(mul, self.theta, e)), sum(e)
        g = math.gcd(num, den)
        return num // g, den // g

    def euler(self, x, y):
        return self.base.euler(x, y)


def less(a, b):
    """a < b for slopes given as (numerator, denominator > 0) pairs."""
    return a[0] * b[1] < b[0] * a[1]


# The HN pass found its bounds and parts by these comprehensions over
# reduced slope pairs before it read them off the ranks of its query; the
# query is tested against them.
DESCENDING = cmp_to_key(lambda a, b: b[0] * a[1] - a[0] * b[1])


def reference_bounds(ctx, top, f):
    """L(f) = {mu(e) : 0 < e <= top - f, mu(e) > mu(f)} by descending slope."""
    mu_f = ctx.slope(f)
    return sorted({b for e in _below(_minus(top, f))
                   if less(mu_f, b := ctx.slope(e))}, key=DESCENDING)


def reference_parts(ctx, f):
    """(mu(e), e) for 0 < e <= f with mu(e) > mu(f) by descending slope, in
    lexicographic order within one slope."""
    mu_f = ctx.slope(f)
    return sorted(((mu, e) for e in _below(f) if less(mu_f, mu := ctx.slope(e))),
                  key=lambda p: DESCENDING(p[0]))


# ``hn`` found the HN types by this search, and decided whether a semistable
# locus is nonempty by a search for a flat type, before it read King's
# criterion off the generic subrepresentations; both are tested against it.
def reference_hn_types(ctx, d, flat=False):
    """The HN types of d: tuples of ss-nonempty parts with strictly
    decreasing slopes.  ``flat`` keeps only those of at least two parts with
    <d^k, d^l> = 0 for k < l, the codimension-0 ones; one exists iff the
    semistable locus of d is empty."""
    def dfs(rest, parts, bound):
        if not any(rest):
            yield parts
            return
        for p in _below(rest):
            mu = ctx.slope(p)
            if bound is not None and not less(mu, bound):
                continue
            if flat and (p == d or any(ctx.euler(q, p) for q in parts)):
                continue
            if reference_ss_nonempty(ctx, p):
                yield from dfs(_minus(rest, p), parts + (p,), mu)

    return dfs(d, (), None)


@_memoized
def reference_ss_nonempty(ctx, d):
    return next(reference_hn_types(ctx, d, flat=True), None) is None


# ``cli.main`` printed its CommandResult by this renderer, from echo objects
# of the parsed values, before it joined the object from encoded parts; the
# printed output is tested against it.
def reference_stringify(obj):
    """Every int (bool aside) in a JSON-like tree as its decimal string."""
    if isinstance(obj, list):
        return [reference_stringify(x) for x in obj]
    if isinstance(obj, dict):
        return {k: reference_stringify(v) for k, v in obj.items()}
    if isinstance(obj, int) and not isinstance(obj, bool):
        return str(obj)
    return obj


def reference_echo(name, value):
    """The inputs entry of the flag ``name`` for its parsed ``value``, or
    None for a flag that is not echoed."""
    if name in ("--budget", "--method"):
        return None
    if name == "path":
        return value or "bundled k3_tables.json"
    if name == "--parts":
        return [p.to_json() for p in value]
    return value.to_json() if hasattr(value, "to_json") else value


def reference_render(command, inputs, result, timing_ms):
    """The printed CommandResult of ``command`` with the echo objects
    ``inputs`` (a dict by flag name without dashes) and the payload
    ``result``."""
    return json.dumps({"command": command, "inputs": reference_stringify(inputs),
                       "result": reference_stringify(result), "timing_ms": timing_ms},
                      sort_keys=True)


# A plain word-by-word walk of argv that reads each flag's keywords as it
# reaches them; ``cli._parse`` is tested against it, values and error texts
# alike.
def reference_parse(argv):
    """The command key of ``argv`` and its flag values in declared order;
    raises as the reader does on a usage error or a request for help."""
    key, start = _command(argv)
    prog = f"{_PROG} {key}"
    flags = _COMMANDS[key][0]
    index = {f.name: j for j, f in enumerate(flags)}
    positional = next((j for j, f in enumerate(flags) if not f.name.startswith("-")), None)
    given = [False] * len(flags)
    values = [f.kw.get("default") for f in flags]
    i = start
    while i < len(argv):
        word = argv[i]
        i += 1
        if word in _HELP:
            raise _Help(None)
        if word.startswith("--"):
            name, eq, value = word.partition("=")
            j = index.get(name)
            if j is None:
                raise InputError(f"{prog}: unrecognized arguments: {name}")
            if not eq:
                if i == len(argv):
                    raise InputError(f"{prog}: argument {name}: expected one argument")
                value = argv[i]
                i += 1
        else:
            j = None if word.startswith("-") else positional
            if j is None or given[j]:
                raise InputError(f"{prog}: unrecognized arguments: {word}")
            value = word
        f = flags[j]
        convert = f.kw.get("type")
        if convert is not None:
            try:
                value = convert(value)
            except ValueError:
                raise InputError(f"{prog}: argument {f.name}: invalid "
                                 f"{convert.__name__} value: {value!r}") from None
        choices = f.kw.get("choices")
        if choices is not None and value not in choices:
            raise InputError(f"{prog}: argument {f.name}: invalid choice: {value!r} "
                             f"(choose from {', '.join(map(repr, choices))})")
        values[j] = value
        given[j] = True
    missing = [f.name for f, g in zip(flags, given) if f.kw.get("required") and not g]
    if missing:
        raise InputError(f"{prog}: the following arguments are required: "
                         f"{', '.join(missing)}")
    return key, values
