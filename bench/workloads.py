"""The benchmark's workloads: seeded operation lists, how one operation runs,
and the answer checks made after the timed passes.

A workload has four parts:

* ``generate(mods, rng)`` builds the operation list from the seed;
* ``prepare(mods, op)`` runs before an operation, outside its timer;
* ``execute(mods, op)`` is the timed operation and returns its raw output;
* ``verify(mods, ops, outputs)`` returns the indices of wrong answers.

``normalize`` turns a raw output into the value that must repeat exactly
between passes.
"""

from __future__ import annotations

import io
import json
import math
import sys
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

Op = namedtuple("Op", "kind key args")
Raised = namedtuple("Raised", "error message")


def quiver_json(vertices, pairs):
    return json.dumps({"vertices": list(vertices),
                       "arrows": [{"from": s, "to": t} for s, t in pairs]})


def dim_json(vertices, values):
    return json.dumps(dict(zip(vertices, values)))


class Workload:
    warmup = False          # one untimed pass first, to fill caches

    def prepare(self, mods, op):
        pass

    @staticmethod
    def normalize(raw):
        return raw


class CliWorkload(Workload):
    """Operations are argv lists run through the in-process ``cli.main``."""

    def execute(self, mods, op):
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = out, err
        try:
            code = mods.cli.main(op.args)
        finally:
            sys.stdout, sys.stderr = saved
        return code, out.getvalue()

    @staticmethod
    def normalize(raw):
        if isinstance(raw, Raised):
            return raw
        code, text = raw
        try:
            doc = json.loads(text)
        except ValueError:
            return code, None
        # The wall time the CLI reports is the one field that may differ.
        doc.pop("timing_ms", None)
        return code, doc

    @staticmethod
    def result(output):
        """The ``result`` object of a successful CLI output, else None."""
        if isinstance(output, Raised):
            return None
        code, doc = output
        if code != 0 or not isinstance(doc, dict):
            return None
        return doc.get("result")


# ---------------------------------------------------------------------------
# betti-k3

K3_VERTICES = ("i", "j")


class BettiK3(CliWorkload):
    """Few large cold queries: ``betti`` on K3 by both methods.

    (9,10) and (11,12) are baseline sizes of ROADMAP.md; (6,7) has a
    fixture row.
    """

    name = "betti-k3"
    dims = ((6, 7), (9, 10), (11, 12))
    methods = ("closed", "mass")

    def generate(self, mods, rng):
        quiver = quiver_json(K3_VERTICES, [("i", "j")] * 3)
        ops = [Op("betti", (a, b, method),
                  ["betti", "--quiver", quiver,
                   "--dim", dim_json(K3_VERTICES, (a, b)),
                   "--theta", '{"i": 1, "j": 0}', "--method", method])
               for a, b in self.dims for method in self.methods]
        rng.shuffle(ops)
        return ops

    def prepare(self, mods, op):
        # Every query starts cold, as a fresh process would.
        mods.hn.clear_caches()
        mods.generic.clear_caches()

    def verify(self, mods, ops, outputs):
        bad = set()
        rows = {}
        for i, (op, out) in enumerate(zip(ops, outputs)):
            res = self.result(out)
            try:
                rows[op.key] = [int(c) for c in res["coefficients"]]
            except (TypeError, KeyError, ValueError):
                bad.add(i)
        where = {op.key: i for i, op in enumerate(ops)}
        expected = _k3_fixture_rows(mods)
        for (a, b, method), row in rows.items():
            i = where[(a, b, method)]
            other = rows.get((a, b, "closed" if method == "mass" else "mass"))
            top = 1 - (a * a + b * b - 3 * a * b)
            ok = (other is None or other == row) and bool(row)
            ok = ok and row[0] == 1 and row == row[::-1] and len(row) - 1 == top
            want, full = expected.get((a, b, method), (None, False))
            if want is not None:
                ok = ok and (row == want if full else row[:len(want)] == want)
            if not ok:
                bad.add(i)
        return bad


def _k3_fixture_rows(mods):
    """{(a, b, method): (coefficients, full row?)} from the bundled fixtures."""
    path = Path(mods.cli.__file__).parent / "fixtures" / "k3_tables.json"
    out = {}
    for fx in json.loads(path.read_text()):
        argv = fx["argv"]
        if argv[0] != "betti":
            continue
        flags = dict(zip(argv[1::2], argv[2::2]))
        dim = json.loads(flags["--dim"])
        key = (dim.get("i", 0), dim.get("j", 0), flags.get("--method", "closed"))
        if "expected" in fx:
            out[key] = ([int(c) for c in fx["expected"]["coefficients"]], True)
        else:
            out[key] = ([int(c) for c in fx["expected_prefix"]], False)
    return out


# ---------------------------------------------------------------------------
# catalog-cli

# name -> (vertices, arrows, stabilities).  Vertex names are single letters
# so that words can be spelled as strings.
CATALOG_QUIVERS = {
    **{f"K{m}": (("i", "j"), [("i", "j")] * m, ({"i": 1, "j": 0},))
       for m in (1, 2, 3, 4)},
    "A3": (("1", "2", "3"), [("1", "2"), ("2", "3")],
           ({"1": 1}, {"1": 2, "2": 1})),
    "D4": (("a", "b", "c", "d"), [("a", "d"), ("b", "d"), ("c", "d")],
           ({"a": 1, "b": 1, "c": 1},)),
}
HN_MAX_TOTAL = 7           # hn queries on K_m stop at |d| <= 7
WORD_LENGTHS = (4, 5, 6, 7, 8)
SERIES_CUTOFFS = tuple(range(4, 30, 2))
TWO_ROW_PREFIX = [1, 1, 3, 5, 10, 16, 29]


def _catalog_dims(name):
    if name.startswith("K"):
        return [(a, b) for a in range(6) for b in range(6) if a + b]
    if name == "A3":
        return [(x, y, z) for x in range(3) for y in range(3) for z in range(3)
                if 1 <= x + y + z <= 4]
    return [(a, b, c, d) for a in range(2) for b in range(2) for c in range(2)
            for d in range(4) if a + b + c + d]


class CatalogCli(CliWorkload):
    """A long-lived process answering many small CLI questions."""

    name = "catalog-cli"
    warmup = True

    def generate(self, mods, rng):
        ops = []
        for qname, (verts, arrows, thetas) in CATALOG_QUIVERS.items():

            def quiver():
                # Users list arrows in any order; the answer must not care.
                order = list(arrows)
                rng.shuffle(order)
                return quiver_json(verts, order)

            def add(kind, key, *argv):
                ops.append(Op(kind, (qname,) + key, [*argv]))

            dims = _catalog_dims(qname)
            for d in dims:
                dj = dim_json(verts, d)
                add("root", (d,), "root", "classify", "--quiver", quiver(), "--dim", dj)
                add("schur", (d,), "schur", "--quiver", quiver(), "--dim", dj)
                add("decompose", (d,), "decompose", "--quiver", quiver(), "--dim", dj)
                e = rng.choice(dims)
                add("ext", (d, e), "ext", "--quiver", quiver(), "--d", dj,
                    "--e", dim_json(verts, e))
                if qname.startswith("K") and sum(d) > HN_MAX_TOTAL:
                    continue
                add("mass", (d,), "mass", "--quiver", quiver(), "--dim", dj)
                for t, theta in enumerate(thetas):
                    tj = json.dumps(theta)
                    key = (t, d)
                    add("ss-nonempty", key, "ss-nonempty", "--quiver", quiver(),
                        "--dim", dj, "--theta", tj)
                    add("hn-types", key, "hn-types", "--quiver", quiver(),
                        "--dim", dj, "--theta", tj)
                    for method in ("recursive", "closed"):
                        add("mass-ss", key + (method,), "mass-ss", "--quiver", quiver(),
                            "--dim", dj, "--theta", tj, "--method", method)
                    value = sum(theta.get(v, 0) * n for v, n in zip(verts, d))
                    if math.gcd(value, sum(d)) == 1:
                        add("betti", key, "betti", "--quiver", quiver(),
                            "--dim", dj, "--theta", tj)
            for length in WORD_LENGTHS:
                w = "".join(rng.choice(verts) for _ in range(length))
                w2 = "".join(rng.sample(w, length))
                for a, b in ((w, w2), (w2, w)):
                    add("monoid-equal", (a, b), "monoid", "equal", "--quiver",
                        quiver(), "--w", a, "--w2", b)
                add("word-leq", (w, w2), "word", "leq", "--quiver", quiver(),
                    "--w", w, "--w2", w2)
        for n in SERIES_CUTOFFS:
            ops.append(Op("series", (n,), ["series", "two-row", "--n", str(n)]))
        rng.shuffle(ops)
        return ops

    def verify(self, mods, ops, outputs):
        bad = set()
        found = {}
        for i, (op, out) in enumerate(zip(ops, outputs)):
            res = self.result(out)
            if res is None:
                bad.add(i)
            else:
                found[(op.kind, op.key)] = (i, res)

        def check(ok, *keys):
            if not ok:
                bad.update(found[k][0] for k in keys if k in found)

        for (kind, key), (i, res) in found.items():
            if kind == "mass-ss" and key[-1] == "recursive":
                qname, t, d = key[:3]
                closed = ("mass-ss", key[:-1] + ("closed",))
                ss = ("ss-nonempty", (qname, t, d))
                if closed in found:
                    check(found[closed][1]["mass_ss"] == res["mass_ss"],
                          (kind, key), closed)
                if ss in found:
                    zero = not res["mass_ss"]["num"]["terms"]
                    check(found[ss][1]["nonempty"] is (not zero), (kind, key), ss)
            elif kind == "decompose":
                qname, d = key
                verts = CATALOG_QUIVERS[qname][0]
                parts = [tuple(int(p.get(v, 0)) for v in verts) for p in res["parts"]]
                total = tuple(map(sum, zip(*parts))) if parts else ()
                schur = [found.get(("schur", (qname, p))) for p in parts]
                check(total == d and all(s is not None and s[1]["schur"] is True
                                         for s in schur), (kind, key))
            elif kind == "monoid-equal":
                qname, a, b = key
                mirror = ("monoid-equal", (qname, b, a))
                if mirror in found:
                    check(found[mirror][1]["outcome"] == res["outcome"],
                          (kind, key), mirror)
            elif kind == "series":
                got = [int(c) for c in res["coefficients"]]
                check(len(got) == key[0] + 1
                      and got[:7] == TWO_ROW_PREFIX[:key[0] + 1], (kind, key))
        return bad


# ---------------------------------------------------------------------------
# oracle-verify

QUADRIC_CASES = ((2, 3), (2, 5), (3, 3), (3, 5), (4, 3), (4, 5))   # (m, q)
QUADRICS_PER_CASE = 300
EXT_CASES = ((2, 2), (2, 3), (3, 2), (3, 3))                      # (m, q)
EXT_DIMS = ((1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (2, 2))
EXTS_PER_CASE = 60
# (quiver name, dimension vector, q): exhaustive enumerations.
COUNT_SS = (("K2", (1, 1), 3), ("K2", (1, 2), 3), ("K2", (2, 2), 2),
            ("K3", (1, 2), 2), ("K3", (2, 1), 3), ("A3", (1, 1, 1), 3))
COUNT_INDEC = (("K2", (1, 2), 3), ("K2", (2, 2), 2), ("K3", (1, 2), 2),
               ("A3", (1, 1, 1), 2), ("A3", (1, 2, 1), 2))
# Enumerations far above the budget: the oracle must refuse before starting.
REFUSALS = (("K3", (3, 3), 3, 10 ** 4), ("K4", (2, 3), 5, 10 ** 5))


class OracleVerify(Workload):
    """Direct calls into the finite-field oracle, the program's own
    brute-force cross-check."""

    name = "oracle-verify"

    def _quivers(self, mods):
        Quiver = mods.quiver.Quiver
        out = {f"K{m}": mods.quiver.kronecker_quiver(m) for m in (1, 2, 3, 4)}
        out["A3"] = Quiver(["1", "2", "3"], [("1", "2"), ("2", "3")])
        return out

    def generate(self, mods, rng):
        quivers = self._quivers(mods)
        DimVector, Stability = mods.quiver.DimVector, mods.quiver.Stability
        theta = Stability({"i": 1})
        thetas = {"A3": Stability({"1": 1})}

        def dv(name, values):
            return DimVector(dict(zip(quivers[name].vertices, values)))

        def mats(rows, cols, count, q):
            return [[[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]
                    for _ in range(count)]

        ops = []
        for m, q in QUADRIC_CASES:
            name = f"K{m}"
            for _ in range(QUADRICS_PER_CASE):
                ops.append(Op("quadric", (name, m, q),
                              (quivers[name], theta, dv(name, (2, 2)), mats(2, 2, m, q), q)))
        for m, q in EXT_CASES:
            name = f"K{m}"
            for _ in range(EXTS_PER_CASE):
                d, e = rng.choice(EXT_DIMS), rng.choice(EXT_DIMS)
                reps = [(dv(name, x), mats(x[1], x[0], m, q)) for x in (d, e)]
                ops.append(Op("ext", (name, d, e, q), (quivers[name], reps, q)))
        for name, d, q in COUNT_SS:
            ops.append(Op("count-ss", (name, d, q),
                          (quivers[name], thetas.get(name, theta), dv(name, d), q)))
        for name, d, q in COUNT_INDEC:
            ops.append(Op("count-indec", (name, d, q), (quivers[name], dv(name, d), q)))
        for name, d, q, budget in REFUSALS:
            ops.append(Op("refusal", (name, d, q, budget),
                          (quivers[name], theta, dv(name, d), q, budget)))
        rng.shuffle(ops)
        return ops

    def execute(self, mods, op):
        oracle = mods.oracle
        kind, args = op.kind, op.args
        if kind == "quadric":
            quiver, theta, d, tup, q = args
            coeffs, rank = oracle.kronecker_quadratic_form(tup, q)
            semistable = oracle.is_semistable(oracle.FFRep(quiver, q, d, tup), theta)
            return any(c % q for c in coeffs.values()), rank, semistable
        if kind == "ext":
            quiver, ((d, m1), (e, m2)), q = args
            return oracle.ext_dim(oracle.FFRep(quiver, q, d, m1),
                                  oracle.FFRep(quiver, q, e, m2))
        if kind == "count-ss":
            quiver, theta, d, q = args
            return oracle.count_semistable(quiver, theta, d, q)
        if kind == "count-indec":
            quiver, d, q = args
            return oracle.count_indecomposable(quiver, d, q)
        quiver, theta, d, q, budget = args
        try:
            oracle.count_semistable(quiver, theta, d, q, budget=budget)
        except mods.errors.BudgetExceeded as exc:
            return "refused", exc.required, exc.budget
        return "not refused"

    def verify(self, mods, ops, outputs):
        bad = set()
        for i, (op, out) in enumerate(zip(ops, outputs)):
            if isinstance(out, Raised):
                bad.add(i)
                continue
            kind, args = op.kind, op.args
            if kind == "quadric":
                nonzero, rank, semistable = out
                ok = nonzero == semistable and rank <= min(4, op.key[1])
            elif kind == "ext":
                quiver, ((d, _), (e, _)), _ = args
                ok = out >= mods.generic.generic_ext(quiver, d, e)
            elif kind == "count-ss":
                quiver, theta, d, q = args
                mass = mods.hn.mass_ss(quiver, theta, d).evaluate(q)
                ok = Fraction(out, _group_order(quiver, d, q)) == mass
            elif kind == "count-indec":
                quiver, d, q = args
                ok = (out > 0) == mods.roots.classify_root(quiver, d).is_root
            else:
                ok = (isinstance(out, tuple) and out[0] == "refused"
                      and out[1] > out[2] == op.key[3])
            if not ok:
                bad.add(i)
        return bad


def _group_order(quiver, d, q):
    """|G_d(F_q)| = prod over vertices of |GL_{d_v}(F_q)|."""
    out = 1
    for v in quiver.vertices:
        n = d[v]
        for k in range(n):
            out *= q ** n - q ** k
    return out


WORKLOADS = {w.name: w for w in (BettiK3(), CatalogCli(), OracleVerify())}
