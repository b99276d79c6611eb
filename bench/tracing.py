"""Outside-in tracing of the quivermoduli layers.

The tracer patches public functions and methods of the package from the
outside and restores them afterwards; nothing in the package changes.  Each
wrapped call becomes a span (key, parent span, start, end) kept in memory in
flat arrays.  A layer's self time is a span's duration minus the time its
direct child spans cover; busy time (``time_s``) sums the spans of one key
that are not nested inside another span of the same key, so recursion is
not counted twice.

Three kinds of wrapper exist, because the call time of some names says
nothing about their work:

* spans, for ordinary functions and methods;
* item counters, for generator functions (``Quiver.vectors_below``,
  ``oracle.enumerate_reps``), whose call returns at once and whose work
  happens as items are drawn;
* plain call counters, for constructors too small to time
  (``DimVector.__init__``).

Only public names are read, so the benchmark does not depend on how the
package keeps its caches.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from collections import Counter, defaultdict

LAYERS = ("cli", "quiver", "roots", "generic", "hn", "laurent", "words",
          "series", "oracle")

# Public functions that are not work: cache administration, which the
# workloads call between operations.
SKIPPED = {"clear_caches"}

# Public functions of ``hn`` are keyed ``hn.api.<name>``; ``hn.api`` as a
# whole counts each outermost entry point once (betti_coefficients calls
# poincare).
HN_API = "hn.api."

# Busy time of an inner key spent inside an outer key: which method a
# polynomial operation served.  (inner key, outer key, metric name)
WITHIN = (
    ("laurent.divexact", "hn.api.poincare", "laurent.divexact.in_poincare.time_s"),
    ("laurent.divexact", "hn.api.betti_via_mass",
     "laurent.divexact.in_betti_via_mass.time_s"),
    ("laurent.mul", "hn.api.poincare", "laurent.mul.in_poincare.time_s"),
    ("laurent.mul", "hn.api.betti_via_mass", "laurent.mul.in_betti_via_mass.time_s"),
    ("laurent.mul", "hn.cyclofrac.add", "laurent.mul.in_cyclofrac_add.time_s"),
)

# (module, class, attribute, key, kind); kind is "span", "items" or "count".
METHODS = (
    ("laurent", "LaurentPoly", "__mul__", "laurent.mul", "span"),
    ("laurent", "LaurentPoly", "divexact", "laurent.divexact", "span"),
    ("laurent", "RationalFunc", "__init__", "laurent.rationalfunc.new", "span"),
    ("hn", "CycloFrac", "__add__", "hn.cyclofrac.add", "span"),
    ("hn", "CycloFrac", "reduce", "hn.cyclofrac.reduce", "span"),
    ("quiver", "Quiver", "euler", "quiver.euler", "span"),
    ("quiver", "Quiver", "from_json", "quiver.from_json", "span"),
    ("quiver", "Quiver", "vectors_below", "quiver.vectors_below", "items"),
    ("quiver", "DimVector", "__init__", "quiver.dimvector.created", "count"),
)


def _terms(x):
    """Number of terms of a LaurentPoly operand (an int is one term)."""
    if isinstance(x, int):
        return 1 if x else 0
    items = getattr(x, "items", None)
    return len(items()) if items is not None else 0


class Tracer:
    """Spans and counters of one traced pass; :meth:`reset` starts another."""

    def __init__(self, refusal=()):
        self._refusal = refusal
        self._patches = []
        self.keys = []
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.nested = bytearray()
        self.counts = Counter()
        self._stack = [-1]
        self._depth = Counter()

    def reset(self):
        """Drop the spans and counts; the installed wrappers keep working."""
        self.keys.clear()
        del self.parent[:], self.start[:], self.end[:], self.nested[:]
        self.counts.clear()
        del self._stack[1:]
        self._depth.clear()

    # -- wrappers ----------------------------------------------------------

    def _span(self, key, fn):
        keys, parent, start, end = self.keys, self.parent, self.start, self.end
        nested, stack, depth, counts = self.nested, self._stack, self._depth, self.counts
        refusal, clock = self._refusal, time.perf_counter
        terms = key == "laurent.mul"
        misses = key == "laurent.divexact"
        oracle = key.startswith("oracle.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(keys)
            keys.append(key)
            parent.append(stack[-1])
            nested.append(depth[key] > 0)
            depth[key] += 1
            stack.append(sid)
            end.append(0.0)
            if terms:
                counts["laurent.mul.term_products"] += (
                    _terms(args[0]) * _terms(args[1]))
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except refusal:
                if oracle:
                    self._count_refusal(parent[sid])
                raise
            finally:
                end[sid] = clock()
                stack.pop()
                depth[key] -= 1
            if misses and result is None:
                counts["laurent.divexact.misses"] += 1
            return result

        return wrapper

    def _count_refusal(self, up):
        """Count a budget refusal once, where it leaves the oracle layer."""
        if up < 0 or not self.keys[up].startswith("oracle."):
            self.counts["oracle.budget_refusals"] += 1

    def _items(self, key, fn):
        key += ".items"
        counts, stack, refusal = self.counts, self._stack, self._refusal
        oracle = key.startswith("oracle.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                for item in fn(*args, **kwargs):
                    counts[key] += 1
                    yield item
            except refusal:
                if oracle:
                    self._count_refusal(stack[-1])
                raise

        return wrapper

    def _count(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, key, kind, fn):
        if kind == "items" or inspect.isgeneratorfunction(fn):
            return self._items(key, fn)
        if kind == "count":
            return self._count(key, fn)
        return self._span(key, fn)

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, name, new):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def _patch_method(self, cls, name, key, kind):
        raw = cls.__dict__[name]
        if isinstance(raw, (staticmethod, classmethod)):
            new = type(raw)(self._wrap(key, kind, raw.__func__))
        else:
            new = self._wrap(key, kind, raw)
        # Aliases such as ``__rmul__ = __mul__`` are separate binding sites.
        for alias, value in list(cls.__dict__.items()):
            if value is raw:
                self._patch(cls, alias, new)

    def install(self, mods):
        """Patch every binding site of the traced names in ``mods``."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {layer: getattr(mods, layer) for layer in LAYERS}
        done = set()
        for layer, module in modules.items():
            # cli has no __all__; its one public entry point is main.
            names = getattr(module, "__all__", ["main"])
            for name in names:
                fn = getattr(module, name)
                if (name in SKIPPED or isinstance(fn, type) or not callable(fn)
                        or id(fn) in done):
                    continue
                done.add(id(fn))
                key = f"{HN_API}{name}" if layer == "hn" else f"{layer}.{name}"
                new = self._wrap(key, "span", fn)
                # ``from .generic import generic_ext`` in words is a second
                # binding of the same function; patch all of them.
                for other in modules.values():
                    for attr, value in list(vars(other).items()):
                        if value is fn:
                            self._patch(other, attr, new)
        for layer, cls_name, attr, key, kind in METHODS:
            self._patch_method(getattr(modules[layer], cls_name), attr, key, kind)

    def uninstall(self):
        while self._patches:
            owner, name, old = self._patches.pop()
            setattr(owner, name, old)

    # -- results -----------------------------------------------------------

    def summary(self):
        """Per key: calls, busy time (outermost spans of the key), self time;
        plus busy time of the ``hn.api`` group and of the WITHIN pairs."""
        keys, parent, nested = self.keys, self.parent, self.nested
        n = len(keys)
        dur = array("d", (self.end[i] - self.start[i] for i in range(n)))
        child = array("d", bytes(8 * n))
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]
        calls = Counter(keys)
        busy = defaultdict(float)
        own = defaultdict(float)
        inner = {pair[0] for pair in WITHIN}
        for i, key in enumerate(keys):
            own[key] += dur[i] - child[i]
            if nested[i]:
                continue
            busy[key] += dur[i]
            if key.startswith(HN_API) or key in inner:
                above = set()
                p = parent[i]
                while p >= 0:
                    above.add(keys[p])
                    p = parent[p]
                if key.startswith(HN_API) and not any(
                        k.startswith(HN_API) for k in above):
                    busy["hn.api"] += dur[i]
                for inner_key, outer_key, metric in WITHIN:
                    if key == inner_key and outer_key in above:
                        busy[metric] += dur[i]
        for key in [k for k in calls if k.startswith(HN_API)]:
            calls["hn.api"] += calls[key]
            own["hn.api"] += own[key]
        return calls, busy, own


def layer_metrics(tracer):
    """The per-layer metrics of one traced pass, by BENCHMARK.json name."""
    calls, busy, own = tracer.summary()
    counts = tracer.counts
    div_calls = calls["laurent.divexact"]
    out = {
        "laurent.divexact.calls": div_calls,
        "laurent.divexact.time_s": busy["laurent.divexact"],
        "laurent.divexact.miss_ratio": (
            counts["laurent.divexact.misses"] / div_calls if div_calls else 0.0),
        "laurent.mul.calls": calls["laurent.mul"],
        "laurent.mul.time_s": busy["laurent.mul"],
        "laurent.mul.term_products": counts["laurent.mul.term_products"],
        "laurent.rationalfunc.new.time_s": busy["laurent.rationalfunc.new"],
        "hn.cyclofrac.add.calls": calls["hn.cyclofrac.add"],
        "hn.cyclofrac.add.self_s": own["hn.cyclofrac.add"],
        "hn.cyclofrac.reduce.calls": calls["hn.cyclofrac.reduce"],
        "hn.cyclofrac.reduce.self_s": own["hn.cyclofrac.reduce"],
        "hn.api.calls": calls["hn.api"],
        "hn.api.time_s": busy["hn.api"],
        "hn.recursion.self_s": own["hn.api"],
        "hn.poincare.time_s": busy["hn.api.poincare"],
        "hn.betti_via_mass.time_s": busy["hn.api.betti_via_mass"],
        "quiver.vectors_below.items": counts["quiver.vectors_below.items"],
        "quiver.euler.calls": calls["quiver.euler"],
        "quiver.euler.time_s": busy["quiver.euler"],
        "quiver.dimvector.created": counts["quiver.dimvector.created"],
        "generic.generic_ext.calls": calls["generic.generic_ext"],
        "generic.generic_ext.time_s": busy["generic.generic_ext"],
        "generic.schur_test.time_s": busy["generic.schur_test"],
        "generic.generic_decomposition.time_s": busy["generic.generic_decomposition"],
        "roots.classify_root.time_s": busy["roots.classify_root"],
        "words.monoid_equal.calls": calls["words.monoid_equal"],
        "words.monoid_equal.time_s": busy["words.monoid_equal"],
        "words.word_leq.time_s": busy["words.word_leq"],
        "series.two_row.time_s": busy["series.two_row_partition_series"],
        "cli.main.calls": calls["cli.main"],
        "cli.main.time_s": busy["cli.main"],
        "oracle.enumerate_reps.items": counts["oracle.enumerate_reps.items"],
        "oracle.is_semistable.calls": calls["oracle.is_semistable"],
        "oracle.is_semistable.time_s": busy["oracle.is_semistable"],
        "oracle.hom_dim.calls": calls["oracle.hom_dim"],
        "oracle.hom_dim.time_s": busy["oracle.hom_dim"],
        "oracle.kronecker_quadratic_form.time_s": busy["oracle.kronecker_quadratic_form"],
        "oracle.is_indecomposable.time_s": busy["oracle.is_indecomposable"],
        "oracle.budget_refusals": counts["oracle.budget_refusals"],
    }
    out.update((metric, busy[metric]) for _, _, metric in WITHIN)
    layer_self = defaultdict(float)
    for key, seconds in own.items():
        if key != "hn.api":
            layer_self[key.split(".", 1)[0]] += seconds
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    return out
