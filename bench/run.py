"""Benchmark of the quivermoduli package, driven from outside the package.

Run from the repository root:

    python3 bench/run.py --workload catalog-cli --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and BENCHMARK.json): betti-k3, catalog-cli,
oracle-verify.  The package is imported from ``src/`` next to this
directory; nothing is installed.  One process, one closed-loop client: each
operation starts when the previous one has returned, on the main thread.

A run imports the package and builds the seeded operation list (set-up)
five times at the start, and again about once a second between operations,
outside their timers; setup_s is the median of these samples.  It repeats
the operation list in passes until ``--seconds`` have gone by, always
finishing the pass it is in.  Workloads with warm caches first make one
untimed pass.  Answers are checked after the timed passes, from the recorded
outputs of the first one; every later pass must reproduce those outputs
exactly.

``--trace 0`` reports the end-to-end metrics.  Every set-up sample and
operation is timed with the host-speed probe on (see hostspeed.py), so times
are in seconds at a fixed reference speed.  Each operation's time is the
median of its repetitions in the run; run_s is the sum of those times over
the operation list, and the latency percentiles are taken over them.
``--trace 1`` spends half of the time on untraced passes and half on traced
passes, and reports the per-layer metrics of the traced passes (see
tracing.py), with the tracing overhead.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from array import array
from collections import namedtuple
from pathlib import Path

import hostspeed
import tracing
import workloads
from workloads import Raised

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "quivermoduli"
MODULES = ("errors", "quiver", "laurent", "roots", "generic", "hn", "words",
           "series", "oracle", "cli")
SETUP_REPEATS = 5       # set-up samples at the start of a run
SETUP_INTERVAL = 1.0    # seconds between set-up samples during the passes
FEW_OPS = 20            # list each operation's time when there are this few

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "latency_p50_ms": "ms",
                    "latency_p99_ms": "ms", "peak_rss_mb": "MB"}


class Modules:
    """The package's modules, by short name."""

    def __init__(self):
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"{PACKAGE}.{name}"))


def import_package():
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    mods = Modules()
    if not Path(mods.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"{PACKAGE} was not imported from {SRC}")
    return mods


class SetupTimer:
    """Times set-up: importing the package and building the operation list.

    Samples are taken at the start and then about once a second between
    operations, so that their median does not hang on how fast the host
    was in the second the run began.  A sample between operations leaves
    the modules the workload runs on in place.  With a probe, samples are
    in seconds at its reference speed.
    """

    def __init__(self, workload, seed, probe=None):
        self.workload, self.seed, self.probe = workload, seed, probe
        self.times = []
        self.last = 0.0

    def sample(self):
        mark = self.probe.mark() if self.probe else 0
        started = time.perf_counter()
        mods = import_package()
        ops = self.workload.generate(mods, random.Random(self.seed))
        self.last = time.perf_counter()
        self.times.append(self.probe.timed(mark, started, self.last) if self.probe
                          else self.last - started)
        return mods, ops

    def between_ops(self):
        if time.perf_counter() - self.last < SETUP_INTERVAL:
            return
        loaded = {n: m for n, m in sys.modules.items()
                  if n == PACKAGE or n.startswith(PACKAGE + ".")}
        self.sample()
        sys.modules.update(loaded)


Pass = namedtuple("Pass", "wall latencies outputs")


def run_pass(workload, mods, ops, between=None, probe=None):
    """One pass over the operation list.  With a probe, latencies are in
    seconds at its reference speed."""
    latencies, outputs = array("d"), []
    clock = time.perf_counter
    started = clock()
    for op in ops:
        if between is not None:
            between()
        workload.prepare(mods, op)
        mark = probe.mark() if probe else 0
        t0 = clock()
        try:
            out = workload.execute(mods, op)
        except Exception as exc:  # an operation's failure is a result
            out = Raised(type(exc).__name__, str(exc))
        t1 = clock()
        latencies.append(probe.timed(mark, t0, t1) if probe else t1 - t0)
        outputs.append(out)
    return Pass(clock() - started, latencies, outputs)


class Record:
    """What the timed passes leave: the first pass's outputs, the operations
    each later pass answered differently, and every pass's wall time and
    latencies."""

    def __init__(self, workload):
        self.normalize = workload.normalize
        self.reference = None
        self.differing = []
        self.walls = []
        self.latencies = []

    def add(self, p):
        outputs = [self.normalize(o) for o in p.outputs]
        if self.reference is None:
            self.reference = outputs
        self.differing.append(
            {i for i, out in enumerate(outputs) if out != self.reference[i]})
        self.walls.append(p.wall)
        self.latencies.append(p.latencies)

    def op_times(self):
        """Each operation's median latency over the passes."""
        return [statistics.median(p[i] for p in self.latencies)
                for i in range(len(self.latencies[0]))]

    def failures(self, wrong):
        """Wrong answers over all executions, given the operations whose
        first answer failed its check."""
        return sum(len(wrong | differing) for differing in self.differing)


def run_passes(workload, mods, ops, seconds, record, after=None, between=None,
               probe=None):
    """Repeat the operation list until ``seconds`` have passed, at least
    once.  Recording, ``after()`` and ``between()`` (before each operation)
    happen outside the timers."""
    started = time.perf_counter()
    passes = 0
    while not passes or time.perf_counter() - started < seconds:
        gc.collect()
        record.add(run_pass(workload, mods, ops, between, probe))
        if after is not None:
            after()
        passes += 1


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(op_times, setup_s, rss_mb):
    """run_s is the time the whole operation list takes at each operation's
    median time; the percentiles are over those times."""
    lat = sorted(op_times)
    return {
        "setup_s": setup_s,
        "run_s": sum(op_times),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p99_ms": nearest_rank(lat, 0.99) * 1e3,
        "peak_rss_mb": rss_mb,
    }


def traced(workload, mods, ops, seconds, record):
    """Untraced passes, then traced passes; per-layer metrics of the traced
    ones and the tracing overhead."""
    run_passes(workload, mods, ops, seconds / 2, record)
    untraced = len(record.walls)
    tracer = tracing.Tracer(refusal=mods.errors.BudgetExceeded)
    per_pass = []

    def collect():
        per_pass.append(tracing.layer_metrics(tracer))
        tracer.reset()

    tracer.install(mods)
    try:
        run_passes(workload, mods, ops, seconds / 2, record, after=collect)
    finally:
        tracer.uninstall()
    # Counts repeat exactly from pass to pass; times are medians.
    metrics = {name: value if _layer_unit(name) == "count"
               else statistics.median(m[name] for m in per_pass)
               for name, value in per_pass[0].items()}
    metrics["trace.overhead_ratio"] = (
        statistics.median(record.walls[untraced:])
        / statistics.median(record.walls[:untraced]))
    return metrics


def metadata(workload, seed, n_ops, n_passes):
    return {"workload": workload.name, "seed": seed, "operations": n_ops,
            "passes": n_passes, "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset")}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Budgets are part of the workload; an inherited override would change
    # what the oracle enumerates and which calls it refuses.
    os.environ.pop("QI_BUDGET", None)

    workload = workloads.WORKLOADS[args.workload]
    record = Record(workload)
    if args.trace:
        mods, ops = SetupTimer(workload, args.seed).sample()
        if workload.warmup:
            run_pass(workload, mods, ops)
        metrics = traced(workload, mods, ops, args.seconds, record)
        units = {name: _layer_unit(name) for name in metrics}
    else:
        with hostspeed.SpeedProbe() as probe:
            setup = SetupTimer(workload, args.seed, probe)
            for _ in range(SETUP_REPEATS):
                mods, ops = setup.sample()
            if workload.warmup:
                run_pass(workload, mods, ops)
            run_passes(workload, mods, ops, args.seconds, record,
                       between=setup.between_ops, probe=probe)
        rss_mb = peak_rss_mb()
        op_times = record.op_times()
        metrics = end_to_end(op_times, statistics.median(setup.times), rss_mb)
        units = END_TO_END_UNITS
    passes = len(record.walls)
    attempted = len(ops) * passes
    failed = record.failures(workload.verify(mods, ops, record.reference))

    info = metadata(workload, args.seed, len(ops), passes)
    print(" ".join(f"{k}={v}" for k, v in info.items()))
    for name, value in metrics.items():
        print(f"  {name:40s} {value:>16.6f} {units[name]}")
    if not args.trace:
        samples = len(ops)
        print(f"  {'latency samples (operations)':40s} {samples:>16d}")
        slowness = statistics.median(probe.loops) / hostspeed.REFERENCE_S
        print(f"  {'host slowness (probe / reference)':40s} {slowness:>16.3f}")
        if samples <= FEW_OPS:
            for op, t in sorted(zip(ops, op_times), key=lambda x: x[0].key):
                print(f"  {op.kind} {op.key}: {t:.4f} s")
        if samples - math.ceil(0.99 * samples) < 10:
            print("  latency_p99_ms is not applicable: fewer than ten samples lie "
                  "beyond it, so the value above is the slowest operation")
    print(f"  {'failed_ratio':40s} {failed / attempted:>16.6f} "
          f"({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def _layer_unit(name):
    if name.endswith((".time_s", ".self_s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
