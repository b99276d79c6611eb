"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest bench/test_bench.py

They check that a wrong answer is counted as failed, that tracing changes
no answer and repeats its counts exactly, that the tracer patches every
binding site and restores it, that the host-speed probe leaves its own time
out of a timed interval, and that the benchmark refuses to run without the
package.
"""

import json
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hostspeed
import run
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(run.SRC))


def failures(workload, seed=5, corrupt=None):
    mods, ops = run.SetupTimer(workload, seed).sample()
    if corrupt is not None:
        corrupt(mods)
    record = run.Record(workload)
    run.run_passes(workload, mods, ops, 0, record)
    return record.failures(workload.verify(mods, ops, record.reference)), len(ops)


class SmallBettiK3(workloads.BettiK3):
    dims = ((2, 3), (3, 4), (6, 7))


def shifted(fn, delta):
    def wrapper(*args, **kwargs):
        return fn(*args, **kwargs) + delta
    return wrapper


def test_betti_answers_pass_and_a_corrupted_one_fails():
    assert failures(SmallBettiK3())[0] == 0

    def corrupt(mods):
        # The mass method's polynomial gains a constant: closed != mass.
        mods.hn.betti_via_mass = shifted(mods.hn.betti_via_mass, 1)

    failed, _ = failures(SmallBettiK3(), corrupt=corrupt)
    assert failed >= 3


def test_catalog_corrupted_closed_mass_fails():
    def corrupt(mods):
        mods.hn.mass_ss_closed = shifted(mods.hn.mass_ss_closed, 1)

    failed, n_ops = failures(workloads.WORKLOADS["catalog-cli"], corrupt=corrupt)
    assert 0 < failed < n_ops


def test_oracle_answers_pass_and_a_corrupted_one_fails():
    workload = workloads.WORKLOADS["oracle-verify"]
    assert failures(workload)[0] == 0

    def corrupt(mods):
        real = mods.oracle.is_semistable
        mods.oracle.is_semistable = lambda *a, **k: not real(*a, **k)

    failed, n_ops = failures(workload, corrupt=corrupt)
    assert 0 < failed < n_ops


def bench_json(*args, cwd):
    out = subprocess.run([sys.executable, "bench/run.py", *args],
                         cwd=cwd, capture_output=True, text=True, timeout=170)
    return out.returncode, out.stdout


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_runs_keep_answers_and_repeat_counts(name):
    results = []
    for _ in range(2):
        code, stdout = bench_json("--workload", name, "--seed", "3", "--seconds", "0",
                                  "--trace", "1", cwd=BENCH.parent)
        assert code == 0
        results.append(json.loads(stdout.splitlines()[-1]))
    for result in results:
        # Traced outputs are compared with the untraced pass's.
        assert result["correct"] and result["failed"] == 0
    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
              for r in results]
    assert counts[0] == counts[1]
    assert counts[0]["oracle.is_semistable.calls" if name == "oracle-verify"
                     else "cli.main.calls"] > 0


def test_tracer_patches_every_binding_and_restores_it():
    mods = run.import_package()
    before = {id(v) for m in tracing.LAYERS for v in vars(getattr(mods, m)).values()}
    before |= {id(v) for v in vars(mods.quiver.Quiver).values()}
    tracer = tracing.Tracer()
    tracer.install(mods)
    try:
        assert mods.words.generic_ext is mods.generic.generic_ext
        assert mods.hn.cyclotomic is mods.laurent.cyclotomic
        LaurentPoly = mods.laurent.LaurentPoly
        assert LaurentPoly.__rmul__ is LaurentPoly.__mul__
        k3 = mods.quiver.Quiver.from_json(
            {"vertices": ["i", "j"], "arrows": [{"from": "i", "to": "j"}] * 3})
        d = mods.quiver.DimVector({"i": 1, "j": 2})
        assert len(list(k3.vectors_below(d))) == 5
        x = LaurentPoly({0: 1, 1: 1})
        assert 2 * x == x * 2
    finally:
        tracer.uninstall()
    after = {id(v) for m in tracing.LAYERS for v in vars(getattr(mods, m)).values()}
    after |= {id(v) for v in vars(mods.quiver.Quiver).values()}
    assert after == before
    calls, _, _ = tracer.summary()
    assert calls["quiver.from_json"] == 1
    assert calls["laurent.mul"] == 2
    assert tracer.counts["laurent.mul.term_products"] == 4
    assert tracer.counts["quiver.vectors_below.items"] == 5


def test_probe_scales_an_interval_without_its_probes():
    p = hostspeed.SpeedProbe()
    p.starts, p.costs, p.loops = [0.0, 1.0, 1.5], [0.1] * 3, [0.004, 0.002, 0.002]
    # Read after mark 1: the probes at 1.0 and 1.5 lie in [1.0, 2.0); the
    # speed is the harmonic mean loop time of those and of the one before
    # them.
    mean_loop = 3 / (1 / 0.004 + 1 / 0.002 + 1 / 0.002)
    assert p.timed(1, 1.0, 2.0) == pytest.approx(0.8 * hostspeed.REFERENCE_S / mean_loop)


def test_probe_fires_while_active_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.SpeedProbe() as p:
        mark = p.mark()
        start = time.perf_counter()
        while time.perf_counter() - start < 5 * hostspeed.INTERVAL_S:
            pass
        end = time.perf_counter()
        assert p.mark() > mark
        assert 0 < p.timed(mark, start, end)
    assert signal.getsignal(signal.SIGALRM) is before


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    code, stdout = bench_json("--workload", "oracle-verify", "--seed", "1",
                              "--seconds", "1", cwd=tmp_path)
    assert code != 0
    assert stdout == ""


def test_operation_lists_depend_only_on_the_seed():
    mods = run.import_package()
    for workload in workloads.WORKLOADS.values():
        a = workload.generate(mods, random.Random(7))
        b = workload.generate(mods, random.Random(7))
        c = workload.generate(mods, random.Random(8))
        assert [(o.kind, o.key) for o in a] == [(o.kind, o.key) for o in b]
        assert sorted(o.kind for o in a) == sorted(o.kind for o in c)
