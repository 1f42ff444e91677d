"""Fast self-test of the benchmark (about a minute).

    python3 -m pytest -q bench/test_bench.py

Runs every workload at its tiny size in both modes and checks that each
metric BENCHMARK.json names is reported with its unit, that a forced SCF
stall is counted as a failure with its time kept in scf_s, and that the
tracer's self times and the reference comparison behave.
"""

import json
import shutil
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (pins the BLAS threads first)
from tracer import Tracer  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
workloads = run._load_package()


def units(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_benchmark_names_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_reported_with_its_unit(name, trace):
    result, details = run.measure(name, seconds=0.0, trace=trace, tiny=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    assert details["environment"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    want = units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        for name_ in want:
            assert result["metrics"][name_]["value"] > 0
    json.dumps(result)


def test_forced_scf_stall_counts_as_failure(monkeypatch):
    part = workloads.PARTS["coupling-scan"]
    build = part.build

    def stalled(tiny):
        inp = build(tiny)
        inp.solves = [(label, system, cavity, replace(cfg, max_iterations=3))
                      for label, system, cavity, cfg in inp.solves]
        return inp

    n_solves = len(build(True).solves)
    monkeypatch.setattr(part, "build", stalled)
    result, details = run.measure("scan-3d-hhg", seconds=0.0, trace=False, tiny=True)
    stalls = [f for f in details["failures"] if f.startswith("coupling-scan/")]
    assert len(stalls) == n_solves
    assert all("ConvergenceError" in f for f in stalls)
    assert result["failed"] == len(details["failures"]) >= n_solves
    assert result["correct"] is True

    result, _ = run.measure("scan-3d-hhg", seconds=0.0, trace=True, tiny=True)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["fail_frac"] >= n_solves / (n_solves + 5)
    assert metrics["scf.wasted_iter_frac"] > 0
    assert metrics["scf_s"] > 0


def test_wrong_answer_fails_its_check():
    tol = {"E": 1e-8, "D0": 1e-8, "D": 1e-5, "w": 1e-4}
    refs = {"E:scf": -1.0, "D:kick": [0.0, 1e-3, -1e-3], "w:rabi": 0.02}
    good = {"E:scf": -1.0 + 1e-9, "D:kick": [0.0, 1e-3, -1e-3], "w:rabi": 0.02}
    assert workloads.compare(good, refs, tol) == {}
    bad = {"E:scf": -1.0 + 1e-6, "D:kick": [0.0, 1.1e-3, -1e-3], "w:rabi": 0.03}
    assert set(workloads.compare(bad, refs, tol)) == {"scf", "kick", "rabi"}


def test_self_time_excludes_children():
    import time

    mod = types.ModuleType("bench_fake_layer")
    sys.modules[mod.__name__] = mod

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        mod.inner()
        mod.inner()

    mod.inner, mod.outer = inner, outer
    try:
        with Tracer() as tracer:
            tracer.wrap(mod.__name__, "inner", "inner")
            tracer.wrap(mod.__name__, "outer", "outer")
            mod.outer()
        assert mod.outer is outer and mod.inner is inner
        stats = tracer.summary()
    finally:
        del sys.modules[mod.__name__]
    assert stats["inner"]["calls"] == 2 and stats["outer"]["calls"] == 1
    assert stats["outer"]["self_s"] == pytest.approx(
        stats["outer"]["total_s"] - stats["inner"]["total_s"], abs=1e-12)
    assert 0.01 <= stats["outer"]["self_s"] < 0.02


def test_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "dimer-kick",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
