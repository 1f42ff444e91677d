"""The benchmark's contract with the package.

The names the benchmark's tracer wraps must stay module-level callables,
and every workload must still build and run against the package's API.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from cavitydft import scf
from cavitydft.cavity import CavityMode
from cavitydft.grid import Grid
from cavitydft.potentials import ElectronSystem, Ion

RUN_PY = Path(__file__).resolve().parents[1] / "bench" / "run.py"
WORKLOADS_PY = RUN_PY.with_name("workloads.py")
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class _Recorder:
    def __init__(self):
        self.sites = []

    def wrap(self, module, attr, name, count=None):
        self.sites.append((module, attr))


@pytest.fixture
def traced_sites(monkeypatch):
    # run.py pins these on import; setting them here lets monkeypatch restore them
    for var in BLAS_THREADS:
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("bench_run", RUN_PY)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    recorder = _Recorder()
    run.trace_layers(recorder)
    return recorder.sites


def test_every_traced_name_resolves_to_a_callable(traced_sites):
    assert traced_sites
    for module, attr in traced_sites:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


@pytest.mark.parametrize("minimizer", scf.MINIMIZERS + (None,))
def test_scf_calls_its_traced_names_through_module_globals(traced_sites, monkeypatch,
                                                           minimizer):
    calls = {}
    for module, attr in traced_sites:
        if module == "cavitydft.scf" and attr != "scf_solve":
            original = getattr(scf, attr)

            def counted(*args, _attr=attr, _original=original, **kwargs):
                calls[_attr] = calls.get(_attr, 0) + 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(scf, attr, counted)
    system = ElectronSystem(grid=Grid((41,), 0.4), ions=[Ion(1.0, (0.0,), 1.0)],
                            occupations=[1.0])
    cav = CavityMode(omega=0.2, coupling=(0.05,), n_fock=1)
    scf.scf_solve(system, cav, scf.ScfConfig(max_iterations=3000, minimizer=minimizer))
    # laplacian stays bound for the tracer, but the SCF reads every energy off an H product
    wrapped = {attr for module, attr in traced_sites
               if module == "cavitydft.scf" and attr not in ("scf_solve", "laplacian")}
    assert set(calls) == wrapped
    assert "laplacian" not in calls


MARKER = "# kept bound here because bench/run.py:trace_layers wraps"


def test_benchmark_only_bindings_name_traced_sites(traced_sites):
    # an import under the marker binds its names for the tracer alone: each must
    # be a traced site of its module and have no other use there
    bound = set()
    for path in sorted(Path(scf.__file__).parent.glob("*.py")):
        text = path.read_text()
        lines, tree = text.splitlines(), ast.parse(text)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and lines[node.lineno - 2].startswith(MARKER):
                for alias in node.names:
                    bound.add((f"cavitydft.{path.stem}", alias.name))
                    assert alias.name not in used, (path.name, alias.name)
    assert bound and bound <= set(traced_sites), bound - set(traced_sites)


def test_every_workload_runs_clean_at_tiny_size(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    for name, workload in workloads.WORKLOADS.items():
        runs, _, _ = workloads.run_once(workload, True)
        assert workloads.check(runs, None, {}) == {}, name
