#!/usr/bin/env python3
"""Benchmark of cavitydft: four physics parts in two workloads, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload dimer-kick --seed 1 --seconds 60 --trace 0

The workload's job (ground states, propagations, spectra) is repeated while
the next job should end within ``--seconds``, at least once, on freshly built
inputs each time.  The answers of every job are checked outside the timed region.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it describes the
environment.  ``--trace 0`` reports the end-to-end metrics of untraced jobs.
``--trace 1`` runs one untraced and one traced job and reports the per-layer
metrics; the spans of the traced job go to ``bench/out/``.

All inputs are fixed physics inputs: ``--seed`` is recorded, not used.
BLAS and OpenMP are pinned to one thread before numpy is first imported.
See ``bench/README.md`` for the workloads and every metric.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCES = BENCH_DIR / "references.json"
OUT_DIR = BENCH_DIR / "out"

# set-up is timed this many times before and again after the jobs
SETUP_REPEATS = 15


def _load_package():
    """Import the package from ``src/`` next to this directory."""
    if not (ROOT / "src" / "cavitydft" / "__init__.py").is_file():
        raise SystemExit(f"error: no cavitydft package under {ROOT / 'src'}; "
                         "run the benchmark from a checkout of the repository")
    for path in (str(ROOT / "src"), str(BENCH_DIR)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads
    return workloads


def environment(seed: int) -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "seed": seed,
        "threads": {v: os.environ[v] for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def trace_layers(tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are taken from."""
    sites = [
        ("cavitydft.scf", "scf_solve", "scf.scf_solve"),
        ("cavitydft.scf", "apply_hamiltonian", "cavity.apply_hamiltonian"),
        ("cavitydft.scf", "gram_schmidt_sectorwise", "scf.gram_schmidt"),
        ("cavitydft.scf", "total_energy", "scf.total_energy"),
        ("cavitydft.scf", "assemble_ks", "scf.assemble_ks"),
        ("cavitydft.scf", "laplacian", "grid.laplacian"),
        ("cavitydft.cavity", "laplacian", "grid.laplacian"),
        ("cavitydft.potentials", "laplacian", "potentials.laplacian"),
        ("cavitydft.potentials", "hartree_potential", "potentials.hartree"),
        ("cavitydft.potentials", "hartree_potential_3d", "potentials.poisson"),
        ("cavitydft.potentials", "lda_xc", "potentials.lda_xc"),
        ("cavitydft.propagate", "propagate", "propagate.propagate"),
        ("cavitydft.propagate", "taylor_step", "propagate.taylor_step"),
        ("cavitydft.propagate", "total_energy", "propagate.total_energy"),
        ("cavitydft.propagate", "assemble_ks", "propagate.meanfield"),
        ("cavitydft.qedft", "qedft_propagate", "qedft.qedft_propagate"),
        ("cavitydft.qedft", "taylor_step", "qedft.taylor_step"),
        ("cavitydft.qedft", "total_energy", "qedft.total_energy"),
        ("cavitydft.qedft", "assemble_ks", "qedft.meanfield"),
    ]
    for module, attr, name in sites:
        tracer.wrap(module, attr, name)
    tracer.wrap("cavitydft.spectra", "damped_transform", "spectra.damped_transform",
                count=lambda t, f, omega, *a, **k: len(omega) * len(t))


def layer_metrics(stats: dict, job, untraced) -> dict:
    """Per-layer metrics from the traced job's spans and its counters."""
    import numpy as np

    def get(name):
        return stats.get(name, {"calls": 0, "count": 0, "total_s": 0.0, "self_s": 0.0,
                                "durations": np.zeros(0)})

    def calls(*names):
        return sum(get(n)["calls"] for n in names)

    def mean_us(*names):
        n = calls(*names)
        return 1e6 * sum(get(n)["total_s"] for n in names) / n if n else 0.0

    def per(value, n):
        return value / n if n else 0.0

    taylor = get("propagate.taylor_step")["durations"] * 1e6
    return {
        "cavity.apply_hamiltonian.calls": (calls("cavity.apply_hamiltonian"), "count"),
        "cavity.apply_hamiltonian.us": (mean_us("cavity.apply_hamiltonian"), "us"),
        "grid.laplacian.calls": (calls("grid.laplacian", "potentials.laplacian"), "count"),
        "potentials.assemble_ks.calls": (calls("scf.assemble_ks", "propagate.meanfield",
                                               "qedft.meanfield"), "count"),
        "potentials.assemble_ks.us": (mean_us("scf.assemble_ks", "propagate.meanfield",
                                              "qedft.meanfield"), "us"),
        "potentials.hartree.calls": (calls("potentials.hartree"), "count"),
        "potentials.hartree.us": (mean_us("potentials.hartree"), "us"),
        "potentials.lda_xc.calls": (calls("potentials.lda_xc"), "count"),
        "potentials.lda_xc.us": (mean_us("potentials.lda_xc"), "us"),
        "potentials.poisson_solves": (calls("potentials.poisson"), "count"),
        "potentials.poisson_matvecs_per_solve": (
            per(calls("potentials.laplacian"), calls("potentials.poisson")), "count"),
        "scf.solves": (calls("scf.scf_solve"), "count"),
        "scf.iterations": (job.scf_iterations, "count"),
        "scf.wasted_iter_frac": (per(job.scf_wasted_iterations, job.scf_iterations), "ratio"),
        "scf.self_s": (get("scf.scf_solve")["self_s"], "s"),
        "scf.gram_schmidt.calls": (calls("scf.gram_schmidt"), "count"),
        "scf.gram_schmidt.us": (mean_us("scf.gram_schmidt"), "us"),
        "scf.total_energy.calls": (calls("scf.total_energy"), "count"),
        "scf.total_energy.us": (mean_us("scf.total_energy"), "us"),
        "propagate.steps": (job.steps["prop"], "count"),
        "propagate.taylor_step.calls": (len(taylor), "count"),
        "propagate.taylor_step.us_p50": (float(np.median(taylor)) if len(taylor) else 0.0,
                                         "us"),
        "propagate.taylor_step.us_p99": (float(np.percentile(taylor, 99))
                                         if len(taylor) else 0.0, "us"),
        "propagate.total_energy.calls": (calls("propagate.total_energy"), "count"),
        "propagate.total_energy.us": (mean_us("propagate.total_energy"), "us"),
        "propagate.meanfield.calls": (calls("propagate.meanfield"), "count"),
        "propagate.meanfield.us": (mean_us("propagate.meanfield"), "us"),
        "propagate.self_us_per_step": (
            1e6 * per(get("propagate.propagate")["self_s"], job.steps["prop"]), "us"),
        "qedft.steps": (job.steps["qedft"], "count"),
        "qedft.taylor_step.calls": (calls("qedft.taylor_step"), "count"),
        "qedft.taylor_step.us": (mean_us("qedft.taylor_step"), "us"),
        "qedft.total_energy.calls": (calls("qedft.total_energy"), "count"),
        "qedft.total_energy.us": (mean_us("qedft.total_energy"), "us"),
        "qedft.self_us_per_step": (
            1e6 * per(get("qedft.qedft_propagate")["self_s"], job.steps["qedft"]), "us"),
        "spectra.damped_transform.calls": (calls("spectra.damped_transform"), "count"),
        "spectra.damped_transform.s": (get("spectra.damped_transform")["total_s"], "s"),
        "spectra.transform_terms": (get("spectra.damped_transform")["count"], "count"),
        "trace.spans": (sum(s["calls"] for s in stats.values()), "count"),
        "trace.overhead_frac": (job.wall_s / untraced.wall_s - 1.0, "ratio"),
        # stage figures of the untraced job in the same run
        "prop_ms_per_step": (1e3 * per(untraced.seconds["prop"], untraced.steps["prop"]), "ms"),
        "qedft_ms_per_step": (1e3 * per(untraced.seconds["qedft"], untraced.steps["qedft"]),
                              "ms"),
        "spectrum_s": (untraced.seconds["spectrum"], "s"),
        "scf_s": (untraced.seconds["scf"], "s"),
    }


def measure(name: str, seconds: float, trace: bool, seed: int = 0, tiny: bool = False):
    """Run one workload; returns (result line, extra details) as dicts.

    ``tiny`` runs the self-test size, which has no recorded references.
    """
    workloads = _load_package()
    wl = workloads.WORKLOADS[name]
    refs = None
    if not tiny:
        with open(REFERENCES) as fh:
            refs = json.load(fh)

    # set-up is timed before and after the jobs, so that its samples do not
    # all fall into one phase of the host's changing speed
    def time_setup():
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            for part in wl.parts:
                part.build(tiny)
            setups.append(time.perf_counter() - start)

    setups, runs = [], []
    time_setup()
    if trace:
        from tracer import Tracer
        runs.append(workloads.run_once(wl, tiny))
        with Tracer() as tracer:
            trace_layers(tracer)
            runs.append(workloads.run_once(wl, tiny))
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{name}-seed{seed}.npz")
    else:
        started = time.perf_counter()
        while True:
            runs.append(workloads.run_once(wl, tiny))
            setups.append(runs[-1][2])
            elapsed = time.perf_counter() - started
            if elapsed + runs[-1][1].wall_s > seconds:
                break
    time_setup()

    # checks, outside every timed region
    cache, failed, problems = workloads.oracle_cache(refs), 0, {}
    for parts, total, _ in runs:
        bad = workloads.check(parts, refs, cache)
        problems.update(bad)
        failed += len(set(total.failures) | set(bad))
    attempted = sum(total.attempted for _, total, _ in runs)

    jobs = [total for _, total, _ in runs]
    if trace:
        stats = tracer.summary()
        metrics = layer_metrics(stats, jobs[1], jobs[0])
        metrics["fail_frac"] = (failed / attempted, "ratio")
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(j.wall_s for j in jobs), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details = {
        "workload": name, "jobs": len(jobs), "trace": trace,
        "environment": environment(seed),
        "failures": sorted({f"{k}: {v}" for j in jobs for k, v in j.failures.items()}),
        "check_problems": {k: v for k, v in problems.items()},
        "stages": [{"wall_s": j.wall_s, **{f"{k}_s": v for k, v in j.seconds.items()},
                    **{f"{k}_steps": v for k, v in j.steps.items()},
                    "scf_iterations": j.scf_iterations} for j in jobs],
    }
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = _load_package()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose one of "
                     + ", ".join(workloads.WORKLOADS))
    result, details = measure(args.workload, args.seconds, bool(args.trace), seed=args.seed)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
