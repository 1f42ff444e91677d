"""The benchmark's workloads: inputs, timed jobs and answer checks.

Four physics pipelines ("parts") are grouped into two workloads.  Every
part is a fixed, deterministic physics input.  ``build`` makes the inputs (the
set-up that ``setup_s`` times), ``job`` runs them through the package's
public functions and keeps the answers, and ``check`` compares the answers
with the exact oracle or with the references in ``references.json`` that
``make_refs.py`` records.  ``tiny`` builds the same job at a size that runs
in seconds, for the self-test; it has no references.

Package functions are looked up on their modules at call time (``SCF.scf_solve``
and so on), so that the tracer's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import Callable

import numpy as np

from cavitydft.cavity import CavityMode, photon_occupations
from cavitydft.errors import (AnalysisError, ConvergenceError, PropagationAborted,
                              StepSizeError)
from cavitydft.grid import Grid
from cavitydft.potentials import ElectronSystem, Ion
from cavitydft.propagate import LaserPulse, PropConfig
from cavitydft.scf import ScfConfig
from cavitydft.spectra import SpectrumConfig

SCF = importlib.import_module("cavitydft.scf")
PROP = importlib.import_module("cavitydft.propagate")
QEDFT = importlib.import_module("cavitydft.qedft")
SPECTRA = importlib.import_module("cavitydft.spectra")
ORACLE = importlib.import_module("cavitydft.oracle")

# typed failures a solver or analysis may end in; each one counts against
# fail_frac instead of stopping the benchmark
FAILURES = (ConvergenceError, StepSizeError, PropagationAborted, AnalysisError)

STAGES = ("scf", "prop", "qedft", "spectrum")

# criterion-8 bound on the norm drift of every propagation
NORM_DRIFT_BOUND = 1e-8

# criterion-3 bounds against the exact oracle
ORACLE_ENERGY_BOUND = 1e-5
ORACLE_OCCUPATION_BOUND = 1e-5

# recorded dipole series are thinned to at most this many samples
REFERENCE_SAMPLES = 400


@dataclass
class Job:
    """Timings, counts and answers of one run of a part, or of a whole job."""

    seconds: dict = field(default_factory=lambda: dict.fromkeys(STAGES, 0.0))
    steps: dict = field(default_factory=lambda: {"prop": 0, "qedft": 0})
    labels: list = field(default_factory=list)
    failures: dict = field(default_factory=dict)
    scf_iterations: int = 0
    scf_wasted_iterations: int = 0
    answers: dict = field(default_factory=dict)
    series: dict = field(default_factory=dict)
    wall_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.labels)

    def attempt(self, stage: str, label: str, fn, *args, needs=()):
        """Run and time one operation; a typed failure is recorded, not raised.

        ``needs`` lists results of earlier operations; when one of them is
        missing the operation counts as attempted and failed without running.
        """
        self.labels.append(label)
        if any(x is None for x in needs):
            self.failures[label] = "skipped: an operation it depends on failed"
            return None
        start = time.perf_counter()
        try:
            return fn(*args)
        except FAILURES as err:
            self.failures[label] = f"{type(err).__name__}: {err}"
            if isinstance(err, ConvergenceError) and stage == "scf":
                wasted = len(err.history or ())
                self.scf_iterations += wasted
                self.scf_wasted_iterations += wasted
            return None
        finally:
            self.seconds[stage] += time.perf_counter() - start

    def scf(self, label, system, cavity, cfg):
        state = self.attempt("scf", label, SCF.scf_solve, system, cavity, cfg)
        if state is not None:
            self.scf_iterations += state.iterations
            self.answers[f"E:{label}"] = state.energy.total
        return state

    def dynamics(self, stage, label, fn, state, *args):
        """Time ``fn(state, *args)``, a propagation whose last argument is its config."""
        out = self.attempt(stage, label, fn, state, *args, needs=(state,))
        if out is None:
            return None
        self.steps[stage] += args[-1].n_steps
        self.series[label] = out[0]
        return out[0]


@dataclass
class Part:
    """One physics pipeline: its inputs, its timed job and its extra checks."""

    name: str
    build: Callable
    job: Callable
    check: Callable
    # tolerances for the comparison with the recorded references: energies
    # (Ha), initial dipole (bohr), dipole response (relative to its largest
    # excursion), spectral peak locations (spectrum axis units)
    tolerances: dict


@dataclass
class Workload:
    """What one benchmark run repeats: its parts, one after the other."""

    name: str
    why: str
    parts: tuple


def _scf_config(tiny: bool, **kwargs) -> ScfConfig:
    """A part's SCF settings; tiny builds converge to looser tolerances."""
    cfg = ScfConfig(**kwargs)
    return replace(cfg, tol_energy=1e-8, tol_density=1e-5) if tiny else cfg


# ------------------------------------------------------------ dimer-kick


def build_dimer(tiny: bool) -> SimpleNamespace:
    grid = Grid((41,), 0.45) if tiny else Grid((161,), 0.45)
    system = ElectronSystem(grid=grid, ions=[Ion(1.0, (-2.9,), 3.6), Ion(1.0, (2.9,), 3.6)],
                            occupations=[2.0])
    return SimpleNamespace(
        system=system,
        cavity=CavityMode(omega=0.07, coupling=(0.03,), n_fock=1),
        scf=_scf_config(tiny, tol_energy=1e-12, tol_density=1e-10, max_iterations=4000),
        # 12000 steps (t = 600) is the shortest run whose tensor-product
        # spectrum resolves the polariton doublet at this coupling
        kick=PropConfig(dt=0.05, n_steps=60 if tiny else 12000, kick_strength=1e-3, stride=2),
        spectrum=SpectrumConfig(omega_min=0.01, omega_max=0.22, omega_step=1e-4),
        window=(0.04, 0.12), dominance=0.2)


def _rabi(series, inp):
    sigma = SPECTRA.cross_section([SPECTRA.polarizability(series, inp.spectrum)], inp.spectrum)
    return SPECTRA.rabi_splitting(sigma, window=inp.window, dominance=inp.dominance)


def dimer_job(inp, job: Job) -> None:
    state = job.scf("scf cavity", inp.system, inp.cavity, inp.scf)
    free = job.scf("scf cavity-free", inp.system, None, inp.scf)
    tp = job.dynamics("prop", "kick", PROP.propagate, state, inp.kick)
    classical = job.dynamics("qedft", "qedft kick", QEDFT.qedft_propagate, free, inp.cavity,
                             inp.kick)
    for label, series in (("rabi kick", tp), ("rabi qedft kick", classical)):
        split = job.attempt("spectrum", label, _rabi, series, inp, needs=(series,))
        if split is not None:
            job.answers[f"w:{label}"] = split


def dimer_check(job: Job, inp, cache) -> dict:
    problems = {}
    tp, classical = job.answers.get("w:rabi kick"), job.answers.get("w:rabi qedft kick")
    # criterion 10: the classical-photon scheme splits wider
    if tp is not None and classical is not None and not classical > tp:
        problems["rabi qedft kick"] = (f"classical-photon splitting {classical:.5f} is not "
                                      f"wider than the tensor-product one {tp:.5f}")
    return problems


# --------------------------------------------------------- coupling-scan


def build_scan(tiny: bool) -> SimpleNamespace:
    harmonic = ElectronSystem(grid=Grid((21,), 0.5) if tiny else Grid((55,), 0.3), ions=[],
                              occupations=[1.0], use_hartree=False, use_xc=False,
                              harmonic_omega=0.5)
    atom = ElectronSystem(grid=Grid((41,), 0.5) if tiny else Grid((151,), 0.4),
                          ions=[Ion(1.0, (0.0,), 1.0)], occupations=[1.0])
    polariton_cfg = _scf_config(tiny, tol_energy=1e-12, tol_density=1e-9, max_iterations=4000)
    tight = _scf_config(tiny, tol_energy=1e-13, tol_density=1e-11,
                        minimizer="conjugate-gradient", max_iterations=8000)
    solves = [(f"scf harmonic lam={lam}", harmonic,
               CavityMode(omega=0.5, coupling=(lam,), n_fock=2), polariton_cfg)
              for lam in (0.02, 0.05, 0.1, 0.2)]
    solves += [(f"scf atom n_fock={n}", atom,
                CavityMode(omega=0.08, coupling=(0.05,), n_fock=n), tight)
               for n in ((1, 2) if tiny else (1, 2, 4))]
    return SimpleNamespace(solves=solves)


def scan_job(inp, job: Job) -> None:
    for label, system, cavity, cfg in inp.solves:
        state = job.scf(label, system, cavity, cfg)
        if state is not None:
            job.answers[f"P:{label}"] = photon_occupations(state.orbitals).tolist()


def scan_check(job: Job, inp, cache) -> dict:
    """Criterion 3: every converged solve agrees with the exact oracle."""
    problems = {}
    for label, system, cavity, _ in inp.solves:
        if f"E:{label}" not in job.answers:
            continue
        key = f"oracle:{label}"
        if key not in cache:
            cache[key] = ORACLE.scf_ground_state(system, cavity)
        ref = cache[key]
        d_e = abs(job.answers[f"E:{label}"] - ref.energy)
        d_p = float(np.max(np.abs(np.asarray(job.answers[f"P:{label}"]) - ref.occupations)))
        if not (d_e < ORACLE_ENERGY_BOUND and d_p < ORACLE_OCCUPATION_BOUND):
            problems[label] = f"oracle |dE| = {d_e:.2e}, max|dP_n| = {d_p:.2e}"
    return problems


# ----------------------------------------------------------- molecule-3d


def build_molecule(tiny: bool) -> SimpleNamespace:
    grid = Grid((11, 11, 11), 0.5) if tiny else Grid((15, 15, 15), 0.5)
    system = ElectronSystem(grid=grid, ions=[Ion(1.0, (-0.7, 0.0, 0.0), 1.0),
                                             Ion(1.0, (0.7, 0.0, 0.0), 1.0)],
                            occupations=[2.0])
    return SimpleNamespace(
        system=system,
        cavity=CavityMode(omega=0.3, coupling=(0.05, 0.0, 0.0), n_fock=1),
        scf=_scf_config(tiny, tol_density=1e-4),
        # dt = 0.05 ends in StepSizeError on this grid
        kick=PropConfig(dt=0.01, n_steps=4 if tiny else 100, kick_strength=1e-3))


def molecule_job(inp, job: Job) -> None:
    state = job.scf("scf cavity", inp.system, inp.cavity, inp.scf)
    job.dynamics("prop", "kick", PROP.propagate, state, inp.kick)


def no_extra_check(job: Job, inp, cache) -> dict:
    return {}


# -------------------------------------------------------------- hhg-laser

W_LASER = 0.057


def build_hhg(tiny: bool) -> SimpleNamespace:
    grid = Grid((41,), 0.4) if tiny else Grid((151,), 0.4)
    system = ElectronSystem(grid=grid, ions=[Ion(1.2, (-0.86,), 1.0), Ion(0.8, (0.86,), 1.0)],
                            occupations=[2.0])
    pulse = LaserPulse(amplitude=0.005, carrier=W_LASER)
    # one full lobe of the sin^2 envelope, t = 6 T_L
    lobe_steps = int(round(6.0 * pulse.envelope_time / 0.05))
    return SimpleNamespace(
        system=system,
        cavity=CavityMode(omega=0.5 * W_LASER, coupling=(0.05,), n_fock=1),
        scf=_scf_config(tiny, tol_energy=1e-10, tol_density=1e-8,
                        minimizer="conjugate-gradient", max_iterations=8000),
        laser=PropConfig(dt=0.05, n_steps=100 if tiny else lobe_steps, laser=pulse, stride=2),
        spectrum=SpectrumConfig(omega_min=0.2 * W_LASER, omega_max=4.2 * W_LASER,
                                omega_step=W_LASER / 400.0))


def _hhg_peak(series, inp):
    spec = SPECTRA.hhg_spectrum(series, inp.spectrum)
    return spec.omega[int(np.argmax(spec.sigma))]


def hhg_job(inp, job: Job) -> None:
    state = job.scf("scf cavity", inp.system, inp.cavity, inp.scf)
    series = job.dynamics("prop", "laser", PROP.propagate, state, inp.laser)
    peak = job.attempt("spectrum", "hhg", _hhg_peak, series, inp, needs=(series,))
    if peak is not None:
        job.answers["w:hhg"] = peak


# ------------------------------------------------------------- the table

PARTS = {p.name: p for p in (
    Part("dimer-kick", build_dimer, dimer_job, dimer_check,
         {"E": 1e-8, "D0": 1e-8, "D": 1e-5, "w": 2e-4}),
    Part("hhg-laser", build_hhg, hhg_job, no_extra_check,
         {"E": 1e-7, "D0": 1e-6, "D": 1e-4, "w": 5e-3}),
    Part("coupling-scan", build_scan, scan_job, scan_check, {"E": 1e-8}),
    Part("molecule-3d", build_molecule, molecule_job, no_extra_check,
         {"E": 1e-5, "D0": 1e-4, "D": 1e-2}),
)}

# Two workloads, not four: on the shared two-core host a run must measure
# close to a minute of work for its times to repeat within 25%, and the run
# budget allows that for two workloads.  The split keeps one side free of
# each mechanism: dimer-kick makes no Poisson solve and applies no laser
# field; scan-3d-hhg spends about 70% of its time in ground-state solves.
WORKLOADS = {w.name: w for w in (
    Workload("dimer-kick",
             "propagation-bound 1D dimer: 2 SCFs, 12000-step tensor-product and classical-photon "
             "kicks, Rabi splittings; no Poisson solve, no laser field",
             (PARTS["dimer-kick"],)),
    Workload("scan-3d-hhg",
             "coupling-scan (7 ground states, 2 known SCF stalls, oracle-checked), molecule-3d "
             "(Poisson CG, 3D stencil), hhg-laser (time-dependent field)",
             (PARTS["coupling-scan"], PARTS["molecule-3d"], PARTS["hhg-laser"])),
)}


def run_once(workload: Workload, tiny: bool):
    """Build fresh inputs and run every part once.

    Returns ``(parts, total, setup_s)``: ``parts`` lists ``(part, inputs,
    job)``, ``total`` is a Job with the summed stage times and counts, the
    prefixed operation labels and the wall time of all parts together.
    """
    start = time.perf_counter()
    inputs = [part.build(tiny) for part in workload.parts]
    setup = time.perf_counter() - start
    runs = []
    start = time.perf_counter()
    for part, inp in zip(workload.parts, inputs):
        job = Job()
        part.job(inp, job)
        runs.append((part, inp, job))
    total = Job(wall_s=time.perf_counter() - start)
    for part, _, job in runs:
        for stage, sec in job.seconds.items():
            total.seconds[stage] += sec
        for kind, n in job.steps.items():
            total.steps[kind] += n
        total.labels += [f"{part.name}/{label}" for label in job.labels]
        total.failures.update({f"{part.name}/{k}": v for k, v in job.failures.items()})
        total.scf_iterations += job.scf_iterations
        total.scf_wasted_iterations += job.scf_wasted_iterations
    return runs, total, setup


# ---------------------------------------------------- answers and checks


def summarize(job: Job) -> dict:
    """The answers of a job in the JSON form kept in ``references.json``."""
    out = {k: v for k, v in job.answers.items() if k[0] in "Ew"}
    for label, series in job.series.items():
        d = series.dipole(0)
        out[f"D:{label}"] = d[::max(1, -(-len(d) // REFERENCE_SAMPLES))].tolist()
    return out


def compare(summary: dict, refs: dict, tol: dict) -> dict:
    """Answers that differ from the references by more than ``tol``.

    Keys are ``kind:label``; answers missing because their operation failed
    are already counted as failures and are not compared.
    """
    problems = {}
    for key, want in refs.items():
        kind, label = key.split(":", 1)
        if key not in summary:
            continue
        got = summary[key]
        if kind == "D":
            got, want = np.asarray(got), np.asarray(want)
            if got.shape != want.shape:
                problems[label] = f"dipole series has {got.shape} samples, expected {want.shape}"
                continue
            d0 = abs(got[0] - want[0])
            scale = float(np.max(np.abs(want - want[0]))) or 1.0
            resp = float(np.max(np.abs((got - got[0]) - (want - want[0])))) / scale
            if d0 > tol["D0"] or resp > tol["D"]:
                problems[label] = (f"dipole off the reference: |dD(0)| = {d0:.2e}, "
                                   f"response deviation {resp:.2e} of its range")
        elif abs(got - want) > tol[kind]:
            problems[label] = f"{key} = {got!r}, reference {want!r}"
    return problems


def oracle_cache(refs: dict | None) -> dict:
    """The oracle solutions ``make_refs.py`` recorded, keyed like ``scan_check``."""
    recorded = (refs or {}).get("oracle", {})
    return {key: SimpleNamespace(energy=v["energy"], occupations=np.asarray(v["occupations"]))
            for key, v in recorded.items()}


def check(runs, refs: dict | None, cache: dict) -> dict:
    """Every check problem of one run of the parts, keyed ``part/operation``.

    ``refs`` maps part names to their recorded answers; ``None`` skips the
    comparison (tiny builds).  ``cache`` holds oracle solutions; one that is
    missing is solved and added.
    """
    problems = {}
    for part, inp, job in runs:
        found = {}
        for label, series in job.series.items():
            drift = float(np.max(np.abs(series["norm"] - 1.0)))
            if not drift < NORM_DRIFT_BOUND:
                found[label] = f"norm drift {drift:.2e} exceeds {NORM_DRIFT_BOUND:.0e}"
        if refs is not None:
            found.update(compare(summarize(job), refs[part.name], part.tolerances))
        found.update(part.check(job, inp, cache))
        problems.update({f"{part.name}/{k}": v for k, v in found.items()})
    return problems
