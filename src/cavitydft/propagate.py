"""Real-time propagation of tensor-product orbitals.

The propagator is the truncated Taylor expansion of exp(-i H dt); the
mean-field potentials are frozen across a step and rebuilt from the new
density afterwards.  The field-free part of H (kinetic term, photon
energies, ladder coupling) is built once per run as one sparse matrix of
about 12 bytes per nonzero, ~1.8 MB at 15^3 and ~40 MB at 41^3 with two
sectors; only the diagonal potential V_KS + mu (lam.r) + E(t).r changes
from step to step.  The Kohn-Sham potential built from each step's density
serves both the next step and the energy of that sample.  A constant
per-orbital energy shift (a pure phase) conditions the expansion so that
norm conservation is limited by the energy spread rather than the absolute
energy scale.  Orbitals are never re-orthogonalized during propagation; the
overlap matrix is monitored instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import grid as gridmod
from .cavity import (OrbitalSet, SparseHamiltonian, coupling_field, electron_density,
                     field_free_hamiltonian, mean_dipole_mu, photon_occupations,
                     q_expectation, sector_density)
from .errors import ConfigurationError, PropagationAborted, StepSizeError
from .grid import dipole_vector
from .potentials import assemble_ks
from .scf import HamiltonianContext, ScfState, orbital_eigenvalues, total_energy
from .timeseries import TimeSeries, axis_name

PROPAGATOR_ORDERS = (2, 3, 4, 5)


@dataclass
class LaserPulse:
    """Continuous pulse E(t) = amplitude * sin(pi t / (6 T))^2 * sin(w_L t).

    ``envelope_time`` defaults to 2/w_L; setting ``two_pi_envelope`` uses
    2 pi / w_L instead (both conventions appear in the literature).  The
    field is polarized along ``axis`` and enters the Hamiltonian in length
    gauge as +E(t) r.
    """

    amplitude: float
    carrier: float
    envelope_time: float | None = None
    axis: int = 0
    two_pi_envelope: bool = False

    def __post_init__(self):
        if not self.carrier > 0:
            raise ConfigurationError("laser carrier frequency must be positive")
        if self.envelope_time is None:
            self.envelope_time = ((2.0 * np.pi / self.carrier)
                                  if self.two_pi_envelope else 2.0 / self.carrier)

    def field(self, t: float) -> float:
        return (self.amplitude
                * np.sin(np.pi * t / (6.0 * self.envelope_time)) ** 2
                * np.sin(self.carrier * t))

    def vector(self, t: float, dim: int) -> np.ndarray:
        out = np.zeros(dim)
        out[self.axis] = self.field(t)
        return out


@dataclass
class PropConfig:
    """Propagation controls: step size, duration, excitation protocol."""

    dt: float
    n_steps: int
    order: int = 4
    stride: int = 1
    kick_strength: float = 0.0
    kick_axis: int = 0
    laser: LaserPulse | None = None
    norm_tol_step: float = 1e-10
    use_energy_shift: bool = True
    fd_order: int = gridmod.DEFAULT_ORDER
    record_sector_dipoles: bool = True

    def __post_init__(self):
        if not self.dt > 0:
            raise ConfigurationError("time step must be positive")
        if self.n_steps < 1:
            raise ConfigurationError("n_steps must be >= 1")
        if self.order not in PROPAGATOR_ORDERS:
            raise ConfigurationError(
                f"propagator order must be one of {PROPAGATOR_ORDERS}")
        if self.stride < 1:
            raise ConfigurationError("sampling stride must be >= 1")


def taylor_step(psi: np.ndarray, ctx: HamiltonianContext | SparseHamiltonian, dt: float,
                order: int = 4, shifts: np.ndarray | None = None) -> np.ndarray:
    """One Taylor step sum_j (-i dt)^j / j! H^j acting on an orbital stack.

    ``ctx`` is any Hamiltonian with an ``apply`` method.  ``shifts`` holds
    one real energy per leading orbital; when given, the expansion uses
    H - shift and the exact phase exp(-i shift dt) is restored afterwards.
    """
    psi = np.asarray(psi, dtype=complex)
    if shifts is not None:
        shifts = np.asarray(shifts, dtype=float).reshape((-1,) + (1,) * (psi.ndim - 1))
    term = psi
    out = psi.copy()
    for j in range(1, order + 1):
        # apply returns a new array, so the next term is formed in place
        h_term = ctx.apply(term)
        if shifts is not None:
            h_term -= shifts * term
        h_term *= -1j * dt / j
        out += h_term
        term = h_term
    if shifts is not None:
        out *= np.exp(-1j * shifts * dt)
    return out


def delta_kick(orbitals: OrbitalSet, strength: float, axis: int = 0) -> OrbitalSet:
    """Multiply every sector component by exp(i k r_axis) (a pure phase)."""
    if strength == 0.0:
        return orbitals.copy()
    phase = np.exp(1j * strength * orbitals.grid.coordinate(axis))
    return OrbitalSet(orbitals.psi * phase, orbitals.occupations, orbitals.grid)


def with_laser(v_local: np.ndarray, laser: LaserPulse | None, t: float, grid) -> np.ndarray:
    """``v_local`` plus the length-gauge laser potential E(t).r, if there is a laser."""
    if laser is None:
        return v_local
    return v_local + laser.field(t) * grid.coordinate(laser.axis)


def excitation_meta(cfg: PropConfig) -> dict:
    """Series metadata describing the kick and the laser of a run."""
    meta = {}
    if cfg.kick_strength:
        meta["kick_strength"] = cfg.kick_strength
        meta["kick_axis"] = axis_name(cfg.kick_axis)
    if cfg.laser is not None:
        meta["laser_amplitude"] = cfg.laser.amplitude
        meta["laser_carrier"] = cfg.laser.carrier
        meta["laser_envelope_time"] = cfg.laser.envelope_time
        meta["laser_axis"] = axis_name(cfg.laser.axis)
    return meta


def propagate(state: ScfState, cfg: PropConfig) -> tuple[TimeSeries, OrbitalSet]:
    """Propagate a converged ground state and record observables.

    Applies the configured delta kick at t = 0, then advances ``n_steps``
    Taylor steps, rebuilding the mean-field potential from the density
    after every step; the field-free operator is built once.  Norm drift
    beyond ``norm_tol_step`` per step raises :class:`StepSizeError`;
    non-finite values abort with the last good state attached.
    """
    system, cavity = state.system, state.cavity
    grid = system.grid
    v_ion = state.potential.v_ion
    orbitals = delta_kick(state.orbitals, cfg.kick_strength, cfg.kick_axis) \
        if cfg.kick_strength else state.orbitals.copy()

    columns = {"t": []}
    for a in range(grid.dim):
        columns[f"D{axis_name(a)}"] = []
    if cavity is not None:
        columns["q"] = []
        for n in range(orbitals.n_sectors):
            columns[f"P{n}"] = []
    columns["E"] = []
    columns["norm"] = []
    if cfg.record_sector_dipoles and cavity is not None:
        for n in range(orbitals.n_sectors):
            for a in range(grid.dim):
                columns[f"D{axis_name(a)}_s{n}"] = []

    def record(t, orbitals, density, pot, norms):
        dip = dipole_vector(density.values, grid)
        columns["t"].append(t)
        for a in range(grid.dim):
            columns[f"D{axis_name(a)}"].append(dip[a])
        if cavity is not None:
            columns["q"].append(q_expectation(orbitals, cavity))
            for n, p in enumerate(photon_occupations(orbitals)):
                columns[f"P{n}"].append(p)
        energy = total_energy(system, orbitals, cavity, potential=pot, fd_order=cfg.fd_order)
        columns["E"].append(energy.total)
        columns["norm"].append(float(norms @ orbitals.occupations) / orbitals.n_electrons)
        if cfg.record_sector_dipoles and cavity is not None:
            for n in range(orbitals.n_sectors):
                p_n = sector_density(orbitals, n)
                for a in range(grid.dim):
                    columns[f"D{axis_name(a)}_s{n}"].append(
                        float(np.sum(grid.coordinate(a) * p_n)) * grid.volume_element)

    static = field_free_hamiltonian(grid, cavity, cfg.fd_order)
    lam_r = coupling_field(cavity, grid) if cavity is not None else 0.0

    def mean_field(density):
        """The step's Kohn-Sham potential and V_KS + mu (lam.r)."""
        pot = assemble_ks(density, system, v_ion=v_ion)
        return pot, pot.total + mean_dipole_mu(density, cavity) * lam_r

    density = electron_density(orbitals)
    pot, v_mf = mean_field(density)
    shifts = None
    if cfg.use_energy_shift:
        shifts = orbital_eigenvalues(orbitals, SparseHamiltonian(static, v_mf))

    norms_ref = orbitals.norms()
    max_drift = 0.0
    t = 0.0
    record(t, orbitals, density, pot, norms_ref)

    for step in range(1, cfg.n_steps + 1):
        ham = SparseHamiltonian(static, with_laser(v_mf, cfg.laser, t + 0.5 * cfg.dt, grid))
        psi_new = taylor_step(orbitals.psi, ham, cfg.dt, cfg.order, shifts)

        if not np.all(np.isfinite(psi_new.view(float))):
            series = _finish_series(columns, cfg, state)
            raise PropagationAborted(
                f"non-finite orbital values at step {step} (t = {t + cfg.dt:.6g})",
                series=series, orbitals=orbitals, time=t)

        orbitals = OrbitalSet(psi_new, orbitals.occupations, grid)
        t = step * cfg.dt

        norms = orbitals.norms()
        drift = float(np.max(np.abs(norms - norms_ref)))
        max_drift = max(max_drift, abs(drift))
        if drift > cfg.norm_tol_step * step:
            raise StepSizeError(
                f"norm drift {drift:.3e} after {step} steps exceeds "
                f"{cfg.norm_tol_step:.1e} per step; reduce dt below {cfg.dt}")

        density = electron_density(orbitals)
        pot, v_mf = mean_field(density)
        if step % cfg.stride == 0:
            record(t, orbitals, density, pot, norms)

    series = _finish_series(columns, cfg, state, max_drift=max_drift)
    return series, orbitals


def _finish_series(columns, cfg: PropConfig, state: ScfState,
                   max_drift: float = 0.0) -> TimeSeries:
    cavity = state.cavity
    meta = {
        "method": "tensor-product",
        "dt": cfg.dt,
        "n_steps": cfg.n_steps,
        "propagator_order": cfg.order,
        "stride": cfg.stride,
        "max_norm_drift": f"{max_drift:.3e}",
        "n_electrons": state.system.n_electrons,
        **excitation_meta(cfg),
    }
    if cavity is not None:
        meta["cavity_omega"] = cavity.omega
        meta["cavity_lambda"] = " ".join(f"{c:g}" for c in cavity.lam)
        meta["n_fock"] = cavity.n_fock
    return TimeSeries(columns={k: np.asarray(v) for k, v in columns.items()},
                      meta=meta)


def overlap_deviation(orbitals: OrbitalSet) -> float:
    """Max deviation of the full overlap matrix from the identity."""
    s = orbitals.overlap_matrix()
    return float(np.max(np.abs(s - np.eye(orbitals.n_orbitals))))
