"""Comparison solver: classical photon displacement coupled to KS orbitals.

Instead of Fock-sector orbitals, this scheme propagates plain spatial
orbitals under the photon exchange potential

    V_P(r, t) = (mu(t) - w q(t)) (lam . r),   mu(t) = integral lam.r rho dr,

together with the driven-oscillator equation

    (d^2/dt^2 + w^2) q(t) = w mu(t)

integrated by velocity Verlet in lockstep with the orbital Taylor steps.
Note: the literature also writes a variant of this equation carrying an
extra current term -j/w on the right-hand side; the equation actually
used for propagation (and implemented here) has no such term, and the
two forms are not consistent with each other.
The conserved bookkeeping energy is

    E = E_matter[rho] + mu^2/2 - w q mu + qdot^2/2 + w^2 q^2 / 2,

which starts at the bare matter energy when q sits at its fixed point
q0 = mu0 / w.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cavity import (CavityMode, OrbitalSet, SparseHamiltonian, coupling_field,
                     electron_density, field_free_hamiltonian, mean_dipole_mu)
from .errors import PropagationAborted, StepSizeError
from .grid import dipole_vector
from .potentials import assemble_ks
from .propagate import PropConfig, delta_kick, excitation_meta, taylor_step, with_laser
from .scf import ScfState, orbital_eigenvalues, total_energy
from .timeseries import TimeSeries, axis_name


@dataclass
class PhotonOscillator:
    """Classical displacement coordinate of one cavity mode."""

    q: float
    qdot: float
    omega: float

    def energy(self) -> float:
        return 0.5 * self.qdot**2 + 0.5 * self.omega**2 * self.q**2


def photon_exchange_potential(mu: float, q: float, cavity: CavityMode,
                              grid) -> np.ndarray:
    """V_P = (mu - w q) (lam . r); vanishes at the static fixed point."""
    return (mu - cavity.omega * q) * coupling_field(cavity, grid)


def verlet_oscillator(q0: float, qdot0: float, omega: float, drive,
                      dt: float, n_steps: int) -> tuple:
    """Velocity-Verlet trajectory of (d^2/dt^2 + w^2) q = drive(t).

    ``drive`` maps a time to the forcing value.  Returns (t, q, qdot)
    arrays including the initial sample.
    """
    t = np.arange(n_steps + 1) * dt
    q = np.empty(n_steps + 1)
    qd = np.empty(n_steps + 1)
    q[0], qd[0] = q0, qdot0
    acc = drive(0.0) - omega**2 * q0
    for i in range(n_steps):
        q[i + 1] = q[i] + dt * qd[i] + 0.5 * dt**2 * acc
        acc_new = drive(t[i + 1]) - omega**2 * q[i + 1]
        qd[i + 1] = qd[i] + 0.5 * dt * (acc + acc_new)
        acc = acc_new
    return t, q, qd


def driven_oscillator_closed_form(q0: float, qdot0: float, omega: float,
                                  drive_const: float, t: np.ndarray) -> np.ndarray:
    """Exact solution for a constant drive: used as the integrator oracle."""
    qp = drive_const / omega**2
    return qp + (q0 - qp) * np.cos(omega * t) + (qdot0 / omega) * np.sin(omega * t)


def initial_displacement(state: ScfState, cavity: CavityMode) -> float:
    """Static fixed point q0 = (lam . <D>) / w of the photon coordinate."""
    mu0 = mean_dipole_mu(state.density, cavity)
    return mu0 / cavity.omega


def qedft_propagate(state: ScfState, cavity: CavityMode,
                    cfg: PropConfig) -> tuple[TimeSeries, OrbitalSet, PhotonOscillator]:
    """Propagate coupled orbital / classical-photon dynamics.

    ``state`` must be a plain Kohn-Sham ground state (solved without the
    cavity); the photon starts at its static fixed point with zero
    velocity so that the delta kick is the only perturbation.  As in
    :func:`~cavitydft.propagate.propagate`, the kinetic operator is built
    once and each step's Kohn-Sham potential also gives that sample's
    energy; non-finite values abort with the partial series attached.
    """
    system = state.system
    grid = system.grid
    v_ion = state.potential.v_ion

    orbitals = delta_kick(state.orbitals, cfg.kick_strength, cfg.kick_axis) \
        if cfg.kick_strength else state.orbitals.copy()
    density = electron_density(orbitals)
    mu = mean_dipole_mu(density, cavity)
    osc = PhotonOscillator(q=initial_displacement(state, cavity),
                           qdot=0.0, omega=cavity.omega)
    static = field_free_hamiltonian(grid, None, cfg.fd_order)
    pot = assemble_ks(density, system, v_ion=v_ion)

    shifts = None
    if cfg.use_energy_shift:
        shifts = orbital_eigenvalues(orbitals, SparseHamiltonian(static, pot.total))

    columns = {"t": []}
    for a in range(grid.dim):
        columns[f"D{axis_name(a)}"] = []
    columns.update({"q": [], "qdot": [], "E": [], "norm": []})

    def record(t, orbitals, density, pot, norms, osc, mu):
        dip = dipole_vector(density.values, grid)
        columns["t"].append(t)
        for a in range(grid.dim):
            columns[f"D{axis_name(a)}"].append(dip[a])
        columns["q"].append(osc.q)
        columns["qdot"].append(osc.qdot)
        e_mat = total_energy(system, orbitals, None, potential=pot,
                             fd_order=cfg.fd_order).total
        e = e_mat + 0.5 * mu**2 - cavity.omega * osc.q * mu + osc.energy()
        columns["E"].append(e)
        columns["norm"].append(float(norms @ orbitals.occupations) / orbitals.n_electrons)

    def finish():
        meta = {"method": "qedft", "dt": cfg.dt, "n_steps": cfg.n_steps,
                "cavity_omega": cavity.omega,
                "cavity_lambda": " ".join(f"{c:g}" for c in cavity.lam),
                "n_electrons": system.n_electrons, **excitation_meta(cfg)}
        return TimeSeries(columns={k: np.asarray(v) for k, v in columns.items()},
                          meta=meta)

    norms_ref = orbitals.norms()
    t = 0.0
    record(t, orbitals, density, pot, norms_ref, osc, mu)
    acc = cavity.omega * mu - cavity.omega**2 * osc.q

    for step in range(1, cfg.n_steps + 1):
        v_p = photon_exchange_potential(mu, osc.q, cavity, grid)
        ham = SparseHamiltonian(static, with_laser(pot.total + v_p, cfg.laser,
                                                   t + 0.5 * cfg.dt, grid))
        psi_new = taylor_step(orbitals.psi, ham, cfg.dt, cfg.order, shifts)
        if not np.all(np.isfinite(psi_new.view(float))):
            raise PropagationAborted(
                f"non-finite orbital values at step {step} (t = {t + cfg.dt:.6g})",
                series=finish(), orbitals=orbitals, time=t)
        q_new = osc.q + cfg.dt * osc.qdot + 0.5 * cfg.dt**2 * acc

        orbitals = OrbitalSet(psi_new, orbitals.occupations, grid)
        density = electron_density(orbitals)
        mu = mean_dipole_mu(density, cavity)
        acc_new = cavity.omega * mu - cavity.omega**2 * q_new
        osc = PhotonOscillator(q=q_new,
                               qdot=osc.qdot + 0.5 * cfg.dt * (acc + acc_new),
                               omega=cavity.omega)
        acc = acc_new
        t = step * cfg.dt

        norms = orbitals.norms()
        drift = float(np.max(np.abs(norms - norms_ref)))
        if drift > cfg.norm_tol_step * step:
            raise StepSizeError(
                f"norm drift {drift:.3e} after {step} steps; reduce dt below {cfg.dt}")

        pot = assemble_ks(density, system, v_ion=v_ion)
        if step % cfg.stride == 0:
            record(t, orbitals, density, pot, norms, osc, mu)

    return finish(), orbitals, osc
