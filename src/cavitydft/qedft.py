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

The orbital steps, the checks and the recorded series are those of the
stepping driver in :mod:`cavitydft.propagate`, which runs the
tensor-product scheme too; this module supplies V_P, the Verlet update
of (q, qdot) after each orbital step and the photon columns and energy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cavity import CavityMode, OrbitalSet, coupling_field, mean_dipole_mu
from .errors import UsageError
from .propagate import PropConfig, _drive, _Scheme
# kept bound here because bench/tracer.py wraps these names in this module
from .propagate import assemble_ks, taylor_step, total_energy  # noqa: F401
from .scf import ScfState
from .timeseries import TimeSeries


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


def verlet_step(q: float, qdot: float, acc: float, omega: float, drive: float,
                dt: float) -> tuple:
    """One velocity-Verlet step of (d^2/dt^2 + w^2) q = drive.

    ``acc`` is the acceleration at the current (q, qdot) and ``drive`` the
    forcing at the end of the step; returns the new (q, qdot, acc).
    """
    q_new = q + dt * qdot + 0.5 * dt**2 * acc
    acc_new = drive - omega**2 * q_new
    return q_new, qdot + 0.5 * dt * (acc + acc_new), acc_new


def initial_displacement(state: ScfState, cavity: CavityMode) -> float:
    """Static fixed point q0 = (lam . <D>) / w of the photon coordinate."""
    mu0 = mean_dipole_mu(state.density, cavity)
    return mu0 / cavity.omega


def qedft_propagate(state: ScfState, cavity: CavityMode,
                    cfg: PropConfig) -> tuple[TimeSeries, OrbitalSet, PhotonOscillator]:
    """Propagate coupled orbital / classical-photon dynamics.

    ``state`` must be a plain Kohn-Sham ground state (solved without the
    cavity); a cavity-coupled state raises :class:`UsageError`.  The photon
    starts at its static fixed point with zero velocity so that the delta
    kick is the only perturbation.  The local term is V_KS + V_P, and each
    sample records q, qdot and E = E_matter + mu^2/2 - w q mu + E_osc.  See
    :func:`~cavitydft.propagate._drive` for the stepping, the checks and
    the rest of the series.
    """
    if state.cavity is not None or state.orbitals.n_sectors != 1:
        raise UsageError("qedft_propagate needs a Kohn-Sham ground state solved without "
                         f"a cavity; this one has {state.orbitals.n_sectors} photon sectors")
    grid, w = state.system.grid, cavity.omega
    osc = PhotonOscillator(q=initial_displacement(state, cavity), qdot=0.0, omega=w)
    mu = acc = None

    def photon_potential(new_mu):
        nonlocal mu, acc
        mu = new_mu
        if acc is None:  # the first call, at t = 0 before any step
            acc = w * mu - w**2 * osc.q
        else:
            osc.q, osc.qdot, acc = verlet_step(osc.q, osc.qdot, acc, w, w * mu, cfg.dt)
        return photon_exchange_potential(mu, osc.q, cavity, grid)

    def sample(e_matter):
        return {"q": osc.q, "qdot": osc.qdot,
                "E": e_matter + 0.5 * mu**2 - w * osc.q * mu + osc.energy()}

    series, orbitals = _drive(state, cfg, _Scheme("qedft", cavity, photon_potential, sample))
    return series, orbitals, osc
