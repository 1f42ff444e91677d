"""Independent references the tests compare the package against.

Each function here evaluates a quantity the package computes on its own
path (inside the propagation loop, by the 1D Hartree convolution, in the
classical-photon scheme) by a separate, plain formula: <q> and the sector
dipoles of an orbital set, the double-sum 1D Hartree energy, and the
velocity-Verlet trajectory of a driven oscillator with its closed form.
"""

import numpy as np

from cavitydft.cavity import CavityMode, OrbitalSet
from cavitydft.grid import Grid
from cavitydft.qedft import verlet_step


def q_expectation(orbitals: OrbitalSet, cavity: CavityMode) -> float:
    """Displacement coordinate expectation of the orbital set.

    <q> = (1/sqrt(2 w)) sum_m c_m sum_n 2 sqrt(n+1) Re<phi_mn|phi_m,n+1>.
    """
    if orbitals.n_sectors < 2:
        return 0.0
    dv = orbitals.grid.volume_element
    axes = tuple(range(2, orbitals.psi.ndim))
    cross = np.sum(orbitals.psi[:, :-1].conj() * orbitals.psi[:, 1:], axis=axes) * dv
    sq = cavity.sqrt_n[1:orbitals.n_sectors]
    per_orbital = 2.0 * (cross.real @ sq)
    return float(orbitals.occupations @ per_orbital) / np.sqrt(2.0 * cavity.omega)


def sector_dipoles(orbitals: OrbitalSet) -> np.ndarray:
    """Dipole vector of every sector density, shape (n_sectors, dim)."""
    grid = orbitals.grid
    occ = orbitals.occupations.reshape((-1, 1) + (1,) * grid.dim)
    p = np.sum(occ * orbitals.abs2(), axis=0)  # (sectors, *grid)
    axes = tuple(range(1, p.ndim))
    return np.stack([np.sum(p * grid.coordinate(a), axis=axes) for a in range(grid.dim)],
                    axis=1) * grid.volume_element


def hartree_energy_direct_1d(rho: np.ndarray, grid: Grid, softening: float) -> float:
    """Double-sum Hartree energy for small 1D grids."""
    x = grid.axis_coordinates(0)
    dx = x[:, None] - x[None, :]
    kernel = 1.0 / np.sqrt(dx**2 + softening**2)
    return 0.5 * float(rho @ kernel @ rho) * grid.h**2


def verlet_oscillator(q0: float, qdot0: float, omega: float, drive,
                      dt: float, n_steps: int) -> tuple:
    """Velocity-Verlet trajectory of (d^2/dt^2 + w^2) q = drive(t).

    ``drive`` maps a time to the forcing value.  Returns (t, q, qdot)
    arrays including the initial sample.  Each step is the package's
    :func:`~cavitydft.qedft.verlet_step`, the one that advances the photon.
    """
    t = np.arange(n_steps + 1) * dt
    q = np.empty(n_steps + 1)
    qd = np.empty(n_steps + 1)
    q[0], qd[0] = q0, qdot0
    acc = drive(0.0) - omega**2 * q0
    for i in range(n_steps):
        q[i + 1], qd[i + 1], acc = verlet_step(q[i], qd[i], acc, omega, drive(t[i + 1]), dt)
    return t, q, qd


def driven_oscillator_closed_form(q0: float, qdot0: float, omega: float,
                                  drive_const: float, t: np.ndarray) -> np.ndarray:
    """Exact solution of (d^2/dt^2 + w^2) q = drive_const."""
    qp = drive_const / omega**2
    return qp + (q0 - qp) * np.cos(omega * t) + (qdot0 / omega) * np.sin(omega * t)
