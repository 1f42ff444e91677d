"""Independent references the tests compare the package against.

Each function here evaluates a quantity the package computes on its own
path (through its sparse Hamiltonian, inside the propagation loop, by the
1D Hartree convolution, in the classical-photon scheme) by a separate,
plain formula: H psi by the finite-difference stencil and sector slices,
the total energy with its kinetic term from a Laplacian, <q> and the
sector dipoles of an orbital set, the dipole vector of a density, the
double-sum 1D Hartree energy, the boundary right-hand side of the 3D
Hartree problem, and the velocity-Verlet trajectory of a driven
oscillator with its closed form.
"""

import numpy as np

from cavitydft.cavity import (CavityMode, OrbitalSet, coupling_field, electron_density,
                              mean_dipole_mu, photon_occupations)
from cavitydft.errors import UsageError
from cavitydft.grid import Grid, dipole_integral, integrate, laplacian
from cavitydft.potentials import ElectronSystem, assemble_ks
from cavitydft.qedft import verlet_step
from cavitydft.scf import EnergyDecomposition


def stencil_apply_hamiltonian(psi: np.ndarray, v_local: np.ndarray, mu: float,
                              cavity: CavityMode | None, grid: Grid) -> np.ndarray:
    """:func:`cavitydft.cavity.apply_hamiltonian` by the stencil, sector by sector.

    Per sector n the result is

        -1/2 lap(psi_n) + [V_local + mu (lam.r) + (n + 1/2) w] psi_n
        - sqrt(w/2) (lam.r) [sqrt(n) psi_{n-1} + sqrt(n+1) psi_{n+1}]

    where terms that reference sectors outside 0..N_F are dropped.  With
    ``cavity=None`` this is the plain Kohn-Sham action on any stack of
    spatial fields.  ``psi`` may have leading axes ``(orbitals, sectors)``
    or just ``(sectors,)``; the trailing axes must match the grid.
    """
    psi = np.asarray(psi, dtype=complex)
    grid.check_field(v_local)

    out = laplacian(psi, grid)
    out *= -0.5

    if cavity is None:
        out += v_local * psi
        return out

    sector_axis = psi.ndim - grid.dim - 1
    if sector_axis < 0 or psi.shape[sector_axis] != cavity.n_sectors:
        raise UsageError(
            f"expected {cavity.n_sectors} Fock sectors on axis {sector_axis}, "
            f"got shape {psi.shape}")

    lam_r = coupling_field(cavity, grid)
    per_sector = (-1,) + (1,) * grid.dim
    out += (v_local + mu * lam_r if mu != 0.0 else v_local) * psi

    # diagonal photon energy (n + 1/2) w per sector
    out += cavity.photon_energies.reshape(per_sector) * psi

    # bilinear coupling: connects n to n-1 and n+1
    if any(c != 0.0 for c in cavity.coupling) and cavity.n_fock > 0:
        sqrt_n = cavity.sqrt_n[1:cavity.n_sectors].reshape(per_sector)
        ladder = np.zeros_like(psi)
        space = (slice(None),) * grid.dim
        lo = (Ellipsis, slice(1, None)) + space
        hi = (Ellipsis, slice(None, -1)) + space
        # sqrt(n) psi_{n-1} lands in sector n
        ladder[lo] += sqrt_n * psi[hi]
        # sqrt(n+1) psi_{n+1} lands in sector n
        ladder[hi] += sqrt_n * psi[lo]
        out -= np.sqrt(cavity.omega / 2.0) * lam_r * ladder

    return out


def laplacian_total_energy(system: ElectronSystem, orbitals: OrbitalSet,
                           cavity: CavityMode | None) -> EnergyDecomposition:
    """:func:`cavitydft.scf.total_energy` with the kinetic term from a Laplacian.

    Each piece is its own integral: -1/2 sum_m c_m <phi_m|lap phi_m>,
    int rho v_ion, the Hartree and XC energies, w sum_n (n + 1/2) P_n, the
    ladder coupling term by sector slices and mu^2 / 2.
    """
    grid, psi, occupations = system.grid, orbitals.psi, orbitals.occupations
    density = electron_density(orbitals)
    potential = assemble_ks(density, system)
    dv = grid.volume_element
    n_orb = psi.shape[0]
    flat = psi.reshape(n_orb, -1)
    lap = laplacian(psi, grid)
    per_orb = -0.5 * np.einsum("mp,mp->m", flat.conj(), lap.reshape(n_orb, -1)).real * dv
    e_kin = float(occupations @ per_orb)

    e_h, e_xc = potential.e_hartree, potential.e_xc
    e_ext = float((density.values * potential.v_ion).sum()) * dv

    if cavity is None:
        return EnergyDecomposition(e_kin, e_ext, e_h, e_xc, 0.0, 0.0, 0.0)

    pn = photon_occupations(orbitals)
    e_photon = cavity.omega * float(((np.arange(len(pn)) + 0.5) * pn).sum())

    mu = mean_dipole_mu(density, cavity)
    e_dsi = 0.5 * mu * mu

    e_coup = 0.0
    n_sec = psi.shape[1]
    if n_sec > 1 and any(c != 0.0 for c in cavity.coupling):
        lam_r = coupling_field(cavity, grid)
        axes = tuple(range(2, psi.ndim))
        cross = (psi[:, :-1].conj() * lam_r * psi[:, 1:]).sum(axis=axes) * dv
        sq = cavity.sqrt_n[1:n_sec]
        per = 2.0 * (cross.real @ sq)
        e_coup = -np.sqrt(cavity.omega / 2.0) * float(occupations @ per)

    return EnergyDecomposition(e_kin, e_ext, e_h, e_xc, e_photon, e_coup, e_dsi)


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


def dipole_vector(rho: np.ndarray, grid: Grid) -> np.ndarray:
    """All dipole components of a real density as a ``dim``-vector."""
    return np.array([dipole_integral(rho, grid, a) for a in range(grid.dim)])


def hartree_energy_direct_1d(rho: np.ndarray, grid: Grid, softening: float) -> float:
    """Double-sum Hartree energy for small 1D grids."""
    x = grid.axis_coordinates(0)
    dx = x[:, None] - x[None, :]
    kernel = 1.0 / np.sqrt(dx**2 + softening**2)
    return 0.5 * float(rho @ kernel @ rho) * grid.h**2


def multipole_boundary_source(rho: np.ndarray, grid: Grid) -> np.ndarray:
    """Stencil coupling of the free-space boundary values into a 3D box.

    The monopole+dipole potential of ``rho`` fills the ring that pads the
    grid by the stencil half-width (zero inside); its Laplacian on the
    interior points is the term that joins 4 pi rho on the right-hand side
    of the Dirichlet problem -lap V = 4 pi rho + (this) on the interior.
    """
    pad = grid.order // 2
    padded = Grid(tuple(n + 2 * pad for n in grid.shape), grid.h, grid.order)
    interior = tuple(slice(pad, pad + n) for n in grid.shape)
    ring = np.ones(padded.shape, dtype=bool)
    ring[interior] = False
    coords = [c[ring] for c in padded.coordinates]
    r = np.sqrt(sum(c**2 for c in coords))
    charge = float(integrate(rho, grid))
    dipole = dipole_vector(rho, grid)
    v_ring = np.zeros(padded.shape)
    v_ring[ring] = charge / r + sum(d * c for d, c in zip(dipole, coords)) / r**3
    return laplacian(v_ring, padded)[interior]


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
