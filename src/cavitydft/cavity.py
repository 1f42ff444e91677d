"""Truncated photon Fock space and tensor-product orbital machinery.

An orbital of the coupled electron-photon system is stored as one complex
spatial field per retained photon number state |n>, n = 0..N_F.  The
one-body Hamiltonian acts sector-diagonal except for the bilinear coupling,
which connects n to n +- 1 through the ladder algebra

    q |n> = (1 / sqrt(2 w)) (sqrt(n) |n-1> + sqrt(n+1) |n+1>).

Couplings that would leave the retained space are dropped, which keeps the
truncated operator Hermitian.

The Hamiltonian has one implementation: :func:`field_free_hamiltonian`
builds its static part as a sparse matrix, and :class:`SparseHamiltonian`
writes the local potential into that matrix's diagonal.  Propagation keeps
one per run; :func:`apply_hamiltonian`, which the SCF calls, keeps the one
of its last (grid, cavity), and an H product costs one sparse product
either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from scipy import sparse

from . import grid as gridmod
from .errors import ConfigurationError, GridMismatchError, UsageError
from .grid import Grid
# kept bound here because bench/run.py:trace_layers wraps this name in this module
from .grid import laplacian  # noqa: F401
from .potentials import Density


@dataclass(frozen=True)
class CavityMode:
    """Single cavity mode: frequency, coupling vector, Fock truncation.

    ``coupling`` is the full polarization-weighted vector (unit vector
    times magnitude); ``n_fock`` is the highest photon number retained.
    """

    omega: float
    coupling: tuple
    n_fock: int

    def __post_init__(self):
        object.__setattr__(self, "coupling",
                           tuple(map(float, gridmod.components(self.coupling))))
        object.__setattr__(self, "n_fock", int(self.n_fock))
        if not self.omega > 0:
            raise ConfigurationError(f"cavity frequency must be positive, got {self.omega}")
        if not abs(sum(self.coupling)) < np.inf:
            raise ConfigurationError(f"cavity coupling must be finite, got {self.coupling}")
        if self.n_fock < 0:
            raise ConfigurationError(f"n_fock must be >= 0, got {self.n_fock}")

    @property
    def n_sectors(self) -> int:
        return self.n_fock + 1

    @property
    def lam(self) -> np.ndarray:
        return np.asarray(self.coupling)

    @cached_property
    def sqrt_n(self) -> np.ndarray:
        """sqrt(n) for n = 0..N_F+1; exact to double precision."""
        return np.sqrt(np.arange(self.n_fock + 2, dtype=float))

    @cached_property
    def photon_energies(self) -> np.ndarray:
        """(n + 1/2) w for n = 0..N_F."""
        return (np.arange(self.n_sectors, dtype=float) + 0.5) * self.omega

    @classmethod
    def from_effective_volume(cls, omega: float, v_eff: float, polarization, n_fock: int):
        """Coupling magnitude from a cavity volume, lam = 1/sqrt(eps0 V).

        In atomic units eps0 = 1/(4 pi).
        """
        if not v_eff > 0:
            raise ConfigurationError("effective cavity volume must be positive")
        pol = np.asarray(polarization, dtype=float)
        norm = np.linalg.norm(pol)
        if norm == 0:
            raise ConfigurationError("polarization vector must be non-zero")
        magnitude = np.sqrt(4.0 * np.pi / v_eff)
        return cls(omega=omega, coupling=tuple(magnitude * pol / norm), n_fock=n_fock)


@lru_cache(maxsize=16)
def coupling_field(cavity: CavityMode, grid: Grid) -> np.ndarray:
    """The scalar field lam . r on the grid; shared between calls, so read-only."""
    lam = cavity.lam
    if len(lam) != grid.dim:
        raise GridMismatchError(
            f"coupling vector has {len(lam)} components for a {grid.dim}D grid")
    out = np.zeros(grid.shape)
    for axis, la in enumerate(lam):
        if la != 0.0:
            out = out + la * grid.coordinate(axis)
    out.setflags(write=False)
    return out


@dataclass
class OrbitalSet:
    """A set of tensor-product orbitals sharing one grid.

    ``psi`` has shape ``(n_orbitals, n_sectors, *grid.shape)``; element
    ``psi[m, n]`` is the spatial field of orbital m in photon sector n.
    ``occupations[m]`` is the electron count c_m on orbital m.  ``psi`` is
    made read-only (so is the array passed in, unless it had to be
    converted to complex), which keeps the cached :meth:`abs2` valid.
    """

    psi: np.ndarray
    occupations: np.ndarray
    grid: Grid
    _abs2: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.psi = np.asarray(self.psi, dtype=complex)
        self.psi.setflags(write=False)
        self.occupations = np.asarray(self.occupations, dtype=float)
        if self.psi.ndim != 2 + self.grid.dim:
            raise UsageError(
                f"orbital array must be (orbitals, sectors, grid...), got shape {self.psi.shape}")
        self.grid.check_field(self.psi)
        if len(self.occupations) != self.psi.shape[0]:
            raise UsageError("one occupation number per orbital required")

    @property
    def n_orbitals(self) -> int:
        return self.psi.shape[0]

    @property
    def n_sectors(self) -> int:
        return self.psi.shape[1]

    @property
    def n_electrons(self) -> float:
        return float(self.occupations.sum())

    def copy(self) -> "OrbitalSet":
        return OrbitalSet(self.psi.copy(), self.occupations.copy(), self.grid)

    def abs2(self) -> np.ndarray:
        """|phi_mn(r)|^2 for every orbital, sector and point, shaped like ``psi``.

        Formed on the first call and shared (read-only) by every later one,
        so the density, P_n and the energy of one orbital set all take the
        same array.
        """
        if self._abs2 is None:
            self._abs2 = np.abs(self.psi) ** 2
            self._abs2.setflags(write=False)
        return self._abs2

    def overlap_matrix(self) -> np.ndarray:
        """Full overlaps (Phi_m | Phi_m') including the sector sum."""
        flat = self.psi.reshape(self.n_orbitals, -1)
        return (flat.conj() @ flat.T) * self.grid.volume_element


def apply_hamiltonian(psi: np.ndarray, v_local: np.ndarray, mu: float,
                      cavity: CavityMode | None, grid: Grid) -> np.ndarray:
    """Act with the coupled one-body Hamiltonian on orbital sector stacks.

    Per sector n the result is

        -1/2 lap(psi_n) + [V_local + mu (lam.r) + (n + 1/2) w] psi_n
        - sqrt(w/2) (lam.r) [sqrt(n) psi_{n-1} + sqrt(n+1) psi_{n+1}]

    where terms that reference sectors outside 0..N_F are dropped.  With
    ``cavity=None`` this reduces to the plain Kohn-Sham action on a single
    spatial stack, and ``mu`` is not used.

    ``psi`` may have leading axes ``(orbitals, sectors)`` or just
    ``(sectors,)``; the trailing axes must match the grid.  An external
    field E.r is part of ``v_local``.  The product is the one propagation
    takes: the local term V_local + mu (lam.r), formed as
    :func:`~cavitydft.propagate.propagate` forms it, is written into the
    :class:`SparseHamiltonian` kept for this (grid, cavity), which then
    acts once.  That operator is shared module state: the call is not
    reentrant and not thread-safe.
    """
    grid.check_field(v_local)
    if cavity is not None and mu != 0.0:
        v_local = v_local + mu * coupling_field(cavity, grid)
    hamiltonian = _operator(grid, cavity)
    hamiltonian.set_potential(v_local)
    return hamiltonian.apply(psi)


def field_free_hamiltonian(grid: Grid, cavity: CavityMode | None) -> sparse.csr_array:
    """The static part of the coupled one-body Hamiltonian as one sparse matrix.

    It acts on one orbital flattened in (sector, grid...) C order and holds
    the finite-difference kinetic term on every sector (hard walls: the
    stencil sees zeros outside the box), (n + 1/2) w on sector n, and the
    ladder coupling -sqrt(w/2) (lam.r) sqrt(n) between sectors n - 1 and n,
    truncated at N_F.  With ``cavity=None`` it is the kinetic term on one
    grid.  The local potential, the only part that changes during a run,
    is left to :class:`SparseHamiltonian`.

    Real values and 32-bit indices take about 12 bytes per nonzero: ~1.8 MB
    at 15^3 and ~40 MB at 41^3 with the 9-point stencil and two sectors.
    """
    weights = -0.5 * gridmod.d2_stencil(grid.order) / grid.h**2
    half = len(weights) // 2
    kinetic = sparse.csr_array((grid.n_points, grid.n_points))
    for axis, n in enumerate(grid.shape):
        band = sparse.diags_array(weights, offsets=np.arange(-half, half + 1), shape=(n, n))
        before = sparse.eye_array(int(np.prod(grid.shape[:axis])))
        after = sparse.eye_array(int(np.prod(grid.shape[axis + 1:])))
        kinetic = kinetic + sparse.kron(sparse.kron(before, band), after, format="csr")
    if cavity is None:
        return kinetic

    n_sec = cavity.n_sectors
    photon = sparse.diags_array(cavity.photon_energies)
    out = (sparse.kron(sparse.eye_array(n_sec), kinetic)
           + sparse.kron(photon, sparse.eye_array(grid.n_points)))
    if n_sec > 1:
        sq = cavity.sqrt_n[1:n_sec]
        ladder = sparse.diags_array([sq, sq], offsets=[-1, 1])
        lam_r = sparse.diags_array(coupling_field(cavity, grid).ravel())
        out = out - np.sqrt(cavity.omega / 2.0) * sparse.kron(ladder, lam_r)
    out = sparse.csr_array(out)
    out.eliminate_zeros()
    return out


class SparseHamiltonian:
    """The coupled one-body Hamiltonian: a static matrix plus a local potential.

    The static part is :func:`field_free_hamiltonian` of ``grid`` and
    ``cavity``; ``v_local`` is the grid field added on every sector,
    V_KS + mu (lam.r) + E(t).r.  The potential lives on the diagonal of
    the matrix, so an apply is one sparse product and :meth:`set_potential`
    swaps the potential in place, without building a new matrix.
    """

    def __init__(self, grid: Grid, cavity: CavityMode | None, v_local: np.ndarray):
        matrix = field_free_hamiltonian(grid, cavity)
        matrix.sum_duplicates()
        n = matrix.shape[0]
        rows = np.repeat(np.arange(n), np.diff(matrix.indptr))
        # every diagonal entry is stored: the kinetic and photon terms are positive
        diagonal = np.flatnonzero(matrix.indices == rows)
        self.matrix = matrix
        self.grid = grid
        # the trailing axes of an operand: one orbital
        self.operand_shape = grid.shape if cavity is None else (cavity.n_sectors,) + grid.shape
        self._diagonal = diagonal
        self._static_diagonal = matrix.data[diagonal].copy()
        self.set_potential(v_local)

    def set_potential(self, v_local: np.ndarray) -> None:
        """Make ``v_local`` (one grid field, added on every sector) the local potential."""
        v = np.asarray(v_local, dtype=float)
        if v.shape != self.grid.shape:
            raise GridMismatchError(
                f"local potential of shape {v.shape} on a grid of shape {self.grid.shape}")
        self.matrix.data[self._diagonal] = (
            self._static_diagonal.reshape(-1, v.size) + v.ravel()).ravel()

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """H psi for ``psi`` of shape (..., sectors, *grid) or (..., *grid) without a cavity."""
        psi = np.asarray(psi, dtype=complex)
        if psi.shape[-len(self.operand_shape):] != self.operand_shape:
            raise UsageError(f"H acts on trailing axes {self.operand_shape}, "
                             f"got shape {psi.shape}")
        # one column per orbital, the real and imaginary parts side by side,
        # so the matrix stays real
        cols = np.ascontiguousarray(psi.reshape(-1, self.matrix.shape[0]).T)
        return (self.matrix @ cols.view(float)).view(complex).T.reshape(psi.shape)


# one SCF solve asks for one (grid, cavity) throughout, so only the last is kept
@lru_cache(maxsize=1)
def _operator(grid: Grid, cavity: CavityMode | None) -> SparseHamiltonian:
    """The operator :func:`apply_hamiltonian` rewrites and applies for one (grid, cavity)."""
    return SparseHamiltonian(grid, cavity, np.zeros(grid.shape))


def mean_dipole_mu(density: Density, cavity: CavityMode | None) -> float:
    """mu = integral (lam . r) rho(r) dr."""
    if cavity is None:
        return 0.0
    mu = 0.0
    for axis, la in enumerate(cavity.coupling):
        if la != 0.0:
            mu += la * gridmod.dipole_integral(density.values, density.grid, axis)
    return float(mu)


def photon_occupations(orbitals: OrbitalSet) -> np.ndarray:
    """Photon number probabilities P_n = sum_m c_m <phi_mn|phi_mn> / N_e.

    They are non-negative and sum to one.
    """
    return sector_probabilities(orbitals.abs2(), orbitals.occupations,
                                orbitals.grid.volume_element)


def sector_probabilities(abs2: np.ndarray, occupations: np.ndarray, dv: float) -> np.ndarray:
    """:func:`photon_occupations` from |psi|^2 of shape (orbitals, sectors, *grid)."""
    n_el = float(occupations.sum())
    if n_el <= 0:
        raise UsageError("photon occupations undefined for zero electrons")
    axes = tuple(range(2, abs2.ndim))
    per = abs2.sum(axis=axes) * dv  # (m, n)
    return (occupations @ per) / n_el


def electron_density(orbitals: OrbitalSet) -> Density:
    """Total density rho = sum_n p_n."""
    return Density(density_values(orbitals.abs2(), orbitals.occupations), orbitals.grid)


def density_values(abs2: np.ndarray, occupations: np.ndarray) -> np.ndarray:
    """rho = sum_m c_m sum_n |phi_mn|^2 from |psi|^2 of shape (orbitals, sectors, *grid)."""
    occ = occupations.reshape((-1,) + (1,) * (abs2.ndim - 1))
    return (occ * abs2).sum(axis=(0, 1))


def ladder_commutator(n_fock: int) -> np.ndarray:
    """[a, a+] on the truncated space, exact to the last bit.

    Applying the operators in sequence gives integer diagonals:
    a a+ |n> = (n+1)|n> for n < N_F and 0 for n = N_F (the |N_F+1>
    intermediate is deleted by the truncation), a+ a |n> = n|n>.  The
    commutator is the identity except the final entry, which is -N_F.
    The diagonals are built from these exact products rather than from
    floating sqrt(n) round trips, which would spoil exactness for
    non-square n.
    """
    n = np.arange(n_fock + 1, dtype=float)
    lower_after_raise = np.where(n < n_fock, n + 1.0, 0.0)
    return np.diag(lower_after_raise - n)
