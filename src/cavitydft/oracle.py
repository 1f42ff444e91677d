"""Brute-force reference solvers for small 1D cavity problems.

Everything here assembles the coupled Hamiltonian as an explicit sparse
matrix on the flattened (sector, space) index and solves it with dense or
iterative eigensolvers, independently of the stencil-application code
paths.  The kinetic matrix is built here from the ``grid.order``-point
stencil, so the oracle discretizes exactly the problem the main code
solves on that grid.  It provides ground-truth energies, occupations, and
propagated observables for the test suite, plus the closed-form normal
modes of the harmonic-atom-in-cavity model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.sparse.linalg import eigsh

from .cavity import CavityMode
from .errors import ConfigurationError, ConvergenceError, UsageError
from .grid import Grid, d2_stencil
from .potentials import Density, ElectronSystem, external_potential, hartree_potential_1d, lda_xc

DIMENSION_CAP = 20_000

FLAVORS = ("bare", "mean-field-mu", "quadratic-dsi")

_RESIDUAL_TOL = 1e-10

# self-consistency of scf_ground_state: energy change between iterations,
# linear density mixing, iteration budget
_SCF_TOL = 1e-12
_SCF_MIXING = 0.5
_SCF_MAX_ITERATIONS = 400


def kinetic_matrix(grid: Grid) -> sp.csr_matrix:
    """-1/2 d^2/dx^2 as a banded matrix with hard-wall truncation."""
    if grid.dim != 1:
        raise UsageError("the oracle handles 1D grids only")
    weights = d2_stencil(grid.order) / grid.h**2
    half = (len(weights) - 1) // 2
    n = grid.shape[0]
    diags = [np.full(n - abs(k), -0.5 * weights[half + k]) for k in range(-half, half + 1)]
    return sp.diags(diags, offsets=range(-half, half + 1), format="csr")


def _coupling_lambda_x(system: ElectronSystem, cavity: CavityMode) -> np.ndarray:
    lam = cavity.lam
    if len(lam) != 1:
        raise UsageError("the oracle expects a 1D coupling vector")
    return lam[0] * system.grid.axis_coordinates(0)


def assemble(system: ElectronSystem, cavity: CavityMode, *,
             flavor: str = "mean-field-mu", mu: float = 0.0,
             density: Density | None = None) -> sp.csr_matrix:
    """Explicit matrix of the coupled Hamiltonian on the flattened basis.

    Index ordering is sector-major: component (n, i) sits at n * N_x + i,
    matching ``psi.reshape(-1)`` of a single tensor-product orbital.
    Flavors: ``bare`` drops the mean-field dipole term, ``mean-field-mu``
    adds mu * (lam x) with the supplied mu, ``quadratic-dsi`` adds the
    explicit (lam x)^2 / 2 operator of the one-electron quadratic model.
    """
    if flavor not in FLAVORS:
        raise ConfigurationError(f"unknown flavor {flavor!r}; choose one of {FLAVORS}")
    grid = system.grid
    n_x = grid.shape[0]
    n_sec = cavity.n_sectors
    if n_x * n_sec > DIMENSION_CAP:
        raise ConfigurationError(
            f"oracle dimension {n_x * n_sec} exceeds the cap {DIMENSION_CAP}")

    t_mat = kinetic_matrix(grid)
    v = external_potential(system).copy()
    if density is not None:
        if system.use_hartree:
            v = v + hartree_potential_1d(density.values, grid, system.ee_softening)
        if system.use_xc:
            v = v + lda_xc(density)[0]
    lam_x = _coupling_lambda_x(system, cavity)
    if flavor == "mean-field-mu":
        v = v + mu * lam_x
    elif flavor == "quadratic-dsi":
        v = v + 0.5 * lam_x**2

    h_space = t_mat + sp.diags(v)
    blocks = [[None] * n_sec for _ in range(n_sec)]
    pref = -np.sqrt(cavity.omega / 2.0)
    coup = sp.diags(lam_x)
    for n in range(n_sec):
        blocks[n][n] = h_space + sp.identity(n_x) * ((n + 0.5) * cavity.omega)
        if n + 1 < n_sec:
            off = pref * np.sqrt(n + 1.0) * coup
            blocks[n][n + 1] = off
            blocks[n + 1][n] = off
    return sp.bmat(blocks, format="csr")


def ground_state(h: sp.spmatrix) -> tuple:
    """Lowest eigenpair of a Hermitian sparse matrix.

    Small problems go through dense diagonalization; larger ones use
    Lanczos iteration with a fixed deterministic start vector.  The
    residual ||H v - E v|| is verified against ``_RESIDUAL_TOL``.
    """
    n = h.shape[0]
    if n <= 2000:
        vals, vecs = np.linalg.eigh(h.toarray())
        e0, v0 = float(vals[0]), vecs[:, 0]
    else:
        start = np.cos(np.linspace(0.0, 1.0, n))  # fixed, reproducible
        vals, vecs = eigsh(h, k=1, which="SA", v0=start, maxiter=20000)
        e0, v0 = float(vals[0]), vecs[:, 0]
    residual = float(np.linalg.norm(h @ v0 - e0 * v0))
    if residual > _RESIDUAL_TOL:
        raise ConvergenceError(
            f"eigensolver residual {residual:.3e} above {_RESIDUAL_TOL:.1e}",
            diagnostics={"residual": residual})
    return e0, v0


@dataclass
class OracleGroundState:
    """Self-consistent oracle solution for a single occupied orbital."""

    energy: float          # total energy, double counting removed
    eigenvalue: float      # lowest mean-field eigenvalue
    occupations: np.ndarray  # photon probabilities P_n
    mu: float
    psi: np.ndarray        # (n_sectors, N_x), normalized with the h weight
    density: Density
    iterations: int


def scf_ground_state(system: ElectronSystem, cavity: CavityMode) -> OracleGroundState:
    """Self-consistent lowest state with one occupied orbital.

    Replicates the ``mean-field-mu`` flavor of the main code (restricted,
    the single orbital holding all electrons) but solves each linearized
    problem by exact diagonalization.  All mean-field inputs (mu, Hartree,
    XC) are iterated to a fixed point on the density.
    """
    if len(system.occupations) != 1:
        raise UsageError("the oracle supports exactly one occupied orbital")
    grid = system.grid
    c = float(system.occupations[0])
    n_sec = cavity.n_sectors

    rho = np.zeros(grid.shape[0])
    mu = 0.0
    density = Density(rho, grid)
    e_prev = None
    psi = None
    for iteration in range(1, _SCF_MAX_ITERATIONS + 1):
        h = assemble(system, cavity, mu=mu,
                     density=density if (system.use_hartree or system.use_xc) else None)
        eig, vec = ground_state(h)
        psi = vec.reshape(n_sec, -1) / np.sqrt(grid.h)  # normalize sum |psi|^2 h = 1
        rho_new = c * np.sum(np.abs(psi) ** 2, axis=0)
        rho = rho_new if e_prev is None else (1.0 - _SCF_MIXING) * rho + _SCF_MIXING * rho_new
        density = Density(rho, grid)
        lam_x = _coupling_lambda_x(system, cavity)
        mu_new = float(np.sum(lam_x * rho) * grid.h)
        energy = _total_energy(system, cavity, psi, c, density, mu_new)
        if e_prev is not None and abs(energy - e_prev) < _SCF_TOL:
            pn = np.sum(np.abs(psi) ** 2, axis=1) * grid.h
            return OracleGroundState(energy=energy, eigenvalue=eig,
                                     occupations=pn, mu=mu_new, psi=psi,
                                     density=density, iterations=iteration)
        e_prev = energy
        mu = mu_new
    raise ConvergenceError(f"oracle SCF did not converge in {_SCF_MAX_ITERATIONS} iterations")


def _total_energy(system, cavity, psi, c, density, mu) -> float:
    """Energy from explicit operator quadratic forms (photon counted once)."""
    grid = system.grid
    h = grid.h
    t_mat = kinetic_matrix(grid)
    v_ext = external_potential(system)
    lam_x = _coupling_lambda_x(system, cavity)

    e_kin = sum((psi[n].conj() @ (t_mat @ psi[n])).real for n in range(psi.shape[0])) * h
    e_ext = float(np.sum(v_ext * density.values) * h)
    e_h = 0.0
    if system.use_hartree:
        v_h = hartree_potential_1d(density.values, grid, system.ee_softening)
        e_h = 0.5 * float(np.sum(v_h * density.values) * h)
    e_xc = lda_xc(density)[1] if system.use_xc else 0.0

    pn = np.sum(np.abs(psi) ** 2, axis=1) * h
    e_photon = cavity.omega * float(np.sum((np.arange(len(pn)) + 0.5) * pn))

    pref = -np.sqrt(cavity.omega / 2.0)
    e_coup = 0.0
    for n in range(psi.shape[0] - 1):
        cross = (psi[n].conj() @ (lam_x * psi[n + 1])).real * h
        e_coup += 2.0 * pref * np.sqrt(n + 1.0) * cross
    e_coup *= c

    e_dsi = 0.5 * mu * mu
    return c * e_kin + e_ext + e_h + e_xc + e_photon + e_coup + e_dsi


def normal_mode_frequencies(omega0: float, cavity: CavityMode) -> tuple:
    """Closed-form polariton frequencies of the quadratic model.

    One electron in a harmonic well omega0 coupled to the mode, with the
    full quadratic dipole self-interaction included:

        K = [[omega0^2 + lam^2, -w lam], [-w lam, w^2]]

    Returns (w_minus, w_plus), the square roots of K's eigenvalues.
    """
    lam = float(np.linalg.norm(cavity.lam))
    w = cavity.omega
    k = np.array([[omega0**2 + lam**2, -w * lam], [-w * lam, w**2]])
    vals = np.linalg.eigvalsh(k)
    if np.any(vals <= 0):
        raise ConvergenceError("quadratic model is unstable for these parameters")
    freqs = np.sqrt(vals)
    return float(freqs[0]), float(freqs[1])


@dataclass
class OracleSeries:
    """Observable record of an exact propagation."""

    t: np.ndarray
    dipole: np.ndarray
    q: np.ndarray
    occupations: np.ndarray  # (samples, sectors)
    psi_final: np.ndarray


class OracleObservables:
    """Operator matrices needed to read observables off a flat state vector."""

    def __init__(self, grid: Grid, cavity: CavityMode):
        self.grid = grid
        self.cavity = cavity
        self.n_x = grid.shape[0]
        self.n_sec = cavity.n_sectors
        self.x = grid.axis_coordinates(0)
        sq = np.sqrt(np.arange(1, self.n_sec, dtype=float))
        self.q_fock = (np.diag(sq, 1) + np.diag(sq, -1)) / np.sqrt(2.0 * cavity.omega)

    def unflatten(self, vec: np.ndarray) -> np.ndarray:
        return vec.reshape(self.n_sec, self.n_x)

    def norm(self, vec) -> float:
        return float(np.sum(np.abs(vec) ** 2) * self.grid.h)

    def dipole(self, vec) -> float:
        psi = self.unflatten(vec)
        return float(np.sum(self.x * np.sum(np.abs(psi) ** 2, axis=0)) * self.grid.h)

    def q_expectation(self, vec) -> float:
        psi = self.unflatten(vec)
        ov = (psi.conj() @ psi.T) * self.grid.h  # sector overlap matrix
        return float(np.sum(self.q_fock * ov.real))

    def occupations(self, vec) -> np.ndarray:
        psi = self.unflatten(vec)
        return np.sum(np.abs(psi) ** 2, axis=1) * self.grid.h


def exact_propagate(h_static: sp.spmatrix, psi0: np.ndarray, dt: float,
                    n_steps: int, obs: OracleObservables, *,
                    h_time=None, rtol: float = 1e-10,
                    check_tol: float = 1e-9) -> OracleSeries:
    """Reference unitary propagation with verified accuracy.

    Static Hamiltonians are propagated exactly through the spectral
    decomposition.  With ``h_time`` (a callable t -> sparse matrix added
    to ``h_static``) the Schroedinger equation is integrated by a
    high-order adaptive scheme and re-run at tighter tolerance until the
    recorded observables agree to ``check_tol``.
    """
    t_samples = np.arange(n_steps + 1) * dt
    if h_time is None:
        dense = h_static.toarray()
        vals, vecs = np.linalg.eigh(dense)
        coef = vecs.conj().T @ psi0
        dip = np.empty(len(t_samples))
        q = np.empty(len(t_samples))
        occ = np.empty((len(t_samples), obs.n_sec))
        psi_t = None
        for i, t in enumerate(t_samples):
            psi_t = vecs @ (np.exp(-1j * vals * t) * coef)
            dip[i] = obs.dipole(psi_t)
            q[i] = obs.q_expectation(psi_t)
            occ[i] = obs.occupations(psi_t)
        return OracleSeries(t=t_samples, dipole=dip, q=q, occupations=occ,
                            psi_final=psi_t)

    def run(tolerance):
        def rhs(t, y):
            h = h_static + h_time(t)
            return -1j * (h @ y)

        sol = solve_ivp(rhs, (0.0, n_steps * dt), psi0.astype(complex),
                        t_eval=t_samples, method="DOP853",
                        rtol=tolerance, atol=tolerance * 1e-2)
        if not sol.success:
            raise ConvergenceError(f"oracle integrator failed: {sol.message}")
        dip = np.array([obs.dipole(sol.y[:, i]) for i in range(sol.y.shape[1])])
        q = np.array([obs.q_expectation(sol.y[:, i]) for i in range(sol.y.shape[1])])
        occ = np.array([obs.occupations(sol.y[:, i]) for i in range(sol.y.shape[1])])
        return OracleSeries(t=t_samples, dipole=dip, q=q, occupations=occ,
                            psi_final=sol.y[:, -1])

    result = run(rtol)
    for _ in range(6):
        tighter = run(rtol / 10.0)
        delta = max(float(np.max(np.abs(result.dipole - tighter.dipole))),
                    float(np.max(np.abs(result.q - tighter.q))))
        if delta < check_tol:
            return tighter
        result, rtol = tighter, rtol / 10.0
    raise ConvergenceError(
        f"oracle propagation did not stabilize below {check_tol}")
