"""Self-consistent ground-state solver for cavity-coupled Kohn-Sham orbitals.

Two minimizers share the seed, the energy and the returned state.  By
default the problem picks one: a single orbital on a 1D grid runs
``conjugate-gradient``, everything else ``imaginary-time``.  The
``minimizer`` key forces either one.

``imaginary-time`` freezes the mean-field Hamiltonian built
from the current density, takes one imaginary-time step on every orbital
with an exact line search on the Rayleigh quotient, re-orthogonalizes
sector by sector, then mixes the new density into the old one with
weight 0.3.
Convergence requires both the energy change and the L1 density change to
stay below tolerance for two consecutive iterations.  Density mixing is
damped automatically when the energy history starts to oscillate, which is
the typical failure mode at larger couplings.  An iteration makes two mean
fields (:func:`assemble_ks` of the input and of the output density), two
products with H (:func:`apply_hamiltonian`) and one Laplacian, of the
output orbitals, for their kinetic energy.  H is the one operator the
propagator applies too: each product writes the local term into the
sparse matrix kept for the (grid, cavity) and takes one sparse product,
with no Laplacian of its own.

``conjugate-gradient`` minimizes the energy of one normalized orbital
directly, by nonlinear conjugate gradients (Payne et al., Rev. Mod. Phys.
64, 1045 (1992); Edelman, Arias & Smith, SIAM J. Matrix Anal. Appl. 20,
303 (1998)), with no density mixing.  Its gradient is the residual
c (H[rho] - <H>) phi, with H rebuilt from the orbital's own density;
directions are Polak-Ribiere+, and each line search steps to the minimum
of the frozen-H model along the direction, capped at unit length, with one
secant correction on the exact directional derivative when the model step
misses by much.  It stops when the residual norm is below ``tol_density``
and the energy change below ``tol_energy``.  An iteration makes one or two
mean fields, two or three H products and one Laplacian; the benchmark's
coupling-scan atoms take 146-168 iterations and its HHG molecule 119.
Several orbitals need an orthonormality constraint that it does not have
yet; they raise :class:`ConfigurationError`.  The default keeps 3D grids
on imaginary time because the 3D Hartree operator is not self-adjoint, so
there the residual is not the energy gradient.

Both loops work on the bare orbital array psi, |psi|^2 and rho.  An
iteration's energy comes from :func:`_energy`, the core
:func:`total_energy` also calls, with the |psi|^2, density and Hartree and
XC terms the iteration already formed; P_n is formed again only for a
``log`` line.  The returned state's orbital set, density, potential and
:func:`total_energy` are built once, after the loop, so its energy is the
last iteration's bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields

import numpy as np

from .cavity import (CavityMode, OrbitalSet, apply_hamiltonian, coupling_field,
                     density_values, electron_density, mean_dipole_mu, photon_occupations,
                     sector_probabilities)
from .errors import ConfigurationError, ConvergenceError, UsageError
from .grid import laplacian
from .potentials import (Density, ElectronSystem, KsPotential, assemble_ks,
                         external_potential)

MINIMIZERS = ("imaginary-time", "conjugate-gradient")

# deterministic fallback amplitude for linearly dependent orbital seeds
_PERTURB_AMPLITUDE = 1e-6
# imaginary-time step of an orbital whose line search finds no minimum
_FALLBACK_STEP = 0.1
# two projection sweeps reach orthogonality to working precision ("twice is
# enough", Parlett 1980); linearly dependent inputs are perturbed at most twice
_GS_PASSES = 2
_GS_RETRIES = 2
# linear density mixing of the imaginary-time loop; halved while it oscillates
_MIXING = 0.3


@dataclass
class ScfConfig:
    """Knobs for the ground-state iteration.

    ``minimizer`` is ``None`` (the default), ``"imaginary-time"`` or
    ``"conjugate-gradient"``.  ``None`` lets the problem pick: conjugate
    gradients for one orbital on a 1D grid, imaginary time otherwise.
    ``tol_density`` bounds the L1 density change on the imaginary-time
    path and the residual norm on the conjugate-gradient path.
    """

    max_iterations: int = 500
    tol_energy: float = 1e-8
    tol_density: float = 1e-6
    minimizer: str | None = None

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ConfigurationError(
                f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.tol_energy <= 0 or self.tol_density <= 0:
            raise ConfigurationError("SCF tolerances must be positive")
        if self.minimizer is not None and self.minimizer not in MINIMIZERS:
            raise ConfigurationError(
                f"unknown minimizer {self.minimizer!r}; choose one of {MINIMIZERS}")


@dataclass
class EnergyDecomposition:
    """Additive total-energy pieces; ``total`` is their exact sum."""

    kinetic: float
    external: float
    hartree: float
    xc: float
    photon: float
    coupling: float
    dipole_self: float
    total: float = 0.0

    def __post_init__(self):
        self.total = (self.kinetic + self.external + self.hartree + self.xc
                      + self.photon + self.coupling + self.dipole_self)

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class ScfState:
    """Result of a ground-state solve."""

    orbitals: OrbitalSet
    density: Density
    potential: KsPotential
    mu: float
    cavity: CavityMode | None
    system: ElectronSystem
    energy: EnergyDecomposition
    iterations: int
    history: list = field(default_factory=list)
    # the engine that ran; None for a state rebuilt from given orbitals
    minimizer: str | None = None

    @property
    def occupations_photon(self) -> np.ndarray:
        if self.cavity is None:
            return np.array([1.0])
        return photon_occupations(self.orbitals)


def seed_sector_amplitudes(n_sectors: int) -> np.ndarray:
    """Geometric decay (1, 0.1, 0.01, ...) favoring the low photon sectors."""
    return 0.1 ** np.arange(n_sectors, dtype=float)


def _monomial_powers(dim: int):
    """Graded enumeration of monomial exponents used for orbital seeds."""
    degree = 0
    while True:
        if dim == 1:
            yield (degree,)
        else:
            for i in range(degree + 1):
                for j in range(degree - i + 1):
                    yield (i, j, degree - i - j)
        degree += 1


def _checkerboard(grid) -> np.ndarray:
    """Fixed +-1 pattern used to break exact linear dependence."""
    pattern = np.zeros(grid.shape)
    idx = np.indices(grid.shape).sum(axis=0)
    pattern[:] = np.where(idx % 2 == 0, 1.0, -1.0)
    return pattern


def init_orbitals(system: ElectronSystem, cavity: CavityMode | None) -> OrbitalSet:
    """Gaussian atomic-like seeds, sector-weighted and orthonormalized."""
    grid = system.grid
    n_orb = system.n_orbitals
    if n_orb > grid.n_points:
        raise ConfigurationError(
            f"{n_orb} orbitals cannot be represented on {grid.n_points} grid points")
    amplitudes = seed_sector_amplitudes(cavity.n_sectors if cavity is not None else 1)

    centers = [np.atleast_1d(ion.position) for ion in system.ions]
    if not centers:
        centers = [np.zeros(grid.dim)]
    if system.harmonic_omega > 0:
        width = 1.0 / np.sqrt(system.harmonic_omega)
    else:
        width = max((ion.softening for ion in system.ions), default=1.0)

    gen = _monomial_powers(grid.dim)
    n_levels = (n_orb + len(centers) - 1) // len(centers)
    powers = [next(gen) for _ in range(n_levels)]
    seeds = np.empty((n_orb,) + grid.shape)
    for m in range(n_orb):
        center = centers[m % len(centers)]
        pw = powers[m // len(centers)]
        r2 = np.zeros(grid.shape)
        poly = np.ones(grid.shape)
        for axis in range(grid.dim):
            d = grid.coordinate(axis) - center[axis]
            r2 = r2 + d**2
            if pw[axis]:
                poly = poly * d ** pw[axis]
        seeds[m] = poly * np.exp(-r2 / (2.0 * width**2))

    psi = seeds[:, None, ...] * amplitudes.reshape((1, -1) + (1,) * grid.dim)
    orbitals = OrbitalSet(psi.astype(complex), system.occupations, grid)
    return gram_schmidt_sectorwise(orbitals)


def gram_schmidt_sectorwise(orbitals: OrbitalSet) -> OrbitalSet:
    """Orthonormalize a set: project per Fock sector, normalize globally.

    For every sector n the spatial components of orbital m are made
    orthogonal to those of all earlier orbitals without per-sector
    rescaling; afterwards each full orbital is normalized over sectors
    and space.  The resulting full overlap matrix is the identity.
    Linearly dependent inputs are perturbed by a fixed checkerboard
    pattern and retried.
    """
    psi = _orthonormalized(orbitals.psi, orbitals.grid)
    return OrbitalSet(psi, orbitals.occupations, orbitals.grid)


def _orthonormalized(psi: np.ndarray, grid) -> np.ndarray:
    """:func:`gram_schmidt_sectorwise` on the bare array (orbitals, sectors, *grid)."""
    dv = grid.volume_element
    n_orb, n_sec = psi.shape[:2]
    work = psi.reshape(n_orb, n_sec, -1).copy()
    board = None

    for attempt in range(_GS_RETRIES + 1):
        dependent = False
        for _ in range(_GS_PASSES):
            for m in range(n_orb):
                for j in range(m):
                    denom = np.einsum("sp,sp->s", work[j].conj(), work[j]).real * dv
                    numer = np.einsum("sp,sp->s", work[j].conj(), work[m]) * dv
                    safe = denom > 1e-30
                    coef = np.where(safe, numer / np.where(safe, denom, 1.0), 0.0)
                    work[m] -= coef[:, None] * work[j]
        norms = np.sqrt(np.einsum("msp,msp->m", work.conj(), work).real * dv)
        if np.any(norms < 1e-10):
            dependent = True
        if not dependent:
            break
        if attempt == _GS_RETRIES:
            raise ConvergenceError(
                "orbitals remain linearly dependent after deterministic perturbation")
        if board is None:
            board = _checkerboard(grid).ravel()
        for m in np.nonzero(norms < 1e-10)[0]:
            work[m] = psi.reshape(n_orb, n_sec, -1)[m]
            work[m, 0] += _PERTURB_AMPLITUDE * (m + 1) * board

    return (work / norms[:, None, None]).reshape(psi.shape)


def _imaginary_time_step(psi: np.ndarray, apply: Callable, dv: float) -> np.ndarray:
    """One imaginary-time step psi - tau H psi of every orbital under a frozen H.

    Per orbital, tau minimizes the Rayleigh quotient of (1 - tau H) phi, from
    the moments <H>, <H^2> and <H^3>.  ``psi`` is the bare array (orbitals,
    sectors, *grid) and ``apply(psi) -> H psi`` the Hamiltonian.
    """
    h_psi = apply(psi)
    h2_psi = apply(h_psi)
    n_orb = psi.shape[0]
    flat, w, hw = (a.reshape(n_orb, -1) for a in (psi, h_psi, h2_psi))
    # plain floats: the same IEEE arithmetic as numpy scalars, at less cost
    m1 = (np.einsum("mp,mp->m", flat.conj(), w).real * dv).tolist()
    m2 = (np.einsum("mp,mp->m", w.conj(), w).real * dv).tolist()
    m3 = (np.einsum("mp,mp->m", w.conj(), hw).real * dv).tolist()
    taus = np.full(n_orb, _FALLBACK_STEP)
    for m in range(n_orb):
        a = m2[m] ** 2 - m1[m] * m3[m]
        b = m3[m] - m1[m] * m2[m]
        c = m1[m] ** 2 - m2[m]
        candidates = []
        if abs(a) > 1e-300:
            disc = b * b - 4.0 * a * c
            if disc >= 0:
                root = math.sqrt(disc)
                candidates = [(-b + root) / (2 * a), (-b - root) / (2 * a)]
        elif abs(b) > 1e-300:
            candidates = [-c / b]
        best, best_e = None, None
        for tau in candidates:
            if not math.isfinite(tau) or tau <= 0:
                continue
            denom = 1.0 - 2.0 * tau * m1[m] + tau**2 * m2[m]
            if denom <= 1e-12:
                continue
            e = (m1[m] - 2.0 * tau * m2[m] + tau**2 * m3[m]) / denom
            if best_e is None or e < best_e:
                best, best_e = tau, e
        if best is not None:
            taus[m] = best
    shape = (-1,) + (1,) * (psi.ndim - 1)
    return psi - taus.reshape(shape) * h_psi


def total_energy(system: ElectronSystem, orbitals: OrbitalSet,
                 cavity: CavityMode | None, *,
                 potential: KsPotential | None = None) -> EnergyDecomposition:
    """Energy of an orbital set, decomposed into additive pieces.

    The photon energy counts the mode once, w * sum_n (n + 1/2) P_n, and
    the mean-field dipole self-interaction enters as mu^2 / 2, so the sum
    reduces to the bare Kohn-Sham energy plus w/2 when the coupling is
    switched off.

    ``potential``, when given, must be the Kohn-Sham potential assembled
    from this orbital set's density: its ``v_ion``, ``e_hartree`` and
    ``e_xc`` are used instead of assembling them again.
    """
    lap = laplacian(orbitals.psi, system.grid)
    density = electron_density(orbitals)
    if potential is None:
        potential = assemble_ks(density, system)
    return _energy(system.grid, cavity, orbitals.psi, orbitals.occupations, orbitals.abs2(),
                   lap, density, potential)


def _energy(grid, cavity: CavityMode | None, psi: np.ndarray, occupations: np.ndarray,
            abs2: np.ndarray, lap: np.ndarray, density: Density,
            potential: KsPotential) -> EnergyDecomposition:
    """:func:`total_energy` from the pieces an SCF iteration has already formed.

    ``abs2`` is |psi|^2, ``lap`` the Laplacian of ``psi``, and ``density``
    and ``potential`` are the density of ``psi`` and its Kohn-Sham potential.
    """
    dv = grid.volume_element
    n_orb = psi.shape[0]
    flat = psi.reshape(n_orb, -1)
    per_orb = -0.5 * np.einsum("mp,mp->m", flat.conj(), lap.reshape(n_orb, -1)).real * dv
    e_kin = float(occupations @ per_orb)

    e_h, e_xc = potential.e_hartree, potential.e_xc
    e_ext = float((density.values * potential.v_ion).sum()) * dv

    if cavity is None:
        return EnergyDecomposition(e_kin, e_ext, e_h, e_xc, 0.0, 0.0, 0.0)

    pn = sector_probabilities(abs2, occupations, dv)
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


def orbital_eigenvalues(orbitals: OrbitalSet, apply: Callable) -> np.ndarray:
    """Expectation values <Phi_m|H|Phi_m> of the Hamiltonian ``apply(psi) -> H psi``."""
    h_psi = apply(orbitals.psi)
    dv = orbitals.grid.volume_element
    flat = orbitals.psi.reshape(orbitals.n_orbitals, -1)
    w = h_psi.reshape(orbitals.n_orbitals, -1)
    return np.einsum("mp,mp->m", flat.conj(), w).real * dv


def _oscillation_count(deltas) -> int:
    """Sign changes between consecutive non-zero entries (NaN has no sign)."""
    signs = [(d > 0) - (d < 0) for d in map(float, deltas) if d != 0.0]
    return sum(a * b < 0 for a, b in zip(signs, signs[1:]))


def _alternating(values) -> bool:
    """True when the last four entries zig-zag (a period-2 cycle)."""
    if len(values) < 4:
        return False
    a, b, c, d = values[-4:]
    return (b - a) * (c - b) < 0 and (c - b) * (d - c) < 0


def state_from_orbitals(system: ElectronSystem, cavity: CavityMode | None,
                        orbitals: OrbitalSet) -> ScfState:
    """The full state (density, potential, energy) of orbitals that fit the problem."""
    _check_orbitals(orbitals, system, cavity)
    density = electron_density(orbitals)
    return _state(system, cavity, orbitals, density, assemble_ks(density, system), [])


def _state(system: ElectronSystem, cavity: CavityMode | None, orbitals: OrbitalSet,
           density: Density, potential: KsPotential, history: list,
           minimizer: str | None = None) -> ScfState:
    """The state of ``orbitals``, given their density and its Kohn-Sham potential."""
    return ScfState(orbitals=orbitals, density=density, potential=potential,
                    mu=mean_dipole_mu(density, cavity), cavity=cavity, system=system,
                    energy=total_energy(system, orbitals, cavity, potential=potential),
                    iterations=len(history), history=history, minimizer=minimizer)


def _check_orbitals(orbitals: OrbitalSet, system: ElectronSystem,
                    cavity: CavityMode | None) -> None:
    """Raise unless ``orbitals`` belong to this system's grid, electrons and Fock space."""
    if orbitals.grid != system.grid:
        raise UsageError(f"orbitals on grid {orbitals.grid} do not match "
                         f"the system's {system.grid}")
    if not np.array_equal(orbitals.occupations, system.occupations):
        raise UsageError(f"orbitals carry occupations {orbitals.occupations.tolist()}, "
                         f"the system {system.occupations.tolist()}")
    n_sectors = cavity.n_sectors if cavity is not None else 1
    if orbitals.n_sectors != n_sectors:
        raise UsageError(f"orbitals have {orbitals.n_sectors} photon sectors, "
                         f"the problem {n_sectors}")


def scf_solve(system: ElectronSystem, cavity: CavityMode | None,
              cfg: ScfConfig | None = None, *,
              initial_orbitals: OrbitalSet | None = None,
              log=None) -> ScfState:
    """Run the ground-state iteration to self-consistency.

    ``initial_orbitals``, when given, must lie on the system's grid, carry
    its occupations and have the cavity's number of photon sectors.
    ``log``, when given, receives one tab-separated line per iteration:
    iteration, total energy, energy change, the convergence measure (the
    L1 density change for imaginary time, the residual norm for conjugate
    gradients), and the photon occupations.  The returned state's energy
    is :func:`total_energy` of its orbitals, the last iteration's energy
    bit for bit.  Conjugate gradients take one orbital only; more raise
    :class:`ConfigurationError`.  The engine that ran, given by
    :func:`_resolve_minimizer`, is the state's ``minimizer``.
    """
    cfg = cfg or ScfConfig()
    grid = system.grid
    minimizer = _resolve_minimizer(cfg, system)
    if minimizer == "conjugate-gradient" and system.n_orbitals > 1:
        raise ConfigurationError(
            f"minimizer 'conjugate-gradient' takes one orbital, the system has "
            f"{system.n_orbitals}; use 'imaginary-time' for several orbitals")
    if initial_orbitals is not None:
        _check_orbitals(initial_orbitals, system, cavity)
    v_ion = external_potential(system)
    orbitals = initial_orbitals if initial_orbitals is not None else init_orbitals(
        system, cavity)
    orbitals = gram_schmidt_sectorwise(orbitals)

    solve = _mixing_loop if minimizer == "imaginary-time" else _direct_minimization
    psi, density, pot, history = solve(system, cavity, cfg, orbitals.psi,
                                       orbitals.occupations, v_ion, log)
    return _state(system, cavity, OrbitalSet(psi, orbitals.occupations, grid), density, pot,
                  history, minimizer)


def _resolve_minimizer(cfg: ScfConfig, system: ElectronSystem) -> str:
    """The engine ``scf_solve`` runs: ``cfg.minimizer``, or the problem's pick.

    With no minimizer given, one orbital on a 1D grid runs conjugate
    gradients.  Several orbitals stay on imaginary time, since the direct
    engine has no orthonormality constraint, and so do 3D grids, whose
    Hartree operator is not self-adjoint.
    """
    if cfg.minimizer is not None:
        return cfg.minimizer
    if system.n_orbitals == 1 and system.grid.dim == 1:
        return "conjugate-gradient"
    return "imaginary-time"


def _log_line(log, record: dict, measure: float, psi: np.ndarray, occ: np.ndarray,
              grid, cavity: CavityMode | None) -> None:
    """Hand ``log`` the tab-separated line of one iteration."""
    pn = (photon_occupations(OrbitalSet(psi, occ, grid)) if cavity is not None
          else np.array([1.0]))
    cols = [str(record["iteration"]), f"{record['energy']:.12e}",
            f"{record['delta_energy']:.3e}", f"{measure:.3e}"] + [f"{p:.6e}" for p in pn]
    log("\t".join(cols))


def _mixing_loop(system, cavity, cfg, psi, occ, v_ion, log):
    """Imaginary-time steps under a frozen H, with damped linear density mixing.

    Returns the converged orbitals, their density and potential, and the
    history; raises :class:`ConvergenceError` when the budget runs out.
    """
    grid = system.grid
    rho_in = density_values(np.abs(psi) ** 2, occ)
    mixing = _MIXING
    energy_prev = None
    history = []
    deltas = []
    rho_deltas = []
    streak = 0
    halvings = 0
    calm = 0
    rho_at_halving = np.inf
    converged = False

    for iteration in range(1, cfg.max_iterations + 1):
        density_in = Density(rho_in, grid)
        pot = assemble_ks(density_in, system, v_ion=v_ion)
        mu = mean_dipole_mu(density_in, cavity)
        # resolved in this module at each call, where bench/tracer.py wraps it
        stepped = _imaginary_time_step(
            psi, lambda p: apply_hamiltonian(p, pot.total, mu, cavity, grid),
            grid.volume_element)
        psi = _orthonormalized(stepped, grid)

        abs2 = np.abs(psi) ** 2
        density_out = Density(density_values(abs2, occ), grid)
        rho_out = density_out.values
        pot_out = assemble_ks(density_out, system, v_ion=v_ion)
        energy = _energy(grid, cavity, psi, occ, abs2, laplacian(psi, grid), density_out,
                         pot_out).total
        d_e = np.inf if energy_prev is None else energy - energy_prev
        d_rho = float(np.abs(rho_out - rho_in).sum()) * grid.volume_element

        history.append({"iteration": iteration, "energy": energy,
                        "delta_energy": d_e, "delta_density": d_rho,
                        "mixing": mixing})
        if log is not None:
            _log_line(log, history[-1], d_rho, psi, occ, grid, cavity)

        # damp the mixing when the energy history alternates in sign or the
        # density residual settles into a period-2 cycle; changes at the
        # convergence noise floor do not count, and a calm stretch restores
        # the damping toward _MIXING
        rho_deltas.append(d_rho)
        oscillating = False
        if math.isfinite(d_e) and abs(d_e) > 10.0 * cfg.tol_energy:
            deltas.append(d_e)
            oscillating = len(deltas) >= 4 and _oscillation_count(deltas[-4:]) == 3
        if d_rho > 10.0 * cfg.tol_density and _alternating(rho_deltas):
            oscillating = True
        if oscillating:
            mixing = max(mixing / 2.0, 0.02)
            halvings += 1
            calm = 0
            rho_at_halving = d_rho
            deltas.clear()
            rho_deltas.clear()
        else:
            calm += 1
        # restore damping only once the residual shows real progress
        if calm >= 25 and mixing < _MIXING and d_rho < 0.5 * rho_at_halving:
            mixing = min(2.0 * mixing, _MIXING)
            calm = 0

        if abs(d_e) < cfg.tol_energy and d_rho < cfg.tol_density:
            streak += 1
            if streak >= 2:
                converged = True
        else:
            streak = 0
        if converged:
            break

        energy_prev = energy
        rho_in = (1.0 - mixing) * rho_in + mixing * rho_out

    if not converged:
        diag = {
            "oscillations": _oscillation_count([h["delta_energy"] for h in history[1:]]),
            "mixing_halvings": halvings,
            "final_mixing": mixing,
            "last_delta_energy": history[-1]["delta_energy"],
            "last_delta_density": history[-1]["delta_density"],
        }
        raise ConvergenceError(
            f"SCF did not converge in {cfg.max_iterations} iterations "
            f"(|dE|={diag['last_delta_energy']:.3e}, L1(drho)={diag['last_delta_density']:.3e}, "
            f"{diag['oscillations']} energy-sign oscillations, "
            f"{halvings} mixing halvings)",
            history=history, diagnostics=diag)
    return psi, density_out, pot_out, history


@dataclass
class _Point:
    """One orbital with its density, potential and energy gradient."""

    psi: np.ndarray
    abs2: np.ndarray
    density: Density
    pot: KsPotential
    mu: float
    h_mean: float
    grad: np.ndarray


def _direct_minimization(system, cavity, cfg, psi, occ, v_ion, log):
    """Nonlinear conjugate gradients on the energy of one normalized orbital.

    The gradient is the occupation-weighted residual c (H[rho] - <H>) phi
    with H built from the orbital's own density, so there is no mixing.
    Directions are Polak-Ribiere+, the old one projected onto the new
    tangent space and dropped when the sum is not a descent direction.
    Each line search steps to the minimum of the frozen-H quadratic model
    along d (one more H product), capped at t |d| <= 1, then retracts by
    normalization; when the exact directional derivative there has not
    fallen below half its starting size, one secant step on it replaces
    the trial point.  Energies are never compared.  The solve stops when
    the residual norm is below ``tol_density`` and the energy change below
    ``tol_energy``.
    """
    grid = system.grid
    dv = grid.volume_element
    weight = float(occ[0])

    def dot(a, b):
        return float(np.vdot(a, b).real) * dv

    def evaluate(psi):
        abs2 = np.abs(psi) ** 2
        density = Density(density_values(abs2, occ), grid)
        pot = assemble_ks(density, system, v_ion=v_ion)
        mu = mean_dipole_mu(density, cavity)
        # resolved in this module at each call, where bench/tracer.py wraps it
        h_psi = apply_hamiltonian(psi, pot.total, mu, cavity, grid)
        h_mean = dot(psi, h_psi)
        return _Point(psi, abs2, density, pot, mu, h_mean, weight * (h_psi - h_mean * psi))

    def line_search(x, d):
        h_d = apply_hamiltonian(d, x.pot.total, x.mu, cavity, grid)
        dd = dot(d, d)
        slope = dot(d, x.grad)
        curvature = weight * (dot(d, h_d) - x.h_mean * dd)
        # uncapped, the cold start's first step sends the two-electron dimer
        # of dimer-kick to another self-consistent state, 0.049 Ha higher
        cap = 1.0 / math.sqrt(dd)
        t = min(-slope / curvature, cap) if curvature > 0 else cap
        y = evaluate(_orthonormalized(x.psi + t * d, grid))
        # the energy's derivative along the retracted path psi + t d
        slope_t = dot(d, y.grad) / math.sqrt(1.0 + t * t * dd)
        if abs(slope_t) < 0.5 * abs(slope) or slope_t <= slope:
            return y, False
        t = min(t * slope / (slope - slope_t), cap)
        return evaluate(_orthonormalized(x.psi + t * d, grid)), True

    x = evaluate(psi)
    gg = dot(x.grad, x.grad)
    d = -x.grad
    energy_prev = None
    history = []
    secants = 0
    for iteration in range(1, cfg.max_iterations + 1):
        y, secant = line_search(x, d)
        secants += secant
        energy = _energy(grid, cavity, y.psi, occ, y.abs2, laplacian(y.psi, grid),
                         y.density, y.pot).total
        d_e = np.inf if energy_prev is None else energy - energy_prev
        gg_prev, gg = gg, dot(y.grad, y.grad)
        residual = math.sqrt(gg)
        history.append({"iteration": iteration, "energy": energy, "delta_energy": d_e,
                        "residual": residual, "secant": secant})
        if log is not None:
            _log_line(log, history[-1], residual, y.psi, occ, grid, cavity)
        if residual < cfg.tol_density and abs(d_e) < cfg.tol_energy:
            return y.psi, y.density, y.pot, history

        beta = max(0.0, (gg - dot(y.grad, x.grad)) / gg_prev)
        d = -y.grad + beta * (d - (np.vdot(y.psi, d) * dv) * y.psi)
        if dot(d, y.grad) >= 0.0:
            d = -y.grad
        x, energy_prev = y, energy

    diag = {"last_residual": history[-1]["residual"],
            "last_delta_energy": history[-1]["delta_energy"],
            "secant_fallbacks": secants}
    raise ConvergenceError(
        f"SCF did not converge in {cfg.max_iterations} iterations "
        f"(|r|={diag['last_residual']:.3e}, |dE|={abs(diag['last_delta_energy']):.3e}, "
        f"{secants} secant fallbacks)",
        history=history, diagnostics=diag)
