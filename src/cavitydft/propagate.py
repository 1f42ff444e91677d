"""Real-time propagation: one stepping driver for both photon schemes.

The propagator is the truncated Taylor expansion of exp(-i H dt); the
mean-field potentials are frozen across a step and rebuilt from the new
density afterwards.  :func:`propagate` runs the tensor-product scheme, with
orbitals on the Fock space of the cavity, and
:func:`~cavitydft.qedft.qedft_propagate` the classical-photon scheme, with
plain Kohn-Sham orbitals and a classical photon coordinate.  Both go
through the one loop :func:`_drive`; a scheme supplies only its photon
term of the local potential, how it advances its photon state, and its
photon columns and energy.

H is one :class:`SparseHamiltonian` per run: its field-free part
(:func:`~cavitydft.cavity.field_free_hamiltonian`) is built once, and each
step writes only the local potential V_KS + photon term + E(t).r into its
diagonal, so every application of H is one sparse product.  The SCF applies
the same operator, so a converged ground state is stationary under the
propagator.  The loop works on the bare orbital array: each step forms
|psi|^2 once and takes from it the norms (the drift guard and the
finiteness check), the sector densities p_n, and from those the density,
P_n and the sector dipoles; the mean field is one :func:`assemble_ks` per
step.  An :class:`OrbitalSet` is made only for the returned and the
aborted state.  A constant per-orbital energy shift (a pure phase), each
orbital's expectation value of H at t = 0 without the laser term,
conditions the expansion so that norm conservation is limited by the
energy spread rather than the absolute energy scale.  Orbitals are never
re-orthogonalized during propagation; what is guarded is the norm of each
orbital (its drift per step) and the finiteness of the orbitals and of
every sample.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .cavity import CavityMode, OrbitalSet, SparseHamiltonian, coupling_field
from .errors import ConfigurationError, PropagationAborted, StepSizeError
from .potentials import Density, assemble_ks
from .scf import ScfState, _energy, orbital_eigenvalues
# kept bound here because bench/run.py:trace_layers wraps this name in this module
from .scf import total_energy  # noqa: F401
from .timeseries import TimeSeries, axis_name

TAYLOR_ORDER = 4


@dataclass
class LaserPulse:
    """Continuous pulse E(t) = amplitude * sin(pi t / (6 T))^2 * sin(w_L t).

    ``envelope_time`` T defaults to 2/w_L; the literature also uses
    2 pi / w_L, which the run configuration's ``laser_envelope_rule =
    two-pi`` sets.  The field is polarized along ``axis`` and enters the
    Hamiltonian in length gauge as +E(t) r.
    """

    amplitude: float
    carrier: float
    envelope_time: float | None = None
    axis: int = 0

    def __post_init__(self):
        if not self.carrier > 0:
            raise ConfigurationError("laser carrier frequency must be positive")
        if self.envelope_time is None:
            self.envelope_time = 2.0 / self.carrier

    def field(self, t: float) -> float:
        return (self.amplitude
                * np.sin(np.pi * t / (6.0 * self.envelope_time)) ** 2
                * np.sin(self.carrier * t))


@dataclass
class PropConfig:
    """Propagation controls: step size, duration, excitation protocol."""

    dt: float
    n_steps: int
    stride: int = 1
    kick_strength: float = 0.0
    kick_axis: int = 0
    laser: LaserPulse | None = None
    norm_tol_step: float = 1e-10

    def __post_init__(self):
        if not self.dt > 0:
            raise ConfigurationError("time step must be positive")
        if self.n_steps < 1:
            raise ConfigurationError("n_steps must be >= 1")
        if self.stride < 1:
            raise ConfigurationError("sampling stride must be >= 1")
        if not self.norm_tol_step > 0:
            raise ConfigurationError(f"norm_tol_step must be positive, got {self.norm_tol_step}")
        if not math.isfinite(self.kick_strength):
            raise ConfigurationError(f"kick_strength must be finite, got {self.kick_strength}")


def taylor_step(psi: np.ndarray, apply: Callable, dt: float,
                shifts: np.ndarray) -> np.ndarray:
    """One Taylor step of exp(-i H dt) on an orbital stack, about a shift per orbital.

    ``apply(psi)`` returns H psi as a new array.  ``shifts`` holds one real
    energy per leading orbital: the expansion sum_j (-i dt)^j / j! (H -
    shift)^j, j <= TAYLOR_ORDER, is taken and the exact phase
    exp(-i shift dt) restored afterwards.
    """
    psi = np.asarray(psi, dtype=complex)
    shifts = np.asarray(shifts, dtype=float).reshape((-1,) + (1,) * (psi.ndim - 1))
    term = psi
    out = psi.copy()
    for j in range(1, TAYLOR_ORDER + 1):
        # apply returns a new array, so the next term is formed in place
        h_term = apply(term)
        h_term -= shifts * term
        h_term *= -1j * dt / j
        out += h_term
        term = h_term
    out *= np.exp(-1j * shifts * dt)
    return out


def delta_kick(orbitals: OrbitalSet, strength: float, axis: int = 0) -> OrbitalSet:
    """Multiply every sector component by exp(i k r_axis) (a pure phase)."""
    if strength == 0.0:
        return orbitals.copy()
    phase = np.exp(1j * strength * orbitals.grid.coordinate(axis))
    return OrbitalSet(orbitals.psi * phase, orbitals.occupations, orbitals.grid)


@dataclass
class _Scheme:
    """What one photon scheme brings to the stepping loop of :func:`_drive`.

    ``cavity`` is the coupled mode, recorded in the series metadata.
    ``photon_potential(mu)`` returns the photon term of the local potential
    for the next step, given mu = lam . D of the density; it is called at
    t = 0 and after every step, with the new density's mu, and advances
    the scheme's photon state.  ``sample(energy)`` turns the electronic
    energy of a sample into that sample's photon columns and its energy
    ``E``.
    """

    method: str
    cavity: CavityMode | None
    photon_potential: Callable
    sample: Callable


def propagate(state: ScfState, cfg: PropConfig) -> tuple[TimeSeries, OrbitalSet]:
    """Propagate a converged ground state on its Fock space and record observables.

    The orbitals carry the photon sectors of ``state.cavity`` (one plain
    Kohn-Sham stack without a cavity); the local term is V_KS + mu (lam.r)
    and each sample's energy is that of :func:`total_energy` with the cavity.
    See :func:`_drive` for the stepping, the checks and the recorded series.
    """
    cavity = state.cavity
    lam_r = coupling_field(cavity, state.system.grid) if cavity is not None else 0.0
    scheme = _Scheme("tensor-product", cavity,
                     photon_potential=lambda mu: mu * lam_r,
                     sample=lambda energy: {"E": energy})
    return _drive(state, cfg, scheme)


def _drive(state: ScfState, cfg: PropConfig,
           scheme: _Scheme) -> tuple[TimeSeries, OrbitalSet]:
    """The stepping loop shared by the tensor-product and classical-photon schemes.

    Applies the configured delta kick at t = 0, then advances ``n_steps``
    Taylor steps under the static operator of ``state.cavity`` plus the
    local term V_KS + photon term + E(t).r, the laser taken at mid-step;
    the mean-field potential is rebuilt from the density after every step.
    Every ``stride`` steps a sample records t, the dipole, on a Fock space
    <q>, P_n and the sector dipoles, the scheme's columns and E, and the
    norm; the energy is :func:`total_energy`'s formula read off one more
    product with the matrix H as it stands.  A kick or laser axis outside
    the grid raises :class:`ConfigurationError` before the first step.
    Norm drift beyond ``norm_tol_step`` per step raises
    :class:`StepSizeError`; non-finite orbitals or samples abort with the
    last good state and the series of the samples before it attached.
    """
    system, fock = state.system, state.cavity
    grid = system.grid
    axes_used = {"kick_axis": cfg.kick_axis}
    if cfg.laser is not None:
        axes_used["laser axis"] = cfg.laser.axis
    for name, axis in axes_used.items():
        if not 0 <= axis < grid.dim:
            raise ConfigurationError(f"{name} {axis} is not an axis of a {grid.dim}D grid")
    dv = grid.volume_element
    kicked = delta_kick(state.orbitals, cfg.kick_strength, cfg.kick_axis)
    occ, n_el = kicked.occupations, kicked.n_electrons
    psi = np.ascontiguousarray(kicked.psi)
    n_orb, n_sec = psi.shape[:2]
    v_ion = state.potential.v_ion
    # one column per axis, so the sector dipoles are one product
    positions = np.stack([grid.coordinate(a).ravel() for a in range(grid.dim)], axis=1)
    lam = scheme.cavity.lam if scheme.cavity is not None else None
    axes = [axis_name(a) for a in range(grid.dim)]
    dipole_names = [f"D{a}" for a in axes]
    if fock is not None:
        occupation_names = [f"P{n}" for n in range(n_sec)]
        sector_names = [f"D{a}_s{n}" for n in range(n_sec) for a in axes]
        # <q> = sum_m c_m sum_n 2 sqrt(n+1) Re<phi_mn|phi_m,n+1> / sqrt(2 w)
        q_weights = 2.0 * fock.sqrt_n[1:n_sec] * dv / np.sqrt(2.0 * fock.omega)
    names: list = []
    table = None  # one row per sample, allocated once the first sample names the columns
    n_rows = 0
    max_drift = 0.0

    def series() -> TimeSeries:
        meta = {"method": scheme.method, "dt": cfg.dt, "n_steps": cfg.n_steps,
                "propagator_order": TAYLOR_ORDER, "stride": cfg.stride,
                "max_norm_drift": f"{max_drift:.3e}", "n_electrons": system.n_electrons}
        if cfg.kick_strength:
            meta["kick_strength"] = cfg.kick_strength
            meta["kick_axis"] = axis_name(cfg.kick_axis)
        if cfg.laser is not None:
            meta["laser_amplitude"] = cfg.laser.amplitude
            meta["laser_carrier"] = cfg.laser.carrier
            meta["laser_envelope_time"] = cfg.laser.envelope_time
            meta["laser_axis"] = axis_name(cfg.laser.axis)
        if scheme.cavity is not None:
            meta["cavity_omega"] = scheme.cavity.omega
            meta["cavity_lambda"] = " ".join(f"{c:g}" for c in scheme.cavity.lam)
        if fock is not None:
            meta["n_fock"] = fock.n_fock
        return TimeSeries(columns=dict(zip(names, table[:n_rows].T.copy())), meta=meta)

    def abort(message, psi, t):
        raise PropagationAborted(message, series=series(), orbitals=OrbitalSet(psi, occ, grid),
                                 time=t)

    def norms_of(abs2):
        return np.sqrt(abs2.reshape(n_orb, -1).sum(axis=1) * dv)

    def densities(abs2):
        """Sector densities p_n = sum_m c_m |phi_mn|^2, rho, the sector dipoles and mu."""
        p = (occ @ abs2.reshape(n_orb, -1)).reshape(n_sec, -1)
        rho = p.sum(axis=0)
        dipoles = (p @ positions) * dv
        mu = float(dipoles.sum(axis=0) @ lam) if lam is not None else 0.0
        return p, rho, dipoles, mu

    def record(t, psi, norms, p, rho, dipoles, mu, pot, v_diag):
        nonlocal table, n_rows
        row = {"t": t}
        row.update(zip(dipole_names, dipoles.sum(axis=0).tolist()))
        pn = p.sum(axis=1) * (dv / n_el) if fock is not None else None
        if fock is not None:
            # Re<phi_mn|phi_m,n+1> from the real and imaginary parts side by side
            f = psi.view(float).reshape(n_orb, n_sec, -1)
            row["q"] = float(occ @ np.einsum("mnp,mnp->mn", f[:, :-1], f[:, 1:]) @ q_weights)
            row.update(zip(occupation_names, pn.tolist()))
        row.update(scheme.sample(_energy(grid, fock, psi, occ, hamiltonian.apply(psi), v_diag,
                                         rho, pn, mu, pot).total))
        row["norm"] = float(norms @ occ) / n_el
        if fock is not None:
            row.update(zip(sector_names, dipoles.ravel().tolist()))
        if table is None:
            names.extend(row)
            table = np.empty((cfg.n_steps // cfg.stride + 1, len(names)))
        values = list(row.values())
        if not all(map(math.isfinite, values)):
            bad = [name for name, value in row.items() if not math.isfinite(value)]
            abort(f"non-finite sample ({', '.join(bad)}) at t = {t:.6g}", psi, t)
        table[n_rows] = values
        n_rows += 1

    abs2 = np.abs(psi) ** 2
    norms_ref = norms_of(abs2)
    p, rho, dipoles, mu = densities(abs2)
    pot = assemble_ks(Density(rho.reshape(grid.shape), grid), system, v_ion=v_ion)
    v_local = pot.total + scheme.photon_potential(mu)
    hamiltonian = SparseHamiltonian(grid, fock, v_local)
    shifts = orbital_eigenvalues(kicked, hamiltonian.apply).reshape(
        (-1,) + (1,) * (psi.ndim - 1))
    t = 0.0
    record(t, psi, norms_ref, p, rho, dipoles, mu, pot, v_local)

    for step in range(1, cfg.n_steps + 1):
        v_diag = v_local
        if cfg.laser is not None:
            v_diag = v_local + (cfg.laser.field(t + 0.5 * cfg.dt)
                                * grid.coordinate(cfg.laser.axis))
        hamiltonian.set_potential(v_diag)
        stepped = taylor_step(psi, hamiltonian.apply, cfg.dt, shifts)
        abs2 = np.abs(stepped) ** 2
        norms = norms_of(abs2)
        # a non-finite orbital value makes its norm, and so the drift, non-finite
        drift = float(np.max(np.abs(norms - norms_ref)))
        if not math.isfinite(drift):
            abort(f"non-finite orbital values at step {step} (t = {t + cfg.dt:.6g})", psi, t)
        psi = stepped
        t = step * cfg.dt

        max_drift = max(max_drift, drift)
        if drift > cfg.norm_tol_step * step:
            raise StepSizeError(
                f"norm drift {drift:.3e} after {step} steps exceeds "
                f"{cfg.norm_tol_step:.1e} per step; reduce dt below {cfg.dt}")

        p, rho, dipoles, mu = densities(abs2)
        pot = assemble_ks(Density(rho.reshape(grid.shape), grid), system, v_ion=v_ion)
        v_local = pot.total + scheme.photon_potential(mu)
        if step % cfg.stride == 0:
            record(t, psi, norms, p, rho, dipoles, mu, pot, v_diag)

    return series(), OrbitalSet(psi, occ, grid)
