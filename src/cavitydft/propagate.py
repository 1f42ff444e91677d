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

The field-free part of H (kinetic term, and on a Fock space the photon
energies and the ladder coupling) is built once per run as one sparse
matrix of about 12 bytes per nonzero, ~1.8 MB at 15^3 and ~40 MB at 41^3
with two sectors; only the diagonal potential V_KS + photon term + E(t).r
changes from step to step.  The Kohn-Sham potential built from each
step's density serves both the next step and the energy of that sample.
The local potential of each step is written into the diagonal of one
per-run copy of that matrix, so every application of H is one sparse
product.  Each step forms |psi|^2 once (:meth:`OrbitalSet.abs2` caches
it); the norm guard, the density and every recorded column (dipoles, P_n,
sector dipoles and the energy) are taken from it.  A constant per-orbital
energy shift (a pure phase), each orbital's expectation value of H at
t = 0 without the laser term, conditions the expansion so that norm
conservation is limited by the energy spread rather than the absolute
energy scale.  The kinetic stencil is the ground state's ``grid.order``,
the one its SCF used, so a converged state is stationary under the
propagator.  Orbitals are never re-orthogonalized during propagation;
what is guarded is the norm of each orbital (its drift per step) and the
finiteness of the orbitals and of every sample.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .cavity import (CavityMode, OrbitalSet, SparseHamiltonian, coupling_field,
                     electron_density, field_free_hamiltonian, mean_dipole_mu,
                     photon_occupations, q_expectation, sector_dipoles)
from .errors import ConfigurationError, PropagationAborted, StepSizeError
from .grid import dipole_vector
from .potentials import assemble_ks
from .scf import ScfState, orbital_eigenvalues, total_energy
from .timeseries import TimeSeries, axis_name

TAYLOR_ORDER = 4


@dataclass
class LaserPulse:
    """Continuous pulse E(t) = amplitude * sin(pi t / (6 T))^2 * sin(w_L t).

    ``envelope_time`` defaults to 2/w_L; setting ``two_pi_envelope`` uses
    2 pi / w_L instead (both conventions appear in the literature).  The
    field is polarized along ``axis`` and enters the Hamiltonian in length
    gauge as +E(t) r.
    """

    amplitude: float
    carrier: float
    envelope_time: float | None = None
    axis: int = 0
    two_pi_envelope: bool = False

    def __post_init__(self):
        if not self.carrier > 0:
            raise ConfigurationError("laser carrier frequency must be positive")
        if self.envelope_time is None:
            self.envelope_time = ((2.0 * np.pi / self.carrier)
                                  if self.two_pi_envelope else 2.0 / self.carrier)

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


def taylor_step(psi: np.ndarray, apply: Callable, dt: float,
                shifts: np.ndarray | None = None) -> np.ndarray:
    """One Taylor step sum_j (-i dt)^j / j! H^j, j <= TAYLOR_ORDER, on an orbital stack.

    ``apply(psi)`` returns H psi as a new array.  ``shifts`` holds
    one real energy per leading orbital; when given, the expansion uses
    H - shift and the exact phase exp(-i shift dt) is restored afterwards.
    """
    psi = np.asarray(psi, dtype=complex)
    if shifts is not None:
        shifts = np.asarray(shifts, dtype=float).reshape((-1,) + (1,) * (psi.ndim - 1))
    term = psi
    out = psi.copy()
    for j in range(1, TAYLOR_ORDER + 1):
        # apply returns a new array, so the next term is formed in place
        h_term = apply(term)
        if shifts is not None:
            h_term -= shifts * term
        h_term *= -1j * dt / j
        out += h_term
        term = h_term
    if shifts is not None:
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
    ``photon_potential(density)`` returns the photon term of the local
    potential for the next step; it is called at t = 0 and after every
    step, with the new density, and advances the scheme's photon state.
    ``sample(energy)`` turns the orbital energy of a sample into that
    sample's photon columns and its energy ``E``.
    """

    method: str
    cavity: CavityMode | None
    photon_potential: Callable
    sample: Callable


def propagate(state: ScfState, cfg: PropConfig) -> tuple[TimeSeries, OrbitalSet]:
    """Propagate a converged ground state on its Fock space and record observables.

    The orbitals carry the photon sectors of ``state.cavity`` (one plain
    Kohn-Sham stack without a cavity); the local term is V_KS + mu (lam.r)
    and each sample's energy is :func:`total_energy` with the cavity.
    See :func:`_drive` for the stepping, the checks and the recorded series.
    """
    cavity = state.cavity
    lam_r = coupling_field(cavity, state.system.grid) if cavity is not None else 0.0
    scheme = _Scheme("tensor-product", cavity,
                     photon_potential=lambda density: mean_dipole_mu(density, cavity) * lam_r,
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
    norm.  Norm drift beyond ``norm_tol_step`` per step raises
    :class:`StepSizeError`; non-finite orbitals or samples abort with the
    last good state and the series of the samples before it attached.
    """
    system, fock = state.system, state.cavity
    grid = system.grid
    v_ion = state.potential.v_ion
    orbitals = delta_kick(state.orbitals, cfg.kick_strength, cfg.kick_axis)
    columns: dict = {}
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
        return TimeSeries(columns={k: np.asarray(v) for k, v in columns.items()}, meta=meta)

    def abort(message, orbitals, t):
        raise PropagationAborted(message, series=series(), orbitals=orbitals, time=t)

    def record(t, orbitals, density, pot, norms):
        row = {"t": t}
        for a, d in enumerate(dipole_vector(density.values, grid)):
            row[f"D{axis_name(a)}"] = d
        if fock is not None:
            row["q"] = q_expectation(orbitals, fock)
            for n, p in enumerate(photon_occupations(orbitals)):
                row[f"P{n}"] = p
        energy = total_energy(system, orbitals, fock, potential=pot)
        row.update(scheme.sample(energy.total))
        row["norm"] = float(norms @ orbitals.occupations) / orbitals.n_electrons
        if fock is not None:
            for n, dip in enumerate(sector_dipoles(orbitals)):
                for a, d in enumerate(dip):
                    row[f"D{axis_name(a)}_s{n}"] = d
        if not columns:
            columns.update((name, []) for name in row)
        bad = [name for name, value in row.items() if not math.isfinite(value)]
        if bad:
            abort(f"non-finite sample ({', '.join(bad)}) at t = {t:.6g}", orbitals, t)
        for name, value in row.items():
            columns[name].append(value)

    density = electron_density(orbitals)
    pot = assemble_ks(density, system, v_ion=v_ion)
    v_local = pot.total + scheme.photon_potential(density)
    hamiltonian = SparseHamiltonian(field_free_hamiltonian(grid, fock), v_local)
    shifts = orbital_eigenvalues(orbitals, hamiltonian.apply)

    norms_ref = orbitals.norms()
    t = 0.0
    record(t, orbitals, density, pot, norms_ref)

    for step in range(1, cfg.n_steps + 1):
        v_step = v_local
        if cfg.laser is not None:
            v_step = v_local + (cfg.laser.field(t + 0.5 * cfg.dt)
                                * grid.coordinate(cfg.laser.axis))
        hamiltonian.set_potential(v_step)
        stepped = OrbitalSet(
            taylor_step(orbitals.psi, hamiltonian.apply, cfg.dt, shifts),
            orbitals.occupations, grid)
        norms = stepped.norms()
        # a non-finite orbital value makes its norm non-finite
        if not np.all(np.isfinite(norms)):
            abort(f"non-finite orbital values at step {step} (t = {t + cfg.dt:.6g})",
                  orbitals, t)
        orbitals = stepped
        t = step * cfg.dt

        drift = float(np.max(np.abs(norms - norms_ref)))
        max_drift = max(max_drift, drift)
        if drift > cfg.norm_tol_step * step:
            raise StepSizeError(
                f"norm drift {drift:.3e} after {step} steps exceeds "
                f"{cfg.norm_tol_step:.1e} per step; reduce dt below {cfg.dt}")

        density = electron_density(orbitals)
        pot = assemble_ks(density, system, v_ion=v_ion)
        v_local = pot.total + scheme.photon_potential(density)
        if step % cfg.stride == 0:
            record(t, orbitals, density, pot, norms)

    return series(), orbitals


def overlap_deviation(orbitals: OrbitalSet) -> float:
    """Max deviation of the full overlap matrix from the identity."""
    s = orbitals.overlap_matrix()
    return float(np.max(np.abs(s - np.eye(orbitals.n_orbitals))))
