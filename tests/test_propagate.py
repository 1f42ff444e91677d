import dataclasses
import functools
import sys

import numpy as np
import pytest

from cavitydft.cavity import (CavityMode, OrbitalSet, SparseHamiltonian, electron_density,
                              mean_dipole_mu, photon_occupations)
from cavitydft.config import parse_config
from cavitydft.errors import ConfigurationError, PropagationAborted, StepSizeError
from cavitydft.grid import Grid, dipole_integral
from cavitydft.potentials import ElectronSystem, Ion, assemble_ks
from cavitydft.propagate import LaserPulse, PropConfig, delta_kick, propagate, taylor_step
from cavitydft.qedft import initial_displacement, photon_exchange_potential, qedft_propagate
from cavitydft.scf import ScfConfig, orbital_eigenvalues, scf_solve, total_energy
from reference import q_expectation, sector_dipoles, stencil_apply_hamiltonian

# the package re-exports functions whose names shadow their modules
propagate_module = sys.modules["cavitydft.propagate"]
qedft_module = sys.modules["cavitydft.qedft"]
scf_module = sys.modules["cavitydft.scf"]


def stencil_hamiltonian(grid, cavity, v_local, mu):
    """psi -> H psi by the stencil reference with a frozen local potential."""
    return functools.partial(stencil_apply_hamiltonian, v_local=v_local, mu=mu, cavity=cavity,
                             grid=grid)


@pytest.fixture(scope="module")
def atom_state():
    g = Grid((121,), 0.4)
    atom = ElectronSystem(grid=g, ions=[Ion(1.0, (0.0,), 1.0)], occupations=[1.0])
    cav = CavityMode(omega=0.08, coupling=(0.05,), n_fock=2)
    return scf_solve(atom, cav, ScfConfig(tol_energy=1e-12, tol_density=1e-10,
                                          minimizer="conjugate-gradient",
                                          max_iterations=4000))


class TestLaserPulse:
    def test_default_envelope_rule(self):
        pulse = LaserPulse(amplitude=0.005, carrier=0.057)
        assert pulse.envelope_time == pytest.approx(2.0 / 0.057)

    def test_two_pi_rule(self, tmp_path):
        # the two-pi rule is a run-configuration key that sets envelope_time
        path = tmp_path / "run.cfg"
        path.write_text("[system]\ndim = 1\npoints = 21\nspacing = 0.4\noccupations = 1.0\n"
                        "[prop]\ndt = 0.05\nn_steps = 10\nlaser_amplitude = 0.005\n"
                        "laser_carrier = 0.057\nlaser_envelope_rule = two-pi\n")
        pulse = parse_config(path).prop.laser
        assert pulse.envelope_time == 2 * np.pi / 0.057
        assert pulse.field(7.3) == LaserPulse(0.005, 0.057, 2 * np.pi / 0.057).field(7.3)

    def test_field_form(self):
        pulse = LaserPulse(amplitude=0.01, carrier=0.1, envelope_time=20.0)
        t = 7.3
        expected = 0.01 * np.sin(np.pi * t / 120.0) ** 2 * np.sin(0.1 * t)
        assert pulse.field(t) == pytest.approx(expected)

    def test_bad_carrier(self):
        with pytest.raises(ConfigurationError):
            LaserPulse(amplitude=0.01, carrier=0.0)


class TestPropConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PropConfig(dt=-0.1, n_steps=10)
        with pytest.raises(ConfigurationError):
            PropConfig(dt=0.1, n_steps=0)

    @pytest.mark.parametrize("field, value", [
        ("norm_tol_step", np.nan), ("norm_tol_step", 0.0), ("norm_tol_step", -1e-10),
        ("kick_strength", np.nan), ("kick_strength", np.inf)])
    def test_non_finite_or_non_positive_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            PropConfig(dt=0.1, n_steps=10, **{field: value})


class TestTaylorStep:
    def test_zero_hamiltonian_identity(self):
        g = Grid((31,), 0.3)
        rng = np.random.default_rng(0)
        psi = rng.standard_normal((1, 1) + g.shape) * (1 + 0j)
        out = taylor_step(psi, np.zeros_like, 0.1, np.zeros(1))
        assert np.allclose(out, psi, atol=1e-15)

    def test_scalar_phase_truncation_error(self):
        # an exact eigenvector of the discrete Hamiltonian evolves by one
        # scalar phase; the Taylor defect is the exponential remainder
        n, h, v = 5, 1.0, 0.3
        g = Grid((n,), h, 3)
        ctx = stencil_hamiltonian(g, None, np.full(g.shape, v), 0.0)
        idx = np.arange(n)
        psi = np.sin(np.pi * (idx + 1) / (n + 1)).astype(complex)[None, None]
        t_kin = (1.0 - np.cos(np.pi / (n + 1))) / h**2
        z = t_kin + v
        dt = 1.0
        out = taylor_step(psi, ctx, dt, np.zeros(1))
        phase_err = np.max(np.abs(out - np.exp(-1j * z * dt) * psi))
        expected = abs(z * dt) ** 5 / 120.0
        assert phase_err == pytest.approx(expected, rel=0.1)

    def test_stationary_state_phase(self, atom_state):
        # field-free: |<phi(0)|phi(t)>| stays 1, phase advances at the
        # orbital eigenvalue rate
        system, cav = atom_state.system, atom_state.cavity
        g = system.grid
        density = electron_density(atom_state.orbitals)
        pot = assemble_ks(density, system)
        ctx = stencil_hamiltonian(g, cav, pot.total, mean_dipole_mu(density, cav))
        eps = orbital_eigenvalues(atom_state.orbitals, ctx)[0]
        psi = atom_state.orbitals.psi.copy()
        dt, n = 0.05, 1000
        for _ in range(n):
            psi = taylor_step(psi, ctx, dt, np.zeros(len(psi)))
        ov = np.vdot(atom_state.orbitals.psi, psi) * g.volume_element
        assert abs(abs(ov) - 1.0) < 1e-8
        phase_err = np.angle(ov * np.exp(1j * eps * dt * n))
        assert abs(phase_err) < 1e-6


class TestDeltaKick:
    def test_zero_strength_identity(self, atom_state):
        out = delta_kick(atom_state.orbitals, 0.0)
        assert np.array_equal(out.psi, atom_state.orbitals.psi)

    def test_norm_preserved_exactly(self, atom_state):
        out = delta_kick(atom_state.orbitals, 0.37)
        dv = atom_state.system.grid.volume_element
        norms = [np.sqrt(o.abs2().sum(axis=(1, 2)) * dv) for o in (out, atom_state.orbitals)]
        assert np.allclose(*norms, atol=1e-15)

    def test_momentum_boost(self):
        g = Grid((201,), 0.25)
        sys_ = ElectronSystem(grid=g, ions=[], occupations=[1.0],
                              use_hartree=False, use_xc=False, harmonic_omega=0.5)
        state = scf_solve(sys_, None, ScfConfig(tol_energy=1e-12,
                                                tol_density=1e-8,
                                                max_iterations=3000))
        k = 0.2
        kicked = delta_kick(state.orbitals, k)
        psi = kicked.psi[0, 0]
        # momentum via an 8th-order first-derivative stencil
        from scipy import ndimage
        d1 = np.array([3, -32, 168, -672, 0, 672, -168, 32, -3], float) / (840 * g.h)
        grad = (ndimage.correlate1d(psi.real, d1, mode="constant")
                + 1j * ndimage.correlate1d(psi.imag, d1, mode="constant"))
        p_expect = (np.vdot(psi, -1j * grad) * g.h).real
        assert p_expect == pytest.approx(k, abs=1e-6)


class TestPropagate:
    def test_field_free_ground_state_stationary(self, atom_state):
        series, final = propagate(atom_state, PropConfig(dt=0.05, n_steps=400))
        assert np.max(np.abs(series["Dx"] - series["Dx"][0])) < 1e-7
        assert np.max(np.abs(series["q"] - series["q"][0])) < 1e-7
        assert np.max(np.abs(series["norm"] - 1.0)) < 1e-10
        assert np.max(np.abs(series["E"] - series["E"][0])) < 1e-9
        assert np.max(np.abs(final.overlap_matrix() - np.eye(final.n_orbitals))) < 1e-8

    @pytest.mark.parametrize("order", [3, 5])
    def test_ground_state_stationary_under_its_own_stencil(self, order):
        # the SCF and the propagator take the stencil from the one grid, so a
        # converged state neither moves nor changes its energy
        system = ElectronSystem(grid=Grid((61,), 0.4, order=order),
                                ions=[Ion(1.0, (-1.2,), 1.0), Ion(1.0, (1.2,), 1.0)],
                                occupations=[2.0])
        cav = CavityMode(omega=0.3, coupling=(0.05,), n_fock=1)
        state = scf_solve(system, cav, ScfConfig(tol_energy=1e-12, tol_density=1e-10,
                                                 max_iterations=2000,
                                                 minimizer="imaginary-time"))
        series, _ = propagate(state, PropConfig(dt=0.05, n_steps=400))
        assert np.max(np.abs(series["P1"] - series["P1"][0])) < 1e-12
        assert abs(series["E"][0] - state.energy.total) < 1e-12

    @pytest.mark.parametrize("order", [3, 5])
    def test_default_ground_state_stationary_under_its_own_stencil(self, order):
        # the same on the default engine, conjugate gradients for this one
        # orbital; its residual stop needs a tighter tolerance for a 1e-12 drift
        system = ElectronSystem(grid=Grid((61,), 0.4, order=order),
                                ions=[Ion(1.0, (-1.2,), 1.0), Ion(1.0, (1.2,), 1.0)],
                                occupations=[2.0])
        cav = CavityMode(omega=0.3, coupling=(0.05,), n_fock=1)
        state = scf_solve(system, cav, ScfConfig(tol_energy=1e-12, tol_density=1e-11,
                                                 max_iterations=2000))
        assert state.minimizer == "conjugate-gradient"
        series, _ = propagate(state, PropConfig(dt=0.05, n_steps=400))
        assert np.max(np.abs(series["P1"] - series["P1"][0])) < 1e-12
        assert abs(series["E"][0] - state.energy.total) < 1e-12

    def test_kick_starts_dynamics(self, atom_state):
        series, _ = propagate(atom_state, PropConfig(dt=0.05, n_steps=400,
                                                     kick_strength=1e-2))
        assert np.max(np.abs(series["Dx"] - series["Dx"][0])) > 1e-3

    def test_sector_dipoles_sum_to_total(self, atom_state):
        series, _ = propagate(atom_state, PropConfig(dt=0.05, n_steps=200,
                                                     kick_strength=1e-2))
        total = sum(series[f"Dx_s{n}"] for n in range(3))
        assert np.max(np.abs(total - series["Dx"])) < 1e-12

    def test_stride_subsamples(self, atom_state):
        series, _ = propagate(atom_state, PropConfig(dt=0.05, n_steps=100,
                                                     stride=10))
        assert series.n_samples == 11
        assert series.t[1] == pytest.approx(0.5)

    def test_time_reversal_roundtrip(self, atom_state):
        system, cav = atom_state.system, atom_state.cavity
        g = system.grid
        orb = atom_state.orbitals.copy()
        density = electron_density(orb)
        pot = assemble_ks(density, system)
        ctx0 = stencil_hamiltonian(g, cav, pot.total, mean_dipole_mu(density, cav))
        shifts = orbital_eigenvalues(orb, ctx0)
        worst = 0.0
        psi = orb.psi
        for _ in range(20):
            density = electron_density(OrbitalSet(psi, orb.occupations, g))
            pot = assemble_ks(density, system)
            ctx = stencil_hamiltonian(g, cav, pot.total, mean_dipole_mu(density, cav))
            fwd = taylor_step(psi, ctx, 0.05, shifts)
            density2 = electron_density(OrbitalSet(fwd, orb.occupations, g))
            pot2 = assemble_ks(density2, system)
            ctx2 = stencil_hamiltonian(g, cav, pot2.total, mean_dipole_mu(density2, cav))
            back = taylor_step(fwd, ctx2, -0.05, shifts)
            worst = max(worst, float(np.max(np.abs(back - psi))))
            psi = fwd
        assert worst < 1e-9

    def test_norm_drift_raises_step_size_error(self, atom_state):
        # a absurdly large step makes the truncated expansion blow up
        with pytest.raises(StepSizeError):
            propagate(atom_state, PropConfig(dt=5.0, n_steps=10, norm_tol_step=1e-10))

    def test_laser_metadata_recorded(self, atom_state):
        pulse = LaserPulse(amplitude=0.001, carrier=0.06)
        series, _ = propagate(atom_state, PropConfig(dt=0.05, n_steps=50,
                                                     laser=pulse))
        assert series.meta["laser_carrier"] == 0.06
        assert "laser_envelope_time" in series.meta

    def test_nan_aborts_with_partial_series(self, atom_state):
        # a NaN laser amplitude leaves the t = 0 sample finite and poisons
        # the first step's potential
        cfg = PropConfig(dt=0.05, n_steps=10, laser=LaserPulse(amplitude=np.nan, carrier=0.06))
        with pytest.raises(PropagationAborted, match="at step 1 ") as info:
            propagate(atom_state, cfg)
        assert info.value.time == 0.0
        assert list(info.value.series.t) == [0.0]
        assert np.array_equal(info.value.orbitals.psi, atom_state.orbitals.psi)

    def test_nan_sample_aborts_with_finite_series(self, atom_state):
        # one NaN in the ionic potential makes the t = 0 energy sample NaN
        v_ion = atom_state.potential.v_ion.copy()
        v_ion[len(v_ion) // 2] = np.nan
        state = dataclasses.replace(
            atom_state, potential=dataclasses.replace(atom_state.potential, v_ion=v_ion))
        with pytest.raises(PropagationAborted, match="non-finite sample") as info:
            propagate(state, PropConfig(dt=0.05, n_steps=5))
        assert info.value.time == 0.0
        series = info.value.series
        assert all(np.all(np.isfinite(series[c])) for c in series.columns)
        assert series.n_samples == 0

    def test_identical_runs_bit_identical(self, atom_state):
        cfg = PropConfig(dt=0.05, n_steps=60, kick_strength=1e-3)
        s1, f1 = propagate(atom_state, cfg)
        s2, f2 = propagate(atom_state, cfg)
        assert np.array_equal(f1.psi, f2.psi)
        assert all(np.array_equal(s1[c], s2[c]) for c in s1.columns)


class TestMatchesStencilReference:
    """Both schemes against the stencil Hamiltonian rebuilt every step."""

    N_STEPS = 200

    @pytest.fixture(scope="class")
    def dimer(self):
        system = ElectronSystem(grid=Grid((161,), 0.45),
                                ions=[Ion(1.0, (-2.9,), 3.6), Ion(1.0, (2.9,), 3.6)],
                                occupations=[2.0])
        cav = CavityMode(omega=0.07, coupling=(0.03,), n_fock=1)
        cfg = ScfConfig(tol_energy=1e-8, tol_density=1e-5, max_iterations=2000)
        return scf_solve(system, cav, cfg), scf_solve(system, None, cfg), cav

    @pytest.fixture(scope="class")
    def kick(self):
        return PropConfig(dt=0.05, n_steps=self.N_STEPS, kick_strength=1e-3)

    @pytest.fixture(scope="class")
    def molecule(self):
        """A loosely converged 3D molecule with a cavity, and a short kick run."""
        system = ElectronSystem(grid=Grid((9, 9, 9), 0.6),
                                ions=[Ion(1.0, (-0.7, 0.0, 0.0), 1.0),
                                      Ion(1.0, (0.7, 0.0, 0.0), 1.0)],
                                occupations=[2.0])
        cav = CavityMode(omega=0.3, coupling=(0.05, 0.0, 0.0), n_fock=1)
        state = scf_solve(system, cav, ScfConfig(tol_energy=1e-6, tol_density=1e-4))
        return state, cav, PropConfig(dt=0.01, n_steps=20, kick_strength=1e-3)

    @pytest.fixture(params=["dimer", "molecule-3d"])
    def coupled(self, request):
        if request.param == "dimer":
            state, _, cav = request.getfixturevalue("dimer")
            return state, cav, request.getfixturevalue("kick")
        return request.getfixturevalue("molecule")

    def test_tensor_product(self, coupled):
        state, cav, kick = coupled
        system, g = state.system, state.system.grid
        v_ion = state.potential.v_ion
        orb = delta_kick(state.orbitals, kick.kick_strength)

        def context(psi):
            density = electron_density(OrbitalSet(psi, orb.occupations, g))
            pot = assemble_ks(density, system, v_ion=v_ion)
            return stencil_hamiltonian(g, cav, pot.total, mean_dipole_mu(density, cav))

        shifts = orbital_eigenvalues(orb, context(orb.psi))
        psi, dips, qs, occs, sectors = orb.psi, [], [], [], []
        for step in range(kick.n_steps + 1):
            if step:
                psi = taylor_step(psi, context(psi), kick.dt, shifts)
            current = OrbitalSet(psi, orb.occupations, g)
            dips.append(dipole_integral(electron_density(current).values, g))
            qs.append(q_expectation(current, cav))
            occs.append(photon_occupations(current))
            sectors.append(sector_dipoles(current))

        series, final = propagate(state, kick)
        assert np.max(np.abs(series["Dx"] - dips)) < 1e-12
        assert np.max(np.abs(series["q"] - qs)) < 1e-12
        occs, sectors = np.array(occs), np.array(sectors)  # (samples, n), (samples, n, axis)
        for n in range(cav.n_sectors):
            assert np.max(np.abs(series[f"P{n}"] - occs[:, n])) < 1e-12
            for a, name in enumerate("xyz"[:g.dim]):
                assert np.max(np.abs(series[f"D{name}_s{n}"] - sectors[:, n, a])) < 1e-12
        assert np.max(np.abs(final.psi - psi)) < 1e-12
        energy = total_energy(system, final, cav).total
        assert abs(series["E"][-1] - energy) < 1e-12

    def test_classical_photon(self, dimer, kick):
        _, state, cav = dimer
        system, g = state.system, state.system.grid
        v_ion = state.potential.v_ion
        orb = delta_kick(state.orbitals, kick.kick_strength)
        w, dt = cav.omega, kick.dt

        density = electron_density(orb)
        mu = mean_dipole_mu(density, cav)
        q, qdot = initial_displacement(state, cav), 0.0
        pot = assemble_ks(density, system, v_ion=v_ion)
        v_p = photon_exchange_potential(mu, q, cav, g)
        shifts = orbital_eigenvalues(orb, stencil_hamiltonian(g, None, pot.total + v_p, 0.0))
        acc = w * mu - w**2 * q
        psi, dips, qs = orb.psi, [dipole_integral(density.values, g)], [q]
        for _ in range(self.N_STEPS):
            pot = assemble_ks(density, system, v_ion=v_ion)
            v_p = photon_exchange_potential(mu, q, cav, g)
            ctx = stencil_hamiltonian(g, None, pot.total + v_p, 0.0)
            psi = taylor_step(psi, ctx, dt, shifts)
            q_new = q + dt * qdot + 0.5 * dt**2 * acc
            density = electron_density(OrbitalSet(psi, orb.occupations, g))
            mu = mean_dipole_mu(density, cav)
            acc_new = w * mu - w**2 * q_new
            q, qdot, acc = q_new, qdot + 0.5 * dt * (acc + acc_new), acc_new
            dips.append(dipole_integral(density.values, g))
            qs.append(q)

        series, final, osc = qedft_propagate(state, cav, kick)
        assert np.max(np.abs(series["Dx"] - dips)) < 1e-12
        assert np.max(np.abs(series["q"] - qs)) < 1e-12
        assert np.max(np.abs(final.psi - psi)) < 1e-12
        e_mat = total_energy(system, final, None).total
        energy = e_mat + 0.5 * mu**2 - w * osc.q * mu + osc.energy()
        assert abs(series["E"][-1] - energy) < 1e-12


    @pytest.fixture(scope="class")
    def laser(self):
        pulse = LaserPulse(amplitude=0.02, carrier=0.3)
        return PropConfig(dt=0.05, n_steps=self.N_STEPS, laser=pulse)

    @staticmethod
    def stencil(g, cav, v_local, mu, cfg, t):
        """The stencil reference with the laser field of the step from ``t``."""
        field = cfg.laser.field(t + 0.5 * cfg.dt) * g.coordinate(cfg.laser.axis)
        return stencil_hamiltonian(g, cav, v_local + field, mu)

    def test_tensor_product_laser(self, dimer, laser):
        state, _, cav = dimer
        system, g = state.system, state.system.grid
        v_ion = state.potential.v_ion
        orb = state.orbitals

        def mean_field(psi):
            density = electron_density(OrbitalSet(psi, orb.occupations, g))
            pot = assemble_ks(density, system, v_ion=v_ion)
            return pot.total, mean_dipole_mu(density, cav)

        v, mu = mean_field(orb.psi)
        shifts = orbital_eigenvalues(orb, stencil_hamiltonian(g, cav, v, mu))
        psi, dips, qs = orb.psi, [], []
        for step in range(self.N_STEPS + 1):
            if step:
                ctx = self.stencil(g, cav, *mean_field(psi), laser, (step - 1) * laser.dt)
                psi = taylor_step(psi, ctx, laser.dt, shifts)
            current = OrbitalSet(psi, orb.occupations, g)
            dips.append(dipole_integral(electron_density(current).values, g))
            qs.append(q_expectation(current, cav))

        series, final = propagate(state, laser)
        assert np.max(np.abs(series["Dx"] - series["Dx"][0])) > 1e-4
        assert np.max(np.abs(series["Dx"] - dips)) < 1e-12
        assert np.max(np.abs(series["q"] - qs)) < 1e-12
        assert np.max(np.abs(final.psi - psi)) < 1e-12
        energy = total_energy(system, final, cav).total
        assert abs(series["E"][-1] - energy) < 1e-12

    def test_classical_photon_laser(self, dimer, laser):
        _, state, cav = dimer
        system, g = state.system, state.system.grid
        v_ion = state.potential.v_ion
        orb = state.orbitals
        w, dt = cav.omega, laser.dt

        density = electron_density(orb)
        mu = mean_dipole_mu(density, cav)
        q, qdot = initial_displacement(state, cav), 0.0
        pot = assemble_ks(density, system, v_ion=v_ion)
        v_p = photon_exchange_potential(mu, q, cav, g)
        shifts = orbital_eigenvalues(orb, stencil_hamiltonian(g, None, pot.total + v_p, 0.0))
        acc = w * mu - w**2 * q
        psi, dips, qs = orb.psi, [dipole_integral(density.values, g)], [q]
        for step in range(self.N_STEPS):
            pot = assemble_ks(density, system, v_ion=v_ion)
            v_p = photon_exchange_potential(mu, q, cav, g)
            ctx = self.stencil(g, None, pot.total + v_p, 0.0, laser, step * dt)
            psi = taylor_step(psi, ctx, dt, shifts)
            q_new = q + dt * qdot + 0.5 * dt**2 * acc
            density = electron_density(OrbitalSet(psi, orb.occupations, g))
            mu = mean_dipole_mu(density, cav)
            acc_new = w * mu - w**2 * q_new
            q, qdot, acc = q_new, qdot + 0.5 * dt * (acc + acc_new), acc_new
            dips.append(dipole_integral(density.values, g))
            qs.append(q)

        series, final, osc = qedft_propagate(state, cav, laser)
        assert np.max(np.abs(series["Dx"] - series["Dx"][0])) > 1e-4
        assert np.max(np.abs(series["Dx"] - dips)) < 1e-12
        assert np.max(np.abs(series["q"] - qs)) < 1e-12
        assert np.max(np.abs(final.psi - psi)) < 1e-12
        e_mat = total_energy(system, final, None).total
        energy = e_mat + 0.5 * mu**2 - w * osc.q * mu + osc.energy()
        assert abs(series["E"][-1] - energy) < 1e-12


class TestBothSchemes:
    """Checks the shared driver makes for the tensor-product and classical-photon runs."""

    @pytest.fixture(scope="class", params=["tensor-product", "qedft"])
    def run(self, request, atom_state):
        if request.param == "tensor-product":
            return functools.partial(propagate, atom_state)
        free = scf_solve(atom_state.system, None, ScfConfig(tol_energy=1e-12,
                                                            tol_density=1e-10,
                                                            max_iterations=4000))
        return lambda cfg: qedft_propagate(free, atom_state.cavity, cfg)[:2]

    def test_norm_drift_raises_step_size_error(self, run):
        # an absurdly large step makes the truncated expansion blow up; the
        # kick makes that happen on the first step, where a stationary state
        # would drift only by its SCF residual
        with pytest.raises(StepSizeError, match=r"after 1 steps exceeds 1\.0e-10 per step; "
                                                r"reduce dt below 5\.0$"):
            run(PropConfig(dt=5.0, n_steps=10, norm_tol_step=1e-10, kick_strength=1e-3))

    def test_metadata_records_the_stepping(self, run):
        series, _ = run(PropConfig(dt=0.05, n_steps=12, stride=3))
        assert series.meta["propagator_order"] == 4
        assert series.meta["stride"] == 3
        assert series.n_samples == 5
        # the drift over every step bounds the drift of the recorded samples
        recorded = np.max(np.abs(series["norm"] - series["norm"][0]))
        assert 0.999 * recorded <= float(series.meta["max_norm_drift"]) < 1e-10

    @pytest.mark.parametrize("kick_axis, laser_axis", [(-1, None), (1, None), (0, 2), (0, -1)],
                             ids=["kick-negative", "kick-beyond", "laser-beyond",
                                  "laser-negative"])
    def test_axis_outside_the_grid_rejected(self, run, monkeypatch, kick_axis, laser_axis):
        # raised before the first step: no Taylor step is taken
        def no_step(*args):
            raise AssertionError("a step was taken")
        monkeypatch.setattr(propagate_module, "taylor_step", no_step)
        laser = None
        name, axis = "kick_axis", kick_axis
        if laser_axis is not None:
            laser = LaserPulse(amplitude=0.001, carrier=0.06, axis=laser_axis)
            name, axis = "laser axis", laser_axis
        message = f"^{name} {axis} is not an axis of a 1D grid$"
        with pytest.raises(ConfigurationError, match=message):
            run(PropConfig(dt=0.05, n_steps=3, kick_strength=1e-3, kick_axis=kick_axis,
                           laser=laser))

    @pytest.mark.parametrize("n_steps, stride", [(12, 3), (7, 2), (5, 1)])
    def test_hot_loop_counts(self, run, monkeypatch, n_steps, stride):
        # one mean field per step and at t = 0; four H products per step, one
        # per sample and one for the shifts; no energy evaluation of its own
        calls = {"assemble_ks": 0, "total_energy": 0, "apply": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(propagate_module, "assemble_ks")
        for module in (propagate_module, qedft_module, scf_module):
            counted(module, "total_energy")
        counted(SparseHamiltonian, "apply")
        series, _ = run(PropConfig(dt=0.05, n_steps=n_steps, stride=stride))
        assert series.n_samples == n_steps // stride + 1
        assert calls == {"assemble_ks": n_steps + 1, "total_energy": 0,
                         "apply": 4 * n_steps + n_steps // stride + 2}


class TestLaserAgainstOracle:
    """A laser-driven run against the exact propagation of the same Hamiltonian.

    One electron on a soft-Coulomb atom, no Hartree or XC, in a cavity with
    lambda = 0, so the mean field is static and only the laser and the time
    step separate propagate from oracle.exact_propagate with h_time.  The
    laser enters at mid-step, a second-order rule: halving dt from 0.1
    divides max|dD| / range(D) by 4.00 (1.47e-5, 3.69e-6, 9.22e-7).
    """

    T = 40.0  # run time

    @pytest.fixture(scope="class")
    def errors(self):
        from scipy import sparse

        from cavitydft import oracle
        from cavitydft.scf import state_from_orbitals
        g = Grid((101,), 0.35)
        atom = ElectronSystem(grid=g, ions=[Ion(1.0, (0.0,), 1.0)], occupations=[1.0],
                              use_hartree=False, use_xc=False)
        cav = CavityMode(omega=0.1, coupling=(0.0,), n_fock=1)
        h = oracle.assemble(atom, cav)
        _, vec = oracle.ground_state(h)
        obs = oracle.OracleObservables(g, cav)
        vec = vec / np.sqrt(obs.norm(vec))
        state = state_from_orbitals(atom, cav, OrbitalSet(
            vec.reshape((1, cav.n_sectors) + g.shape), [1.0], g))
        pulse = LaserPulse(amplitude=0.02, carrier=0.2)
        x_op = sparse.diags(np.tile(g.axis_coordinates(0), cav.n_sectors))
        errors = {}
        for dt in (0.1, 0.05):
            n_steps = int(round(self.T / dt))
            exact = oracle.exact_propagate(h, vec, dt, n_steps, obs,
                                           h_time=lambda t: pulse.field(t) * x_op)
            series, _ = propagate(state, PropConfig(dt=dt, n_steps=n_steps, laser=pulse))
            errors[dt] = (np.max(np.abs(series.dipole() - exact.dipole))
                          / np.ptp(exact.dipole))
        return errors

    def test_dipole_matches_the_exact_propagation(self, errors):
        assert errors[0.05] < 5e-6

    def test_error_falls_as_dt_squared(self, errors):
        assert errors[0.1] > 3.0 * errors[0.05]


class TestPolaritonDynamics:
    """Kicked harmonic atom in a resonant cavity: closed-form checks."""

    @pytest.fixture(scope="class")
    def beat_run(self):
        from cavitydft import oracle
        w0 = 0.5
        g = Grid((55,), 0.3)
        system = ElectronSystem(grid=g, ions=[], occupations=[1.0],
                                use_hartree=False, use_xc=False,
                                harmonic_omega=w0)
        cav = CavityMode(omega=w0, coupling=(0.1,), n_fock=2)
        state = scf_solve(system, cav, ScfConfig(tol_energy=1e-12,
                                                 tol_density=1e-9,
                                                 max_iterations=4000))
        series, _ = propagate(state, PropConfig(dt=0.05, n_steps=12000,
                                                kick_strength=1e-3))
        return series, oracle.normal_mode_frequencies(w0, cav)

    @staticmethod
    def spectrum_peaks(t, signal, window):
        n = 8 * len(signal)
        amp = np.abs(np.fft.rfft(signal - signal.mean(), n=n))
        freqs = 2 * np.pi * np.fft.rfftfreq(n, t[1] - t[0])
        mask = (freqs > window[0]) & (freqs < window[1])
        sub, fsub = amp[mask], freqs[mask]
        peaks = [fsub[i] for i in range(1, len(sub) - 1)
                 if sub[i] > sub[i - 1] and sub[i] >= sub[i + 1]
                 and sub[i] > 0.05 * sub.max()]
        return peaks

    def test_dipole_and_q_beat_between_polaritons(self, beat_run):
        # both observables carry the two hybrid-mode frequencies
        series, (wm, wp) = beat_run
        res = 2 * np.pi / series.t[-1]
        for column in ("Dx", "q"):
            peaks = self.spectrum_peaks(series.t, series[column], (0.3, 0.7))
            assert min(abs(f - wm) for f in peaks) < res
            assert min(abs(f - wp) for f in peaks) < res

    def test_rabi_period_from_occupation_oscillation(self, beat_run):
        # P_1(t) oscillates at the polariton gap; two-level estimate
        series, (wm, wp) = beat_run
        gap = wp - wm
        # strongest component of P_1(t) inside the window around the gap
        n = 8 * series.n_samples
        amp = np.abs(np.fft.rfft(series["P1"] - series["P1"].mean(), n=n))
        freqs = 2 * np.pi * np.fft.rfftfreq(n, series.t[1] - series.t[0])
        mask = (freqs > 0.5 * gap) & (freqs < 2 * gap)
        dominant = freqs[mask][np.argmax(amp[mask])]
        assert abs(dominant - gap) / gap < 0.05


class TestThreeDimensionalHarmonicAtom:
    """A separable 3D atom in a cavity moves as the 1D polariton on its x line.

    Without Hartree and XC and with the cavity coupling x only, the state
    phi (x) chi (y) chi (z), chi the bare well's ground state on the line,
    stays a product under the kick along x: every series of the 3D run is
    the 1D run's, and its energy is the 1D energy plus 2 e_perp.
    """

    OMEGA0, N, H = 0.5, 13, 0.5
    CFG = PropConfig(dt=0.02, n_steps=300, kick_strength=1e-3, stride=10)

    def systems(self):
        kw = dict(ions=[], occupations=[1.0], use_hartree=False, use_xc=False,
                  harmonic_omega=self.OMEGA0)
        return (ElectronSystem(grid=Grid((self.N,), self.H), **kw),
                ElectronSystem(grid=Grid((self.N,) * 3, self.H), **kw))

    def runs(self, line_cavity, box_cavity, run):
        from cavitydft import oracle
        from cavitydft.scf import state_from_orbitals
        line, box = self.systems()
        state = scf_solve(line, line_cavity, ScfConfig(tol_energy=1e-13, tol_density=1e-11,
                                                       max_iterations=4000))
        y = line.grid.axis_coordinates(0)
        e_perp, vectors = np.linalg.eigh(oracle.kinetic_matrix(line.grid).toarray()
                                         + np.diag(0.5 * self.OMEGA0**2 * y**2))
        chi = vectors[:, 0] / np.sqrt(np.sum(vectors[:, 0] ** 2) * self.H)
        psi = state.orbitals.psi[..., None, None] * chi[:, None] * chi
        state_3d = state_from_orbitals(box, box_cavity, OrbitalSet(psi, [1.0], box.grid))
        return run(state), run(state_3d), 2.0 * e_perp[0]

    @staticmethod
    def assert_same_series(series_1d, series_3d, e_perp2, columns):
        for name in columns:
            expected = series_1d[name] + (e_perp2 if name == "E" else 0.0)
            assert np.max(np.abs(series_3d[name] - expected)) <= 1e-12, name
        for name in ("Dy", "Dz"):
            assert np.max(np.abs(series_3d[name])) <= 1e-12, name

    def test_tensor_product(self):
        cavity = CavityMode(omega=0.5, coupling=(0.05,), n_fock=2)
        (s1, _), (s3, _), e_perp2 = self.runs(
            cavity, CavityMode(omega=0.5, coupling=(0.05, 0.0, 0.0), n_fock=2),
            lambda state: propagate(state, self.CFG))
        assert np.ptp(s1["Dx"]) > 1e-3
        self.assert_same_series(s1, s3, e_perp2, ["t", "Dx", "q", "P0", "P1", "P2", "E", "norm",
                                                  "Dx_s0", "Dx_s1", "Dx_s2"])

    def test_classical_photon(self):
        # the cavity-free analogue: the ground state without the cavity, the
        # photon a classical coordinate
        (s1, _, _), (s3, _, _), e_perp2 = self.runs(
            None, None, lambda state: qedft_propagate(
                state, CavityMode(omega=0.5, coupling=(0.05,) + (0.0,) * (
                    state.system.grid.dim - 1), n_fock=0), self.CFG))
        assert np.ptp(s1["Dx"]) > 1e-3
        self.assert_same_series(s1, s3, e_perp2, ["t", "Dx", "q", "qdot", "E", "norm"])
