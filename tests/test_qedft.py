import dataclasses

import numpy as np
import pytest

from cavitydft.cavity import CavityMode, coupling_field
from cavitydft.grid import Grid, dipole_integral
from cavitydft.potentials import Density, ElectronSystem, Ion
from cavitydft import qedft
from cavitydft.errors import PropagationAborted, UsageError
from cavitydft.propagate import LaserPulse, PropConfig
from cavitydft.qedft import (PhotonOscillator, initial_displacement, photon_exchange_potential,
                             qedft_propagate)
from cavitydft.scf import ScfConfig, scf_solve
from reference import driven_oscillator_closed_form, verlet_oscillator


@pytest.fixture(scope="module")
def ks_state():
    g = Grid((121,), 0.4)
    # slightly polar two-site system so the ground state carries a dipole
    ions = [Ion(1.0, (-1.0,), 1.0), Ion(0.6, (1.0,), 1.0)]
    system = ElectronSystem(grid=g, ions=ions, occupations=[2.0])
    return scf_solve(system, None, ScfConfig(tol_energy=1e-11, tol_density=5e-8,
                                             minimizer="conjugate-gradient",
                                             max_iterations=8000))


class TestPhotonExchangePotential:
    def test_vanishes_at_fixed_point(self):
        g = Grid((61,), 0.3)
        cav = CavityMode(omega=0.1, coupling=(0.05,), n_fock=0)
        mu = 0.042
        v = photon_exchange_potential(mu, mu / 0.1, cav, g)
        assert np.max(np.abs(v)) < 1e-15

    def test_symmetric_density_zero_q(self):
        g = Grid((61,), 0.3)
        cav = CavityMode(omega=0.1, coupling=(0.05,), n_fock=0)
        v = photon_exchange_potential(0.0, 0.0, cav, g)
        assert np.all(v == 0.0)

    def test_matches_formula(self):
        g = Grid((61,), 0.3)
        cav = CavityMode(omega=0.3, coupling=(0.07,), n_fock=0)
        mu, q = -0.3, 0.9
        v = photon_exchange_potential(mu, q, cav, g)
        expected = (mu - 0.3 * q) * coupling_field(cav, g)
        assert np.array_equal(v, expected)


class TestVerletOscillator:
    def test_frozen_drive_matches_closed_form(self):
        omega, drive = 0.07, 0.0123
        dt, n = 0.002, 5000
        t, q, _ = verlet_oscillator(0.3, -0.1, omega, lambda _: drive, dt, n)
        exact = driven_oscillator_closed_form(0.3, -0.1, omega, drive, t)
        assert np.max(np.abs(q - exact)) < 1e-8

    def test_second_order_convergence(self):
        omega, drive = 0.3, 0.05

        def err(dt):
            n = int(round(50.0 / dt))
            t, q, _ = verlet_oscillator(1.0, 0.0, omega, lambda _: drive, dt, n)
            return np.max(np.abs(q - driven_oscillator_closed_form(
                1.0, 0.0, omega, drive, t)))

        order = np.log2(err(0.02) / err(0.01))
        assert order > 1.9

    def test_free_oscillator_energy_conserved(self):
        osc_steps = 20000
        t, q, qd = verlet_oscillator(1.0, 0.0, 0.25, lambda _: 0.0, 0.01, osc_steps)
        e = 0.5 * qd**2 + 0.5 * 0.25**2 * q**2
        assert np.max(np.abs(e - e[0])) < 1e-6

    def test_propagation_runs_the_same_step(self, ks_state, monkeypatch):
        # the tested integrator is the one that advances the photon
        calls, step = [], qedft.verlet_step

        def counted(*args):
            calls.append(args)
            return step(*args)

        monkeypatch.setattr(qedft, "verlet_step", counted)
        cav = CavityMode(omega=0.07, coupling=(0.03,), n_fock=0)
        _, _, osc = qedft_propagate(ks_state, cav, PropConfig(dt=0.05, n_steps=7))
        assert len(calls) == 7
        assert (osc.q, osc.qdot) == step(*calls[-1])[:2]


class TestQedftPropagate:
    def test_zero_coupling_q_at_rest(self, ks_state):
        cav = CavityMode(omega=0.07, coupling=(0.0,), n_fock=0)
        series, _, osc = qedft_propagate(ks_state, cav,
                                         PropConfig(dt=0.05, n_steps=200))
        assert np.all(series["q"] == 0.0)
        assert osc.qdot == pytest.approx(0.0, abs=1e-15)

    def test_fixed_point_start_is_stationary(self, ks_state):
        cav = CavityMode(omega=0.07, coupling=(0.03,), n_fock=0)
        q0 = initial_displacement(ks_state, cav)
        mu0 = 0.03 * dipole_integral(ks_state.density.values,
                                     ks_state.system.grid)
        assert q0 == pytest.approx(mu0 / 0.07)
        series, _, _ = qedft_propagate(ks_state, cav,
                                       PropConfig(dt=0.05, n_steps=400))
        assert np.max(np.abs(series["q"] - series["q"][0])) < 1e-4 * abs(q0)
        assert np.max(np.abs(series["Dx"] - series["Dx"][0])) < 1e-4

    def test_energy_conserved_field_free(self, ks_state):
        cav = CavityMode(omega=0.07, coupling=(0.03,), n_fock=0)
        series, _, _ = qedft_propagate(
            ks_state, cav, PropConfig(dt=0.05, n_steps=2000, kick_strength=1e-3))
        assert np.max(np.abs(series["E"] - series["E"][0])) < 1e-7

    def test_kick_drives_photon(self, ks_state):
        cav = CavityMode(omega=0.07, coupling=(0.05,), n_fock=0)
        series, _, _ = qedft_propagate(
            ks_state, cav, PropConfig(dt=0.05, n_steps=2000, kick_strength=1e-3))
        assert np.max(np.abs(series["q"] - series["q"][0])) > 1e-5

    def test_metadata_tagged(self, ks_state):
        cav = CavityMode(omega=0.07, coupling=(0.02,), n_fock=0)
        series, _, _ = qedft_propagate(ks_state, cav,
                                       PropConfig(dt=0.05, n_steps=50))
        assert series.meta["method"] == "qedft"

    def test_metadata_records_laser_envelope(self, ks_state):
        cav = CavityMode(omega=0.07, coupling=(0.02,), n_fock=0)
        pulse = LaserPulse(amplitude=0.001, carrier=0.06)
        series, _, _ = qedft_propagate(ks_state, cav,
                                       PropConfig(dt=0.05, n_steps=10, laser=pulse))
        assert series.meta["laser_envelope_time"] == pulse.envelope_time

    def test_rejects_cavity_state(self):
        # Fock-sector orbitals would be read as independent spatial orbitals
        g = Grid((41,), 0.4)
        system = ElectronSystem(grid=g, ions=[Ion(1.0, (0.0,), 1.0)], occupations=[1.0])
        cav = CavityMode(omega=0.1, coupling=(0.05,), n_fock=1)
        state = scf_solve(system, cav, ScfConfig(tol_energy=1e-6, tol_density=1e-4))
        assert state.orbitals.psi.shape == (1, 2, 41)
        cfg = PropConfig(dt=0.05, n_steps=5)
        with pytest.raises(UsageError, match="without a cavity"):
            qedft_propagate(state, cav, cfg)
        with pytest.raises(UsageError, match="has 2 photon sectors"):
            qedft_propagate(dataclasses.replace(state, cavity=None), cav, cfg)

    def test_nan_aborts_with_partial_series(self, ks_state):
        # a NaN laser amplitude leaves the t = 0 sample finite and poisons
        # the first step's potential
        cav = CavityMode(omega=0.07, coupling=(0.02,), n_fock=0)
        cfg = PropConfig(dt=0.05, n_steps=10, laser=LaserPulse(amplitude=np.nan, carrier=0.06))
        with pytest.raises(PropagationAborted, match="at step 1 ") as info:
            qedft_propagate(ks_state, cav, cfg)
        assert info.value.time == 0.0
        assert list(info.value.series.t) == [0.0]
        assert np.array_equal(info.value.orbitals.psi, ks_state.orbitals.psi)

    def test_nan_sample_aborts_with_finite_series(self, ks_state):
        # one NaN in the ionic potential makes the t = 0 energy sample NaN
        v_ion = ks_state.potential.v_ion.copy()
        v_ion[len(v_ion) // 2] = np.nan
        state = dataclasses.replace(
            ks_state, potential=dataclasses.replace(ks_state.potential, v_ion=v_ion))
        cav = CavityMode(omega=0.07, coupling=(0.02,), n_fock=0)
        with pytest.raises(PropagationAborted, match="non-finite sample") as info:
            qedft_propagate(state, cav, PropConfig(dt=0.05, n_steps=5))
        assert info.value.time == 0.0
        series = info.value.series
        assert all(np.all(np.isfinite(series[c])) for c in series.columns)
        assert series.n_samples == 0
