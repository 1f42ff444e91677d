import numpy as np
import pytest

from cavitydft.cavity import CavityMode, apply_hamiltonian
from cavitydft.errors import ConfigurationError, UsageError
from cavitydft.grid import Grid
from cavitydft.potentials import ElectronSystem, Ion, external_potential
from cavitydft import oracle


@pytest.fixture(scope="module")
def grid():
    return Grid((81,), 0.35)


@pytest.fixture(scope="module")
def well(grid):
    return ElectronSystem(grid=grid, ions=[], occupations=[1.0],
                          use_hartree=False, use_xc=False, harmonic_omega=0.5)


class TestAssemble:
    def test_hermitian_exactly(self, well):
        cav = CavityMode(omega=0.3, coupling=(0.08,), n_fock=2)
        h = oracle.assemble(well, cav, flavor="mean-field-mu", mu=0.1)
        dense = h.toarray()
        assert np.array_equal(dense, dense.conj().T)

    def test_block_diagonal_at_zero_coupling(self, well):
        cav = CavityMode(omega=0.3, coupling=(0.0,), n_fock=2)
        h = oracle.assemble(well, cav).toarray()
        n = well.grid.shape[0]
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert np.all(h[i * n:(i + 1) * n, j * n:(j + 1) * n] == 0.0)
        # tensor-sum spectrum: eigenvalues are eps_i + (n + 1/2) w
        vals = np.linalg.eigvalsh(h)
        block = np.linalg.eigvalsh(h[:n, :n])
        assert vals[0] == pytest.approx(block[0])
        assert block[0] == pytest.approx(0.25 + 0.15, abs=1e-5)

    def test_matvec_equals_apply_hamiltonian(self, grid):
        rng = np.random.default_rng(21)
        v = rng.standard_normal(grid.shape) * 0.3
        sys_ = ElectronSystem(grid=grid, ions=[], occupations=[1.0],
                              use_hartree=False, use_xc=False,
                              external_potential=v)
        cav = CavityMode(omega=0.12, coupling=(0.07,), n_fock=3)
        h = oracle.assemble(sys_, cav, flavor="mean-field-mu", mu=-0.2)
        psi = rng.standard_normal((4,) + grid.shape) \
            + 1j * rng.standard_normal((4,) + grid.shape)
        direct = (h @ psi.reshape(-1)).reshape(psi.shape)
        ours = apply_hamiltonian(psi, v, -0.2, cav, grid)
        assert np.max(np.abs(direct - ours)) < 1e-12

    def test_dimension_cap(self):
        g = Grid((5001,), 0.05)
        sys_ = ElectronSystem(grid=g, ions=[], occupations=[1.0],
                              harmonic_omega=1.0)
        cav = CavityMode(omega=0.1, coupling=(0.0,), n_fock=4)
        with pytest.raises(ConfigurationError):
            oracle.assemble(sys_, cav)

    def test_unknown_flavor(self, well):
        cav = CavityMode(omega=0.1, coupling=(0.0,), n_fock=0)
        with pytest.raises(ConfigurationError):
            oracle.assemble(well, cav, flavor="full-ci")


class TestGroundState:
    def test_harmonic_decoupled(self):
        # fine grid so the stencil truncation error sits below the tolerance
        g = Grid((141,), 0.2)
        well = ElectronSystem(grid=g, ions=[], occupations=[1.0],
                              use_hartree=False, use_xc=False, harmonic_omega=0.5)
        cav = CavityMode(omega=0.3, coupling=(0.0,), n_fock=2)
        h = oracle.assemble(well, cav)
        e0, vec = oracle.ground_state(h)
        assert e0 == pytest.approx(0.25 + 0.15, abs=1e-8)
        assert np.linalg.norm(h @ vec - e0 * vec) < 1e-10

    def test_quadratic_model_zero_point(self, well):
        # with the explicit dipole self-interaction the exact ground energy
        # is the mean of the closed-form normal-mode frequencies
        cav = CavityMode(omega=0.5, coupling=(0.15,), n_fock=8)
        h = oracle.assemble(well, cav, flavor="quadratic-dsi")
        e0, _ = oracle.ground_state(h)
        assert e0 == pytest.approx(0.5 * sum(oracle.normal_mode_frequencies(0.5, cav)),
                                   abs=1e-6)

    def test_normal_modes_closed_form(self):
        cav = CavityMode(omega=0.5, coupling=(0.1,), n_fock=1)
        wm, wp = oracle.normal_mode_frequencies(0.5, cav)
        k = np.array([[0.25 + 0.01, -0.05], [-0.05, 0.25]])
        vals = np.sqrt(np.linalg.eigvalsh(k))
        assert wm == pytest.approx(vals[0]) and wp == pytest.approx(vals[1])

    def test_truncation_stability(self):
        g = Grid((101,), 0.4)
        atom = ElectronSystem(grid=g, ions=[Ion(1.0, (0.0,), 1.0)],
                              occupations=[1.0], use_hartree=False, use_xc=False)
        cav4 = CavityMode(omega=0.08, coupling=(0.05,), n_fock=4)
        cav5 = CavityMode(omega=0.08, coupling=(0.05,), n_fock=5)
        e4 = oracle.scf_ground_state(atom, cav4).energy
        e5 = oracle.scf_ground_state(atom, cav5).energy
        assert abs(e4 - e5) < 1e-9


class TestOracleScf:
    def test_single_orbital_required(self, grid):
        sys_ = ElectronSystem(grid=grid, ions=[], occupations=[1.0, 1.0],
                              harmonic_omega=0.5)
        cav = CavityMode(omega=0.1, coupling=(0.0,), n_fock=1)
        with pytest.raises(UsageError):
            oracle.scf_ground_state(sys_, cav)

    def test_two_electron_restricted(self):
        g = Grid((101,), 0.4)
        h2 = ElectronSystem(grid=g, ions=[Ion(1.0, (-0.7,), 1.0),
                                          Ion(1.0, (0.7,), 1.0)],
                            occupations=[2.0])
        cav = CavityMode(omega=0.08, coupling=(0.05,), n_fock=1)
        res = oracle.scf_ground_state(h2, cav)
        assert res.occupations[0] > 0.99
        assert res.occupations.sum() == pytest.approx(1.0, abs=1e-12)


class TestExactPropagate:
    def test_stationary_state_constant_observables(self, well):
        cav = CavityMode(omega=0.3, coupling=(0.08,), n_fock=2)
        h = oracle.assemble(well, cav, flavor="bare")
        _, vec = oracle.ground_state(h)
        obs = oracle.OracleObservables(well.grid, cav)
        vec = vec / np.sqrt(obs.norm(vec))
        series = oracle.exact_propagate(h, vec, 0.1, 200, obs)
        assert np.max(np.abs(series.dipole - series.dipole[0])) < 1e-10
        assert np.max(np.abs(series.q - series.q[0])) < 1e-10

    def test_kicked_harmonic_beats_at_normal_mode_gap(self, well):
        # expectation values of the kicked quadratic model oscillate at the
        # two normal-mode frequencies; the dipole spectrum shows both
        w0 = 0.5
        cav = CavityMode(omega=0.5, coupling=(0.12,), n_fock=7)
        h = oracle.assemble(well, cav, flavor="quadratic-dsi")
        _, vec = oracle.ground_state(h)
        obs = oracle.OracleObservables(well.grid, cav)
        vec = vec / np.sqrt(obs.norm(vec))
        kick = np.exp(1j * 0.01 * well.grid.axis_coordinates(0))
        kicked = (vec.reshape(cav.n_sectors, -1) * kick).reshape(-1)
        dt, n = 0.2, 3500
        series = oracle.exact_propagate(h, kicked, dt, n, obs)
        wm, wp = oracle.normal_mode_frequencies(w0, cav)
        spec = np.abs(np.fft.rfft(series.dipole - series.dipole.mean(),
                                  n=8 * len(series.dipole)))
        freqs = 2 * np.pi * np.fft.rfftfreq(8 * len(series.dipole), dt)
        window = (freqs > 0.3) & (freqs < 0.8)
        peak_freqs = []
        sub = spec[window]
        fsub = freqs[window]
        for i in range(1, len(sub) - 1):
            if sub[i] > sub[i - 1] and sub[i] >= sub[i + 1] and sub[i] > 0.05 * sub.max():
                peak_freqs.append(fsub[i])
        resolution = 2 * np.pi / (n * dt)
        assert min(abs(f - wm) for f in peak_freqs) < resolution
        assert min(abs(f - wp) for f in peak_freqs) < resolution

    def test_selection_rule_odd_harmonics_only(self):
        # driven symmetric potential: the exact propagation shows only odd
        # harmonics in the dipole response
        import scipy.sparse as sp

        w_l = 0.15
        g = Grid((101,), 0.35)
        atom = ElectronSystem(grid=g, ions=[Ion(1.0, (0.0,), 1.0)],
                              occupations=[1.0], use_hartree=False, use_xc=False)
        cav = CavityMode(omega=0.1, coupling=(0.0,), n_fock=0)
        h = oracle.assemble(atom, cav)
        _, vec = oracle.ground_state(h)
        obs = oracle.OracleObservables(g, cav)
        vec = vec / np.sqrt(obs.norm(vec))
        x_op = sp.diags(g.axis_coordinates(0))
        cycles, dt = 12, 0.1
        n_steps = int(round(cycles * 2 * np.pi / w_l / dt))

        def drive(t):
            return (0.02 * np.sin(w_l * t)) * x_op

        series = oracle.exact_propagate(h, vec, dt, n_steps, obs, h_time=drive,
                                        rtol=1e-9, check_tol=1e-8)
        sig = series.dipole - series.dipole.mean()
        amp = np.abs(np.fft.rfft(sig * np.hanning(len(sig)), n=8 * len(sig)))
        freqs = 2 * np.pi * np.fft.rfftfreq(8 * len(sig), dt) / w_l

        def at(order):
            return amp[np.argmin(np.abs(freqs - order))] ** 2

        assert max(at(1.0), at(3.0)) > 1e3 * max(at(2.0), at(4.0))

    def test_time_dependent_integrator_verified(self, grid):
        # driven single-sector problem against the static propagator limit
        sys_ = ElectronSystem(grid=grid, ions=[], occupations=[1.0],
                              use_hartree=False, use_xc=False,
                              harmonic_omega=0.5)
        cav = CavityMode(omega=0.3, coupling=(0.0,), n_fock=0)
        h = oracle.assemble(sys_, cav)
        _, vec = oracle.ground_state(h)
        obs = oracle.OracleObservables(grid, cav)
        vec = vec / np.sqrt(obs.norm(vec))
        import scipy.sparse as sp
        x = grid.axis_coordinates(0)
        drive = sp.diags(x)

        static = oracle.exact_propagate(h, vec, 0.1, 100, obs)
        driven = oracle.exact_propagate(h, vec, 0.1, 100, obs,
                                        h_time=lambda t: 0.0 * drive)
        assert np.max(np.abs(static.dipole - driven.dipole)) < 1e-8
