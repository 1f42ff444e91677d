import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavitydft.cavity import (CavityMode, OrbitalSet, SparseHamiltonian, apply_hamiltonian,
                              coupling_field, field_free_hamiltonian,
                              ladder_commutator, mean_dipole_mu, photon_occupations)
from cavitydft.errors import ConfigurationError, UsageError
from cavitydft.grid import Grid, dipole_vector, integrate, laplacian
from cavitydft.potentials import Density
from reference import q_expectation, sector_dipoles


@pytest.fixture
def grid():
    return Grid((61,), 0.3)


@pytest.fixture
def cavity():
    return CavityMode(omega=0.1, coupling=(0.05,), n_fock=2)


def unit_orbitals(psi, occupations, grid):
    """The orbital set of ``psi`` with every orbital scaled to unit norm."""
    axes = tuple(range(1, psi.ndim))
    norms = np.sqrt(np.sum(np.abs(psi) ** 2, axis=axes, keepdims=True) * grid.volume_element)
    return OrbitalSet(psi / norms, occupations, grid)


def normalized_orbital(grid, n_sectors, weights, width=1.0, center=0.0):
    x = grid.coordinate(0)
    base = np.exp(-((x - center) ** 2) / (2 * width**2)).astype(complex)
    psi = np.stack([w * base for w in weights])
    norm = np.sqrt(np.sum(np.abs(psi) ** 2) * grid.h)
    return psi / norm


class TestCavityMode:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CavityMode(omega=-0.1, coupling=(0.0,), n_fock=1)
        with pytest.raises(ConfigurationError):
            CavityMode(omega=0.1, coupling=(0.0,), n_fock=-1)

    def test_sqrt_table_exact(self):
        cav = CavityMode(omega=0.1, coupling=(0.0,), n_fock=4)
        assert np.array_equal(cav.sqrt_n, np.sqrt(np.arange(6.0)))

    def test_effective_volume_coupling(self):
        # lam = 1/sqrt(eps0 V) with eps0 = 1/(4 pi) in atomic units
        cav = CavityMode.from_effective_volume(0.1, v_eff=400.0,
                                               polarization=(1.0,), n_fock=1)
        assert cav.lam[0] == pytest.approx(np.sqrt(4 * np.pi / 400.0))


class TestOrbitalSet:
    def test_psi_is_read_only(self, grid):
        orbs = OrbitalSet(normalized_orbital(grid, 2, [1.0, 0.5])[None], [1.0], grid)
        with pytest.raises(ValueError):
            orbs.psi[0, 0, 0] = 1.0

    def test_abs2_formed_once(self, grid):
        rng = np.random.default_rng(3)
        psi = rng.standard_normal((2, 2) + grid.shape) + 1j * rng.standard_normal((2, 2) + grid.shape)
        orbs = OrbitalSet(psi, [2.0, 1.0], grid)
        first = orbs.abs2()
        assert orbs.abs2() is first
        assert np.array_equal(first, np.abs(psi) ** 2)
        assert not first.flags.writeable


class TestLadderAlgebra:
    @pytest.mark.parametrize("n_fock", [1, 2, 4, 7])
    def test_truncated_commutator_structure(self, n_fock):
        comm = ladder_commutator(n_fock)
        expected = np.eye(n_fock + 1)
        expected[-1, -1] = -n_fock
        assert np.array_equal(comm, expected)

    @pytest.mark.parametrize("n_fock", [1, 2, 4])
    def test_commutator_consistent_with_matrix_products(self, n_fock):
        a = np.diag(np.sqrt(np.arange(1, n_fock + 1, dtype=float)), k=1)  # a|n> = sqrt(n)|n-1>
        numeric = a @ a.conj().T - a.conj().T @ a
        assert np.allclose(numeric, ladder_commutator(n_fock), atol=5e-16)


class TestApplyHamiltonian:
    def test_decoupled_sector0_only(self, grid):
        cav = CavityMode(omega=0.1, coupling=(0.0,), n_fock=2)
        psi = np.zeros((3,) + grid.shape, dtype=complex)
        psi[0] = normalized_orbital(grid, 1, [1.0])[0]
        out = apply_hamiltonian(psi, np.zeros(grid.shape), 0.0, cav, grid)
        expected0 = -0.5 * laplacian(psi[0], grid) + 0.05 * psi[0]
        assert np.allclose(out[0], expected0, atol=1e-13)
        assert np.all(out[1:] == 0.0)

    def test_block_diagonal_when_uncoupled(self, grid):
        cav = CavityMode(omega=0.3, coupling=(0.0,), n_fock=2)
        rng = np.random.default_rng(0)
        psi = rng.standard_normal((3,) + grid.shape) * (1 + 0j)
        v = rng.standard_normal(grid.shape)
        out = apply_hamiltonian(psi, v, 0.0, cav, grid)
        for n in range(3):
            single = np.zeros_like(psi)
            single[n] = psi[n]
            out_single = apply_hamiltonian(single, v, 0.0, cav, grid)
            assert np.allclose(out[n], out_single[n], atol=1e-13)
            out_single[n] = 0.0
            assert np.all(out_single == 0.0)

    def test_matches_assembled_matrix(self, grid, cavity):
        from cavitydft.oracle import assemble
        from cavitydft.potentials import ElectronSystem

        rng = np.random.default_rng(12)
        v = rng.standard_normal(grid.shape) * 0.2
        system = ElectronSystem(grid=grid, ions=[], occupations=[1.0],
                                use_hartree=False, use_xc=False,
                                external_potential=v)
        h = assemble(system, cavity, flavor="mean-field-mu", mu=0.17)
        psi = rng.standard_normal((3,) + grid.shape) \
            + 1j * rng.standard_normal((3,) + grid.shape)
        direct = (h @ psi.reshape(-1)).reshape(psi.shape)
        ours = apply_hamiltonian(psi, v, 0.17, cavity, grid)
        assert np.max(np.abs(direct - ours)) < 1e-12

    def test_linearity(self, grid, cavity):
        rng = np.random.default_rng(1)
        v = rng.standard_normal(grid.shape)
        a = rng.standard_normal((3,) + grid.shape) + 1j * rng.standard_normal((3,) + grid.shape)
        b = rng.standard_normal((3,) + grid.shape) + 1j * rng.standard_normal((3,) + grid.shape)
        combo = apply_hamiltonian(a + (0.3 - 2j) * b, v, 0.1, cavity, grid)
        parts = (apply_hamiltonian(a, v, 0.1, cavity, grid)
                 + (0.3 - 2j) * apply_hamiltonian(b, v, 0.1, cavity, grid))
        assert np.allclose(combo, parts, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31), mu=st.floats(-0.5, 0.5),
           lam=st.floats(0.0, 0.2))
    def test_hermiticity(self, seed, mu, lam):
        grid = Grid((41,), 0.35)
        cav = CavityMode(omega=0.2, coupling=(lam,), n_fock=2)
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(grid.shape)
        f = rng.standard_normal((3,) + grid.shape) + 1j * rng.standard_normal((3,) + grid.shape)
        g = rng.standard_normal((3,) + grid.shape) + 1j * rng.standard_normal((3,) + grid.shape)
        hf = apply_hamiltonian(f, v, mu, cav, grid)
        hg = apply_hamiltonian(g, v, mu, cav, grid)
        lhs = np.vdot(g, hf) * grid.h
        rhs = np.conj(np.vdot(f, hg) * grid.h)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_sector_count_mismatch(self, grid, cavity):
        psi = np.zeros((2,) + grid.shape, dtype=complex)  # cavity wants 3
        with pytest.raises(UsageError):
            apply_hamiltonian(psi, np.zeros(grid.shape), 0.0, cavity, grid)


class TestSparseHamiltonian:
    @pytest.mark.parametrize("order", [3, 5, 7, 9])
    # None: no cavity, the operator of the classical-photon scheme
    @pytest.mark.parametrize("n_fock", [None, 0, 1, 2])
    @pytest.mark.parametrize("shape,h,lam", [((31,), 0.4, (0.3,)),
                                             ((7, 8, 9), 0.5, (0.2, -0.1, 0.15))])
    def test_matches_apply_hamiltonian(self, shape, h, lam, n_fock, order):
        grid = Grid(shape, h, order)
        cav = None if n_fock is None else CavityMode(omega=0.3, coupling=lam, n_fock=n_fock)
        n_sec = 1 if cav is None else cav.n_sectors
        rng = np.random.default_rng(order)
        psi = (rng.standard_normal((2, n_sec) + shape)
               + 1j * rng.standard_normal((2, n_sec) + shape))
        v = rng.standard_normal(shape)
        mu = 0.0 if cav is None else 0.37
        ref = apply_hamiltonian(psi, v, mu, cav, grid)

        v_local = v if cav is None else v + mu * coupling_field(cav, grid)
        out = SparseHamiltonian(field_free_hamiltonian(grid, cav), v_local).apply(psi)
        assert out.shape == psi.shape
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_set_potential_replaces_the_local_term(self):
        grid = Grid((31,), 0.4)
        cav = CavityMode(omega=0.3, coupling=(0.3,), n_fock=2)
        static = field_free_hamiltonian(grid, cav)
        before = static.copy()
        rng = np.random.default_rng(3)
        psi = rng.standard_normal((1, 3, 31)) + 1j * rng.standard_normal((1, 3, 31))
        v1, v2 = rng.standard_normal((2, 31))
        ham = SparseHamiltonian(static, v1)
        ham.set_potential(v2)
        assert np.array_equal(ham.apply(psi), SparseHamiltonian(static, v2).apply(psi))
        ref = apply_hamiltonian(psi, v2, 0.0, cav, grid)
        assert np.max(np.abs(ham.apply(psi) - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert (static != before).nnz == 0


class TestMeanDipole:
    def test_symmetric_density(self, grid, cavity):
        x = grid.coordinate(0)
        rho = Density(np.exp(-x**2), grid)
        assert abs(mean_dipole_mu(rho, cavity)) < 1e-14

    def test_shifted_gaussian(self):
        g = Grid((301,), 0.1)
        x = g.coordinate(0)
        rho = np.exp(-((x - 1.0) ** 2))
        rho = rho / integrate(rho, g) * 3.0  # three electrons
        cav = CavityMode(omega=0.1, coupling=(0.05,), n_fock=1)
        mu = mean_dipole_mu(Density(rho, g), cav)
        assert mu == pytest.approx(0.05 * 3.0 * 1.0, abs=1e-8)

    def test_zero_coupling(self, grid):
        cav = CavityMode(omega=0.1, coupling=(0.0,), n_fock=1)
        rho = Density(np.ones(grid.shape), grid)
        assert mean_dipole_mu(rho, cav) == 0.0


class TestObservables:
    def test_pure_sector0(self, grid):
        psi = normalized_orbital(grid, 3, [1.0, 0.0, 0.0])
        orbs = OrbitalSet(psi[None], [1.0], grid)
        assert np.allclose(photon_occupations(orbs), [1.0, 0.0, 0.0], atol=1e-14)

    def test_equal_split(self, grid):
        psi = normalized_orbital(grid, 2, [1.0, 1.0])
        orbs = OrbitalSet(psi[None], [1.0], grid)
        p = photon_occupations(orbs)
        assert np.allclose(p, [0.5, 0.5], atol=1e-12)

    def test_occupations_sum_to_one(self, grid):
        rng = np.random.default_rng(8)
        psi = rng.standard_normal((2, 3) + grid.shape) \
            + 1j * rng.standard_normal((2, 3) + grid.shape)
        orbs = unit_orbitals(psi, [2.0, 1.0], grid)
        p = photon_occupations(orbs)
        assert p.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(p >= 0.0)

    def test_zero_electrons_rejected(self, grid):
        psi = normalized_orbital(grid, 2, [1.0, 0.0])
        orbs = OrbitalSet(psi[None], [0.0], grid)
        with pytest.raises(UsageError):
            photon_occupations(orbs)

    def test_q_single_sector_vanishes(self, grid, cavity):
        psi = np.zeros((1, 3) + grid.shape, dtype=complex)
        psi[0, 1] = normalized_orbital(grid, 1, [1.0])[0]
        orbs = OrbitalSet(psi, [1.0], grid)
        assert q_expectation(orbs, cavity) == pytest.approx(0.0, abs=1e-14)

    def test_q_equal_superposition(self, grid):
        cav = CavityMode(omega=0.25, coupling=(0.0,), n_fock=1)
        psi = normalized_orbital(grid, 2, [1.0, 1.0])
        orbs = OrbitalSet(psi[None], [1.0], grid)
        assert q_expectation(orbs, cav) == pytest.approx(
            1.0 / np.sqrt(2 * 0.25), abs=1e-12)

    def test_q_matches_oracle_coherent_state(self, grid):
        # ground state of the displaced oscillator block: q matrix element
        from cavitydft.oracle import OracleObservables
        cav = CavityMode(omega=0.2, coupling=(0.0,), n_fock=6)
        obs = OracleObservables(grid, cav)
        rng = np.random.default_rng(3)
        psi = rng.standard_normal((cav.n_sectors,) + grid.shape) \
            + 1j * rng.standard_normal((cav.n_sectors,) + grid.shape)
        psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * grid.h)
        orbs = OrbitalSet(psi[None], [1.0], grid)
        assert q_expectation(orbs, cav) == pytest.approx(
            obs.q_expectation(psi.reshape(-1)), abs=1e-8)

    def test_sector_dipoles_shape(self, grid):
        rng = np.random.default_rng(10)
        psi = rng.standard_normal((1, 3) + grid.shape) * (1 + 0j)
        orbs = unit_orbitals(psi, [1.0], grid)
        d = sector_dipoles(orbs)
        assert d.shape == (3, 1)

    def test_sector_dipoles_match_sector_densities(self):
        g = Grid((7, 8, 9), 0.5)
        rng = np.random.default_rng(12)
        psi = rng.standard_normal((2, 3) + g.shape) + 1j * rng.standard_normal((2, 3) + g.shape)
        orbs = unit_orbitals(psi, [2.0, 1.0], g)
        # p_n = sum_m c_m |phi_mn|^2 per sector
        p = np.einsum("m,mn...->n...", orbs.occupations, np.abs(orbs.psi) ** 2)
        ref = np.array([dipole_vector(p[n], g) for n in range(3)])
        d = sector_dipoles(orbs)
        assert np.max(np.abs(d - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_coupling_field_cache_is_read_only(self):
        cav = CavityMode(omega=0.1, coupling=(0.1, 0.1, 0.0), n_fock=1)
        f = coupling_field(cav, Grid((9, 9, 9), 0.5))
        assert f is coupling_field(CavityMode(0.1, (0.1, 0.1, 0.0), 1), Grid((9, 9, 9), 0.5))
        assert not f.flags.writeable

    def test_coupling_field_3d(self):
        g = Grid((9, 9, 9), 0.5)
        cav = CavityMode(omega=0.1, coupling=(0.1, 0.1, 0.0), n_fock=1)
        f = coupling_field(cav, g)
        x, y, _ = g.coordinates
        assert np.allclose(f, 0.1 * x + 0.1 * y)
