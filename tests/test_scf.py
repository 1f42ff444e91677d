import numpy as np
import pytest

from cavitydft import cavity as cavity_module
from cavitydft import scf as scf_module
from cavitydft.cavity import (CavityMode, OrbitalSet, apply_hamiltonian, electron_density,
                              mean_dipole_mu, photon_occupations)
from cavitydft.errors import ConfigurationError, ConvergenceError, UsageError
from cavitydft.grid import Grid, dipole_integral
from cavitydft.potentials import ElectronSystem, Ion, assemble_ks
from cavitydft.scf import (ScfConfig, gram_schmidt_sectorwise, init_orbitals, scf_solve,
                           seed_sector_amplitudes, state_from_orbitals, total_energy)
from reference import laplacian_total_energy, q_expectation


@pytest.fixture(scope="module")
def atom_grid():
    return Grid((121,), 0.4)


@pytest.fixture(scope="module")
def soft_atom(atom_grid):
    return ElectronSystem(grid=atom_grid, ions=[Ion(1.0, (0.0,), 1.0)],
                          occupations=[1.0])


class TestScfConfig:
    def test_defaults_valid(self):
        cfg = ScfConfig()
        assert cfg.minimizer is None

    def test_bad_minimizer(self):
        with pytest.raises(ConfigurationError):
            ScfConfig(minimizer="newton")

    @pytest.mark.parametrize("budget", [0, -3])
    def test_max_iterations_below_one(self, budget):
        with pytest.raises(ConfigurationError, match="max_iterations"):
            ScfConfig(max_iterations=budget)

    @pytest.mark.parametrize("value", [float("nan"), 0.0, -1e-8])
    @pytest.mark.parametrize("name", ["tol_energy", "tol_density"])
    def test_tolerance_not_positive(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            ScfConfig(**{name: value})

    def test_steepest_descent_removed(self):
        with pytest.raises(ConfigurationError):
            ScfConfig(minimizer="steepest-descent")

    def test_default_weights_geometric(self):
        w = seed_sector_amplitudes(4)
        assert np.allclose(w, [1.0, 0.1, 0.01, 0.001])


class TestInitOrbitals:
    def test_orthonormal_multi_orbital(self, atom_grid):
        sys_ = ElectronSystem(grid=atom_grid,
                              ions=[Ion(2.0, (-1.0,), 1.0), Ion(2.0, (1.0,), 1.0)],
                              occupations=[2.0, 2.0, 1.0])
        cav = CavityMode(omega=0.1, coupling=(0.05,), n_fock=1)
        orbs = init_orbitals(sys_, cav)
        s = orbs.overlap_matrix()
        assert np.max(np.abs(s - np.eye(3))) < 1e-10

    def test_too_many_orbitals(self):
        g = Grid((7,), 0.5)
        sys_ = ElectronSystem(grid=g, ions=[], occupations=np.ones(8),
                              harmonic_omega=1.0)
        with pytest.raises(ConfigurationError):
            init_orbitals(sys_, None)


class TestGramSchmidt:
    def _random_set(self, grid, n_orb, n_sec, seed=0):
        rng = np.random.default_rng(seed)
        psi = rng.standard_normal((n_orb, n_sec) + grid.shape) \
            + 1j * rng.standard_normal((n_orb, n_sec) + grid.shape)
        return OrbitalSet(psi, np.ones(n_orb), grid)

    def test_postcondition_identity_overlap(self, atom_grid):
        orbs = gram_schmidt_sectorwise(self._random_set(atom_grid, 4, 3))
        s = orbs.overlap_matrix()
        assert np.max(np.abs(s - np.eye(4))) < 1e-10

    def test_sectorwise_orthogonality(self, atom_grid):
        orbs = gram_schmidt_sectorwise(self._random_set(atom_grid, 3, 2, seed=5))
        for n in range(2):
            for m in range(3):
                for mp in range(m):
                    ov = np.vdot(orbs.psi[mp, n], orbs.psi[m, n]) * atom_grid.h
                    assert abs(ov) < 1e-10

    def test_idempotent_on_orthonormal_input(self, atom_grid):
        orbs = gram_schmidt_sectorwise(self._random_set(atom_grid, 3, 2, seed=9))
        again = gram_schmidt_sectorwise(orbs)
        assert np.max(np.abs(again.psi - orbs.psi)) < 1e-12

    def test_two_orbital_hand_computation(self):
        # five-point grid, overlap s between the sector components
        g = Grid((5,), 1.0)
        a = np.zeros((2, 1, 5), dtype=complex)
        a[0, 0] = [1.0, 1.0, 0.0, 0.0, 0.0]
        a[1, 0] = [1.0, 0.0, 1.0, 0.0, 0.0]
        orbs = gram_schmidt_sectorwise(OrbitalSet(a, [1.0, 1.0], g))
        # by hand: u1 = v1 / ||v1||; u2 = v2 - (<v1,v2>/<v1,v1>) v1, normalized
        u1 = np.array([1, 1, 0, 0, 0]) / np.sqrt(2.0)
        u2 = np.array([0.5, -0.5, 1.0, 0, 0])
        u2 = u2 / np.linalg.norm(u2)
        assert np.allclose(np.abs(orbs.psi[0, 0]), u1, atol=1e-12)
        assert np.allclose(np.abs(orbs.psi[1, 0]), np.abs(u2), atol=1e-12)

    def test_degenerate_seeds_perturbed_deterministically(self, atom_grid):
        psi = np.zeros((2, 2) + atom_grid.shape, dtype=complex)
        x = atom_grid.coordinate(0)
        psi[0, 0] = np.exp(-x**2)
        psi[1, 0] = np.exp(-x**2)  # identical: linearly dependent
        orbs_a = gram_schmidt_sectorwise(OrbitalSet(psi.copy(), [1.0, 1.0], atom_grid))
        orbs_b = gram_schmidt_sectorwise(OrbitalSet(psi.copy(), [1.0, 1.0], atom_grid))
        s = orbs_a.overlap_matrix()
        assert np.max(np.abs(s - np.eye(2))) < 1e-9
        assert np.array_equal(orbs_a.psi, orbs_b.psi)  # deterministic


class TestScfSolve:
    def test_harmonic_well_decoupled(self):
        g = Grid((81,), 0.3)
        sys_ = ElectronSystem(grid=g, ions=[], occupations=[1.0],
                              use_hartree=False, use_xc=False, harmonic_omega=0.5)
        cav = CavityMode(omega=0.08, coupling=(0.0,), n_fock=2)
        state = scf_solve(sys_, cav, ScfConfig(tol_energy=1e-10, tol_density=1e-8,
                                               max_iterations=3000))
        assert state.energy.total == pytest.approx(0.25 + 0.04, abs=1e-6)

    def test_energy_monotone_imaginary_time(self):
        # linear problem (no mean-field feedback): descent is monotone
        g = Grid((81,), 0.3)
        sys_ = ElectronSystem(grid=g, ions=[], occupations=[1.0],
                              use_hartree=False, use_xc=False, harmonic_omega=0.4)
        cav = CavityMode(omega=0.1, coupling=(0.0,), n_fock=1)
        state = scf_solve(sys_, cav, ScfConfig(tol_energy=1e-10, tol_density=1e-8,
                                               minimizer="imaginary-time",
                                               max_iterations=2000))
        energies = [h["energy"] for h in state.history]
        assert all(b <= a + 1e-8 for a, b in zip(energies, energies[1:]))

    def test_energy_increases_with_coupling_polar_system(self, atom_grid):
        # the mean-field dipole self-interaction mu^2/2 grows with coupling;
        # on a polar molecule restricted to the zero-photon sector it is the
        # only coupling term and the energy rises strictly with lambda
        ions = [Ion(1.0, (-1.0,), 0.8), Ion(0.4, (1.0,), 1.0)]
        polar = ElectronSystem(grid=atom_grid, ions=ions, occupations=[2.0])
        cfg = ScfConfig(tol_energy=1e-10, tol_density=1e-8, max_iterations=3000)
        energies = []
        for lam in (0.0, 0.02, 0.04, 0.06):
            cav = CavityMode(omega=0.1, coupling=(lam,), n_fock=0)
            energies.append(scf_solve(polar, cav, cfg).energy.total)
        assert all(b > a for a, b in zip(energies, energies[1:]))

    def test_matches_oracle(self, soft_atom):
        from cavitydft import oracle
        cav = CavityMode(omega=0.08, coupling=(0.05,), n_fock=2)
        state = scf_solve(soft_atom, cav,
                          ScfConfig(tol_energy=1e-11, tol_density=1e-9,
                                    max_iterations=3000))
        ref = oracle.scf_ground_state(soft_atom, cav)
        assert state.energy.total == pytest.approx(ref.energy, abs=1e-5)
        assert np.allclose(photon_occupations(state.orbitals), ref.occupations,
                           atol=1e-5)

    def test_h2_analog_occupation_vs_oracle(self, atom_grid):
        # two-electron molecular model: the ground state stays nearly in the
        # zero-photon sector at this coupling and matches the reference solve
        h2 = ElectronSystem(grid=atom_grid,
                            ions=[Ion(1.0, (-0.7,), 1.0), Ion(1.0, (0.7,), 1.0)],
                            occupations=[2.0])
        cav = CavityMode(omega=0.08, coupling=(0.05,), n_fock=1)
        state = scf_solve(h2, cav, ScfConfig(tol_energy=1e-11, tol_density=1e-9,
                                             max_iterations=4000))
        from cavitydft import oracle
        ref = oracle.scf_ground_state(h2, cav)
        p = photon_occupations(state.orbitals)
        assert np.allclose(p, ref.occupations, atol=1e-5)
        assert 0.99 < p[0] < 1.0

    @pytest.mark.parametrize("lam", [0.02, 0.05, 0.1])
    def test_occupation_decay_with_n(self, lam):
        # stiff model atom: occupations decay at every tested coupling
        g = Grid((61,), 0.3)
        well = ElectronSystem(grid=g, ions=[], occupations=[1.0],
                              use_hartree=False, use_xc=False, harmonic_omega=0.5)
        cav = CavityMode(omega=0.5, coupling=(lam,), n_fock=3)
        state = scf_solve(well, cav,
                          ScfConfig(tol_energy=1e-11, tol_density=1e-7,
                                    max_iterations=4000))
        p = photon_occupations(state.orbitals)
        assert all(b < a for a, b in zip(p, p[1:]))

    def test_ground_state_q_fixed_point(self):
        # offset harmonic well: <q> = lam <D> / w at the minimum
        g = Grid((91,), 0.3)
        x = g.coordinate(0)
        sys_ = ElectronSystem(grid=g, ions=[], occupations=[1.0],
                              use_hartree=False, use_xc=False,
                              external_potential=0.5 * 0.5**2 * (x - 1.2) ** 2)
        cav = CavityMode(omega=0.4, coupling=(0.05,), n_fock=3)
        state = scf_solve(sys_, cav,
                          ScfConfig(tol_energy=1e-12, tol_density=1e-10,
                                    minimizer="conjugate-gradient",
                                    max_iterations=6000))
        q = q_expectation(state.orbitals, cav)
        d = dipole_integral(state.density.values, g)
        assert q == pytest.approx(0.05 * d / 0.4, abs=1e-6)

    def test_orthonormality_each_iteration(self, soft_atom):
        cav = CavityMode(omega=0.08, coupling=(0.05,), n_fock=1)
        state = scf_solve(soft_atom, cav,
                          ScfConfig(tol_energy=1e-9, tol_density=1e-7,
                                    max_iterations=2000))
        s = state.orbitals.overlap_matrix()
        assert np.max(np.abs(s - np.eye(1))) < 1e-9

    def test_nonconvergence_reports_diagnostics(self, soft_atom):
        cav = CavityMode(omega=0.08, coupling=(0.05,), n_fock=1)
        with pytest.raises(ConvergenceError) as err:
            scf_solve(soft_atom, cav, ScfConfig(max_iterations=3,
                                                tol_energy=1e-14,
                                                tol_density=1e-12,
                                                minimizer="imaginary-time"))
        assert err.value.history is not None
        assert "oscillations" in err.value.diagnostics

    def test_nonconvergence_reports_diagnostics_by_default(self, soft_atom):
        # one orbital in 1D: the default runs the direct engine
        cav = CavityMode(omega=0.08, coupling=(0.05,), n_fock=1)
        with pytest.raises(ConvergenceError) as err:
            scf_solve(soft_atom, cav, ScfConfig(max_iterations=3,
                                                tol_energy=1e-14,
                                                tol_density=1e-12))
        assert len(err.value.history) == 3
        assert err.value.diagnostics["last_residual"] == err.value.history[-1]["residual"]

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("minimizer", scf_module.MINIMIZERS)
    def test_non_finite_iteration_stops_at_once(self, soft_atom, minimizer):
        cav = CavityMode(omega=0.08, coupling=(0.05,), n_fock=1)
        nan = np.full((1, 2) + soft_atom.grid.shape, np.nan, dtype=complex)
        with pytest.raises(ConvergenceError, match="iteration 1 gave a non-finite energy") as err:
            scf_solve(soft_atom, cav, ScfConfig(minimizer=minimizer),
                      initial_orbitals=OrbitalSet(nan, [1.0], soft_atom.grid))
        assert len(err.value.history) == 1
        assert err.value.diagnostics == {"iteration": 1, "non_finite": "energy"}

    def test_converged_state_is_fixed_point(self, soft_atom):
        cav = CavityMode(omega=0.08, coupling=(0.05,), n_fock=1)
        cfg = ScfConfig(tol_energy=1e-10, tol_density=1e-8, max_iterations=3000)
        state = scf_solve(soft_atom, cav, cfg)
        warm = scf_solve(soft_atom, cav,
                         ScfConfig(tol_energy=1e-10, tol_density=1e-8,
                                   max_iterations=10),
                         initial_orbitals=state.orbitals)
        assert abs(warm.energy.total - state.energy.total) < 1e-8

    @pytest.mark.parametrize("system_kw, cavity, named", [
        ({"occupations": [2.0]}, None, "occupations"),
        ({"grid": Grid((121,), 0.5)}, None, "grid"),
        ({}, CavityMode(omega=0.08, coupling=(0.05,), n_fock=1), "sectors"),
    ], ids=["occupations", "grid", "sectors"])
    def test_initial_orbitals_of_another_problem_rejected(self, soft_atom, system_kw,
                                                           cavity, named):
        # cavity-free one-electron orbitals on h = 0.4, against the changed system
        seed = init_orbitals(soft_atom, None)
        system = ElectronSystem(**{"grid": soft_atom.grid, "ions": soft_atom.ions,
                                   "occupations": [1.0], **system_kw})
        with pytest.raises(UsageError, match=f"orbitals.*{named}") as err:
            scf_solve(system, cavity, ScfConfig(max_iterations=5), initial_orbitals=seed)
        expected = {"occupations": ("[1.0]", "[2.0]"), "grid": ("h=0.4", "h=0.5"),
                    "sectors": ("1", "2")}[named]
        assert all(side in str(err.value) for side in expected)

    def test_log_lines_tab_separated(self, soft_atom):
        cav = CavityMode(omega=0.08, coupling=(0.0,), n_fock=1)
        lines = []
        scf_solve(soft_atom, cav, ScfConfig(tol_energy=1e-8, tol_density=1e-6,
                                            max_iterations=2000),
                  log=lines.append)
        assert lines and all("\t" in line for line in lines)
        head = lines[0].split("\t")
        assert head[0] == "1" and len(head) == 4 + 2  # iter, E, dE, dRho, P0, P1

    @pytest.mark.parametrize("minimizer", ["conjugate-gradient"])
    def test_other_minimizers_reach_same_ground_state(self, minimizer):
        g = Grid((81,), 0.3)
        sys_ = ElectronSystem(grid=g, ions=[], occupations=[1.0],
                              use_hartree=False, use_xc=False, harmonic_omega=0.5)
        cav = CavityMode(omega=0.08, coupling=(0.0,), n_fock=1)
        state = scf_solve(sys_, cav,
                          ScfConfig(minimizer=minimizer,
                                    tol_energy=1e-9, tol_density=1e-7,
                                    max_iterations=6000))
        assert state.energy.total == pytest.approx(0.29, abs=1e-5)


class TestStateFromOrbitals:
    """The rebuilt state of a solve's orbitals is the solve's state, and orbitals must fit."""

    CAVITY = CavityMode(omega=0.08, coupling=(0.05,), n_fock=1)

    @pytest.fixture(scope="class")
    def solved(self, soft_atom):
        cfg = ScfConfig(tol_energy=1e-9, tol_density=1e-7, max_iterations=2000)
        return {name: (cavity, scf_solve(soft_atom, cavity, cfg))
                for name, cavity in (("cavity", self.CAVITY), ("no-cavity", None))}

    @pytest.mark.parametrize("case", ["cavity", "no-cavity"])
    def test_same_state_as_the_solve(self, soft_atom, solved, case):
        cavity, state = solved[case]
        rebuilt = state_from_orbitals(soft_atom, cavity, state.orbitals)
        assert ({key: float(val).hex() for key, val in rebuilt.energy.as_dict().items()}
                == {key: float(val).hex() for key, val in state.energy.as_dict().items()})
        assert float(rebuilt.mu).hex() == float(state.mu).hex()
        assert np.array_equal(rebuilt.density.values, state.density.values)
        for name in ("v_hartree", "v_xc", "v_ion", "total"):
            assert np.array_equal(getattr(rebuilt.potential, name),
                                  getattr(state.potential, name)), name
        assert (rebuilt.potential.e_hartree, rebuilt.potential.e_xc) == (
            state.potential.e_hartree, state.potential.e_xc)

    @pytest.mark.parametrize("change, sides", [
        ("n_fock=2", ("2 photon sectors", "the problem 3")),
        ("no-cavity", ("2 photon sectors", "the problem 1")),
        ("two-electrons", ("[1.0]", "[2.0]")),
    ])
    def test_orbitals_of_another_problem_rejected(self, soft_atom, solved, change, sides):
        # the orbitals of the n_fock = 1 cavity solve, under another problem
        system, cavity = soft_atom, None
        if change == "n_fock=2":
            cavity = CavityMode(omega=0.08, coupling=(0.05,), n_fock=2)
        elif change == "two-electrons":
            system = ElectronSystem(grid=soft_atom.grid, ions=soft_atom.ions,
                                    occupations=[2.0])
            cavity = self.CAVITY
        with pytest.raises(UsageError, match="orbitals") as err:
            state_from_orbitals(system, cavity, solved["cavity"][1].orbitals)
        assert all(side in str(err.value) for side in sides)


class TestTotalEnergy:
    def test_decoupled_reduces_to_ks_plus_zero_point(self):
        g = Grid((101,), 0.35)
        sys_ = ElectronSystem(grid=g, ions=[Ion(1.0, (0.0,), 1.0)],
                              occupations=[1.0])
        cfg = ScfConfig(tol_energy=1e-11, tol_density=1e-9, max_iterations=3000)
        bare = scf_solve(sys_, None, cfg)
        cav = CavityMode(omega=0.08, coupling=(0.0,), n_fock=1)
        coupled = scf_solve(sys_, cav, cfg,
                            initial_orbitals=None)
        assert coupled.energy.total == pytest.approx(bare.energy.total + 0.04,
                                                     abs=1e-7)

    @pytest.mark.parametrize("shape, h", [((161,), 0.45), ((13, 11, 9), 0.5)], ids=["1d", "3d"])
    def test_without_potential_assembles_it(self, shape, h):
        g = Grid(shape, h)
        ions = [Ion(1.0, (x,) + (0.0,) * (g.dim - 1), 1.0) for x in (-1.0, 1.0)]
        system = ElectronSystem(grid=g, ions=ions, occupations=[2.0])
        cav = CavityMode(omega=0.1, coupling=(0.05,) + (0.0,) * (g.dim - 1), n_fock=1)
        seed = init_orbitals(system, cav)
        rng = np.random.default_rng(4)
        orbs = gram_schmidt_sectorwise(OrbitalSet(
            seed.psi + 0.05 * rng.standard_normal(seed.psi.shape), [2.0], g))
        pot = assemble_ks(electron_density(orbs), system)
        plain = total_energy(system, orbs, cav).as_dict()
        given = total_energy(system, orbs, cav, potential=pot).as_dict()
        assert {k: v.hex() for k, v in plain.items()} == {k: v.hex() for k, v in given.items()}

    def test_parts_sum_exactly(self, soft_atom):
        cav = CavityMode(omega=0.08, coupling=(0.05,), n_fock=1)
        cfg = ScfConfig(tol_energy=1e-8, tol_density=1e-6, max_iterations=2000)
        state = scf_solve(soft_atom, cav, cfg)
        e = state.energy
        total = (e.kinetic + e.external + e.hartree + e.xc + e.photon
                 + e.coupling + e.dipole_self)
        assert e.total == total  # bit-exact bookkeeping


def _energy_state(case):
    """A system, its cavity and a perturbed (non-stationary) orbital set."""
    line, ions = Grid((61,), 0.4), [Ion(1.0, (0.0,), 1.0)]
    dimer = [Ion(1.0, (-1.2,), 1.0), Ion(1.0, (1.2,), 1.0)]
    system, cav = {
        "dimer": (ElectronSystem(grid=line, ions=dimer, occupations=[2.0]),
                  CavityMode(omega=0.3, coupling=(0.05,), n_fock=1)),
        "atom-n_fock-2": (ElectronSystem(grid=line, ions=ions, occupations=[1.0]),
                          CavityMode(omega=0.08, coupling=(0.05,), n_fock=2)),
        "two-orbitals": (ElectronSystem(grid=line, ions=[Ion(2.0, (-1.0,), 1.0),
                                                         Ion(1.0, (1.0,), 1.0)],
                                        occupations=[1.0, 1.0]),
                         CavityMode(omega=0.3, coupling=(0.05,), n_fock=1)),
        "molecule-9^3": (ElectronSystem(grid=Grid((9, 9, 9), 0.6),
                                        ions=[Ion(1.0, (x, 0.0, 0.0), 1.0) for x in (-0.6, 0.6)],
                                        occupations=[2.0]),
                         CavityMode(omega=0.3, coupling=(0.05, 0.02, 0.0), n_fock=1)),
        "no-cavity": (ElectronSystem(grid=line, ions=dimer, occupations=[2.0]), None),
    }[case]
    seed = init_orbitals(system, cav)
    rng = np.random.default_rng(7)
    noise = rng.standard_normal(seed.psi.shape) + 1j * rng.standard_normal(seed.psi.shape)
    return system, cav, gram_schmidt_sectorwise(OrbitalSet(
        seed.psi + 0.05 * noise, system.occupations, system.grid))


ENERGY_CASES = ["dimer", "atom-n_fock-2", "two-orbitals", "molecule-9^3", "no-cavity"]


class TestEnergyFormula:
    """The energy read off an H product against the Laplacian reference, for any v."""

    @pytest.mark.parametrize("case", ENERGY_CASES)
    def test_matches_the_laplacian_reference(self, case):
        system, cav, orbs = _energy_state(case)
        got = total_energy(system, orbs, cav).as_dict()
        ref = laplacian_total_energy(system, orbs, cav).as_dict()
        assert got.keys() == ref.keys()
        for key in got:
            assert abs(got[key] - ref[key]) <= 1e-13, (key, got[key] - ref[key])

    @pytest.mark.parametrize("shift", ["v", "v+0.3", "v+random"])
    @pytest.mark.parametrize("case", ENERGY_CASES)
    def test_any_diagonal_potential(self, case, shift):
        system, cav, orbs = _energy_state(case)
        grid = system.grid
        rho = electron_density(orbs)
        pot = assemble_ks(rho, system)
        mu = mean_dipole_mu(rho, cav)
        v = pot.total + (mu * cavity_module.coupling_field(cav, grid) if cav else 0.0)
        v = v + {"v": 0.0, "v+0.3": 0.3,
                 "v+random": np.random.default_rng(3).standard_normal(grid.shape)}[shift]
        # mu = 0 makes the product's local term v itself
        h_psi = apply_hamiltonian(orbs.psi, v, 0.0, cav, grid)
        pn = photon_occupations(orbs) if cav else None
        got = scf_module._energy(grid, cav, orbs.psi, orbs.occupations, h_psi, v, rho.values,
                                 pn, mu, pot).as_dict()
        expected = total_energy(system, orbs, cav).as_dict()
        for key in got:
            assert abs(got[key] - expected[key]) <= 1e-12, (key, got[key] - expected[key])


class TestImaginaryTimeStep:
    """One step of one orbital under a frozen H on a small coupled 1D grid."""

    grid = Grid((31,), 0.4)
    cav = CavityMode(omega=0.3, coupling=(0.1,), n_fock=1)
    x = grid.axis_coordinates(0)
    v = -1.0 / np.sqrt(x**2 + 1.0)

    def dot(self, a, b):
        return np.vdot(a, b).real * self.grid.volume_element

    def apply(self, shift=0.0):
        return lambda p: apply_hamiltonian(p, self.v + shift, 0.05, self.cav, self.grid)

    def orbital(self):
        psi = np.stack([np.exp(-(self.x - 0.7) ** 2), 0.3 * self.x * np.exp(-self.x**2)])[None]
        return psi / np.sqrt(self.dot(psi, psi))

    def step(self, shift=0.0):
        out = scf_module._imaginary_time_step(self.orbital(), self.apply(shift),
                                              self.grid.volume_element)
        return out / np.sqrt(self.dot(out, out))

    def test_exact_line_minimum_along_the_residual(self):
        from scipy.optimize import minimize_scalar
        psi, apply = self.orbital(), self.apply()
        h_psi = apply(psi)
        r = h_psi - self.dot(psi, h_psi) * psi

        def rayleigh(t):
            phi = psi - t * r
            return self.dot(phi, apply(phi)) / self.dot(phi, phi)

        best = minimize_scalar(rayleigh, bracket=(0.0, 1.0), tol=1e-12)
        expected = psi - best.x * r
        expected /= np.sqrt(self.dot(expected, expected))
        stepped = self.step()
        assert best.fun < rayleigh(0.0) - 0.1
        assert np.max(np.abs(stepped - expected)) <= 1e-8
        assert self.dot(stepped, apply(stepped)) <= best.fun + 1e-14

    @pytest.mark.parametrize("shift", [-0.3, 2.5])
    def test_constant_potential_shift_leaves_the_orbital(self, shift):
        assert np.max(np.abs(self.step(shift) - self.step())) <= 1e-13


class TestBitIdentity:
    """Small solves pinned to their iteration count and energy bits.

    The SCF is sensitive to rounding (one ulp in a step changes the count),
    so any change on its path must leave these values exactly as they are.
    Together the pins run the imaginary-time minimizer on the cavity-free
    and the Hartree-free paths, two orbitals (the Gram-Schmidt projections),
    a 3D grid and a solve that ends in ``ConvergenceError``.  The 1D
    one-orbital pins name it, since the default runs conjugate gradients
    there.
    """

    @staticmethod
    def solve(system, cavity, **cfg):
        state = scf_solve(system, cavity, ScfConfig(**cfg))
        # the last iteration's energy is the returned state's, bit for bit
        assert state.history[-1]["energy"] == state.energy.total
        reference = laplacian_total_energy(system, state.orbitals, cavity).total
        assert abs(state.energy.total - reference) <= 1e-13
        return state.iterations, float(state.energy.total).hex()

    def test_cavity_free(self):
        system = ElectronSystem(grid=Grid((61,), 0.4), ions=[Ion(1.0, (0.0,), 1.0)],
                                occupations=[1.0])
        assert self.solve(system, None, tol_energy=1e-10, tol_density=1e-8,
                          max_iterations=2000, minimizer="imaginary-time") == (
            341, "-0x1.b168792a03660p-1")

    def test_harmonic_well_two_photons(self):
        # no Hartree, no XC: the coupling-scan path
        system = ElectronSystem(grid=Grid((41,), 0.3), ions=[], occupations=[1.0],
                                use_hartree=False, use_xc=False, harmonic_omega=0.5)
        cav = CavityMode(omega=0.5, coupling=(0.05,), n_fock=2)
        assert self.solve(system, cav, tol_energy=1e-10, tol_density=1e-8,
                          max_iterations=4000, minimizer="imaginary-time") == (
            414, "0x1.ff5ba559c89d8p-2")

    def test_two_orbitals(self):
        system = ElectronSystem(grid=Grid((61,), 0.4),
                                ions=[Ion(2.0, (-1.0,), 1.0), Ion(1.0, (1.0,), 1.0)],
                                occupations=[1.0, 1.0])
        cav = CavityMode(omega=0.3, coupling=(0.05,), n_fock=1)
        assert self.solve(system, cav, tol_energy=1e-8, tol_density=1e-6,
                          max_iterations=3000) == (449, "-0x1.9c0f3428c7cb7p+1")

    def test_three_dimensional(self):
        system = ElectronSystem(grid=Grid((9, 9, 9), 0.6),
                                ions=[Ion(1.0, (0.0, 0.0, 0.0), 1.0)], occupations=[1.0])
        cav = CavityMode(omega=0.3, coupling=(0.05, 0.0, 0.0), n_fock=1)
        assert self.solve(system, cav, tol_density=1e-4) == (196, "0x1.3df65224e11f9p-4")

    def test_convergence_error(self):
        system = ElectronSystem(grid=Grid((61,), 0.4), ions=[Ion(1.0, (0.0,), 1.0)],
                                occupations=[1.0])
        cav = CavityMode(omega=0.08, coupling=(0.05,), n_fock=1)
        with pytest.raises(ConvergenceError) as err:
            scf_solve(system, cav, ScfConfig(max_iterations=60, tol_energy=1e-14,
                                             tol_density=1e-12, minimizer="imaginary-time"))
        assert len(err.value.history) == 60
        assert float(err.value.history[-1]["energy"]).hex() == "-0x1.9cddd9dc1a59bp-1"
        assert err.value.diagnostics["mixing_halvings"] == 7

    def test_imaginary_time_hartree_lda_cavity(self):
        system = ElectronSystem(grid=Grid((61,), 0.4),
                                ions=[Ion(1.0, (-1.2,), 1.0), Ion(1.0, (1.2,), 1.0)],
                                occupations=[2.0])
        cav = CavityMode(omega=0.3, coupling=(0.05,), n_fock=1)
        state = scf_solve(system, cav, ScfConfig(tol_energy=1e-10, tol_density=1e-8,
                                                 max_iterations=2000,
                                                 minimizer="imaginary-time"))
        assert state.iterations == 370
        assert float(state.energy.total).hex() == "-0x1.1713268eec177p+1"
        assert abs(laplacian_total_energy(system, state.orbitals, cav).total
                   - state.energy.total) <= 1e-13

    def test_returned_state_is_its_orbitals_state(self):
        system = ElectronSystem(grid=Grid((61,), 0.4, order=5),
                                ions=[Ion(1.0, (-1.2,), 1.0), Ion(1.0, (1.2,), 1.0)],
                                occupations=[2.0])
        cav = CavityMode(omega=0.3, coupling=(0.05,), n_fock=1)
        state = scf_solve(system, cav, ScfConfig(tol_energy=1e-8, tol_density=1e-6,
                                                 max_iterations=2000))
        # a new OrbitalSet, so |psi|^2 is formed again rather than taken from the cache
        rho = electron_density(OrbitalSet(state.orbitals.psi.copy(), [2.0], system.grid))
        pot = assemble_ks(rho, system)
        energy = total_energy(system, state.orbitals, cav, potential=pot)
        assert np.array_equal(state.density.values, rho.values)
        for piece in ("v_hartree", "v_xc", "v_ion", "total"):
            assert np.array_equal(getattr(state.potential, piece), getattr(pot, piece))
        assert state.mu == mean_dipole_mu(rho, cav)
        assert {k: v.hex() for k, v in state.energy.as_dict().items()} == {
            k: v.hex() for k, v in energy.as_dict().items()}


class TestDirectMinimization:
    """``minimizer="conjugate-gradient"`` against imaginary time on the same inputs."""

    @staticmethod
    def both(system, cavity, **cfg):
        direct = scf_solve(system, cavity, ScfConfig(minimizer="conjugate-gradient", **cfg))
        reference = scf_solve(system, cavity, ScfConfig(minimizer="imaginary-time", **cfg))
        assert direct.history[-1]["energy"] == direct.energy.total
        return direct, reference

    def test_two_photons_matches_imaginary_time(self):
        system = ElectronSystem(grid=Grid((61,), 0.4), ions=[Ion(1.0, (0.0,), 1.0)],
                                occupations=[1.0])
        cav = CavityMode(omega=0.2, coupling=(0.1,), n_fock=2)
        direct, reference = self.both(system, cav, tol_energy=1e-11, tol_density=1e-9,
                                      max_iterations=2000)
        # 96 iterations; the mixing CG it replaced took 1019, imaginary time 937
        assert direct.iterations <= 120
        assert abs(direct.energy.total - reference.energy.total) <= 1e-10

    def test_h2_like_dimer_order_3_matches_imaginary_time(self):
        # the mixing CG stalled here for 4000 iterations; imaginary time takes 487
        system = ElectronSystem(grid=Grid((61,), 0.4, order=3),
                                ions=[Ion(1.0, (-1.2,), 1.0), Ion(1.0, (1.2,), 1.0)],
                                occupations=[2.0])
        cav = CavityMode(omega=0.3, coupling=(0.05,), n_fock=1)
        direct, reference = self.both(system, cav, tol_energy=1e-12, tol_density=1e-10,
                                      max_iterations=4000)
        assert direct.iterations <= 100
        assert abs(direct.energy.total - reference.energy.total) <= 1e-10
        assert direct.energy.total == pytest.approx(-2.181592622, abs=1e-9)

    def test_secant_steps_reach_imaginary_time_state(self):
        # the two-electron dimer: the capped model step overshoots once
        system = ElectronSystem(grid=Grid((161,), 0.45),
                                ions=[Ion(1.0, (-2.9,), 3.6), Ion(1.0, (2.9,), 3.6)],
                                occupations=[2.0])
        cav = CavityMode(omega=0.07, coupling=(0.03,), n_fock=1)
        direct, reference = self.both(system, cav, tol_energy=1e-12, tol_density=1e-10,
                                      max_iterations=4000)
        assert sum(h["secant"] for h in direct.history) >= 1
        assert direct.iterations <= 250
        assert abs(direct.energy.total - reference.energy.total) <= 1e-10

    def test_history_carries_residual(self, soft_atom):
        cav = CavityMode(omega=0.08, coupling=(0.05,), n_fock=1)
        cfg = ScfConfig(minimizer="conjugate-gradient", tol_energy=1e-10, tol_density=1e-8)
        state = scf_solve(soft_atom, cav, cfg)
        residuals = [h["residual"] for h in state.history]
        assert len(residuals) == state.iterations and all(r > 0 for r in residuals)
        assert residuals[-1] < 1e-8 <= min(residuals[:-1])

    def test_nonconvergence_reports_residual(self, soft_atom):
        cav = CavityMode(omega=0.08, coupling=(0.05,), n_fock=1)
        with pytest.raises(ConvergenceError) as err:
            scf_solve(soft_atom, cav, ScfConfig(minimizer="conjugate-gradient",
                                                max_iterations=5, tol_energy=1e-14,
                                                tol_density=1e-12))
        history, diag = err.value.history, err.value.diagnostics
        assert len(history) == 5
        assert diag == {"last_residual": history[-1]["residual"],
                        "last_delta_energy": history[-1]["delta_energy"],
                        "secant_fallbacks": sum(h["secant"] for h in history)}
        message = str(err.value)
        assert f"|r|={diag['last_residual']:.3e}" in message
        assert f"|dE|={abs(diag['last_delta_energy']):.3e}" in message
        assert f"{diag['secant_fallbacks']} secant fallbacks" in message

    @pytest.mark.parametrize("occupations", [[1.0, 1.0], [2.0, 1.0]])
    def test_more_than_one_orbital_rejected(self, occupations):
        # the mixing CG diverged here to E = +8.7 Ha; imaginary time converges
        system = ElectronSystem(grid=Grid((61,), 0.4),
                                ions=[Ion(2.0, (-1.0,), 1.0), Ion(1.0, (1.0,), 1.0)],
                                occupations=occupations)
        cav = CavityMode(omega=0.3, coupling=(0.05,), n_fock=1)
        with pytest.raises(ConfigurationError, match="imaginary-time"):
            scf_solve(system, cav, ScfConfig(minimizer="conjugate-gradient",
                                             max_iterations=3000))


class TestDefaultMinimizer:
    """With no minimizer given, the problem picks the engine; a given one is kept."""

    @staticmethod
    def engine(system, cavity, **cfg):
        return scf_solve(system, cavity, ScfConfig(max_iterations=3000, **cfg)).minimizer

    def test_one_orbital_in_1d_runs_conjugate_gradients(self, soft_atom):
        cav = CavityMode(omega=0.08, coupling=(0.05,), n_fock=1)
        assert self.engine(soft_atom, cav) == "conjugate-gradient"
        assert self.engine(soft_atom, None) == "conjugate-gradient"
        assert self.engine(soft_atom, cav, minimizer="imaginary-time") == "imaginary-time"

    def test_two_orbitals_run_imaginary_time(self):
        system = ElectronSystem(grid=Grid((41,), 0.4), ions=[], occupations=[1.0, 1.0],
                                use_hartree=False, use_xc=False, harmonic_omega=0.5)
        cav = CavityMode(omega=0.5, coupling=(0.05,), n_fock=1)
        assert self.engine(system, cav, tol_density=1e-5) == "imaginary-time"
        with pytest.raises(ConfigurationError, match="one orbital"):
            self.engine(system, cav, minimizer="conjugate-gradient")

    def test_three_dimensional_runs_imaginary_time(self):
        system = ElectronSystem(grid=Grid((7, 7, 7), 0.6), ions=[], occupations=[1.0],
                                use_hartree=False, use_xc=False, harmonic_omega=0.5)
        cav = CavityMode(omega=0.5, coupling=(0.05, 0.0, 0.0), n_fock=1)
        assert self.engine(system, cav, tol_density=1e-5) == "imaginary-time"
        assert self.engine(system, cav, tol_density=1e-5,
                           minimizer="conjugate-gradient") == "conjugate-gradient"

    def test_state_from_orbitals_names_no_engine(self, soft_atom):
        assert state_from_orbitals(soft_atom, None, init_orbitals(soft_atom, None)).minimizer \
            is None

    @pytest.mark.parametrize("lam, minimizer", [
        pytest.param(0.02, None, id="0.02"), pytest.param(0.05, None, id="0.05"),
        pytest.param(0.02, "imaginary-time", id="0.02-imaginary-time"),
        pytest.param(0.05, "imaginary-time", id="0.05-imaginary-time")])
    def test_benchmark_harmonic_solves_match_oracle(self, lam, minimizer):
        # the coupling-scan inputs, on the default and the imaginary-time engine
        from cavitydft import oracle
        system = ElectronSystem(grid=Grid((55,), 0.3), ions=[], occupations=[1.0],
                                use_hartree=False, use_xc=False, harmonic_omega=0.5)
        cav = CavityMode(omega=0.5, coupling=(lam,), n_fock=2)
        state = scf_solve(system, cav, ScfConfig(tol_energy=1e-12, tol_density=1e-9,
                                                 max_iterations=4000, minimizer=minimizer))
        ref = oracle.scf_ground_state(system, cav)
        assert state.minimizer == (minimizer or "conjugate-gradient")
        assert abs(state.energy.total - ref.energy) <= 1e-12
        assert np.max(np.abs(photon_occupations(state.orbitals) - ref.occupations)) <= 1e-10

    def test_three_dimensional_harmonic_atom_matches_oracle(self):
        # separable without Hartree and XC: the cavity couples x only, so the
        # energy is the 1D polariton's on the x line plus the y and z ground
        # states of the bare well, and P_n is the 1D polariton's
        from cavitydft import oracle
        omega0, n, h = 0.5, 13, 0.5
        cav = CavityMode(omega=0.5, coupling=(0.05, 0.0, 0.0), n_fock=2)
        system = ElectronSystem(grid=Grid((n, n, n), h), ions=[], occupations=[1.0],
                                use_hartree=False, use_xc=False, harmonic_omega=omega0)
        state = scf_solve(system, cav, ScfConfig(tol_energy=1e-12, tol_density=1e-8,
                                                 max_iterations=4000))
        line = ElectronSystem(grid=Grid((n,), h), ions=[], occupations=[1.0],
                              use_hartree=False, use_xc=False, harmonic_omega=omega0)
        ref = oracle.scf_ground_state(line, CavityMode(omega=0.5, coupling=(0.05,), n_fock=2))
        y = line.grid.axis_coordinates(0)
        h_perp = oracle.kinetic_matrix(line.grid).toarray() + np.diag(0.5 * omega0**2 * y**2)
        e_perp = np.linalg.eigvalsh(h_perp)[0]
        assert state.minimizer == "imaginary-time"
        assert abs(state.energy.total - (ref.energy + 2.0 * e_perp)) <= 1e-12
        assert np.max(np.abs(photon_occupations(state.orbitals) - ref.occupations)) <= 1e-12


class TestWorkPerIteration:
    """What one SCF iteration calls, counted through the module's globals."""

    @pytest.mark.parametrize("minimizer", ["imaginary-time", "conjugate-gradient"])
    @pytest.mark.parametrize("logged", [False, True], ids=["quiet", "log"])
    def test_counts(self, monkeypatch, minimizer, logged):
        calls = dict.fromkeys(["assemble_ks", "apply_hamiltonian", "laplacian", "total_energy",
                               "photon_occupations", "gram_schmidt_sectorwise"], 0)

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        for name in calls:
            counted(scf_module, name)
        # an H product is one sparse product and takes no Laplacian
        counted(cavity_module, "laplacian")
        system = ElectronSystem(grid=Grid((41,), 0.4), ions=[Ion(1.0, (0.0,), 1.0)],
                                occupations=[1.0])
        cav = CavityMode(omega=0.2, coupling=(0.05,), n_fock=1)
        lines = []
        state = scf_solve(system, cav, ScfConfig(minimizer=minimizer, max_iterations=3000),
                          log=lines.append if logged else None)
        n = state.iterations
        assert len(lines) == (n if logged else 0)
        logs = {"photon_occupations": n if logged else 0, "total_energy": 1,
                "gram_schmidt_sectorwise": 2}
        if minimizer == "imaginary-time":
            # per iteration: the input and the output mean field, two H
            # products for the step and one for the energy; once per solve:
            # the seed's and the start's orthonormalization and the returned
            # state's energy, with its H product
            assert calls == {"assemble_ks": 2 * n, "apply_hamiltonian": 3 * n + 1,
                             "laplacian": 0, **logs}
            return
        # the start's mean field and H product; per iteration the model's H
        # product and the trial point's mean field and H product, which also
        # gives the energy; per secant fallback one more mean field and H
        # product; once per solve the returned state's energy, with its H product
        s = sum(h["secant"] for h in state.history)
        assert calls == {"assemble_ks": 1 + n + s, "apply_hamiltonian": 2 + 2 * n + s,
                         "laplacian": 0, **logs}

    def test_no_energy_evaluation_on_failure(self, monkeypatch, soft_atom):
        calls = []
        original = scf_module.total_energy
        monkeypatch.setattr(scf_module, "total_energy",
                            lambda *a, **k: calls.append(1) or original(*a, **k))
        with pytest.raises(ConvergenceError):
            scf_solve(soft_atom, None, ScfConfig(max_iterations=4, tol_energy=1e-14,
                                                 tol_density=1e-12))
        assert calls == []
