import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as sla

import cavitydft.grid as gridmod
import cavitydft.potentials as potentials
from cavitydft.errors import ConfigurationError
from cavitydft.grid import Grid, d2_stencil, integrate, laplacian
from cavitydft.potentials import (Density, ElectronSystem, Ion, assemble_ks,
                                  external_potential, hartree_potential, hartree_potential_1d,
                                  hartree_potential_3d, ionic_potential, lda_xc)
from reference import hartree_energy_direct_1d, multipole_boundary_source


@pytest.fixture
def line():
    return Grid((201,), 0.2)


def normalized_gaussian(grid, center=0.0, width=1.0):
    x = grid.coordinate(0)
    rho = np.exp(-((x - center) ** 2) / (2 * width**2))
    return rho / integrate(rho, grid)


class TestIonicPotential:
    def test_single_ion_at_origin(self, line):
        v = ionic_potential([Ion(1.0, (0.0,), 1.0)], line)
        assert v[100] == pytest.approx(-1.0)

    def test_two_ion_symmetry(self, line):
        v = ionic_potential([Ion(1.0, (-2.0,), 1.0), Ion(1.0, (2.0,), 1.0)], line)
        assert np.allclose(v, v[::-1], atol=1e-14)

    def test_far_field_total_charge(self):
        g = Grid((801,), 0.25)
        v = ionic_potential([Ion(1.5, (0.5,), 1.0), Ion(0.5, (-0.5,), 0.5)], g)
        x = g.coordinate(0)
        far = np.argmin(np.abs(x - 80.0))
        assert v[far] == pytest.approx(-2.0 / 80.0, rel=0.01)

    def test_ion_outside_box_rejected(self, line):
        with pytest.raises(ConfigurationError):
            ElectronSystem(grid=line, ions=[Ion(1.0, (30.0,), 1.0)],
                           occupations=[1.0])

    @pytest.mark.parametrize("occupations", [[-1.0], [np.nan, -1.0]])
    def test_negative_occupation_rejected(self, line, occupations):
        with pytest.raises(ConfigurationError, match="non-negative"):
            ElectronSystem(grid=line, occupations=occupations)

    @pytest.mark.parametrize("occupations", [[np.nan], [1.0, np.inf]])
    def test_non_finite_occupation_rejected(self, line, occupations):
        with pytest.raises(ConfigurationError, match="finite"):
            ElectronSystem(grid=line, occupations=occupations)

    def test_bad_softening_rejected(self):
        with pytest.raises(ConfigurationError):
            Ion(1.0, (0.0,), -1.0)

    @pytest.mark.parametrize("charge, position", [
        (np.nan, (0.0,)), (1.0, (np.nan,)), (1.0, (0.0, np.nan, 0.0)), (np.inf, (0.0,))])
    def test_non_finite_ion_rejected(self, charge, position):
        with pytest.raises(ConfigurationError, match="non-finite ion"):
            Ion(charge, position, 1.0)


class TestHartree1D:
    def test_zero_density(self, line):
        rho = Density(np.zeros(line.shape), line)
        assert np.all(hartree_potential(rho, softening=1.0) == 0.0)

    def test_delta_peak_matches_kernel(self):
        g = Grid((401,), 0.05)
        rho = np.zeros(401)
        rho[200] = 1.0 / g.h  # unit charge on one point
        v = hartree_potential_1d(rho, g, 1.0)
        x = g.coordinate(0)
        assert np.max(np.abs(v - 1.0 / np.sqrt(x**2 + 1.0))) < 1e-14

    def test_positive_for_positive_density(self, line):
        rho = normalized_gaussian(line)
        v = hartree_potential_1d(rho, line, 1.0)
        assert np.all(v > 0.0)

    def test_kernel_cache_is_read_only(self, line):
        kernel = potentials._soft_kernel_1d(line, 1.0)
        assert kernel is potentials._soft_kernel_1d(Grid((201,), 0.2), 1.0)
        assert not kernel.flags.writeable

    def test_energy_matches_direct_double_sum(self, line):
        rho = normalized_gaussian(line, center=0.7, width=1.3) * 2.0
        v = hartree_potential_1d(rho, line, 1.0)
        e_solver = 0.5 * float(np.sum(rho * v)) * line.h
        e_direct = hartree_energy_direct_1d(rho, line, 1.0)
        assert e_solver == pytest.approx(e_direct, rel=1e-12)
        assert e_solver > 0.0


class TestHartree3D:
    def test_monopole_far_field(self):
        g = Grid((33, 33, 33), 0.5)
        x, y, z = g.coordinates
        rho = np.exp(-(x**2 + y**2 + z**2) / (2 * 0.4**2))
        rho /= integrate(rho, g)
        v = hartree_potential_3d(rho, g)
        idx = np.argmin(np.abs(g.axis_coordinates(0) - 6.0))
        c = 16  # center index
        assert v[idx, c, c] == pytest.approx(1.0 / 6.0, rel=0.01)

    def test_matches_direct_sparse_solve(self):
        # independent solver oracle on a tiny grid
        g = Grid((13, 13, 13), 0.7)
        x, y, z = g.coordinates
        rho = np.exp(-(x**2 + (y - 0.3) ** 2 + z**2))
        rho /= integrate(rho, g)
        v = hartree_potential_3d(rho, g)

        n = g.n_points
        cols = []
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            cols.append(-laplacian(e.reshape(g.shape), g).ravel())
        a_mat = sp.csr_matrix(np.column_stack(cols))
        b = 4 * np.pi * rho + multipole_boundary_source(rho, g)
        v_direct = sla.spsolve(a_mat.tocsc(), b.ravel()).reshape(g.shape)
        assert np.max(np.abs(v - v_direct)) < 1e-12 * np.max(np.abs(v_direct))

    @staticmethod
    def sparse_neg_laplacian(grid):
        """-lap as a Kronecker sum of 1D zero-wall stencil matrices."""
        w = d2_stencil(grid.order) / grid.h**2
        half = (grid.order - 1) // 2
        eyes = [sp.identity(n, format="csr") for n in grid.shape]
        total = sp.csr_matrix((grid.n_points, grid.n_points))
        for axis, n in enumerate(grid.shape):
            d2 = sp.diags([w[half + k] * np.ones(n - abs(k)) for k in range(-half, half + 1)],
                          list(range(-half, half + 1)), shape=(n, n))
            factors = eyes[:axis] + [d2] + eyes[axis + 1:]
            total = total - sp.kron(sp.kron(factors[0], factors[1]), factors[2])
        return total.tocsc()

    @pytest.mark.parametrize("order", [3, 5, 7, 9])
    def test_matches_sparse_solve_every_order(self, order):
        g = Grid((13, 11, 9), 0.6, order)
        x, y, z = g.coordinates
        rho = np.exp(-((x - 0.4) ** 2 + y**2 + (z + 0.2) ** 2))
        rho /= integrate(rho, g)
        v = hartree_potential_3d(rho, g)

        b = 4 * np.pi * rho + multipole_boundary_source(rho, g)
        v_direct = sla.spsolve(self.sparse_neg_laplacian(g), b.ravel()).reshape(g.shape)
        assert np.max(np.abs(v - v_direct)) < 1e-12 * np.max(np.abs(v_direct))

    def test_symmetric_for_densities_without_charge_or_dipole(self):
        # the multipole boundary term vanishes, leaving the symmetric L^-1
        g = Grid((15, 15, 15), 0.5)
        x, y, z = g.coordinates
        moments = np.stack([np.ones(g.shape), x, y, z]).reshape(4, -1)
        rng = np.random.default_rng(3)
        envelope = np.exp(-(x**2 + y**2 + z**2) / 4.0).ravel()
        a, b = rng.uniform(-1.0, 1.0, (2, g.n_points)) * envelope
        a, b = (f - moments.T @ np.linalg.solve(moments @ moments.T, moments @ f)
                for f in (a, b))
        a, b = a.reshape(g.shape), b.reshape(g.shape)
        a_vb = float(np.sum(a * hartree_potential_3d(b, g)))
        b_va = float(np.sum(b * hartree_potential_3d(a, g)))
        assert abs(a_vb - b_va) <= 1e-12 * abs(a_vb)

    def test_solver_cache_is_shared_and_read_only(self):
        pieces = potentials._dirichlet_solver(Grid((9, 7, 5), 0.5))
        assert pieces is potentials._dirichlet_solver(Grid((9, 7, 5), 0.5))
        vectors, inverse_values, moment_weights, responses = pieces
        assert inverse_values.shape == (9, 7, 5) and np.all(inverse_values > 0)
        assert responses.shape == moment_weights.shape == (4, 9 * 7 * 5)
        assert not any(a.flags.writeable
                       for a in (*vectors, inverse_values, moment_weights, responses))

    def test_padded_geometry_cache_is_read_only(self):
        coords, r, r3 = potentials._padded_geometry(Grid((9, 7, 5), 0.5))
        assert r is potentials._padded_geometry(Grid((9, 7, 5), 0.5))[1]
        assert r.shape == (17, 15, 13)
        assert not any(a.flags.writeable for a in (*coords, r, r3))

    def test_solve_after_the_first_makes_no_laplacian_call(self, monkeypatch):
        g = Grid((15, 15, 15), 0.4)
        x, y, z = g.coordinates
        rho = np.exp(-((x - 0.7) ** 2 + y**2 + z**2)) + np.exp(-((x + 0.7) ** 2 + y**2 + z**2))
        rho *= 2.0 / integrate(rho, g)
        first = hartree_potential_3d(rho, g)

        calls = []

        def counted_laplacian(*args, **kwargs):
            calls.append(1)
            return laplacian(*args, **kwargs)

        monkeypatch.setattr(potentials, "laplacian", counted_laplacian)
        monkeypatch.setattr(gridmod, "laplacian", counted_laplacian)
        assert np.array_equal(hartree_potential_3d(rho, g), first)
        assert calls == []


class TestLdaXc:
    def test_zero_density(self, line):
        v, e = lda_xc(Density(np.zeros(line.shape), line))
        assert np.all(v == 0.0) and e == 0.0

    def test_uniform_exchange_energy_density(self):
        # r_s = 1: eps_x from the closed-form expression
        g = Grid((11,), 0.5)
        rs = 1.0
        rho_val = 3.0 / (4.0 * np.pi * rs**3)
        rho = Density(np.full(g.shape, rho_val), g)
        _, e_xc = lda_xc(rho)
        eps_x = -(3.0 / (4.0 * np.pi)) * (9.0 * np.pi / 4.0) ** (1.0 / 3.0) / rs
        # pull the correlation part off with the published fit at r_s = 1
        gamma, b1, b2 = -0.1423, 1.0529, 0.3334
        eps_c = gamma / (1.0 + b1 + b2)
        expected = (eps_x + eps_c) * rho_val * 11 * 0.5
        assert e_xc == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_functional_derivative(self, line, seed):
        rng = np.random.default_rng(seed)
        x = line.coordinate(0)
        rho0 = (1.0 + 0.3 * np.sin(x)) * np.exp(-(x**2) / 8.0) * 0.4
        drho = np.exp(-((x - 1.0) ** 2)) * rng.uniform(0.5, 1.5)
        eps = 1e-6
        v, _ = lda_xc(Density(rho0, line))
        _, e_plus = lda_xc(Density(rho0 + eps * drho, line))
        _, e_minus = lda_xc(Density(rho0 - eps * drho, line))
        fd = (e_plus - e_minus) / (2 * eps)
        direct = float(np.sum(v * drho)) * line.h
        assert fd == pytest.approx(direct, rel=1e-5)

    def test_negative_roundoff_clipped(self, line):
        rho = np.full(line.shape, -1e-13)
        v, e = lda_xc(Density(rho, line))
        assert np.all(v == 0.0) and e == 0.0

    @staticmethod
    def masked_reference(rho, grid):
        """The masked-gather form of the same formulas, kept to pin the bits."""
        rho = np.clip(np.asarray(rho, dtype=float), 0.0, None)
        mask = rho > 1e-30
        v = np.zeros_like(rho)
        eps = np.zeros_like(rho)
        r = rho[mask]
        rs = (3.0 / (4.0 * np.pi * r)) ** (1.0 / 3.0)
        eps_x = -potentials._CX * r ** (1.0 / 3.0)
        v_x = (4.0 / 3.0) * eps_x
        gamma, b1, b2 = -0.1423, 1.0529, 0.3334
        a, b, c, d = 0.0311, -0.048, 0.0020, -0.0116
        eps_c = np.empty_like(r)
        v_c = np.empty_like(r)
        low = rs >= 1.0
        if np.any(low):
            s = np.sqrt(rs[low])
            denom = 1.0 + b1 * s + b2 * rs[low]
            ec = gamma / denom
            eps_c[low] = ec
            v_c[low] = ec * (1.0 + (7.0 / 6.0) * b1 * s + (4.0 / 3.0) * b2 * rs[low]) / denom
        high = ~low
        if np.any(high):
            rsh = rs[high]
            ln = np.log(rsh)
            eps_c[high] = a * ln + b + c * rsh * ln + d * rsh
            v_c[high] = (a * ln + (b - a / 3.0) + (2.0 / 3.0) * c * rsh * ln
                         + (2.0 * d - c) / 3.0 * rsh)
        eps[mask] = eps_x + eps_c
        v[mask] = v_x + v_c
        return v, float(integrate(eps * rho, grid))

    @pytest.mark.parametrize("case", ["mixed", "zeros", "tiny", "negative", "low", "high",
                                      "low-unmasked"])
    def test_bit_identical_to_masked_form(self, line, case):
        rng = np.random.default_rng(11)
        x = line.coordinate(0)
        rho = {
            # both branches (r_s < 1 where rho > 3 / (4 pi)), zeros, tiny and
            # negative values on one line
            "mixed": np.concatenate([np.zeros(20), np.full(10, 1e-31), np.full(10, -1e-14),
                                     np.full(10, 1e-29),
                                     rng.uniform(0.0, 3.0, 151)]),
            "zeros": np.zeros(line.shape),
            "tiny": rng.uniform(0.0, 2e-30, line.shape),
            "negative": -rng.uniform(0.0, 1e-12, line.shape),
            # r_s >= 1 on the whole line; the tails underflow below the floor
            "low": 0.2 * np.exp(-x**2),
            "high": 0.3 + 2.0 * np.exp(-x**2),
            # r_s >= 1 and above the floor everywhere, as for the 1D dimer's
            # density: one branch and no masks
            "low-unmasked": 0.05 + 0.1 * np.exp(-x**2),
        }[case]
        rs = (3.0 / (4.0 * np.pi * np.clip(rho, 1e-300, None))) ** (1.0 / 3.0)
        if case == "mixed":
            assert np.any(rs < 1.0) and np.any((rs >= 1.0) & (rho > 1e-30))
        if case == "low-unmasked":
            assert np.all(rs >= 1.0) and np.all(rho > 1e-30)
        v, e = lda_xc(Density(rho, line))
        v_ref, e_ref = self.masked_reference(rho, line)
        assert np.array_equal(v, v_ref)
        assert e == e_ref


class TestAssembleKs:
    def test_zero_density_no_ions(self, line):
        sys_ = ElectronSystem(grid=line, ions=[], occupations=[1.0])
        pot = assemble_ks(Density(np.zeros(line.shape), line), sys_)
        assert np.all(pot.total == 0.0)

    def test_total_is_sum_of_parts(self, line):
        sys_ = ElectronSystem(grid=line, ions=[Ion(1.0, (0.0,), 1.0)],
                              occupations=[2.0])
        rho = Density(normalized_gaussian(line) * 2.0, line)
        pot = assemble_ks(rho, sys_)
        assert np.array_equal(pot.total, pot.v_hartree + pot.v_xc + pot.v_ion)

    def test_recomputation_bit_identical(self, line):
        sys_ = ElectronSystem(grid=line, ions=[Ion(1.0, (0.5,), 1.0)],
                              occupations=[1.0])
        rho = Density(normalized_gaussian(line, 0.2), line)
        a = assemble_ks(rho, sys_)
        b = assemble_ks(rho, sys_)
        assert np.array_equal(a.total, b.total)
        assert a.e_xc == b.e_xc and a.e_hartree == b.e_hartree

    def test_switches_disable_terms(self, line):
        sys_ = ElectronSystem(grid=line, ions=[], occupations=[1.0],
                              use_hartree=False, use_xc=False,
                              harmonic_omega=0.5)
        rho = Density(normalized_gaussian(line), line)
        pot = assemble_ks(rho, sys_)
        x = line.coordinate(0)
        assert np.allclose(pot.total, 0.125 * x**2)

    def test_harmonic_extra_potential(self, line):
        sys_ = ElectronSystem(grid=line, ions=[], occupations=[1.0],
                              harmonic_omega=0.3)
        v = external_potential(sys_)
        x = line.coordinate(0)
        assert np.allclose(v, 0.045 * x**2)
