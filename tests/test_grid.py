import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavitydft.errors import ConfigurationError, GridMismatchError
from cavitydft.grid import (Grid, components, d2_stencil, dipole_integral, inner_product,
                            integrate, laplacian)
from scipy import ndimage


@pytest.fixture
def line():
    return Grid((201,), 0.1)


def gaussian(grid, center=0.0, width=1.0):
    x = grid.coordinate(0)
    return np.exp(-((x - center) ** 2) / (2.0 * width**2))


class TestGridConstruction:
    def test_axis_coordinates_centered(self, line):
        x = line.axis_coordinates(0)
        assert x[0] == -10.0 and x[-1] == 10.0
        assert abs(x.sum()) < 1e-12

    def test_too_few_points_rejected(self):
        with pytest.raises(ConfigurationError):
            Grid((4,), 0.1)

    def test_bad_spacing_rejected(self):
        with pytest.raises(ConfigurationError):
            Grid((11,), -0.1)

    def test_2d_rejected(self):
        with pytest.raises(ConfigurationError):
            Grid((11, 11), 0.1)

    def test_volume_element_3d(self):
        g = Grid((9, 9, 9), 0.5)
        assert g.volume_element == pytest.approx(0.125)
        assert g.n_points == 729


@pytest.mark.parametrize("value", [
    61, 0.4, True, np.float64(0.7), np.int64(9), np.array(2.5), (61,), [9, 9, 9], (0.05, 0.0),
    np.array([1.0, -2.0]), "1.5",
], ids=repr)
def test_components_reads_values_as_atleast_1d(value):
    # the constructors cast each component with float() or int()
    got, want = components(value), tuple(np.atleast_1d(value))
    assert [float(c) for c in got] == [float(c) for c in want]


class TestLaplacian:
    def test_constant_field_interior_zero(self, line):
        f = np.ones(line.shape)
        lap = laplacian(f, line)
        # interior points farther than the half-width from the wall
        assert np.max(np.abs(lap[4:-4])) < 1e-12

    def test_gaussian_second_derivative_at_origin(self):
        # error at h = 0.05 derived from the h^8 truncation term; well below 1e-8
        g = Grid((401,), 0.05)
        x = g.coordinate(0)
        f = np.exp(-x**2)
        lap = laplacian(f, g)
        exact = (4.0 * x**2 - 2.0) * np.exp(-x**2)
        i0 = 200
        assert abs(lap[i0] - exact[i0]) < 1e-8

    def test_gaussian_truncation_error_at_coarse_h(self):
        # at h = 0.1 the leading truncation term is h^8 f^(10)(0)/3150 ~ 9.6e-8
        g = Grid((201,), 0.1)
        x = g.coordinate(0)
        lap = laplacian(np.exp(-x**2), g)
        err = abs(lap[100] - (-2.0))
        assert 1e-8 < err < 2e-7

    @pytest.mark.parametrize("order,expected", [(3, 2), (5, 4), (7, 6), (9, 8)])
    def test_convergence_order(self, order, expected):
        k = 1.3

        def max_err(h):
            n = int(round(20.0 / h)) + 1
            g = Grid((n,), h, order)
            x = g.coordinate(0)
            f = np.sin(k * x)
            lap = laplacian(f, g)
            inner = np.abs(x) < 5.0
            return np.max(np.abs(lap + k**2 * f)[inner])

        observed = np.log2(max_err(0.2) / max_err(0.1))
        assert observed > expected - 0.5

    def test_symmetric_operator(self, line):
        rng = np.random.default_rng(42)
        f = rng.standard_normal(line.shape) + 1j * rng.standard_normal(line.shape)
        g = rng.standard_normal(line.shape) + 1j * rng.standard_normal(line.shape)
        lhs = inner_product(f, laplacian(g, line), line)
        rhs = inner_product(laplacian(f, line), g, line)
        assert abs(lhs - rhs) < 1e-10 * abs(lhs)

    def test_symmetric_operator_3d(self):
        g3 = Grid((9, 11, 9), 0.4)
        rng = np.random.default_rng(3)
        f = rng.standard_normal(g3.shape) + 1j * rng.standard_normal(g3.shape)
        g = rng.standard_normal(g3.shape) + 1j * rng.standard_normal(g3.shape)
        lhs = inner_product(f, laplacian(g, g3), g3)
        rhs = inner_product(laplacian(f, g3), g, g3)
        assert abs(lhs - rhs) < 1e-10 * abs(lhs)

    def test_linearity(self, line):
        rng = np.random.default_rng(5)
        f = rng.standard_normal(line.shape)
        g = rng.standard_normal(line.shape)
        both = laplacian(f + 2.5 * g, line)
        assert np.allclose(both, laplacian(f, line) + 2.5 * laplacian(g, line),
                           atol=1e-13)

    def test_batch_axes(self, line):
        rng = np.random.default_rng(6)
        batch = rng.standard_normal((3, 2) + line.shape)
        lap = laplacian(batch, line)
        assert lap.shape == batch.shape
        assert np.allclose(lap[1, 0], laplacian(batch[1, 0], line))

    def test_minimum_grid_accepted_by_widest_stencil(self):
        # five points exceed the 9-point half-width of four, the boundary case
        g = Grid((5,), 0.1, 9)
        lap = laplacian(np.ones(5), g)
        assert lap.shape == (5,)

    def test_unsupported_order_rejected(self):
        with pytest.raises(ConfigurationError, match="unsupported stencil order 11"):
            Grid((21,), 0.1, order=11)

    def test_deterministic(self, line):
        rng = np.random.default_rng(7)
        f = rng.standard_normal(line.shape)
        assert np.array_equal(laplacian(f, line), laplacian(f, line))

    @pytest.mark.parametrize("grid", [Grid((9,), 0.7), Grid((7, 6, 5), 0.7)], ids=["1d", "3d"])
    def test_integer_input_filtered_as_float(self, grid):
        # an integer field is not truncated to integer sums along the way
        f = np.arange(grid.n_points).reshape(grid.shape) ** 2
        lap = laplacian(f, grid)
        assert lap.dtype == np.float64
        assert np.array_equal(lap, laplacian(f.astype(float), grid))
        if grid.dim == 1:
            assert lap[:3] == pytest.approx([2.0408163, 4.3152737, 4.0443797])


def two_pass_complex_laplacian(f, grid):
    """Reference: real and imaginary parts filtered apart, axis by axis."""
    weights = d2_stencil(grid.order) / grid.h**2
    out = np.zeros_like(f, dtype=np.result_type(f.dtype, float))
    for axis in range(-grid.dim, 0):
        out += (ndimage.correlate1d(f.real, weights, axis=axis, mode="constant")
                + 1j * ndimage.correlate1d(f.imag, weights, axis=axis, mode="constant"))
    return out


class TestComplexLaplacianBitIdentical:
    CASES = {
        "1d": (Grid((161,), 0.3), (1, 2)),
        "1d-three-sectors": (Grid((55,), 0.4), (1, 3)),
        "3d": (Grid((15, 13, 11), 0.4), (1, 2)),
    }

    @staticmethod
    def field(shape, seed, dtype=complex):
        rng = np.random.default_rng(seed)
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(dtype)

    @pytest.mark.parametrize("order", [3, 5, 7, 9])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_two_pass_formula(self, case, order):
        grid, lead = self.CASES[case]
        grid = Grid(grid.shape, grid.h, order)
        f = self.field(lead + grid.shape, order)
        assert np.array_equal(laplacian(f, grid), two_pass_complex_laplacian(f, grid))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_non_contiguous_slice(self, case):
        grid, lead = self.CASES[case]
        f = self.field(lead + grid.shape, 11)[..., ::-1]
        assert not f.flags.c_contiguous
        assert np.array_equal(laplacian(f, grid), two_pass_complex_laplacian(f, grid))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_complex64_input(self, case):
        grid, lead = self.CASES[case]
        f = self.field(lead + grid.shape, 12, dtype=np.complex64)
        lap = laplacian(f, grid)
        assert lap.dtype == np.complex128
        assert np.array_equal(lap, two_pass_complex_laplacian(f, grid))


class TestInnerProduct:
    def test_all_ones(self):
        g = Grid((50,), 0.3)
        f = np.ones(50)
        assert inner_product(f, f, g) == pytest.approx(50 * 0.3)

    def test_gram_schmidt_orthogonal_pair(self, line):
        rng = np.random.default_rng(11)
        f = rng.standard_normal(line.shape) + 1j * rng.standard_normal(line.shape)
        g = rng.standard_normal(line.shape) + 1j * rng.standard_normal(line.shape)
        g = g - inner_product(f, g, line) / inner_product(f, f, line) * f
        assert abs(inner_product(f, g, line)) < 1e-12

    def test_normalized_gaussian(self):
        g = Grid((101,), 0.2)
        width = 1.0
        f = gaussian(g, width=width) / (np.pi * width**2) ** 0.25
        assert inner_product(f, f, g).real == pytest.approx(1.0, abs=1e-10)

    def test_grid_mismatch(self, line):
        other = Grid((101,), 0.1)
        with pytest.raises(GridMismatchError):
            inner_product(np.ones(201), np.ones(101), other)

    @settings(max_examples=25, deadline=None)
    @given(scale=st.floats(0.1, 5.0), seed=st.integers(0, 2**31))
    def test_conjugate_symmetry(self, scale, seed):
        g = Grid((31,), 0.3)
        rng = np.random.default_rng(seed)
        f = scale * (rng.standard_normal(31) + 1j * rng.standard_normal(31))
        h = rng.standard_normal(31) + 1j * rng.standard_normal(31)
        assert inner_product(f, h, g) == pytest.approx(
            np.conj(inner_product(h, f, g)))
        assert inner_product(f, f, g).real >= 0.0


class TestDipoleIntegral:
    def test_symmetric_density(self, line):
        rho = gaussian(line)
        assert abs(dipole_integral(rho, line)) < 1e-10

    def test_offset_gaussian_first_moment(self):
        g = Grid((301,), 0.1)
        width = 0.8
        rho = gaussian(g, center=1.5, width=width)
        rho /= integrate(rho, g)
        assert dipole_integral(rho, g) == pytest.approx(1.5, abs=1e-8)

    def test_antisymmetric_pair_cancels(self):
        g = Grid((301,), 0.1)
        rho = gaussian(g, center=3.0) + gaussian(g, center=-3.0)
        assert abs(dipole_integral(rho, g)) < 1e-10

    def test_3d_axis_selection(self):
        g = Grid((21, 21, 21), 0.5)
        x, y, z = g.coordinates
        rho = np.exp(-(x**2 + (y - 1.0) ** 2 + z**2))
        rho /= integrate(rho, g)
        assert dipole_integral(rho, g, axis=1) == pytest.approx(1.0, abs=1e-6)
        assert abs(dipole_integral(rho, g, axis=0)) < 1e-10
