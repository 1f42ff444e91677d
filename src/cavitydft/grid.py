"""Uniform real-space meshes and the finite-difference machinery on them.

Fields are plain numpy arrays shaped like ``grid.shape`` (complex or real);
the :class:`Grid` object carries geometry, the quadrature weight and the
stencil order of the discretisation, which every operator built on the
grid reads.  All quantities are in atomic units.  Operators use central
differences with hard-wall (zero outside the box) boundaries and a fixed
axis-major summation order, so every operation here is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy import ndimage

from .errors import ConfigurationError, GridMismatchError

# Central second-derivative stencils, keyed by points per axis.  Entry i is
# the coefficient of f(x +- i*h); divide by h^2 on application.
_D2_HALF_STENCILS = {
    3: (-2.0, 1.0),
    5: (-5.0 / 2.0, 4.0 / 3.0, -1.0 / 12.0),
    7: (-49.0 / 18.0, 3.0 / 2.0, -3.0 / 20.0, 1.0 / 90.0),
    9: (-205.0 / 72.0, 8.0 / 5.0, -1.0 / 5.0, 8.0 / 315.0, -1.0 / 560.0),
}

SUPPORTED_ORDERS = tuple(sorted(_D2_HALF_STENCILS))
DEFAULT_ORDER = 9


def components(value) -> tuple:
    """``value`` as a tuple, a scalar as a 1-tuple, as ``np.atleast_1d`` reads it.

    Tuples, lists and Python numbers take no numpy call.
    """
    if isinstance(value, (tuple, list)):
        return tuple(value)
    if isinstance(value, (int, float)):
        return (value,)
    return tuple(np.atleast_1d(value))


def d2_stencil(order: int) -> np.ndarray:
    """Full symmetric second-derivative stencil for ``order`` points per axis.

    ``order`` is one of ``SUPPORTED_ORDERS``, which :class:`Grid` checks.
    """
    half = _D2_HALF_STENCILS[order]
    return np.array(list(reversed(half[1:])) + list(half), dtype=float)


@dataclass(frozen=True)
class Grid:
    """Uniform Cartesian mesh (1D or 3D) centered on the origin.

    Parameters
    ----------
    shape : tuple of int
        Points per axis, ``(N_x,)`` or ``(N_x, N_y, N_z)``.
    h : float
        Grid spacing in bohr, identical along every axis.
    order : int
        Points per axis of the central second-derivative stencil (3, 5, 7
        or 9).  The Laplacian, the kinetic energy, the propagator, the 3D
        Poisson solve and the oracle all use this one stencil.
    """

    shape: tuple
    h: float
    order: int = DEFAULT_ORDER

    def __post_init__(self):
        shape = tuple(map(int, components(self.shape)))
        object.__setattr__(self, "shape", shape)
        if len(shape) not in (1, 3):
            raise ConfigurationError(f"grid must be 1D or 3D, got {len(shape)} axes")
        if min(shape) < 5:
            raise ConfigurationError(f"every axis needs >= 5 points, got {shape}")
        if not self.h > 0:
            raise ConfigurationError(f"grid spacing must be positive, got {self.h}")
        if self.order not in _D2_HALF_STENCILS:
            raise ConfigurationError(
                f"unsupported stencil order {self.order}; choose one of {SUPPORTED_ORDERS}")

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def n_points(self) -> int:
        return int(np.prod(self.shape))

    @property
    def volume_element(self) -> float:
        return self.h**self.dim

    def axis_coordinates(self, axis: int) -> np.ndarray:
        """1D coordinate values along ``axis``, centered on zero."""
        n = self.shape[axis]
        return (np.arange(n) - (n - 1) / 2.0) * self.h

    @cached_property
    def coordinates(self) -> tuple:
        """Full coordinate fields, one array of ``self.shape`` per axis."""
        axes = [self.axis_coordinates(a) for a in range(self.dim)]
        if self.dim == 1:
            return (axes[0],)
        return tuple(np.meshgrid(*axes, indexing="ij"))

    def coordinate(self, axis: int) -> np.ndarray:
        return self.coordinates[axis]

    def check_field(self, f: np.ndarray) -> None:
        """Raise unless ``f``'s trailing axes match this grid."""
        f = np.asarray(f)
        if f.shape[-self.dim:] != self.shape:
            raise GridMismatchError(
                f"field shape {f.shape} does not end with grid shape {self.shape}"
            )


@lru_cache(maxsize=32)
def _laplacian_weights(grid: Grid) -> np.ndarray:
    """The stencil of :func:`laplacian` divided by h^2; shared, so read-only."""
    weights = d2_stencil(grid.order) / grid.h**2
    weights.setflags(write=False)
    return weights


def laplacian(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Apply the ``grid.order``-point finite-difference Laplacian to ``f`` (hard walls).

    ``f`` may carry leading batch axes (orbitals, Fock sectors); the stencil
    acts on the trailing ``grid.dim`` axes only.  Values outside the box are
    taken to be zero, which keeps the discrete operator symmetric.
    """
    grid.check_field(f)
    weights = _laplacian_weights(grid)
    f = np.asarray(f)
    if not np.issubdtype(f.dtype, np.inexact):
        # integer and boolean input would be filtered, and truncated, in its own dtype
        f = f.astype(float)
    out = np.empty(f.shape, dtype=np.result_type(f.dtype, float))
    if np.iscomplexobj(f):
        # One pass over (..., re/im) pairs: the same sums per component as
        # filtering f.real and f.imag apart, so the result is bit-identical.
        f = np.ascontiguousarray(f)
        source = f.view(f.real.dtype).reshape(f.shape + (2,))
        target = out.view(out.real.dtype).reshape(out.shape + (2,))
        axes = range(-grid.dim - 1, -1)
    else:
        source, target, axes = f, out, range(-grid.dim, 0)
    # every axis is filtered in the input's precision, as filtering f.real and
    # f.imag apart would be; the first axis writes the result, into the
    # result itself when the precisions agree, and every further one adds to it
    first, *rest = axes
    if source.dtype == target.dtype:
        ndimage.correlate1d(source, weights, axis=first, mode="constant", output=target)
    else:
        target[...] = ndimage.correlate1d(source, weights, axis=first, mode="constant")
    if rest:
        term = np.empty_like(source)
        for axis in rest:
            ndimage.correlate1d(source, weights, axis=axis, mode="constant", output=term)
            target += term
    return out


def inner_product(f: np.ndarray, g: np.ndarray, grid: Grid) -> complex:
    """Discrete L2 inner product <f|g> = sum(conj(f) g) h^dim.

    Conjugate-linear in ``f``, linear in ``g``.
    """
    f = np.asarray(f)
    g = np.asarray(g)
    grid.check_field(f)
    grid.check_field(g)
    if f.shape != g.shape:
        raise GridMismatchError(f"field shapes differ: {f.shape} vs {g.shape}")
    return complex(np.vdot(f, g)) * grid.volume_element


def integrate(f: np.ndarray, grid: Grid) -> complex | float:
    """Integral of a field over the box (Riemann sum times h^dim)."""
    grid.check_field(f)
    val = np.asarray(f).sum()
    return (float(val) if not np.iscomplexobj(f) else complex(val)) * grid.volume_element


def dipole_integral(rho: np.ndarray, grid: Grid, axis: int = 0) -> float:
    """First moment integral r_axis rho(r) dr of a real density."""
    rho = np.asarray(rho)
    grid.check_field(rho)
    return float((grid.coordinate(axis) * rho).sum()) * grid.volume_element
