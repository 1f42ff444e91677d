"""Post-processing of time series into spectra and derived observables.

Linear-response spectra come from delta-kick runs: the damped Fourier
transform of the dipole response gives the dynamic polarizability, whose
imaginary part yields the photo-absorption cross section

    sigma(w) = (4 pi w / 3 c) Tr[Im alpha(w)],   c = 137.036.

The transform uses exp(+i w t) together with a kick that boosts momentum
by +k, which makes Im alpha (and hence sigma) non-negative at resonances.
High-harmonic spectra are the Hann-windowed transform of the dipole
acceleration, obtained by centered second differences of D(t).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import fft

from .errors import AnalysisError, ConfigurationError, GridMismatchError, UsageError
from .grid import Grid
from .timeseries import TimeSeries, axis_index, axis_name, write_table

SPEED_OF_LIGHT = 137.036

# damping target at the end of the run: exp(-eta^2 T^2) = _DAMPING_FLOOR
_DAMPING_FLOOR = 1e-4


@dataclass
class SpectrumConfig:
    """Frequency window, resolution, and damping for spectrum extraction.

    ``eta`` is the Gaussian damping rate; ``None`` picks the value that
    makes the damping factor _DAMPING_FLOOR at the final sample.
    """

    omega_min: float = 0.0
    omega_max: float = 1.0
    omega_step: float = 1e-3
    eta: float | None = None
    peak_threshold: float = 1e-3

    def __post_init__(self):
        if not 0 < self.omega_step < np.inf:
            raise ConfigurationError(f"omega_step must be positive, got {self.omega_step}")
        if not -np.inf < self.omega_min < self.omega_max < np.inf:
            raise ConfigurationError(f"omega_max {self.omega_max} must exceed omega_min "
                                     f"{self.omega_min}, both finite")
        if self.eta is not None and not 0 <= self.eta < np.inf:
            raise ConfigurationError(f"damping eta must be >= 0, got {self.eta}")
        if not 0 <= self.peak_threshold < np.inf:
            raise ConfigurationError(f"peak_threshold must be >= 0, got {self.peak_threshold}")

    def frequencies(self) -> np.ndarray:
        n = int(np.floor((self.omega_max - self.omega_min) / self.omega_step)) + 1
        return self.omega_min + self.omega_step * np.arange(n)

    def damping_rate(self, t_final: float) -> float:
        if self.eta is not None:
            return self.eta
        if t_final <= 0:
            return 0.0
        return float(np.sqrt(-np.log(_DAMPING_FLOOR)) / t_final)


@dataclass
class Peak:
    location: float
    height: float
    width: float


@dataclass
class Spectrum:
    """Frequency samples with polarizability and/or cross-section data."""

    omega: np.ndarray
    alpha: np.ndarray | None = None
    sigma: np.ndarray | None = None
    peaks: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def write(self, path, extra_columns: dict | None = None) -> None:
        columns = {"omega": self.omega}
        if self.alpha is not None:
            columns.update(Re_alpha=self.alpha.real, Im_alpha=self.alpha.imag)
        if self.sigma is not None:
            columns["sigma"] = self.sigma
        columns.update(extra_columns or {})
        write_table(path, self.meta, columns, [
            f"peak location={pk.location:.8g} height={pk.height:.8g} width={pk.width:.8g}"
            for pk in self.peaks])


def _uniform_step(x: np.ndarray, what: str) -> float:
    """Spacing of a uniform 1D grid; :class:`UsageError` if it is not uniform."""
    if len(x) < 2:
        return 0.0
    step = (x[-1] - x[0]) / (len(x) - 1)
    off = np.max(np.abs(x - (x[0] + step * np.arange(len(x)))))
    # a few ulps of the largest value cover grids built as start + k * step
    if off > 1e-9 * abs(step) + 16.0 * np.finfo(float).eps * np.max(np.abs(x)):
        raise UsageError(f"{what} must be uniformly spaced (off by {off:.3e})")
    return float(step)


def damped_transform(t: np.ndarray, f: np.ndarray, omega: np.ndarray,
                     eta: float, sign: int = +1) -> np.ndarray:
    """Riemann-sum transform  sum_t f(t) exp(sign i w t) exp(-eta^2 t^2) dt.

    Both ``t`` and ``omega`` must be uniform grids.  With t_n = t_0 + n dt
    and w_k = w_0 + k dw the sum is a chirp-z transform (Rabiner, Schafer &
    Rader 1969): the product k n is written as (k^2 + n^2 - (k - n)^2) / 2
    (Bluestein 1970), which turns the N x M phase sum into one convolution
    of length N + M - 1 evaluated by FFT, O((N + M) log(N + M)) time and
    O(N + M) memory; t_0 enters as the phase exp(sign i w_k t_0).
    """
    t = np.asarray(t, dtype=float)
    omega = np.asarray(omega, dtype=float)
    if len(t) < 2:
        raise UsageError("time series too short for a transform")
    dt = _uniform_step(t, "sample times")
    d_omega = _uniform_step(omega, "frequencies")
    n, m = len(t), len(omega)
    if m == 0:
        return np.empty(0, dtype=complex)
    # c_j = exp(sign i a j^2 / 2), a = dw dt, for j = 0 .. max(n, m) - 1
    j = np.arange(max(n, m), dtype=float)
    chirp = np.exp(1j * ((0.5 * sign * d_omega * dt) * (j * j)))
    u = np.asarray(f) * np.exp(-(eta * t) ** 2)
    u = u * np.exp((1j * sign * omega[0] * dt) * np.arange(n)) * chirp[:n]
    # sum_n u_n conj(c_{k-n}) for k = 0 .. m - 1, by circular convolution
    size = fft.next_fast_len(n + m - 1)
    kernel = np.zeros(size, dtype=complex)
    kernel[:m] = chirp[:m].conj()
    kernel[size - n + 1:] = chirp[1:n][::-1].conj()
    conv = fft.ifft(fft.fft(u, size) * fft.fft(kernel))[:m]
    return conv * chirp[:m] * np.exp((1j * sign * t[0]) * omega) * dt


def polarizability(series: TimeSeries, cfg: SpectrumConfig, *,
                   dipole: np.ndarray | None = None) -> Spectrum:
    """Dynamic polarizability alpha_ii(w) from a delta-kick run.

    i is the kicked axis recorded in the series metadata; the response is
    the dipole along that axis.  ``dipole`` overrides the response column,
    which lets sector-resolved dipoles reuse the same pipeline.
    """
    if "kick_strength" not in series.meta:
        raise UsageError("series carries no delta-kick metadata")
    k = float(series.meta["kick_strength"])
    if k == 0.0:
        raise UsageError("kick strength recorded as zero; polarizability undefined")
    kick_axis = axis_index(series.meta.get("kick_axis", "x"))
    d = series.dipole(kick_axis) if dipole is None else np.asarray(dipole, float)
    signal = d - d[0]
    omega = cfg.frequencies()
    eta = cfg.damping_rate(series.t[-1])
    alpha = damped_transform(series.t, signal, omega, eta, sign=+1) / k
    meta = {"kick_strength": k, "kick_axis": axis_name(kick_axis),
            "response_axis": axis_name(kick_axis), "eta": eta}
    return Spectrum(omega=omega, alpha=alpha, meta=meta)


def cross_section(alphas, cfg: SpectrumConfig) -> Spectrum:
    """Photo-absorption cross section from polarizability components.

    ``alphas`` is one Spectrum or a sequence of them (the available
    diagonal components); the trace runs over the declared subset.
    """
    if isinstance(alphas, Spectrum):
        alphas = [alphas]
    if not alphas:
        raise UsageError("no polarizability components given")
    omega = alphas[0].omega
    trace = np.zeros_like(omega)
    for sp in alphas:
        if sp.alpha is None:
            raise UsageError("cross_section needs polarizability data")
        if sp.omega.shape != omega.shape or np.any(sp.omega != omega):
            raise UsageError("polarizability components use different frequency grids")
        trace = trace + sp.alpha.imag
    sigma = (4.0 * np.pi / (3.0 * SPEED_OF_LIGHT)) * omega * trace
    peaks = find_peaks(omega, sigma, rel_threshold=cfg.peak_threshold)
    meta = dict(alphas[0].meta)
    meta["components"] = len(alphas)
    return Spectrum(omega=omega, sigma=sigma, peaks=peaks, meta=meta)


def find_peaks(omega: np.ndarray, y: np.ndarray, rel_threshold: float = 1e-3) -> list:
    """Local maxima above ``rel_threshold`` of the global maximum.

    Positions are refined by fitting a parabola through the three samples
    around each maximum; widths are FWHM estimates from half-height
    crossings (linear interpolation).
    """
    y = np.asarray(y, dtype=float)
    if len(y) < 3:
        return []
    cutoff = rel_threshold * float(np.max(y)) if np.max(y) > 0 else np.inf
    peaks = []
    for i in range(1, len(y) - 1):
        if y[i] < cutoff:
            continue
        if y[i] > y[i - 1] and y[i] >= y[i + 1]:
            denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
            shift = 0.5 * (y[i - 1] - y[i + 1]) / denom if denom != 0 else 0.0
            shift = float(np.clip(shift, -0.5, 0.5))
            loc = omega[i] + shift * (omega[1] - omega[0])
            height = y[i] - 0.25 * (y[i - 1] - y[i + 1]) * shift
            peaks.append(Peak(location=float(loc), height=float(height),
                              width=_fwhm(omega, y, i)))
    peaks.sort(key=lambda p: p.location)
    return peaks


def _fwhm(omega, y, i) -> float:
    half = y[i] / 2.0
    left = right = None
    for j in range(i, 0, -1):
        if y[j - 1] <= half:
            frac = (y[j] - half) / (y[j] - y[j - 1])
            left = omega[j] - frac * (omega[j] - omega[j - 1])
            break
    for j in range(i, len(y) - 1):
        if y[j + 1] <= half:
            frac = (y[j] - half) / (y[j] - y[j + 1])
            right = omega[j] + frac * (omega[j + 1] - omega[j])
            break
    if left is None or right is None:
        return float("nan")
    return float(right - left)


def rabi_splitting(spectrum: Spectrum, *, window: tuple | None = None,
                   dominance: float = 0.1) -> float:
    """Frequency gap between the two dominant peaks of a polariton doublet.

    Peaks below ``dominance`` times the tallest peak in the window are
    ignored; anything other than exactly two surviving peaks is an error.
    """
    peaks = spectrum.peaks
    if window is not None:
        lo, hi = window
        peaks = [p for p in peaks if lo <= p.location <= hi]
    if peaks:
        tallest = max(p.height for p in peaks)
        peaks = [p for p in peaks if p.height >= dominance * tallest]
    if len(peaks) != 2:
        found = ", ".join(f"({p.location:.6g}, {p.height:.3g})" for p in peaks)
        raise AnalysisError(
            f"expected exactly two dominant peaks, found {len(peaks)}: [{found}]")
    return peaks[1].location - peaks[0].location


def dipole_acceleration(t: np.ndarray, d: np.ndarray) -> tuple:
    """Centered second difference of D(t); endpoints are trimmed."""
    if len(t) < 5:
        raise UsageError("time series too short for dipole acceleration")
    dt = t[1] - t[0]
    acc = (d[2:] - 2.0 * d[1:-1] + d[:-2]) / dt**2
    return t[1:-1], acc


def hhg_spectrum(series: TimeSeries, cfg: SpectrumConfig) -> Spectrum:
    """Harmonic emission intensity I(w) = |transform of dD^2/dt^2|^2.

    The dipole acceleration is Hann-windowed and transformed without
    damping.  The dipole is taken along the recorded laser axis, and the
    result is reported on the harmonic-order axis w / w_L using the laser
    carrier recorded in the series metadata.
    """
    if "laser_carrier" not in series.meta:
        raise UsageError("series carries no laser metadata")
    w_l = float(series.meta["laser_carrier"])
    axis = axis_index(series.meta.get("laser_axis", "x"))
    t_acc, acc = dipole_acceleration(series.t, series.dipole(axis))
    omega = cfg.frequencies()
    amp = damped_transform(t_acc, acc * np.hanning(len(acc)), omega, 0.0, sign=-1)
    intensity = np.abs(amp) ** 2
    meta = {"laser_carrier": w_l, "window": "hann",
            "response_axis": axis_name(axis)}
    return Spectrum(omega=omega / w_l, sigma=intensity,
                    peaks=find_peaks(omega / w_l, intensity, cfg.peak_threshold),
                    meta=meta)


def sector_resolved_cross_sections(series: TimeSeries, cfg: SpectrumConfig) -> list:
    """Cross-section contribution of every photon sector.

    Applies the polarizability pipeline to each recorded sector dipole
    D_n(t); by linearity the contributions sum to the total spectrum.
    """
    n_sectors = series.n_sector_columns
    if n_sectors == 0:
        raise UsageError("series carries no sector-resolved dipole columns")
    kick_axis = axis_index(series.meta.get("kick_axis", "x"))
    out = []
    for n in range(n_sectors):
        d_n = series.sector_dipole(n, kick_axis)
        alpha = polarizability(series, cfg, dipole=d_n)
        sp = cross_section([alpha], cfg)
        sp.meta["sector"] = n
        out.append(sp)
    return out


def charge_transfer_profile(rho_cavity: np.ndarray, rho_free: np.ndarray,
                            grid: Grid) -> tuple:
    """Charge moved along x between two densities on one grid.

    Returns ``(x, dq, drho)`` where drho = rho_cavity - rho_free and
    dq(x) is the cumulative integral of drho over the transverse axes and
    over x' <= x.
    """
    rho_cavity = np.asarray(rho_cavity, dtype=float)
    rho_free = np.asarray(rho_free, dtype=float)
    grid.check_field(rho_cavity)
    grid.check_field(rho_free)
    if rho_cavity.shape != rho_free.shape:
        raise GridMismatchError("density shapes differ")
    drho = rho_cavity - rho_free
    if grid.dim == 1:
        line = drho
    else:
        line = drho.sum(axis=(1, 2)) * grid.h**2
    dq = np.cumsum(line) * grid.h
    x = grid.axis_coordinates(0)
    return x, dq, drho


def peak_area(spectrum: Spectrum, center: float, half_window: float) -> float:
    """Integrated sigma over [center - hw, center + hw] (trapezoid rule)."""
    mask = (spectrum.omega >= center - half_window) & (spectrum.omega <= center + half_window)
    if not np.any(mask):
        raise AnalysisError(f"no samples in window around {center}")
    return float(np.trapezoid(spectrum.sigma[mask], spectrum.omega[mask]))
