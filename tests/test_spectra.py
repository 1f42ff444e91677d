import numpy as np
import pytest

from cavitydft.errors import AnalysisError, ConfigurationError, UsageError
from cavitydft.grid import Grid, integrate
from cavitydft.spectra import (SpectrumConfig, charge_transfer_profile,
                               cross_section, damped_transform,
                               dipole_acceleration, find_peaks, hhg_spectrum,
                               peak_area, polarizability, rabi_splitting,
                               sector_resolved_cross_sections)
from cavitydft.timeseries import TimeSeries


def make_kick_series(t, dipole, k=1e-3, extra=None):
    cols = {"t": t, "Dx": dipole}
    if extra:
        cols.update(extra)
    return TimeSeries(columns=cols, meta={"kick_strength": k, "kick_axis": "x"})


@pytest.fixture
def cfg():
    return SpectrumConfig(omega_min=0.0, omega_max=0.5, omega_step=5e-4)


class TestSpectrumConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SpectrumConfig(omega_step=-1.0)
        with pytest.raises(ConfigurationError):
            SpectrumConfig(omega_min=1.0, omega_max=0.5)

    @pytest.mark.parametrize("field, value", [
        ("omega_step", np.nan), ("omega_max", np.nan), ("omega_min", np.nan),
        ("omega_max", np.inf), ("eta", np.nan), ("peak_threshold", np.nan),
        ("peak_threshold", -0.1)])
    def test_non_finite_or_negative_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            SpectrumConfig(**{field: value})

    def test_auto_damping_rule(self):
        cfg = SpectrumConfig()
        eta = cfg.damping_rate(t_final=1000.0)
        assert np.exp(-(eta * 1000.0) ** 2) == pytest.approx(1e-4, rel=1e-10)

    def test_explicit_eta_wins(self):
        cfg = SpectrumConfig(eta=0.01)
        assert cfg.damping_rate(1000.0) == 0.01


class TestPolarizability:
    def test_constant_dipole_gives_zero(self, cfg):
        t = np.arange(4000) * 0.1
        series = make_kick_series(t, np.full_like(t, 0.7))
        sp = polarizability(series, cfg)
        assert np.max(np.abs(sp.alpha)) < 1e-12

    def test_missing_kick_metadata(self, cfg):
        t = np.arange(100) * 0.1
        series = TimeSeries(columns={"t": t, "Dx": np.sin(t)}, meta={})
        with pytest.raises(UsageError):
            polarizability(series, cfg)

    def test_sine_response_peak_weight(self, cfg):
        # analytic transform of A sin(W t): Im alpha integrates to
        # pi A / (2 k) around the positive-frequency peak
        t = np.arange(80000) * 0.1
        big_omega, amp, k = 0.25, 1e-3, 1e-3
        series = make_kick_series(t, amp * np.sin(big_omega * t), k=k)
        sp = polarizability(series, cfg)
        im = sp.alpha.imag
        mask = (sp.omega > 0.15) & (sp.omega < 0.35)
        weight = np.trapezoid(im[mask], sp.omega[mask])
        assert weight == pytest.approx(np.pi * amp / (2 * k), rel=1e-3)
        peak = sp.omega[np.argmax(im)]
        assert peak == pytest.approx(big_omega, abs=cfg.omega_step)

    def test_linear_in_kick_strength(self, cfg):
        t = np.arange(20000) * 0.1
        d = 1e-3 * np.sin(0.2 * t)
        a1 = polarizability(make_kick_series(t, d, k=1e-3), cfg).alpha
        a2 = polarizability(make_kick_series(t, 0.5 * d, k=5e-4), cfg).alpha
        assert np.max(np.abs(a1 - a2)) < 1e-10 * np.max(np.abs(a1))


class TestCrossSection:
    def test_zero_alpha(self, cfg):
        t = np.arange(2000) * 0.1
        sp = polarizability(make_kick_series(t, np.zeros_like(t)), cfg)
        sigma = cross_section([sp], cfg)
        assert np.all(sigma.sigma == 0.0)

    def test_peak_height_scales_with_omega(self, cfg):
        from cavitydft.spectra import SPEED_OF_LIGHT
        t = np.arange(40000) * 0.1
        series = make_kick_series(t, 1e-3 * np.sin(0.25 * t))
        al = polarizability(series, cfg)
        sig = cross_section([al], cfg)
        i = np.argmin(np.abs(sig.omega - 0.25))
        expected = 4 * np.pi * sig.omega[i] / (3 * SPEED_OF_LIGHT) * al.alpha.imag[i]
        assert sig.sigma[i] == pytest.approx(expected, rel=1e-12)

    def test_nonnegative_at_resonances(self, cfg):
        t = np.arange(40000) * 0.1
        series = make_kick_series(t, 1e-3 * np.sin(0.25 * t))
        sig = cross_section([polarizability(series, cfg)], cfg)
        assert sig.sigma.min() > -0.01 * sig.sigma.max()


class TestPeaks:
    def test_two_synthetic_peaks_splitting(self):
        omega = np.linspace(0.0, 0.3, 3001)
        y = (np.exp(-((omega - 0.10) / 0.004) ** 2)
             + 0.8 * np.exp(-((omega - 0.14) / 0.004) ** 2))
        sp_peaks = find_peaks(omega, y)
        sp = type("S", (), {})()
        from cavitydft.spectra import Spectrum
        spec = Spectrum(omega=omega, sigma=y, peaks=sp_peaks)
        assert rabi_splitting(spec) == pytest.approx(0.04, abs=1e-4)

    def test_wrong_peak_count_reported(self):
        from cavitydft.spectra import Spectrum
        omega = np.linspace(0.0, 0.3, 1001)
        y = np.exp(-((omega - 0.1) / 0.01) ** 2)
        spec = Spectrum(omega=omega, sigma=y, peaks=find_peaks(omega, y))
        with pytest.raises(AnalysisError) as err:
            rabi_splitting(spec)
        assert "0.1" in str(err.value)

    def test_parabolic_refinement_subbin(self):
        omega = np.linspace(0.0, 1.0, 101)  # coarse bins
        center = 0.512
        y = np.exp(-((omega - center) / 0.05) ** 2)
        peaks = find_peaks(omega, y)
        assert len(peaks) == 1
        assert abs(peaks[0].location - center) < 0.002  # well below bin 0.01

    def test_damping_broadens_but_does_not_shift(self):
        t = np.arange(60000) * 0.1
        series = make_kick_series(t, 1e-3 * np.sin(0.2 * t))
        narrow = SpectrumConfig(omega_min=0.1, omega_max=0.3, omega_step=1e-4,
                                eta=5e-4)
        wide = SpectrumConfig(omega_min=0.1, omega_max=0.3, omega_step=1e-4,
                              eta=2e-3)
        p_narrow = cross_section([polarizability(series, narrow)], narrow).peaks
        p_wide = cross_section([polarizability(series, wide)], wide).peaks
        n0 = max(p_narrow, key=lambda p: p.height)
        w0 = max(p_wide, key=lambda p: p.height)
        assert w0.width > n0.width
        assert abs(w0.location - n0.location) < 1e-4


class TestHhg:
    def test_acceleration_endpoint_trim(self):
        t = np.arange(100) * 0.05
        d = np.cos(0.3 * t)
        t_acc, acc = dipole_acceleration(t, d)
        assert len(t_acc) == 98
        assert np.max(np.abs(acc + 0.09 * np.cos(0.3 * t_acc))) < 1e-3

    def test_single_cosine_peak(self):
        w0 = 0.3
        t = np.arange(40000) * 0.05
        cols = {"t": t, "Dx": np.cos(w0 * t)}
        series = TimeSeries(columns=cols, meta={"laser_carrier": 0.1,
                                                "laser_axis": "x"})
        cfg = SpectrumConfig(omega_min=0.01, omega_max=0.6, omega_step=2e-4)
        spec = hhg_spectrum(series, cfg)
        top = max(spec.peaks, key=lambda p: p.height)
        assert top.location == pytest.approx(w0 / 0.1, abs=0.02)

    def test_single_cosine_peak_height_scaling(self):
        # acceleration amplitude w0^2; at resonance the windowed transform
        # is (w0^2 / 2) * integral of the window
        w0 = 0.3
        dt = 0.05
        t = np.arange(60000) * dt
        series = TimeSeries(columns={"t": t, "Dx": np.cos(w0 * t)},
                            meta={"laser_carrier": 0.1, "laser_axis": "x"})
        cfg = SpectrumConfig(omega_min=0.25, omega_max=0.35, omega_step=1e-5)
        spec = hhg_spectrum(series, cfg)
        window_integral = np.hanning(len(t) - 2).sum() * dt
        expected = (w0**2 * window_integral / 2.0) ** 2
        top = max(spec.peaks, key=lambda p: p.height)
        assert top.height == pytest.approx(expected, rel=0.02)

    def test_missing_laser_metadata(self):
        t = np.arange(100) * 0.05
        series = TimeSeries(columns={"t": t, "Dx": np.sin(t)}, meta={})
        with pytest.raises(UsageError):
            hhg_spectrum(series, SpectrumConfig())

    def test_even_harmonics_suppressed_for_symmetric_system(self):
        # inversion symmetry allows only odd harmonics; measured on a driven
        # symmetric model atom propagated by the main code
        from cavitydft.cavity import CavityMode
        from cavitydft.potentials import ElectronSystem, Ion
        from cavitydft.propagate import LaserPulse, PropConfig, propagate
        from cavitydft.scf import ScfConfig, scf_solve

        w_l = 0.12
        g = Grid((121,), 0.4)
        atom = ElectronSystem(grid=g, ions=[Ion(1.3, (0.0,), 0.6)],
                              occupations=[2.0])
        state = scf_solve(atom, None, ScfConfig(tol_energy=1e-10,
                                                tol_density=1e-8,
                                                minimizer="conjugate-gradient",
                                                max_iterations=6000))
        n_steps = int(round(16 * 2 * np.pi / w_l / 0.05))
        series, _ = propagate(state, PropConfig(
            dt=0.05, n_steps=n_steps, stride=2,
            laser=LaserPulse(amplitude=0.01, carrier=w_l)))
        cfg = SpectrumConfig(omega_min=0.3 * w_l, omega_max=4.4 * w_l,
                             omega_step=w_l / 400)
        spec = hhg_spectrum(series, cfg)

        def at(order):
            return float(spec.sigma[np.argmin(np.abs(spec.omega - order))])

        odd = max(at(1.0), at(3.0))
        even = max(at(2.0), at(4.0))
        assert odd > 1e3 * even

    def test_too_short_series(self):
        t = np.arange(3) * 0.05
        series = TimeSeries(columns={"t": t, "Dx": np.zeros(3)},
                            meta={"laser_carrier": 0.1})
        with pytest.raises(UsageError):
            hhg_spectrum(series, SpectrumConfig())


class TestSectorResolved:
    def test_sum_equals_total(self, cfg):
        t = np.arange(20000) * 0.1
        d0 = 1e-3 * np.sin(0.2 * t)
        d1 = 4e-4 * np.sin(0.26 * t)
        series = make_kick_series(t, d0 + d1,
                                  extra={"Dx_s0": d0, "Dx_s1": d1})
        total = cross_section([polarizability(series, cfg)], cfg)
        parts = sector_resolved_cross_sections(series, cfg)
        assert len(parts) == 2
        summed = sum(p.sigma for p in parts)
        assert np.max(np.abs(summed - total.sigma)) < 1e-10

    def test_single_sector_equals_total(self, cfg):
        t = np.arange(20000) * 0.1
        d0 = 1e-3 * np.sin(0.2 * t)
        series = make_kick_series(t, d0, extra={"Dx_s0": d0})
        total = cross_section([polarizability(series, cfg)], cfg)
        parts = sector_resolved_cross_sections(series, cfg)
        assert np.max(np.abs(parts[0].sigma - total.sigma)) < 1e-14

    def test_missing_sector_columns(self, cfg):
        t = np.arange(1000) * 0.1
        series = make_kick_series(t, np.sin(t))
        with pytest.raises(UsageError):
            sector_resolved_cross_sections(series, cfg)


class TestLinearity:
    def test_spectrum_of_sum_is_sum_of_spectra(self, cfg):
        t = np.arange(20000) * 0.1
        d1 = 1e-3 * np.sin(0.18 * t)
        d2 = 2e-3 * np.sin(0.31 * t)
        a1 = polarizability(make_kick_series(t, d1), cfg).alpha
        a2 = polarizability(make_kick_series(t, d2), cfg).alpha
        a12 = polarizability(make_kick_series(t, d1 + d2), cfg).alpha
        assert np.max(np.abs(a12 - (a1 + a2))) < 1e-12

    def test_zero_padding_invariance_of_peaks(self):
        t = np.arange(30000) * 0.1
        d = 1e-3 * np.sin(0.2 * t)
        base = SpectrumConfig(omega_min=0.15, omega_max=0.25, omega_step=1e-4)
        series = make_kick_series(t, d)
        p1 = cross_section([polarizability(series, base)], base).peaks
        padded = make_kick_series(np.arange(60000) * 0.1,
                                  np.concatenate([d, np.zeros(30000)]))
        p2 = cross_section([polarizability(padded, base)], base).peaks
        l1 = max(p1, key=lambda p: p.height).location
        l2 = max(p2, key=lambda p: p.height).location
        assert abs(l1 - l2) < base.omega_step


class TestChargeTransfer:
    def test_identical_densities(self):
        g = Grid((101,), 0.2)
        rho = np.exp(-g.coordinate(0) ** 2)
        x, dq, drho = charge_transfer_profile(rho, rho, g)
        assert np.all(dq == 0.0) and np.all(drho == 0.0)

    def test_transferred_charge_matches_construction(self):
        g = Grid((801,), 0.05)
        x = g.coordinate(0)
        base = np.exp(-(x + 6.5) ** 2 / 2.0)
        base /= integrate(base, g)
        moved = np.exp(-(x - 6.5) ** 2 / 2.0)
        moved /= integrate(moved, g)
        f = 0.23
        rho_free = base
        rho_cav = (1 - f) * base + f * moved
        xs, dq, _ = charge_transfer_profile(rho_cav, rho_free, g)
        assert dq.min() == pytest.approx(-f, abs=1e-8)
        assert abs(dq[-1]) < 1e-8  # equal electron counts

    def test_3d_reduction(self):
        g = Grid((21, 9, 9), 0.5)
        x, y, z = g.coordinates
        rho1 = np.exp(-(x**2 + y**2 + z**2))
        rho2 = np.exp(-((x - 1.0) ** 2 + y**2 + z**2))
        xs, dq, drho = charge_transfer_profile(rho2, rho1, g)
        assert dq.shape == (21,)
        assert abs(dq[-1]) < 1e-6

    def test_grid_mismatch(self):
        from cavitydft.errors import GridMismatchError
        g = Grid((101,), 0.2)
        with pytest.raises(GridMismatchError):
            charge_transfer_profile(np.zeros(101), np.zeros(51), g)


class TestDampedTransform:
    def test_against_direct_sum(self):
        rng = np.random.default_rng(4)
        t = np.arange(500) * 0.1
        f = rng.standard_normal(500)
        omega = np.array([0.1, 0.7, 1.3])
        eta = 0.01
        out = damped_transform(t, f, omega, eta, sign=+1)
        for i, w in enumerate(omega):
            direct = np.sum(f * np.exp(1j * w * t) * np.exp(-(eta * t) ** 2)) * 0.1
            assert out[i] == pytest.approx(direct, rel=1e-12)

    @staticmethod
    def direct_sum(t, f, omega, eta, sign):
        damped = f * np.exp(-(eta * t) ** 2)
        out = np.empty(len(omega), dtype=complex)
        for start in range(0, len(omega), 64):
            block = omega[start:start + 64]
            out[start:start + 64] = np.exp((1j * sign) * np.outer(block, t)) @ damped
        return out * (t[1] - t[0])

    @staticmethod
    def long_series():
        # the size of one dimer-kick spectrum: 6001 samples, 2101 frequencies;
        # t starts at dt as in hhg_spectrum
        rng = np.random.default_rng(5)
        t = 0.1 * np.arange(1, 6002)
        f = np.sin(0.08 * t) + 1e-3 * np.cumsum(rng.standard_normal(len(t)))
        omega = SpectrumConfig(omega_min=0.01, omega_max=0.22, omega_step=1e-4).frequencies()
        return t, f, omega

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_chirp_z_matches_direct_sum_at_full_size(self, sign):
        t, f, omega = self.long_series()
        assert (len(t), len(omega)) == (6001, 2101)
        out = damped_transform(t, f, omega, 0.005, sign=sign)
        ref = self.direct_sum(t, f, omega, 0.005, sign)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(out))

    def test_complex_signal_and_single_frequency(self):
        rng = np.random.default_rng(6)
        t = 0.3 + 0.05 * np.arange(300)
        f = rng.standard_normal(300) + 1j * rng.standard_normal(300)
        for omega in (np.array([0.4]), np.linspace(-1.0, 2.0, 7)):
            out = damped_transform(t, f, omega, 0.02, sign=-1)
            ref = self.direct_sum(t, f, omega, 0.02, -1)
            assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_non_uniform_frequencies_rejected(self):
        t = np.arange(100) * 0.1
        with pytest.raises(UsageError):
            damped_transform(t, np.ones(100), np.array([0.1, 0.2, 0.4]), 0.0)

    def test_non_uniform_times_rejected(self):
        t = np.arange(100) * 0.1
        t[50] += 0.01
        with pytest.raises(UsageError):
            damped_transform(t, np.ones(100), np.array([0.1, 0.2, 0.3]), 0.0)

    def test_memory_stays_linear(self):
        import tracemalloc
        t, f, omega = self.long_series()
        damped_transform(t, f, omega, 0.005)  # first call loads the FFT code
        tracemalloc.start()
        try:
            damped_transform(t, f, omega, 0.005)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # an N x 64 block of phases alone is 6 MB
        assert peak < 2e6
