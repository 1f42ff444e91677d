"""End-to-end acceptance suite.

Every test prints one PASS line with the measured numbers (run pytest with
-s to see them) and enforces the stated tolerance.  The expensive model
systems (the two-electron dimer, the harmonic atom, the laser-driven
asymmetric molecule) are solved once per session and shared.
"""

import functools
import time

import numpy as np
import pytest

pytestmark = pytest.mark.acceptance

from cavitydft import oracle
from cavitydft.cavity import (CavityMode, OrbitalSet, apply_hamiltonian,
                              electron_density, ladder_commutator,
                              mean_dipole_mu, photon_occupations)
from cavitydft.grid import Grid
from cavitydft.potentials import ElectronSystem, Ion, assemble_ks, external_potential
from cavitydft.propagate import LaserPulse, PropConfig, propagate, taylor_step
from cavitydft.qedft import qedft_propagate
from cavitydft.scf import ScfConfig, orbital_eigenvalues, scf_solve
from cavitydft.spectra import (SpectrumConfig, cross_section, hhg_spectrum,
                               peak_area, polarizability, rabi_splitting,
                               sector_resolved_cross_sections)
from reference import driven_oscillator_closed_form, verlet_oscillator

# ---------------------------------------------------------------- reporting


def report(number, ok, detail):
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


# ------------------------------------------------------------- shared model
# one-electron soft-Coulomb atom (criteria 2, 3, 8)
ATOM_GRID = Grid((151,), 0.4)
ATOM = ElectronSystem(grid=ATOM_GRID, ions=[Ion(1.0, (0.0,), 1.0)],
                      occupations=[1.0])
ATOM_CAV = CavityMode(omega=0.08, coupling=(0.05,), n_fock=2)
TIGHT = ScfConfig(tol_energy=1e-13, tol_density=1e-11,
                  minimizer="conjugate-gradient", max_iterations=8000)

# two-electron dimer analog (criteria 5, 6, 10): soft cores tuned so the
# dipole resonance sits near the cavity frequency 0.07
DIMER_GRID = Grid((161,), 0.45)
DIMER = ElectronSystem(grid=DIMER_GRID,
                       ions=[Ion(1.0, (-2.9,), 3.6), Ion(1.0, (2.9,), 3.6)],
                       occupations=[2.0])
DIMER_OMEGA = 0.07
DIMER_SCF = ScfConfig(tol_energy=1e-12, tol_density=1e-10, max_iterations=4000)
DIMER_KICK = PropConfig(dt=0.05, n_steps=40000, kick_strength=1e-3, stride=2)
DIMER_SPEC = SpectrumConfig(omega_min=0.01, omega_max=0.22, omega_step=1e-4)
POLARITON_WINDOW = (0.04, 0.12)
PEAK_DOMINANCE = 0.2


@pytest.fixture(scope="module")
def atom_state():
    return scf_solve(ATOM, ATOM_CAV, TIGHT)


@pytest.fixture(scope="module")
def dimer_runs():
    """Kick runs of the dimer: {(lam, n_fock): (state, series, sigma)}."""
    cache = {}

    def run(lam, n_fock):
        key = (lam, n_fock)
        if key not in cache:
            cav = CavityMode(omega=DIMER_OMEGA, coupling=(lam,), n_fock=n_fock)
            state = scf_solve(DIMER, cav, DIMER_SCF)
            series, _ = propagate(state, DIMER_KICK)
            sigma = cross_section([polarizability(series, DIMER_SPEC)], DIMER_SPEC)
            cache[key] = (state, series, sigma)
        return cache[key]

    return run


def dominant_peaks(spectrum, window=POLARITON_WINDOW, dominance=PEAK_DOMINANCE):
    peaks = [p for p in spectrum.peaks if window[0] <= p.location <= window[1]]
    tallest = max(p.height for p in peaks)
    return sorted([p for p in peaks if p.height >= dominance * tallest],
                  key=lambda p: p.location)


# ------------------------------------------------------------ the criteria


def test_criterion_01_operator_equivalence():
    start = time.time()
    grid = Grid((257,), 0.35)
    rng = np.random.default_rng(11)
    x = grid.coordinate(0)
    v = -1.2 / np.sqrt(x**2 + 1.0) + 0.05 * np.sin(0.7 * x)
    system = ElectronSystem(grid=grid, ions=[], occupations=[1.0],
                            use_hartree=False, use_xc=False,
                            external_potential=v)
    worst = 0.0
    for n_fock in (1, 3):
        cav = CavityMode(omega=0.08, coupling=(0.04,), n_fock=n_fock)
        h = oracle.assemble(system, cav, flavor="mean-field-mu", mu=0.3)
        psi = (rng.standard_normal((n_fock + 1,) + grid.shape)
               + 1j * rng.standard_normal((n_fock + 1,) + grid.shape))
        direct = (h @ psi.reshape(-1)).reshape(psi.shape)
        ours = apply_hamiltonian(psi, v, 0.3, cav, grid)
        worst = max(worst, float(np.max(np.abs(direct - ours))))
    elapsed = time.time() - start
    report(1, worst < 1e-12 and elapsed < 1.0,
           f"matvec deviation {worst:.2e} (< 1e-12), {elapsed:.2f} s")


def test_criterion_02_decoupling_limit():
    start = time.time()
    bare = scf_solve(ATOM, None, TIGHT)
    cav0 = CavityMode(omega=0.08, coupling=(0.0,), n_fock=2)
    coupled = scf_solve(ATOM, cav0, TIGHT)
    de = abs(coupled.energy.total - (bare.energy.total + 0.04))
    p = photon_occupations(coupled.orbitals)
    dp = abs(p[0] - 1.0)
    elapsed = time.time() - start
    report(2, de < 1e-8 and dp < 1e-10 and elapsed < 10.0,
           f"|E - (E_KS + w/2)| = {de:.2e} (< 1e-8), |P0 - 1| = {dp:.2e} "
           f"(< 1e-10), {elapsed:.1f} s")


def test_criterion_03_oracle_ground_state(atom_state):
    start = time.time()
    ref = oracle.scf_ground_state(ATOM, ATOM_CAV)
    de = abs(atom_state.energy.total - ref.energy)
    dp = float(np.max(np.abs(photon_occupations(atom_state.orbitals)
                             - ref.occupations)))
    elapsed = time.time() - start
    report(3, de < 1e-5 and dp < 1e-5 and elapsed < 60.0,
           f"|dE| = {de:.2e}, max|dP_n| = {dp:.2e} (both < 1e-5), {elapsed:.1f} s")


def test_criterion_04_analytic_polariton():
    start = time.time()
    w0 = 0.5
    grid = Grid((55,), 0.3)
    system = ElectronSystem(grid=grid, ions=[], occupations=[1.0],
                            use_hartree=False, use_xc=False, harmonic_omega=w0)
    cav = CavityMode(omega=w0, coupling=(0.1,), n_fock=2)
    state = scf_solve(system, cav, ScfConfig(tol_energy=1e-12, tol_density=1e-9,
                                             max_iterations=4000))
    series, _ = propagate(state, PropConfig(dt=0.05, n_steps=40000,
                                            kick_strength=1e-3))
    cfg = SpectrumConfig(omega_min=0.3, omega_max=0.7, omega_step=2e-4)
    sigma = cross_section([polarizability(series, cfg)], cfg)
    resolution = 2.0 * np.pi / series.t[-1]
    w_minus, w_plus = oracle.normal_mode_frequencies(w0, cav)
    peaks = sigma.peaks
    ok_count = len(peaks) == 2
    d_minus = abs(peaks[0].location - w_minus) if ok_count else np.inf
    d_plus = abs(peaks[-1].location - w_plus) if ok_count else np.inf
    elapsed = time.time() - start
    report(4, ok_count and d_minus < resolution and d_plus < resolution
           and elapsed < 300.0,
           f"{len(peaks)} peaks; |d(w-)| = {d_minus:.2e}, |d(w+)| = {d_plus:.2e} "
           f"(< resolution {resolution:.2e}), {elapsed:.0f} s")


def test_criterion_05_rabi_trend(dimer_runs):
    start = time.time()
    lams = (0.01, 0.02, 0.03, 0.05)
    splittings = []
    flanked = []
    for lam in lams:
        _, _, sigma = dimer_runs(lam, 1)
        splittings.append(rabi_splitting(sigma, window=POLARITON_WINDOW,
                                         dominance=PEAK_DOMINANCE))
        _, _, sigma_dsi = dimer_runs(lam, 0)
        single = max(sigma_dsi.peaks, key=lambda p: p.height).location
        two = dominant_peaks(sigma)
        flanked.append(two[0].location < single < two[-1].location)
    increasing = all(b > a for a, b in zip(splittings, splittings[1:]))
    elapsed = time.time() - start
    report(5, increasing and all(flanked) and elapsed < 900.0,
           "splittings " + ", ".join(f"{s:.4f}" for s in splittings)
           + f" strictly increasing: {increasing}; flanking at all couplings: "
           f"{all(flanked)}; {elapsed:.0f} s")


def test_criterion_06_sector_decomposition(dimer_runs):
    _, series, sigma = dimer_runs(0.01, 1)
    sectors = sector_resolved_cross_sections(series, DIMER_SPEC)
    total_dev = float(np.max(np.abs(sum(s.sigma for s in sectors) - sigma.sigma)))
    fractions = []
    for pk in dominant_peaks(sigma):
        a_total = peak_area(sigma, pk.location, 0.003)
        a_zero = peak_area(sectors[0], pk.location, 0.003)
        fractions.append(a_zero / a_total)
    ok = total_dev < 1e-10 and all(f > 0.9 for f in fractions)
    report(6, ok,
           f"sector-sum deviation {total_dev:.2e} (< 1e-10); |0> peak-area "
           "fractions " + ", ".join(f"{f:.3f}" for f in fractions) + " (> 0.9)")


def test_criterion_07_hhg_cavity_peaks():
    start = time.time()
    w_l = 0.057
    grid = Grid((151,), 0.4)
    mol = ElectronSystem(grid=grid,
                         ions=[Ion(1.2, (-0.86,), 1.0), Ion(0.8, (0.86,), 1.0)],
                         occupations=[2.0])
    scf_cfg = ScfConfig(tol_energy=1e-10, tol_density=1e-8,
                        minimizer="conjugate-gradient", max_iterations=8000)
    n_steps = int(round(30 * 2 * np.pi / w_l / 0.05))
    pulse = LaserPulse(amplitude=0.005, carrier=w_l)
    prop_cfg = PropConfig(dt=0.05, n_steps=n_steps, laser=pulse, stride=2)
    spec_cfg = SpectrumConfig(omega_min=0.2 * w_l, omega_max=4.2 * w_l,
                              omega_step=w_l / 400.0)

    spectra = {}
    for tag, cav in (("nocav", None),
                     ("dsi", CavityMode(omega=0.5 * w_l, coupling=(0.05,), n_fock=0)),
                     ("cav", CavityMode(omega=0.5 * w_l, coupling=(0.05,), n_fock=1))):
        state = scf_solve(mol, cav, scf_cfg)
        series, _ = propagate(state, prop_cfg)
        spectra[tag] = hhg_spectrum(series, spec_cfg)

    def intensity(tag, order):
        spec = spectra[tag]
        return float(spec.sigma[np.argmin(np.abs(spec.omega - order))])

    def has_peak(tag, order, tol=0.15):
        return any(abs(p.location - order) < tol for p in spectra[tag].peaks)

    new_orders = (0.5, 1.5, 2.5)
    present = all(has_peak("cav", o) for o in new_orders)
    absent = not any(has_peak("nocav", o) or has_peak("dsi", o)
                     for o in new_orders)
    ratio = intensity("cav", 1.5) / max(intensity("nocav", 1.5), 1e-300)
    elapsed = time.time() - start
    report(7, present and absent and ratio >= 100.0 and elapsed < 1800.0,
           f"half-integer peaks present in cavity run: {present}, absent "
           f"otherwise: {absent}; I_cav/I_nocav at 1.5 w_L = {ratio:.1f} "
           f"(>= 100); {elapsed:.0f} s")


def test_criterion_08_conservation_suite(atom_state):
    start = time.time()
    series, _ = propagate(atom_state, PropConfig(dt=0.05, n_steps=10000, stride=5))
    norm_drift = float(np.max(np.abs(series["norm"] - 1.0)))
    energy_drift = float(np.max(np.abs(series["E"] - series["E"][0])))

    # time-reversal round trips from the ground state
    system, cav = atom_state.system, atom_state.cavity
    grid = system.grid
    occ = atom_state.orbitals.occupations

    def hamiltonian(psi):
        """psi' -> H psi' under the mean field of the orbitals ``psi``."""
        den = electron_density(OrbitalSet(psi, occ, grid))
        return functools.partial(apply_hamiltonian, v_local=assemble_ks(den, system).total,
                                 mu=mean_dipole_mu(den, cav), cavity=cav, grid=grid)

    psi = atom_state.orbitals.psi
    shifts = orbital_eigenvalues(atom_state.orbitals, hamiltonian(psi))
    reversal = 0.0
    for _ in range(20):
        fwd = taylor_step(psi, hamiltonian(psi), 0.05, shifts)
        back = taylor_step(fwd, hamiltonian(fwd), -0.05, shifts)
        reversal = max(reversal, float(np.max(np.abs(back - psi))))
        psi = fwd
    elapsed = time.time() - start
    report(8, norm_drift < 1e-8 and energy_drift < 1e-6 and reversal < 1e-9,
           f"norm drift {norm_drift:.2e} (< 1e-8), energy drift "
           f"{energy_drift:.2e} (< 1e-6), reversal {reversal:.2e} (< 1e-9); "
           f"{elapsed:.0f} s")


def test_criterion_09_truncated_ladder_algebra():
    comm = ladder_commutator(4)
    expected = np.eye(5)
    expected[-1, -1] = -4.0
    exact = np.array_equal(comm, expected)
    report(9, exact, "[a, a+] on N_F=4 equals diag(1, 1, 1, 1, -4) exactly")


def test_criterion_10_qedft_comparison(dimer_runs):
    start = time.time()
    lam = 0.03
    _, _, sigma_tp = dimer_runs(lam, 1)
    tp_split = rabi_splitting(sigma_tp, window=POLARITON_WINDOW,
                              dominance=PEAK_DOMINANCE)
    ks_state = scf_solve(DIMER, None, DIMER_SCF)
    cav = CavityMode(omega=DIMER_OMEGA, coupling=(lam,), n_fock=1)
    series, _, _ = qedft_propagate(ks_state, cav, DIMER_KICK)
    sigma_q = cross_section([polarizability(series, DIMER_SPEC)], DIMER_SPEC)
    q_split = rabi_splitting(sigma_q, window=POLARITON_WINDOW,
                             dominance=PEAK_DOMINANCE)

    # frozen-density photon equation against the closed form
    omega, drive = DIMER_OMEGA, 0.0123
    dt, n = 0.002, 5000
    t, q, _ = verlet_oscillator(0.3, -0.1, omega, lambda _: drive, dt, n)
    ode_err = float(np.max(np.abs(
        q - driven_oscillator_closed_form(0.3, -0.1, omega, drive, t))))
    elapsed = time.time() - start
    report(10, q_split > tp_split and ode_err < 1e-8,
           f"QEDFT splitting {q_split:.4f} > tensor-product {tp_split:.4f}; "
           f"frozen-density ODE error {ode_err:.2e} (< 1e-8); {elapsed:.0f} s")


def test_criterion_11_charge_transfer():
    from cavitydft.grid import integrate
    from cavitydft.spectra import charge_transfer_profile

    grid = Grid((801,), 0.05)
    x = grid.coordinate(0)
    base = np.exp(-((x + 6.5) ** 2) / 2.0)
    base /= integrate(base, grid)
    moved = np.exp(-((x - 6.5) ** 2) / 2.0)
    moved /= integrate(moved, grid)
    f = 0.17
    _, dq, _ = charge_transfer_profile((1 - f) * base + f * moved, base, grid)
    extremum_err = abs(dq.min() + f)
    tail = abs(dq[-1])
    report(11, extremum_err < 1e-8 and tail < 1e-8,
           f"transferred-charge error {extremum_err:.2e} (< 1e-8), "
           f"dq(+inf) = {tail:.2e} (< 1e-8)")
