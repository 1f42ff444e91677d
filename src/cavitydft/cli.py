"""Command-line runner: scf, propagate, spectrum, hhg, qedft, oracle, validate.

Every subcommand reads one configuration file and exits non-zero with a
machine-readable ``ERROR <kind>: message`` line on any module error; a file
it cannot read or parse (configuration, checkpoint, time series) or an
``--out`` it cannot create exits 2 with such a line, naming the path.  Every
text output is one ``write_table`` table whose metadata carries the config
echo (``echoNNN = cfg <line>``); ``read_table`` reads each back.  The scf
table holds ``iterations``, ``mu`` and every energy term, the oracle's golden
table ``iterations``, ``energy``, ``eigenvalue`` and ``mu``, both with columns
``n`` and ``P``.  ``propagate`` rejects a checkpoint whose cavity differs
from the configuration's, and :func:`state_from_orbitals` orbitals on another
grid, with other occupations or another sector count.  Identical configs give
bit-identical outputs, checkpoints included.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .cavity import (OrbitalSet, apply_hamiltonian, ladder_commutator, mean_dipole_mu,
                     photon_occupations)
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import RunConfig, parse_config
from .errors import AnalysisError, CavityDftError, ConfigurationError, UsageError
from .grid import inner_product, laplacian
from .oracle import assemble, scf_ground_state
from .potentials import assemble_ks
from .propagate import propagate
from .qedft import qedft_propagate
from .scf import gram_schmidt_sectorwise, scf_solve, state_from_orbitals
from .spectra import (cross_section, hhg_spectrum, polarizability,
                      rabi_splitting, sector_resolved_cross_sections)
from .timeseries import TimeSeries, write_table

EV_PER_HARTREE = 27.211386245988


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return args.func(args, cfg, out)
    except (ConfigurationError, UsageError, AnalysisError, OSError) as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except CavityDftError as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavitydft",
        description="Cavity-coupled Kohn-Sham ground states and real-time dynamics")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, helptext, **extra):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--out", default=".", help="output directory")
        for flag, kwargs in extra.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
        return p

    add("scf", _cmd_scf, "solve the ground state and write a checkpoint")
    add("propagate", _cmd_propagate, "real-time propagation from an scf checkpoint",
        **{"--checkpoint": {"default": None, "help": "scf checkpoint path"}})
    add("spectrum", _cmd_spectrum, "absorption spectrum from a kick time series",
        **{"--series": {"default": None, "help": "time series file"}})
    add("hhg", _cmd_hhg, "harmonic spectrum from a laser time series",
        **{"--series": {"default": None, "help": "time series file"}})
    add("qedft", _cmd_qedft, "comparison run: classical-photon dynamics")
    add("oracle", _cmd_oracle, "exact-diagonalization golden values")
    add("validate", _cmd_validate, "run the invariant checks on this setup")
    return parser


def _cmd_scf(args, cfg: RunConfig, out: Path) -> int:
    state = scf_solve(cfg.system, cfg.cavity, cfg.scf, log=print)
    chk_path = out / f"{cfg.prefix}_scf.chk"
    save_checkpoint(chk_path, Checkpoint(orbitals=state.orbitals, cavity=cfg.cavity))
    report = out / f"{cfg.prefix}_scf_energy.tsv"
    energies = {key: float(val) for key, val in state.energy.as_dict().items()}
    _write_occupations(report, {**cfg.echo(), "iterations": state.iterations,
                                "mu": float(state.mu), **energies},
                       state.occupations_photon)
    print(f"converged in {state.iterations} iterations ({state.minimizer}), "
          f"E = {state.energy.total:.10f}")
    print(f"wrote {chk_path} and {report}")
    return 0


def _write_occupations(path: Path, meta: dict, occupations: np.ndarray) -> None:
    write_table(path, meta, {"n": np.arange(len(occupations)), "P": occupations})


def _load_state(args, cfg: RunConfig, out: Path):
    chk_path = Path(args.checkpoint) if args.checkpoint else out / f"{cfg.prefix}_scf.chk"
    if not chk_path.exists():
        raise UsageError(
            f"no scf checkpoint at {chk_path}; run the scf subcommand first")
    chk = load_checkpoint(chk_path)
    # grid, occupations and sector count are the orbitals' own, and
    # state_from_orbitals checks them; omega and lambda only the cavity holds
    if chk.cavity != cfg.cavity:
        raise UsageError(f"checkpoint cavity {chk.cavity} does not match "
                         f"the configuration's {cfg.cavity}")
    return chk


def _cmd_propagate(args, cfg: RunConfig, out: Path) -> int:
    if cfg.prop is None:
        raise ConfigurationError("propagate needs a [prop] section")
    chk = _load_state(args, cfg, out)
    state = state_from_orbitals(cfg.system, cfg.cavity, chk.orbitals)
    series, final = propagate(state, cfg.prop)
    path = out / f"{cfg.prefix}_timeseries.tsv"
    series.write(path, extra_meta=cfg.echo())
    save_checkpoint(out / f"{cfg.prefix}_prop.chk", Checkpoint(orbitals=final, cavity=cfg.cavity))
    print(f"wrote {path} ({series.n_samples} samples)")
    return 0


def _cmd_qedft(args, cfg: RunConfig, out: Path) -> int:
    if cfg.prop is None:
        raise ConfigurationError("qedft needs a [prop] section")
    if cfg.cavity is None:
        raise ConfigurationError("qedft needs a [cavity] section")
    state = scf_solve(cfg.system, None, cfg.scf)
    series, _, _ = qedft_propagate(state, cfg.cavity, cfg.prop)
    path = out / f"{cfg.prefix}_qedft_timeseries.tsv"
    series.write(path, extra_meta=cfg.echo())
    print(f"wrote {path} ({series.n_samples} samples)")
    return 0


def _spectrum_extras(cfg: RunConfig, omega: np.ndarray) -> dict | None:
    if not cfg.report_ev:
        return None
    return {"omega_eV": omega * EV_PER_HARTREE}


def _cmd_spectrum(args, cfg: RunConfig, out: Path) -> int:
    path = Path(args.series) if args.series else out / f"{cfg.prefix}_timeseries.tsv"
    if not path.exists():
        raise UsageError(f"no time series at {path}")
    series = TimeSeries.read(path)
    alpha = polarizability(series, cfg.spectra)
    spec = cross_section([alpha], cfg.spectra)
    spec.alpha = alpha.alpha
    spec.meta.update(cfg.echo())
    spec_path = out / f"{cfg.prefix}_spectrum.tsv"
    spec.write(spec_path, extra_columns=_spectrum_extras(cfg, spec.omega))
    print(f"wrote {spec_path}")
    for pk in spec.peaks:
        print(f"peak at omega = {pk.location:.6g}, height {pk.height:.4g}")
    try:
        split = rabi_splitting(spec)
        print(f"Rabi splitting = {split:.6g}")
    except AnalysisError as exc:
        print(f"no Rabi splitting extracted: {exc}")
    if series.n_sector_columns:
        sector_specs = sector_resolved_cross_sections(series, cfg.spectra)
        for sp in sector_specs:
            sp.meta.update(cfg.echo())
            sp.write(out / f"{cfg.prefix}_spectrum_sector{sp.meta['sector']}.tsv")
        print(f"wrote {len(sector_specs)} sector-resolved spectra")
    return 0


def _cmd_hhg(args, cfg: RunConfig, out: Path) -> int:
    path = Path(args.series) if args.series else out / f"{cfg.prefix}_timeseries.tsv"
    if not path.exists():
        raise UsageError(f"no time series at {path}")
    series = TimeSeries.read(path)
    spec = hhg_spectrum(series, cfg.spectra)
    spec.meta.update(cfg.echo())
    hhg_path = out / f"{cfg.prefix}_hhg.tsv"
    extras = None
    if cfg.report_ev:
        extras = {"omega_eV": spec.omega * float(series.meta["laser_carrier"])
                  * EV_PER_HARTREE}
    spec.write(hhg_path, extra_columns=extras)
    print(f"wrote {hhg_path}")
    return 0


def _cmd_oracle(args, cfg: RunConfig, out: Path) -> int:
    if cfg.cavity is None:
        raise ConfigurationError("oracle needs a [cavity] section")
    result = scf_ground_state(cfg.system, cfg.cavity)
    path = out / f"{cfg.prefix}_golden.tsv"
    _write_occupations(path, {**cfg.echo(), "iterations": result.iterations,
                              "energy": float(result.energy),
                              "eigenvalue": float(result.eigenvalue),
                              "mu": float(result.mu)}, result.occupations)
    print(f"wrote {path}: E = {result.energy:.10f}")
    return 0


def _cmd_validate(args, cfg: RunConfig, out: Path) -> int:
    checks = []
    grid = cfg.system.grid
    rng = np.random.default_rng(20240801)  # fixed seed: deterministic checks

    f = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    g = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    lhs = inner_product(f, laplacian(g, grid), grid)
    rhs = inner_product(laplacian(f, grid), g, grid)
    checks.append(("laplacian symmetry", abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))))

    sectors = cfg.cavity.n_sectors if cfg.cavity else 1
    n_orb = cfg.system.n_orbitals
    psi_a = rng.standard_normal((sectors,) + grid.shape) \
        + 1j * rng.standard_normal((sectors,) + grid.shape)
    psi_b = rng.standard_normal((sectors,) + grid.shape) \
        + 1j * rng.standard_normal((sectors,) + grid.shape)
    rho0 = np.abs(psi_a[0]) ** 2
    from .potentials import Density
    density = Density(rho0 / max(rho0.sum() * grid.volume_element, 1e-30), grid)
    pot = assemble_ks(density, cfg.system)
    mu = mean_dipole_mu(density, cfg.cavity)
    ha = apply_hamiltonian(psi_a, pot.total, mu, cfg.cavity, grid)
    hb = apply_hamiltonian(psi_b, pot.total, mu, cfg.cavity, grid)
    lhs = np.vdot(psi_b, ha) * grid.volume_element
    rhs = np.conj(np.vdot(psi_a, hb)) * grid.volume_element
    checks.append(("hamiltonian hermiticity", abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))))

    if cfg.cavity is not None and cfg.cavity.n_fock > 0:
        comm = ladder_commutator(cfg.cavity.n_fock)
        expect = np.eye(cfg.cavity.n_fock + 1)
        expect[-1, -1] = -cfg.cavity.n_fock
        checks.append(("ladder commutator", np.array_equal(comm, expect)))

    seeds = rng.standard_normal((n_orb, sectors) + grid.shape) \
        + 1j * rng.standard_normal((n_orb, sectors) + grid.shape)
    orbs = gram_schmidt_sectorwise(OrbitalSet(seeds, cfg.system.occupations, grid))
    dev = np.max(np.abs(orbs.overlap_matrix() - np.eye(n_orb)))
    checks.append(("orthonormalization", dev < 1e-10))
    if cfg.cavity is not None:
        pn = photon_occupations(orbs)
        checks.append(("occupation sum rule", abs(pn.sum() - 1.0) < 1e-10))

    with tempfile.TemporaryDirectory() as tmp:
        chk_path = Path(tmp) / "roundtrip.chk"
        save_checkpoint(chk_path, Checkpoint(orbitals=orbs, cavity=cfg.cavity))
        loaded = load_checkpoint(chk_path)
    checks.append(("checkpoint round-trip",
                   np.array_equal(loaded.orbitals.psi, orbs.psi)))

    if (cfg.cavity is not None and grid.dim == 1
            and grid.n_points * sectors <= 20000):
        h = assemble(cfg.system, cfg.cavity, flavor="mean-field-mu", mu=mu,
                     density=density)
        vec = psi_a.reshape(-1)
        direct = (h @ vec).reshape(psi_a.shape)
        checks.append(("oracle matvec equivalence",
                       np.max(np.abs(direct - ha)) < 1e-12))

    passed = sum(1 for _, ok in checks if ok)
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    print(f"{passed}/{len(checks)} checks passed")
    return 0 if passed == len(checks) else 1


if __name__ == "__main__":
    sys.exit(main())
