"""Run configuration: sectioned key-value files, fully validated.

The format is INI-style with blocks [system], [cavity], [scf], [prop],
[spectra], [output].  Unknown sections or keys are errors (they catch
typos), and validation reports every violation at once rather than the
first.  All quantities are atomic units; the only unit conversion lives
in the output layer behind the ``report_ev`` flag.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass

import numpy as np

from .cavity import CavityMode
from .errors import ConfigurationError, UsageError
from .grid import DEFAULT_ORDER, Grid
from .potentials import ElectronSystem, Ion
from .propagate import LaserPulse, PropConfig
from .scf import ScfConfig
from .spectra import SpectrumConfig
from .timeseries import axis_index

# every accepted key, with a short meaning used in error messages
_KNOWN_KEYS = {
    "system": {
        "dim": "grid dimensionality (1 or 3)",
        "points": "grid points per axis",
        "spacing": "grid spacing h (bohr)",
        "fd_order": "finite-difference stencil points per axis (3/5/7/9)",
        "occupations": "electrons per orbital c_m",
        "ions": "one 'Z position... softening' line per ion",
        "hartree": "include the Hartree potential (yes/no)",
        "xc": "include LDA exchange-correlation (yes/no)",
        "ee_softening": "electron-electron softening for the 1D Hartree kernel",
        "harmonic_omega": "optional harmonic well frequency",
    },
    "cavity": {
        "omega": "photon mode frequency",
        "lambda": "coupling vector components",
        "v_eff": "effective cavity volume (alternative to lambda)",
        "polarization": "unit vector used with v_eff",
        "n_fock": "highest photon number retained",
    },
    "scf": {
        "max_iterations": "iteration budget",
        "tol_energy": "energy convergence tolerance",
        "tol_density": "L1 density convergence tolerance",
        "mixing": "linear density mixing in (0, 1]",
        "minimizer": "imaginary-time | conjugate-gradient",
        "fixed_step": "imaginary-time step when the line search finds none",
        "sector_weights": "initial Fock sector weights w_n",
    },
    "prop": {
        "dt": "time step",
        "n_steps": "number of steps",
        "order": "Taylor expansion order",
        "stride": "observable sampling stride",
        "kick_strength": "delta-kick field strength",
        "kick_axis": "delta-kick axis (x/y/z)",
        "laser_amplitude": "laser peak field E_x",
        "laser_carrier": "laser carrier frequency w_L",
        "laser_envelope_time": "explicit envelope time T_L",
        "laser_envelope_rule": "printed (2/w_L) | two-pi (2 pi / w_L)",
        "laser_axis": "laser polarization axis (x/y/z)",
        "norm_tol_step": "allowed norm drift per step",
    },
    "spectra": {
        "eta": "Gaussian damping rate (empty = automatic)",
        "omega_min": "frequency window start",
        "omega_max": "frequency window end",
        "omega_step": "frequency resolution",
        "peak_threshold": "relative peak detection threshold",
        "hhg_window": "hann | gaussian | none",
    },
    "output": {
        "prefix": "output file name prefix",
        "report_ev": "add eV-converted columns to spectrum files (yes/no)",
    },
}

_REQUIRED = {"system": ("dim", "points", "spacing", "occupations")}


@dataclass
class RunConfig:
    """Validated run setup with builders for every module's inputs."""

    grid: Grid
    system: ElectronSystem
    cavity: CavityMode | None
    scf: ScfConfig
    prop: PropConfig | None
    spectra: SpectrumConfig
    prefix: str = "run"
    report_ev: bool = False
    raw_text: str = ""

    def echo_lines(self) -> list:
        """Config echo (one '# cfg ...' line per stored line) for outputs."""
        return [f"cfg {line}" for line in self.raw_text.splitlines() if line.strip()]


def _floats(text: str) -> list:
    return [float(tok) for tok in text.replace(",", " ").split()]


def _bool(text: str) -> bool:
    val = text.strip().lower()
    if val in ("yes", "true", "1", "on"):
        return True
    if val in ("no", "false", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def parse_config(path) -> RunConfig:
    """Read, validate, and materialize a run configuration file."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(path) as fh:
        text = fh.read()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"cannot parse {path}: {exc}") from exc

    violations = []
    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            violations.append(f"unknown section [{section}]")
            continue
        for key in parser[section]:
            if key not in _KNOWN_KEYS[section]:
                violations.append(f"unknown key '{key}' in [{section}]")
    for section, keys in _REQUIRED.items():
        if not parser.has_section(section):
            violations.append(f"missing required section [{section}]")
            continue
        for key in keys:
            if key not in parser[section]:
                violations.append(f"missing required key '{key}' in [{section}]")
    if violations:
        raise ConfigurationError(
            "invalid configuration:\n  " + "\n  ".join(violations), violations)

    def grab(section, key, cast, default=None):
        if not parser.has_section(section) or key not in parser[section]:
            return default
        try:
            return cast(parser[section][key])
        except (ValueError, ConfigurationError) as exc:
            violations.append(f"[{section}] {key}: {exc}")
            return default

    # --- system ---------------------------------------------------------
    dim = grab("system", "dim", int, 1)
    points = grab("system", "points", lambda s: [int(t) for t in s.split()], [])
    spacing = grab("system", "spacing", float, 0.0)
    order = grab("system", "fd_order", int, DEFAULT_ORDER)
    occupations = grab("system", "occupations", _floats, [1.0])
    grid = None
    if spacing is not None and spacing <= 0:
        violations.append(f"[system] spacing must be positive, got {spacing}")
    if dim not in (1, 3):
        violations.append(f"[system] dim must be 1 or 3, got {dim}")
    elif points is not None and spacing is not None and spacing > 0:
        if len(points) == 1:
            points = points * dim
        if len(points) != dim:
            violations.append(f"[system] points needs 1 or {dim} values")
        else:
            try:
                grid = Grid(tuple(points), spacing, order)
            except ConfigurationError as exc:
                violations.append(f"[system] {exc}")

    ions = []
    ion_text = parser["system"].get("ions", "") if parser.has_section("system") else ""
    for lineno, line in enumerate(ion_text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            vals = _floats(line)
            if len(vals) != dim + 2:
                raise ValueError(f"need Z, {dim} position value(s), softening")
            ions.append(Ion(charge=vals[0], position=tuple(vals[1:1 + dim]),
                            softening=vals[-1]))
        except (ValueError, ConfigurationError) as exc:
            violations.append(f"[system] ions line {lineno}: {exc}")

    system = None
    if grid is not None:
        try:
            system = ElectronSystem(
                grid=grid, ions=ions,
                occupations=np.asarray(occupations),
                use_hartree=grab("system", "hartree", _bool, True),
                use_xc=grab("system", "xc", _bool, True),
                ee_softening=grab("system", "ee_softening", float, 1.0),
                harmonic_omega=grab("system", "harmonic_omega", float, 0.0),
            )
        except ConfigurationError as exc:
            violations.append(f"[system] {exc}")

    # --- cavity ---------------------------------------------------------
    cavity = None
    if parser.has_section("cavity"):
        omega = grab("cavity", "omega", float, 0.0)
        n_fock = grab("cavity", "n_fock", int, 0)
        lam = grab("cavity", "lambda", _floats, None)
        v_eff = grab("cavity", "v_eff", float, None)
        pol = grab("cavity", "polarization", _floats, None)
        try:
            if lam is not None and v_eff is not None:
                raise ConfigurationError("give either lambda or v_eff, not both")
            if lam is not None:
                if len(lam) != dim:
                    raise ConfigurationError(f"lambda needs {dim} components")
                cavity = CavityMode(omega=omega, coupling=tuple(lam), n_fock=n_fock)
            elif v_eff is not None:
                if pol is None:
                    pol = [1.0] + [0.0] * (dim - 1)
                if len(pol) != dim:
                    raise ConfigurationError(f"polarization needs {dim} components")
                cavity = CavityMode.from_effective_volume(omega, v_eff, pol, n_fock)
            else:
                raise ConfigurationError("cavity section needs lambda or v_eff")
        except ConfigurationError as exc:
            violations.append(f"[cavity] {exc}")

    # --- scf --------------------------------------------------------------
    scf_kwargs = {}
    for key, cast in (
            ("max_iterations", int),
            ("tol_energy", float),
            ("tol_density", float),
            ("mixing", float),
            ("minimizer", str.strip),
            ("fixed_step", float),
            ("sector_weights", lambda s: tuple(_floats(s)))):
        val = grab("scf", key, cast)
        if val is not None:
            scf_kwargs[key] = val
    scf_cfg = None
    try:
        scf_cfg = ScfConfig(**scf_kwargs)
    except ConfigurationError as exc:
        violations.append(f"[scf] {exc}")

    # --- prop -------------------------------------------------------------
    def axis(key):
        name = grab("prop", key, str.strip, "x")
        try:
            index = axis_index(name)
        except UsageError as exc:
            violations.append(f"[prop] {key}: {exc}")
            return 0
        if index >= dim:
            violations.append(f"[prop] {key}: {name!r} is not an axis of a {dim}D grid")
            return 0
        return index

    prop_cfg = None
    if parser.has_section("prop"):
        laser = None
        amp = grab("prop", "laser_amplitude", float, None)
        if amp is None:
            violations.extend(
                f"[prop] {key} needs laser_amplitude" for key in parser["prop"]
                if key.startswith("laser_") and key != "laser_amplitude")
        else:
            if "laser_envelope_time" in parser["prop"] and "laser_envelope_rule" in parser["prop"]:
                violations.append(
                    "[prop] give either laser_envelope_time or laser_envelope_rule, not both")
            try:
                rule = grab("prop", "laser_envelope_rule", str.strip, "printed")
                if rule not in ("printed", "two-pi"):
                    raise ConfigurationError(
                        f"laser_envelope_rule must be 'printed' or 'two-pi', got {rule!r}")
                carrier = grab("prop", "laser_carrier", float, 0.0)
                laser = LaserPulse(
                    amplitude=amp, carrier=carrier,
                    envelope_time=grab("prop", "laser_envelope_time", float, None),
                    axis=axis("laser_axis"),
                    two_pi_envelope=(rule == "two-pi"))
            except ConfigurationError as exc:
                violations.append(f"[prop] laser: {exc}")
        try:
            prop_cfg = PropConfig(
                dt=grab("prop", "dt", float, 0.0),
                n_steps=grab("prop", "n_steps", int, 0),
                order=grab("prop", "order", int, 4),
                stride=grab("prop", "stride", int, 1),
                kick_strength=grab("prop", "kick_strength", float, 0.0),
                kick_axis=axis("kick_axis"),
                laser=laser,
                norm_tol_step=grab("prop", "norm_tol_step", float, 1e-10),
            )
        except ConfigurationError as exc:
            violations.append(f"[prop] {exc}")

    # --- spectra ------------------------------------------------------------
    spec_cfg = None
    try:
        spec_cfg = SpectrumConfig(
            omega_min=grab("spectra", "omega_min", float, 0.0),
            omega_max=grab("spectra", "omega_max", float, 1.0),
            omega_step=grab("spectra", "omega_step", float, 1e-3),
            eta=grab("spectra", "eta", float, None),
            peak_threshold=grab("spectra", "peak_threshold", float, 1e-3),
            hhg_window=grab("spectra", "hhg_window", str.strip, "hann"),
        )
    except ConfigurationError as exc:
        violations.append(f"[spectra] {exc}")

    if violations:
        raise ConfigurationError(
            "invalid configuration:\n  " + "\n  ".join(violations), violations)

    return RunConfig(
        grid=grid, system=system, cavity=cavity, scf=scf_cfg, prop=prop_cfg,
        spectra=spec_cfg,
        prefix=grab("output", "prefix", str.strip, "run") or "run",
        report_ev=grab("output", "report_ev", _bool, False),
        raw_text=text,
    )
