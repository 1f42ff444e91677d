"""Run configuration: sectioned key-value files, fully validated.

The format is INI-style with blocks [system], [cavity], [scf], [prop],
[spectra], [output].  ``_KNOWN_KEYS`` is the one table of the format:
every key with its cast and meaning.  Unknown sections or keys are errors
(they catch typos), an empty value means the key is not given, and
validation reports every violation at once rather than the first.

Only ``_REQUIRED`` keys must be given; every other key defaults to the
field of the config class it fills (``ScfConfig``, ``PropConfig``,
``LaserPulse`` for the ``laser_`` keys, ``SpectrumConfig``, ``RunConfig``,
``ElectronSystem``), so each default lives on its class alone.  All
quantities are atomic units; the only unit conversion lives in the output
layer behind the ``report_ev`` flag.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

from .cavity import CavityMode
from .errors import ConfigurationError, UsageError
from .grid import DEFAULT_ORDER, Grid
from .potentials import ElectronSystem, Ion
from .propagate import LaserPulse, PropConfig
from .scf import ScfConfig
from .spectra import SpectrumConfig
from .timeseries import axis_index, axis_name


def _floats(text: str) -> list:
    return [float(tok) for tok in text.replace(",", " ").split()]


def _ints(text: str) -> list:
    return [int(tok) for tok in text.split()]


def _bool(text: str) -> bool:
    val = text.strip().lower()
    if val in ("yes", "true", "1", "on"):
        return True
    if val in ("no", "false", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _two_pi_envelope(text: str) -> bool:
    if text not in ("printed", "two-pi"):
        raise ValueError(f"must be 'printed' or 'two-pi', got {text!r}")
    return text == "two-pi"


# every accepted key: (cast of its text, short meaning)
_KNOWN_KEYS = {
    "system": {
        "dim": (int, "grid dimensionality (1 or 3)"),
        "points": (_ints, "grid points per axis"),
        "spacing": (float, "grid spacing h (bohr)"),
        "fd_order": (int, "finite-difference stencil points per axis (3/5/7/9)"),
        "occupations": (_floats, "electrons per orbital c_m"),
        "ions": (str, "one 'Z position... softening' line per ion"),
        "hartree": (_bool, "include the Hartree potential (yes/no)"),
        "xc": (_bool, "include LDA exchange-correlation (yes/no)"),
        "ee_softening": (float, "electron-electron softening for the 1D Hartree kernel"),
        "harmonic_omega": (float, "optional harmonic well frequency"),
    },
    "cavity": {
        "omega": (float, "photon mode frequency"),
        "lambda": (_floats, "coupling vector components"),
        "v_eff": (float, "effective cavity volume (alternative to lambda)"),
        "polarization": (_floats, "unit vector used with v_eff"),
        "n_fock": (int, "highest photon number retained"),
    },
    "scf": {
        "max_iterations": (int, "iteration budget"),
        "tol_energy": (float, "energy convergence tolerance"),
        "tol_density": (float, "L1 density change (imaginary-time) or residual norm "
                                "(conjugate-gradient) convergence tolerance"),
        "minimizer": (str, "imaginary-time | conjugate-gradient (one orbital); empty: "
                           "conjugate-gradient for one orbital in 1D, else imaginary-time"),
    },
    "prop": {
        "dt": (float, "time step"),
        "n_steps": (int, "number of steps"),
        "stride": (int, "observable sampling stride"),
        "kick_strength": (float, "delta-kick field strength"),
        "kick_axis": (axis_index, "delta-kick axis (x/y/z)"),
        "laser_amplitude": (float, "laser peak field E_x"),
        "laser_carrier": (float, "laser carrier frequency w_L"),
        "laser_envelope_time": (float, "explicit envelope time T_L"),
        "laser_envelope_rule": (_two_pi_envelope, "printed (2/w_L) | two-pi (2 pi / w_L)"),
        "laser_axis": (axis_index, "laser polarization axis (x/y/z)"),
        "norm_tol_step": (float, "allowed norm drift per step"),
    },
    "spectra": {
        "eta": (float, "Gaussian damping rate (empty = automatic)"),
        "omega_min": (float, "frequency window start"),
        "omega_max": (float, "frequency window end"),
        "omega_step": (float, "frequency resolution"),
        "peak_threshold": (float, "relative peak detection threshold"),
    },
    "output": {
        "prefix": (str, "output file name prefix"),
        "report_ev": (_bool, "add eV-converted columns to spectrum files (yes/no)"),
    },
}

# keys without a default; [system] is the one required section
_REQUIRED = {"system": ("dim", "points", "spacing", "occupations"),
             "cavity": ("omega",),
             "prop": ("dt", "n_steps")}


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

    def echo(self) -> dict:
        """Config echo for output metadata: ``echoNNN = cfg <line>`` per non-blank line."""
        lines = [line for line in self.raw_text.splitlines() if line.strip()]
        return {f"echo{index:03d}": f"cfg {line}" for index, line in enumerate(lines)}


def _read_keys(parser: configparser.ConfigParser) -> tuple:
    """Cast every non-empty key of every section; collect each violation."""
    given = {section: {} for section in _KNOWN_KEYS}
    violations = []
    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            violations.append(f"unknown section [{section}]")
            continue
        for key, text in parser[section].items():
            if key not in _KNOWN_KEYS[section]:
                violations.append(f"unknown key '{key}' in [{section}]")
            elif text.strip():
                try:
                    given[section][key] = _KNOWN_KEYS[section][key][0](text)
                except (ValueError, ConfigurationError, UsageError) as exc:
                    violations.append(f"[{section}] {key}: {exc}")
    if not parser.has_section("system"):
        violations.append("missing required section [system]")
    for section, keys in _REQUIRED.items():
        if parser.has_section(section):
            violations.extend(f"missing required key '{key}' in [{section}]"
                              for key in keys if not parser[section].get(key, "").strip())
    return given, violations


def parse_config(path) -> RunConfig:
    """Read, validate, and materialize a run configuration file."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            text = fh.read()
        parser.read_string(text)
    except (UnicodeDecodeError, configparser.Error) as exc:
        raise ConfigurationError(f"cannot parse {path}: {exc}") from exc

    given, violations = _read_keys(parser)
    if violations:
        raise ConfigurationError(
            f"invalid configuration in {path}:\n  " + "\n  ".join(violations), violations)

    # --- system ---------------------------------------------------------
    keys = given["system"]
    dim, points, spacing = keys.pop("dim"), keys.pop("points"), keys.pop("spacing")
    order = keys.pop("fd_order", DEFAULT_ORDER)
    grid = None
    if spacing <= 0:
        violations.append(f"[system] spacing must be positive, got {spacing}")
    if dim not in (1, 3):
        violations.append(f"[system] dim must be 1 or 3, got {dim}")
    elif spacing > 0:
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
    for lineno, line in enumerate(keys.pop("ions", "").splitlines(), start=1):
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
        # hartree and xc set use_hartree and use_xc; the other keys are fields
        model = {("use_" + key if key in ("hartree", "xc") else key): value
                 for key, value in keys.items()}
        try:
            system = ElectronSystem(grid=grid, ions=ions, **model)
        except ConfigurationError as exc:
            violations.append(f"[system] {exc}")

    # --- cavity ---------------------------------------------------------
    cavity = None
    if parser.has_section("cavity"):
        keys = given["cavity"]
        omega, n_fock = keys["omega"], keys.get("n_fock", 0)
        lam, v_eff, pol = keys.get("lambda"), keys.get("v_eff"), keys.get("polarization")
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
    scf_cfg = None
    try:
        scf_cfg = ScfConfig(**given["scf"])
    except ConfigurationError as exc:
        violations.append(f"[scf] {exc}")

    # --- prop -------------------------------------------------------------
    prop_cfg = None
    if parser.has_section("prop"):
        keys = given["prop"]
        for key in ("kick_axis", "laser_axis"):
            if key in keys and keys[key] >= dim:
                violations.append(f"[prop] {key}: {axis_name(keys[key])!r} "
                                  f"is not an axis of a {dim}D grid")
        laser = None
        pulse = {key[len("laser_"):]: keys.pop(key)
                 for key in list(keys) if key.startswith("laser_")}
        if pulse and "amplitude" not in pulse:
            violations.extend(f"[prop] laser_{key} needs laser_amplitude" for key in pulse)
        elif pulse:
            if "envelope_time" in pulse and "envelope_rule" in pulse:
                violations.append(
                    "[prop] give either laser_envelope_time or laser_envelope_rule, not both")
            two_pi = pulse.pop("envelope_rule", False)
            try:
                if "carrier" not in pulse:
                    raise ConfigurationError("laser_amplitude needs laser_carrier")
                laser = LaserPulse(**pulse)
                if two_pi:
                    laser.envelope_time = 2.0 * math.pi / laser.carrier
            except ConfigurationError as exc:
                violations.append(f"[prop] laser: {exc}")
        try:
            prop_cfg = PropConfig(**keys, laser=laser)
        except ConfigurationError as exc:
            violations.append(f"[prop] {exc}")

    # --- spectra ------------------------------------------------------------
    spec_cfg = None
    try:
        spec_cfg = SpectrumConfig(**given["spectra"])
    except ConfigurationError as exc:
        violations.append(f"[spectra] {exc}")

    if violations:
        raise ConfigurationError(
            f"invalid configuration in {path}:\n  " + "\n  ".join(violations), violations)

    return RunConfig(grid=grid, system=system, cavity=cavity, scf=scf_cfg, prop=prop_cfg,
                     spectra=spec_cfg, raw_text=text, **given["output"])
