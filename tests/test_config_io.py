import dataclasses
import os
import re
import subprocess
import sys
import tempfile
import zipfile
from pathlib import Path

import numpy as np
import pytest

import cavitydft
from cavitydft.cavity import CavityMode, OrbitalSet
from cavitydft.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from cavitydft.cli import main
from cavitydft.config import _KNOWN_KEYS, RunConfig, parse_config
from cavitydft.errors import ConfigurationError, UsageError
from cavitydft.grid import Grid
from cavitydft.oracle import scf_ground_state
from cavitydft.propagate import PropConfig
from cavitydft.scf import ScfConfig, scf_solve
from cavitydft.spectra import Peak, Spectrum, SpectrumConfig
from cavitydft.timeseries import TimeSeries, read_table

MINIMAL = """
[system]
dim = 1
points = 61
spacing = 0.4
occupations = 1.0
ions =
    1.0  0.0  1.0
"""

FULL = MINIMAL + """
[cavity]
omega = 0.08
lambda = 0.05
n_fock = 2

[scf]
max_iterations = 500
tol_energy = 1e-9
tol_density = 1e-7

[prop]
dt = 0.05
n_steps = 100
kick_strength = 0.001

[spectra]
omega_min = 0.0
omega_max = 0.4
omega_step = 0.001

[output]
prefix = demo
"""

CAVITY_3D = """
[system]
dim = 3
points = 11
spacing = 0.5
occupations = 1.0
ions =
    1.0  0.0 0.0 0.0  1.0

[cavity]
omega = 0.1
lambda = 0.05 0.02 0.0
n_fock = 2
"""


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParseConfig:
    def test_minimal_config_defaults(self, tmp_path):
        cfg = parse_config(write(tmp_path, MINIMAL))
        assert cfg.grid == Grid((61,), 0.4)
        assert cfg.cavity is None
        assert cfg.system.use_hartree and cfg.system.use_xc
        assert cfg.scf == ScfConfig()
        assert cfg.spectra == SpectrumConfig()
        assert cfg.prop is None
        assert cfg.prefix == "run"

    def test_full_config(self, tmp_path):
        cfg = parse_config(write(tmp_path, FULL))
        assert cfg.cavity.omega == 0.08
        assert cfg.cavity.lam[0] == 0.05
        assert cfg.prop.kick_strength == 0.001
        assert cfg.prefix == "demo"

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError) as err:
            parse_config(write(tmp_path, MINIMAL + "\n[scf]\nmaxiter = 3\n"))
        assert any("maxiter" in v for v in err.value.violations)

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            parse_config(write(tmp_path, MINIMAL + "\n[solver]\nx = 1\n"))

    def test_all_violations_reported(self, tmp_path):
        bad = """
[system]
dim = 2
points = 61
spacing = -0.4
occupations = 1.0
"""
        with pytest.raises(ConfigurationError) as err:
            parse_config(write(tmp_path, bad))
        text = "\n".join(err.value.violations)
        assert "dim" in text and "spacing" in text.lower()

    def test_missing_required_keys_enumerated(self, tmp_path):
        with pytest.raises(ConfigurationError) as err:
            parse_config(write(tmp_path, "[system]\ndim = 1\n"))
        text = "\n".join(err.value.violations)
        assert "points" in text and "spacing" in text and "occupations" in text

    def test_negative_dt_named(self, tmp_path):
        text = FULL.replace("dt = 0.05", "dt = -0.05")
        with pytest.raises(ConfigurationError) as err:
            parse_config(write(tmp_path, text))
        assert any("prop" in v for v in err.value.violations)

    def test_effective_volume_coupling(self, tmp_path):
        text = MINIMAL + """
[cavity]
omega = 0.1
v_eff = 800.0
polarization = 1.0
n_fock = 1
"""
        cfg = parse_config(write(tmp_path, text))
        # lam = 1/sqrt(eps0 V) with eps0 = 1/(4 pi)
        assert cfg.cavity.lam[0] == pytest.approx(np.sqrt(4 * np.pi / 800.0))

    def test_lambda_and_veff_conflict(self, tmp_path):
        text = MINIMAL + """
[cavity]
omega = 0.1
lambda = 0.05
v_eff = 800.0
n_fock = 1
"""
        with pytest.raises(ConfigurationError):
            parse_config(write(tmp_path, text))

    @pytest.mark.parametrize("section, lines, key", [
        ("scf", "inner_steps = 1", "inner_steps"),
        ("scf", "fd_order = 5", "fd_order"),  # the stencil order is a [system] key
        ("prop", "dt = 0.05\nn_steps = 10\nenergy_shift = no", "energy_shift"),
        ("scf", "fixed_step = 0.1", "fixed_step"),
        ("scf", "sector_weights = 1 0.1", "sector_weights"),
        ("spectra", "hhg_window = hann", "hhg_window"),
        ("prop", "dt = 0.05\nn_steps = 10\norder = 4", "order"),  # the Taylor order is fixed
        ("scf", "mixing = 0.3", "mixing"),  # the imaginary-time mixing is fixed at 0.3
    ], ids=["inner-steps", "scf-fd-order", "energy-shift", "fixed-step", "sector-weights",
            "hhg-window", "taylor-order", "mixing"])
    def test_removed_keys_rejected(self, tmp_path, section, lines, key):
        with pytest.raises(ConfigurationError) as err:
            parse_config(write(tmp_path, MINIMAL + f"\n[{section}]\n{lines}\n"))
        assert f"unknown key '{key}' in [{section}]" in err.value.violations

    @pytest.mark.parametrize("section, config_class, not_keys", [
        ("scf", ScfConfig, set()),
        ("spectra", SpectrumConfig, set()),
        ("output", RunConfig, {"grid", "system", "cavity", "scf", "prop", "spectra",
                               "raw_text"}),
        ("prop", PropConfig, {"laser"}),  # the laser_ keys fill PropConfig.laser
    ], ids=["scf-ScfConfig", "spectra-SpectrumConfig", "output-RunConfig", "prop-PropConfig"])
    def test_keys_are_the_config_fields(self, section, config_class, not_keys):
        fields = {f.name for f in dataclasses.fields(config_class)} - not_keys
        assert {key for key in _KNOWN_KEYS[section] if not key.startswith("laser_")} == fields

    def test_empty_value_means_not_given(self, tmp_path):
        text = MINIMAL + "\n[spectra]\neta =\nomega_max = 0.5\n\n[output]\nprefix =\n"
        cfg = parse_config(write(tmp_path, text))
        assert cfg.spectra == SpectrumConfig(omega_max=0.5)
        assert cfg.prefix == "run"

    @pytest.mark.parametrize("section, lines, key", [
        ("cavity", "lambda = 0.05", "omega"),
        ("prop", "n_steps = 10", "dt"),
        ("prop", "dt = 0.05\nkick_strength = 0.001", "n_steps"),
    ], ids=["cavity-omega", "prop-dt", "prop-n_steps"])
    def test_required_keys_of_optional_sections(self, tmp_path, section, lines, key):
        with pytest.raises(ConfigurationError) as err:
            parse_config(write(tmp_path, MINIMAL + f"\n[{section}]\n{lines}\n"))
        assert err.value.violations == [f"missing required key '{key}' in [{section}]"]

    @pytest.mark.parametrize("lines, named", [
        ("kick_strength = 0.001\nkick_axis = q", "kick_axis"),
        ("kick_strength = 0.001\nkick_axis = z", "kick_axis"),
        ("laser_amplitude = 0.005\nlaser_carrier = 0.057\nlaser_axis = z", "laser_axis"),
        ("laser_amplitude = 0.005\nlaser_carrier = 0.057\nlaser_envelope_time = 40.0\n"
         "laser_envelope_rule = two-pi", "laser_envelope_rule"),
        ("laser_carrier = 0.057", "laser_carrier"),
        ("laser_axis = x", "laser_axis"),
        ("laser_envelope_rule = two-pi", "laser_envelope_rule"),
        ("laser_envelope_time = 40.0", "laser_envelope_time"),
        ("laser_amplitude = 0.005\nlaser_carrier = 0.057\nlaser_envelope_rule = half",
         "laser_envelope_rule"),
        ("laser_amplitude = 0.005", "laser_carrier"),
    ], ids=["unknown-kick-axis", "kick-axis-off-grid", "laser-axis-off-grid",
            "envelope-time-and-rule", "carrier-without-amplitude", "axis-without-amplitude",
            "rule-without-amplitude", "envelope-time-without-amplitude", "unknown-envelope-rule",
            "amplitude-without-carrier"])
    def test_bad_prop_settings_reported(self, tmp_path, capsys, lines, named):
        text = MINIMAL.replace("points = 61", "points = 41") + (
            "\n[prop]\ndt = 0.05\nn_steps = 10\n" + lines + "\n")
        code = main(["propagate", "--config", str(write(tmp_path, text)),
                     "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "ERROR ConfigurationError" in err and "[prop]" in err and named in err

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_scf_budget_below_one_reported(self, tmp_path, capsys, budget):
        text = MINIMAL + f"\n[scf]\nmax_iterations = {budget}\n"
        code = main(["scf", "--config", str(write(tmp_path, text)), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "ERROR ConfigurationError" in err and "[scf]" in err and "max_iterations" in err
        assert not (tmp_path / "run_scf.chk").exists()

    @pytest.mark.parametrize("lines, engine", [
        ("", "conjugate-gradient"),
        ("\n[scf]\nminimizer =\n", "conjugate-gradient"),
        ("\n[scf]\nminimizer = imaginary-time\n", "imaginary-time"),
    ], ids=["no-key", "empty-key", "imaginary-time"])
    def test_scf_names_the_engine_that_ran(self, tmp_path, capsys, lines, engine):
        code = main(["scf", "--config", str(write(tmp_path, MINIMAL + lines)),
                     "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert re.search(rf"^converged in \d+ iterations \({engine}\), E = ", out, re.M)

    def test_stencil_order_is_a_system_key(self, tmp_path):
        cfg = parse_config(write(tmp_path, MINIMAL + "fd_order = 5\n"))
        assert cfg.grid == Grid((61,), 0.4, 5)
        assert cfg.system.grid.order == 5

    def test_ion_line_errors_located(self, tmp_path):
        bad = MINIMAL.replace("1.0  0.0  1.0", "1.0  0.0")
        with pytest.raises(ConfigurationError) as err:
            parse_config(write(tmp_path, bad))
        assert any("ions line" in v for v in err.value.violations)

    def test_3d_points_expansion(self, tmp_path):
        text = """
[system]
dim = 3
points = 9
spacing = 0.5
occupations = 2.0
"""
        cfg = parse_config(write(tmp_path, text))
        assert cfg.grid.shape == (9, 9, 9)


class TestCheckpoint:
    def _orbitals(self):
        g = Grid((31,), 0.3)
        rng = np.random.default_rng(17)
        psi = rng.standard_normal((2, 3) + g.shape) \
            + 1j * rng.standard_normal((2, 3) + g.shape)
        return OrbitalSet(psi, [2.0, 1.0], g)

    def test_roundtrip_bit_exact(self, tmp_path):
        orbs = self._orbitals()
        cav = CavityMode(omega=0.08, coupling=(0.05,), n_fock=2)
        path = tmp_path / "state.chk"
        save_checkpoint(path, Checkpoint(orbitals=orbs, cavity=cav))
        loaded = load_checkpoint(path)
        assert np.array_equal(loaded.orbitals.psi, orbs.psi)
        assert np.array_equal(loaded.orbitals.occupations, orbs.occupations)
        assert loaded.orbitals.grid == orbs.grid
        assert loaded.cavity == cav

    def test_no_cavity_roundtrip(self, tmp_path):
        orbs = self._orbitals()
        path = tmp_path / "state.chk"
        save_checkpoint(path, Checkpoint(orbitals=orbs, cavity=None))
        assert load_checkpoint(path).cavity is None

    def test_roundtrip_keeps_stencil_order(self, tmp_path):
        orbs = self._orbitals()
        orbs = OrbitalSet(orbs.psi, orbs.occupations, Grid((31,), 0.3, order=5))
        path = tmp_path / "state.chk"
        save_checkpoint(path, Checkpoint(orbitals=orbs, cavity=None))
        assert load_checkpoint(path).orbitals.grid == Grid((31,), 0.3, order=5)

    def _saved(self, tmp_path, cavity=None):
        path = tmp_path / "state.chk"
        save_checkpoint(path, Checkpoint(orbitals=self._orbitals(), cavity=cavity))
        return path

    def test_archive_keys(self, tmp_path):
        cav = CavityMode(omega=0.08, coupling=(0.05,), n_fock=2)
        with zipfile.ZipFile(self._saved(tmp_path, cav)) as archive:
            entries = archive.infolist()
        assert [e.filename for e in entries] == [
            f"{key}.npy" for key in ("version", "shape", "h", "order", "occupations", "psi",
                                     "omega", "coupling", "n_fock")]
        # a fixed date on every entry keeps one state's bytes the same
        assert {e.date_time for e in entries} == {(1980, 1, 1, 0, 0, 0)}

    def test_version_1_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        with np.load(path) as archive:
            arrays = dict(archive)
        with open(path, "wb") as fh:
            np.savez(fh, **{**arrays, "version": 1})
        with pytest.raises(UsageError, match="unsupported checkpoint version 1"):
            load_checkpoint(path)

    def test_wrong_magic_rejected(self, tmp_path):
        # bytes that are no numpy archive
        path = tmp_path / "junk.chk"
        path.write_bytes(b"NOTACHKP" + b"\x00" * 64)
        with pytest.raises(UsageError, match="no numpy archive"):
            load_checkpoint(path)

    @pytest.mark.parametrize("case", ["empty", "directory", "random-bytes", "npy",
                                      "missing-key"])
    def test_malformed_file_rejected(self, tmp_path, case):
        path = tmp_path / "state.chk"
        if case == "empty":
            path.write_bytes(b"")
        elif case == "directory":
            path.mkdir()
        elif case == "random-bytes":
            path.write_bytes(np.random.default_rng(3).bytes(4096))
        elif case == "npy":
            with open(path, "wb") as fh:
                np.save(fh, self._orbitals().psi)
        else:
            with np.load(self._saved(tmp_path)) as archive:
                arrays = dict(archive)
            del arrays["occupations"]
            with open(path, "wb") as fh:
                np.savez(fh, **arrays)
        with pytest.raises(UsageError, match=re.escape(str(path))):
            load_checkpoint(path)

    def test_damaged_archive_rejected(self, tmp_path):
        # a few bytes overwritten anywhere: the archive loads or is rejected
        data = self._saved(tmp_path).read_bytes()
        rng = np.random.default_rng(5)
        path = tmp_path / "damaged.chk"
        for _ in range(500):
            damaged = bytearray(data)
            for at in rng.integers(len(data), size=3):
                damaged[at] = rng.integers(256)
            path.write_bytes(bytes(damaged))
            try:
                load_checkpoint(path)
            except UsageError:
                pass

    def test_every_truncation_rejected(self, tmp_path):
        data = self._saved(tmp_path, CavityMode(omega=0.08, coupling=(0.05,), n_fock=2)
                           ).read_bytes()
        path = tmp_path / "cut.chk"
        for length in range(len(data)):
            path.write_bytes(data[:length])
            with pytest.raises(UsageError):
                load_checkpoint(path)


class TestTimeSeries:
    def test_roundtrip(self, tmp_path):
        t = np.arange(50) * 0.1
        series = TimeSeries(columns={"t": t, "Dx": np.sin(t), "q": np.cos(t)},
                            meta={"dt": 0.1, "kick_strength": 1e-3,
                                  "method": "tensor-product"})
        path = tmp_path / "ts.tsv"
        series.write(path)
        back = TimeSeries.read(path)
        assert back.meta["dt"] == 0.1
        assert back.meta["method"] == "tensor-product"
        assert np.array_equal(back["Dx"], series["Dx"])

    def test_nonfinite_rejected(self):
        t = np.arange(5) * 0.1
        bad = np.array([0.0, 1.0, np.nan, 0.0, 1.0])
        with pytest.raises(UsageError):
            TimeSeries(columns={"t": t, "Dx": bad})

    def test_missing_time_column(self):
        with pytest.raises(UsageError):
            TimeSeries(columns={"Dx": np.zeros(3)})

    def test_spectrum_table_layout(self, tmp_path):
        omega = np.linspace(0.0, 1.0, 5)
        spec = Spectrum(omega=omega, alpha=np.exp(1j * omega) / 3.0, sigma=omega / 7.0,
                        peaks=[Peak(location=0.25, height=2.0, width=0.125)],
                        meta={"kick_axis": "x", "eta": 0.01})
        path = tmp_path / "spec.tsv"
        spec.write(path, extra_columns={"omega_eV": 27.2 * omega})
        lines = path.read_text().splitlines()
        assert lines[:4] == ["# eta = 0.01", "# kick_axis = x",
                             "# peak location=0.25 height=2 width=0.125",
                             "omega\tRe_alpha\tIm_alpha\tsigma\tomega_eV"]
        rows = np.array([[float(v) for v in ln.split("\t")] for ln in lines[4:]])
        expected = np.column_stack([omega, spec.alpha.real, spec.alpha.imag, spec.sigma,
                                    27.2 * omega])
        assert np.array_equal(rows, expected)

    def test_unknown_axis_reported_by_cli(self, tmp_path, capsys):
        t = np.arange(50) * 0.1
        path = tmp_path / "ts.tsv"
        TimeSeries(columns={"t": t, "Dx": np.sin(t)},
                   meta={"kick_strength": 1e-3, "kick_axis": "w"}).write(path)
        code = main(["spectrum", "--config", str(write(tmp_path, MINIMAL)),
                     "--out", str(tmp_path), "--series", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "ERROR UsageError" in err and "'w'" in err


CLI_CFG = """
[system]
dim = 1
points = 81
spacing = 0.4
occupations = 1.0
ions =
    1.0  0.0  1.0

[cavity]
omega = 0.08
lambda = 0.05
n_fock = 1

[scf]
max_iterations = 2000
tol_energy = 1e-9
tol_density = 1e-7

[prop]
dt = 0.05
n_steps = 600
kick_strength = 0.001

[spectra]
omega_min = 0.05
omega_max = 0.9
omega_step = 0.002

[output]
prefix = atom
"""


def run_cli(args, cwd):
    # The child runs in ``cwd``, so a relative PYTHONPATH (``src``) no longer
    # points at the package; put the directory of the imported one first.
    src = str(Path(cavitydft.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "cavitydft", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


@pytest.fixture(scope="class")
def cli_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli")
    (path / "run.cfg").write_text(CLI_CFG)
    return path


class TestCli:
    def test_propagate_without_checkpoint_fails(self, cli_dir):
        res = run_cli(["propagate", "--config", "run.cfg"], cli_dir)
        assert res.returncode != 0
        assert "ERROR" in res.stderr and "scf" in res.stderr

    def test_full_pipeline(self, cli_dir):
        res = run_cli(["scf", "--config", "run.cfg"], cli_dir)
        assert res.returncode == 0, res.stderr
        assert (cli_dir / "atom_scf.chk").exists()
        assert (cli_dir / "atom_scf_energy.tsv").exists()

        res = run_cli(["propagate", "--config", "run.cfg"], cli_dir)
        assert res.returncode == 0, res.stderr
        ts = cli_dir / "atom_timeseries.tsv"
        assert ts.exists()

        res = run_cli(["spectrum", "--config", "run.cfg"], cli_dir)
        assert res.returncode == 0, res.stderr
        assert (cli_dir / "atom_spectrum.tsv").exists()
        assert (cli_dir / "atom_spectrum_sector0.tsv").exists()

        res = run_cli(["validate", "--config", "run.cfg"], cli_dir)
        assert res.returncode == 0, res.stderr
        assert "checks passed" in res.stdout

        res = run_cli(["oracle", "--config", "run.cfg"], cli_dir)
        assert res.returncode == 0, res.stderr
        assert (cli_dir / "atom_golden.tsv").exists()

    def test_determinism_bit_identical_outputs(self, cli_dir, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            res = run_cli(["scf", "--config", "run.cfg", "--out", str(out)], cli_dir)
            assert res.returncode == 0, res.stderr
        chk1 = (out1 / "atom_scf.chk").read_bytes()
        chk2 = (out2 / "atom_scf.chk").read_bytes()
        assert chk1 == chk2
        assert ((out1 / "atom_scf_energy.tsv").read_text()
                == (out2 / "atom_scf_energy.tsv").read_text())

    @pytest.mark.parametrize("text", [FULL, CAVITY_3D], ids=["1d", "3d"])
    def test_validate_checks_the_propagation_operator(self, tmp_path, capsys, text):
        code = main(["validate", "--config", str(write(tmp_path, text)),
                     "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 0, out
        # the hermiticity check applies the operator propagation applies
        assert "PASS hamiltonian hermiticity" in out.splitlines()

    def test_validate_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        code = main(["validate", "--config", str(write(tmp_path, MINIMAL)),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        assert list(scratch.iterdir()) == []

    @pytest.mark.parametrize("report_ev", [False, True], ids=["atomic-units", "report-ev"])
    def test_report_ev_columns(self, tmp_path, report_ev):
        t = np.arange(400) * 0.1
        series = tmp_path / "ts.tsv"
        TimeSeries(columns={"t": t, "Dx": 1e-3 * np.sin(0.3 * t) + 1e-4 * np.sin(0.9 * t)},
                   meta={"kick_strength": 1e-3, "kick_axis": "x",
                         "laser_carrier": 0.3, "laser_axis": "x"}).write(series)
        text = MINIMAL + "\n[spectra]\nomega_max = 1.2\nomega_step = 0.01\n"
        if report_ev:
            text += "\n[output]\nreport_ev = yes\n"
        cfg = write(tmp_path, text)
        tables = {}
        for command in ("spectrum", "hhg"):
            assert main([command, "--config", str(cfg), "--out", str(tmp_path),
                         "--series", str(series)]) == 0
            lines = [ln for ln in (tmp_path / f"run_{command}.tsv").read_text().splitlines()
                     if not ln.startswith("#")]
            rows = np.array([[float(v) for v in ln.split("\t")] for ln in lines[1:]])
            tables[command] = dict(zip(lines[0].split("\t"), rows.T))
        spectrum, hhg = tables["spectrum"], tables["hhg"]
        if not report_ev:
            assert "omega_eV" not in spectrum and "omega_eV" not in hhg
            return
        # spectrum: w in eV; hhg: harmonic order times w_L, in eV
        assert np.array_equal(spectrum["omega_eV"], spectrum["omega"] * 27.211386245988)
        assert np.array_equal(hhg["omega_eV"], hhg["omega"] * 0.3 * 27.211386245988)

    def test_bad_config_exit_code(self, cli_dir):
        (cli_dir / "bad.cfg").write_text("[system]\ndim = 5\n")
        res = run_cli(["scf", "--config", "bad.cfg"], cli_dir)
        assert res.returncode == 2
        assert "ERROR ConfigurationError" in res.stderr


class TestCliInputFiles:
    """Every file the command line reads ends, when unreadable, in one ERROR line and exit 2.

    ``main`` runs in this process, so an exception that escapes it, the
    traceback of a real run, fails the test.
    """

    CONFIG = MINIMAL + "\n[prop]\ndt = 0.05\nn_steps = 2\n"

    @staticmethod
    def _valid(flag, tmp_path):
        """The bytes of a valid file for ``flag``."""
        if flag == "--config":
            return MINIMAL.encode()
        if flag == "--checkpoint":
            g = Grid((61,), 0.4)
            psi = np.exp(-g.axis_coordinates(0) ** 2).reshape(1, 1, -1)
            path = tmp_path / "valid.chk"
            save_checkpoint(path, Checkpoint(OrbitalSet(psi, [1.0], g), None))
            return path.read_bytes()
        t = np.arange(200) * 0.1
        path = tmp_path / "valid.tsv"
        TimeSeries(columns={"t": t, "Dx": 1e-3 * np.sin(0.3 * t)},
                   meta={"kick_strength": 1e-3, "kick_axis": "x",
                         "laser_carrier": 0.3, "laser_axis": "x"}).write(path)
        return path.read_bytes()

    @pytest.mark.parametrize("case", ["missing", "directory", "empty", "random-bytes",
                                      "truncated"])
    @pytest.mark.parametrize("command, flag", [
        ("scf", "--config"), ("propagate", "--checkpoint"),
        ("spectrum", "--series"), ("hhg", "--series")])
    def test_unreadable_input(self, tmp_path, capsys, command, flag, case):
        path = tmp_path / "input"
        if case == "directory":
            path.mkdir()
        elif case == "empty":
            path.write_bytes(b"")
        elif case == "random-bytes":
            path.write_bytes(np.random.default_rng(11).bytes(4096))
        elif case == "truncated":
            data = self._valid(flag, tmp_path)
            path.write_bytes(data[:len(data) // 2])
        argv = [command, "--out", str(tmp_path / "out")]
        if flag == "--config":
            argv += ["--config", str(path)]
        else:
            argv += ["--config", str(write(tmp_path, self.CONFIG)), flag, str(path)]
        code = main(argv)
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("ERROR")]
        assert code == 2
        assert len(errors) == 1 and str(path) in errors[0], errors

    def test_out_naming_a_file(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        code = main(["scf", "--config", str(write(tmp_path, MINIMAL)), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("ERROR FileExistsError") and str(out) in err


class TestCliStencilOrder:
    """The [system] fd_order reaches the SCF, the oracle and the checkpoint."""

    CFG = CLI_CFG.replace("spacing = 0.4\n", "spacing = 0.4\nfd_order = 3\n")

    @pytest.fixture(scope="class")
    def solved(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("order3")
        (path / "run.cfg").write_text(self.CFG)
        assert main(["scf", "--config", str(path / "run.cfg"), "--out", str(path)]) == 0
        return path

    def test_oracle_matches_the_scf_energy(self, solved):
        assert main(["oracle", "--config", str(solved / "run.cfg"), "--out", str(solved)]) == 0
        energy, _ = read_table(solved / "atom_scf_energy.tsv")
        golden, _ = read_table(solved / "atom_golden.tsv")
        assert abs(energy["total"] - golden["energy"]) < 1e-8

    def test_checkpoint_at_another_order_rejected(self, solved, capsys):
        other = solved / "order5.cfg"
        other.write_text(self.CFG.replace("fd_order = 3", "fd_order = 5"))
        code = main(["propagate", "--config", str(other), "--out", str(solved)])
        err = capsys.readouterr().err
        assert code == 2
        assert "ERROR UsageError" in err and "order=3" in err and "order=5" in err


SMALL_CFG = """
[system]
dim = 1
points = 41
spacing = 0.4
occupations = 1.0
ions =
    1.0  0.0  1.0

[cavity]
omega = 0.2
lambda = 0.05
n_fock = 1

[scf]
tol_energy = 1e-9
tol_density = 1e-7

[prop]
dt = 0.05
n_steps = 200
kick_strength = 0.001

[spectra]
omega_min = 0.05
omega_max = 1.0
omega_step = 0.01

[output]
prefix = atom
"""


class TestCliTables:
    """Every text output is one table that read_table reads back exactly."""

    @pytest.fixture(scope="class")
    def solved(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("tables")
        (path / "run.cfg").write_text(SMALL_CFG)
        assert main(["scf", "--config", str(path / "run.cfg"), "--out", str(path)]) == 0
        return path

    def test_every_output_reads_back(self, solved):
        cfg_path = str(solved / "run.cfg")
        for command in ("oracle", "propagate", "spectrum"):
            assert main([command, "--config", cfg_path, "--out", str(solved)]) == 0
        tables = {path.name: read_table(path) for path in sorted(solved.glob("*.tsv"))}
        assert set(tables) == {"atom_scf_energy.tsv", "atom_golden.tsv", "atom_timeseries.tsv",
                               "atom_spectrum.tsv", "atom_spectrum_sector0.tsv",
                               "atom_spectrum_sector1.tsv"}
        for meta, _ in tables.values():
            assert meta["echo000"] == "cfg [system]"

        cfg = parse_config(cfg_path)
        state = scf_solve(cfg.system, cfg.cavity, cfg.scf)
        meta, columns = tables["atom_scf_energy.tsv"]
        assert meta["total"] == state.energy.total
        assert {key: meta[key] for key in state.energy.as_dict()} == state.energy.as_dict()
        assert meta["mu"] == state.mu and meta["iterations"] == state.iterations
        assert np.array_equal(columns["n"], [0, 1])
        assert np.array_equal(columns["P"], state.occupations_photon)

        oracle = scf_ground_state(cfg.system, cfg.cavity)
        meta, columns = tables["atom_golden.tsv"]
        assert (meta["energy"], meta["eigenvalue"], meta["mu"], meta["iterations"]) == (
            oracle.energy, oracle.eigenvalue, oracle.mu, oracle.iterations)
        assert np.array_equal(columns["P"], oracle.occupations)
        assert not {"omega", "lambda", "n_fock"} & set(meta)

    @pytest.mark.parametrize("change", [
        ("omega = 0.2", "omega = 0.9"),
        ("lambda = 0.05", "lambda = 0.07"),
        ("n_fock = 1", "n_fock = 2"),
        ("[cavity]\nomega = 0.2\nlambda = 0.05\nn_fock = 1\n", ""),
    ], ids=["omega", "lambda", "n_fock", "no-cavity"])
    def test_checkpoint_of_another_cavity_rejected(self, solved, tmp_path, capsys, change):
        other = tmp_path / "other.cfg"
        other.write_text(SMALL_CFG.replace(*change))
        code = main(["propagate", "--config", str(other), "--out", str(tmp_path),
                     "--checkpoint", str(solved / "atom_scf.chk")])
        err = capsys.readouterr().err
        assert code == 2
        assert "ERROR UsageError" in err and "checkpoint cavity" in err
        assert "CavityMode(omega=0.2, coupling=(0.05,), n_fock=1)" in err
        assert not (tmp_path / "atom_timeseries.tsv").exists()

    def test_checkpoint_of_other_occupations_rejected(self, solved, tmp_path, capsys):
        other = tmp_path / "other.cfg"
        other.write_text(SMALL_CFG.replace("occupations = 1.0", "occupations = 2.0"))
        code = main(["propagate", "--config", str(other), "--out", str(tmp_path),
                     "--checkpoint", str(solved / "atom_scf.chk")])
        err = capsys.readouterr().err
        assert code == 2
        assert "ERROR UsageError" in err
        assert "orbitals carry occupations [1.0], the system [2.0]" in err
        assert not (tmp_path / "atom_timeseries.tsv").exists()


POLARITON_CFG = """
[system]
dim = 1
points = 55
spacing = 0.3
occupations = 1.0
hartree = no
xc = no
harmonic_omega = 0.5

[cavity]
omega = 0.5
lambda = 0.1
n_fock = 2

[scf]
max_iterations = 4000
tol_energy = 1e-12
tol_density = 1e-9

[prop]
dt = 0.05
n_steps = 16000
kick_strength = 0.001

[spectra]
omega_min = 0.3
omega_max = 0.7
omega_step = 0.0005

[output]
prefix = model
"""


class TestCliGoldenPipeline:
    """scf -> propagate -> spectrum reproduces the closed-form doublet."""

    def test_two_peak_polariton_table(self, tmp_path):
        from cavitydft import oracle
        from cavitydft.cavity import CavityMode

        (tmp_path / "model.cfg").write_text(POLARITON_CFG)
        for cmd in ("scf", "propagate", "spectrum"):
            res = run_cli([cmd, "--config", "model.cfg"], tmp_path)
            assert res.returncode == 0, res.stderr
        table = (tmp_path / "model_spectrum.tsv").read_text().splitlines()
        peak_lines = [ln for ln in table if ln.startswith("# peak")]
        assert len(peak_lines) == 2
        locations = sorted(float(ln.split("location=")[1].split()[0])
                           for ln in peak_lines)
        cav = CavityMode(omega=0.5, coupling=(0.1,), n_fock=2)
        wm, wp = oracle.normal_mode_frequencies(0.5, cav)
        resolution = 2 * np.pi / (16000 * 0.05)
        assert abs(locations[0] - wm) < resolution
        assert abs(locations[1] - wp) < resolution
        assert "Rabi splitting" in run_cli(
            ["spectrum", "--config", "model.cfg"], tmp_path).stdout
