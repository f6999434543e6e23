import json
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from pathent.cli import (
    COMMANDS,
    EXIT_BREACH,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    MAX_FAIR_SAMPLING_CUTOFF,
    build_parser,
    main,
)
from pathent.config import (
    _SECTION_FIELDS,
    MAX_BINS,
    MAX_HISTOGRAM_CELLS,
    MAX_POVM_CELLS,
    MAX_THRESHOLDS,
    ConfigError,
    ExperimentConfig,
    load_config,
    with_overrides,
)
from pathent.decoy import DecoyIntensitySet

SCAN_CONFIG = """\
[noise]
eta_pd = 0.617
v_e = 0.6666666666666666

[sampling]
pipeline = equivalent
samples_per_point = 2000
vacuum_samples = 6000
seed = 7

[chsh]
t_min = 0.4
t_max = 0.8
t_step = 0.2
t_fixed = 0.8

[phases]
n_phases = 4
"""

TOMO_CONFIG = """\
[sampling]
pipeline = ideal-fock
samples_per_point = 3000
vacuum_samples = 3000
seed = 7

[phases]
n_phases = 4

[tomography]
cutoff = 2
bin_width = 0.5
x_range = 4.0
max_iterations = 400
tolerance = 1e-6
"""


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.intensities == (0.0872, 0.2314, 0.9840)
        assert cfg.noise.eta_ele == pytest.approx(0.6)
        assert len(cfg.t_grid()) == 101
        assert len(cfg.dtheta_grid()) == 8

    def test_load_and_override(self, tmp_path):
        cfg = load_config(write_config(tmp_path, SCAN_CONFIG))
        assert cfg.samples_per_point == 2000
        assert cfg.seed == 7
        cfg2 = with_overrides(cfg, seed=99, scale=None)
        assert cfg2.seed == 99
        assert cfg2.samples_per_point == 2000

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, "[bogus]\nx = 1\n"))

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, "[noise]\nbogus = 1\n"))

    def test_bad_value(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, "[sampling]\nseed = not_an_int\n"))

    def test_every_key_at_its_default_loads_the_default(self, tmp_path):
        default = ExperimentConfig()

        def text(value):
            return ",".join(map(repr, value)) if isinstance(value, tuple) else str(value)

        lines = []
        for section, keys in _SECTION_FIELDS.items():
            lines.append(f"[{section}]")
            lines += [f"{key} = {text(getattr(default, key))}" for key in keys]
        cfg = load_config(write_config(tmp_path, "\n".join(lines) + "\n"))
        assert cfg == default
        assert cfg.content_hash() == default.content_hash()

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/run.ini")

    def test_invalid_physics_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(eta_pd=1.5)
        with pytest.raises(ConfigError):
            ExperimentConfig(intensities=(0.5, 0.1))
        for bad in (np.nan, np.inf):
            with pytest.raises(ConfigError, match="v_e"):
                ExperimentConfig(v_e=bad)
            with pytest.raises(ConfigError, match="intensities"):
                ExperimentConfig(intensities=(0.0872, 0.2314, bad))

    def test_bin_edges(self):
        cfg = ExperimentConfig(cutoff=3, bin_width=0.5, x_range=2.0)
        edges = cfg.bin_edges()
        assert len(edges) == 9
        assert edges[0] == -2.0 and edges[-1] == 2.0
        assert np.allclose(np.diff(edges), 0.5)

    def test_tomography_values_validated(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(cutoff=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(bin_width=-0.1)
        with pytest.raises(ConfigError):
            ExperimentConfig(tolerance=0.0)
        with pytest.raises(ConfigError):
            ExperimentConfig(bin_width=np.nan)
        with pytest.raises(ConfigError):
            ExperimentConfig(x_range=np.inf)
        with pytest.raises(ConfigError):
            ExperimentConfig(bin_width=5.0, x_range=1.0)  # wider than the range: no bin
        with pytest.raises(ConfigError):
            ExperimentConfig(max_iterations=-3)
        # Grids that cannot be built, or are too large to hold, are refused
        # before any edge is computed.
        for bin_width, x_range in ((5e-324, 5.0), (0.2, 1e308), (1e-4, 5.0)):
            with pytest.raises(ConfigError, match="bins per axis"):
                ExperimentConfig(bin_width=bin_width, x_range=x_range)
        top = ExperimentConfig(bin_width=2.0 * 5.0 / MAX_BINS, x_range=5.0)
        assert len(top.bin_edges()) == MAX_BINS + 1
        with pytest.raises(ConfigError, match="bins per axis"):
            ExperimentConfig(bin_width=2.0 * 5.0 / (MAX_BINS + 1), x_range=5.0)
        # So is a POVM too large to hold: with 8 phases, cutoff 32 is the top.
        assert 8 * 33**4 <= MAX_POVM_CELLS < 8 * 34**4
        assert ExperimentConfig(cutoff=32, n_phases=8).cutoff == 32
        for cutoff, n_phases in ((33, 8), (60, 8), (10**12, 8), (10, 10**5)):
            with pytest.raises(ConfigError, match="POVM cells"):
                ExperimentConfig(cutoff=cutoff, n_phases=n_phases)
        # And so are count tables too large to hold: 8 phases fit at MAX_BINS.
        top_width = 2.0 * 5.0 / MAX_BINS
        assert 8 * MAX_BINS**2 <= MAX_HISTOGRAM_CELLS < 11 * MAX_BINS**2
        assert ExperimentConfig(n_phases=10, cutoff=1, bin_width=top_width).n_phases == 10
        for n_phases, cutoff, bin_width in ((625_000, 1, 0.2), (11, 10, top_width)):
            with pytest.raises(ConfigError, match="histogram cells"):
                ExperimentConfig(n_phases=n_phases, cutoff=cutoff, bin_width=bin_width)

    def test_threshold_grid_stops_at_t_max(self):
        assert ExperimentConfig(t_max=1.0, t_step=0.6).t_grid().tolist() == [0.0, 0.6]
        # 0.3 / 0.1 is 2.9999999999999996: t_max is a grid point all the same.
        assert len(ExperimentConfig(t_max=0.3, t_step=0.1).t_grid()) == 4
        assert ExperimentConfig().t_grid()[-1] == 2.0
        rng = np.random.default_rng(5)
        for t_min, span, t_step in rng.uniform((0.0, 0.0, 0.01), (3.0, 3.0, 1.0), (200, 3)):
            grid = ExperimentConfig(t_min=t_min, t_max=t_min + span, t_step=t_step).t_grid()
            assert grid[-1] <= (t_min + span) * (1.0 + 1e-9) < grid[-1] + t_step
        # The size cap counts the same grid: 99999.5 / 1 gives 100000 thresholds.
        top = float(MAX_THRESHOLDS - 1)
        assert len(ExperimentConfig(t_max=top + 0.5, t_step=1.0, t_fixed=0.0).t_grid()) == MAX_THRESHOLDS

    def test_threshold_grid_size_capped(self):
        top = MAX_THRESHOLDS - 1
        assert len(ExperimentConfig(t_max=float(top), t_step=1.0, t_fixed=0.0).t_grid()) == top + 1
        for t_max, t_step in ((float(top + 1), 1.0), (2.0, 1e-12), (2.0, 5e-324)):
            with pytest.raises(ConfigError, match="thresholds"):
                ExperimentConfig(t_max=t_max, t_step=t_step)

    def test_scaling(self):
        cfg = ExperimentConfig(scale=1000)
        assert cfg.scaled(2_000_000) == 2000
        assert cfg.scaled(10) == 1  # never collapses to zero

    def test_content_hash_changes_with_config(self):
        assert ExperimentConfig().content_hash() != ExperimentConfig(seed=1).content_hash()

    def test_content_hash_ignores_workers(self):
        assert ExperimentConfig().content_hash() == ExperimentConfig(workers=4).content_hash()


class TestStartup:
    def test_import_leaves_scipy_stats_unloaded(self):
        """No scipy module loads with the CLI (any of them loads the `scipy`
        package first): scipy.stats takes about a second to import and
        scipy.special ~0.2 s and ~20 MB, and no subcommand needs either."""
        import pathent

        src = os.path.dirname(os.path.dirname(os.path.abspath(pathent.__file__)))
        code = "import sys, pathent.cli; sys.exit('scipy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0

    def test_tomography_run_leaves_scipy_unloaded(self, tmp_path):
        """Nor does a whole tomography run: the MLE is plain numpy, and
        importing scipy.optimize alone takes ~0.5 s."""
        import pathent

        src = os.path.dirname(os.path.dirname(os.path.abspath(pathent.__file__)))
        config = write_config(tmp_path, TOMO_CONFIG)
        argv = ["tomography", "--config", config, "--out", str(tmp_path / "o")]
        code = "import sys, pathent.cli; pathent.cli.main(sys.argv[1:]); sys.exit('scipy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code, *argv], env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0
        assert (tmp_path / "o" / "tomography_summary.txt").exists()

    def test_default_binnings_leave_numpy_ma_and_scipy_unloaded(self):
        """Building the default binnings and a coherent table's masses loads
        neither numpy.ma (np.unique imports it, ~10 ms) nor any scipy
        module (scipy.special for erfc would take ~0.2 s)."""
        import pathent

        src = os.path.dirname(os.path.dirname(os.path.abspath(pathent.__file__)))
        code = (
            "import sys\n"
            "from pathent import chsh, homodyne, tomography\n"
            "from pathent.config import ExperimentConfig\n"
            "c = ExperimentConfig()\n"
            "for b in (chsh.threshold_binning(c.t_grid()), tomography.histogram_binning(c.bin_edges())):\n"
            "    homodyne.coherent_masses(b, 1.0, chsh.CHSH_SETTINGS[(1, 1)], c.noise)\n"
            "sys.exit(any(m == 'numpy.ma' or m.split('.')[0] == 'scipy' for m in sys.modules))"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0

    def test_every_subcommand_runs_with_scipy_blocked(self, tmp_path):
        """pathent needs numpy alone. A child with sys.modules["scipy"] set
        to None, so that any scipy import raises, runs every subcommand and
        computes the oracle S: each must exit as an unblocked run does and
        write the same bytes. correlation-scan runs at --scale 400, where
        one of its rows is invalid."""
        import pathent

        src = os.path.dirname(os.path.dirname(os.path.abspath(pathent.__file__)))
        runs = {
            command: ["--scale", "400" if command == "correlation-scan" else "10000"]
            for command in COMMANDS
        }
        code = (
            "import json, sys\n"
            "sys.modules['scipy'] = None\n"
            "import pathent.chsh, pathent.cli\n"
            "try:\n"
            "    import scipy.special\n"
            "    blocked = False\n"
            "except ImportError:\n"
            "    blocked = True\n"
            "out, runs = sys.argv[1], json.loads(sys.argv[2])\n"
            "codes = {c: pathent.cli.main([c, *a, '--out', f'{out}/{c}']) for c, a in runs.items()}\n"
            "s = pathent.chsh.ideal_single_photon_chsh(0.82)\n"
            "print(json.dumps({'blocked': blocked, 'codes': codes, 's': s}))\n"
        )
        blocked_out = tmp_path / "blocked"
        proc = subprocess.run(
            [sys.executable, "-c", code, str(blocked_out), json.dumps(runs)],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        child = json.loads(proc.stdout.splitlines()[-1])
        assert child["blocked"]
        assert abs(child["s"] - 2.6526254183947344) < 1e-14

        def outputs(root, command):
            return {p.name: p.read_bytes() for p in sorted((root / command).iterdir())}

        for command, argv in runs.items():
            code = main([command, *argv, "--out", str(tmp_path / "free" / command)])
            assert child["codes"][command] == code
            assert outputs(blocked_out, command) == outputs(tmp_path / "free", command)

    def test_config_import_leaves_tomography_unloaded(self):
        """The config checks its own tomography values; it needs no numerics."""
        import pathent

        src = os.path.dirname(os.path.dirname(os.path.abspath(pathent.__file__)))
        code = "import sys, pathent.config; sys.exit('pathent.tomography' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0


class TestExitCodes:
    def test_config_error_exit(self, tmp_path):
        bad = write_config(tmp_path, "[bogus]\nx = 1\n")
        rc = main(["chsh-scan", "--config", bad, "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize(
        "section, key, value, command",
        [
            ("tomography", "cutoff", "0", "tomography"),
            ("tomography", "cutoff", "60", "tomography"),
            ("tomography", "cutoff", "1000000000000", "tomography"),
            ("phases", "n_phases", "100000", "tomography"),
            ("tomography", "tolerance", "0", "tomography"),
            ("chsh", "t_fixed", "-1", "decoy-estimate"),
            ("chsh", "t_min", "-0.5", "chsh-scan"),
            ("tomography", "bin_width", "0", "tomography"),
            ("tomography", "x_range", "-1", "tomography"),
            ("tomography", "max_iterations", "0", "tomography"),
            ("chsh", "t_max", "inf", "chsh-scan"),
            ("chsh", "t_step", "nan", "chsh-scan"),
            ("chsh", "t_fixed", "inf", "correlation-scan"),
            ("chsh", "t_step", "1e-12", "chsh-scan"),
            ("tomography", "bin_width", "5e-324", "tomography"),
            ("tomography", "bin_width", "1e-4", "tomography"),
            ("tomography", "x_range", "1e308", "tomography"),
            ("noise", "v_e", "nan", "chsh-scan"),
            ("noise", "v_e", "inf", "chsh-scan"),
            ("source", "intensities", "0.0872, 0.2314, nan", "chsh-scan"),
            ("source", "intensities", "0.0872, 0.2314, inf", "decoy-estimate"),
            # The histogram cap needs a second key, so the value opens its section.
            ("phases", "n_phases", "625000\n[tomography]\ncutoff = 1", "tomography"),
            ("phases", "n_phases", "11\n[tomography]\nbin_width = 0.01", "simulate"),
            # eta_tot underflows to 0, or the brightest compensated intensity to inf.
            ("noise", "eta_pd", "1e-300\nv_e = 1e300", "chsh-scan"),
            ("noise", "eta_pd", "1e-300\nv_e = 3e8", "simulate"),
        ],
        ids=[
            "cutoff",
            "cutoff_povm_too_large",
            "cutoff_huge",
            "n_phases_povm_too_large",
            "tolerance",
            "t_fixed",
            "t_min",
            "bin_width",
            "x_range",
            "max_iterations",
            "t_max",
            "t_step",
            "t_fixed_inf",
            "t_step_too_fine",
            "bin_width_overflow",
            "bin_width_too_fine",
            "x_range_overflow",
            "v_e_nan",
            "v_e_inf",
            "intensities_nan",
            "intensities_inf",
            "n_phases_histogram_too_large",
            "bins_histogram_too_large",
            "eta_tot_underflow",
            "source_intensity_overflow",
        ],
    )
    def test_invalid_value_exits_before_sampling(
        self, tmp_path, monkeypatch, capsys, section, key, value, command
    ):
        import pathent.cli as cli_mod

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the config was validated")

        def no_grid(self):
            raise AssertionError("built a grid before the config was validated")

        monkeypatch.setattr(cli_mod, "sample_batch", no_sampling)
        monkeypatch.setattr(ExperimentConfig, "t_grid", no_grid)
        monkeypatch.setattr(ExperimentConfig, "bin_edges", no_grid)
        bad = write_config(tmp_path, f"[{section}]\n{key} = {value}\n")
        rc = main([command, "--config", bad, "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["chsh-scan", "decoy-estimate", "correlation-scan"])
    def test_ideal_fock_rejected_by_decoy_commands(self, tmp_path, monkeypatch, capsys, command):
        import pathent.cli as cli_mod

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the config was validated")

        monkeypatch.setattr(cli_mod, "sample_batch", no_sampling)
        bad = write_config(tmp_path, "[sampling]\npipeline = ideal-fock\n")
        out = tmp_path / "o"
        rc = main([command, "--config", bad, "--out", str(out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "ideal-fock" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        [
            b"seed = 1\n[sampling]\n",
            b"[sampling]\nseed = 1\nseed = 2\n",
            b"[sampling]\nseed\n",
            b"[sampling]\nseed = 5%\n",
            b"[sampling]\nseed = \xff\n",
        ],
        ids=["key_before_section", "duplicate_key", "no_equals", "bad_interpolation", "not_utf8"],
    )
    def test_malformed_ini_exits_before_sampling(self, tmp_path, monkeypatch, capsys, text):
        import pathent.cli as cli_mod

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the config was validated")

        monkeypatch.setattr(cli_mod, "sample_batch", no_sampling)
        bad = tmp_path / "run.ini"
        bad.write_bytes(text)
        out = tmp_path / "o"
        rc = main(["chsh-scan", "--config", str(bad), "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: malformed config file")
        assert not out.exists()

    @pytest.mark.parametrize("out", ["results", "results/sub"], ids=["file", "under_file"])
    def test_uncreatable_out_exits_before_sampling(self, tmp_path, monkeypatch, capsys, out):
        import pathent.cli as cli_mod

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before --out was created")

        monkeypatch.setattr(cli_mod, "sample_batch", no_sampling)
        blocker = tmp_path / "results"
        blocker.write_text("not a directory\n")
        rc = main(["chsh-scan", "--out", str(tmp_path / out)])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: cannot create --out")
        assert blocker.read_text() == "not a directory\n"

    def test_fair_sampling_pass(self, tmp_path):
        out = tmp_path / "fs"
        rc = main(["fair-sampling-check", "--out", str(out), "--seed", "5"])
        assert rc == EXIT_OK
        report = (out / "fair_sampling_report.txt").read_text()
        assert report.strip().endswith("PASS")

    @pytest.mark.parametrize(
        "cutoff", ["0", "-1", str(MAX_FAIR_SAMPLING_CUTOFF + 1), "1000000000000"]
    )
    def test_fair_sampling_cutoff_below_one_rejected(self, tmp_path, monkeypatch, capsys, cutoff):
        import pathent.cli as cli_mod

        def no_report(thresholds, cutoff):
            raise AssertionError("ran the check before validating --cutoff")

        monkeypatch.setattr(cli_mod, "verification_report", no_report)
        out = tmp_path / "fs"
        rc = main(["fair-sampling-check", "--out", str(out), "--cutoff", cutoff])
        assert rc == EXIT_CONFIG
        assert "--cutoff" in capsys.readouterr().err
        assert not out.exists()

    def test_fair_sampling_negative_seed(self, tmp_path):
        """The check reads no seed: a negative seed gives the same report."""
        reports = []
        for seed in ("-1", str(2**63 - 1)):
            out = tmp_path / seed
            assert main(["fair-sampling-check", "--out", str(out), "--seed", seed]) == EXIT_OK
            reports.append((out / "fair_sampling_report.txt").read_text())
        assert reports[0] == reports[1]
        assert reports[0].strip().endswith("PASS")

    def test_fair_sampling_manifest_ignores_seed(self, tmp_path):
        """The check reads no seed, so neither does its manifest's hash."""
        manifests = []
        for seed in ("1", "2"):
            out = tmp_path / seed
            assert main(["fair-sampling-check", "--out", str(out), "--seed", seed]) == EXIT_OK
            manifests.append(read_bytes(str(out / "manifest.json")))
        assert manifests[0] == manifests[1]

    def test_fair_sampling_manifest_hashes_only_t_fixed(self, tmp_path):
        """The check reads only t_fixed of the config, so its manifest's hash
        moves with t_fixed and with no other field."""

        def manifest(tag, *argv, config=None):
            out = tmp_path / tag
            if config is not None:
                argv += ("--config", write_config(tmp_path, config, f"{tag}.ini"))
            assert main(["fair-sampling-check", "--out", str(out), *argv]) == EXIT_OK
            return read_bytes(str(out / "manifest.json"))

        default = manifest("default")
        assert json.loads(default)["config_hash"] == "81536b0570ba37ba"
        assert manifest("scale", "--scale", "2") == default
        assert manifest("seed", "--seed", "5") == default
        assert manifest("intensities", config="[source]\nintensities = 0.1, 0.3, 0.9\n") == default
        moved = manifest("t_fixed", config="[chsh]\nt_fixed = 0.5\n")
        assert json.loads(moved)["config_hash"] == "5896f95dc1b597d6"

    def test_fair_sampling_manifest_records_cutoff(self, tmp_path):
        """--cutoff 1 and 2 give different reports (PASS against
        REPORT-ONLY) from one config, so the manifest records the cutoff."""
        manifests = {}
        for cutoff in ("1", "2"):
            out = tmp_path / cutoff
            assert main(["fair-sampling-check", "--out", str(out), "--cutoff", cutoff]) == EXIT_OK
            manifests[cutoff] = read_bytes(str(out / "manifest.json"))
        assert manifests["1"] != manifests["2"]
        assert [json.loads(m)["cutoff"] for m in manifests.values()] == [1, 2]

    @pytest.mark.parametrize("command", [c for c in COMMANDS if c != "fair-sampling-check"])
    def test_other_manifests_hold_only_hash_and_files(self, tmp_path, command):
        """Every other subcommand reads no option but its config: its
        manifest is the config's hash and the files it wrote, nothing more."""
        cfg = write_config(tmp_path, TOMO_CONFIG if command == "tomography" else SCAN_CONFIG)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_OK
        files = sorted(set(os.listdir(out)) - {"manifest.json"})
        manifest = {"config_hash": load_config(cfg).content_hash(), "files": files}
        expected = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        assert read_bytes(str(out / "manifest.json")) == expected.encode()

    @pytest.mark.parametrize("t_fixed", [1e300, 1.7e308])
    def test_fair_sampling_huge_t_fixed_is_quiet(self, tmp_path, capsys, t_fixed):
        """A window this wide once overflowed x * x (and, near the largest
        double, sqrt(2) x, giving q1 = NaN) in the Hermite functions: the
        check must exit 0 with nothing on stderr, the window passing every
        photon."""
        cfg = write_config(tmp_path, f"[chsh]\nt_fixed = {t_fixed!r}\n")
        out = tmp_path / "fs"
        assert main(["fair-sampling-check", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        rows = (out / "fair_sampling_report.txt").read_text().splitlines()
        assert f"T {t_fixed:.17g} q0 0 q1 0" in rows

    def test_fair_sampling_injected_fault_breach(self, tmp_path, monkeypatch):
        import pathent.cli as cli_mod

        def failing_report(thresholds, cutoff):
            return {
                "rows": [(0, 0.82, 1e-3)],
                "max_residual": 1e-3,
                "theta_independence_residual": 0.0,
                "tolerance": 1e-10,
                "passed": False,
            }

        monkeypatch.setattr(cli_mod, "verification_report", failing_report)
        rc = main(["fair-sampling-check", "--out", str(tmp_path / "fs")])
        assert rc == EXIT_BREACH


class TestScans:
    def test_chsh_scan_output(self, tmp_path):
        cfg = write_config(tmp_path, SCAN_CONFIG)
        out = tmp_path / "scan"
        assert main(["chsh-scan", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = (out / "chsh_scan.csv").read_text().splitlines()
        assert lines[0] == "T,s_est,s_lower,s_upper"
        assert len(lines) == 4  # header + T in {0.4, 0.6, 0.8}
        for line in lines[1:]:
            parts = line.split(",")
            assert len(parts) == 4
            if parts[1] != "invalid":
                t, s_est, s_lo, s_hi = map(float, parts)
                assert s_lo <= s_est <= s_hi
        manifest = json.loads((out / "manifest.json").read_text())
        assert "chsh_scan.csv" in manifest["files"]

    def test_correlation_scan_output(self, tmp_path):
        cfg = write_config(tmp_path, SCAN_CONFIG)
        out = tmp_path / "corr"
        assert main(["correlation-scan", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = (out / "correlation_scan.csv").read_text().splitlines()
        assert lines[0] == "dtheta,e_est,e_lower,e_upper"
        assert len(lines) == 5  # header + 4 phases

    def test_correlation_scan_marks_degenerate_phase_invalid(self, tmp_path):
        """At --scale 400 the default config leaves one phase with a zero
        denominator in its correlation bound: that row reads invalid, and
        the scan still writes every row and its manifest and exits 0."""
        out = tmp_path / "corr"
        assert main(["correlation-scan", "--scale", "400", "--out", str(out)]) == EXIT_OK
        lines = (out / "correlation_scan.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 8
        assert any(row[1:] == ["invalid"] * 3 for row in rows)
        for row in rows:
            if row[1] != "invalid":
                _, e_est, e_lower, e_upper = map(float, row)
                assert e_lower <= e_est <= e_upper
        assert json.loads((out / "manifest.json").read_text())["files"] == ["correlation_scan.csv"]

    def test_decoy_estimate_output(self, tmp_path):
        cfg = write_config(tmp_path, SCAN_CONFIG)
        out = tmp_path / "de"
        assert main(["decoy-estimate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = (out / "decoy_estimate.csv").read_text().splitlines()
        assert lines[0] == "setting_a,setting_b,outcome_a,outcome_b,estimate,lower,upper"
        assert len(lines) == 1 + 4 * 4

    @pytest.mark.parametrize("command", ["correlation-scan", "chsh-scan", "decoy-estimate"])
    def test_each_run_builds_one_intensity_set(self, tmp_path, monkeypatch, command):
        """A run reads `config.intensity_set`, which builds a new set and its
        weights, once, not once per setting."""
        config = load_config(write_config(tmp_path, SCAN_CONFIG))
        built = []
        monkeypatch.setattr(ExperimentConfig, "intensity_set", property(lambda c: built.append(c) or iset))
        iset = DecoyIntensitySet(config.intensities)
        args = build_parser().parse_args([command, "--out", str(tmp_path)])
        assert COMMANDS[command](config, args)[0] == EXIT_OK
        assert len(built) == 1

    def test_simulate_writes_batches_and_manifest(self, tmp_path):
        cfg = write_config(tmp_path, SCAN_CONFIG)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        # 4 settings x 4 intensity labels, CSV + sidecar each.
        assert len(manifest["files"]) == 32
        for name in manifest["files"]:
            assert (out / name).stat().st_size > 0

    def test_simulate_ideal_fock_one_noiseless_batch_per_setting(self, tmp_path):
        cfg = write_config(tmp_path, TOMO_CONFIG)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        csvs = [f"batch_a{a}b{b}_mu0.csv" for a, b in ((0, 0), (1, 0), (0, 1), (1, 1))]
        assert sorted(manifest["files"]) == sorted(
            csvs + [name.replace(".csv", ".meta.json") for name in csvs]
        )
        for name in csvs:
            meta = json.loads((out / name.replace(".csv", ".meta.json")).read_text())
            assert meta["pipeline"] == "ideal-fock"
            assert (meta["mu"], meta["eta_pd"], meta["v_e"]) == (0.0, 1.0, 0.0)
            assert (meta["fock_n"], meta["intensity_label"], meta["count"]) == (1, 0, 3000)


class TestCommandTable:
    def test_parser_has_every_command_in_table_order(self):
        import argparse

        import pathent.cli as cli_mod

        (sub,) = (
            a for a in cli_mod.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        assert list(sub.choices) == list(cli_mod.COMMANDS) == [
            "simulate",
            "correlation-scan",
            "chsh-scan",
            "tomography",
            "decoy-estimate",
            "fair-sampling-check",
        ]
        common = {"--config", "--seed", "--out", "--scale", "--workers"}
        for name, parser in sub.choices.items():
            options = {opt for a in parser._actions for opt in a.option_strings} - {"-h", "--help"}
            assert options == common | ({"--cutoff"} if name == "fair-sampling-check" else set())

    def test_manifest_is_indented_sorted_json(self, tmp_path):
        out = tmp_path / "fs"
        assert main(["fair-sampling-check", "--out", str(out)]) == EXIT_OK
        manifest = {
            "files": ["fair_sampling_report.txt"],
            "config_hash": ExperimentConfig().content_hash(),
            "cutoff": 1,
        }
        expected = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        assert read_bytes(str(out / "manifest.json")) == expected.encode()


class TestScaleClampWarning:
    CONFIG = SCAN_CONFIG.replace("samples_per_point = 2000", "samples_per_point = 10")

    def test_warns_once_and_keeps_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.CONFIG)
        runs = {}
        for scale in ("100", "10"):
            out = tmp_path / f"scale{scale}"
            code = main(["decoy-estimate", "--config", cfg, "--out", str(out), "--scale", scale])
            runs[scale] = (code, capsys.readouterr().err)
        code, err = runs["100"]
        assert code == EXIT_OK
        assert err == "warning: scale 100 clamps samples_per_point = 10 to 1 record per batch\n"
        # At --scale 10 every batch keeps at least one record of its own.
        assert runs["10"] == (EXIT_OK, "")

    def test_names_every_clamped_count(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.CONFIG)
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--scale", "7000"]) == EXIT_OK
        err = capsys.readouterr().err
        assert err.count("warning:") == 1
        assert "vacuum_samples = 6000 and samples_per_point = 10" in err

    @pytest.mark.parametrize(
        "pipeline, expected",
        [
            ("ideal-fock", ""),  # samples no vacuum batch, so nothing is clamped
            (
                "equivalent",
                "warning: scale 100 clamps vacuum_samples = 50 to 1 record per batch\n",
            ),
        ],
    )
    def test_names_only_counts_the_pipeline_samples(self, tmp_path, capsys, pipeline, expected):
        text = (
            SCAN_CONFIG.replace("pipeline = equivalent", f"pipeline = {pipeline}")
            .replace("vacuum_samples = 6000", "vacuum_samples = 50")
            .replace("samples_per_point = 2000", "samples_per_point = 1000")
        )
        cfg = write_config(tmp_path, text)
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--scale", "100"]) == EXIT_OK
        assert capsys.readouterr().err == expected


class TestSeedStreams:
    """Every batch a subcommand samples, in order, has the seed of its batch
    index; these streams are what keep outputs equal across changes to how
    the CLI loops over settings and intensities."""

    TOMO_EQUIVALENT = SCAN_CONFIG + "\n[tomography]\ncutoff = 2\nmax_iterations = 3\n"

    @pytest.mark.parametrize(
        "command, config_text, first, count",
        [
            ("chsh-scan", SCAN_CONFIG, 0, 4 * 4),
            ("decoy-estimate", SCAN_CONFIG, 0, 4 * 4),
            ("simulate", SCAN_CONFIG, 0, 4 * 4),
            ("simulate", TOMO_CONFIG, 0, 4),
            ("correlation-scan", SCAN_CONFIG, 10_000, 4 * 4),
            ("tomography", TOMO_EQUIVALENT, 20_000, 4 * 4),
            ("tomography", TOMO_CONFIG, 20_000, 4),
        ],
        ids=[
            "chsh-scan",
            "decoy-estimate",
            "simulate",
            "simulate-ideal-fock",
            "correlation-scan",
            "tomography-equivalent",
            "tomography-ideal-fock",
        ],
    )
    def test_batch_seeds(self, tmp_path, monkeypatch, command, config_text, first, count):
        import pathent.cli as cli_mod

        seeds = []
        sample = cli_mod.sample_batch

        def recording(*args, **kwargs):
            seeds.append(kwargs["seed"])
            return sample(*args, **kwargs)

        monkeypatch.setattr(cli_mod, "sample_batch", recording)
        cfg = write_config(tmp_path, config_text)
        main([command, "--config", cfg, "--out", str(tmp_path / "o")])
        assert seeds == [cli_mod._batch_seed(7, i) for i in range(first, first + count)]

    def test_batch_seed_formula(self):
        from pathent.cli import _batch_seed

        assert _batch_seed(7, 0) == 7_000_021
        assert _batch_seed(7, 20_003) == 7_020_024
        assert _batch_seed(-1, 0) == (1 << 63) - 1_000_003


class TestDeterminism:
    def run_twice(self, tmp_path, cfg_text, command, artifact, extra=()):
        cfg = write_config(tmp_path, cfg_text)
        outputs = []
        for tag, workers in (("r1", "1"), ("r2", "1"), ("r4", "4")):
            out = tmp_path / f"{command}-{tag}"
            rc = main(
                [command, "--config", cfg, "--out", str(out), "--workers", workers]
                + list(extra)
            )
            assert rc == EXIT_OK
            outputs.append([read_bytes(str(out / name)) for name in (artifact, "manifest.json")])
        assert outputs[0] == outputs[1] == outputs[2]

    def test_chsh_scan_byte_identical(self, tmp_path):
        self.run_twice(tmp_path, SCAN_CONFIG, "chsh-scan", "chsh_scan.csv")

    def test_correlation_scan_byte_identical(self, tmp_path):
        self.run_twice(tmp_path, SCAN_CONFIG, "correlation-scan", "correlation_scan.csv")

    def test_decoy_estimate_byte_identical(self, tmp_path):
        self.run_twice(tmp_path, SCAN_CONFIG, "decoy-estimate", "decoy_estimate.csv")

    def test_tomography_byte_identical(self, tmp_path):
        self.run_twice(tmp_path, TOMO_CONFIG, "tomography", "density_matrix.txt")

    def test_tomography_byte_identical_across_blas_threads(self, tmp_path):
        """At cutoff 10 the fit's reductions run over 121^2 complex entries,
        and its POVM makes stacked matmuls over every setting, which a
        threaded BLAS splits across threads: the output must not depend on
        how many it has."""
        import pathent

        src = os.path.dirname(os.path.dirname(os.path.abspath(pathent.__file__)))
        cfg = write_config(tmp_path, TOMO_CONFIG.replace("cutoff = 2", "cutoff = 10"))
        outputs = []
        for threads in ("1", "2", "4"):
            out = tmp_path / f"blas-{threads}"
            argv = ["tomography", "--config", cfg, "--out", str(out)]
            blas = {k: threads for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
            env = dict(os.environ, PYTHONPATH=src, **blas)
            assert subprocess.run([sys.executable, "-m", "pathent.cli", *argv], env=env).returncode == EXIT_OK
            outputs.append([read_bytes(str(out / f)) for f in ("density_matrix.txt", "tomography_summary.txt")])
        assert outputs[0] == outputs[1] == outputs[2]

    def test_simulate_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, SCAN_CONFIG)
        blobs = []
        for tag, workers in (("s1", "1"), ("s4", "4")):
            out = tmp_path / f"sim-{tag}"
            assert (
                main(["simulate", "--config", cfg, "--out", str(out), "--workers", workers])
                == EXIT_OK
            )
            manifest = json.loads((out / "manifest.json").read_text())
            blobs.append(
                {name: read_bytes(str(out / name)) for name in manifest["files"]}
            )
        assert blobs[0] == blobs[1]

    def test_seed_changes_output(self, tmp_path):
        cfg = write_config(tmp_path, SCAN_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["chsh-scan", "--config", cfg, "--out", str(out1)])
        main(["chsh-scan", "--config", cfg, "--out", str(out2), "--seed", "8"])
        assert read_bytes(str(out1 / "chsh_scan.csv")) != read_bytes(
            str(out2 / "chsh_scan.csv")
        )


class TestTomographyCommand:
    def test_summary_contents(self, tmp_path):
        cfg = write_config(tmp_path, TOMO_CONFIG)
        out = tmp_path / "tomo"
        rc = main(["tomography", "--config", cfg, "--out", str(out)])
        assert rc == EXIT_OK
        summary = (out / "tomography_summary.txt").read_text()
        fields = dict(
            line.split(" = ", 1) for line in summary.strip().splitlines()
        )
        assert 0.0 <= float(fields["fidelity"]) <= 1.0
        assert float(fields["multiphoton_mass"]) >= 0.0
        assert fields["converged"] == "True"
        assert os.path.getsize(out / "density_matrix.txt") > 0

    def test_fidelity_printed_to_six_decimals(self, tmp_path):
        """The converged fit pins the fidelity to about 1e-7, so the summary
        prints no more digits than that."""
        cfg = write_config(tmp_path, TOMO_CONFIG)
        out = tmp_path / "tomo"
        assert main(["tomography", "--config", cfg, "--out", str(out)]) == EXIT_OK
        first = (out / "tomography_summary.txt").read_text().splitlines()[0]
        assert re.fullmatch(r"fidelity = [01]\.\d{6}", first), first


class TestMemory:
    """The sampler counts each chunk as soon as it is drawn, so no analysis
    run holds a batch: at --scale 30 one stored vacuum batch alone takes
    2 arms x 8 B x 50e6 / 30 = 27 MB."""

    # Default batch sizes; fewer settings and MLE steps keep the run short.
    SHORT_TOMOGRAPHY = "[phases]\nn_phases = 2\n\n[tomography]\ncutoff = 2\nmax_iterations = 5\n"

    @pytest.mark.parametrize(
        "command, config_text, code",
        [("chsh-scan", None, EXIT_OK), ("tomography", SHORT_TOMOGRAPHY, EXIT_NUMERICAL)],
        ids=["chsh-scan", "tomography"],
    )
    def test_peak_far_below_one_batch(self, tmp_path, command, config_text, code):
        argv = [command, "--scale", "30", "--workers", "2", "--out", str(tmp_path / "o")]
        if config_text is not None:
            argv += ["--config", write_config(tmp_path, config_text)]
        tracemalloc.start()
        try:
            rc = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == code
        assert peak < 10e6, f"traced peak {peak / 1e6:.1f} MB"
