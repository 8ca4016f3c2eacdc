import errno
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from absplace import ScenarioParams, cli, load_config, placement
from absplace.cli import main
from absplace.config import OutputConfig

SMALL = [
    "-O", "scenario.slf_dims=[10,8,4]",
    "-O", "scenario.flight_dims=[4,3,2]",
    "-O", "scenario.num_users=2",
]


def run_cli(args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


def write_config(tmp_path, text):
    path = tmp_path / "run.yaml"
    path.write_text(text)
    return str(path)


class TestMap:
    def test_free_space_yields_zero_shadowing(self):
        res = run_cli(["map", *SMALL, "-O", "scenario.building_height_m=0.0",
                       "--tx", "10,10,0", "--rx", "200,180,90"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert set(payload) == {"xi_traversal", "xi_ellipsoid", "gain_db", "capacity_mbps"}
        assert payload["xi_traversal"] == 0.0
        assert payload["xi_ellipsoid"] == 0.0
        assert payload["capacity_mbps"] > 0

    def test_wall_crossing_shadows_traversal(self):
        # strip-aligned voxels so the wall registers in the loss field
        res = run_cli([
            "map",
            "-O", "scenario.slf_dims=[17,17,4]",
            "-O", "scenario.building_height_m=80.0",
            "-O", "scenario.flight_dims=[4,3,2]",
            "--tx", "10,40,1", "--rx", "480,47,20",
        ])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["xi_traversal"] > 0.0
        assert payload["xi_ellipsoid"] >= 0.0

    def test_out_of_domain_exit_code(self):
        res = run_cli(["map", *SMALL, "--tx", "10,10,0", "--rx", "10,10,5000"])
        assert res.exit_code == 2

    def test_deterministic_output(self):
        args = ["map", *SMALL, "--tx", "15,12,0", "--rx", "333,210,70"]
        assert run_cli(args).output == run_cli(args).output

    def test_ellipsoid_width_flag(self):
        base = ["map", "-O", "scenario.slf_dims=[17,17,4]",
                "-O", "scenario.building_height_m=80.0",
                "-O", "scenario.flight_dims=[4,3,2]",
                "--tx", "10,40,1", "--rx", "480,47,20"]
        thin = json.loads(run_cli(base).output)
        wide = json.loads(run_cli(base + ["--ellipsoid-width", "60.0"]).output)
        assert thin["xi_traversal"] == wide["xi_traversal"]
        assert wide["xi_ellipsoid"] > thin["xi_ellipsoid"]

    @pytest.mark.parametrize("width", ["nan", "inf", "-1", "0"])
    def test_bad_ellipsoid_width_is_one_line_error(self, width):
        # NaN used to print an ellipsoid sum of 0.0 and -1 a traceback
        res = run_cli(["map", *SMALL, "--tx", "10,10,0", "--rx", "200,180,90",
                       "--ellipsoid-width", width])
        assert res.exit_code == 1
        assert res.output == (
            f"config error: --ellipsoid-width must be finite and positive, got {float(width)}\n"
        )


    @pytest.mark.parametrize("point", ["1e400,2,3", "nan,1,1", "1,-inf,1"])
    def test_non_finite_point_is_one_line_error(self, point):
        # these used to be reported as not numeric
        res = run_cli(["map", *SMALL, "--tx", "10,10,0", "--rx", point])
        assert res.exit_code == 1
        assert res.output == f"config error: point {point!r}: coordinates must be finite\n"


class TestPlace:
    def test_writes_results_and_succeeds(self, tmp_path):
        out = tmp_path / "out"
        res = run_cli(["place", *SMALL, "-o", str(out)])
        assert res.exit_code == 0
        payload = json.loads((out / "placement.json").read_text())
        assert payload["feasible"] is True
        assert payload["n_abs"] == len(payload["positions"]) == len(payload["selected_indices"])
        assert all(r >= payload["min_rate_mbps"] for r in payload["per_user_rate_mbps"])
        positions = (out / "positions.csv").read_text().splitlines()
        assert positions[0] == "index,x,y,z"
        assert len(positions) == payload["n_abs"] + 1

    def test_bound_written_and_checked_by_oracle(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["place", *SMALL, "-o", str(out)]).exit_code == 0
        payload = json.loads((out / "placement.json").read_text())
        bound = payload["lower_bound"]
        assert 0.0 < bound <= payload["n_abs"]
        assert payload["proven_optimal"] is (math.ceil(bound - 1e-9) >= payload["n_abs"])
        oracle = run_cli(["oracle", *SMALL])
        n_star = json.loads(oracle.stdout)["n_star"]
        assert math.ceil(bound - 1e-9) <= n_star
        if payload["proven_optimal"]:
            assert payload["n_abs"] == n_star

    def test_byte_identical_reruns(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_cli(["place", *SMALL, "-o", str(out_a)])
        run_cli(["place", *SMALL, "-o", str(out_b)])
        assert (out_a / "placement.json").read_bytes() == (out_b / "placement.json").read_bytes()
        assert (out_a / "positions.csv").read_bytes() == (out_b / "positions.csv").read_bytes()

    def test_infeasible_exit_code(self, tmp_path):
        res = run_cli([
            "place", *SMALL,
            "-O", "channel.min_rate_bps=1.0e14",
            "-o", str(tmp_path / "out"),
        ])
        assert res.exit_code == 3

    def test_trace_written_on_request(self, tmp_path):
        out = tmp_path / "out"
        res = run_cli(["place", *SMALL, "-O", "output.write_trace=true", "-o", str(out)])
        assert res.exit_code == 0
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0] == "iteration,shortfall,gap,objective"
        assert len(trace) > 1


    @pytest.mark.parametrize("command", [["place"], ["map", "--tx", "1,1,0", "--rx", "2,2,2"]])
    def test_no_flight_point_left_is_one_line_error(self, command):
        # a no-fly box over the whole city used to end in an EmptyProblemError traceback
        res = run_cli([*command, *SMALL, "-O", "scenario.no_fly_boxes=[[0,0,0,500,400,1000]]"])
        assert res.exit_code == 1
        assert res.output == "empty problem: no allowed flight-grid points remain after filtering\n"

    def test_non_convergence_warns_on_stderr(self, tmp_path, monkeypatch):
        monkeypatch.setattr(placement, "_MAX_ITER", 1)
        res = run_cli(["place", *SMALL, "-o", str(tmp_path / "out")])
        assert res.exit_code == 0
        assert res.stderr.count("warning:") == 1
        assert "warning: solve_placement stopped at max_iter = 1 without converging" in res.stderr
        assert "warning" not in res.stdout


    @pytest.mark.parametrize(
        "command", [["place"], ["experiment", "-O", "experiment.repetitions=1"]], ids=["place", "experiment"]
    )
    @pytest.mark.parametrize("below, code", [(None, errno.EEXIST), ("sub", errno.ENOTDIR)], ids=["file", "below_file"])
    def test_unusable_output_directory_is_one_line_error(self, tmp_path, monkeypatch, command, below, code):
        # a file as the output directory, or as its parent, used to end in
        # a FileExistsError or NotADirectoryError traceback, and only after
        # the whole placement or sweep had run
        def run_started(*args, **kwargs):
            raise AssertionError("the run started before the output directory was made")

        monkeypatch.setattr(cli, "solve_placement", run_started)
        monkeypatch.setattr(cli, "run_experiment", run_started)
        out = tmp_path / "file"
        out.write_text("")
        if below:
            out = out / below
        res = run_cli([*command, *SMALL, "-o", str(out)])
        assert res.exit_code == 1
        assert res.output == f"config error: output directory {out}: {os.strerror(code)}\n"


class TestExperiment:
    def config(self, tmp_path):
        return write_config(
            tmp_path,
            """
channel:
  frequency_hz: 2.4e9
  min_rate_bps: 5.0e6
scenario:
  slf_dims: [10, 8, 4]
  flight_dims: [4, 3, 2]
  num_users: 2
experiment:
  sweep: min_rate
  values: [2.0e6, 8.0e6]
  repetitions: 2
  seed: 11
  solvers: [admm, exhaustive, alpha_lp]
""",
        )

    def test_csv_shape_and_determinism(self, tmp_path):
        cfg = self.config(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        res = run_cli(["experiment", "-c", cfg, "-o", str(out_a)])
        assert res.exit_code == 0
        run_cli(["experiment", "-c", cfg, "-o", str(out_b)])
        assert (out_a / "runs.csv").read_bytes() == (out_b / "runs.csv").read_bytes()
        assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()
        runs = (out_a / "runs.csv").read_text().splitlines()
        assert len(runs) == 1 + 2 * 2 * 3  # values x reps x solvers
        summary = (out_a / "summary.csv").read_text().splitlines()
        assert len(summary) == 1 + 2 * 3  # values x solvers

    def test_single_repetition_mean_equals_run(self, tmp_path):
        cfg = self.config(tmp_path)
        out = tmp_path / "out"
        run_cli(["experiment", "-c", cfg, "-O", "experiment.repetitions=1",
                 "-O", "experiment.solvers=[admm]", "-o", str(out)])
        runs = [l.split(",") for l in (out / "runs.csv").read_text().splitlines()[1:]]
        summary = [l.split(",") for l in (out / "summary.csv").read_text().splitlines()[1:]]
        for run_row, sum_row in zip(runs, summary):
            assert float(sum_row[2]) == float(run_row[4])
            assert sum_row[4] == "1"


class TestOracle:
    def test_reports_optimum_and_gap(self):
        res = run_cli(["oracle", *SMALL, "--compare-admm"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["n_star"] >= 1
        assert len(payload["witness"]) == payload["n_star"]
        assert payload["admm"]["gap"] >= 0

    def test_guard_exit_code(self):
        res = run_cli(["oracle", "-O", "scenario.slf_dims=[10,8,4]",
                       "-O", "scenario.flight_dims=[5,5,3]", "-O", "scenario.num_users=2"])
        assert res.exit_code == 4

    def test_deterministic(self):
        args = ["oracle", *SMALL]
        assert run_cli(args).output == run_cli(args).output


class TestConfigHandling:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "channel:\n  bogus_key: 1\n")
        res = run_cli(["map", "-c", cfg, "--tx", "1,1,0", "--rx", "2,2,2"])
        assert res.exit_code == 1
        assert "bogus_key" in res.output

    def test_solver_section_rejected(self, tmp_path):
        # the solver settings are constants: a config still setting one must fail
        keys = ("rho", "max_iter", "reweight_rounds", "reweight_eps", "bisect_max_iter")
        cfg = write_config(tmp_path, "solver:\n" + "".join(f"  {key}: 1\n" for key in keys))
        res = run_cli(["place", "-c", cfg, *SMALL, "-o", str(tmp_path / "out")])
        assert res.exit_code == 1
        assert res.output == "config error: unknown top-level sections: ['solver']\n"
        res = run_cli(["place", *SMALL, "-O", "solver.max_iter=1", "-o", str(tmp_path / "out")])
        assert res.exit_code == 1
        assert res.output == "config error: override section 'solver' unknown\n"

    @pytest.mark.parametrize(
        "overrides, message",
        [
            # values the library dataclasses reject, reported with their section
            (["experiment.solvers=[]"], "experiment: at least one solver"),
            (["scenario.slf_dims=[0,10,6]"], "scenario: grid dims"),
            (["scenario.flight_dims=[5,0,3]"], "scenario: grid dims"),
            (["scenario.area_m=[-500,400]"], "scenario: area"),
            (["scenario.building_height_m=.nan"], "scenario: lengths, heights and absorption"),
            (["experiment.sweep=num_users", "experiment.values=[2.7]"], "experiment: num_users"),
            (["experiment.values=[-1.0]"], "experiment: min_rate"),
            # values that cannot be read as the key's type
            (['channel.min_rate_bps="6e6"'], "channel.min_rate_bps: cannot read '6e6'"),
            (["scenario.area_m=[true,400]"], "scenario.area_m: cannot read"),
            (['scenario.num_users="7"'], "scenario.num_users: cannot read '7'"),
            # repeated sweep points, which the summary would count once per copy
            (["experiment.values=[2.0e6,2.0e6]"], "experiment: sweep values must be distinct"),
            # non-finite lengths, which would fail only while building the city
            (["scenario.absorption_db_per_m=.inf"], "scenario: lengths, heights and absorption"),
            (["scenario.slf_top_m=.inf"], "scenario: lengths, heights and absorption"),
            (["scenario.area_m=[.inf,400]"], "scenario: lengths, heights and absorption"),
            # strings, which are not numbers for float keys either
            (['scenario.area_m=["500",400]'], "scenario.area_m: cannot read"),
            (['experiment.values=["2e6"]'], "experiment.values: cannot read"),
            # a negative seed, which numpy's SeedSequence rejects with a traceback
            (["experiment.seed=-1"], "experiment: seed must be nonnegative, got -1"),
            # repeated solvers, which would be run and summarised once per copy
            (["experiment.solvers=[admm,admm]"], "experiment: solvers must be distinct"),
            # conversions that raised ZeroDivisionError and OverflowError
            (["channel.frequency_hz=0"], "channel: frequency_hz must be strictly positive, got 0.0"),
            (["channel.noise_power_dbm=1e5"], "channel: noise_power_dbm 100000.0 overflows"),
            # conversions whose result the wavelength and noise_power checks blamed
            (["channel.frequency_hz=-1"], "channel: frequency_hz must be strictly positive, got -1.0"),
            (["channel.frequency_hz=.nan"], "channel: frequency_hz must be strictly positive, got nan"),
            (["channel.frequency_hz=.inf"], "channel: frequency_hz must be strictly positive, got inf"),
            (["channel.noise_power_dbm=.nan"], "channel: noise_power_dbm nan gives a noise power of nan W"),
            (["channel.noise_power_dbm=-1e5"], "channel: noise_power_dbm -100000.0 gives a noise power of 0.0 W"),
            (["channel.noise_power_dbm=.inf"], "channel: noise_power_dbm inf overflows"),
            (["channel.noise_power_dbm=-.inf"], "channel: noise_power_dbm -inf gives a noise power of 0.0 W"),
            # a conversion that overflowed, which the wavelength check blamed
            (["channel.frequency_hz=1e-300"], "channel: frequency_hz 1e-300 overflows the wavelength"),
        ],
    )
    def test_bad_value_is_config_error(self, tmp_path, overrides, message):
        args = [arg for item in overrides for arg in ("-O", item)]
        res = run_cli(["place", *SMALL, *args, "-o", str(tmp_path / "out")])
        assert res.exit_code == 1
        assert res.output.startswith(f"config error: {message}")

    def test_readme_documents_the_defaults(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("```yaml\n", 1)[1].split("```", 1)[0]
        defaults = load_config(None)
        assert load_config(write_config(tmp_path, block)) == defaults
        assert defaults.scenario == ScenarioParams()
        assert defaults.output == OutputConfig()

    def test_wavelength_frequency_exclusive(self, tmp_path):
        cfg = write_config(tmp_path, "channel:\n  wavelength_m: 0.125\n  frequency_hz: 2.4e9\n")
        res = run_cli(["map", "-c", cfg, "--tx", "1,1,0", "--rx", "2,2,2"])
        assert res.exit_code == 1

    def test_override_beats_file(self, tmp_path):
        cfg = write_config(tmp_path, "scenario:\n  building_height_m: 40.0\n")
        res = run_cli(["map", "-c", cfg, *SMALL, "-O", "scenario.building_height_m=0.0",
                       "--tx", "10,10,0", "--rx", "200,180,90"])
        assert res.exit_code == 0
        assert json.loads(res.output)["xi_traversal"] == 0.0

    def test_bad_point_is_config_error(self):
        res = run_cli(["map", *SMALL, "--tx", "1,2", "--rx", "3,4,5"])
        assert res.exit_code == 1

    def test_wavelength_and_noise_watts_accepted(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "channel:\n  wavelength_m: 0.125\n  noise_power_w: 2.5e-13\n",
        )
        res = run_cli(["map", "-c", cfg, *SMALL, "--tx", "10,10,0", "--rx", "200,180,90"])
        assert res.exit_code == 0
        assert json.loads(res.output)["capacity_mbps"] > 0

    def test_noise_exclusive(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "channel:\n  noise_power_w: 2.5e-13\n  noise_power_dbm: -96.0\n",
        )
        res = run_cli(["map", "-c", cfg, "--tx", "1,1,0", "--rx", "2,2,2"])
        assert res.exit_code == 1


def test_python_m_entry_point():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    res = subprocess.run(
        [sys.executable, "-m", "absplace", "--help"], env=env, capture_output=True, text=True
    )
    assert res.returncode == 0, res.stderr
    for command in ("map", "place", "experiment", "oracle"):
        assert command in res.stdout
