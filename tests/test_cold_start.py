"""What a fresh interpreter loads, and that the deferred imports work there.

``import absplace`` loads numpy and the standard library only: scipy is
imported by the estimator and the LP references on their first call, and
PyYAML by the first config read. These checks run in subprocesses because
this test process already holds scipy (``oracles`` imports it), which would
hide a deferred import that is missing or broken.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import absplace

SRC = str(Path(absplace.__file__).resolve().parents[1])

# Prints the scipy and PyYAML modules loaded so far, as a JSON list.
REPORT_LOADED = (
    "import sys, json; print(json.dumps(sorted(m for m in sys.modules"
    " if m.split('.')[0] in ('scipy', 'yaml'))))"
)


def fresh(code: str, *args) -> list[str]:
    """Run ``code`` in a new interpreter that imports this checkout's
    absplace; returns its stdout lines."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


@pytest.mark.parametrize("module", ["absplace", "absplace.cli"])
def test_import_loads_neither_scipy_nor_yaml(module):
    (loaded,) = fresh(f"import {module}\n{REPORT_LOADED}")
    assert json.loads(loaded) == []


def test_place_path_loads_neither_scipy_nor_yaml():
    # what `place` and `oracle` run on the default config, which is read
    # from no file
    code = """
import dataclasses
from absplace import build_urban, exhaustive_min_abs, load_config, solve_placement
from absplace.scenario import sample_instance

cfg = load_config()
scenario = build_urban(dataclasses.replace(cfg.scenario, flight_dims=(4, 3, 2)), cfg.channel)
cm = sample_instance(scenario, cfg.experiment.seed, 0)
assert solve_placement(cm, cfg.channel.min_rate).feasible
exhaustive_min_abs(cm, cfg.channel.min_rate)
"""
    (loaded,) = fresh(code + REPORT_LOADED)
    assert json.loads(loaded) == []


# The entries that import scipy or PyYAML on first use, as one function both
# sides run: it returns their results in JSON terms.
DEFERRED_CALLS = """
import json
import numpy as np
from absplace import (
    Measurement, Point3, RegularGrid3, estimate_slf, load_config, solve_alpha_lp,
    solve_epigraph_lp,
)

def deferred_calls(config_path):
    rng = np.random.default_rng(15)
    grid = RegularGrid3(Point3(0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (4, 4, 3))
    ends = rng.uniform(-0.5, [3.5, 3.5, 2.5], (40, 2, 3))
    survey = [
        Measurement(Point3(*a), Point3(*b), float(v))
        for (a, b), v in zip(ends, rng.uniform(0.0, 5.0, 40))
    ]
    values = rng.uniform(0.0, 2.0, (4, 6))
    objective, rates, slacks = solve_epigraph_lp(values, 1.0)
    alpha, selected = solve_alpha_lp(values, 1.0)
    cfg = load_config(config_path, ["experiment.repetitions=4"])
    return {
        "estimate_slf": estimate_slf(survey, grid).values.ravel().tolist(),
        "epigraph_lp": [objective, rates.tolist(), slacks.tolist()],
        "alpha_lp": [alpha.tolist(), list(selected)],
        "load_config": repr(cfg),
    }
"""


def test_deferred_imports_work_in_a_fresh_interpreter(tmp_path):
    config = tmp_path / "run.yaml"
    config.write_text("channel:\n  min_rate_bps: 5e6\nscenario:\n  num_users: 7\n")
    code = DEFERRED_CALLS + (
        "import sys\nprint(json.dumps(deferred_calls(sys.argv[1])))\n" + REPORT_LOADED
    )
    got, loaded = fresh(code, str(config))
    namespace = {}
    exec(DEFERRED_CALLS, namespace)
    want = namespace["deferred_calls"](config)
    assert json.loads(got) == json.loads(json.dumps(want))
    assert "num_users=7" in want["load_config"] and "repetitions=4" in want["load_config"]
    loaded = set(json.loads(loaded))
    assert {"scipy.sparse.linalg", "scipy.optimize", "yaml"} <= loaded
