"""One set-up of a workload, run in a fresh interpreter and timed by run.py.

Imports absplace, builds the workload's city with build_urban, and makes a
first call of the capacity-matrix and ADMM entry points on tiny inputs, so
that import-time work, scenario construction and any lazy first-call work
(compilation, caches) all land in setup_s.

    python3 benchmarks/setup_probe.py <workload>
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import numpy as np  # noqa: E402

from absplace import Point3, admm_solve, build_capacity_matrix, build_urban  # noqa: E402
from inputs import CHANNEL, CITIES  # noqa: E402

city = build_urban(CITIES[sys.argv[1]], CHANNEL)
build_capacity_matrix(CHANNEL, [Point3(1.0, 1.0, 0.0)], city.flight_points[:1], city.slf)
admm_solve(np.array([[1.0, 0.5], [0.5, 1.0]]), 1.0)
