"""Benchmark of absplace: radio-map placement, the ADMM family, the competitor sweep.

    python3 benchmarks/run.py --workload urban_place --seed 1 --seconds 25 --trace 0

Run from the root of a source tree (src/absplace and tests/oracles.py). The
program is imported from that tree's src/, never from an installed copy.
With --trace 0 the run alternates set-ups and rounds until --seconds have
passed and reports the end-to-end metrics; with --trace 1 it runs one
untraced and one traced round and reports the per-layer metrics and the
tracing overhead. The last line of standard output is the result as JSON;
the line before it stamps the environment. Both are also written under benchmarks/out/, with the trace's
spans as CSV. The exit code is 0 when every check passed, 1 when a check
failed, 2 when the run could not start.
"""

import os

# One single-threaded process: BLAS threads would compete for the two cores
# and make timings depend on the machine's load.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("ABSPLACE_THREADS", None)

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "numba": importlib.util.find_spec("numba") is not None,
    }


def setup_once(workload: str) -> float:
    """Wall time of a fresh interpreter running setup_probe.py."""
    start = perf_counter()
    subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload],
        cwd=ROOT,
        check=True,
        timeout=SETUP_TIMEOUT_S,
    )
    return perf_counter() - start


def per_operation(rounds, attr) -> list:
    """Each operation's time, the median of its times over the rounds.

    Rounds run the same operations in the same order, so the i-th time of
    every round belongs to the same operation.
    """
    return [statistics.median(times) for times in zip(*(getattr(r, attr) for r in rounds))]


def end_to_end(rounds, setup_times) -> dict:
    place = per_operation(rounds, "place_s")
    solve = per_operation(rounds, "solve_s")
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "fit_s": (statistics.fmean([t for r in rounds for t in r.fit_s]), "s"),
        "place_s_p50": (statistics.median(place), "s"),
        "solve_s_p50": (statistics.median(solve), "s"),
        "solve_s_p90": (statistics.quantiles(solve, n=10)[8], "s"),
        "instances_per_s": (sum(r.instances for r in rounds) / sum(r.busy_s for r in rounds), "1/s"),
        "stations_mean": (statistics.fmean(rounds[0].stations), "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def check(workload, rounds) -> list[str]:
    """Independent checks of the first round, and every round equal to it."""
    from checks import CheckFailed

    failures = []
    try:
        workload.check(rounds)
    except CheckFailed as exc:
        failures.append(str(exc))
    for k, r in enumerate(rounds[1:], start=1):
        if r.outputs != rounds[0].outputs:
            failures.append(f"round {k} did not reproduce the outputs of round 0")
    return failures


def run(args) -> int:
    if not (ROOT / "src" / "absplace" / "__init__.py").is_file() or not (
        ROOT / "tests" / "oracles.py"
    ).is_file():
        print(f"no absplace source tree (src/absplace, tests/oracles.py) under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    import absplace

    if Path(absplace.__file__).resolve().parent != ROOT / "src" / "absplace":
        print(f"absplace was imported from {absplace.__file__}, not from {ROOT}/src", file=sys.stderr)
        return 2
    from tracing import PER_LAYER_UNITS, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workload = WORKLOADS[args.workload](args.seed)
    if args.trace == 0:
        # Set-ups and rounds alternate, so that each figure is taken at
        # several moments of the run; see "Steadiness" in the README.
        setup_times, rounds = [], []
        start = perf_counter()
        # Start another round while it would end less than half a round
        # (their mean length so far) after --seconds.
        while not rounds or (perf_counter() - start) * (len(rounds) + 0.5) / len(rounds) < args.seconds:
            setup_times.append(setup_once(args.workload))
            rounds.append(workload.run_round())
            if len(rounds) > 1:
                rounds[-1].kept.clear()  # the checks read the first round's only
        while len(setup_times) < SETUP_REPEATS:
            setup_times.append(setup_once(args.workload))
        failures = check(workload, rounds)
        metrics = end_to_end(rounds, setup_times)
    else:
        start = perf_counter()
        workload.run_round()
        untraced_s = perf_counter() - start
        tracer = Tracer()
        try:
            tracer.install()
            start = perf_counter()
            rounds = [workload.run_round()]
            traced_s = perf_counter() - start
        finally:
            tracer.uninstall()
        failures = check(workload, rounds)
        tracer.write_spans(OUT / f"{stem}-spans.csv")
        per_layer = tracer.per_layer(100.0 * (traced_s / untraced_s - 1.0))
        metrics = {name: (per_layer[name], unit) for name, unit in PER_LAYER_UNITS.items()}

    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT / f"{stem}.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "rounds": len(rounds), "environment": env, "result": result}, indent=1)
    )
    print("environment " + json.dumps(env))
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(run(parse_args(sys.argv[1:])))
