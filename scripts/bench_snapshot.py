"""Write one benchmark snapshot: every workload, end to end and per layer.

    python3 scripts/bench_snapshot.py --label baseline --seed 1 --seconds 35

Runs benchmarks/run.py at one seed on each workload that BENCHMARK.json
declares, first with --trace 0 (the end-to-end metrics of a run of
--seconds) and then with --trace 1 (the per-layer metrics of one traced
round), and writes BENCH_<label>.json into --out (default: the root of the
source tree). The file holds, per workload, both metric sets with their
units and, per run, whether every check passed and how many operations it
attempted and failed; next to them stands the environment stamp of the
runs. Exits 1 when a run failed a check or did not finish; the file is
written all the same.
"""

import argparse
import json
import platform
import sys
from pathlib import Path

from ab_pairs import ROOT, benchmark_spec, run


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--out", type=Path, default=ROOT)
    return parser.parse_args(argv)


def cpu_model() -> str:
    """The processor's model name, where the system reports one."""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main(argv) -> int:
    args = parse_args(argv)
    snapshot = {"label": args.label, "seed": args.seed, "seconds": args.seconds,
                "environment": None, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in benchmark_spec()["workloads"]):
        entry = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            env, result = run(ROOT, workload, args.seed, args.seconds, trace)
            if result is None:
                ok = False
                entry[key] = None
                continue
            snapshot["environment"] = {**env, "cpu": cpu_model()}
            ok = ok and result["correct"]
            entry[key] = result["metrics"]
            entry.setdefault("runs", {})[key] = {k: result[k] for k in ("correct", "attempted", "failed")}
        snapshot["workloads"][workload] = entry
        print(f"{workload}: done", file=sys.stderr)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(snapshot, indent=1) + "\n")
    print(path)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
