"""Alternating A/B benchmark pairs: the working tree against a base commit.

    python3 scripts/ab_pairs.py BASE --workloads urban_place --pairs 10 --seconds 35

Extracts BASE with `git archive` into a temporary directory, which is
removed on exit, and runs benchmarks/run.py --trace 0 from both trees:
--pairs pairs per workload (default: every workload of BENCHMARK.json),
pair i at seed --seed + i on both sides, and the side that runs first
alternating from pair to pair. Then it prints, per workload and end-to-end
metric of BENCHMARK.json, over the pairs in which both runs report it (a
failed run drops only its own pair): the base's median and quartiles, the
change's median, the pairs the change won out of those compared, the pairs
it tied, and a verdict:

- better: the change won at least 9 of every 10 pairs (and at least 10
  pairs ran), and its median beats the base's by more than the base's
  interquartile range;
- worse: the change's median is worse than the base's by more than the
  metric's bound;
- unresolved: neither; or fewer than 2 pairs ran, or the base's
  interquartile range is wider than the bound, so that its own runs give
  no spread or spread too widely to tell.

It reports and gates nothing. Exits 1 when a run failed a check or printed
no result, 0 otherwise.
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def compare(base, change, better: str, bound: float) -> dict:
    """One metric's pairs (base[i], change[i]): the base's median and
    quartiles, the change's median, the pairs the change won and the
    verdict, where ``better`` is "lower" or "higher" and ``bound`` the
    largest relative loss the metric tolerates."""
    sign = 1.0 if better == "lower" else -1.0
    q1, median, q3 = np.percentile(base, [25, 50, 75])
    change_median = float(np.median(change))
    gain = sign * (median - change_median)  # > 0 when the change is better
    won = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    tied = sum(b == c for b, c in zip(base, change))
    if len(base) < 2 or q3 - q1 > bound * abs(median):
        verdict = "unresolved"
    elif -gain > bound * abs(median):
        verdict = "worse"
    elif len(base) >= 10 and 10 * won >= 9 * len(base) and gain > q3 - q1:
        verdict = "better"
    else:
        verdict = "unresolved"
    return {"base_median": median, "base_q1": q1, "base_q3": q3, "change_median": change_median,
            "won": won, "tied": tied, "pairs": len(base), "verdict": verdict}


def summarize(spec: dict, pairs) -> list[dict]:
    """``compare`` for each end-to-end metric of ``spec`` (BENCHMARK.json),
    with its name, over the pairs of ``pairs``, a list of (base metrics,
    change metrics), in which both runs report it. A failed run drops only
    its own pair; a metric that no pair reports on both sides is skipped."""
    rows = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        both = [(b[name], c[name]) for b, c in pairs if b.get(name) is not None and c.get(name) is not None]
        if both:
            base, change = zip(*both)
            rows.append({"metric": name, **compare(base, change, metric["better"], metric["bound"])})
    return rows


def benchmark_spec() -> dict:
    """BENCHMARK.json of this source tree: its workloads and metrics."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0):
    """(environment stamp, result) of one benchmarks/run.py call from the
    source tree ``tree``, the last two lines it prints; both None when it
    printed no result. Passes the run's stderr on."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True,
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2 or not lines[-2].startswith("environment "):
        print(f"{workload} --trace {trace}: exit {proc.returncode}, no result", file=sys.stderr)
        return None, None
    return json.loads(lines[-2].split(" ", 1)[1]), json.loads(lines[-1])


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", help="the commit to compare the working tree against")
    parser.add_argument("--workloads", nargs="+", help="default: every workload of BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--seed", type=int, default=401, help="the seed of the first pair")
    return parser.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    spec = benchmark_spec()
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    ok = True
    with tempfile.TemporaryDirectory(prefix="ab_pairs_") as base_tree:
        archive = subprocess.run(["git", "archive", args.base], cwd=ROOT, check=True, capture_output=True)
        subprocess.run(["tar", "-x", "-C", base_tree], input=archive.stdout, check=True)
        for workload in workloads:
            pairs = []
            for i in range(args.pairs):
                seed = args.seed + i
                sides = [("base", Path(base_tree)), ("change", ROOT)]
                results = {}
                for side, tree in sides if i % 2 == 0 else sides[::-1]:
                    _, result = run(tree, workload, seed, args.seconds)
                    if result is None or not result["correct"]:
                        print(f"{workload} seed {seed} {side}: failed a check or printed no result",
                              file=sys.stderr)
                        ok = False
                    results[side] = {k: v["value"] for k, v in result["metrics"].items()} if result else {}
                pairs.append((results["base"], results["change"]))
                print(f"{workload}: pair {i + 1} of {args.pairs} done", file=sys.stderr)
            print(f"{workload} ({args.pairs} pairs of {args.seconds:g} s, seeds {args.seed}.."
                  f"{args.seed + args.pairs - 1}, base {args.base})")
            print(f"  {'metric':16s} {'base median [q1, q3]':>34s} {'change':>12s} "
                  f"{'won':>6s} {'tied':>4s}  verdict")
            for row in summarize(spec, pairs):
                spread = f"{row['base_median']:.6g} [{row['base_q1']:.6g}, {row['base_q3']:.6g}]"
                print(f"  {row['metric']:16s} {spread:>34s} {row['change_median']:12.6g} "
                      f"{row['won']:>3d}/{row['pairs']:<2d} {row['tied']:>4d}  {row['verdict']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
