"""Alternating A/B benchmark pairs: the working tree against a base commit.

    python3 scripts/ab_pairs.py BASE --workloads urban_place --pairs 10 --seconds 35

Checks BASE out with `git worktree` into a temporary directory, which is
removed on exit, and runs benchmarks/run.py --trace 0 from both trees:
--pairs pairs per workload (default: every workload of BENCHMARK.json),
pair i at seed --seed + i on both sides, and the side that runs first
alternating from pair to pair. Then it prints, per workload and end-to-end
metric of BENCHMARK.json, the base's median and quartiles, the change's
median, the pairs the change won and those it tied, and a verdict:

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
    """``compare`` for each end-to-end metric of ``spec`` (BENCHMARK.json)
    that every run of ``pairs``, a list of (base metrics, change metrics),
    reports, with its name."""
    rows = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        if all(side.get(name) is not None for pair in pairs for side in pair):
            base, change = [b[name] for b, _ in pairs], [c[name] for _, c in pairs]
            rows.append({"metric": name, **compare(base, change, metric["better"], metric["bound"])})
    return rows


def run(tree: Path, workload: str, seed: int, seconds: float):
    """The end-to-end metrics of one run.py call from ``tree``, as
    {name: value}, and whether it passed every check; None, False when it
    printed no result."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(proc.stderr)
        return None, False
    result = json.loads(lines[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}, result["correct"]


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
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    ok = True
    with tempfile.TemporaryDirectory(prefix="ab_pairs_") as scratch:
        base_tree = Path(scratch) / "base"
        subprocess.run(["git", "worktree", "add", "--detach", "--quiet", str(base_tree), args.base],
                       cwd=ROOT, check=True)
        try:
            for workload in workloads:
                pairs = []
                for i in range(args.pairs):
                    seed = args.seed + i
                    sides = [("base", base_tree), ("change", ROOT)]
                    results = {}
                    for side, tree in sides if i % 2 == 0 else sides[::-1]:
                        metrics, correct = run(tree, workload, seed, args.seconds)
                        if metrics is None or not correct:
                            print(f"{workload} seed {seed} {side}: failed a check or printed no result",
                                  file=sys.stderr)
                            ok = False
                        results[side] = metrics or {}
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
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(base_tree)], cwd=ROOT)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
