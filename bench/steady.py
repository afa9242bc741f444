"""Steadiness check: run one workload as two sets of runs of the same code,
each run a fresh process with its own seed, and compare the sets.

    python3 bench/steady.py --workload cons3-gf3

Set 1 runs seeds 1-5 and set 2 seeds 6-10, each for `run_seconds` from
BENCHMARK.json.

For every end-to-end metric in BENCHMARK.json it prints each set's median and
quartiles, the spread (q3 - q1) / median of all runs together, the drift of
the second set's median from the first's in the metric's worse direction, and
the metric's bound.  It exits 1 when a spread or a drift exceeds its bound,
or when the sets' shares of failed commands differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS = 5  # per set


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]

    sets = [[], []]
    for s, results in enumerate(sets):
        for i in range(RUNS):
            seed = 1 + s * RUNS + i
            results.append(one_run(args.workload, seed, seconds))
            print(f"set {s + 1} seed {seed}: " + json.dumps(results[-1]), flush=True)

    ok = True
    shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for rs in sets]
    print(f"\n{args.workload}: {RUNS} runs per set, {seconds} s each; "
          f"failed share {shares[0]:.4f} / {shares[1]:.4f}")
    ok &= shares[0] == shares[1]
    print(f"{'metric':<18} {'set 1 q1 / median / q3':>34} {'set 2 q1 / median / q3':>34} "
          f"{'spread':>7} {'drift':>7} {'bound':>6}")
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        per_set = [[r["metrics"][name]["value"] for r in rs] for rs in sets]
        q = [quartiles(v) for v in per_set]
        lo, med, hi = quartiles(per_set[0] + per_set[1])
        spread = (hi - lo) / med
        drift = (q[1][1] - q[0][1]) / q[0][1]
        if metric["better"] == "higher":
            drift = -drift
        bad = drift > bound or spread > bound
        ok &= not bad
        cells = ["{:.5g} / {:.5g} / {:.5g}".format(*qs) for qs in q]
        print(f"{name:<18} {cells[0]:>34} {cells[1]:>34} {spread:7.3f} {drift:7.3f} "
              f"{bound:6.2f}{'  OVER' if bad else ''}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
