"""Same code, two sets of runs: do the medians agree within the bounds?

    python3 benchmarks/e2e/repeat.py

Each set runs every workload RUNS times (seeds DEFAULT_SEED,
DEFAULT_SEED + 1, ...; the sets take turns run by run) and takes the
median of each end-to-end metric; the two medians may not differ, in
either direction, by more than the metric's bound in BENCHMARK.json.
Both sets use the same seeds, so on the Session workloads the exact
counts (walk-steps, accepted proposals, the sample index at which
half-loss was reached) must repeat exactly.  Exits non-zero otherwise.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Tuple

from run import DEFAULT_SEED, HERE, ROOT, SPEC

RUNS = 5


def one_run(workload: str, seed: int) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """(metric values, exact counts) of one end-to-end run."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    lines = done.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
        metrics = {m: v["value"] for m, v in report["metrics"].items()}
        header = next(line for line in lines if line.startswith("== "))
        detail = json.loads(header[header.index("{"):])
        counts = {key: detail[key] for key in ("half_at_samples", "mcmc")}
    except (IndexError, KeyError, TypeError, ValueError, StopIteration):
        sys.exit(f"{workload} seed {seed}: run.py exited {done.returncode} "
                 f"without a result line:\n{done.stdout}")
    if done.returncode != 0 or not report["correct"]:
        sys.exit(f"{workload} seed {seed} failed its own checks:\n{done.stdout}")
    return metrics, counts


def medians(runs: List[Tuple[Dict[str, float], Dict[str, Any]]]) -> Dict[str, float]:
    return {
        metric: statistics.median(values[metric] for values, _ in runs)
        for metric in runs[0][0]
    }


def main() -> int:
    workloads = [w["name"] for w in SPEC["workloads"]]
    seeds = [DEFAULT_SEED + i for i in range(RUNS)]

    bad = 0
    print(f"{'workload':14s} {'metric':16s} {'first':>12s} {'second':>12s} {'differ by':>9s} {'bound':>6s}")
    for workload in workloads:
        # The two sets take turns, run by run: a disturbance that lasts
        # several runs then falls on both of them.
        sets: Tuple[list, list] = ([], [])
        for seed in seeds:
            for runs in sets:
                runs.append(one_run(workload, seed))
        first, second = medians(sets[0]), medians(sets[1])
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            a, b = first[name], second[name]
            differ = abs(b - a) / min(a, b)
            flag = ""
            if differ > metric["bound"]:
                bad += 1
                flag = "  EXCEEDS"
            print(f"{workload:14s} {name:16s} {a:12.4f} {b:12.4f} {differ:9.2%} {metric['bound']:6.2f}{flag}",
                  flush=True)
        counts = [[c for _, c in runs] for runs in sets]
        if workload != "served_mixed" and counts[0] != counts[1]:
            bad += 1
            print(f"{workload}: exact counts differ between the sets:\n"
                  f"  {counts[0]}\n  {counts[1]}")
    print("repeat check:", "FAILED" if bad else "ok")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
