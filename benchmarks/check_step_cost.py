#!/usr/bin/env python
"""CI gate for the §5.3 constant-step-cost claim (vectorized hot path).

Reads a pytest-benchmark JSON produced by::

    pytest benchmarks/bench_step_cost.py --benchmark-json=BENCH_step_cost.json

and fails (exit 1) when the mean per-step time of the *vectorized* walk
at the largest database size exceeds ``--max-ratio`` times the smallest
size's — i.e. walk-step cost has started scaling with the data.  The
gate is machine-relative (both sizes run on the same hardware in the
same process), unlike the absolute us/step numbers in the JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# Single source of truth for the gate; bench_step_cost.py imports it
# for its in-test assertion and CI uses the script's default, so one
# edit moves every enforcement point.  The steady-state vectorized walk
# measures ~1.2-1.4x (2k -> 40k tokens), so 2.0 holds comfortable slack
# without ever re-admitting size-proportional scoring.
MAX_STEP_COST_RATIO = 2.0


def per_step_means(report: dict) -> dict[int, float]:
    """tokens -> mean seconds per walk-step, vectorized series only."""
    out: dict[int, float] = {}
    for bench in report.get("benchmarks", []):
        info = bench.get("extra_info", {})
        if bench.get("group") != "step-cost" or info.get("mode") != "vectorized":
            continue
        out[int(info["tokens"])] = bench["stats"]["mean"] / int(info["steps"])
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", type=Path, help="pytest-benchmark JSON file")
    parser.add_argument(
        "--max-ratio",
        type=float,
        default=MAX_STEP_COST_RATIO,
        help=(
            "largest allowed large/small per-step time ratio "
            f"(default {MAX_STEP_COST_RATIO})"
        ),
    )
    args = parser.parse_args(argv)

    report = json.loads(args.report.read_text(encoding="utf-8"))
    means = per_step_means(report)
    if len(means) < 2:
        print(
            f"error: need vectorized step-cost series at >=2 sizes, "
            f"found {sorted(means)}",
            file=sys.stderr,
        )
        return 2

    small, large = min(means), max(means)
    ratio = means[large] / means[small]
    print(
        f"per-step mean: {means[small] * 1e6:.1f}us @ {small} tokens, "
        f"{means[large] * 1e6:.1f}us @ {large} tokens -> ratio {ratio:.2f}x "
        f"(limit {args.max_ratio:.1f}x)"
    )
    if ratio > args.max_ratio:
        print(
            "FAIL: walk-step cost scales with database size "
            "(the §5.3 constant-step-cost claim is broken)",
            file=sys.stderr,
        )
        return 1
    print("OK: walk-step cost is near-constant in database size")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
