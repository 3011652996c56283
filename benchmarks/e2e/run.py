"""The performance ledger's one command.

    python3 benchmarks/e2e/run.py --workload ner_scan --seed 7 --seconds 28 --trace 0

runs the workload's episodes (one fresh interpreter each), computes the
loss traces against leave-one-out references, checks the outputs and
prints every metric by name with its unit; the last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 1`` runs the traced episode instead and prints the per-layer
metrics.  Without ``--workload`` all four workloads run in turn.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from repro.core.metrics import squared_error, time_to_half  # noqa: E402
from repro.errors import EvaluationError  # noqa: E402

import workloads as W  # noqa: E402

median = statistics.median
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
EPISODE_TIMEOUT_S = 150
DEFAULT_SEED = 20100913


def spawn(script: str, workload: str, seed: int, episode: int,
          stream: bool = True, plain: bool = False) -> Dict[str, Any]:
    """Run one episode in a fresh interpreter and return its result.
    ``stream=False`` stops after phase B; ``plain=True`` runs a served
    workload's model through a plain Session (the traced run's twin)."""
    config = {
        "workload": workload,
        "seed": seed,
        "episode": episode,
        "stream": stream,
        "plain": plain,
        "spawned_at": time.time(),
    }
    done = subprocess.run(
        [sys.executable, str(HERE / script), json.dumps(config)],
        stdout=subprocess.PIPE,
        cwd=ROOT,
        # str hashes seeded per process shift every dict's probe
        # sequence, which shows as run-to-run jitter on sub-ms statements.
        env={**os.environ, "PYTHONHASHSEED": "0"},
        timeout=EPISODE_TIMEOUT_S,
        check=True,
    )
    return pickle.loads(done.stdout)


def percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[int(q * (len(ordered) - 1))]


# Phase C latency metric -> (operation kind, statistic over one client's
# operations of that kind)
PHASE_C_STATISTICS = {
    "query_p50_ms": ("requery", median),
    "query_p90_ms": ("requery", lambda series: percentile(series, 0.9)),
    "adhoc_p50_ms": ("adhoc", median),
    "dml_ready_ms": ("pair", median),
}


# ----------------------------------------------------------------------
# Loss against the leave-one-out reference
# ----------------------------------------------------------------------
Counts = Tuple[int, Dict[tuple, int]]  # (z, row -> count)


def frame_counts(stream: Dict[str, Any], index: int) -> Counts:
    z, frame = stream["frames"][index]
    rows = stream["rows"]
    return z, {rows[i]: count for i, count in enumerate(frame) if count}


def second_half(result: Dict[str, Any]) -> List[Counts]:
    """Per chain of one episode: the samples recorded after the frame
    nearest half its final depth (the initial transient is discarded)."""
    halves = []
    for stream in result["streams"].values():
        frames = stream["frames"]
        if not frames:
            continue
        z_end, end = frame_counts(stream, len(frames) - 1)
        mid = min(range(len(frames)), key=lambda i: abs(frames[i][0] - z_end / 2))
        z_mid, start = frame_counts(stream, mid)
        halves.append(
            (z_end - z_mid, {row: n - start.get(row, 0) for row, n in end.items()})
        )
    return halves


def pooled_reference(results: List[Dict[str, Any]], leave_out: int) -> Dict[tuple, float]:
    total = 0
    counts: Dict[tuple, int] = {}
    for i, result in enumerate(results):
        if i == leave_out:
            continue
        for z, part in second_half(result):
            total += z
            for row, n in part.items():
                counts[row] = counts.get(row, 0) + n
    return {row: n / total for row, n in counts.items() if n}


def loss_trace(result: Dict[str, Any], truth: Dict[tuple, float]):
    """``[(summed call seconds, loss, z)]`` from the single-sample
    approximation through every chunk boundary of phases A+B."""
    initial = {tuple(row): 1.0 for row in result["initial_answer"]}
    trace = [(0.0, squared_error(initial, truth), 1)]
    elapsed = 0.0
    cache: Dict[Tuple[int, int], Tuple[float, int]] = {}
    for seconds, _, frame, _ in result["calls"]:
        elapsed += seconds
        if frame is None:
            continue
        if frame not in cache:
            z, counts = frame_counts(result["streams"][frame[0]], frame[1])
            estimate = {row: n / z for row, n in counts.items()}
            cache[frame] = (squared_error(estimate, truth), z)
        trace.append((elapsed, *cache[frame]))
    return trace


def half_loss_crossing(trace) -> Tuple[float, int]:
    """(seconds, z): when the loss curve crosses half the single-sample
    loss, and the sample count of the first answer at or below it.

    ``time_to_half`` finds the first chunk boundary at or under the
    target (and raises when there is none); the crossing time is read
    off the straight line between that answer and the one before it, so
    that the chunk grid — geometric on the served workload — does not
    quantise the metric."""
    reached = time_to_half([(t, loss) for t, loss, _ in trace])
    hit = next(i for i, point in enumerate(trace) if point[0] == reached)
    if hit == 0:
        return 0.0, trace[0][2]
    (t0, above, _), (t1, below, z) = trace[hit - 1], trace[hit]
    target = 0.5 * trace[0][1]
    return t0 + (t1 - t0) * (above - target) / (above - below), z


# ----------------------------------------------------------------------
# End-to-end run
# ----------------------------------------------------------------------
def run_end_to_end(workload: W.Workload, seed: int, seconds: int):
    episodes = max(3, seconds // workload.episode_seconds)
    results = [spawn("episode.py", workload.name, seed, i) for i in range(episodes)]
    failures: List[str] = []
    attempted = 0
    values: Dict[str, List[float]] = {m["name"]: [] for m in SPEC["end_to_end"]}
    detail: Dict[str, Any] = {
        "episodes": episodes, "half_at_samples": [], "final_over_initial": [],
        "mcmc": [], "operations": {},
    }

    for i, result in enumerate(results):
        failures.extend(f"episode {i}: {text}" for text in result["failures"])
        calls = result["calls"]
        attempted += len(calls) + sum(len(ops) for ops in result["ops"])
        values["setup_s"].append(result["setup_s"])
        values["peak_rss_mb"].append(result["peak_rss_mb"])
        detail["mcmc"].append(result.get("mcmc"))

        trace = loss_trace(result, pooled_reference(results, i))
        attempted += 1  # reaching half-loss under the ceiling is one operation
        try:
            seconds_to_half, z = half_loss_crossing(trace)
            values["time_to_half_s"].append(seconds_to_half)
            detail["half_at_samples"].append(z)
        except EvaluationError as exc:
            failures.append(f"episode {i}: {exc}")
        ratio = trace[-1][1] / trace[0][1]
        detail["final_over_initial"].append(round(ratio, 4))
        if ratio > workload.loss_ceiling:
            failures.append(
                f"episode {i}: final loss is {ratio:.3f} of the single-sample loss "
                f"(ceiling {workload.loss_ceiling})"
            )

        # Warm throughput over the headline's sample-producing calls.
        if workload.served:
            # Only a request that misses the marginal cache samples, and
            # there are few of them, each larger than the last: samples
            # over time across all of them but each worker's first lease
            # (which builds the worker's view and fills its caches).
            warm = [call for call in calls if call[1]][workload.workers:]
            rates = [sum(c[1] for c in warm) / sum(c[0] for c in warm)] if warm else []
        else:
            # The median per-call rate in the second half (one shape; a
            # sum of call times would let a few preempted calls move it).
            warm = calls[len(calls) // 2:]
            rates = [n / took for took, n, frame, _ in warm if n and frame is not None]
        # Phase C, one shape per statistic: plain re-queries, ad-hoc
        # reads, and INSERT + re-query pairs.  A statistic is taken per
        # client and the episode's value is the mean over clients: on a
        # cache hit the second client of a lockstep step is ~10% faster
        # than the first, so a pooled median (or a median over clients)
        # would sit between two modes.  A failed statement was recorded
        # as NaN; it is counted above, not timed here.
        clients = result["ops"]
        per_client: Dict[str, List[float]] = {name: [] for name in PHASE_C_STATISTICS}
        for ops in clients:
            series: Dict[str, List[float]] = {"requery": [], "adhoc": [], "pair": []}
            for (kind, took), (after, took_after) in zip(ops, ops[1:] + [("", 0.0)]):
                base = kind.split(":")[0]
                if base == "insert" and after.startswith("pair_requery"):
                    base, took = "pair", took + took_after
                if base in series and not math.isnan(took):
                    series[base].append(took * 1e3)
            for kind, timed in series.items():
                detail["operations"][kind] = detail["operations"].get(kind, 0) + len(timed)
            for name, (kind, statistic) in PHASE_C_STATISTICS.items():
                if series[kind]:
                    per_client[name].append(statistic(series[kind]))
        statements = sum(len(ops) for ops in clients)
        wall = result["phase_c_wall"]
        per_episode = {
            "first_answer_ms": [calls[0][0] * 1e3] if calls else [],
            "samples_per_s": [median(rates)] if rates else [],
            "stmts_per_s": [statements / wall] if wall > 0 else [],
        }
        for name, found in {**per_episode, **per_client}.items():
            # An empty series (every operation of the kind failed or
            # never ran) is a failed operation, not a crash.
            if len(found) == (len(clients) if name in per_client else 1):
                values[name].append(statistics.fmean(found))
            else:
                failures.append(f"episode {i}: no operation to take {name} from")

    # Median over episodes: one disturbed episode does not move it.
    metrics = {
        name: median(series) if series else float("nan")
        for name, series in values.items()
    }
    metrics["peak_rss_mb"] = max(values["peak_rss_mb"])
    return metrics, attempted, failures, detail


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
def run_traced(workload: W.Workload, seed: int):
    """An untraced Session run of phases A+B and the traced episode of
    the same seed: marginals must agree bit for bit at every chunk."""
    session = spawn("episode.py", workload.name, seed, 0, stream=False, plain=True)
    traced = spawn("traced.py", workload.name, seed, 0)
    failures = [f"session run: {t}" for t in session["failures"]]
    failures += [f"traced run: {t}" for t in traced["failures"]]
    # Operations: every call of the Session run, plus the three checks.
    attempted = len(session["calls"]) + 3
    ours, theirs = traced["streams"][0], session["streams"][0]
    if ours["rows"] != theirs["rows"] or ours["frames"] != theirs["frames"]:
        failures.append("traced-loop marginals differ from the Session run's")
    if traced["mcmc"] != session["mcmc"]:
        failures.append(
            f"walk-step counts differ: traced {traced['mcmc']}, session {session['mcmc']}"
        )
    layers = traced["layers"]

    # Tracing overhead: the traced loop against the same loop inside the
    # Session run's evaluator (the cursor's own clock, so the api layer
    # the traced loop bypasses is on neither side).
    calls = session["calls"]
    warm = calls[len(calls) // 2:]
    untraced = sum(call[1] for call in warm) / sum(call[3] for call in warm)
    layers["trace.overhead_frac"] = 1.0 - traced["traced_samples_per_s"] / untraced
    if layers["trace.unattributed_share"] > 0.10:
        failures.append(
            f"unattributed share {layers['trace.unattributed_share']:.3f} > 0.10"
        )

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"trace-{workload.name}.json", "w") as handle:
        json.dump(
            {
                "workload": workload.name,
                "seed": seed,
                "episode": traced["episode"],
                "fields": ["name", "start", "end", "parent"],
                "spans": traced["spans"],
            },
            handle,
        )
    return layers, attempted, failures, {"spans": len(traced["spans"])}


# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: int, trace: bool) -> Dict[str, Any]:
    workload = W.WORKLOADS[name]
    if trace:
        values, attempted, failures, detail = run_traced(workload, seed)
        wanted = [m["name"] for m in SPEC["per_layer"]]
    else:
        values, attempted, failures, detail = run_end_to_end(workload, seed, seconds)
        wanted = [m["name"] for m in SPEC["end_to_end"]]
    print(f"== {name}  seed={seed}  trace={int(trace)}  {json.dumps(detail)}")
    for metric in wanted:
        print(f"{metric:32s} {values[metric]:14.4f} {UNITS[metric]}")
    for text in failures:
        print("FAILED:", text)
    broken = [m for m in wanted if math.isnan(values[m])]
    return {
        "correct": not failures and not broken,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m: {"value": values[m], "unit": UNITS[m]} for m in wanted},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    args = parser.parse_args()

    print(
        f"nproc={os.cpu_count()} python={platform.python_version()} "
        f"load1={os.getloadavg()[0]:.2f}"
    )
    names = [args.workload] if args.workload else list(W.WORKLOADS)
    reports = {
        name: run_workload(name, args.seed, args.seconds, bool(args.trace))
        for name in names
    }
    last = reports[names[0]] if args.workload else reports
    print(json.dumps(last))
    return 0 if all(r["correct"] for r in reports.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
