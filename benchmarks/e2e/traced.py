"""The traced episode: per-layer attribution, outside-in.

The benchmark drives Algorithm 1's loop itself from the layers' public
pieces — ``chain.advance()`` -> ``recorder.pop()`` -> ``view.apply(delta)``
-> ``view.result()`` -> ``estimator.record(answer)`` — and calls the
front-end functions directly, with a span around each call.  Spans live
in this directory's code, not inside ``repro``; end-to-end metrics are
never taken from this run.  With the same seed the loop's marginals must
equal the ``Session`` run's bit for bit at every chunk boundary, which
``run.py`` checks.

Started by ``run.py`` as ``python traced.py '<json config>'``; layer
metrics, frames and spans go back pickled on stdout.
"""

from __future__ import annotations

import asyncio
import gc
import json
import pickle
import random
import statistics
import sys
import time
from typing import Any, Dict, List, Tuple

import episode as E  # also puts src/ and this directory on sys.path

clock = time.perf_counter
median = statistics.median


class Tracer:
    """Spans kept in memory: ``(name, start, end, parent index)``."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, int]] = []
        self._stack: List[int] = []

    @property
    def parent(self) -> int:
        return self._stack[-1] if self._stack else -1

    def add(self, name: str, start: float, end: float) -> None:
        self.spans.append((name, start, end, self.parent))

    def open(self, name: str) -> int:
        self.spans.append((name, clock(), 0.0, self.parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self) -> None:
        index = self._stack.pop()
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, clock(), parent)

    def timed(self, name: str, fn, *args):
        start = clock()
        value = fn(*args)
        self.add(name, start, clock())
        return value

    def durations(self, name: str) -> List[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def self_times(self) -> Dict[str, float]:
        """Per name: span time minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: Dict[str, float] = {}
        for (name, start, end, _), inner in zip(self.spans, covered):
            totals[name] = totals.get(name, 0.0) + (end - start) - inner
        return totals


def us(seconds: float) -> float:
    return seconds * 1e6


def ms(seconds: float) -> float:
    return seconds * 1e3


# ----------------------------------------------------------------------
def front_end(tracer: Tracer, world, texts: List[str], adhoc: set) -> Dict[str, float]:
    """lex+parse, compile, plan (and one evaluation of the ad-hoc reads)
    per distinct stream text, through the same functions the session's
    router calls."""
    from repro.db.ra.eval import evaluate_rows
    from repro.db.ra.planner import default_planner
    from repro.db.sql.ast import SelectStmt
    from repro.db.sql.compiler import compile_select
    from repro.db.sql.parser import parse_statement

    planner = default_planner()
    rewrites = 0
    tracer.open("front_end")
    for sql in texts:
        stmt = tracer.timed("db.sql.parse", parse_statement, sql)
        if not isinstance(stmt, SelectStmt):
            continue
        tree = tracer.timed("db.sql.compile", compile_select, stmt, world.db)
        planned = tracer.timed("db.ra.planner.plan", planner.plan, tree)
        rewrites += len(planned.trace)
        if sql in adhoc:
            tracer.timed("db.ra.eval.select", evaluate_rows, planned.plan, world.db)
    tracer.close()
    return {
        "db.sql.parse_us": us(median(tracer.durations("db.sql.parse"))),
        "db.sql.compile_us": us(median(tracer.durations("db.sql.compile"))),
        "db.ra.planner.plan_us": us(median(tracer.durations("db.ra.planner.plan"))),
        "db.ra.planner.rewrites": float(rewrites),
        "db.ra.eval.select_ms": ms(median(tracer.durations("db.ra.eval.select"))),
    }


def algorithm1_loop(tracer: Tracer, workload, world, out: Dict[str, Any]) -> Dict[str, float]:
    """Phases A+B as the Session runs them, driven by hand with a span
    around every layer call."""
    from repro.core.marginals import MarginalEstimator
    from repro.db.view import MaterializedView

    class Query:
        def __init__(self, sql: str):
            # The plan and (for a planner-restricted query) the chain the
            # session would use; recorder, view and estimator are ours.
            evaluator = world.session.prepare(sql).evaluator
            self.sql, self.chain, self.plan = sql, evaluator.chain, evaluator.plans[0]
            self.recorder = self.view = None
            self.estimator = MarginalEstimator()

    queries = [Query(sql) for sql in workload.refine]
    log = E.CountLog()
    advances: List[Tuple[float, int]] = []  # (seconds, walk-steps) per advance
    starts: List[float] = []  # t0 of every sample
    delta_rows = answer_rows = samples = 0
    last_end = 0.0
    spans, add = tracer.spans, tracer.spans.append

    gc.collect()
    root = tracer.open("loop")
    c, done = workload.first_chunk, 0
    while done < workload.total:
        for q in queries:
            if q.view is None:
                tracer.open("db.view.materialize")
                q.recorder = world.db.attach_recorder()
                q.view = MaterializedView(world.db, q.plan)
                q.recorder.pop()
                tracer.close()
                t0 = clock()
                q.estimator.record(q.view.result())
                add(("core.marginals.record", t0, clock(), root))
            chain, recorder, view, estimator = q.chain, q.recorder, q.view, q.estimator
            steps = chain.steps_per_sample
            for _ in range(c):
                t0 = clock()
                chain.advance()
                t1 = clock()
                delta = recorder.pop()
                t2 = clock()
                if not delta.is_empty():
                    view.apply(delta)
                answer = view.result()
                t3 = clock()
                estimator.record(answer)
                t4 = clock()
                add(("mcmc.advance", t0, t1, root))
                add(("db.delta.pop", t1, t2, root))
                add(("db.ra.delta.apply", t2, t3, root))
                add(("core.marginals.record", t3, t4, root))
                advances.append((t1 - t0, steps))
                starts.append(t0)
                last_end = t4
                delta_rows += delta.size()
                answer_rows += answer.distinct_size()
                samples += 1
            if q.sql == workload.headline:
                tracer.open("bench.frames")
                log.add(q.estimator.counts(), q.estimator.num_samples)
                tracer.close()
        done += c
        c = workload.chunk
    tracer.close()
    for q in queries:
        world.db.detach_recorder(q.recorder)

    chains = {id(q.chain): q.chain for q in queries}.values()
    proposals = sum(ch.stats.proposals for ch in chains)
    accepted = sum(ch.stats.accepted for ch in chains)
    out["streams"] = {0: log.export()}
    out["mcmc"] = {
        "proposals": world.chain.stats.proposals,
        "accepted": world.chain.stats.accepted,
    }

    selfs = tracer.self_times()
    _, start, end, _ = spans[root]
    # One-off view materialisation and the benchmark's own frame
    # bookkeeping are not part of the steady loop.
    loop = (end - start) - selfs.get("db.view.materialize", 0.0) - selfs.get("bench.frames", 0.0)
    layers = ("mcmc.advance", "db.delta.pop", "db.ra.delta.apply", "core.marginals.record")
    half = len(advances) // 2
    variables = len(world.graph.variables)
    cold_seconds = cold_steps = 0
    for seconds, steps in advances:
        cold_seconds += seconds
        cold_steps += steps
        if cold_steps >= variables:
            break
    warm = advances[half:]
    # Warm throughput of the traced loop, for trace.overhead_frac.
    out["traced_samples_per_s"] = (samples - half) / (last_end - starts[half])
    return {
        "db.view.materialize_ms": ms(median(tracer.durations("db.view.materialize"))),
        "mcmc.advance_share": selfs["mcmc.advance"] / loop,
        "mcmc.step_us": us(sum(s for s, _ in warm) / sum(n for _, n in warm)),
        "mcmc.step_cold_us": us(cold_seconds / cold_steps),
        "mcmc.accept_rate": accepted / proposals,
        "mcmc.steps": float(proposals),
        "db.delta.rows_per_sample": delta_rows / samples,
        "db.delta.pop_us": us(selfs["db.delta.pop"] / samples),
        "db.delta.pop_share": selfs["db.delta.pop"] / loop,
        "db.ra.delta.apply_share": selfs["db.ra.delta.apply"] / loop,
        "db.ra.delta.apply_us_per_row": us(selfs["db.ra.delta.apply"] / max(1, delta_rows)),
        "core.marginals.record_share": selfs["core.marginals.record"] / loop,
        "core.marginals.record_us": us(selfs["core.marginals.record"] / samples),
        "core.marginals.answer_rows": answer_rows / samples,
        "trace.unattributed_share": (loop - sum(selfs[name] for name in layers)) / loop,
    }


def kernel_microbench(tracer: Tracer, workload, warm_world, seed: int) -> Dict[str, float]:
    """``proposer.propose`` and ``graph.score_delta`` on the workload's
    own proposals: first touch on a fresh world, warm on the world the
    loop has just sampled (dynamic graphs cost more once clusters grow)."""
    import workloads as W

    def proposals(world, count: int) -> List[dict]:
        rng = random.Random(W.derive(seed, workload.name, "microbench"))
        start = clock()
        drawn = [world.proposer.propose(rng) for _ in range(count)]
        tracer.add("mcmc.propose", start, clock())
        return [
            changes
            for changes in (
                {v: new for v, new in p.changes.items() if v.value != new} for p in drawn
            )
            if changes
        ]

    def score(world, batch: List[dict], name: str) -> float:
        score_delta = world.graph.score_delta
        start = clock()
        for changes in batch:
            score_delta(changes)
        end = clock()
        tracer.add(name, start, end)
        return (end - start) / len(batch)

    count = 2000
    tracer.open("ie.build")
    fresh = W.build_world(workload, seed, 0)
    tracer.close()
    seen: set = set()
    first_touch = []
    for changes in proposals(fresh, count):
        if not seen.intersection(changes):
            first_touch.append(changes)
        seen.update(changes)
    cold = score(fresh, first_touch, "fg.score_delta.cold")
    fresh.session.close()
    del fresh
    warm_batch = proposals(warm_world, count)
    score(warm_world, warm_batch, "fg.score_delta.warmup")
    warm = score(warm_world, warm_batch, "fg.score_delta")
    return {
        "mcmc.propose_us": us(median(tracer.durations("mcmc.propose")) / count),
        "fg.score_delta_us": us(warm),
        "fg.score_delta_cold_us": us(cold),
    }


def storage_microbench(tracer: Tracer, workload, world, seed: int) -> Dict[str, float]:
    from repro.db.database import Database

    for _ in range(5):
        snapshot = tracer.timed("db.snapshot", world.db.snapshot)
        tracer.timed("db.from_snapshot", Database.from_snapshot, snapshot, "copy")
    rebase_ms = 0.0  # no chain factory to lease workers from: not applicable
    if workload.served:
        from repro.serve import ChainWorker

        factory = world.task.chain_factory(seed)
        worker = ChainWorker(0, factory, snapshot)
        for _ in range(3):
            tracer.timed("serve.pool.rebase", worker.rebase, snapshot)
        worker.close()
        rebase_ms = ms(median(tracer.durations("serve.pool.rebase")))
    return {
        "db.snapshot_ms": ms(median(tracer.durations("db.snapshot"))),
        "db.from_snapshot_ms": ms(median(tracer.durations("db.from_snapshot"))),
        "serve.pool.rebase_ms": rebase_ms,
    }


def stream_phase(tracer: Tracer, workload, world, script, failures: List[str]) -> Dict[str, float]:
    """Phase C on a plain Session over the traced world, one span per
    statement named after its kind."""
    session = world.session
    session.execute(workload.headline, samples=workload.requery_samples)
    gc.collect()
    overhead: List[float] = []
    dml = 0
    tracer.open("stream")
    for op in script:
        start = clock()
        cursor = session.execute(op.sql, samples=op.samples)
        end = clock()
        tracer.add("stream." + op.kind, start, end)
        if op.kind == "requery":
            overhead.append((end - start) - cursor.wall_elapsed)
        elif op.kind == "adhoc":
            problem = E.check_adhoc(op, cursor.fetchall())
            if problem:
                failures.append(problem)
        elif op.samples is None:
            dml += 1
    tracer.close()
    info = session.cache_info()
    live = session.live_runner

    def kind_ms(kind: str) -> float:
        return ms(median(tracer.durations("stream." + kind)))

    return {
        "api.plan_cache.hit_rate": info.hits / (info.hits + info.misses),
        "api.session.overhead_us": us(median(overhead)),
        "core.live.insert_ms": kind_ms("insert"),
        "core.live.update_ms": kind_ms("update"),
        "core.live.delete_ms": kind_ms("delete"),
        "core.live.requery_ms": kind_ms("pair_requery"),
        "core.live.repaired_frac": (live.repairs_applied if live else 0) / dml,
    }


NOT_SERVED = {
    "serve.cache.hit_rate": 0.0,
    "serve.hit_ms": 0.0,
    "serve.write_ms": 0.0,
    "serve.tail_ratio": 0.0,
    "serve.loop_lag_ms": 0.0,
}


def served_phase(tracer: Tracer, workload, seed: int, episode: int,
                 out: Dict[str, Any]) -> Dict[str, float]:
    """The served episode once more, read per statement kind."""
    import workloads as W

    tracer.open("ie.build")
    world = W.build_world(workload, seed, episode)
    tracer.close()
    scripts = [
        W.stream_script(workload, world, seed, episode, client)
        for client in range(workload.clients)
    ]
    served: Dict[str, Any] = {"failures": out["failures"], "setup_s": 0.0}
    tracer.open("served")
    asyncio.run(E.run_served_phases(workload, world, scripts, served))
    tracer.close()
    world.session.close()
    by_kind: Dict[str, List[float]] = {}
    for ops in served["ops"]:
        for kind, seconds in ops:
            by_kind.setdefault(kind, []).append(seconds)
    hits = [t for kind, ts in by_kind.items() if kind.endswith(":hit") for t in ts]
    misses = sorted(t for kind, ts in by_kind.items() if kind.endswith(":miss") for t in ts)
    writes = [t for kind in ("insert", "update", "delete") for t in by_kind.get(kind, [])]
    cache = served["serve_cache"]
    return {
        "serve.cache.hit_rate": cache["hits"] / (cache["hits"] + cache["misses"]),
        "serve.hit_ms": ms(median(hits)),
        "serve.write_ms": ms(median(writes)),
        "serve.tail_ratio": misses[int(0.9 * (len(misses) - 1))] / median(misses),
        "serve.loop_lag_ms": median(served["loop_lag_ms"]),
    }


def main() -> None:
    config = json.loads(sys.argv[1])
    import workloads as W

    workload = W.WORKLOADS[config["workload"]]
    seed, episode = config["seed"], config["episode"]
    tracer = Tracer()
    out: Dict[str, Any] = {"episode": episode, "failures": []}
    tracer.open("episode")
    tracer.open("ie.build")
    world = W.build_world(workload, seed, episode)
    tracer.close()
    script = W.stream_script(workload, world, seed, episode, 0)
    adhoc = {op.sql for op in script if op.kind == "adhoc"}
    texts = list(dict.fromkeys(list(workload.refine) + [op.sql for op in script]))

    layers: Dict[str, float] = {}
    layers.update(front_end(tracer, world, texts, adhoc))
    layers.update(algorithm1_loop(tracer, workload, world, out))
    layers.update(kernel_microbench(tracer, workload, world, seed))
    layers.update(storage_microbench(tracer, workload, world, seed))
    layers.update(stream_phase(tracer, workload, world, script, out["failures"]))
    world.session.close()
    if workload.served:
        layers.update(served_phase(tracer, workload, seed, episode, out))
    else:
        layers.update(NOT_SERVED)
    layers["ie.build_ms"] = ms(median(tracer.durations("ie.build")))
    tracer.close()
    out["layers"] = layers
    out["spans"] = tracer.spans
    sys.stdout.buffer.write(pickle.dumps(out))


if __name__ == "__main__":
    main()
