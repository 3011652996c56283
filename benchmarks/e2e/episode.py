"""One episode: a fresh interpreter that builds the world and runs the
three closed-loop phases, timing only the calls into ``Session.execute``
/ ``AnytimeCursor.refine`` / ``ServerSession.execute``.

Started by ``run.py`` as ``python episode.py '<json config>'``; the
result (timings, marginal-count frames, failures) goes back pickled on
stdout.  Loss bookkeeping happens between calls, off the clock, and the
loss itself is computed by the parent once every episode has finished
(the reference for one episode is the pooled samples of the others).
"""

from __future__ import annotations

import asyncio
import gc
import json
import pickle
import resource
import sys
import time
from array import array
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))

clock = time.perf_counter


class CountLog:
    """Marginal-count frames in compact form: one shared row index and,
    per frame, the sample count ``z`` with an int array aligned to it
    (bookkeeping must not inflate the episode's peak RSS)."""

    def __init__(self) -> None:
        self.index: Dict[tuple, int] = {}
        self.frames: List[Tuple[int, array]] = []

    def add(self, counts: Dict[tuple, int], z: int) -> int:
        index = self.index
        for row in counts:
            if row not in index:
                index[row] = len(index)
        frame = array("q", bytes(8 * len(index)))
        for row, count in counts.items():
            frame[index[row]] = count
        self.frames.append((z, frame))
        return len(self.frames) - 1

    def export(self) -> Dict[str, Any]:
        return {"rows": list(self.index), "frames": self.frames}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def initial_answer(snapshot, headline: str) -> List[tuple]:
    """The single-sample approximation: the headline's answer on the
    initial world, evaluated off the clock on a throwaway copy so the
    measured session's plan cache stays cold."""
    import repro
    from repro.db.database import Database

    scratch = repro.connect(Database.from_snapshot(snapshot, "initial"))
    rows = scratch.execute(headline).fetchall()
    scratch.close()
    return sorted(set(rows))


def check_adhoc(op, rows) -> str | None:
    if len(rows) != 1 or tuple(rows[0]) != tuple(op.expect):
        return f"adhoc read returned {rows!r}, expected {op.expect!r}: {op.sql}"
    return None


# ----------------------------------------------------------------------
# Session workloads
# ----------------------------------------------------------------------
def run_session_phases(workload, world, script, out: Dict[str, Any]) -> None:
    session = world.session
    log = CountLog()
    # (seconds, samples run, (stream, frame) of the headline's marginals
    # or None, seconds inside the evaluator as the cursor reports them)
    calls: List[Tuple[float, int, Tuple[int, int] | None, float]] = []
    failures: List[str] = out["failures"]

    # Phases A+B: cold headline, then every refined query round-robin
    # in chunks of c up to N samples each.
    gc.collect()
    cursors: Dict[str, Any] = {}
    c, done = workload.first_chunk, 0
    while done < workload.total:
        for sql in workload.refine:
            started = clock()
            if sql in cursors:
                cursors[sql].refine(c)
            else:
                cursors[sql] = session.execute(sql, samples=c)
            elapsed = clock() - started
            frame = None
            if sql == workload.headline:
                estimator = cursors[sql].marginals()
                frame = (0, log.add(estimator.counts(), estimator.num_samples))
            calls.append((elapsed, c, frame, cursors[sql].wall_elapsed))
        done += c
        c = workload.chunk
    out["calls"] = calls
    out["streams"] = {0: log.export()}
    out["mcmc"] = {
        "proposals": world.chain.stats.proposals,
        "accepted": world.chain.stats.accepted,
    }
    del cursors

    # Phase C: the statement stream on the now-warm session.
    gc.collect()
    ops: List[Tuple[str, float]] = []
    for op in script:
        try:
            started = clock()
            cursor = session.execute(op.sql, samples=op.samples)
            elapsed = clock() - started
        except Exception as exc:  # a failed operation, counted not raised
            failures.append(f"{op.kind} raised {type(exc).__name__}: {exc}")
            ops.append((op.kind, float("nan")))
            continue
        ops.append((op.kind, elapsed))
        if op.kind == "adhoc":
            problem = check_adhoc(op, cursor.fetchall())
            if problem:
                failures.append(problem)
    out["ops"] = [ops]
    out["phase_c_wall"] = sum(t for _, t in ops if t == t)  # NaN = failed


# ----------------------------------------------------------------------
# Served workload
# ----------------------------------------------------------------------
async def run_served_phases(workload, world, scripts, out: Dict[str, Any]) -> None:
    from repro.serve import ReproServer

    server = ReproServer(
        world.session,
        workers=workload.workers,
        chain_factory=None,  # the factory attached to the engine session
        cache_size=256,
        max_pending=128,
        per_tenant=8,
        queue_timeout=60.0,
        max_concurrent=None,
        keepalive_s=None,
    )
    started = clock()
    await server.start()
    out["setup_s"] += clock() - started
    gc.collect()
    failures: List[str] = out["failures"]
    try:
        # Phases A+B: one client asks for ever deeper marginals
        # (samples = c, 2c, 3c, ...); a request the marginal cache can
        # already satisfy is a hit, every other one leases a worker.
        # Leases alternate between the two workers (FIFO pool), so the
        # responses interleave two chains: frames are kept per chain.
        client = server.session("phase-ab")
        logs = [CountLog() for _ in range(workload.workers)]
        depth = [0] * workload.workers
        calls: List[Tuple[float, int, Tuple[int, int], float]] = []
        last: Tuple[int, int] | None = None
        misses = 0
        for j in range(1, workload.requests + 1):
            asked = workload.chunk * j
            started = clock()
            result = await client.execute(workload.headline, samples=asked)
            elapsed = clock() - started
            if result.cached:
                if last is None:
                    failures.append("first served request was a cache hit")
                    continue
                calls.append((elapsed, 0, last, result.wall_ms / 1e3))
                continue
            chain = misses % workload.workers
            misses += 1
            expected = depth[chain] + asked + (1 if depth[chain] == 0 else 0)
            if result.samples != expected:
                failures.append(
                    f"request {j}: {result.samples} samples, expected {expected} "
                    "(worker lease order is not the FIFO alternation assumed)"
                )
            depth[chain] = result.samples
            counts = {
                tuple(row[:-1]): round(row[-1] * result.samples)
                for row in result.rows
            }
            last = (chain, logs[chain].add(counts, result.samples))
            calls.append((elapsed, asked, last, result.wall_ms / 1e3))
        client.close()
        out["calls"] = calls
        out["streams"] = {i: log.export() for i, log in enumerate(logs)}

        # Phase C: closed-loop clients in lockstep.  Each step, every
        # client issues its statement of the (shared) kind and all wait
        # for all replies, so a statement always runs beside the same
        # kind of concurrent statement: free-running clients race, and
        # which of them pays for a snapshot, replica or rebase after a
        # write then differs from run to run.
        gc.collect()
        lags: List[float] = []
        handles = [server.session(f"client-{i}") for i in range(workload.clients)]
        ops: List[List[Tuple[str, float]]] = [[] for _ in handles]

        async def issue(index: int, op) -> None:
            floor = server.version
            try:
                started = clock()
                result = await handles[index].execute(op.sql, samples=op.samples)
                elapsed = clock() - started
            except Exception as exc:
                failures.append(f"{op.kind} raised {type(exc).__name__}: {exc}")
                ops[index].append((op.kind, float("nan")))
                return
            kind = op.kind
            if op.samples is not None:
                kind += ":hit" if result.cached else ":miss"
            ops[index].append((kind, elapsed))
            lags.append(elapsed * 1e3 - result.wall_ms)
            if result.db_version < floor:
                failures.append(
                    f"stale read: version {result.db_version} < observed {floor}"
                )
            if op.kind == "adhoc":
                problem = check_adhoc(op, result.rows)
                if problem:
                    failures.append(problem)

        started = clock()
        for step in zip(*scripts):
            await asyncio.gather(*(issue(i, op) for i, op in enumerate(step)))
        out["phase_c_wall"] = clock() - started
        out["ops"] = ops
        for handle in handles:
            handle.close()
        out["loop_lag_ms"] = lags
        info = server.cache.info()
        out["serve_cache"] = {"hits": info.hits, "misses": info.misses}
    finally:
        await server.drain()


# ----------------------------------------------------------------------
def main() -> None:
    config = json.loads(sys.argv[1])
    import workloads as W

    workload = W.WORKLOADS[config["workload"]]
    seed, episode = config["seed"], config["episode"]
    world = W.build_world(workload, seed, episode)
    # Interpreter start -> ready to issue the first statement (a served
    # world adds its server start).  Bookkeeping below is off the clock.
    out: Dict[str, Any] = {
        "episode": episode,
        "failures": [],
        "setup_s": time.time() - config["spawned_at"],
    }
    snapshot = world.db.snapshot()
    scripts = [
        W.stream_script(workload, world, seed, episode, client) if config["stream"] else []
        for client in range(workload.clients)
    ]
    if workload.served and not config["plain"]:
        asyncio.run(run_served_phases(workload, world, scripts, out))
    else:
        run_session_phases(workload, world, scripts[0], out)
    out["peak_rss_mb"] = peak_rss_mb()
    world.session.close()
    out["initial_answer"] = initial_answer(snapshot, workload.headline)
    sys.stdout.buffer.write(pickle.dumps(out))


if __name__ == "__main__":
    main()
