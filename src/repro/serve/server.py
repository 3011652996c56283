"""The asyncio serving front-end: one engine, many tenants.

:class:`ReproServer` turns a single-owner
:class:`~repro.api.session.Session` (the *engine*: database + attached
model + live-repair routing) into a multi-tenant service:

* **writes** (DML/DDL) are serialized through one asyncio lock onto the
  engine session, so PR-5's repair-or-invalidate routing runs exactly
  as in the single-owner case and every commit bumps
  :attr:`~repro.db.database.Database.version`;
* **deterministic reads** run against a copy-on-write *read replica* —
  a database rebuilt from the committed snapshot of the version the
  read observed — off the engine lock, so reads never block writes;
* **probabilistic reads** first consult the shared
  :class:`~repro.serve.cache.MarginalCache` keyed by
  ``(plan fingerprint, version)``; on a miss they lease a
  :class:`~repro.serve.pool.ChainWorker`, rebasing it when its snapshot
  version lags the observed version, and publish the refined marginals
  back to the cache;
* **admission** gates everything: bounded queue, per-tenant caps,
  timeout shedding (:mod:`repro.serve.admission`).

Consistency contract (asserted by ``tests/serve`` and the serving
bench): a result's ``db_version`` is the latest committed version at
the moment the statement was admitted, the whole read executes against
exactly that version, and no cached marginal computed against an older
version is ever served to it — zero stale reads, by key construction.

Shutdown is graceful: :meth:`drain` stops admitting, waits for
in-flight statements, then closes the pool.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, Optional, Tuple

from repro.api.session import Session
from repro.db.database import Database, Snapshot
from repro.db.ra.eval import evaluate_rows
from repro.errors import EvaluationError, ServeOverloadError
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.faults import FaultPlan
from repro.serve.admission import AdmissionController
from repro.serve.cache import MarginalCache
from repro.serve.pool import WorkerPool
from repro.serve.session import ServeResult, ServerSession

__all__ = ["ReproServer"]


class ReproServer:
    """Multi-tenant async serving layer over one engine session.

    Parameters
    ----------
    engine:
        An open :class:`~repro.api.session.Session` with its model
        attached.  The server becomes the session's single owner —
        driving it directly while the server runs trips the session's
        busy guard by design.
    workers:
        Resident chain workers in the shared pool.
    chain_factory:
        Factory with ``rebased(snapshot)`` building ``(db, chain)``
        per worker; defaults to the factory attached to the engine.
    cache_size, max_pending, per_tenant, queue_timeout, max_concurrent,
    keepalive_s:
        Knobs forwarded to the marginal cache, admission controller and
        worker pool (see their modules).
    breaker:
        Circuit breaker guarding the probabilistic path.  Consecutive
        worker failures trip it open; while open, probabilistic reads
        are served *degraded* from the newest stale cached marginals
        (``ServeResult.degraded=True``) or shed with
        ``reason="degraded"`` when no usable entry exists.  Defaults to
        a :class:`~repro.resilience.breaker.CircuitBreaker` with its
        stock threshold/cooldown; pass an instance to tune or to inject
        a fake clock in tests.
    stale_max_lag:
        In degraded mode, serve a cached entry at most this many
        committed versions behind the observed version (``None`` = any
        older entry qualifies).
    fault_plan:
        Seeded chaos plan forwarded to the worker pool (tests only).
    """

    def __init__(
        self,
        engine: Session,
        *,
        workers: int = 2,
        chain_factory: Any = None,
        cache_size: int = 256,
        max_pending: int = 128,
        per_tenant: int = 8,
        queue_timeout: float = 5.0,
        max_concurrent: Optional[int] = None,
        keepalive_s: Optional[float] = None,
        breaker: Optional[CircuitBreaker] = None,
        stale_max_lag: Optional[int] = None,
        fault_plan: Optional[FaultPlan] = None,
    ):
        factory = chain_factory if chain_factory is not None else engine._chain_factory
        if factory is None:
            raise EvaluationError(
                "ReproServer needs a chain factory for its worker pool; "
                "attach one to the engine session (attach_model(..., "
                "chain_factory=task.chain_factory())) or pass chain_factory="
            )
        self.engine = engine
        self.pool = WorkerPool(
            factory, workers, keepalive_s=keepalive_s, fault_plan=fault_plan
        )
        self.cache = MarginalCache(cache_size)
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.stale_max_lag = stale_max_lag
        self.admission = AdmissionController(
            max_pending=max_pending,
            per_tenant=per_tenant,
            queue_timeout=queue_timeout,
            max_concurrent=max_concurrent,
        )
        self.queue_timeout = queue_timeout
        self._engine_lock = asyncio.Lock()
        self._snapshot: Optional[Snapshot] = None
        self._replica: Optional[Database] = None
        self._started = False
        self._draining = False
        self._in_flight = 0
        self._idle_event: Optional[asyncio.Event] = None
        self._reaper: "Optional[asyncio.Task[None]]" = None
        self._sessions: list[ServerSession] = []
        self.served = {"query": 0, "probabilistic": 0, "dml": 0, "ddl": 0}
        self.commits = 0
        self.shed_shutdown = 0
        self.degraded_served = 0
        self.shed_degraded = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "ReproServer":
        """Build the worker pool from the current committed world."""
        if self._started:
            raise EvaluationError("server already started")
        self._idle_event = asyncio.Event()
        self._idle_event.set()
        async with self._engine_lock:
            # Off the loop: snapshotting copies the whole database.
            snapshot = await asyncio.to_thread(self.engine.database.snapshot)
            self._snapshot = snapshot
        await asyncio.to_thread(self.pool.start, snapshot)
        if self.pool.keepalive_s is not None:
            self._reaper = asyncio.create_task(self._reap_loop())
        self._started = True
        return self

    async def _reap_loop(self) -> None:
        interval = max(self.pool.keepalive_s / 2, 0.05)
        while True:
            await asyncio.sleep(interval)
            self.pool.reap_idle()

    async def drain(self) -> None:
        """Graceful shutdown: refuse new statements, wait for every
        in-flight one, then release the pool."""
        self._draining = True
        if self._idle_event is not None:
            await self._idle_event.wait()
        if self._reaper is not None:
            self._reaper.cancel()
            try:
                await self._reaper
            except asyncio.CancelledError:
                pass
            self._reaper = None
        self.pool.close()

    async def __aenter__(self) -> "ReproServer":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.drain()

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------
    def session(self, tenant: str = "default") -> ServerSession:
        """A new per-client handle (cheap; no engine state)."""
        handle = ServerSession(self, tenant)
        self._sessions.append(handle)
        return handle

    def _forget_session(self, handle: ServerSession) -> None:
        try:
            self._sessions.remove(handle)
        except ValueError:
            pass

    @property
    def version(self) -> int:
        """The latest committed database version."""
        return self.engine.database.version

    # ------------------------------------------------------------------
    # Statement serving
    # ------------------------------------------------------------------
    async def _serve(
        self,
        tenant: str,
        sql: str,
        *,
        samples: Optional[int] = None,
        burn_in: int = 0,
    ) -> ServeResult:
        if not self._started:
            raise EvaluationError("server not started; call start() first")
        if self._draining:
            self.shed_shutdown += 1
            raise ServeOverloadError(
                "server is draining and accepts no new statements",
                reason="shutdown",
            )
        started = time.perf_counter()
        async with self.admission.admit(tenant):
            self._in_flight += 1
            self._idle_event.clear()
            try:
                result = await self._dispatch(
                    tenant, sql, samples=samples, burn_in=burn_in
                )
            finally:
                self._in_flight -= 1
                if self._in_flight == 0:
                    self._idle_event.set()
        result.wall_ms = (time.perf_counter() - started) * 1000.0
        result.tenant = tenant
        self.served[result.kind] = self.served.get(result.kind, 0) + 1
        return result

    async def _dispatch(
        self, tenant: str, sql: str, *, samples: Optional[int], burn_in: int
    ) -> ServeResult:
        kind = self.engine.classify(sql)
        if kind in ("ddl", "dml"):
            return await self._serve_write(sql)
        if samples is None:
            return await self._serve_read(sql)
        return await self._serve_probabilistic(sql, samples, burn_in)

    # -- writes ---------------------------------------------------------
    async def _serve_write(self, sql: str) -> ServeResult:
        async with self._engine_lock:
            cursor = await asyncio.to_thread(self.engine.execute, sql)
            version = self.engine.database.version
            # The committed world moved: drop the cached snapshot and
            # read replica, eagerly free now-unreachable marginals, and
            # let the pool build future replacements from a fresh copy.
            # With stale_max_lag set, a window of recent versions is
            # kept alive — unreachable for normal reads (keyed lookups
            # still miss) but servable by degraded mode.
            self._snapshot = None
            self._replica = None
            floor = (
                version
                if self.stale_max_lag is None
                else version - self.stale_max_lag
            )
            self.cache.invalidate_below(floor)
            self.commits += 1
        return ServeResult(
            kind=cursor.statement_kind,
            db_version=version,
            rowcount=cursor.rowcount,
        )

    def _committed_state(self) -> Tuple[int, Snapshot]:
        """(version, snapshot) of the committed world — call only while
        holding the engine lock so the pair is atomic."""
        if self._snapshot is None or self._snapshot.version != self.engine.database.version:
            self._snapshot = self.engine.database.snapshot()
            self.pool.note_snapshot(self._snapshot)
        return self._snapshot.version, self._snapshot

    # -- deterministic reads -------------------------------------------
    async def _serve_read(self, sql: str) -> ServeResult:
        async with self._engine_lock:
            # repro-lint: disable=RL004 -- _route is a plan-cache hit
            # (lexes only new text, parses only a new shape) and must
            # run under the engine lock so (plan, version) stay atomic.
            _, _, planned = self.engine._route(sql)
            plan = planned.plan
            version, snapshot = self._committed_state()
            if self._replica is None or self._replica.version != version:
                # Copy-on-write read replica: all deterministic reads
                # at this version share one rebuilt database and run
                # off the engine lock, so they never block writes and
                # never observe a write mid-statement.
                self._replica = await asyncio.to_thread(
                    Database.from_snapshot, snapshot, "read-replica"
                )
            replica = self._replica
        rows = await asyncio.to_thread(evaluate_rows, plan, replica)
        return ServeResult(
            kind="query",
            db_version=version,
            rows=tuple(rows),
            columns=tuple(a.name for a in plan.schema.attributes),
            rowcount=len(rows),
        )

    # -- probabilistic reads -------------------------------------------
    async def _serve_probabilistic(
        self, sql: str, samples: int, burn_in: int
    ) -> ServeResult:
        async with self._engine_lock:
            # repro-lint: disable=RL004 -- _route is a plan-cache hit
            # (lexes only new text, parses only a new shape) and must
            # run under the engine lock so (fingerprint, version) stay atomic.
            fingerprint, kind, planned = self.engine._route(sql)
            if kind != "query":
                raise EvaluationError(
                    f"only SELECT can be evaluated probabilistically ({kind})"
                )
            # Projection pruning gives the compiled tree's answers on
            # every world, so the plan a statement runs is a function
            # of its text: the shared marginal cache can stay keyed on
            # the normalized SQL fingerprint alone.
            plan = planned.plan
            version, snapshot = self._committed_state()
        columns = tuple(a.name for a in plan.schema.attributes) + ("probability",)
        cached = self.cache.get(fingerprint, version, min_samples=samples)
        if cached is not None:
            return ServeResult(
                kind="probabilistic",
                db_version=version,
                rows=cached.rows,
                columns=columns,
                rowcount=len(cached.rows),
                samples=cached.samples,
                cached=True,
            )
        if not self.breaker.allow():
            return self._degraded_result(fingerprint, version, columns)
        worker = await self.pool.acquire(timeout=self.queue_timeout)
        try:
            if worker.version != version:
                # The worker's world predates (or, after an engine-side
                # restore, postdates) the version this read observed:
                # rebase its copy-on-write world onto the observed
                # snapshot before sampling.
                await asyncio.to_thread(worker.rebase, snapshot)
            run = await asyncio.to_thread(
                worker.run, fingerprint, plan, samples, burn_in
            )
        except Exception:
            # Worker-path failure (poisoned worker, rebase error):
            # feed the breaker so repeated failures open it and route
            # subsequent reads into degraded mode instead of burning a
            # worker per request.
            self.breaker.record_failure()
            raise
        finally:
            self.pool.release(worker)
        self.breaker.record_success()
        self.cache.put(fingerprint, version, run.rows, run.samples)
        return ServeResult(
            kind="probabilistic",
            db_version=version,
            rows=run.rows,
            columns=columns,
            rowcount=len(run.rows),
            samples=run.samples,
        )

    def _degraded_result(
        self, fingerprint: str, version: int, columns: Tuple[str, ...]
    ) -> ServeResult:
        """Breaker-open fallback: the newest stale cached marginals for
        this plan (bounded by ``stale_max_lag``), marked ``degraded``;
        shed with ``reason="degraded"`` when nothing usable is cached."""
        stale = self.cache.get_stale(
            fingerprint, version, max_lag=self.stale_max_lag
        )
        if stale is None:
            self.shed_degraded += 1
            raise ServeOverloadError(
                "probabilistic path is degraded (circuit breaker open) "
                "and no stale cached marginals are available",
                reason="degraded",
            )
        self.degraded_served += 1
        return ServeResult(
            kind="probabilistic",
            db_version=version,
            rows=stale.rows,
            columns=columns,
            rowcount=len(stale.rows),
            samples=stale.samples,
            cached=True,
            degraded=True,
        )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """One aggregated observability snapshot of the whole server:
        engine session stats (plan cache, runners, version), marginal
        cache counters, pool liveness, admission counters, and served
        totals — the serve-layer half of ISSUE 6's observability
        satellite."""
        return {
            "engine": self.engine.stats(),
            "marginal_cache": self.cache.info()._asdict(),
            "pool": self.pool.stats(),
            "admission": self.admission.stats(),
            "served": dict(self.served),
            "commits": self.commits,
            "shed_shutdown": self.shed_shutdown,
            "breaker": self.breaker.stats(),
            "degraded_served": self.degraded_served,
            "shed_degraded": self.shed_degraded,
            "in_flight": self._in_flight,
            "sessions": len(self._sessions),
            "draining": self._draining,
        }
