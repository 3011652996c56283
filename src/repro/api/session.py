"""``repro.connect()`` — the unified probabilistic-SQL session.

The paper's thesis is that a factor graph plus MCMC can sit *behind* an
ordinary relational query interface.  :class:`Session` is that front
door: one object that answers every statement class from SQL strings —

* **DDL** — ``CREATE TABLE`` / ``DROP TABLE`` manage the schema;
* **DML** — ``INSERT`` / ``UPDATE`` / ``DELETE`` mutate the stored
  possible world (observed by any attached delta recorders).  When the
  attached model is live-capable, the statement's delta additionally
  *repairs* the factor graph in place — chain state for untouched
  variables carries over — while runners holding independent world
  copies (parallel/sharded) are invalidated and rebuilt from the
  updated database on their next execution (see
  :mod:`repro.core.live`);
* **deterministic queries** — ``SELECT`` evaluated once against the
  current world;
* **probabilistic queries** — the same ``SELECT`` executed with
  ``samples=N`` routes through the MCMC evaluators of
  :mod:`repro.core` and returns an anytime cursor of tuple marginals.

Compiled plans are cached by normalized SQL, so repeated execution of
the same statement skips the parser and compiler entirely; probabilistic
runners (and their materialized view state) are cached the same way, so
re-executing a probabilistic query *continues* the chain rather than
restarting it.

Typical usage::

    import repro

    session = repro.connect()
    session.execute("CREATE TABLE CITY (NAME TEXT PRIMARY KEY, POP INT)")
    session.execute("INSERT INTO CITY VALUES ('Boston', 675)")
    for row in session.execute("SELECT NAME FROM CITY WHERE POP > 100"):
        print(row)

    # Probabilistic evaluation requires an attached model/chain:
    session.attach_model(instance)          # anything with a .chain
    cursor = session.execute(query, samples=100)
    for *row, probability in cursor:
        print(row, probability)
    cursor.refine(400)                       # anytime: sharpen in place

    # Parallel chains, one worker process per chain (§5.4):
    session.attach_model(chain_factory=task.chain_factory())
    cursor = session.execute(query, samples=100, chains=4, backend="process")
    cursor.refine(400)                       # refinement fans out too
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Optional, Tuple

from repro.api.cursor import AnytimeCursor, Cursor
from repro.api.plan_cache import CacheInfo, PlanCache, normalize_sql
from repro.core.backends import make_backend, validate_backend_name
from repro.core.evaluator import EvaluationResult, QueryEvaluator
from repro.core.live import IncrementalEvaluator, LiveRunner, resolve_live_model
from repro.core.materialized import MaterializedEvaluator
from repro.core.naive import NaiveEvaluator
from repro.core.sharded import ShardChainFactory, ShardedEvaluator
from repro.db.database import Database
from repro.db.delta import Delta
from repro.db.shard import Partitioner, stable_hash
from repro.db.ra.ast import PlanNode
from repro.db.ra.eval import evaluate_rows
from repro.db.ra.planner import PlannedQuery, Planner, default_planner
from repro.db.sql.ast import SelectStmt, Statement
from repro.db.sql.compiler import compile_select
from repro.db.sql.executor import execute_dml, execute_statement
from repro.db.sql.parser import parse_script, parse_statement
from repro.errors import EvaluationError, QueryError, SessionBusyError
from repro.fg.graph import GraphRepair
from repro.mcmc.chain import MarkovChain
from repro.mcmc.metropolis import MetropolisHastings
from repro.mcmc.proposal import UniformLabelProposer
from repro.mcmc.targeted import MixtureProposer, PlanRestriction, plan_restriction
from repro.resilience import ResilienceConfig

__all__ = ["Session", "connect"]

# Builds one chain's world and sampler for parallel evaluation:
# ``factory(index) -> (database_copy, chain)``.
ChainFactory = Callable[[int], Tuple[Database, MarkovChain]]

_EVALUATOR_CLASSES = {
    "materialized": MaterializedEvaluator,
    "naive": NaiveEvaluator,
}


def connect(
    database: Optional[Database] = None,
    *,
    name: str = "pdb",
    plan_cache_size: int = 128,
    planner: Optional[Planner] = None,
) -> "Session":
    """Open a :class:`Session` over ``database`` (or a fresh one)."""
    return Session(
        database, name=name, plan_cache_size=plan_cache_size, planner=planner
    )


class _ChainRunner:
    """Drives one query evaluator; the initial world is counted as a
    sample only on the first run (later runs extend the same chain)."""

    def __init__(self, evaluator: QueryEvaluator, targeted: bool = False):
        self.evaluator = evaluator
        # A targeted runner samples a restricted (query-relevant)
        # variable subset; its restriction is derived from the stored
        # deterministic columns, so DML always disposes it instead of
        # repairing (the restriction itself may be stale).
        self.targeted = targeted
        self._first = True
        self._closed = False

    def run(self, samples: int, burn_in: int = 0) -> EvaluationResult:
        if self._closed:
            # A disposed runner's recorder is gone, so its materialized
            # views missed every mutation since — reviving it would
            # serve pre-update answers.  Mirror the closed parallel
            # backends: orphaned cursors must re-execute, not refine.
            raise EvaluationError(
                "this runner was invalidated (DDL/DML or session close); "
                "re-execute the query for up-to-date marginals"
            )
        include_initial = self._first
        self._first = False
        return self.evaluator.run(
            samples, include_initial_sample=include_initial, burn_in=burn_in
        )

    def notify_repair(self, repair: GraphRepair) -> None:
        """Re-pool after a live graph repair: the posterior changed, so
        pre-update samples are dropped in place (cursors already issued
        observe the reset) and the repaired world counts as the fresh
        initial sample on the next run."""
        self.evaluator.notify_repair(repair)
        self._first = True

    def dispose(self) -> None:
        self._closed = True
        detach = getattr(self.evaluator, "detach", None)
        if detach is not None:
            detach()


class _ParallelRunner:
    """Drives K independent chains (each its own world copy via the
    chain factory) through a persistent execution backend and pools
    their marginal estimates (paper §5.4).

    Deliberately not :class:`repro.core.parallel.ParallelEvaluator`:
    that class rebuilds its chains on every ``run()`` (restart
    semantics), while an anytime cursor needs the chain state — the
    materialized views in-process, or the worker processes of the
    ``process`` backend — to persist across ``refine()`` calls so later
    runs continue the same chains."""

    def __init__(
        self,
        factory: ChainFactory,
        sql: str,
        plan: PlanNode,
        chains: int,
        backend: str,
        evaluator_cls: type = MaterializedEvaluator,
        resilience: Optional[ResilienceConfig] = None,
    ):
        self.backend = make_backend(backend, resilience=resilience)
        # In-process chains reuse the compiled plan; worker processes
        # receive the SQL text and compile against their own world copy
        # (plans are not part of the pickled snapshot contract).
        query = plan if backend == "sequential" else sql
        self.backend.start(factory, chains, [query], evaluator_cls)
        self._first = True

    def run(self, samples: int, burn_in: int = 0) -> EvaluationResult:
        include_initial = self._first
        self._first = False
        return self.backend.run(
            samples, burn_in=burn_in, include_initial=include_initial
        )

    def dispose(self) -> None:
        self.backend.close()


class _ShardedRunner:
    """Drives K database shards × M chains through a persistent
    :class:`~repro.core.sharded.ShardedEvaluator` (the data-parallel
    axis of the paper's Fig. 5).  Like :class:`_ParallelRunner`, the
    evaluator — and under ``backend="process"`` its K×M worker
    processes — stays alive across ``run()`` calls so anytime
    refinement continues the same per-shard chains."""

    def __init__(
        self,
        database: Database,
        shard_factory: ShardChainFactory,
        sql: str,
        plan: PlanNode,
        shards: int,
        chains: int,
        backend: str,
        evaluator_cls: type = MaterializedEvaluator,
        partitioner: Optional[Partitioner] = None,
        validate_graph: Any = None,
        resilience: Optional[ResilienceConfig] = None,
    ):
        # In-process units reuse the compiled plan; worker processes
        # receive the SQL text and compile against their own shard copy
        # (plans are not part of the pickled snapshot contract).
        query = plan if backend == "sequential" else sql
        self.evaluator = ShardedEvaluator(
            database,
            shard_factory,
            [query],
            shards,
            partitioner=partitioner,
            chains=chains,
            backend=backend,
            evaluator_cls=evaluator_cls,
            validate_graph=validate_graph,
            resilience=resilience,
        )
        self._first = True

    @property
    def backend(self):
        """The underlying chain backend (exposed so Session.execute's
        crash eviction treats sharded and parallel runners alike)."""
        return self.evaluator.backend

    def run(self, samples: int, burn_in: int = 0) -> EvaluationResult:
        include_initial = self._first
        self._first = False
        return self.evaluator.run(
            samples, burn_in=burn_in, include_initial=include_initial
        )

    def dispose(self) -> None:
        self.evaluator.close()


def _dispose_runner(runner: Any) -> None:
    """Release a runner's resources (delta recorders in-process, worker
    processes for the multiprocess backend)."""
    runner.dispose()


class Session:
    """A connection-like handle over one probabilistic database.

    Parameters
    ----------
    database:
        An existing :class:`~repro.db.database.Database` to adopt, or
        ``None`` to create an empty one named ``name``.
    plan_cache_size:
        LRU bound of the compiled-plan cache.
    """

    def __init__(
        self,
        database: Optional[Database] = None,
        *,
        name: str = "pdb",
        plan_cache_size: int = 128,
        planner: Optional[Planner] = None,
    ):
        self.database = database if database is not None else Database(name)
        self._planner = planner if planner is not None else default_planner()
        self._plans = PlanCache(plan_cache_size)
        self._runners: dict[tuple, Any] = {}
        self._model: Any = None
        self._chain: Optional[MarkovChain] = None
        self._chain_factory: Optional[ChainFactory] = None
        self._shard_factory: Optional[ShardChainFactory] = None
        self._live: Optional[LiveRunner] = None
        self._closed = False
        # Single-owner guard: a session is not a concurrent object (its
        # runner cache, plan cache and live state are all unlocked), so
        # overlapping execute() calls — a second thread, or re-entry
        # from a callback mid-statement — fail fast instead of silently
        # corrupting shared state.  threading.Lock (non-reentrant) is
        # exactly the semantics: the owner itself trips it on re-entry.
        self._exec_guard = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Detach evaluators and refuse further statements."""
        for runner in self._runners.values():
            _dispose_runner(runner)
        self._runners.clear()
        self._plans.clear()
        self._closed = True

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise EvaluationError("session is closed")

    def _acquire_guard(self) -> None:
        """Claim the single-owner execution guard or raise.

        Non-blocking on purpose: an overlapping statement is a bug in
        the caller, not contention to wait out.  Concurrent clients
        belong on :mod:`repro.serve`, which serializes engine access
        and multiplexes tenants onto leased workers.
        """
        if not self._exec_guard.acquire(blocking=False):
            raise SessionBusyError(
                "Session.execute called while another statement is still "
                "executing (second thread or re-entrant call); a Session "
                "is single-owner — use repro.serve for concurrent clients"
            )

    # ------------------------------------------------------------------
    # Model attachment
    # ------------------------------------------------------------------
    def attach_model(
        self,
        model: Any = None,
        *,
        chain: Optional[MarkovChain] = None,
        chain_factory: Optional[ChainFactory] = None,
        shard_factory: Optional[ShardChainFactory] = None,
    ) -> "Session":
        """Register the generative side of the probabilistic database.

        ``model`` may be anything exposing a ``chain`` attribute (a
        :class:`~repro.ie.ner.pdb.NerInstance`, a coref pipeline, ...)
        or a bare :class:`~repro.mcmc.chain.MarkovChain`.  The chain
        must mutate *this* session's database.  ``chain_factory`` —
        ``factory(i) -> (db_copy, chain)`` — additionally enables
        ``evaluator="parallel"`` execution over independent world
        copies.  ``shard_factory`` — ``factory(shard_db, seed) ->
        chain``, typically ``task.shard_chain_factory()`` — enables
        ``execute(..., shards=K)``: data-parallel evaluation over K
        database shards along the factory's declared shard key.

        Returns ``self`` so the call chains off :func:`connect`.
        """
        self._check_open()
        if isinstance(model, MarkovChain) and chain is None:
            model, chain = None, model
        if chain is None and model is not None:
            chain = getattr(model, "chain", None)
        if chain is None and chain_factory is None and shard_factory is None:
            raise EvaluationError(
                "attach_model() needs a chain (or an object with a .chain), "
                "a chain_factory, or a shard_factory"
            )
        model_db = getattr(model, "db", None)
        if chain is not None and model_db is not None and model_db is not self.database:
            raise EvaluationError(
                "the attached model's database is not this session's database; "
                "connect(model.db) first"
            )
        if chain is not None and chain is not self._chain:
            self._chain = chain
            self._drop_runners(parallel=False)
        if chain_factory is not None and chain_factory is not self._chain_factory:
            self._chain_factory = chain_factory
            self._drop_runners(kinds=("parallel",))
        if shard_factory is not None and shard_factory is not self._shard_factory:
            self._shard_factory = shard_factory
            self._drop_runners(kinds=("sharded",))
        if model is not None:
            self._model = model
        # Live updates: when the attached model can repair its factor
        # graph from DML deltas, DML on this session repairs in place
        # (chain carryover) instead of invalidating everything.  The
        # chain's kernel must expose a resyncable ``proposer`` (Gibbs
        # keeps a private variable snapshot no repair can refresh) —
        # anything else falls back to plain invalidation.
        live_model = (
            resolve_live_model(self._model) if self._model is not None else None
        )
        kernel = getattr(self._chain, "kernel", None)
        if (
            self._chain is not None
            and live_model is not None
            and getattr(kernel, "proposer", None) is not None
        ):
            if (
                self._live is None
                or self._live.model is not live_model
                or self._live.chain is not self._chain
            ):
                self._live = LiveRunner(live_model, self._chain)
        else:
            self._live = None
        return self

    @property
    def model(self) -> Any:
        """The attached model object (``None`` until attach_model)."""
        return self._model

    def _evict_if_dead(self, runner_key: tuple) -> Any:
        """The cached runner for ``runner_key``, evicting it first when
        its backend has closed (a worker crash or timeout mid-refine
        leaves a dead runner in the cache; re-executing the same SQL
        must rebuild fresh chains rather than raise 'backend is
        closed')."""
        runner = self._runners.get(runner_key)
        if runner is None:
            return None
        backend = getattr(runner, "backend", None)
        if backend is not None and backend.closed:
            _dispose_runner(self._runners.pop(runner_key))
            return None
        return runner

    def _drop_runners(
        self, parallel: bool | None = None, kinds: tuple[str, ...] | None = None
    ) -> None:
        """Dispose cached runners by kind.  ``parallel=False`` keeps the
        historical meaning: everything that is *not* multi-world
        (single-chain runners)."""
        if kinds is None:
            multi = ("parallel", "sharded")
            kinds = multi if parallel else tuple(
                k[1] for k in self._runners if k[1] not in multi
            )
        for key in [k for k in self._runners if k[1] in kinds]:
            _dispose_runner(self._runners.pop(key))

    def _after_ddl(self, stmt: Any) -> None:
        """Invalidate cached state after a schema change.

        Plans and runners always go (the historical behavior).  When
        the DDL targets a table the attached model reads — DROP TABLE
        TOKEN under an NER model — the model is now a ghost (its graph
        holds variables for rows that no longer exist), so the live
        state and the attached model/chain are detached too.  This
        applies whether or not the model is live-capable (a Gibbs
        chain over a dropped table is just as much a ghost); a model
        without a ``tables`` declaration is poisoned conservatively on
        any DDL.
        """
        self._plans.clear()
        self._drop_runners(parallel=False)
        self._drop_runners(parallel=True)
        if self._chain is None and self._model is None:
            return
        target = (
            resolve_live_model(self._model)
            if self._model is not None
            else None
        ) or self._model
        declared = {t.lower() for t in getattr(target, "tables", ()) or ()}
        table = getattr(stmt, "table", None)
        if table is None or not declared or table.lower() in declared:
            self._live = None
            self._chain = None
            self._model = None

    # ------------------------------------------------------------------
    # Live updates (DML routing)
    # ------------------------------------------------------------------
    def _after_dml(self, delta: Delta) -> None:
        """Repair-or-invalidate cached probabilistic state after DML.

        The invariant this enforces: **after any world-changing DML, no
        cached runner keeps serving marginals that predate the
        update.**

        * The attached live-capable model (if any) repairs its factor
          graph in place — chain state for untouched variables carries
          over, fresh/touched variables are locally re-burned.
        * Single-chain runners share this session's database: their
          materialized views fold the delta in automatically, so they
          are *re-pooled* (estimators reset, repaired world counted as
          the fresh initial sample) when a repair happened, and
          invalidated otherwise.
        * Parallel and sharded runners hold independent world copies
          (possibly in worker processes) that the DML never reached:
          they are always invalidated.  On the next execution, sharded
          runners re-split the session's current database; parallel
          runners rebuild through the chain factory — from the current
          world when the factory supports ``rebased`` (e.g.
          :class:`~repro.ie.ner.pdb.SeededChainFactory`), otherwise
          from whatever world the factory itself encodes (fresh
          estimators either way; keeping an opaque factory's world
          current is the caller's contract).

        A failed repair invalidates everything and re-raises: the
        cached runners are disposed **and the attached model/chain are
        detached** — repair is not transactional, so a hook that died
        mid-edit leaves the model half-repaired and nothing may keep
        sampling from it.  The DML itself committed (the *model*
        rejected it, not the database); probabilistic execution then
        requires fixing the data or attaching a fresh model, after
        which factory-based parallel/sharded execution rebuilds from
        the current database by itself.
        """
        if delta.is_empty():
            return
        repair = None
        if self._live is not None:
            try:
                repair = self._live.on_dml(delta)
            except Exception:
                self._live = None
                self._chain = None
                self._model = None
                self._drop_runners(parallel=False)
                self._drop_runners(parallel=True)
                raise
        self._drop_runners(parallel=True)
        for key in list(self._runners):  # single-chain runners remain
            runner = self._runners[key]
            if (
                repair is not None
                and hasattr(runner, "notify_repair")
                and not getattr(runner, "targeted", False)
            ):
                runner.notify_repair(repair)
            else:
                # Targeted runners are always disposed: their variable
                # restriction was proved against the *pre-update*
                # deterministic columns, and a repair may have added or
                # removed groups the proof never saw.  Re-execution
                # re-derives the restriction from the current world.
                _dispose_runner(self._runners.pop(key))

    @property
    def live_runner(self) -> Optional[LiveRunner]:
        """The live-update orchestrator for the attached model, or
        ``None`` when the model cannot repair itself from deltas."""
        return self._live

    # ------------------------------------------------------------------
    # Statement routing
    # ------------------------------------------------------------------
    def classify(self, sql: str) -> str:
        """``"ddl"``, ``"dml"`` or ``"query"`` for one statement."""
        return parse_statement(sql).kind

    def _route(self, sql: str) -> tuple[str, str, Any]:
        """Resolve ``sql`` to ``(cache_key, kind, payload)``.

        SELECT payloads are :class:`PlannedQuery` objects (the compiled
        plan plus its planner rewrite), DML payloads parsed statements —
        both served from the plan cache.  DDL is never cached: it
        changes the schema as it executes.

        Every cached entry is stamped with the database's
        :attr:`~repro.db.database.Database.schema_version` at compile
        time and treated as a miss when the stamp has moved on.  The
        session's own DDL clears the cache (:meth:`_after_ddl`), but
        that is not the only route schema can change — direct
        ``db.create_table``/``drop_table`` calls and DDL issued by
        another session sharing this database bypass it entirely, and a
        DROP+CREATE with a different layout would otherwise serve a
        compiled plan reading columns at their old positions.
        """
        key = normalize_sql(sql)
        entry = self._plans.get(key)
        if entry is not None and entry[2] != self.database.schema_version:
            entry = None
        if entry is None:
            stamp = self.database.schema_version
            stmt: Statement = parse_statement(sql)
            if isinstance(stmt, SelectStmt):
                planned = self._planner.plan(compile_select(stmt, self.database))
                entry = ("query", planned, stamp)
                self._plans.put(key, entry)
            elif stmt.kind == "ddl":
                entry = ("ddl", stmt, stamp)
            else:
                entry = ("dml", stmt, stamp)
                self._plans.put(key, entry)
        return key, entry[0], entry[1]

    def explain(self, sql: str) -> str:
        """The planner's rendering of a SELECT: the plan that will run,
        one ``access:`` line per primary-key read (e.g. ``access: TOKEN
        by primary key (TOK_ID = 17)``), the rewrite trace, and — when
        any rule fired — the original compiled tree for comparison."""
        self._check_open()
        key, kind, payload = self._route(sql)
        if kind != "query":
            raise QueryError(f"EXPLAIN applies to SELECT statements ({kind})")
        return payload.explain(self.database)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self,
        sql: str,
        *,
        samples: Optional[int] = None,
        evaluator: str = "materialized",
        chains: int = 1,
        burn_in: int = 0,
        backend: str = "sequential",
        shards: Optional[int] = None,
        partitioner: Optional[Partitioner] = None,
        resilience: Optional[ResilienceConfig] = None,
        optimize: bool = True,
    ) -> Cursor:
        """Execute one SQL statement and return its cursor.

        A session is **single-owner**: overlapping calls (a second
        thread, or re-entry from a callback while a statement is still
        running) raise :class:`~repro.errors.SessionBusyError` instead
        of corrupting cached state.  Concurrent clients are served by
        :mod:`repro.serve`.

        Without ``samples`` a SELECT is deterministic: it runs once
        against the current possible world.  With ``samples=N`` it is
        probabilistic: ``N`` thinned MCMC samples estimate
        ``Pr[t ∈ Q(W)]`` per answer tuple, via the ``evaluator``
        strategy (``"materialized"`` — Algorithm 1, ``"naive"`` —
        Algorithm 3).  ``chains=K`` pools ``K`` independent chains
        (paper §5.4; requires a ``chain_factory`` from
        :meth:`attach_model`), and ``backend`` selects where those
        chains execute: ``"sequential"`` in-process, or ``"process"``
        with one worker process per chain for real wall-clock speedup
        (identical pooled marginals either way for fixed seeds —
        see :mod:`repro.core.backends`).

        ``shards=K`` adds the *data-parallel* axis: the database is
        partitioned into K self-contained sub-databases along the
        attached ``shard_factory``'s shard key (``partitioner``
        overrides the factory's default split; runners are cached by
        the partitioner's content fingerprint, so re-creating an
        equivalent partitioner per call still continues the cached
        shard chains), one factor graph + chain per shard, K ×
        ``chains`` workers in total, with per-shard marginals
        union-merged into the global answer.  Sharding is exact, not an
        approximation: ``shards=1`` is bit-identical to an unsharded
        :class:`MaterializedEvaluator` built from the same shard
        factory and the runner's derived seed (the sharded runner seeds
        its own chains, so it does not reproduce the chain attached for
        plain ``samples=N`` execution — different, equally valid,
        streams).

        Re-executing the same SQL reuses the cached plan and, for
        probabilistic queries, continues the cached runner — in-process
        chains and worker processes alike — so marginals accumulate
        across calls exactly like :meth:`AnytimeCursor.refine`.

        ``optimize=False`` is the planner escape hatch: the query runs
        on the compiled tree exactly as the SQL compiler produced it —
        no rewrite rules, no projection pruning, no factor-graph
        restriction.  The optimizer preserves answers (bit-identical
        deterministic results and, for unoptimized-equivalent plans,
        bit-identical marginals under the same seed), so the flag
        exists for debugging and as the reference the planner
        equivalence tests compare against.

        ``resilience`` supervises the run's chain workers
        (:class:`~repro.resilience.ResilienceConfig`): they checkpoint
        at the configured cadence and a crashed or wedged worker is
        respawned from its last checkpoint — bit-identical marginals,
        no re-burn-in — instead of failing the statement.  Implies the
        chain-factory execution path (like ``chains>1``), so it needs a
        ``chain_factory`` from :meth:`attach_model`.
        """
        self._check_open()
        self._acquire_guard()
        try:
            key, kind, payload = self._route(sql)
            if kind == "ddl":
                execute_statement(self.database, payload)
                self._after_ddl(payload)
                return Cursor(statement_kind="ddl", rowcount=0)
            if kind == "dml":
                rowcount, delta = execute_dml(self.database, payload)
                self._after_dml(delta)
                return Cursor(statement_kind="dml", rowcount=rowcount)

            planned: PlannedQuery = payload
            plan = planned.chosen(optimize)
            if samples is None:
                columns = [
                    (a.name, a.attr_type) for a in plan.schema.attributes
                ]
                return Cursor(
                    statement_kind="query",
                    rows=evaluate_rows(plan, self.database),
                    columns=columns,
                )
            runner = self._prepare_routed(
                key,
                sql,
                planned,
                evaluator,
                chains,
                backend,
                shards,
                partitioner,
                resilience,
                optimize,
            )
            try:
                result = runner.run(samples, burn_in=burn_in)
            except Exception:
                # A runner whose backend died (worker crash/timeout
                # closes it) is unusable; evict it so the next
                # execute() rebuilds fresh chains instead of hitting
                # "backend is closed".
                backend_obj = getattr(runner, "backend", None)
                if backend_obj is not None and backend_obj.closed:
                    for stale in [
                        k for k, r in self._runners.items() if r is runner
                    ]:
                        _dispose_runner(self._runners.pop(stale))
                raise
            columns = [(a.name, a.attr_type) for a in plan.schema.attributes]
            return AnytimeCursor(runner=runner, result=result, columns=columns)
        finally:
            self._exec_guard.release()

    def execute_script(self, sql: str) -> Cursor:
        """Execute a ``;``-separated script; returns the last cursor."""
        self._check_open()
        self._acquire_guard()
        try:
            return self._execute_script_owned(sql)
        finally:
            self._exec_guard.release()

    def _execute_script_owned(self, sql: str) -> Cursor:
        cursor = Cursor(statement_kind="ddl", rowcount=0)
        for stmt in parse_script(sql):
            if isinstance(stmt, SelectStmt):
                # Scripts compile each SELECT fresh against the current
                # schema (a script may have just dropped and recreated
                # a table), but still run it through the planner so a
                # script SELECT executes the same tree as execute().
                plan = self._planner.plan(
                    compile_select(stmt, self.database)
                ).plan
                columns = [(a.name, a.attr_type) for a in plan.schema.attributes]
                cursor = Cursor(
                    statement_kind="query",
                    rows=evaluate_rows(plan, self.database),
                    columns=columns,
                )
            elif stmt.kind == "dml":
                rowcount, delta = execute_dml(self.database, stmt)
                self._after_dml(delta)
                cursor = Cursor(statement_kind="dml", rowcount=rowcount)
            else:
                rowcount = execute_statement(self.database, stmt)
                self._after_ddl(stmt)
                cursor = Cursor(statement_kind=stmt.kind, rowcount=rowcount)
        return cursor

    def prepare(
        self,
        sql: str,
        *,
        evaluator: str = "materialized",
        chains: int = 1,
        backend: str = "sequential",
        shards: Optional[int] = None,
        partitioner: Optional[Partitioner] = None,
        resilience: Optional[ResilienceConfig] = None,
        optimize: bool = True,
    ):
        """The (cached) probabilistic runner for ``sql``.

        Advanced entry point used by the pipeline facades; most callers
        want :meth:`execute` with ``samples=``.
        """
        self._check_open()
        self._acquire_guard()
        try:
            key, kind, planned = self._route(sql)
            if kind != "query":
                raise QueryError(
                    f"only SELECT can be evaluated probabilistically ({kind})"
                )
            return self._prepare_routed(
                key,
                sql,
                planned,
                evaluator,
                chains,
                backend,
                shards,
                partitioner,
                resilience,
                optimize,
            )
        finally:
            self._exec_guard.release()

    def _prepare_routed(
        self,
        key: str,
        sql: str,
        planned: PlannedQuery,
        evaluator: str,
        chains: int,
        backend: str = "sequential",
        shards: Optional[int] = None,
        partitioner: Optional[Partitioner] = None,
        resilience: Optional[ResilienceConfig] = None,
        optimize: bool = True,
    ):
        validate_backend_name(backend)
        plan = planned.chosen(optimize)
        evaluator_cls = _EVALUATOR_CLASSES.get(evaluator, MaterializedEvaluator)
        if evaluator not in _EVALUATOR_CLASSES and evaluator != "parallel":
            raise EvaluationError(
                f"unknown evaluator kind {evaluator!r} "
                f"(expected one of {sorted(_EVALUATOR_CLASSES)} or 'parallel')"
            )
        if shards is not None:
            if self._shard_factory is None:
                raise EvaluationError(
                    "sharded evaluation needs a shard_factory; pass one to "
                    "attach_model() (e.g. task.shard_chain_factory())"
                )
            runner_key = (
                key,
                "sharded",
                shards,
                chains,
                backend,
                evaluator_cls.__name__,
                # Content fingerprint, not object identity: rebuilding
                # an equivalent partitioner (the documented
                # `partitioner=pipeline.shard_partitioner(2)` idiom)
                # continues the cached chains; a genuinely different
                # split gets its own runner without touching runners
                # earlier cursors still hold.
                partitioner.fingerprint() if partitioner is not None else None,
                resilience.fingerprint() if resilience is not None else None,
                optimize,
            )
            runner = self._evict_if_dead(runner_key)
            if runner is None:
                # The attached model's full-database factor graph, when
                # there is one, gates the split: a factor spanning two
                # shards raises ShardingError before any worker starts.
                graph = getattr(self._model, "graph", None)
                if graph is None:
                    graph = getattr(
                        getattr(self._model, "model", None), "graph", None
                    )
                runner = _ShardedRunner(
                    self.database,
                    self._shard_factory,
                    sql,
                    plan,
                    shards,
                    chains,
                    backend,
                    evaluator_cls,
                    partitioner=partitioner,
                    validate_graph=graph,
                    resilience=resilience,
                )
                self._runners[runner_key] = runner
            return runner
        # Multi-chain execution is requested explicitly (evaluator
        # "parallel"), by asking for more than one chain, by naming a
        # non-default backend, or by asking for supervised (resilient)
        # workers — which only exist on the factory-built path.
        if (
            evaluator == "parallel"
            or chains > 1
            or backend != "sequential"
            or resilience is not None
        ):
            if self._chain_factory is None:
                raise EvaluationError(
                    "parallel evaluation needs a chain_factory; pass one to "
                    "attach_model()"
                )
            if chains < 1:
                raise EvaluationError("need at least one chain")
            runner_key = (
                key,
                "parallel",
                chains,
                backend,
                evaluator_cls.__name__,
                resilience.fingerprint() if resilience is not None else None,
                optimize,
            )
            runner = self._evict_if_dead(runner_key)
            if runner is None:
                factory = self._chain_factory
                # Live updates: a factory that can rebase builds its
                # chains from the session's *current* world, so a
                # runner rebuilt after DML invalidation samples the
                # updated database, not the factory's baked-in corpus.
                rebase = getattr(factory, "rebased", None)
                if rebase is not None:
                    factory = rebase(self.database.snapshot())
                runner = _ParallelRunner(
                    factory, sql, plan, chains, backend, evaluator_cls, resilience
                )
                self._runners[runner_key] = runner
            return runner
        if self._chain is None:
            raise EvaluationError(
                "probabilistic execution needs an attached model; call "
                "attach_model() first"
            )
        runner_key = (key, evaluator, optimize)
        runner = self._runners.get(runner_key)
        if runner is None:
            # The materialized strategy gets the repair-aware subclass
            # so DML on a live model re-pools instead of invalidating.
            cls = (
                IncrementalEvaluator
                if evaluator_cls is MaterializedEvaluator
                else evaluator_cls
            )
            chain = self._chain
            targeted = False
            if optimize:
                restricted = self._targeted_chain(key, plan)
                if restricted is not None:
                    chain, targeted = restricted, True
            runner = _ChainRunner(
                cls(self.database, chain, [plan]), targeted=targeted
            )
            self._runners[runner_key] = runner
        return runner

    def _targeted_chain(self, key: str, plan: PlanNode) -> Optional[MarkovChain]:
        """A restricted sampler for ``plan``, or ``None``.

        When the attached model declares factor-closed variable groups
        keyed by a deterministic group column (e.g. the NER model's
        per-document components keyed by ``DOC_ID``) and
        :func:`~repro.mcmc.targeted.plan_restriction` proves that only
        some groups can contribute answer rows, the query is sampled by
        a dedicated chain whose proposer draws exclusively from the
        relevant variables (``MixtureProposer`` with ``focus=1.0``) —
        irrelevant groups keep their initial-world values, which is
        exact because the groups are independent components.  The
        thinning interval shrinks proportionally: ``k`` walk steps over
        the full variable set become ``max(1, round(k · fraction))``
        steps over the restricted set, preserving per-variable sampling
        effort while cutting per-sample cost by the pruned fraction.

        The attached chain is never touched — its kernel keeps sampling
        other queries — and the targeted kernel gets its own
        deterministic seed derived from the cache key, so re-executing
        the same SQL reproduces the same restricted stream.
        """
        model = self._restriction_model()
        if model is None:
            return None
        restriction: Optional[PlanRestriction] = plan_restriction(
            plan, model, self.database
        )
        if restriction is None:
            return None
        attached = self._chain
        assert attached is not None
        proposer = MixtureProposer(
            UniformLabelProposer(restriction.variables),
            UniformLabelProposer(tuple(model.variables)),
            focus=1.0,
        )
        kernel = MetropolisHastings(
            model.graph,
            proposer,
            seed=stable_hash(("targeted", key)),
            temperature=getattr(attached.kernel, "temperature", 1.0),
        )
        steps = max(1, round(attached.steps_per_sample * restriction.fraction))
        return MarkovChain(kernel, steps)

    def _restriction_model(self) -> Optional[Any]:
        """The attached model object usable for factor-graph pruning —
        the one declaring ``groups``/``group_column``/``graph``/
        ``variables`` — whether attached directly (a
        :class:`~repro.ie.ner.model.SkipChainNerModel`) or wrapped (a
        :class:`~repro.ie.ner.pdb.NerInstance` exposing ``.model``)."""
        for candidate in (self._model, getattr(self._model, "model", None)):
            if candidate is None:
                continue
            if (
                getattr(candidate, "groups", None)
                and getattr(candidate, "group_column", None)
                and getattr(candidate, "graph", None) is not None
                and getattr(candidate, "variables", None)
            ):
                return candidate
        return None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def tables(self) -> list[str]:
        """Names of the tables in this session's database."""
        return self.database.table_names()

    def cache_info(self) -> CacheInfo:
        """Hit/miss counters of the plan cache."""
        return self._plans.info()

    def stats(self) -> dict:
        """One observability snapshot of this session's cached state.

        Aggregates the plan-cache counters, the runner cache broken
        down by kind with backend liveness (a ``dead`` runner is one
        whose worker backend closed underneath it and will be evicted
        on next use), the live-repair attachment, and the database's
        committed-statement version.  The serving layer folds this into
        :meth:`repro.serve.server.ReproServer.stats`.
        """
        by_kind: dict[str, int] = {}
        dead = 0
        for key in self._runners:
            kind = key[1] if len(key) > 1 else "chain"
            by_kind[kind] = by_kind.get(kind, 0) + 1
            backend = getattr(self._runners[key], "backend", None)
            if backend is not None and backend.closed:
                dead += 1
        return {
            "plan_cache": self._plans.info()._asdict(),
            "runners": {
                "total": len(self._runners),
                "by_kind": by_kind,
                "dead_backends": dead,
            },
            "live_capable": self._live is not None,
            "db_version": self.database.version,
            "closed": self._closed,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return (
            f"Session({self.database.name}, {state}, "
            f"tables={self.database.table_names()})"
        )
