"""The common frame of both query evaluators.

An evaluator owns a database (one possible world), a Markov chain that
mutates it, and one or more compiled queries.  Subclasses differ only
in **how the answer of each query is obtained per sample**:

* :class:`~repro.core.naive.NaiveEvaluator` re-executes the full query
  (Algorithm 3);
* :class:`~repro.core.materialized.MaterializedEvaluator` folds the
  world delta into materialized views (Algorithm 1).

Both see identical sample sequences when given identical seeds, which
is how the paper compares them (§5.3: "the two approaches generate the
same set of samples").
"""

from __future__ import annotations

import time
from typing import Callable, List, Sequence

from repro.db.database import Database
from repro.db.multiset import Multiset
from repro.db.ra.ast import PlanNode
from repro.db.ra.planner import PlannedQuery
from repro.db.sql.compiler import plan_query
from repro.db.view import strip_presentation
from repro.errors import EvaluationError
from repro.mcmc.chain import MarkovChain
from repro.core.marginals import MarginalEstimator

__all__ = ["QueryEvaluator", "EvaluationResult"]

SampleHook = Callable[[int, float, List[MarginalEstimator]], None]


class EvaluationResult:
    """Marginal estimates for each evaluated query.

    Two separate clocks are reported:

    * ``wall_elapsed`` — real time between the start and the end of the
      evaluation, as observed by the caller;
    * ``cpu_elapsed`` — total compute time: the *sum* of every chain's
      own measured run time (the parallel backends measure per-chain
      CPU seconds, so waiting for a contended core does not count).

    For a single chain the two coincide.  For parallel evaluation they
    diverge: the sequential backend has ``wall ≈ cpu`` (chains run one
    after another), while the process backend aims for
    ``wall ≈ cpu / num_chains``.  The legacy :attr:`elapsed` attribute
    aliases ``wall_elapsed``.
    """

    def __init__(
        self,
        estimators: List[MarginalEstimator],
        wall_elapsed: float,
        cpu_elapsed: float | None = None,
    ):
        self.estimators = estimators
        self.wall_elapsed = wall_elapsed
        self.cpu_elapsed = wall_elapsed if cpu_elapsed is None else cpu_elapsed

    @property
    def elapsed(self) -> float:
        """Backward-compatible alias for :attr:`wall_elapsed`."""
        return self.wall_elapsed

    def __getitem__(self, index: int) -> MarginalEstimator:
        return self.estimators[index]

    def __len__(self) -> int:
        return len(self.estimators)

    @property
    def marginals(self) -> MarginalEstimator:
        """The first (often only) query's estimator."""
        return self.estimators[0]


class QueryEvaluator:
    """Base class wiring a chain to a set of queries."""

    def __init__(
        self,
        db: Database,
        chain: MarkovChain,
        queries: Sequence[str | PlanNode | PlannedQuery],
    ):
        if not queries:
            raise EvaluationError("need at least one query")
        self.db = db
        self.chain = chain
        self.plans: List[PlanNode] = [
            strip_presentation(self._as_plan(q)) for q in queries
        ]
        self.estimators: List[MarginalEstimator] = [
            MarginalEstimator() for _ in self.plans
        ]

    def _as_plan(self, query: str | PlanNode | PlannedQuery) -> PlanNode:
        """Resolve one ``queries`` element to a plan tree: SQL text is
        compiled, a :class:`PlannedQuery` contributes its pruned plan,
        a bare tree is used as-is."""
        if isinstance(query, PlannedQuery):
            return query.plan
        if isinstance(query, PlanNode):
            return query
        return plan_query(self.db, query)

    # ------------------------------------------------------------------
    # Subclass contract
    # ------------------------------------------------------------------
    def _prepare(self) -> None:
        """Called once before sampling starts."""

    def _answers(self) -> List[Multiset]:
        """Current answers of all queries for the present world."""
        raise NotImplementedError

    def notify_repair(self, repair) -> None:
        """Re-pool after a live graph repair (:mod:`repro.core.live`):
        the posterior changed, so recorded samples no longer estimate
        it.  Resets every estimator in place — anytime cursors holding
        them observe the reset.  Subclasses with additional per-update
        state extend this."""
        for estimator in self.estimators:
            estimator.reset()

    # ------------------------------------------------------------------
    def run(
        self,
        num_samples: int,
        on_sample: SampleHook | None = None,
        include_initial_sample: bool = True,
        burn_in: int = 0,
    ) -> EvaluationResult:
        """Estimate marginals from ``num_samples`` thinned samples.

        ``include_initial_sample`` counts the initial world's answer as
        the first sample (the "single-sample deterministic
        approximation" the paper measures loss against); the chain then
        contributes ``num_samples`` further samples.  ``burn_in``
        discards that many thinned samples *before* recording starts —
        the chain advances but no counts (and no query work) happen.
        ``on_sample`` is invoked after every recorded sample with
        ``(sample_index, elapsed_seconds, estimators)`` — the any-time
        hook used for loss-over-time traces.
        """
        for _ in range(burn_in):
            self.chain.advance()
        started = time.perf_counter()
        self._prepare()
        index = 0
        if include_initial_sample:
            self._record_all()
            if on_sample is not None:
                on_sample(index, time.perf_counter() - started, self.estimators)
            index += 1
        for _ in range(num_samples):
            self.chain.advance()
            self._record_all()
            if on_sample is not None:
                on_sample(index, time.perf_counter() - started, self.estimators)
            index += 1
        return EvaluationResult(self.estimators, time.perf_counter() - started)

    def _record_all(self) -> None:
        for estimator, answer in zip(self.estimators, self._answers()):
            estimator.record(answer)
