"""Planned-vs-compiled equivalence matrix.

The planner's contract: projection pruning never changes answers.
Every test compares what a session runs against a reference built here
from the compiler's own tree (``compile_select``), unpruned —

* deterministic results must be **equal** (same rows, same order);
* probabilistic marginals must be **bit-identical** when no
  factor-graph restriction fires: the pruned tree answers identically
  on every sampled world and the chain stream does not depend on the
  plan shape, so a fresh same-seed pipeline evaluating the compiled
  tree reproduces the session's marginals;
* when factor-graph pruning *does* fire (a deterministic group
  predicate), the restricted chain is a different — equally valid —
  sampler: frozen groups must provably never move, and marginals must
  agree statistically.

The matrix spans NER and coref, across plain, score-cache-off, sharded
and live (post-DML) execution.
"""

import statistics

import repro
from repro.core.materialized import MaterializedEvaluator
from repro.core.sharded import ShardedEvaluator
from repro.db.ra.eval import evaluate_rows
from repro.db.sql.compiler import compile_select
from repro.db.sql.parser import parse_statement
from repro.ie.coref import (
    CorefModel,
    MoveMentionProposer,
    build_mention_database,
    generate_mentions,
)
from repro.ie.ner import NerPipeline
from repro.mcmc import MetropolisHastings
from repro.mcmc.chain import MarkovChain

UNCERTAIN_QUERY = "SELECT STRING FROM TOKEN WHERE LABEL='B-PER'"
PRUNABLE_QUERY = "SELECT STRING, LABEL FROM TOKEN WHERE DOC_ID = 0"

DETERMINISTIC_BATTERY = [
    "SELECT STRING, LABEL FROM TOKEN WHERE DOC_ID = 1",
    "SELECT DOC_ID, COUNT(*) FROM TOKEN GROUP BY DOC_ID",
    "SELECT T1.STRING FROM TOKEN T1, TOKEN T2 "
    "WHERE T1.DOC_ID = T2.DOC_ID AND T1.TOK_ID = T2.TOK_ID AND T1.DOC_ID < 2",
    "SELECT DISTINCT LABEL FROM TOKEN",
    "SELECT STRING FROM TOKEN WHERE TOK_ID > (SELECT AVG(TOK_ID) FROM TOKEN)",
]


def ner(seed=0, tokens=400, k=30):
    return NerPipeline.build(tokens, seed=seed, steps_per_sample=k)


def rows(cursor):
    return sorted(tuple(r) for r in cursor)


def compiled(sql, db):
    """The compiler's own tree for ``sql``: no planner has touched it."""
    return compile_select(parse_statement(sql), db)


def marginal_rows(result):
    """A result's marginals as a probabilistic cursor's sorted rows."""
    return sorted(
        row + (p,) for row, p in result.estimators[0].probabilities().items()
    )


class TestDeterministicEquivalence:
    def test_battery_optimized_equals_unoptimized(self):
        session = ner().session
        for sql in DETERMINISTIC_BATTERY:
            reference = evaluate_rows(compiled(sql, session.database), session.database)
            assert list(session.execute(sql)) == reference, sql


class TestNerBitIdentity:
    """No restriction fires on an uncertain-only predicate, so the
    session's runner drives the *same* attached chain as an evaluator
    of the compiled tree on a fresh same-seed pipeline: the two must
    agree bit for bit."""

    @staticmethod
    def _state(pipe):
        world = tuple(v.value for v in pipe.instance.model.variables)
        return world, pipe.instance.kernel.stats.accepted

    def _session(self, prepare=None):
        pipe = ner(seed=4)
        if prepare is not None:
            prepare(pipe)
        cursor = pipe.session.execute(UNCERTAIN_QUERY, samples=8)
        return (rows(cursor),) + self._state(pipe)

    def _reference(self, prepare=None):
        pipe = ner(seed=4)
        if prepare is not None:
            prepare(pipe)
        tree = compiled(UNCERTAIN_QUERY, pipe.db)
        result = MaterializedEvaluator(pipe.db, pipe.instance.chain, [tree]).run(8)
        return (marginal_rows(result),) + self._state(pipe)

    def test_plain(self):
        assert self._session() == self._reference()

    def test_score_cache_off(self):
        off = lambda pipe: pipe.instance.kernel.graph.set_caching(False)
        assert self._session(off) == self._reference(off)

    def test_sharded(self):
        a = rows(ner(seed=4).session.execute(UNCERTAIN_QUERY, samples=6, shards=2))
        pipe = ner(seed=4)
        evaluator = ShardedEvaluator(
            pipe.db,
            pipe.task.shard_chain_factory(),
            [compiled(UNCERTAIN_QUERY, pipe.db)],
            2,
            validate_graph=pipe.instance.model.graph,
        )
        try:
            b = marginal_rows(evaluator.run(6))
        finally:
            evaluator.close()
        assert a == b

    def test_live_post_dml(self):
        insert = "INSERT INTO TOKEN VALUES (9000, 0, 'Brandeis', 'O', 'B-ORG')"
        session = ner(seed=4).session
        first = session.execute(UNCERTAIN_QUERY, samples=5)
        first = rows(first), first.num_samples
        session.execute(insert)
        second = session.execute(UNCERTAIN_QUERY, samples=5)
        second = rows(second), second.num_samples

        # The reference evaluator shares the pipeline's database, so its
        # views fold in the INSERT and the session's graph repair; like
        # the session's runner, it then re-pools and counts the repaired
        # world as its first sample.
        pipe = ner(seed=4)
        evaluator = MaterializedEvaluator(
            pipe.db, pipe.instance.chain, [compiled(UNCERTAIN_QUERY, pipe.db)]
        )
        result = evaluator.run(5)
        reference_first = marginal_rows(result), result.estimators[0].num_samples
        pipe.session.execute(insert)
        evaluator.notify_repair(None)
        result = evaluator.run(5)
        reference_second = marginal_rows(result), result.estimators[0].num_samples
        evaluator.detach()
        assert (first, second) == (reference_first, reference_second)


class TestNerPrunedExecution:
    def test_restriction_freezes_irrelevant_groups_exactly(self):
        pipe = ner(seed=2)
        session = pipe.session
        model = pipe.instance.model
        outside_before = {
            v: v.value
            for doc, group in model.groups.items()
            if doc != 0
            for v in group
        }
        runner = session.prepare(PRUNABLE_QUERY)
        assert runner.targeted is True
        session.execute(PRUNABLE_QUERY, samples=10)
        # Irrelevant groups provably cannot affect the answer; the
        # targeted proposer must not have moved a single one of them.
        assert all(v.value == val for v, val in outside_before.items())

    def test_pruned_marginals_statistically_consistent(self):
        # The pruned chain is a different sampler of the same posterior;
        # compare mean absolute marginal deviation against the full
        # chain at a tolerance calibrated well above same-chain
        # window-to-window noise but far below "wrong posterior".
        pruned_cursor = ner(seed=2, tokens=600, k=60).session.execute(
            PRUNABLE_QUERY, samples=120
        )
        pruned = {tuple(r[:-1]): r[-1] for r in pruned_cursor}
        pipe = ner(seed=2, tokens=600, k=60)
        tree = compiled(PRUNABLE_QUERY, pipe.db)
        result = MaterializedEvaluator(pipe.db, pipe.instance.chain, [tree]).run(120)
        full = result.estimators[0].probabilities()
        keys = set(pruned) | set(full)
        diffs = [abs(pruned.get(k, 0.0) - full.get(k, 0.0)) for k in keys]
        assert statistics.mean(diffs) < 0.30

    def test_dml_disposes_targeted_runner(self):
        pipe = ner(seed=2)
        session = pipe.session
        session.execute(PRUNABLE_QUERY, samples=4)
        targeted = [r for r in session._runners.values() if r.targeted]
        assert targeted
        session.execute(
            "INSERT INTO TOKEN VALUES (9001, 0, 'Waltham', 'O', 'B-LOC')"
        )
        # The restriction was proved against pre-update rows; the
        # runner must be gone, and re-execution must rebuild it.
        assert not [r for r in session._runners.values() if getattr(r, "targeted", False)]
        session.execute(PRUNABLE_QUERY, samples=4)


class TestCorefEquivalence:
    @staticmethod
    def _world():
        db = build_mention_database(
            generate_mentions(5, mentions_per_entity=3, seed=1)
        )
        model = CorefModel(db)
        kernel = MetropolisHastings(
            model.graph, MoveMentionProposer(model.variables), seed=11
        )
        return db, model, MarkovChain(kernel, steps_per_sample=20)

    def _session(self):
        db, model, chain = self._world()
        return repro.connect(db).attach_model(model, chain=chain), model

    def test_deterministic_equivalence(self):
        session, _ = self._session()
        for sql in [
            "SELECT STRING, CLUSTER FROM MENTION",
            "SELECT CLUSTER, COUNT(*) FROM MENTION GROUP BY CLUSTER",
            "SELECT M1.STRING, M2.STRING FROM MENTION M1, MENTION M2 "
            "WHERE M1.CLUSTER = M2.CLUSTER AND M1.MENTION_ID < M2.MENTION_ID",
        ]:
            reference = evaluate_rows(compiled(sql, session.database), session.database)
            assert list(session.execute(sql)) == reference, sql

    def test_probabilistic_bit_identity(self):
        sql = (
            "SELECT M1.MENTION_ID, M2.MENTION_ID FROM MENTION M1, MENTION M2 "
            "WHERE M1.CLUSTER = M2.CLUSTER AND M1.MENTION_ID < M2.MENTION_ID"
        )

        session, model = self._session()
        cursor = session.execute(sql, samples=8)
        planned = rows(cursor), tuple(v.value for v in model.variables)

        db, model, chain = self._world()
        result = MaterializedEvaluator(db, chain, [compiled(sql, db)]).run(8)
        reference = marginal_rows(result), tuple(v.value for v in model.variables)
        assert planned == reference

    def test_coref_model_never_targets(self):
        # CorefModel declares no group_column: factor-graph pruning
        # must be a silent no-op, not an error.
        session, _ = self._session()
        runner = session.prepare("SELECT STRING FROM MENTION WHERE MENTION_ID < 5")
        assert runner.targeted is False
