"""Optimized-vs-unoptimized equivalence matrix (ISSUE 10 acceptance).

The planner's contract: rewriting never changes answers.  Every test
compares ``optimize=True`` (the default) against the ``optimize=False``
escape hatch —

* deterministic results must be **equal** (same rows, same order);
* probabilistic marginals must be **bit-identical** for
  unoptimized-equivalent plans (no factor-graph restriction fired):
  the rewritten tree answers identically on every sampled world and
  the chain stream does not depend on the plan shape;
* when factor-graph pruning *does* fire (a deterministic group
  predicate), the restricted chain is a different — equally valid —
  sampler: frozen groups must provably never move, and marginals must
  agree statistically.

The matrix spans NER and coref, across plain, score-cache-off, sharded
and live (post-DML) execution.
"""

import statistics

import repro
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


class TestDeterministicEquivalence:
    def test_battery_optimized_equals_unoptimized(self):
        session = ner().session
        for sql in DETERMINISTIC_BATTERY:
            optimized = list(session.execute(sql))
            reference = list(session.execute(sql, optimize=False))
            assert optimized == reference, sql


class TestNerBitIdentity:
    """No restriction fires on an uncertain-only predicate, so the
    optimized runner drives the *same* attached chain — fresh same-seed
    sessions must agree bit for bit."""

    def _marginals(self, optimize, prepare=None):
        pipe = ner(seed=4)
        if prepare is not None:
            prepare(pipe)
        cursor = pipe.session.execute(
            UNCERTAIN_QUERY, samples=8, optimize=optimize
        )
        world = tuple(v.value for v in pipe.instance.model.variables)
        return rows(cursor), world, pipe.instance.kernel.stats.accepted

    def test_plain(self):
        assert self._marginals(True) == self._marginals(False)

    def test_score_cache_off(self):
        off = lambda pipe: pipe.instance.kernel.graph.set_caching(False)
        assert self._marginals(True, off) == self._marginals(False, off)

    def test_sharded(self):
        a = rows(ner(seed=4).session.execute(UNCERTAIN_QUERY, samples=6, shards=2))
        b = rows(
            ner(seed=4).session.execute(
                UNCERTAIN_QUERY, samples=6, shards=2, optimize=False
            )
        )
        assert a == b

    def test_live_post_dml(self):
        def run(optimize):
            pipe = ner(seed=4)
            session = pipe.session
            first = rows(
                session.execute(UNCERTAIN_QUERY, samples=5, optimize=optimize)
            )
            session.execute(
                "INSERT INTO TOKEN VALUES (9000, 0, 'Brandeis', 'O', 'B-ORG')"
            )
            second = rows(
                session.execute(UNCERTAIN_QUERY, samples=5, optimize=optimize)
            )
            return first, second

        assert run(True) == run(False)


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
        def marginals(optimize):
            cursor = ner(seed=2, tokens=600, k=60).session.execute(
                PRUNABLE_QUERY, samples=120, optimize=optimize
            )
            return {tuple(r[:-1]): r[-1] for r in cursor}

        pruned = marginals(True)
        full = marginals(False)
        keys = set(pruned) | set(full)
        diffs = [abs(pruned.get(k, 0.0) - full.get(k, 0.0)) for k in keys]
        assert statistics.mean(diffs) < 0.30

    def test_optimize_false_never_targets(self):
        pipe = ner(seed=2)
        runner = pipe.session.prepare(PRUNABLE_QUERY, optimize=False)
        assert runner.targeted is False

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
    def _session(self):
        db = build_mention_database(
            generate_mentions(5, mentions_per_entity=3, seed=1)
        )
        model = CorefModel(db)
        kernel = MetropolisHastings(
            model.graph, MoveMentionProposer(model.variables), seed=11
        )
        chain = MarkovChain(kernel, steps_per_sample=20)
        return repro.connect(db).attach_model(model, chain=chain), model

    def test_deterministic_equivalence(self):
        session, _ = self._session()
        for sql in [
            "SELECT STRING, CLUSTER FROM MENTION",
            "SELECT CLUSTER, COUNT(*) FROM MENTION GROUP BY CLUSTER",
            "SELECT M1.STRING, M2.STRING FROM MENTION M1, MENTION M2 "
            "WHERE M1.CLUSTER = M2.CLUSTER AND M1.MENTION_ID < M2.MENTION_ID",
        ]:
            assert list(session.execute(sql)) == list(
                session.execute(sql, optimize=False)
            ), sql

    def test_probabilistic_bit_identity(self):
        sql = (
            "SELECT M1.MENTION_ID, M2.MENTION_ID FROM MENTION M1, MENTION M2 "
            "WHERE M1.CLUSTER = M2.CLUSTER AND M1.MENTION_ID < M2.MENTION_ID"
        )

        def run(optimize):
            session, model = self._session()
            cursor = session.execute(sql, samples=8, optimize=optimize)
            return rows(cursor), tuple(v.value for v in model.variables)

        assert run(True) == run(False)

    def test_coref_model_never_targets(self):
        # CorefModel declares no group_column: factor-graph pruning
        # must be a silent no-op, not an error.
        session, _ = self._session()
        runner = session.prepare("SELECT STRING FROM MENTION WHERE MENTION_ID < 5")
        assert runner.targeted is False
