"""Unit tests for the live-update subsystem (ISSUE 5).

:class:`LiveRunner` + :class:`IncrementalEvaluator` over the NER model:
repair wiring, proposer resync, local re-burn, estimator re-pooling,
and the graph-signature bit-identity contract.
"""

import pytest

from repro.core.live import (
    IncrementalEvaluator,
    LiveRunner,
    graph_signature,
    resolve_live_model,
    supports_live_repair,
)
from repro.errors import LiveUpdateError
from repro.ie.ner.model import SkipChainNerModel, fit_generative_weights
from repro.ie.ner.pdb import NerPipeline, NerTask, build_token_database
from repro.ie.ner.corpus import generate_corpus
from repro.mcmc.chain import MarkovChain
from repro.mcmc.metropolis import MetropolisHastings
from repro.mcmc.proposal import UniformLabelProposer
from repro.mcmc.schedule import RotatingBatchProposer


def make_model(num_tokens=60, seed=3):
    db = build_token_database(generate_corpus(num_tokens, seed=seed))
    weights = fit_generative_weights(db)
    model = SkipChainNerModel(db, weights=weights)
    return db, model


def make_chain(model, seed=7, scheduled=False, steps_per_sample=20):
    if scheduled:
        proposer = RotatingBatchProposer(
            dict(model.groups), batch_size=2, proposals_per_batch=50
        )
    else:
        proposer = UniformLabelProposer(model.variables)
    kernel = MetropolisHastings(model.graph, proposer, seed=seed)
    return MarkovChain(kernel, steps_per_sample)


def capture_delta(db, mutate):
    recorder = db.attach_recorder()
    try:
        mutate()
    finally:
        db.detach_recorder(recorder)
    return recorder.pop()


class TestProtocol:
    def test_models_are_live_capable(self):
        _, model = make_model()
        assert supports_live_repair(model)
        assert resolve_live_model(model) is model

    def test_instance_facade_unwraps(self):
        task = NerTask(60, corpus_seed=3, steps_per_sample=20)
        instance = task.make_instance(1)
        assert resolve_live_model(instance) is instance.model

    def test_non_live_rejected(self):
        _, model = make_model()
        chain = make_chain(model)
        with pytest.raises(LiveUpdateError, match="repair_from_delta"):
            LiveRunner(object(), chain)


class TestLiveRunner:
    def test_mid_doc_insert_evicts_dissolved_transition_pool_entry(self):
        """A token inserted between two survivors dissolves their
        transition factor; the pooled instance (and its score memo)
        must be evicted, not leak for the graph's lifetime."""
        from repro.db.database import Database
        from repro.ie.ner.pdb import TOKEN_SCHEMA

        db = Database("mid-insert")
        table = db.create_table(TOKEN_SCHEMA)
        for row in [
            (0, 0, "Alice", "O", "O"),
            (10, 0, "said", "O", "O"),
            (20, 0, "Bob", "O", "O"),
        ]:
            table.insert(row)
        model = SkipChainNerModel(db, weights=fit_generative_weights(db))
        chain = make_chain(model)
        a, b = model.variables[0], model.variables[1]
        model.graph.adjacent_static(a)  # warm pools
        pool = model._transition_template._pool
        dissolved_keys = {(a.name, b.name), (b.name, a.name)}
        assert any(key in pool for key in dissolved_keys)
        delta = capture_delta(
            db, lambda: db.insert("TOKEN", (5, 0, "Mid", "O", "O"))
        )
        LiveRunner(model, chain).on_dml(delta)
        assert not any(key in pool for key in dissolved_keys)
        rebuilt = SkipChainNerModel(db, weights=model.weights)
        assert graph_signature(model.graph) == graph_signature(rebuilt.graph)

    def test_insert_repairs_and_burns_locally(self):
        db, model = make_model()
        chain = make_chain(model)
        runner = LiveRunner(model, chain)
        chain.advance()  # warm caches and chain state
        proposals_before = chain.stats.proposals
        delta = capture_delta(
            db,
            lambda: db.insert("TOKEN", (999, 0, "Zanzibar", "O", "O")),
        )
        repair = runner.on_dml(delta)
        assert [v.pk[0] for v in repair.added] == [999]
        assert not repair.removed
        # local burn ran through the chain's own kernel
        assert chain.stats.proposals > proposals_before
        assert runner.repairs_applied == 1
        # the new variable is proposable (chain keeps working)
        chain.advance()
        sig = graph_signature(model.graph)
        rebuilt = SkipChainNerModel(db, weights=model.weights)
        assert sig == graph_signature(rebuilt.graph)

    def test_irrelevant_delta_is_a_noop(self):
        from repro.db.schema import Schema
        from repro.db.types import AttrType

        db, model = make_model()
        db.create_table(Schema.build("OTHER", [("A", AttrType.INT)], key=["A"]))
        chain = make_chain(model)
        runner = LiveRunner(model, chain)
        proposals_before = chain.stats.proposals
        delta = capture_delta(db, lambda: db.insert("OTHER", (1,)))
        repair = runner.on_dml(delta)
        assert repair.is_empty()
        assert chain.stats.proposals == proposals_before
        assert runner.repairs_applied == 0

    def test_uniform_proposer_resynced(self):
        db, model = make_model()
        chain = make_chain(model, scheduled=False)
        runner = LiveRunner(model, chain)
        delta = capture_delta(
            db, lambda: db.insert("TOKEN", (999, 0, "Xylo", "O", "O"))
        )
        runner.on_dml(delta)
        names = {v.name for v in chain.kernel.proposer.variables}
        assert ("TOKEN", (999,), "LABEL") in names

    def test_rotating_proposer_resynced(self):
        db, model = make_model(num_tokens=300)
        assert len(model.groups) > 1
        chain = make_chain(model, scheduled=True)
        runner = LiveRunner(model, chain)
        chain.advance()
        # delete an entire document's tokens: its group must vanish
        doc = max(model.groups)
        delta = capture_delta(
            db,
            lambda: [
                db.delete("TOKEN", v.pk) for v in list(model.groups[doc])
            ],
        )
        runner.on_dml(delta)
        proposer = chain.kernel.proposer
        assert doc not in proposer._groups
        # and the chain still proposes without stale variables
        chain.advance()
        rebuilt = SkipChainNerModel(db, weights=model.weights)
        assert graph_signature(model.graph) == graph_signature(rebuilt.graph)

    def test_post_repair_resync_failure_wrapped(self):
        """Repair can succeed while the chain machinery cannot follow
        (a 1-mention clustering has a valid graph but no valid move
        proposer): the error surfaces as LiveUpdateError, not a raw
        InferenceError, so the session poisons the chain."""
        from repro.ie.coref.mentions import Mention
        from repro.ie.coref.model import CorefModel
        from repro.ie.coref.pdb import build_mention_database
        from repro.ie.coref.proposals import MoveMentionProposer

        db = build_mention_database(
            [Mention(0, 0, "John Smith"), Mention(1, 0, "J. Smith")]
        )
        model = CorefModel(db)
        kernel = MetropolisHastings(
            model.graph, MoveMentionProposer(model.variables), seed=1
        )
        runner = LiveRunner(model, MarkovChain(kernel, 5))
        delta = capture_delta(db, lambda: db.delete("MENTION", (1,)))
        with pytest.raises(LiveUpdateError, match="post-repair resync"):
            runner.on_dml(delta)

    def test_failed_repair_raises_live_update_error(self):
        db, model = make_model()
        chain = make_chain(model)
        runner = LiveRunner(model, chain)
        # A LABEL outside the domain cannot be repaired into the model.
        delta = capture_delta(
            db, lambda: db.insert("TOKEN", (999, 0, "Zed", "NOT-A-LABEL", "O"))
        )
        with pytest.raises(LiveUpdateError, match="repair of"):
            runner.on_dml(delta)


class TestIncrementalEvaluator:
    QUERY = "SELECT STRING FROM TOKEN WHERE LABEL='B-PER'"

    def test_views_fold_dml_and_estimators_repool(self):
        db, model = make_model()
        chain = make_chain(model)
        evaluator = IncrementalEvaluator(db, chain, [self.QUERY])
        evaluator.run(4)
        assert evaluator.estimators[0].num_samples == 5
        delta = capture_delta(
            db,
            lambda: db.insert("TOKEN", (999, 0, "Quixote", "B-PER", "B-PER")),
        )
        runner = LiveRunner(model, chain)
        repair = runner.on_dml(delta)
        evaluator.notify_repair(repair)
        assert evaluator.estimators[0].num_samples == 0
        result = evaluator.run(3)
        # the post-repair marginals only pool post-update samples (the
        # repaired world counts as the fresh initial sample: 1 + 3)
        assert result.estimators[0].num_samples == 4
        for row in result.estimators[0].support():
            assert isinstance(row[0], str)
        evaluator.detach()

    def test_estimator_reset_observed_by_existing_handles(self):
        db, model = make_model()
        chain = make_chain(model)
        evaluator = IncrementalEvaluator(db, chain, [self.QUERY])
        result = evaluator.run(3)
        handle = result.estimators[0]
        evaluator.notify_repair(None)
        assert handle.num_samples == 0
        evaluator.detach()


class TestRepairCacheFootprint:
    """Live repair evicts only what a DML statement touched, and
    repeated DML leaves no cache larger than it was."""

    @staticmethod
    def _warm(model):
        for variable in model.variables:
            model.graph.local_conditional_scores(variable)

    @staticmethod
    def _sizes(graph):
        sizes = {
            "flat": len(graph._flat_adjacency),
            "static": len(graph._static_adjacency),
            "scorers": len(graph._scorers),
        }
        for template in graph.templates:
            for attr in ("_pool", "_adjacent", "_order_keys"):
                if hasattr(template, attr):
                    sizes[template.name, attr] = len(getattr(template, attr))
            if hasattr(template, "_partners"):
                sizes[template.name, "_partners"] = sum(
                    map(len, template._partners.values())
                )
        return sizes

    def test_delete_keeps_non_partner_caches(self):
        pipeline = NerPipeline.build(300, seed=1, steps_per_sample=100)
        model = pipeline.instance.model
        graph = model.graph
        self._warm(model)
        victim = graph.find(("TOKEN", (53,), "LABEL"))
        partners = {
            v.name for f in graph.adjacent_static(victim) for v in f.variables
        }
        assert len(partners) > 3  # Chain neighbours plus skip mates.
        kept = {
            v.name: (graph._flat_adjacency[v.name], graph._scorers[v.name])
            for v in model.variables
            if v.name not in partners
        }
        pipeline.session.execute("DELETE FROM TOKEN WHERE TOK_ID = 53")
        for name, (flat, scorer) in kept.items():
            assert graph._flat_adjacency.get(name) is flat
            assert graph._scorers.get(name) is scorer

    def test_dml_cycles_return_caches_to_warm_size(self):
        pipeline = NerPipeline.build(300, seed=1, steps_per_sample=100)
        model, session = pipeline.instance.model, pipeline.session
        [row] = session.execute(
            "SELECT TOK_ID, DOC_ID, STRING, LABEL, TRUTH FROM TOKEN "
            "WHERE TOK_ID = 57"
        ).fetchall()
        self._warm(model)
        warm = self._sizes(model.graph)
        for i in range(500):
            for statement in (
                f"INSERT INTO TOKEN VALUES (1000, {i % 3}, 'York', 'O', 'O')",
                "UPDATE TOKEN SET STRING = 'Manny' WHERE TOK_ID = 1000",
                "UPDATE TOKEN SET LABEL = 'B-PER' WHERE TOK_ID = 1000",
                "DELETE FROM TOKEN WHERE TOK_ID = 1000",
                "DELETE FROM TOKEN WHERE TOK_ID = 57",
                "INSERT INTO TOKEN VALUES (%d, %d, '%s', '%s', '%s')" % row,
            ):
                session.execute(statement)
        self._warm(model)
        assert self._sizes(model.graph) == warm
