"""The array scorers must be bit-identical to the pooled factor sum.

With caching on, a variable whose adjacent factors all compile is scored
by its ``LocalScorer``; any other variable is scored by summing its
pooled adjacent factors.  ``test_cache_equivalence.py`` compares the
whole fast path with ``set_caching(False)``; this file isolates the array
layer.  Each test runs the same seeded inference twice with caching on —
once compiling scorers as usual and once with every variable declared
ineligible — and asserts *exactly* equal results.  The compiled run must
actually build scorers, or the comparison would be vacuous.

SampleRank is the adversarial case: it mutates the weights mid-walk, so
a scorer holding on to stale dense values would silently corrupt the
update sequence.  Coref's dynamic templates must never reach the array
layer at all: coref scores its moves from its own pair-score table,
which ``test_cache_equivalence.py`` checks against the reference.
"""

import pytest

import repro.fg.graph as graph_module
from repro.bench import make_task
from repro.fg import build_scorer
from repro.ie.coref import (
    CorefModel,
    MoveMentionProposer,
    SplitMergeProposer,
    build_mention_database,
    generate_mentions,
)
from repro.learn.objective import HammingObjective
from repro.learn.samplerank import SampleRankTrainer
from repro.mcmc import GibbsSampler, MetropolisHastings
from repro.mcmc.proposal import UniformLabelProposer

QUERY = "SELECT COUNT(*) FROM TOKEN WHERE LABEL='B-PER'"


@pytest.fixture
def scorers(monkeypatch):
    """``scorers(compile)`` routes the graph's scorer compilation through
    a recorder that compiles as usual (``True``) or declares every
    variable ineligible (``False``); it returns the list of results."""

    def use(compile_scorers: bool):
        built = []

        def record(variable, factors):
            scorer = build_scorer(variable, factors) if compile_scorers else None
            built.append(scorer)
            return scorer

        monkeypatch.setattr(graph_module, "build_scorer", record)
        return built

    return use


def _ner_run():
    task = make_task(600, steps_per_sample=150)
    instance = task.make_instance(7)
    evaluator = instance.evaluator([QUERY])
    evaluator.run(10)
    world = tuple(v.value for v in instance.model.variables)
    return (
        world,
        instance.kernel.stats.accepted,
        evaluator.estimators[0].probabilities(),
    )


class TestNerMetropolis:
    def test_marginals_bit_identical(self, scorers):
        built = scorers(True)
        array_world, array_accepted, array_marginals = _ner_run()
        assert any(built)
        scorers(False)
        world, accepted, marginals = _ner_run()
        assert array_world == world
        assert array_accepted == accepted
        assert array_marginals == marginals


class TestCorefDynamicTemplates:
    """Dynamic templates never compile an array scorer."""

    def _run(self, proposer_cls):
        db = build_mention_database(
            generate_mentions(6, mentions_per_entity=3, seed=4)
        )
        model = CorefModel(db)
        kernel = MetropolisHastings(
            model.graph, proposer_cls(model.variables), seed=11
        )
        kernel.run(2500)
        return tuple(v.value for v in model.variables), kernel.stats.accepted

    def _check(self, scorers, proposer_cls):
        built = scorers(True)
        array = self._run(proposer_cls)
        assert built == []
        scorers(False)
        assert array == self._run(proposer_cls)

    def test_move_mention_bit_identical(self, scorers):
        self._check(scorers, MoveMentionProposer)

    def test_split_merge_bit_identical(self, scorers):
        self._check(scorers, SplitMergeProposer)


class TestGibbs:
    def test_trajectory_bit_identical(self, scorers):
        worlds = []
        for compile_scorers in (True, False):
            built = scorers(compile_scorers)
            instance = make_task(400, steps_per_sample=100).make_instance(3)
            sampler = GibbsSampler(instance.model.graph, seed=5)
            sampler.run(1200)
            assert any(built) == compile_scorers
            worlds.append(tuple(v.value for v in instance.model.variables))
        assert worlds[0] == worlds[1]


class TestSampleRankMidRunUpdates:
    """Weight mutations mid-walk must invalidate the scorers' blanket
    caches through ``Weights.version``: a stale cached score would
    change an update decision, and the weight trajectories would
    diverge from the factor-sum reference."""

    def _train(self):
        task = make_task(500, steps_per_sample=100, weight_mode="zero")
        instance = task.make_instance(2)
        weights = instance.model.weights
        trainer = SampleRankTrainer(
            instance.model.graph,
            UniformLabelProposer(instance.model.variables),
            HammingObjective(instance.model.truth),
            weights,
            seed=9,
        )
        stats = trainer.train(3000)
        return (
            stats.updates,
            stats.accepted,
            weights.l2_norm(),
            sorted(weights.items(), key=repr),
            instance.model.accuracy_against_truth(),
        )

    def test_training_bit_identical(self, scorers):
        built = scorers(True)
        array = self._train()
        assert any(built)
        scorers(False)
        assert array == self._train()
