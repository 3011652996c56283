"""The fast scoring path must be bit-identical to the uncached reference.

Each test runs the same seeded inference twice — once on the default
path (static adjacency cache + array-backed local scorers) and once with
``FactorGraph.set_caching(False)`` — and asserts *exactly* equal
results: trajectories, acceptance counts, marginals, learned weights.
The fast path re-associates no sums and draws nothing from the RNG, so
any divergence (a wrong slot, a stale blanket cache, a different
summation order) fails these tests under ``==``, not ``approx``.

Coref exercises dynamic templates, which never get an array scorer:
its single-mention moves are served from a pair-score table instead,
and split/merge proposals take the reference path either way.  The
table must be emptied by every weight change and live repair, or a
stale pair score would change the walk.  NER live repair must leave
no cache or pool holding a variable object the graph has dropped.
SampleRank is the adversarial case for the array scorers: it mutates
the weights mid-walk, so a scorer holding on to stale dense values
would silently change the update sequence.
"""

from repro.bench import make_task
from repro.ie.coref import (
    CorefModel,
    CorefPipeline,
    MoveMentionProposer,
    SplitMergeProposer,
    build_mention_database,
    generate_mentions,
)
from repro.ie.coref.model import AFFINITY, REPULSION
from repro.ie.ner import NerPipeline
from repro.learn.objective import HammingObjective
from repro.learn.samplerank import SampleRankTrainer
from repro.mcmc import GibbsSampler, MetropolisHastings
from repro.mcmc.proposal import UniformLabelProposer

QUERY = "SELECT COUNT(*) FROM TOKEN WHERE LABEL='B-PER'"


def _ner_run(cached: bool):
    task = make_task(600, steps_per_sample=150)
    instance = task.make_instance(7)
    instance.kernel.graph.set_caching(cached)
    evaluator = instance.evaluator([QUERY])
    evaluator.run(10)
    world = tuple(v.value for v in instance.model.variables)
    return (
        world,
        instance.kernel.stats.accepted,
        evaluator.estimators[0].probabilities(),
    )


class TestNerMetropolis:
    def test_marginals_bit_identical(self):
        cached_world, cached_accepted, cached_marginals = _ner_run(True)
        world, accepted, marginals = _ner_run(False)
        assert cached_world == world
        assert cached_accepted == accepted
        assert cached_marginals == marginals


class TestPerVariableScores:
    """Every local score the fast path serves, per variable and per
    value — not just the ones one seeded trajectory happens to draw.
    Fitted weights are not exactly representable, so a summation that
    differs in the last bit (builtin ``sum()`` is compensated from
    Python 3.12 on) fails here even when no draw flips."""

    def test_conditional_and_delta_bit_identical(self):
        instance = make_task(400).make_instance(1)
        instance.kernel.run(4000)  # Move the labels off the start world.
        graph = instance.kernel.graph

        def scores():
            return [
                (
                    graph.local_conditional_scores(v),
                    [graph.score_delta({v: value}) for value in v.domain],
                )
                for v in instance.model.variables
            ]

        fast = scores()
        graph.set_caching(False)
        assert fast == scores()


class TestCorefDynamicTemplates:
    def _run(self, proposer_cls, cached: bool):
        db = build_mention_database(
            generate_mentions(6, mentions_per_entity=3, seed=4)
        )
        model = CorefModel(db)
        model.graph.set_caching(cached)
        kernel = MetropolisHastings(
            model.graph, proposer_cls(model.variables), seed=11
        )
        kernel.run(2500)
        return tuple(v.value for v in model.variables), kernel.stats.accepted

    def test_move_mention_bit_identical(self):
        assert self._run(MoveMentionProposer, True) == self._run(
            MoveMentionProposer, False
        )

    def test_split_merge_bit_identical(self):
        assert self._run(SplitMergeProposer, True) == self._run(
            SplitMergeProposer, False
        )


class TestCorefPerValueScores:
    """The coref twin of :class:`TestPerVariableScores`: every
    single-mention delta the pair-score table serves, for every mention
    and every cluster id, on a warm chain and again after each event
    that must empty the table — a weight change on either template and
    each kind of live repair.  The table is full when each event
    happens, so a missed eviction serves a stale pair score here."""

    def test_deltas_bit_identical_across_weight_changes_and_repairs(self):
        pipeline = CorefPipeline(
            num_entities=6, mentions_per_entity=3, seed=4, steps_per_sample=50
        )
        model, session = pipeline.model, pipeline.session
        pipeline.kernel.run(3000)  # Move the clusters off the singletons.

        def deltas():
            return [
                [model.graph.score_delta({m: c}) for c in m.domain]
                for m in model.variables
            ]

        def check():
            fast = deltas()
            model.graph.set_caching(False)
            assert fast == deltas()
            model.graph.set_caching(True)
            deltas()  # Refill the table before the next event.

        check()
        model.weights.set(AFFINITY, "last-mismatch", -2.9)
        check()
        model.weights.set(REPULSION, "last-match", -1.3)
        check()
        # Mentions 0-17 (seed 4): 7 is "John Brown", 15-17 the Millers.
        for statement in (
            "INSERT INTO MENTION VALUES (18, 'P. Brown', 18, 2)",
            "UPDATE MENTION SET STRING = 'John Miller' WHERE MENTION_ID = 7",
            "UPDATE MENTION SET CLUSTER = 5 WHERE MENTION_ID = 12",
            "DELETE FROM MENTION WHERE MENTION_ID = 9",
        ):
            session.execute(statement)
            check()
        assert model.string_of(model.graph.find(("MENTION", (7,), "CLUSTER"))) == (
            "John Miller"
        )


def _live_caches(graph):
    """Assert every cached or pooled factor's endpoints are the graph's
    live variable objects and each pair template's endpoint index lists
    exactly its pool's pairs."""

    def live(variable):
        return graph.find(variable.name) is variable

    factors = [f for flat in graph._flat_adjacency.values() for f in flat]
    for scorer in graph._scorers.values():
        if scorer is not None:
            assert live(scorer._variable)
            assert all(live(v) for v in scorer._others)
            factors.extend(record[-1] for record in scorer._records)
    for template in graph.templates:
        factors.extend(template._pool.values())
        for cached in getattr(template, "_adjacent", {}).values():
            factors.extend(cached)
        if hasattr(template, "_partners"):
            indexed = sorted(
                (name, partner)
                for name, partners in template._partners.items()
                for partner in partners
            )
            pooled = sorted(
                pair for a, b in template._pool for pair in ((a, b), (b, a))
            )
            assert indexed == pooled
    assert factors
    assert all(live(v) for f in factors for v in f.variables)


class TestNerPerValueScoresAcrossRepairs:
    """The NER twin of :class:`TestCorefPerValueScores`: after each kind
    of live repair on a warm chain, every (token, label) delta equals
    the uncached reference under ``==``, and no cache or pool still
    holds a variable object the graph has dropped.  An UPDATE of STRING
    keeps the token's name but replaces its variable object, so a
    cache keyed by name alone would keep scoring the old object."""

    def test_deltas_bit_identical_and_no_stale_objects(self):
        pipeline = NerPipeline.build(300, seed=1, steps_per_sample=100)
        model, session = pipeline.instance.model, pipeline.session
        graph = model.graph
        pipeline.instance.kernel.run(3000)  # Move the labels off 'O'.

        def token(tok_id):
            return graph.find(("TOKEN", (tok_id,), "LABEL"))

        # Document 0 (seed 1): "York" at 32, 53 and 57 is a skip group;
        # "Denver" at 15 has no mate.
        assert [m.pk[0] for m in model.skip_neighbors(token(32))] == [53, 57]
        assert model.skip_neighbors(token(15)) == []

        def deltas():
            return [
                [graph.score_delta({v: label}) for label in v.domain]
                for v in model.variables
            ]

        def check():
            _live_caches(graph)
            fast = deltas()
            _live_caches(graph)
            graph.set_caching(False)
            assert fast == deltas()
            graph.set_caching(True)
            deltas()  # Refill every cache before the next repair.

        check()
        old = token(53)
        for statement in (
            "INSERT INTO TOKEN VALUES (1000, 0, 'York', 'O', 'B-LOC')",
            "UPDATE TOKEN SET STRING = 'Denver' WHERE TOK_ID = 53",
            "UPDATE TOKEN SET LABEL = 'B-LOC' WHERE TOK_ID = 32",
            "DELETE FROM TOKEN WHERE TOK_ID = 57",
            "DELETE FROM TOKEN WHERE TOK_ID = 86",
            "INSERT INTO TOKEN VALUES (86, 1, 'Manny', 'O', 'B-PER')",
        ):
            session.execute(statement)
            check()
        assert token(53) is not old
        assert [m.pk[0] for m in model.skip_neighbors(token(53))] == [15]
        assert [m.pk[0] for m in model.skip_neighbors(token(32))] == [1000]
        assert token(57) is None
        assert model.string_of(token(86)) == "Manny"


class TestGibbs:
    def test_trajectory_bit_identical(self):
        worlds = []
        for cached in (True, False):
            task = make_task(400, steps_per_sample=100)
            instance = task.make_instance(3)
            instance.kernel.graph.set_caching(cached)
            sampler = GibbsSampler(instance.model.graph, seed=5)
            sampler.run(1200)
            worlds.append(tuple(v.value for v in instance.model.variables))
        assert worlds[0] == worlds[1]


class TestSampleRankInvalidation:
    """Mid-run ``Weights.update`` calls must invalidate the scorers'
    blanket caches through ``Weights.version``: a stale cached score
    would change an update decision, and the weight trajectories would
    diverge from the uncached reference."""

    def _train(self, cached: bool):
        task = make_task(500, steps_per_sample=100, weight_mode="zero")
        instance = task.make_instance(2)
        weights = instance.model.weights
        instance.model.graph.set_caching(cached)
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
            sorted(weights.items()),
            instance.model.accuracy_against_truth(),
        )

    def test_training_bit_identical(self):
        assert self._train(True) == self._train(False)
