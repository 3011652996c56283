"""Unit tests for the factor-graph structure caches.

Covers the two layers under the array scorer:

* template instance pools (static ``factors_for`` returns the same
  factor objects for the graph's lifetime);
* the graph's static adjacency cache (``adjacent_static`` /
  ``factors_touching`` stop scanning templates);

plus the ``Weights.version`` counter every cached score is keyed on.
"""

import pickle

from repro.fg import (
    Domain,
    FactorGraph,
    HiddenVariable,
    PairwiseTemplate,
    UnaryTemplate,
    Weights,
)

BIN = Domain("bin", ["0", "1"])


class FieldFeatures:
    """Picklable unary features."""

    def __call__(self, variable):
        return {("on", variable.value): 1.0}


class PairFeatures:
    def __call__(self, a, b):
        return {("agree", a.value == b.value): 1.0}


class ChainNeighbors:
    """Picklable chain-adjacency function (pickling tests ship the whole
    graph, so no local closures)."""

    def __init__(self, variables):
        self.variables = list(variables)
        self.index = {v.name: i for i, v in enumerate(self.variables)}

    def __call__(self, var):
        i = self.index[var.name]
        out = []
        if i > 0:
            out.append(self.variables[i - 1])
        if i + 1 < len(self.variables):
            out.append(self.variables[i + 1])
        return out


def make_chain(n=3):
    weights = Weights()
    weights.set("field", ("on", "1"), 0.5)
    weights.set("pair", ("agree", True), 1.0)
    variables = [HiddenVariable(f"v{i}", BIN, "0") for i in range(n)]
    templates = [
        UnaryTemplate("field", weights, FieldFeatures()),
        PairwiseTemplate(
            "pair", weights, ChainNeighbors(variables), PairFeatures()
        ),
    ]
    return FactorGraph(variables, templates), variables


class TestInstancePools:
    def test_static_factors_are_pooled(self):
        graph, variables = make_chain()
        first = graph.factors_touching([variables[0]])
        second = graph.factors_touching([variables[0]])
        assert first.keys() == second.keys()
        for key in first:
            assert first[key] is second[key]

    def test_adjacent_static_caches_tuple(self):
        graph, variables = make_chain()
        assert graph.adjacent_static(variables[1]) is graph.adjacent_static(
            variables[1]
        )

    def test_pairwise_endpoints_share_instance(self):
        graph, variables = make_chain()
        from_left = {
            f.key: f for f in graph.templates[1].factors_for(variables[0])
        }
        from_right = {
            f.key: f for f in graph.templates[1].factors_for(variables[1])
        }
        shared = set(from_left) & set(from_right)
        assert shared
        for key in shared:
            assert from_left[key] is from_right[key]

    def test_uncached_mode_returns_fresh_objects(self):
        graph, variables = make_chain()
        graph.set_caching(False)
        first = graph.factors_touching([variables[0]])
        second = graph.factors_touching([variables[0]])
        for key in first:
            assert first[key] is not second[key]

    def test_clear_caches_rebuilds(self):
        graph, variables = make_chain()
        before = graph.adjacent_static(variables[0])
        graph.clear_caches()
        after = graph.adjacent_static(variables[0])
        assert before is not after
        assert [f.key for f in before] == [f.key for f in after]

    def test_factors_touching_matches_uncached(self):
        graph, variables = make_chain(4)
        variables[1].set_value("1")
        cached = graph.factors_touching(variables[:3])
        graph.set_caching(False)
        uncached = graph.factors_touching(variables[:3])
        assert list(cached.keys()) == list(uncached.keys())
        assert [f.score() for f in cached.values()] == [
            f.score() for f in uncached.values()
        ]

    def test_score_matches_uncached_reference(self):
        graph, variables = make_chain(3)
        for assignment in (["0", "1", "0"], ["1", "1", "1"]):
            for variable, value in zip(variables, assignment):
                variable.set_value(value)
            cached = graph.score()
            graph.set_caching(False)
            assert graph.score() == cached
            graph.set_caching(True)


class TestWeightsVersion:
    def test_set_and_update_bump_version(self):
        weights = Weights()
        v0 = weights.version
        weights.set("t", "a", 1.0)
        v1 = weights.version
        weights.update("t", {"a": 1.0, "b": 2.0}, 0.5)
        assert v0 < v1 < weights.version

    def test_load_produces_fresh_version(self, tmp_path):
        # load() constructs the mapping directly rather than replaying
        # set() calls, so a freshly loaded vector starts at version 0 —
        # load is the exact inverse of save, not a mutation history.
        weights = Weights()
        weights.set("t", "a", 1.0)
        path = tmp_path / "w.json"
        weights.save(path)
        loaded = Weights.load(path)
        assert loaded.version == 0
        assert loaded.get("t", "a") == 1.0

    def test_copy_preserves_version(self):
        weights = Weights()
        weights.set("t", "a", 1.0)
        assert weights.copy().version == weights.version


class TestPickling:
    def test_warmed_graph_pickles_and_caches_rebuild(self):
        graph, variables = make_chain()
        graph.score()  # warm pools and adjacency
        expected = graph.score()
        clone = pickle.loads(pickle.dumps((graph, variables)))[0]
        assert clone._static_adjacency == {}
        assert clone._flat_adjacency == {}
        assert clone.score() == expected

    def test_unpickled_graph_still_samples(self):
        from repro.mcmc import MetropolisHastings
        from repro.mcmc.proposal import UniformLabelProposer

        graph, variables = make_chain()
        graph.score()
        clone_graph, clone_vars = pickle.loads(pickle.dumps((graph, variables)))
        kernel = MetropolisHastings(
            clone_graph, UniformLabelProposer(clone_vars), seed=3
        )
        kernel.run(200)
        assert kernel.stats.proposals == 200
