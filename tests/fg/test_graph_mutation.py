"""Unit tests for the FactorGraph incremental mutation API (ISSUE 5).

The live-update subsystem edits graphs in place:
``add_variables`` / ``remove_variables`` / ``add_factors`` /
``remove_factors`` must keep scoring correct while invalidating the
PR-3 adjacency/score caches *only* for touched variables.
"""

import pytest

from repro.errors import GraphError
from repro.fg import (
    Domain,
    FactorGraph,
    GraphRepair,
    HiddenVariable,
    PairwiseTemplate,
    UnaryTemplate,
    Weights,
)

BIN = Domain("bin", ["0", "1"])


class ChainModel:
    """A mutable linear chain over named variables (test fixture).

    The neighbour map is explicit so tests can rewire structure and
    then exercise the graph mutation API the way a repair hook would.
    """

    def __init__(self, n=4, field=0.4, coupling=0.8):
        self.weights = Weights()
        self.weights.set("f", "on", field)
        self.weights.set("p", "agree", coupling)
        self.variables = [HiddenVariable(f"v{i}", BIN, "0") for i in range(n)]
        self.neighbors = {}
        self._link_all()
        self.templates = [
            UnaryTemplate("f", self.weights, self._field_features),
            PairwiseTemplate(
                "p", self.weights, self._neighbor_fn, self._pair_features
            ),
        ]
        self.graph = FactorGraph(self.variables, self.templates)

    def _link_all(self):
        self.neighbors = {
            v.name: [
                self.variables[j]
                for j in (i - 1, i + 1)
                if 0 <= j < len(self.variables)
            ]
            for i, v in enumerate(self.variables)
        }

    def _field_features(self, variable):
        return {"on": 1.0} if variable.value == "1" else {}

    def _neighbor_fn(self, variable):
        return self.neighbors.get(variable.name, ())

    def _pair_features(self, a, b):
        return {"agree": 1.0} if a.value == b.value else {}


def reference_graph(model):
    """An uncached from-scratch graph over the model's current state."""
    graph = FactorGraph(model.variables, model.templates)
    return graph


def assert_matches_rebuild(model):
    """The mutated graph must enumerate the same factors and score as a
    graph built from scratch over the same structure (with the shared
    templates' caches cleared so nothing stale leaks through)."""
    mutated_keys = list(model.graph.all_factors().keys())
    mutated_score = model.graph.score()
    for template in model.templates:
        template.clear_cache()
    rebuilt = reference_graph(model)
    assert mutated_keys == list(rebuilt.all_factors().keys())
    assert mutated_score == rebuilt.score()


class TestAddRemoveVariables:
    def test_append_extends_chain(self):
        model = ChainModel(3)
        # Warm the caches first, as a live chain would have.
        model.graph.score()
        new = HiddenVariable("v3", BIN, "1")
        model.variables.append(new)
        model._link_all()
        model.graph.add_variables([new], touched=[model.variables[2]])
        assert model.graph.variable("v3") is new
        assert len(model.graph) == 4
        assert_matches_rebuild(model)

    def test_insert_at_index_preserves_order(self):
        model = ChainModel(4)
        model.graph.score()
        new = HiddenVariable("v1.5", BIN, "0")
        model.variables.insert(2, new)
        model._link_all()
        model.graph.add_variables(
            [new],
            touched=[model.variables[1], model.variables[3]],
            index=2,
        )
        assert [v.name for v in model.graph.variables] == [
            "v0", "v1", "v1.5", "v2", "v3",
        ]
        assert_matches_rebuild(model)

    def test_remove_interior_relinks(self):
        model = ChainModel(4)
        model.graph.score()
        victim = model.variables.pop(2)
        model._link_all()
        model.graph.remove_variables(
            [victim], touched=[model.variables[1], model.variables[2]]
        )
        with pytest.raises(GraphError):
            model.graph.variable(victim.name)
        assert model.graph.find(victim.name) is None
        assert_matches_rebuild(model)

    def test_duplicate_add_rejected(self):
        model = ChainModel(3)
        with pytest.raises(GraphError, match="already in the graph"):
            model.graph.add_variables([HiddenVariable("v1", BIN, "0")])

    def test_failed_batch_add_leaves_graph_unchanged(self):
        """Regression (found by repro-lint RL002): a duplicate appearing
        mid-batch used to leave the batch's earlier names registered in
        the name index — absent from ``variables``, with no cache
        invalidation — a half-mutated graph.  The whole batch must be
        validated before anything is inserted."""
        model = ChainModel(3)
        fresh = HiddenVariable("v9", BIN, "0")
        dupe = HiddenVariable("v1", BIN, "0")
        before = list(model.graph.variables)
        with pytest.raises(GraphError, match="already in the graph"):
            model.graph.add_variables([fresh, dupe])
        assert model.graph.find("v9") is None  # nothing half-registered
        assert list(model.graph.variables) == before
        # Intra-batch duplicates are rejected too.
        twins = [
            HiddenVariable("twin", BIN, "0"),
            HiddenVariable("twin", BIN, "1"),
        ]
        with pytest.raises(GraphError, match="already in the graph"):
            model.graph.add_variables(twins)
        assert model.graph.find("twin") is None
        assert len(model.graph) == 3

    def test_remove_unknown_rejected(self):
        model = ChainModel(3)
        with pytest.raises(GraphError, match="no hidden variable"):
            model.graph.remove_variables(["nope"])

    def test_cannot_empty_the_graph(self):
        model = ChainModel(2)
        with pytest.raises(GraphError, match="at least one hidden"):
            model.graph.remove_variables(list(model.variables))

    def test_score_delta_correct_after_mutation(self):
        """The MH hot path must see the repaired structure."""
        model = ChainModel(3)
        graph = model.graph
        graph.score()  # warm caches
        new = HiddenVariable("v3", BIN, "0")
        model.variables.append(new)
        model._link_all()
        graph.add_variables([new], touched=[model.variables[2]])
        before = graph.score()
        delta = graph.score_delta({new: "1"})
        new.set_value("1")
        assert delta == pytest.approx(graph.score() - before)
        # the new variable participates in a pairwise factor with v2
        assert any(
            "v3" in key[1] and "v2" in key[1]
            for key in graph.all_factors()
        )


class TestTargetedInvalidation:
    def test_untouched_variables_keep_cached_instances(self):
        model = ChainModel(5)
        graph = model.graph
        graph.score()
        far = graph.variable("v0")
        cached_before = graph.adjacent_static(far)
        new = HiddenVariable("v5", BIN, "0")
        model.variables.append(new)
        model._link_all()
        graph.add_variables([new], touched=[graph.variable("v4")])
        # v0 is far from the edit: its cached adjacency tuple survives.
        assert graph.adjacent_static(far) is cached_before

    def test_removed_variable_partners_evicted_even_without_touched(self):
        """The robust scan: caches referencing a removed variable are
        dropped even when the caller forgets to pass ``touched``."""
        model = ChainModel(3)
        graph = model.graph
        graph.score()
        victim = model.variables.pop(2)  # v2, partner of v1
        model._link_all()
        graph.remove_variables([victim])  # no touched given
        survivor = graph.variable("v1")
        keys = {f.key for f in graph.adjacent_static(survivor)}
        assert not any(victim.name in key[1] for key in keys)

    def test_removal_evicts_pooled_pairs_and_only_partner_caches(self):
        """Removing a variable without ``touched`` evicts its pooled
        pair factors, their endpoint-index entries and its partners'
        cached tuples and scorers; every other variable keeps its
        cached objects."""
        model = ChainModel(6)
        graph = model.graph
        pair = model.templates[1]
        for variable in model.variables:
            graph.local_conditional_scores(variable)  # Compile scorers.
        far = [graph.variable(name) for name in ("v4", "v5")]
        kept = [(graph.adjacent_static(v), graph._scorer(v)) for v in far]
        victim = model.variables.pop(2)  # Partners v1 and v3.
        model._link_all()
        graph.remove_variables([victim])  # no touched given
        assert not any(victim.name in key for key in pair._pool)
        assert pair.partners(victim.name) == ()
        assert victim.name not in pair.partners("v1")
        assert victim.name not in pair.partners("v3")
        for name in ("v1", "v3"):
            assert name not in pair._adjacent
            assert name not in graph._flat_adjacency
            assert name not in graph._scorers
        for v, (flat, scorer) in zip(far, kept):
            assert graph.adjacent_static(v) is flat
            assert graph._scorer(v) is scorer
        assert_matches_rebuild(model)

    def test_add_remove_factors_invalidate_endpoints(self):
        from repro.fg import LogLinearFactor

        model = ChainModel(4)
        graph = model.graph
        graph.score()
        a, b = graph.variable("v0"), graph.variable("v3")
        cached_a = graph.adjacent_static(a)
        # Rewire: connect the chain's ends, then declare the new factor
        # (only its endpoints matter to the declaration).
        model.neighbors["v0"].append(b)
        model.neighbors["v3"].append(a)
        declared = LogLinearFactor(
            "p", (a, b), model.weights, model._pair_features,
            pass_variables=True,
        )
        graph.add_factors([declared])
        assert graph.adjacent_static(a) is not cached_a
        assert any(
            {"v0", "v3"} == set(key[1]) for key in graph.all_factors()
        )
        # And the inverse edit.
        model.neighbors["v0"].remove(b)
        model.neighbors["v3"].remove(a)
        graph.remove_factors([declared])
        assert not any(
            {"v0", "v3"} == set(key[1]) for key in graph.all_factors()
        )
        assert_matches_rebuild(model)

    def test_mutation_with_caching_disabled(self):
        model = ChainModel(3)
        model.graph.set_caching(False)
        new = HiddenVariable("v3", BIN, "1")
        model.variables.append(new)
        model._link_all()
        model.graph.add_variables([new], touched=[model.variables[2]])
        assert_matches_rebuild(model)


class TestGraphRepair:
    def test_local_variables_dedup_added_first(self):
        a = HiddenVariable("a", BIN, "0")
        b = HiddenVariable("b", BIN, "0")
        repair = GraphRepair(added=[a], touched=[b, a, b])
        assert repair.local_variables() == [a, b]
        assert not repair.is_empty()

    def test_empty(self):
        assert GraphRepair().is_empty()
