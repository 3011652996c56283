"""Unit tests for the array-backed local scorer (ISSUE 9 tentpole).

The array path is an *optimization*, so every test here is an
equivalence or lifecycle test: eligibility decisions, cache
invalidation on weight updates and structural repair, and the two
graph APIs (``score_delta_batch``, ``local_conditional_scores``).
Exact comparisons are against the dict-scoring reference,
``set_caching(False)``.  The end-to-end bit-identity runs live in
``tests/integration``.
"""

import pytest

from repro.fg import (
    ConstraintFactor,
    Domain,
    FactorGraph,
    HiddenVariable,
    PairwiseTemplate,
    TableFactor,
    UnaryTemplate,
    Weights,
    build_scorer,
)

BIN = Domain("bin", ["0", "1"])


def make_chain(n=3, coupling=1.0, field=0.5, signatures=True):
    """An Ising-style chain with optional signature functions."""
    weights = Weights()
    weights.set("field", "on", field)
    weights.set("pair", "agree", coupling)
    variables = [HiddenVariable(f"v{i}", BIN, "0") for i in range(n)]
    index = {v.name: i for i, v in enumerate(variables)}

    def field_features(var):
        return {"on": 1.0} if var.value == "1" else {}

    def neighbors(var):
        i = index[var.name]
        out = []
        if i > 0:
            out.append(variables[i - 1])
        if i + 1 < len(variables):
            out.append(variables[i + 1])
        return out

    def pair_features(a, b):
        return {"agree": 1.0} if a.value == b.value else {}

    kwargs = {}
    pair_kwargs = {}
    if signatures:
        kwargs["signature_fn"] = lambda v: None
        pair_kwargs["signature_fn"] = lambda a, b: None
    templates = [
        UnaryTemplate("field", weights, field_features, **kwargs),
        PairwiseTemplate("pair", weights, neighbors, pair_features, **pair_kwargs),
    ]
    return FactorGraph(variables, templates), variables, weights


def brute_delta(graph, variable, value):
    """Reference delta via full-graph rescoring with caches off."""
    graph.set_caching(False)
    before = graph.score()
    saved = variable.value
    variable.set_value(value)
    after = graph.score()
    variable.set_value(saved)
    graph.set_caching(True)
    return after - before


class TestEligibility:
    def test_stable_loglinear_gets_scorer(self):
        graph, variables, _ = make_chain()
        scorer = build_scorer(variables[1], graph.adjacent_static(variables[1]))
        assert scorer is not None

    def test_unstable_template_gets_none(self):
        graph, variables, _ = make_chain()
        graph.templates[0].stable_features = False
        graph.clear_caches()
        factors = graph.adjacent_static(variables[1])
        assert build_scorer(variables[1], factors) is None

    def test_table_and_constraint_factors_allowed(self):
        v = HiddenVariable("v", BIN, "0")
        table = TableFactor("tab", (v,), {("0",): 0.25, ("1",): -0.5})
        hard = ConstraintFactor("con", (v,), lambda values: True)
        scorer = build_scorer(v, (table, hard))
        assert scorer is not None
        assert scorer.delta("1") == -0.75

    def test_graph_registers_none_for_ineligible(self):
        graph, variables, _ = make_chain()
        graph.templates[0].stable_features = False
        graph.clear_caches()
        v = variables[0]
        fast = graph.score_delta({v: "1"})
        assert graph._scorers[v.name] is None
        graph.set_caching(False)
        assert graph.score_delta({v: "1"}) == fast


class TestDeltaCorrectness:
    @pytest.mark.parametrize("signatures", [True, False])
    def test_matches_brute_force(self, signatures):
        graph, variables, _ = make_chain(n=4, signatures=signatures)
        variables[2].set_value("1")
        for v in variables:
            for value in v.domain:
                got = graph.score_delta({v: value})
                assert got == pytest.approx(brute_delta(graph, v, value))

    def test_matches_dict_path_exactly(self):
        graph, variables, _ = make_chain(n=5)
        variables[1].set_value("1")
        moves = [(v, value) for v in variables for value in v.domain]
        fast = [graph.score_delta({v: val}) for v, val in moves]
        graph.set_caching(False)
        assert [graph.score_delta({v: val}) for v, val in moves] == fast


class TestInvalidation:
    def test_weight_update_invalidates_blanket_cache(self):
        graph, variables, weights = make_chain()
        v = variables[1]
        first = graph.score_delta({v: "1"})
        weights.set("field", "on", 2.0)
        second = graph.score_delta({v: "1"})
        assert second != first
        assert second == pytest.approx(brute_delta(graph, v, "1"))

    def test_noop_weight_set_keeps_cache_valid(self):
        graph, variables, weights = make_chain()
        v = variables[1]
        first = graph.score_delta({v: "1"})
        version = weights.version
        weights.set("field", "on", 0.5)  # same value: no-op
        assert weights.version == version
        assert graph.score_delta({v: "1"}) == first

    def test_invalidate_adjacency_drops_scorers(self):
        graph, variables, _ = make_chain()
        v = variables[1]
        graph.score_delta({v: "1"})  # builds + registers a scorer
        graph.invalidate_adjacency([v.name])
        # A neighbor's scorer references v by name and must go too.
        assert graph.score_delta({variables[0]: "1"}) == pytest.approx(
            brute_delta(graph, variables[0], "1")
        )

    def test_blanket_move_refreshes_scores(self):
        graph, variables, _ = make_chain(n=3)
        v = variables[1]
        before = graph.score_delta({v: "1"})
        variables[0].set_value("1")
        after = graph.score_delta({v: "1"})
        assert after != before
        assert after == pytest.approx(brute_delta(graph, v, "1"))


class TestBatchAndConditional:
    def test_score_delta_batch_matches_sequential(self):
        graph, variables, _ = make_chain(n=4)
        proposals = [{v: "1"} for v in variables] + [{variables[0]: "0"}]
        batch = graph.score_delta_batch(proposals)
        sequential = [graph.score_delta(p) for p in proposals]
        assert batch == sequential

    def test_local_conditional_scores_match_dict_path(self):
        graph, variables, _ = make_chain(n=4)
        variables[3].set_value("1")
        for v in variables:
            fast = graph.local_conditional_scores(v)
            graph.set_caching(False)
            reference = graph.local_conditional_scores(v)
            graph.set_caching(True)
            assert fast == reference
            assert len(fast) == len(v.domain)

    def test_conditional_scores_shift_consistently(self):
        # Score differences between candidates must equal score_delta.
        graph, variables, _ = make_chain(n=3)
        v = variables[1]
        scores = graph.local_conditional_scores(v)
        current = scores[v.domain.index(v.value)]
        for value, score in zip(v.domain, scores):
            assert score - current == pytest.approx(graph.score_delta({v: value}))


class FieldFeatures:
    """Picklable unary features (pickling tests ship the whole graph)."""

    def __call__(self, var):
        return {"on": 1.0} if var.value == "1" else {}


class PairFeatures:
    def __call__(self, a, b):
        return {"agree": 1.0} if a.value == b.value else {}


class ChainNeighbors:
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


class TestPickling:
    def test_scorers_rebuild_after_pickle(self):
        import pickle

        weights = Weights()
        weights.set("field", "on", 0.5)
        weights.set("pair", "agree", 1.0)
        variables = [HiddenVariable(f"v{i}", BIN, "0") for i in range(3)]
        templates = [
            UnaryTemplate("field", weights, FieldFeatures()),
            PairwiseTemplate(
                "pair", weights, ChainNeighbors(variables), PairFeatures()
            ),
        ]
        graph = FactorGraph(variables, templates)
        v = variables[1]
        before = graph.score_delta({v: "1"})
        clone, clone_vars = pickle.loads(pickle.dumps((graph, variables)))
        clone_v = next(u for u in clone_vars if u.name == v.name)
        assert clone.score_delta({clone_v: "1"}) == before
