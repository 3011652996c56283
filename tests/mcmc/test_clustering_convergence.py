"""Convergence of clustering proposers to the exact partition posterior.

The strongest correctness check for the coref machinery: on a tiny set
of mentions, enumerate every cluster-id assignment, collapse to
partitions (the model is label-invariant), and compare the exact
partition posterior with the empirical distribution of a long MH run —
for both the move proposer and the paper's split-merge proposer.  This
validates the Hastings corrections derived in
:mod:`repro.ie.coref.proposals`.  A real ``CorefModel`` with both
templates is checked the same way, against enumeration of its own
``graph.score()``, which validates its pair-score fast path.
"""

import itertools
import math
from collections import defaultdict

import pytest

from repro.fg import Domain, FactorGraph, HiddenVariable, PairwiseTemplate, Weights
from repro.ie.coref import (
    CorefModel,
    Mention,
    build_mention_database,
    default_coref_weights,
)
from repro.ie.coref.proposals import MoveMentionProposer, SplitMergeProposer
from repro.mcmc import MetropolisHastings

N = 4  # mentions; Bell(4) = 15 partitions


def make_clustering_model(pair_scores):
    """Variables over cluster ids 0..N-1; score = sum of pair_scores for
    co-clustered pairs (a label-invariant model)."""
    domain = Domain("c", range(N))
    variables = [HiddenVariable(f"m{i}", domain, i) for i in range(N)]
    index = {v.name: i for i, v in enumerate(variables)}
    weights = Weights()
    for key, value in pair_scores.items():
        weights.set("aff", key, value)

    def neighbors(variable):
        return [
            other
            for other in variables
            if other is not variable and other.value == variable.value
        ]

    def features(a, b):
        i, j = sorted((index[a.name], index[b.name]))
        return {(i, j): 1.0}

    graph = FactorGraph(
        variables,
        [PairwiseTemplate("aff", weights, neighbors, features, dynamic=True)],
    )
    return graph, variables


def partition_of(values):
    blocks = defaultdict(set)
    for i, value in enumerate(values):
        blocks[value].add(i)
    return frozenset(frozenset(b) for b in blocks.values())


def normalized(scores):
    peak = max(scores.values())
    z = sum(math.exp(s - peak) for s in scores.values())
    return {p: math.exp(s - peak) / z for p, s in scores.items()}


def exact_partition_posterior(pair_scores):
    scores = {}
    for assignment in itertools.product(range(N), repeat=N):
        partition = partition_of(assignment)
        if partition in scores:
            continue
        score = 0.0
        for block in partition:
            for i in block:
                for j in block:
                    if i < j:
                        score += pair_scores.get((i, j), 0.0)
        scores[partition] = score
    return normalized(scores)


def scored_partition_posterior(graph):
    """The exact partition posterior of a label-invariant graph, from
    ``graph.score()`` at one labelling per partition."""
    variables = graph.variables
    saved = [v.value for v in variables]
    scores = {}
    try:
        for assignment in itertools.product(range(N), repeat=N):
            partition = partition_of(assignment)
            if partition not in scores:
                for variable, value in zip(variables, assignment):
                    variable.set_value(value)
                scores[partition] = graph.score()
    finally:
        for variable, value in zip(variables, saved):
            variable.set_value(value)
    return normalized(scores)


PAIR_SCORES = {(0, 1): 1.2, (1, 2): -0.4, (2, 3): 0.8, (0, 3): -1.0}


def toy_model():
    graph, variables = make_clustering_model(PAIR_SCORES)
    return graph, variables, exact_partition_posterior(PAIR_SCORES)


def coref_model():
    """A real CorefModel with repulsion on, where mentions 0 and 1 share
    a surname (a repulsion candidate pair).  Weak weights spread the
    posterior over ten partitions above 0.02.  Move proposals change one
    mention, so the chain is scored from the graph's pair-score table."""
    db = build_mention_database(
        [
            Mention(0, 0, "John Smith"),
            Mention(1, 0, "J. Smith"),
            Mention(2, 1, "Mary Jones"),
            Mention(3, 2, "Bob Brown"),
        ]
    )
    model = CorefModel(db, weights=default_coref_weights(0.3, 0.3))
    return model.graph, model.variables, scored_partition_posterior(model.graph)


@pytest.mark.parametrize(
    "build, proposer_cls",
    [
        pytest.param(toy_model, MoveMentionProposer, id="MoveMentionProposer"),
        pytest.param(toy_model, SplitMergeProposer, id="SplitMergeProposer"),
        pytest.param(
            coref_model, MoveMentionProposer, id="CorefModel-MoveMentionProposer"
        ),
    ],
)
def test_clustering_chain_matches_exact_posterior(build, proposer_cls):
    graph, variables, exact = build()
    kernel = MetropolisHastings(graph, proposer_cls(variables), seed=99)
    counts: dict = defaultdict(int)
    total = 60_000
    for _ in range(total):
        kernel.step()
        counts[partition_of([v.value for v in variables])] += 1
    for partition, probability in exact.items():
        if probability > 0.02:
            empirical = counts[partition] / total
            assert empirical == pytest.approx(probability, abs=0.025), (
                f"{proposer_cls.__name__}: partition {sorted(map(sorted, partition))} "
                f"exact {probability:.3f} vs empirical {empirical:.3f}"
            )


def test_both_proposers_reach_all_partitions():
    graph, variables = make_clustering_model({})
    for proposer_cls in (MoveMentionProposer, SplitMergeProposer):
        kernel = MetropolisHastings(graph, proposer_cls(variables), seed=5)
        seen = set()
        for _ in range(20_000):
            kernel.step()
            seen.add(partition_of([v.value for v in variables]))
        assert len(seen) == 15, f"{proposer_cls.__name__} must reach Bell(4)=15 partitions"
