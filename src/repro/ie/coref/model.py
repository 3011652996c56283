"""The entity-resolution factor graph (paper Fig. 1, bottom row).

Hidden variables are per-mention cluster ids; the graph has
*structure that changes during inference*: which pairwise factors exist
depends on the current clustering.

* **affinity** factors connect every pair of mentions in the same
  cluster ("mentions in clusters should be cohesive");
* **repulsion** factors connect *similar candidate pairs* that sit in
  different clusters ("mentions in separate clusters should be
  distant").  Restricting repulsion to candidate pairs (shared surname
  token) keeps the factor count near-linear, mirroring how such models
  are deployed.

Transitivity is enforced representationally (cluster ids), so the
cubic deterministic factors the paper mentions are unnecessary —
exactly the constraint-preserving design of §3.4.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from typing import Any, Dict, FrozenSet, Hashable, Iterable, List, Optional, Set, Tuple

from repro.db.database import Database
from repro.db.delta import Delta
from repro.errors import GraphError
from repro.fg.domain import Domain
from repro.fg.features import FeatureVector
from repro.fg.graph import FactorGraph, GraphRepair
from repro.fg.templates import PairwiseTemplate
from repro.fg.variables import FieldVariable, HiddenVariable
from repro.fg.weights import Weights

__all__ = ["CorefModel", "default_coref_weights", "pairwise_f1"]

MENTION_TABLE = "MENTION"
AFFINITY = "coref/affinity"
REPULSION = "coref/repulsion"


def _similarity_features(a: str, b: str) -> FeatureVector:
    """String-pair features shared by both templates."""
    tokens_a = a.replace(".", "").split()
    tokens_b = b.replace(".", "").split()
    features: FeatureVector = {}
    if a == b:
        features["exact"] = 1.0
    if tokens_a and tokens_b and tokens_a[-1] == tokens_b[-1]:
        features["last-match"] = 1.0
    else:
        features["last-mismatch"] = 1.0
    firsts_a, firsts_b = tokens_a[:-1], tokens_b[:-1]
    if firsts_a and firsts_b:
        if firsts_a[0][0] == firsts_b[0][0]:
            features["first-initial-match"] = 1.0
        else:
            features["first-mismatch"] = 1.0
    overlap = len(set(tokens_a) & set(tokens_b))
    if overlap:
        features["overlap"] = float(overlap)
    return features


def default_coref_weights(
    cohesion: float = 1.5, repulsion_scale: float = 1.0
) -> Weights:
    """Hand-set weights encoding the obvious preferences.

    The coref application is the paper's running illustration rather
    than a benchmarked workload, so interpretable hand weights (rather
    than SampleRank) are the default; training works the same way as
    for NER if desired.
    """
    weights = Weights()
    base = {
        "exact": 2.0,
        "last-match": 1.0,
        "last-mismatch": -2.5,
        "first-initial-match": 0.5,
        "first-mismatch": -2.0,
        "overlap": 0.75,
    }
    for feature, value in base.items():
        weights.set(AFFINITY, feature, cohesion * value)
        # Repulsion factors fire on *cross-cluster* pairs: similarity
        # there is penalized, dissimilarity rewarded — the sign flip.
        weights.set(REPULSION, feature, -repulsion_scale * value)
    return weights


class CorefModel:
    """Binds the MENTION relation to a clustering factor graph.

    The MENTION table needs attributes (MENTION_ID, STRING, CLUSTER,
    TRUTH); CLUSTER is the uncertain field.  Cluster ids range over
    ``0 .. num_mentions-1`` so any partition is representable; an
    explicit ``domain`` overrides that default (rebuilding a model over
    a live database whose cluster ids outgrew the mention count — the
    repair path only ever *grows* the domain).
    """

    #: Relations this model reads — DML deltas on them require repair.
    tables = (MENTION_TABLE,)

    def __init__(
        self,
        db: Database,
        weights: Weights | None = None,
        use_repulsion: bool = True,
        domain: Optional[Domain] = None,
    ):
        self.db = db
        self.weights = weights if weights is not None else default_coref_weights()

        table = db.table(MENTION_TABLE)
        schema = table.schema
        pos_id = schema.position("MENTION_ID")
        pos_str = schema.position("STRING")
        pos_truth = schema.position("TRUTH")
        rows = sorted(table.rows(), key=lambda r: r[pos_id])
        if not rows:
            raise GraphError("MENTION relation is empty")

        self.domain = (
            domain if domain is not None else Domain("clusters", range(len(rows)))
        )
        self.variables: List[FieldVariable] = []
        self._strings: Dict[Hashable, str] = {}
        self.gold_entity: Dict[Hashable, int] = {}
        for row in rows:
            variable = FieldVariable(
                db, MENTION_TABLE, (row[pos_id],), "CLUSTER", self.domain
            )
            self.variables.append(variable)
            self._strings[variable.name] = row[pos_str]
            self.gold_entity[variable.name] = row[pos_truth]

        # Candidate pairs for repulsion: mentions sharing a surname token.
        self._candidates: Dict[Hashable, List[FieldVariable]] = defaultdict(list)
        by_last: Dict[str, List[FieldVariable]] = defaultdict(list)
        for variable in self.variables:
            tokens = self._strings[variable.name].replace(".", "").split()
            if tokens:
                by_last[tokens[-1]].append(variable)
        for mates in by_last.values():
            for variable in mates:
                self._candidates[variable.name] = [
                    m for m in mates if m is not variable
                ]

        self.templates = self._build_templates(use_repulsion)
        self.graph = CorefGraph(self, self.templates)

    # ------------------------------------------------------------------
    def string_of(self, variable: HiddenVariable) -> str:
        return self._strings[variable.name]

    def cluster_members(self, cluster_id: int) -> List[FieldVariable]:
        """Members computed from current values (always consistent with
        hypothesized worlds, unlike a cached index)."""
        return [v for v in self.variables if v.value == cluster_id]

    def partition(self) -> Set[FrozenSet]:
        out: Dict[int, set] = defaultdict(set)
        for variable in self.variables:
            out[variable.value].add(variable.name)
        return {frozenset(group) for group in out.values()}

    def gold_partition(self) -> Set[FrozenSet]:
        out: Dict[int, set] = defaultdict(set)
        for variable in self.variables:
            out[self.gold_entity[variable.name]].add(variable.name)
        return {frozenset(group) for group in out.values()}

    # ------------------------------------------------------------------
    # Live repair (DML-driven graph edits)
    # ------------------------------------------------------------------
    @staticmethod
    def _surname(string: str) -> str | None:
        tokens = string.replace(".", "").split()
        return tokens[-1] if tokens else None

    def repair_from_delta(self, delta: Delta) -> GraphRepair:
        """Map a MENTION delta to incremental graph edits.

        Inserted mentions become fresh cluster variables (the domain
        grows monotonically to keep every partition representable);
        deleted mentions leave the graph; STRING updates are structural
        (the candidate blocking changes — delete + insert); CLUSTER
        updates re-sync the in-memory world (evidence assignment);
        TRUTH updates only adjust the gold partition.

        Both templates are *dynamic*, so repair reduces to membership
        and candidate-list maintenance; the graph's pair-score table is
        emptied by the ``remove_variables``/``add_variables`` calls (a
        STRING update keeps the variable's name but not its string).
        Mention-id ordering is preserved, so the repaired
        graph scores bit-identically to a model rebuilt over the
        updated relation (given the same domain).
        """
        repair = GraphRepair()
        changes = delta.for_table(MENTION_TABLE)
        if changes.is_empty():
            return repair
        schema = self.db.table(MENTION_TABLE).schema
        pos_id = schema.position("MENTION_ID")
        pos_str = schema.position("STRING")
        pos_cluster = schema.position("CLUSTER")
        pos_truth = schema.position("TRUTH")

        removed_rows: Dict[int, tuple] = {}
        added_rows: Dict[int, tuple] = {}
        for row, count in changes.items():
            if count < 0:
                removed_rows[row[pos_id]] = row
            elif count > 0:
                added_rows[row[pos_id]] = row

        to_remove: List[FieldVariable] = []
        to_insert: List[tuple] = []
        for mention_id in sorted(set(removed_rows) & set(added_rows)):
            old = removed_rows.pop(mention_id)
            new = added_rows.pop(mention_id)
            variable = self.graph.find((MENTION_TABLE, (mention_id,), "CLUSTER"))
            if variable is None:
                to_insert.append(new)
                continue
            if old[pos_str] != new[pos_str]:
                to_remove.append(variable)
                to_insert.append(new)
                continue
            if new[pos_truth] != old[pos_truth]:
                self.gold_entity[variable.name] = new[pos_truth]
            if new[pos_cluster] != variable.value:
                # Evidence assignment: the stored clustering moved.
                self._grow_domain(new[pos_cluster] + 1)
                variable.set_value(new[pos_cluster])
                repair.touched.append(variable)
        for mention_id in sorted(removed_rows):
            variable = self.graph.find((MENTION_TABLE, (mention_id,), "CLUSTER"))
            if variable is not None:
                to_remove.append(variable)
        for mention_id in sorted(added_rows):
            to_insert.append(added_rows[mention_id])
        if not to_remove and not to_insert:
            return repair

        affected_surnames = set()
        if to_remove:
            removed_names = {v.name for v in to_remove}
            for variable in to_remove:
                name = variable.name
                affected_surnames.add(self._surname(self._strings[name]))
                del self._strings[name]
                self.gold_entity.pop(name, None)
                self._candidates.pop(name, None)
                repair.removed.append(name)
            self.variables = [
                v for v in self.variables if v.name not in removed_names
            ]
            self.graph.remove_variables(to_remove)

        inserted: List[FieldVariable] = []
        for row in sorted(to_insert, key=lambda r: r[pos_id]):
            self._grow_domain(
                max(len(self.variables) + 1, row[pos_cluster] + 1)
            )
            variable = FieldVariable(
                self.db, MENTION_TABLE, (row[pos_id],), "CLUSTER", self.domain
            )
            index = bisect.bisect_left(
                self.variables, row[pos_id], key=lambda v: v.pk[0]
            )
            self.variables.insert(index, variable)
            self.graph.add_variables([variable], index=index)
            self._strings[variable.name] = row[pos_str]
            self.gold_entity[variable.name] = row[pos_truth]
            affected_surnames.add(self._surname(row[pos_str]))
            inserted.append(variable)
        repair.added.extend(inserted)

        new_names = {v.name for v in inserted}
        affected_surnames.discard(None)
        for surname in sorted(affected_surnames):
            members = [
                v
                for v in self.variables
                if self._surname(self._strings[v.name]) == surname
            ]
            for variable in members:
                others = [m for m in members if m is not variable]
                old = self._candidates.get(variable.name, ())
                changed = [m.name for m in old] != [m.name for m in others]
                if others:
                    self._candidates[variable.name] = others
                else:
                    self._candidates.pop(variable.name, None)
                if changed and variable.name not in new_names:
                    repair.touched.append(variable)
        return repair

    def _grow_domain(self, size: int) -> None:
        """Grow the shared cluster domain to ``range(size)`` and rebind
        every variable.  Monotonic — cluster ids in use stay valid; the
        pair query is label-invariant, so extra ids only add redundant
        relabelings of the same partitions."""
        if size <= len(self.domain):
            return
        self.domain = Domain("clusters", range(size))
        for variable in self.variables:
            variable.domain = self.domain

    # ------------------------------------------------------------------
    # Bound methods rather than closures so the model (and any chain
    # over it) pickles for the multiprocess chain backend.
    def _same_cluster_neighbors(self, variable: HiddenVariable):
        return [
            other
            for other in self.variables
            if other is not variable and other.value == variable.value
        ]

    def _affinity_features(self, a: HiddenVariable, b: HiddenVariable):
        return _similarity_features(self._strings[a.name], self._strings[b.name])

    def _cross_cluster_neighbors(self, variable: HiddenVariable):
        return [
            other
            for other in self._candidates.get(variable.name, ())
            if other.value != variable.value
        ]

    def _build_templates(self, use_repulsion: bool):
        # Both neighbourhoods depend on the current cluster values, so
        # the factor *set* changes under a proposal: dynamic=True sends
        # multi-mention proposals (and set_caching(False)) through the
        # reference's re-instantiating path, and stable_features=False
        # (the dynamic default, spelled out here) keeps them off the
        # array scorer.  Single-mention moves are served by CorefGraph's
        # pair-score table instead: a factor's score is a function of
        # the two mentions' strings only, whatever the factor set.
        templates = [
            PairwiseTemplate(
                AFFINITY,
                self.weights,
                self._same_cluster_neighbors,
                self._affinity_features,
                dynamic=True,
                stable_features=False,
            )
        ]
        if use_repulsion:
            templates.append(
                PairwiseTemplate(
                    REPULSION,
                    self.weights,
                    self._cross_cluster_neighbors,
                    self._affinity_features,
                    dynamic=True,
                    stable_features=False,
                )
            )
        return templates


class CorefGraph(FactorGraph):
    """The clustering graph, with its own path for single-mention moves.

    A pair factor's score depends only on the two mentions' strings,
    never on their cluster values, so while caching is on each
    ``(template, mention pair)`` score is computed once per weights
    version and kept in a table; a move's delta is then two masked row
    sums over it.  Multi-mention proposals (split/merge) and
    ``set_caching(False)`` take the inherited reference path, which this
    one matches bit for bit.  The table is emptied by ``set_caching``,
    ``clear_caches``, ``invalidate_adjacency`` (every live repair goes
    through it) and a weights version change, and is left out of pickles.
    """

    def __init__(self, model: CorefModel, templates: List[PairwiseTemplate]):
        super().__init__(model.variables, templates)
        self._model = model
        # (template index, lesser name, greater name) -> factor score
        self._pair_scores: Dict[Tuple[int, Hashable, Hashable], float] = {}
        self._pair_version = model.weights.version

    def set_caching(self, enabled: bool) -> None:
        super().set_caching(enabled)
        self._pair_scores.clear()

    def clear_caches(self) -> None:
        super().clear_caches()
        self._pair_scores.clear()

    def invalidate_adjacency(
        self, variables: Iterable[Any], scan: bool = True
    ) -> None:
        super().invalidate_adjacency(variables, scan)
        self._pair_scores.clear()

    def __getstate__(self) -> Dict[str, Any]:
        state = super().__getstate__()
        state["_pair_scores"] = {}
        return state

    def score_delta(self, changes: Dict[HiddenVariable, Any]) -> float:
        if len(changes) != 1 or not self._cache_enabled:
            return super().score_delta(changes)
        [(mover, new)] = changes.items()
        new = mover.domain.validate(new)  # The reference's set_value raises too.
        old = mover.value
        model = self._model
        if model.weights.version != self._pair_version:
            self._pair_scores.clear()
            self._pair_version = model.weights.version
        # after - before, each side one running += in the order the
        # reference's factors_touching yields: affinity over same-cluster
        # mates in model.variables order, then repulsion over the
        # mover's candidates in other clusters.  The reference's
        # existence checks on vanished and appeared factors are provably
        # empty here: "same cluster" is symmetric, and candidate lists
        # are symmetric because they are built per surname block and
        # repair_from_delta rebuilds every member of an affected block.
        # So a factor that leaves (or joins) the mover's side leaves (or
        # joins) its partner's side too.  (``_value`` is read directly,
        # as the MH kernel does.)
        pairs = self._pair_scores
        name = mover.name
        before = after = 0.0
        for other in model.variables:
            value = other._value
            if (value == old or value == new) and other is not mover:
                key = (
                    (0, name, other.name) if name < other.name
                    else (0, other.name, name)
                )
                score = pairs.get(key)
                if score is None:
                    score = self._pair_score(key, mover, other)
                if value == old:
                    before += score
                if value == new:
                    after += score
        if len(self.templates) > 1:
            for other in model._candidates.get(name, ()):
                value = other._value
                key = (
                    (1, name, other.name) if name < other.name
                    else (1, other.name, name)
                )
                score = pairs.get(key)
                if score is None:
                    score = self._pair_score(key, mover, other)
                if value != old:
                    before += score
                if value != new:
                    after += score
        return after - before

    def _pair_score(
        self, key: Tuple[int, Hashable, Hashable], a: HiddenVariable, b: HiddenVariable
    ) -> float:
        """Compute and store the score of template ``key[0]``'s factor
        over ``a`` and ``b``: the reference factor's ``weights.dot`` on
        the same canonically ordered endpoints."""
        first, second = (a, b) if repr(a.name) <= repr(b.name) else (b, a)
        score = self._pair_scores[key] = self._model.weights.dot(
            self.templates[key[0]].name,
            self._model._affinity_features(first, second),
        )
        return score


def pairwise_f1(predicted: Set[FrozenSet], gold: Set[FrozenSet]) -> float:
    """Pairwise F1 between two partitions (standard coref metric)."""

    def pairs(partition: Set[FrozenSet]) -> Set[Tuple]:
        out: Set[Tuple] = set()
        for block in partition:
            members = sorted(block, key=repr)
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    out.add((members[i], members[j]))
        return out

    predicted_pairs = pairs(predicted)
    gold_pairs = pairs(gold)
    if not predicted_pairs and not gold_pairs:
        return 1.0
    if not predicted_pairs or not gold_pairs:
        return 0.0
    true_positive = len(predicted_pairs & gold_pairs)
    precision = true_positive / len(predicted_pairs)
    recall = true_positive / len(gold_pairs)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)
