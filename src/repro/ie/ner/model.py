"""The skip-chain CRF over the TOKEN relation (paper §5.1, Fig. 3).

Four factor templates, exactly the paper's:

* **emission** — observed string ↔ hidden label (plus a capitalization
  shape feature);
* **transition** — consecutive labels within a document (1st-order
  Markov dependency);
* **bias** — per-label frequency;
* **skip** — labels of identical capitalized strings within the same
  document ("if two tokens have the same string, they have an increased
  likelihood of having the same label").  Skip edges make the graph
  loopy: exact inference is intractable and loopy BP fails to converge
  on such graphs, which is precisely why the paper samples.

The graph is never unrolled globally; templates instantiate factors
around changed variables on demand.  Weights may be fit in closed form
from the TRUTH column (:func:`fit_generative_weights`) or trained with
SampleRank (:mod:`repro.learn.samplerank`).
"""

from __future__ import annotations

import bisect
import math
from collections import Counter, defaultdict
from typing import Dict, Hashable, List, Tuple

from repro.db.database import Database
from repro.db.delta import Delta
from repro.errors import GraphError
from repro.fg.domain import Domain
from repro.fg.graph import FactorGraph, GraphRepair
from repro.fg.templates import PairwiseTemplate, UnaryTemplate
from repro.fg.variables import FieldVariable, HiddenVariable
from repro.ie.ner.labels import LABEL_DOMAIN, LABELS, OUTSIDE

__all__ = ["SkipChainNerModel", "fit_generative_weights"]

from repro.fg.weights import Weights

TOKEN_TABLE = "TOKEN"

# Template names (weights are namespaced by these).
EMISSION = "ner/emission"
TRANSITION = "ner/transition"
BIAS = "ner/bias"
SKIP = "ner/skip"


class SkipChainNerModel:
    """Binds the TOKEN relation to a skip-chain CRF factor graph.

    Parameters
    ----------
    db:
        Database holding the TOKEN relation with attributes
        (TOK_ID, DOC_ID, STRING, LABEL, TRUTH).
    weights:
        Shared parameter vector (empty weights = uniform model).
    use_skip:
        Include skip-chain factors (disable for the linear-chain
        ablation).
    skip_capitalized_only:
        Restrict skip edges to capitalized strings (the standard
        skip-chain recipe; bounds the degree of filler words like
        "the").
    """

    #: Relations this model reads — DML deltas on them require repair.
    tables = (TOKEN_TABLE,)

    #: Stored column carrying the factor-closed group id: no factor
    #: crosses documents (skip edges are intra-document), so ``groups``
    #: partitions the graph into independent components keyed by this
    #: column.  The query planner's factor-graph pruning
    #: (:func:`repro.mcmc.targeted.plan_restriction`) relies on this
    #: declaration to restrict sampling to query-relevant documents.
    group_column = "DOC_ID"

    def __init__(
        self,
        db: Database,
        weights: Weights | None = None,
        use_skip: bool = True,
        skip_capitalized_only: bool = True,
        domain: Domain = LABEL_DOMAIN,
    ):
        self.db = db
        self.weights = weights if weights is not None else Weights()
        self.use_skip = use_skip
        self.skip_capitalized_only = skip_capitalized_only
        self.domain = domain

        table = db.table(TOKEN_TABLE)
        schema = table.schema
        pos_tok = schema.position("TOK_ID")
        pos_doc = schema.position("DOC_ID")
        pos_str = schema.position("STRING")
        pos_truth = schema.position("TRUTH")

        rows = sorted(table.rows(), key=lambda r: r[pos_tok])
        if not rows:
            raise GraphError("TOKEN relation is empty")

        self.variables: List[FieldVariable] = []
        self._strings: Dict[Hashable, str] = {}
        self._positions: Dict[Hashable, int] = {}
        self._doc_of: Dict[Hashable, int] = {}
        self.truth: Dict[Hashable, str] = {}
        self.groups: Dict[int, List[FieldVariable]] = defaultdict(list)
        by_doc: Dict[int, List[Tuple[int, FieldVariable]]] = defaultdict(list)

        for row in rows:
            variable = FieldVariable(db, TOKEN_TABLE, (row[pos_tok],), "LABEL", domain)
            self.variables.append(variable)
            self._strings[variable.name] = row[pos_str]
            self.truth[variable.name] = row[pos_truth]
            doc = row[pos_doc]
            self._doc_of[variable.name] = doc
            self.groups[doc].append(variable)
            by_doc[doc].append((row[pos_tok], variable))

        # Sequence adjacency (transitions) and same-string links (skips),
        # both within documents only.
        self._prev: Dict[Hashable, FieldVariable] = {}
        self._next: Dict[Hashable, FieldVariable] = {}
        self._skip: Dict[Hashable, List[FieldVariable]] = defaultdict(list)
        for doc, entries in by_doc.items():
            entries.sort(key=lambda e: e[0])
            ordered = [v for _, v in entries]
            for i, variable in enumerate(ordered):
                self._positions[variable.name] = i
                if i > 0:
                    self._prev[variable.name] = ordered[i - 1]
                if i + 1 < len(ordered):
                    self._next[variable.name] = ordered[i + 1]
            same_string: Dict[str, List[FieldVariable]] = defaultdict(list)
            for variable in ordered:
                string = self._strings[variable.name]
                if skip_capitalized_only and not string[:1].isupper():
                    continue
                same_string[string].append(variable)
            for mates in same_string.values():
                if len(mates) < 2:
                    continue
                for variable in mates:
                    self._skip[variable.name] = [
                        m for m in mates if m is not variable
                    ]

        self.templates = self._build_templates()
        self.graph = FactorGraph(self.variables, self.templates)

    # ------------------------------------------------------------------
    # Structure accessors
    # ------------------------------------------------------------------
    def string_of(self, variable: HiddenVariable) -> str:
        return self._strings[variable.name]

    def position_of(self, variable: HiddenVariable) -> int:
        return self._positions[variable.name]

    def skip_neighbors(self, variable: HiddenVariable) -> List[FieldVariable]:
        return self._skip.get(variable.name, [])

    # ------------------------------------------------------------------
    # Templates
    # ------------------------------------------------------------------
    # Feature/neighbourhood functions are bound methods (not closures)
    # so the model — and hence the factor graph, chain, and database
    # snapshot — pickles for the multiprocess chain backend.
    def _emission_features(self, variable: HiddenVariable):
        string = self._strings[variable.name]
        label = variable.value
        return {
            ("emit", string, label): 1.0,
            ("cap", string[:1].isupper(), label): 1.0,
        }

    def _emission_signature(self, variable: HiddenVariable):
        # Emission features are a pure function of (string, label): the
        # cap feature derives from the string.  Every same-string token
        # in the corpus therefore shares one feature-array entry per
        # label — the vocabulary bounds the cache, not the corpus.
        return self._strings[variable.name]

    def _bias_features(self, variable: HiddenVariable):
        return {("bias", variable.value): 1.0}

    def _bias_signature(self, variable: HiddenVariable):
        return None  # Pure function of the label alone: 9 entries total.

    def _chain_neighbors(self, variable: HiddenVariable):
        prev = self._prev.get(variable.name)
        nxt = self._next.get(variable.name)
        if prev is not None:
            yield prev
        if nxt is not None:
            yield nxt

    def _transition_features(self, a: HiddenVariable, b: HiddenVariable):
        # Direction follows document order regardless of the
        # template's canonical endpoint ordering.
        if self._positions[a.name] < self._positions[b.name]:
            return {("trans", a.value, b.value): 1.0}
        return {("trans", b.value, a.value): 1.0}

    def _transition_signature(self, a: HiddenVariable, b: HiddenVariable):
        # The only per-factor constant the features read is whether the
        # canonical endpoint order matches document order.
        return self._positions[a.name] < self._positions[b.name]

    def _skip_neighbors(self, variable: HiddenVariable):
        return self._skip.get(variable.name, ())

    def _skip_features(self, a: HiddenVariable, b: HiddenVariable):
        if a.value == b.value:
            return {("skip", "same"): 1.0}
        return {("skip", "diff"): 1.0}

    def _skip_signature(self, a: HiddenVariable, b: HiddenVariable):
        return None  # Pure function of label equality: 2 entries total.

    def _build_templates(self):
        # All four templates are static (the factor set is fixed by the
        # corpus) and their features read only the endpoints' label
        # values plus per-token constants, so stable_features=True puts
        # every variable on the array scorer.  Signature functions
        # declare the per-factor constants each feature function reads,
        # unlocking template-wide sharing of the scorer's feature arrays
        # (bound methods, like the feature functions, so everything
        # still pickles).
        self._transition_template = PairwiseTemplate(
            TRANSITION, self.weights, self._chain_neighbors,
            self._transition_features, stable_features=True,
            signature_fn=self._transition_signature,
        )
        templates = [
            UnaryTemplate(
                EMISSION, self.weights, self._emission_features,
                stable_features=True, signature_fn=self._emission_signature,
            ),
            UnaryTemplate(
                BIAS, self.weights, self._bias_features, stable_features=True,
                signature_fn=self._bias_signature,
            ),
            self._transition_template,
        ]
        self._skip_template = None
        if self.use_skip:
            self._skip_template = PairwiseTemplate(
                SKIP, self.weights, self._skip_neighbors,
                self._skip_features, stable_features=True,
                signature_fn=self._skip_signature,
            )
            templates.append(self._skip_template)
        return templates

    # ------------------------------------------------------------------
    # Live repair (DML-driven graph edits)
    # ------------------------------------------------------------------
    def repair_from_delta(self, delta: Delta) -> GraphRepair:
        """Map a database delta to incremental graph edits.

        Inserted TOKEN rows become fresh hidden variables wired into
        their document's transition chain and skip groups; deleted rows
        leave the graph with their neighbours re-linked; updates that
        change STRING or DOC_ID are structural (delete + insert), while
        LABEL-only updates re-sync the in-memory world (the user set
        evidence) and TRUTH-only updates touch nothing statistical.

        Variable ordering (global TOK_ID order, the constructor's
        invariant) is preserved, so the repaired graph enumerates
        factors — and therefore scores — **bit-identically** to a
        from-scratch rebuild over the updated TOKEN relation.  Cache
        invalidation is confined to variables whose neighbourhood
        actually changed.
        """
        repair = GraphRepair()
        changes = delta.for_table(TOKEN_TABLE)
        if changes.is_empty():
            return repair
        schema = self.db.table(TOKEN_TABLE).schema
        pos_tok = schema.position("TOK_ID")
        pos_doc = schema.position("DOC_ID")
        pos_str = schema.position("STRING")
        pos_label = schema.position("LABEL")
        pos_truth = schema.position("TRUTH")

        removed_rows: Dict[int, tuple] = {}
        added_rows: Dict[int, tuple] = {}
        for row, count in changes.items():
            if count < 0:
                removed_rows[row[pos_tok]] = row
            elif count > 0:
                added_rows[row[pos_tok]] = row

        to_remove: List[FieldVariable] = []
        to_insert: List[tuple] = []
        for tok_id in sorted(set(removed_rows) & set(added_rows)):
            old = removed_rows.pop(tok_id)
            new = added_rows.pop(tok_id)
            variable = self.graph.find((TOKEN_TABLE, (tok_id,), "LABEL"))
            if variable is None:
                to_insert.append(new)
                continue
            if old[pos_doc] != new[pos_doc] or old[pos_str] != new[pos_str]:
                to_remove.append(variable)
                to_insert.append(new)
                continue
            if new[pos_truth] != old[pos_truth]:
                self.truth[variable.name] = new[pos_truth]
            if new[pos_label] != variable.value:
                # Evidence assignment: the stored world moved under us.
                variable.set_value(new[pos_label])
                repair.touched.append(variable)
        for tok_id in sorted(removed_rows):
            variable = self.graph.find((TOKEN_TABLE, (tok_id,), "LABEL"))
            if variable is not None:
                to_remove.append(variable)
        for tok_id in sorted(added_rows):
            to_insert.append(added_rows[tok_id])
        if not to_remove and not to_insert:
            return repair

        affected_docs = set()
        for variable in to_remove:
            name = variable.name
            doc = self._doc_of.pop(name)
            group = self.groups[doc]
            group.remove(variable)
            if not group:
                del self.groups[doc]
            del self._strings[name]
            self.truth.pop(name, None)
            self._positions.pop(name, None)
            self._prev.pop(name, None)
            self._next.pop(name, None)
            self._skip.pop(name, None)
            affected_docs.add(doc)
            repair.removed.append(name)

        inserted: List[FieldVariable] = []
        for row in sorted(to_insert, key=lambda r: r[pos_tok]):
            variable = FieldVariable(
                self.db, TOKEN_TABLE, (row[pos_tok],), "LABEL", self.domain
            )
            doc = row[pos_doc]
            self._strings[variable.name] = row[pos_str]
            self.truth[variable.name] = row[pos_truth]
            self._doc_of[variable.name] = doc
            bisect.insort(self.groups[doc], variable, key=lambda v: v.pk[0])
            affected_docs.add(doc)
            inserted.append(variable)
        repair.added.extend(inserted)

        # Re-derive the chain/skip structure of every affected document
        # and record which surviving variables' neighbourhoods changed.
        touched: Dict[Hashable, FieldVariable] = {}
        for doc in sorted(affected_docs, key=repr):
            self._rebuild_doc(doc, touched)
        new_names = {v.name for v in inserted}
        repair.touched.extend(
            v for name, v in touched.items() if name not in new_names
        )

        # Graph edits last, preserving the global TOK_ID ordering so a
        # repaired graph is indistinguishable from a rebuilt one.
        for variable in to_remove:
            index = bisect.bisect_left(
                self.variables, variable.pk[0], key=lambda v: v.pk[0]
            )
            del self.variables[index]
        if to_remove:
            self.graph.remove_variables(to_remove)
        for variable in inserted:
            index = bisect.bisect_left(
                self.variables, variable.pk[0], key=lambda v: v.pk[0]
            )
            self.variables.insert(index, variable)
            self.graph.add_variables([variable], index=index)
        # Touched survivors: their own entries must rebuild, but any
        # factor they share with *another* survivor is unchanged, and
        # factors over removed variables were already evicted by
        # remove_variables — no partner scan needed.
        self.graph.invalidate_adjacency(repair.touched, scan=False)
        return repair

    def _rebuild_doc(
        self, doc: int, touched: Dict[Hashable, FieldVariable]
    ) -> None:
        """Recompute positions, transition links and skip groups of one
        document from its current membership; survivors whose links
        changed are added to ``touched``."""
        ordered = self.groups.get(doc, ())
        for i, variable in enumerate(ordered):
            name = variable.name
            prev = ordered[i - 1] if i > 0 else None
            nxt = ordered[i + 1] if i + 1 < len(ordered) else None
            old_prev = self._prev.get(name)
            if old_prev is not prev:
                if old_prev is not None:
                    # Transition edge dissolved between two survivors:
                    # drop its pooled instance (targeted invalidation
                    # never sees a pair whose endpoints both live on).
                    self._transition_template.evict_pair(name, old_prev.name)
                if prev is None:
                    self._prev.pop(name, None)
                else:
                    self._prev[name] = prev
                touched[name] = variable
            old_next = self._next.get(name)
            if old_next is not nxt:
                if old_next is not None:
                    self._transition_template.evict_pair(name, old_next.name)
                if nxt is None:
                    self._next.pop(name, None)
                else:
                    self._next[name] = nxt
                touched[name] = variable
            self._positions[name] = i
        same_string: Dict[str, List[FieldVariable]] = defaultdict(list)
        for variable in ordered:
            string = self._strings[variable.name]
            if self.skip_capitalized_only and not string[:1].isupper():
                continue
            same_string[string].append(variable)
        new_skip: Dict[Hashable, List[FieldVariable]] = {}
        for mates in same_string.values():
            if len(mates) < 2:
                continue
            for variable in mates:
                new_skip[variable.name] = [m for m in mates if m is not variable]
        for variable in ordered:
            name = variable.name
            old = self._skip.get(name, ())
            new = new_skip.get(name, ())
            if [m.name for m in old] != [m.name for m in new]:
                touched[name] = variable
                if self._skip_template is not None:
                    new_names = {m.name for m in new}
                    for mate in old:
                        if mate.name not in new_names:
                            self._skip_template.evict_pair(name, mate.name)
            if new:
                self._skip[name] = list(new)
            else:
                self._skip.pop(name, None)

    # ------------------------------------------------------------------
    # World manipulation
    # ------------------------------------------------------------------
    def reset_labels(self, label: str = OUTSIDE) -> None:
        """Set every hidden label (memory and database) to ``label`` —
        the paper initializes LABEL to 'O'."""
        for variable in self.variables:
            variable.set_value(label)
            variable.flush()

    def accuracy_against_truth(self) -> float:
        """Token accuracy of the current world against TRUTH."""
        correct = sum(
            1 for v in self.variables if v.value == self.truth[v.name]
        )
        return correct / len(self.variables)

    def num_skip_edges(self) -> int:
        return sum(len(mates) for mates in self._skip.values()) // 2


def fit_generative_weights(
    db: Database,
    scale: float = 2.0,
    skip_strength: float = 0.75,
    smoothing: float = 0.1,
) -> Weights:
    """Closed-form weights from the TRUTH column's empirical statistics.

    Emission weights get ``scale * log P(label | string)``, transitions
    ``scale * log P(label' | label)``, biases ``log P(label)`` — i.e. an
    HMM-style fit reused as CRF weights — and the skip template rewards
    same-label assignments of repeated strings.  Deterministic and fast
    (one scan of TOKEN); SampleRank training is the alternative when
    gold statistics should not be read directly.
    """
    table = db.table(TOKEN_TABLE)
    schema = table.schema
    pos_tok = schema.position("TOK_ID")
    pos_doc = schema.position("DOC_ID")
    pos_str = schema.position("STRING")
    pos_truth = schema.position("TRUTH")
    rows = sorted(table.rows(), key=lambda r: r[pos_tok])

    string_label = Counter()
    string_total = Counter()
    transitions = Counter()
    label_total = Counter()
    previous: tuple[int, str] | None = None  # (doc, label)
    for row in rows:
        string, label, doc = row[pos_str], row[pos_truth], row[pos_doc]
        string_label[(string, label)] += 1
        string_total[string] += 1
        label_total[label] += 1
        if previous is not None and previous[0] == doc:
            transitions[(previous[1], label)] += 1
        previous = (doc, label)

    weights = Weights()
    num_labels = len(LABELS)
    # Log-probability weights are negative, so every (string, label) and
    # (label, label) combination must receive a weight: leaving unseen
    # combinations at the default 0 (= log 1) would make them *preferred*.
    for string in string_total:
        for label in LABELS:
            probability = (string_label[(string, label)] + smoothing) / (
                string_total[string] + smoothing * num_labels
            )
            weights.set(
                EMISSION, ("emit", string, label), scale * math.log(probability)
            )
    total_labels = sum(label_total.values())
    for label in LABELS:
        probability = (label_total[label] + smoothing) / (
            total_labels + smoothing * num_labels
        )
        weights.set(BIAS, ("bias", label), math.log(probability))
    for prev in LABELS:
        for label in LABELS:
            probability = (transitions[(prev, label)] + smoothing) / (
                label_total[prev] + smoothing * num_labels
            )
            weights.set(
                TRANSITION, ("trans", prev, label), scale * math.log(probability)
            )
    weights.set(SKIP, ("skip", "same"), skip_strength)
    weights.set(SKIP, ("skip", "diff"), -skip_strength)
    return weights
