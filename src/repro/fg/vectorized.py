"""Array-backed local scoring: the fast path's hot loop.

The MH inner loop spends nearly all of its time summing the scores of
the handful of factors adjacent to one proposed variable, before and
after the change.  Summing factor scores does that with Python calls
per factor — feature-dict construction, tuple hashing, dict dot
products.  This module compiles a variable's (static, cached)
adjacency into a :class:`LocalScorer`: a flat record list where each
log-linear factor is reduced to *(shared array cache, signature,
endpoints)* and scoring one candidate value is a few dict lookups plus
index-and-multiply over the dense weight list — no feature dicts, no
per-factor method calls.

Three cache layers compose:

1. **Weight slots** (:meth:`repro.fg.weights.Weights.slot`): a stable
   feature→index map, so weight *values* can move without invalidating
   anything structural.
2. **Feature arrays** (:attr:`repro.fg.factors.LogLinearFactor.arrays`):
   ``(signature, endpoint values) -> (slots, feature values)``, shared
   template-wide when a signature function is declared — the entire
   corpus's "Rangoon" emission factors hit one entry per label.  Weight
   mutations never evict these.
3. **Blanket score cache** (per scorer): ``Markov-blanket values ->
   {candidate value -> local score}``, keyed against the summed weights
   version so SampleRank's mid-run updates invalidate it wholesale.

Bit-identity with the uncached reference (``set_caching(False)``) is a
hard contract, relied on by the equivalence suite.  Two rules make it
hold: sums accumulate with a plain ``+=`` — term by term in feature
insertion order within a factor, factor by factor in adjacency order
across them, exactly as ``Weights.dot`` and the graph's factor sum do
(never flattened, reassociated or compensated) — and the
only numeric difference ever introduced — including a ``0.0``-weight
term the sparse dot skips — perturbs at most the *sign of zero*, which
``==``, ``math.exp`` and every acceptance comparison ignore.

Eligibility is conservative: a scorer is built only when every adjacent
factor is either a ``stable`` :class:`LogLinearFactor` or a value-pure
:class:`TableFactor`/:class:`ConstraintFactor`.  Anything else (unknown
factor subclasses, unstable features) makes
:meth:`repro.fg.graph.FactorGraph.score_delta` fall back to summing
that variable's factor scores.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Hashable, List, Sequence, Tuple

from repro.fg.factors import ConstraintFactor, Factor, LogLinearFactor, TableFactor
from repro.fg.variables import HiddenVariable
from repro.fg.weights import Weights

__all__ = ["LocalScorer", "build_scorer"]

# Record layouts (plain tuples; the inner loop dispatches on rec[0]):
#   (0, factor)                                         — reference .score()
#   (1, arrays, signature, var, dense, factor)          — unary array on v
#   (2, arrays, signature, e0, e1, vpos, dense, factor) — pairwise array
_Record = Tuple[Any, ...]


def build_scorer(
    variable: HiddenVariable, factors: Sequence[Factor]
) -> "LocalScorer | None":
    """Compile ``variable``'s adjacent factor list into a scorer.

    Returns ``None`` when any factor lacks a purity contract (see
    module docstring); the caller then sums factor scores instead.
    Record order follows ``factors`` so score sums associate exactly as
    the graph's factor sum does.
    """
    records: List[_Record] = []
    weights_objects: List[Weights] = []
    weights_seen: set[int] = set()
    others: List[HiddenVariable] = []
    others_seen: set[int] = set()
    names: set[Hashable] = {variable.name}
    needs_set = False
    for factor in factors:
        endpoints = factor.variables
        for endpoint in endpoints:
            names.add(endpoint.name)
            if (
                endpoint is not variable
                and isinstance(endpoint, HiddenVariable)
                and id(endpoint) not in others_seen
            ):
                others_seen.add(id(endpoint))
                others.append(endpoint)
        if isinstance(factor, LogLinearFactor):
            if not factor.stable:
                return None  # Features may read state outside the factor.
            if id(factor.weights) not in weights_seen:
                weights_seen.add(id(factor.weights))
                weights_objects.append(factor.weights)
            arrays = factor.arrays
            dense = factor.weights._dense
            if arrays is not None and len(endpoints) == 1 and endpoints[0] is variable:
                records.append((1, arrays, factor.signature, variable, dense, factor))
                continue
            if (
                arrays is not None
                and len(endpoints) == 2
                and (endpoints[0] is variable or endpoints[1] is variable)
            ):
                vpos = 0 if endpoints[0] is variable else 1
                records.append(
                    (2, arrays, factor.signature, endpoints[0], endpoints[1],
                     vpos, dense, factor)
                )
                continue
            # Stable but not array-addressable from this variable (higher
            # arity, arrays disabled): call its score() instead.
            records.append((0, factor))
            if any(e is variable for e in endpoints):
                needs_set = True
        elif isinstance(factor, (TableFactor, ConstraintFactor)):
            # Pure functions of their endpoints' values by construction.
            records.append((0, factor))
            if any(e is variable for e in endpoints):
                needs_set = True
        else:
            return None  # Unknown factor type: no purity contract.
    return LocalScorer(
        variable,
        tuple(records),
        tuple(others),
        tuple(weights_objects),
        frozenset(names),
        needs_set,
    )


class LocalScorer:
    """Scores candidate values of one variable over its compiled
    adjacency (see module docstring; built by :func:`build_scorer`)."""

    __slots__ = (
        "_variable",
        "_records",
        "_others",
        "_weights",
        "_w0",
        "names",
        "_needs_set",
        "_cache",
        "_cache_version",
    )

    def __init__(
        self,
        variable: HiddenVariable,
        records: Tuple[_Record, ...],
        others: Tuple[HiddenVariable, ...],
        weights_objects: Tuple[Weights, ...],
        names: FrozenSet[Hashable],
        needs_set: bool,
    ):
        self._variable = variable
        self._records = records
        self._others = others
        self._weights = weights_objects
        # Nearly every model shares one Weights across its templates;
        # reading a single version beats summing a tuple every delta.
        self._w0 = weights_objects[0] if len(weights_objects) == 1 else None
        #: Names of every variable any record touches (graph repair
        #: checks a removed variable's partners' scorers against this).
        self.names = names
        self._needs_set = needs_set
        # Markov-blanket values -> {candidate value -> local score}.
        self._cache: Dict[Tuple[Any, ...], Dict[Any, float]] = {}
        self._cache_version = -1

    # ------------------------------------------------------------------
    def delta(self, value: Any) -> float:
        """Local-score difference of setting the variable to ``value``
        (the single-variable Appendix 9.2 what-if); pure — the live
        assignment is untouched on return."""
        inner = self._values_cache()
        current = self._variable._value
        before = inner.get(current)
        if before is None:
            before = self._score_current()
            inner[current] = before
        after = inner.get(value)
        if after is None:
            after = self._score_hypothetical(value)
            inner[value] = after
        return after - before

    def local_scores(self, values: Sequence[Any]) -> List[float]:
        """Adjacent-factor score sum for each candidate in ``values``
        (the Gibbs conditional's numerators), blanket-cached."""
        inner = self._values_cache()
        current = self._variable._value
        out: List[float] = []
        for value in values:
            score = inner.get(value)
            if score is None:
                if value == current:
                    score = self._score_current()
                else:
                    score = self._score_hypothetical(value)
                inner[value] = score
            out.append(score)
        return out

    # ------------------------------------------------------------------
    def _values_cache(self) -> Dict[Any, float]:
        """The score cache for the current blanket assignment, clearing
        everything first if any weights object has moved (each version
        is monotonic, so the sum changes whenever any of them does)."""
        w0 = self._w0
        if w0 is not None:
            version = w0._version
        else:
            version = 0
            for weights in self._weights:
                version += weights._version
        if version != self._cache_version:
            self._cache.clear()
            self._cache_version = version
        others = self._others
        # Tuple-literal the common small blankets: the genexpr protocol
        # costs more than the reads themselves at walk-step frequency.
        n = len(others)
        if n == 2:
            blanket = (others[0]._value, others[1]._value)
        elif n == 1:
            blanket = (others[0]._value,)
        elif n == 3:
            blanket = (others[0]._value, others[1]._value, others[2]._value)
        else:
            blanket = tuple(o._value for o in others)
        inner = self._cache.get(blanket)
        if inner is None:
            inner = self._cache[blanket] = {}
        return inner

    def _score_current(self) -> float:
        """Sum of adjacent factor scores under the live assignment.

        Association mirrors the reference loop exactly: one running
        total across factors, each factor's dot accumulated term by
        term in feature order.
        """
        total = 0.0
        for rec in self._records:
            kind = rec[0]
            if kind == 2:
                _, arrays, sig, e0, e1, _vpos, dense, factor = rec
                key = (sig, e0._value, e1._value)
                entry = arrays.get(key)
                if entry is None:
                    entry = arrays[key] = factor.build_array_entry()
                slots, vals = entry
                n = len(slots)
                if n == 1:
                    total += dense[slots[0]] * vals[0]
                elif n == 2:
                    subtotal = dense[slots[0]] * vals[0]
                    subtotal += dense[slots[1]] * vals[1]
                    total += subtotal
                else:
                    subtotal = 0.0
                    for i in range(n):
                        subtotal += dense[slots[i]] * vals[i]
                    total += subtotal
            elif kind == 1:
                _, arrays, sig, var, dense, factor = rec
                key = (sig, var._value)
                entry = arrays.get(key)
                if entry is None:
                    entry = arrays[key] = factor.build_array_entry()
                slots, vals = entry
                n = len(slots)
                if n == 1:
                    total += dense[slots[0]] * vals[0]
                elif n == 2:
                    subtotal = dense[slots[0]] * vals[0]
                    subtotal += dense[slots[1]] * vals[1]
                    total += subtotal
                else:
                    subtotal = 0.0
                    for i in range(n):
                        subtotal += dense[slots[i]] * vals[i]
                    total += subtotal
            else:
                total += rec[1].score()
        return total

    def _score_hypothetical(self, value: Any) -> float:
        """Adjacent score sum with the scorer's variable at ``value``.

        With reference-path records that read the variable (``(0, f)``
        with v among f's endpoints) the assignment is swapped in and
        restored; otherwise candidate keys are built by substitution
        and nothing is mutated.
        """
        v = self._variable
        if self._needs_set:
            saved = v._value
            v.set_value(value)
            try:
                return self._score_current()
            finally:
                v._value = saved
        v.domain.validate(value)
        total = 0.0
        for rec in self._records:
            kind = rec[0]
            if kind == 2:
                _, arrays, sig, e0, e1, vpos, dense, factor = rec
                if vpos == 0:
                    key = (sig, value, e1._value)
                else:
                    key = (sig, e0._value, value)
                entry = arrays.get(key)
                if entry is None:
                    entry = arrays[key] = self._fill(factor, value)
                slots, vals = entry
                n = len(slots)
                if n == 1:
                    total += dense[slots[0]] * vals[0]
                elif n == 2:
                    subtotal = dense[slots[0]] * vals[0]
                    subtotal += dense[slots[1]] * vals[1]
                    total += subtotal
                else:
                    subtotal = 0.0
                    for i in range(n):
                        subtotal += dense[slots[i]] * vals[i]
                    total += subtotal
            elif kind == 1:
                _, arrays, sig, _var, dense, factor = rec
                key = (sig, value)
                entry = arrays.get(key)
                if entry is None:
                    entry = arrays[key] = self._fill(factor, value)
                slots, vals = entry
                n = len(slots)
                if n == 1:
                    total += dense[slots[0]] * vals[0]
                elif n == 2:
                    subtotal = dense[slots[0]] * vals[0]
                    subtotal += dense[slots[1]] * vals[1]
                    total += subtotal
                else:
                    subtotal = 0.0
                    for i in range(n):
                        subtotal += dense[slots[i]] * vals[i]
                    total += subtotal
            else:
                # v-less reference factor: its score cannot depend on
                # the candidate value.
                total += rec[1].score()
        return total

    def _fill(
        self, factor: LogLinearFactor, value: Any
    ) -> Tuple[Tuple[int, ...], Tuple[float, ...]]:
        """Build a missing array entry for a hypothesized value of the
        scorer's variable (features must see the candidate world)."""
        v = self._variable
        saved = v._value
        v._value = value  # Already validated by the caller.
        try:
            return factor.build_array_entry()
        finally:
            v._value = saved
