"""The factor graph: hidden variables plus factor templates.

:class:`FactorGraph` encodes the distribution over possible worlds
(paper Eq. 1).  It is deliberately *lazy*: factors are instantiated by
templates only around the variables a proposal touches, so the cost of
evaluating a Metropolis-Hastings acceptance ratio is independent of the
database size (Appendix 9.2).

Scoring has two paths behind one switch, :meth:`set_caching`:

* the **fast path** (the default) keeps a *static adjacency cache* —
  for each variable, the factors contributed by static
  (non-``dynamic``) templates are instantiated once on first touch and
  reused for the graph's lifetime — and compiles each eligible
  variable's adjacency into an *array scorer*
  (:mod:`repro.fg.vectorized`), which turns a single-variable
  ``score_delta`` (and the Gibbs conditional, via
  :meth:`local_conditional_scores`) into array lookups over the dense
  weight list.  Variables whose adjacency offers no purity contract,
  dynamic templates and multi-variable proposals are scored by summing
  the (pooled) adjacent factors.  A model subclass may serve its own
  proposals faster while caching is on: coref's
  :class:`~repro.ie.coref.model.CorefGraph` scores single-mention moves
  from a per-weights-version pair-score table;
* the **reference path** (``set_caching(False)``) re-instantiates and
  re-scores every adjacent factor on every call.

Both paths add factor scores left to right with ``+=`` in the same
factor order, so they agree bit for bit (equivalence tests and
benchmarks rely on it).  Code that mutates ``graph.templates`` in place
after scoring has started must call :meth:`clear_caches` for the change
to take effect.

Graphs are also **mutable in place** (live updates, ISSUE 5):
:meth:`add_variables` / :meth:`remove_variables` /
:meth:`add_factors` / :meth:`remove_factors` apply incremental edits
driven by relational deltas, invalidating the caches above only for
touched variables (:meth:`invalidate_adjacency`); per-model repair
hooks (``repair_from_delta``) produce the edits and a
:class:`GraphRepair` record for the live runner.

For small graphs the class also offers exact enumeration utilities
(:meth:`enumerate_assignments`, :meth:`exact_marginals`) used by the
test suite to validate that MCMC converges to the true distribution.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import GraphError
from repro.fg.factors import Factor
from repro.fg.templates import Template, _references, dedup_factors
from repro.fg.variables import HiddenVariable
from repro.fg.vectorized import LocalScorer, build_scorer

__all__ = ["FactorGraph", "GraphRepair"]

Assignment = Tuple[Any, ...]


@dataclass
class GraphRepair:
    """The record of one incremental graph edit (a live-update step).

    Produced by per-model repair hooks (``repair_from_delta``) and
    consumed by :class:`repro.core.live.LiveRunner`:

    * ``added`` — hidden variables newly inserted into the graph
      (initialized from the stored world, still cold);
    * ``removed`` — names of variables deleted from the graph;
    * ``touched`` — surviving variables whose factor neighbourhood or
      evidence changed, so their chain state is suspect.

    ``added + touched`` (:meth:`local_variables`) is the set a live
    runner re-burns locally; everything else carries its chain state
    over — the paper's claim that updates are cheap under MCMC.
    """

    added: List[HiddenVariable] = field(default_factory=list)
    removed: List[Hashable] = field(default_factory=list)
    touched: List[HiddenVariable] = field(default_factory=list)

    def is_empty(self) -> bool:
        return not (self.added or self.removed or self.touched)

    def local_variables(self) -> List[HiddenVariable]:
        """Variables needing local re-burn, deduplicated, added first."""
        out: List[HiddenVariable] = []
        seen = set()
        for variable in itertools.chain(self.added, self.touched):
            if variable.name not in seen:
                seen.add(variable.name)
                out.append(variable)
        return out


class FactorGraph:
    """A set of hidden variables governed by factor templates."""

    def __init__(
        self,
        variables: Sequence[HiddenVariable],
        templates: Sequence[Template],
    ):
        if not variables:
            raise GraphError("a factor graph needs at least one hidden variable")
        self.variables: List[HiddenVariable] = list(variables)
        self.templates: List[Template] = list(templates)
        self._by_name = {v.name: v for v in self.variables}
        if len(self._by_name) != len(self.variables):
            raise GraphError("hidden variable names must be unique")
        self.has_dynamic_templates = any(
            getattr(t, "dynamic", False) for t in self.templates
        )
        self._templates_by_name: Dict[str, List[Template]] = {}
        for template in self.templates:
            self._templates_by_name.setdefault(template.name, []).append(template)
        # variable name -> per-template tuple of pooled static factors
        # (None entries mark dynamic templates, re-queried every call).
        self._static_adjacency: Dict[Hashable, Tuple[Tuple[Factor, ...] | None, ...]] = {}
        # variable name -> flat deduplicated tuple of static factors
        # (the whole adjacency when the graph has no dynamic templates).
        self._flat_adjacency: Dict[Hashable, Tuple[Factor, ...]] = {}
        self._cache_enabled = True
        # variable name -> compiled LocalScorer (None = the variable's
        # adjacency is ineligible; score through the factor sum).
        self._scorers: Dict[Hashable, LocalScorer | None] = {}

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def variable(self, name: Hashable) -> HiddenVariable:
        try:
            return self._by_name[name]
        except KeyError:
            raise GraphError(f"no hidden variable named {name!r}") from None

    def __len__(self) -> int:
        return len(self.variables)

    # ------------------------------------------------------------------
    # Cache control
    # ------------------------------------------------------------------
    def set_caching(self, enabled: bool) -> None:
        """Switch between the fast path (the default) and the uncached
        reference: the static adjacency cache, template instance pools
        and array scorers go on or off together.  ``set_caching(False)``
        re-instantiates factors on every call and recomputes every
        feature dot product.  Sampling results are bit-identical
        either way."""
        self._cache_enabled = bool(enabled)
        self._static_adjacency.clear()
        self._flat_adjacency.clear()
        self._scorers.clear()
        for template in self.templates:
            template.set_caching(enabled)

    @property
    def caching_enabled(self) -> bool:
        return self._cache_enabled

    def clear_caches(self) -> None:
        """Drop cached adjacency and pooled instances (rebuilt lazily).

        Required after structurally mutating the model in place — e.g.
        replacing an entry of :attr:`templates` or swapping a template's
        weights/feature function once scoring has started.  Adjacency
        and pools assume static structure is fixed for the graph's
        lifetime; without this call, scoring keeps serving factor
        instances built from the old templates."""
        self._static_adjacency.clear()
        self._flat_adjacency.clear()
        self._scorers.clear()
        for template in self.templates:
            template.clear_cache()

    # ------------------------------------------------------------------
    # Incremental mutation (live updates)
    # ------------------------------------------------------------------
    def invalidate_adjacency(
        self, variables: Iterable[Any], scan: bool = True
    ) -> None:
        """Drop cached adjacency and pooled factor instances for the
        given variables (or names) only — the targeted counterpart of
        :meth:`clear_caches` used by live repair, so a DML-driven edit
        costs O(neighbourhood) instead of rebuilding every cache.

        With ``scan=True`` (the safe default), cached entries of the
        variables' partners (:meth:`Template.partners`, asked of every
        template before it invalidates) that still reference an
        invalidated variable are evicted too: a removed variable's
        former partners cannot keep serving factors over it.  Pure
        additions pass ``scan=False``: a factor over a brand-new
        variable cannot appear in any cache built before it existed, so
        the named pops suffice.  Callers must still name variables whose
        neighbourhood *gained* a factor — a stale cache cannot reference
        a variable it has never seen.
        """
        names = {getattr(v, "name", v) for v in variables}
        if not names:
            return
        partners: Set[Hashable] = set()
        if scan:
            for template in self.templates:
                for name in names:
                    partners.update(template.partners(name))
            partners -= names
        flat_adjacency = self._flat_adjacency
        static_adjacency = self._static_adjacency
        scorers = self._scorers
        for name in names:
            static_adjacency.pop(name, None)
            flat_adjacency.pop(name, None)
            scorers.pop(name, None)
        for partner in partners:
            flat = flat_adjacency.get(partner)
            if flat is not None and _references(flat, names):
                del flat_adjacency[partner]
            scorer = scorers.get(partner)
            if scorer is not None and not scorer.names.isdisjoint(names):
                del scorers[partner]
            entry = static_adjacency.get(partner)
            if entry is not None and any(
                factors and _references(factors, names) for factors in entry
            ):
                del static_adjacency[partner]
        for template in self.templates:
            template.invalidate(names, scan=scan)

    def add_variables(
        self,
        variables: Sequence[HiddenVariable],
        touched: Iterable[HiddenVariable] = (),
        index: int | None = None,
    ) -> None:
        """Insert hidden variables into the graph in place.

        ``touched`` names existing variables whose factor neighbourhood
        the additions changed (their cached adjacency is invalidated
        along with the new variables').  ``index`` inserts at a given
        position of :attr:`variables` — repair hooks use it to keep the
        variable ordering identical to a from-scratch rebuild, so
        repaired and rebuilt graphs score bit-identically.

        Templates must already know how to instantiate factors around
        the new variables (the model updates its structure maps first,
        then edits the graph).
        """
        new = list(variables)
        if not new:
            return
        # Validate the whole batch before touching anything: inserting
        # while validating used to leave earlier names registered in
        # _by_name (but absent from `variables`, with no invalidation)
        # when a duplicate appeared mid-batch — a half-mutated graph.
        batch = set()
        for variable in new:
            if variable.name in self._by_name or variable.name in batch:
                raise GraphError(
                    f"variable {variable.name!r} is already in the graph"
                )
            batch.add(variable.name)
        for variable in new:
            self._by_name[variable.name] = variable
        if index is None:
            self.variables.extend(new)
        else:
            self.variables[index:index] = new
        # Pure addition: nothing cached can reference the new
        # variables, so the partner-eviction scan is unnecessary.
        self.invalidate_adjacency(itertools.chain(new, touched), scan=False)

    def remove_variables(
        self,
        variables: Iterable[Any],
        touched: Iterable[HiddenVariable] = (),
    ) -> None:
        """Remove hidden variables (or names) from the graph in place.

        ``touched`` names surviving variables whose neighbourhood the
        removals changed.  Templates must no longer yield factors over
        the removed variables when queried for the survivors (model
        structure maps are repaired first)."""
        names = {getattr(v, "name", v) for v in variables}
        if not names:
            return
        for name in names:
            if name not in self._by_name:
                raise GraphError(f"no hidden variable named {name!r}")
        if len(self.variables) - len(names) < 1:
            raise GraphError(
                "cannot remove every variable: a factor graph needs at "
                "least one hidden variable"
            )
        for name in names:
            self.variables.remove(self._by_name.pop(name))
        self.invalidate_adjacency(itertools.chain(names, touched))

    def find(self, name: Hashable) -> HiddenVariable | None:
        """The hidden variable named ``name``, or ``None`` (the
        non-raising sibling of :meth:`variable`, used by repair hooks
        to classify delta rows)."""
        return self._by_name.get(name)

    def add_factors(self, factors: Iterable[Factor]) -> None:
        """Declare that ``factors`` now exist in the unrolled graph:
        every hidden endpoint's cached adjacency is invalidated so the
        next scoring call re-instantiates through the templates.  A
        factor appears only in its own endpoints' cache entries, so the
        named pops suffice (no partner scan)."""
        self.invalidate_adjacency(
            (
                v
                for factor in factors
                for v in factor.variables
                if isinstance(v, HiddenVariable)
            ),
            scan=False,
        )

    def remove_factors(self, factors: Iterable[Factor]) -> None:
        """Declare that ``factors`` no longer exist in the unrolled
        graph (same cache contract as :meth:`add_factors`)."""
        self.invalidate_adjacency(
            (
                v
                for factor in factors
                for v in factor.variables
                if isinstance(v, HiddenVariable)
            ),
            scan=False,
        )

    # ------------------------------------------------------------------
    # Factor instantiation
    # ------------------------------------------------------------------
    def _adjacency(
        self, variable: HiddenVariable
    ) -> Tuple[Tuple[Factor, ...] | None, ...]:
        """Per-template static factor tuples adjacent to ``variable``,
        cached for the graph's lifetime (``None`` = dynamic template)."""
        entry = tuple(
            None if template.dynamic else tuple(template.factors_for(variable))
            for template in self.templates
        )
        self._static_adjacency[variable.name] = entry
        return entry

    def adjacent_static(self, variable: HiddenVariable) -> Tuple[Factor, ...]:
        """Flat, deduplicated tuple of factors that static templates
        contribute around ``variable`` — for a graph without dynamic
        templates, its entire adjacency.  Instances are pooled and the
        tuple is cached for the graph's lifetime (static structure
        cannot change), so steady-state callers allocate nothing.
        Iteration order matches the uncached template scan, keeping
        floating-point sums bit-identical."""
        if not self._cache_enabled:
            return self._flatten_static(variable)
        flat = self._flat_adjacency.get(variable.name)
        if flat is None:
            flat = self._flatten_static(variable)
            self._flat_adjacency[variable.name] = flat
        return flat

    def _flatten_static(self, variable: HiddenVariable) -> Tuple[Factor, ...]:
        seen = set()
        out: List[Factor] = []
        for template in self.templates:
            if template.dynamic:
                continue
            for factor in template.factors_for(variable):
                key = factor.key
                if key not in seen:
                    seen.add(key)
                    out.append(factor)
        return tuple(out)

    def factors_touching(
        self, variables: Iterable[HiddenVariable]
    ) -> Dict[Hashable, Factor]:
        """Deduplicated factors adjacent to ``variables`` under the
        current assignment."""
        if not self._cache_enabled:
            return dedup_factors(
                factor
                for variable in variables
                for template in self.templates
                for factor in template.factors_for(variable)
            )
        out: Dict[Hashable, Factor] = {}
        if not self.has_dynamic_templates:
            for variable in variables:
                flat = self._flat_adjacency.get(variable.name)
                if flat is None:
                    flat = self.adjacent_static(variable)
                for factor in flat:
                    key = factor._key
                    if key is None:
                        key = factor.key
                    if key not in out:
                        out[key] = factor
            return out
        templates = self.templates
        static_adjacency = self._static_adjacency
        for variable in variables:
            entry = static_adjacency.get(variable.name)
            if entry is None:
                entry = self._adjacency(variable)
            # Preserve template order so summation order (and hence
            # floating-point results) matches the uncached path.
            for template, factors in zip(templates, entry):
                if factors is None:
                    factors = template.factors_for(variable)
                for factor in factors:
                    key = factor._key
                    if key is None:
                        key = factor.key
                    if key not in out:
                        out[key] = factor
        return out

    def all_factors(self) -> Dict[Hashable, Factor]:
        """Every factor of the unrolled graph (small graphs only)."""
        return self.factors_touching(self.variables)

    def factor_exists(self, factor: Factor) -> bool:
        """Whether ``factor`` is part of the unrolled graph *under the
        current assignment*.

        Dynamic templates may instantiate a factor from one endpoint's
        perspective but not another's, so existence is checked from
        every hidden endpoint: the factor exists if any of its own
        variables yields a factor with the same key.
        """
        templates = self._templates_by_name.get(factor.template_name, ())
        for variable in factor.variables:
            if not isinstance(variable, HiddenVariable):
                continue
            for template in templates:
                for candidate in template.factors_for(variable):
                    if candidate.key == factor.key:
                        return True
        return False

    def _present_keys(self, factors: Iterable[Factor]) -> Set[Tuple[Any, ...]]:
        """Keys among ``factors`` that exist under the current
        assignment, checked in one batch: every distinct endpoint's
        adjacency is instantiated once (instead of once per factor, as
        repeated :meth:`factor_exists` calls would)."""
        partners: List[HiddenVariable] = []
        seen: Set[Tuple[Any, ...]] = set()
        wanted: Set[Tuple[Any, ...]] = set()
        for factor in factors:
            wanted.add(factor.key)
            for variable in factor.variables:
                if isinstance(variable, HiddenVariable) and id(variable) not in seen:
                    seen.add(id(variable))
                    partners.append(variable)
        if not partners:
            return set()
        return wanted & self.factors_touching(partners).keys()

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def score(self) -> float:
        """Unnormalized log-probability of the current world."""
        return _total(self.all_factors().values())

    def local_score(self, variables: Iterable[HiddenVariable]) -> float:
        """Sum of scores of factors adjacent to ``variables`` only."""
        return _total(self.factors_touching(variables).values())

    def _scorer(self, variable: HiddenVariable) -> LocalScorer | None:
        """``variable``'s array scorer, compiled on first use (``None``
        = ineligible; score through the factor sum instead)."""
        scorers = self._scorers
        try:
            return scorers[variable.name]
        except KeyError:
            scorer = scorers[variable.name] = build_scorer(
                variable, self.adjacent_static(variable)
            )
            return scorer

    def score_delta(self, changes: Dict[HiddenVariable, Any]) -> float:
        """Log-score difference of applying ``changes``, computed from
        adjacent factors only (the Appendix 9.2 cancellation).

        The assignment is restored before returning; this is a pure
        what-if query.  Structure-changing models (any dynamic
        template) are handled by scoring the *union* of the adjacent
        factor sets instantiated before and after the change: a factor
        in only one of the two sets may nevertheless exist in the full
        graph on both sides (instantiation asks only the touched
        variables, and a dynamic neighbourhood need not be symmetric),
        so each union member contributes on every side where
        :meth:`factor_exists` holds.  Static models reuse one factor
        set and skip the existence checks entirely.

        Contract: a factor adjacent to a touched variable must be
        yielded by ``factors_for`` on at least one side of the change
        (from any of its endpoints).  A dynamic factor invisible from
        *every* touched endpoint under *both* assignments cannot be
        discovered locally and is missed — express such models with
        neighbourhoods that include the touched variable's perspective
        on at least one side.
        """
        if (
            len(changes) == 1
            and self._cache_enabled
            and not self.has_dynamic_templates
        ):
            # Hot path: a single-variable proposal on a static graph,
            # scored by the variable's compiled array scorer.
            [variable] = changes
            scorer = self._scorer(variable)
            if scorer is not None:
                return scorer.delta(changes[variable])
        touched = list(changes)
        before_factors = self.factors_touching(touched)
        before = _total(before_factors.values())
        saved = {v: v.value for v in touched}
        appeared: List[Factor] = []
        try:
            for variable, value in changes.items():
                variable.set_value(value)
            if not self.has_dynamic_templates:
                return _total(before_factors.values()) - before
            after_factors = self.factors_touching(touched)
            after = _total(after_factors.values())
            # Vanished from the touched side but still in the graph:
            # score those under the changed world too.
            vanished = [
                factor
                for key, factor in before_factors.items()
                if key not in after_factors
            ]
            if vanished:
                present = self._present_keys(vanished)
                after += _total(f for f in vanished if f.key in present)
            appeared = [
                factor
                for key, factor in after_factors.items()
                if key not in before_factors
            ]
        finally:
            for variable, value in saved.items():
                variable.set_value(value)
        # Back under the original assignment: factors that appeared on
        # the touched side may have already existed in the full graph.
        if appeared:
            present = self._present_keys(appeared)
            before += _total(f for f in appeared if f.key in present)
        return after - before

    def score_delta_batch(
        self, proposals: Sequence[Dict[HiddenVariable, Any]]
    ) -> List[float]:
        """Score K independent what-if proposals against the *current*
        world (each delta is relative to the live assignment, not to the
        previous proposal in the batch).

        On the fast path, proposals touching the same variable
        amortize heavily: the "before" side is computed once per
        Markov-blanket assignment and every candidate score lands in
        the blanket cache, so K single-variable what-ifs cost one
        adjacency walk plus K array lookups.  Multi-try MH kernels and
        the Gibbs conditional both reduce to this access pattern.
        """
        return [self.score_delta(changes) for changes in proposals]

    def local_conditional_scores(self, variable: HiddenVariable) -> List[float]:
        """Unnormalized log-scores of ``variable``'s adjacent factors
        for every value in its domain (the Gibbs conditional's
        numerators), in domain order.  The live assignment is restored
        before returning.

        The array scorer serves all values from its blanket score
        cache; otherwise each candidate is set and scored with
        :meth:`local_score`, bit-identically.
        """
        values = variable.domain.values
        if self._cache_enabled and not self.has_dynamic_templates:
            scorer = self._scorer(variable)
            if scorer is not None:
                return scorer.local_scores(list(values))
        saved = variable.value
        scores: List[float] = []
        try:
            for value in values:
                variable.set_value(value)
                scores.append(self.local_score([variable]))
        finally:
            variable.set_value(saved)
        return scores

    # ------------------------------------------------------------------
    # Pickling (multiprocess chain backend)
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        # The adjacency cache rebuilds lazily; dropping it keeps chain
        # snapshots lean and sidesteps any identity subtleties of
        # pickling pooled factor instances alongside their variables.
        state = self.__dict__.copy()
        state["_static_adjacency"] = {}
        state["_flat_adjacency"] = {}
        state["_scorers"] = {}
        return state

    # ------------------------------------------------------------------
    # Exact enumeration (test-scale graphs)
    # ------------------------------------------------------------------
    def enumerate_assignments(self) -> Iterator[Tuple[Assignment, float]]:
        """Yield ``(assignment, unnormalized log score)`` for every joint
        assignment; variable order matches :attr:`variables`.

        Exponential in the number of variables — for tests and tiny
        examples only.  The current assignment is restored afterwards.
        """
        saved = [v.value for v in self.variables]
        domains = [v.domain.values for v in self.variables]
        try:
            for assignment in itertools.product(*domains):
                for variable, value in zip(self.variables, assignment):
                    variable.set_value(value)
                yield assignment, self.score()
        finally:
            for variable, value in zip(self.variables, saved):
                variable.set_value(value)

    def exact_distribution(self) -> Dict[Assignment, float]:
        """Normalized probability of every joint assignment."""
        scored = list(self.enumerate_assignments())
        log_z = _log_sum_exp([s for _, s in scored])
        return {a: math.exp(s - log_z) for a, s in scored}

    def exact_marginals(self) -> List[Dict[Any, float]]:
        """Per-variable marginal distributions, by enumeration."""
        marginals: List[Dict[Any, float]] = [
            {value: 0.0 for value in v.domain} for v in self.variables
        ]
        for assignment, probability in self.exact_distribution().items():
            for i, value in enumerate(assignment):
                marginals[i][value] += probability
        return marginals


def _total(factors: Iterable[Factor]) -> float:
    """Sum of factor scores, added left to right with ``+=``.

    Every factor-score sum in this module goes through here, never
    builtin ``sum()``: from Python 3.12 on ``sum()`` of floats is
    compensated, which differs in the last bit from the array scorer's
    plain accumulation and would break the fast/reference bit-identity.
    """
    total = 0.0
    for factor in factors:
        total += factor.score()
    return total


def _log_sum_exp(values: List[float]) -> float:
    peak = max(values)
    if peak == float("-inf"):
        raise GraphError("all worlds have probability zero")
    return peak + math.log(sum(math.exp(v - peak) for v in values))
