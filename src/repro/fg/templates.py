"""Factor templates.

A template describes one *kind* of dependency (emission, transition,
bias, skip, ...) and can instantiate the concrete factors adjacent to
any given hidden variable on demand.  This is the key to the paper's
scalability: the graph is never unrolled over the whole database — only
the factors touching variables changed by a proposal are materialized
(paper §3.3/§3.4 and Appendix 9.2).

Static (non-``dynamic``) templates additionally *pool* their factor
instances: ``factors_for`` returns the same :class:`LogLinearFactor`
objects for the graph's lifetime instead of constructing fresh objects
and feature closures on every call, so the MH inner loop allocates
(nearly) nothing and the array scorer can compile each variable's
adjacency once.  Dynamic templates — whose factor *set* depends on
other variables' values — keep re-instantiating, as the set must be
recomputed per call anyway.

Generic templates cover the common arities:

* :class:`UnaryTemplate` — one factor per variable (bias, emission
  when the observation is baked into the feature function);
* :class:`PairwiseTemplate` — factors between a variable and each
  neighbour from a user-supplied neighbourhood function (transition,
  skip-chain edges).

Application models subclass or instantiate these with their feature
functions; see :mod:`repro.ie.ner.model`.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Sequence,
    Set,
    Tuple,
)

from repro.fg.factors import Factor, LogLinearFactor
from repro.fg.features import FeatureVector
from repro.fg.variables import HiddenVariable, Variable
from repro.fg.weights import Weights

__all__ = ["Template", "UnaryTemplate", "PairwiseTemplate", "dedup_factors"]


class Template:
    """Base class for factor templates.

    ``dynamic`` declares that the *set* of factors adjacent to a
    variable depends on the values of other variables (e.g. coref
    cluster membership).  Static templates allow the MH kernel to
    instantiate the adjacent factor set once per proposal and score it
    under both worlds; dynamic templates force re-instantiation after
    the hypothesized change.

    ``stable_features`` is the array-eligibility contract (see
    :class:`repro.fg.factors.LogLinearFactor`): it asserts that a
    factor's features depend only on its own endpoints' values plus
    per-factor constants, never on other variables' values, so the
    array scorer (:mod:`repro.fg.vectorized`) may cache
    ``endpoint values -> features``.  Defaults to ``True`` for static
    templates and ``False`` for dynamic ones; model authors whose
    *static* template features read global state must pass
    ``stable_features=False`` explicitly, which keeps their variables
    on the factor-sum path.

    The generic templates additionally accept a ``signature_fn``
    strengthening that contract for the array scorer: it maps a
    factor's endpoints to a hashable **signature** capturing *every*
    per-factor constant the features read, so that features are a pure
    function of ``(signature, endpoint values)``.  Factors with equal
    signatures then share precomputed feature arrays template-wide —
    e.g. one NER emission entry per ``(string, label)`` instead of one
    per (token, label) — which is where most of the array path's
    speedup comes from.  Without a ``signature_fn``, stable factors
    still get arrays, but private ones (no cross-factor sharing, and
    they are evicted together with the pooled instance, so live repair
    that changes a variable's observation stays correct for free).
    """

    def __init__(
        self,
        name: str,
        dynamic: bool = False,
        stable_features: bool | None = None,
    ):
        self.name = name
        self.dynamic = dynamic
        self.stable_features = (
            (not dynamic) if stable_features is None else stable_features
        )
        self._cache_enabled = True

    def factors_for(self, variable: HiddenVariable) -> Iterable[Factor]:
        """All factor instances of this template adjacent to ``variable``
        *under the current assignment* (the set may depend on the values
        of other variables for structure-changing models)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Cache control (benchmarks and equivalence tests flip this off to
    # reproduce the uncached reference behaviour).
    # ------------------------------------------------------------------
    def set_caching(self, enabled: bool) -> None:
        """Enable/disable instance pooling and the array caches."""
        self._cache_enabled = bool(enabled)
        self.clear_cache()

    def clear_cache(self) -> None:
        """Drop pooled instances (rebuilt lazily); no-op by default."""

    def invalidate(self, names: Iterable[Hashable], scan: bool = True) -> None:
        """Drop cached state for the named variables only (live graph
        repair).  With ``scan=True`` the names may be leaving the graph,
        so cached entries of their :meth:`partners` that reference them
        go too; ``scan=False`` promises the names are brand-new (or only
        gained factors), so no cached entry of *another* variable can
        reference them.  The default implementation clears everything —
        correct for any subclass; the generic templates override with
        targeted eviction so a repair costs O(degree of the names)."""
        self.clear_cache()

    def partners(self, name: Hashable) -> Iterable[Hashable]:
        """Names of the other variables that share a factor of this
        template with ``name`` in its cached state.

        When a variable is removed, the graph evicts exactly these
        variables' cache entries besides the variable's own, and looks
        nowhere else: a static template whose factors have more than
        one hidden endpoint must override this (from an index kept
        where its factors are cached) or its removals leave partners
        scoring stale factors.  Asked before :meth:`invalidate` drops
        ``name``.  The default — no partners — is right for templates
        whose factors each have one hidden endpoint."""
        return ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name})"


def dedup_factors(factor_iter: Iterable[Factor]) -> Dict[Hashable, Factor]:
    """Collapse factor instances by :attr:`Factor.key`."""
    out: Dict[Hashable, Factor] = {}
    for factor in factor_iter:
        out.setdefault(factor.key, factor)
    return out


def _references(factors: Iterable[Factor], names: Set[Hashable]) -> bool:
    """Whether any of ``factors`` has an endpoint named in ``names``."""
    return any(v.name in names for f in factors for v in f.variables)


class UnaryTemplate(Template):
    """One log-linear factor per hidden variable.

    ``feature_fn(variable)`` returns the sparse sufficient statistics
    of the variable's current value; bound methods (or closures) may
    capture per-variable observations (e.g. the token string for an
    emission factor).  The factor instance for each variable is built
    once and pooled.
    """

    def __init__(
        self,
        name: str,
        weights: Weights,
        feature_fn: Callable[[HiddenVariable], FeatureVector],
        stable_features: bool | None = None,
        signature_fn: Callable[[HiddenVariable], Hashable] | None = None,
    ):
        super().__init__(name, dynamic=False, stable_features=stable_features)
        self.weights = weights
        self._feature_fn = feature_fn
        self._signature_fn = signature_fn
        self._pool: Dict[Hashable, Factor] = {}
        # Shared (signature, value) -> (slots, feature values) arrays;
        # only used when a signature_fn makes cross-factor sharing safe.
        self._arrays: Dict[Any, Any] = {}

    def clear_cache(self) -> None:
        self._pool.clear()
        self._arrays.clear()

    def invalidate(self, names: Iterable[Hashable], scan: bool = True) -> None:
        # Shared arrays survive: entries are pure functions of
        # (signature, value), and a variable whose observation changed
        # re-derives its signature when its factor is re-instantiated.
        for name in names:
            self._pool.pop(name, None)

    def factors_for(self, variable: HiddenVariable) -> Tuple[Factor, ...]:
        if not self._cache_enabled:
            return (self._instantiate(variable, stable=False),)
        factor = self._pool.get(variable.name)
        if factor is None:
            factor = self._instantiate(variable, stable=self.stable_features)
            self._pool[variable.name] = factor
        return (factor,)

    def _instantiate(self, variable: HiddenVariable, stable: bool) -> Factor:
        arrays = None
        signature: Hashable = None
        if stable:
            fn = self._signature_fn
            if fn is not None:
                arrays = self._arrays
                signature = fn(variable)
            else:
                arrays = {}  # Private to this factor (no sharing contract).
        return LogLinearFactor(
            self.name,
            (variable,),
            self.weights,
            self._feature_fn,
            stable=stable,
            pass_variables=True,
            arrays=arrays,
            signature=signature,
        )

    def __getstate__(self) -> Dict[str, Any]:
        # Pools rebuild lazily; dropping them keeps chain snapshots for
        # the multiprocess backend lean (and closure-free).  Arrays hold
        # weight slots, which are per-process derived state.
        state = self.__dict__.copy()
        state["_pool"] = {}
        state["_arrays"] = {}
        return state


class PairwiseTemplate(Template):
    """Log-linear factors between a variable and each of its neighbours.

    ``neighbors_fn(variable)`` yields the other endpoints under the
    current assignment; ``feature_fn(a, b)`` maps the two variables to
    features.  Endpoints are canonically ordered by variable name so
    both directions produce the same factor key; the ordering key of
    each variable is computed once and cached.

    Static templates cache the adjacent factor tuple per variable and
    pool instances by factor key (both endpoints share one object);
    dynamic templates re-instantiate on every call because the
    neighbour set depends on the current assignment.  Every pooled
    pair is registered under both endpoints (:meth:`partners`), so
    removing a variable evicts its pooled factors and its partners'
    cached tuples in O(degree).
    """

    def __init__(
        self,
        name: str,
        weights: Weights,
        neighbors_fn: Callable[[HiddenVariable], Iterable[Variable]],
        feature_fn: Callable[[Variable, Variable], FeatureVector],
        dynamic: bool = False,
        stable_features: bool | None = None,
        signature_fn: Callable[[Variable, Variable], Hashable] | None = None,
    ):
        super().__init__(name, dynamic=dynamic, stable_features=stable_features)
        self.weights = weights
        self._neighbors_fn = neighbors_fn
        self._feature_fn = feature_fn
        self._signature_fn = signature_fn
        self._pool: Dict[Hashable, Factor] = {}
        self._adjacent: Dict[Hashable, Tuple[Factor, ...]] = {}
        self._order_keys: Dict[Hashable, str] = {}
        # Endpoint index of the pool: name -> the other endpoint of each
        # pooled pair it is in (tuples: most names have one or two).
        self._partners: Dict[Hashable, Tuple[Hashable, ...]] = {}
        # Shared (signature, value_a, value_b) -> (slots, values) arrays
        # (signature_fn receives the canonically ordered endpoints).
        self._arrays: Dict[Any, Any] = {}

    def clear_cache(self) -> None:
        self._pool.clear()
        self._adjacent.clear()
        self._order_keys.clear()
        self._partners.clear()
        self._arrays.clear()

    def partners(self, name: Hashable) -> Tuple[Hashable, ...]:
        return self._partners.get(name, ())

    def evict_pair(self, a: Hashable, b: Hashable) -> None:
        """Drop the pooled instance for one endpoint pair (either
        order).  Live repair calls this for factors *dissolved between
        two surviving variables* — e.g. the transition edge severed by
        a mid-document insert — which targeted `invalidate(...,
        scan=False)` cannot see; without it, dead instances would
        accumulate in the pool for the graph's lifetime.  The pair also
        leaves :meth:`partners`, so the caller must invalidate both
        endpoints (their neighbourhoods changed)."""
        pool = self._pool
        if pool.pop((a, b), None) is not None or pool.pop((b, a), None) is not None:
            self._unlink(a, b)
            self._unlink(b, a)

    def invalidate(self, names: Iterable[Hashable], scan: bool = True) -> None:
        nameset = set(names)
        adjacent = self._adjacent
        for name in nameset:
            adjacent.pop(name, None)
            self._order_keys.pop(name, None)
        if not scan:
            return
        pool = self._pool
        for name in nameset:
            for partner in self._partners.pop(name, ()):
                pool.pop((name, partner), None)
                pool.pop((partner, name), None)
                self._unlink(partner, name)
                # A removed variable's old neighbour must not keep
                # serving the cached tuple with the dead factor in it.
                factors = adjacent.get(partner)
                if factors is not None and _references(factors, nameset):
                    del adjacent[partner]

    def _unlink(self, name: Hashable, partner: Hashable) -> None:
        """Remove one ``partner`` occurrence from ``name``'s index entry
        (absent entries are fine: both endpoints may be leaving)."""
        mine = self._partners.get(name)
        if mine is None:
            return
        rest = list(mine)
        rest.remove(partner)
        if rest:
            self._partners[name] = tuple(rest)
        else:
            del self._partners[name]

    def factors_for(self, variable: HiddenVariable) -> Sequence[Factor]:
        if self.dynamic or not self._cache_enabled:
            return self._instantiate(variable)
        adjacent = self._adjacent.get(variable.name)
        if adjacent is None:
            adjacent = tuple(self._instantiate(variable))
            self._adjacent[variable.name] = adjacent
        return adjacent

    def _instantiate(self, variable: HiddenVariable) -> List[Factor]:
        pooled = self._cache_enabled and not self.dynamic
        stable = self.stable_features and self._cache_enabled
        pool = self._pool
        partners = self._partners
        weights = self.weights
        feature_fn = self._feature_fn
        signature_fn = self._signature_fn
        out: List[Factor] = []
        for other in self._neighbors_fn(variable):
            first, second = self._ordered(variable, other)
            if pooled:
                key = (first.name, second.name)
                factor = pool.get(key)
                if factor is None:
                    factor = LogLinearFactor(
                        self.name, (first, second), weights, feature_fn,
                        stable=stable, pass_variables=True,
                        arrays=(
                            None if not stable
                            else self._arrays if signature_fn is not None
                            else {}
                        ),
                        signature=(
                            signature_fn(first, second)
                            if stable and signature_fn is not None
                            else None
                        ),
                    )
                    pool[key] = factor
                    partners[key[0]] = partners.get(key[0], ()) + (key[1],)
                    partners[key[1]] = partners.get(key[1], ()) + (key[0],)
            else:
                factor = LogLinearFactor(
                    self.name, (first, second), weights, feature_fn,
                    stable=stable, pass_variables=True,
                )
            out.append(factor)
        return out

    def _ordered(self, a: Variable, b: Variable) -> Tuple[Variable, Variable]:
        keys = self._order_keys
        key_a = keys.get(a.name)
        if key_a is None:
            key_a = keys[a.name] = repr(a.name)
        key_b = keys.get(b.name)
        if key_b is None:
            key_b = keys[b.name] = repr(b.name)
        return (a, b) if key_a <= key_b else (b, a)

    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        state["_pool"] = {}
        state["_adjacent"] = {}
        state["_order_keys"] = {}
        state["_partners"] = {}
        state["_arrays"] = {}
        return state
