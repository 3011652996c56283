"""Factors: compatibility functions over small sets of variables.

All scores are **log-space** throughout the library: a paper factor
``psi(y, x) = exp(phi · theta)`` is represented by its exponent, so the
model's unnormalized log-probability is a *sum* of factor scores and
the Metropolis-Hastings ratio is a difference — the normalizer ``Z_X``
never appears (paper §3.4).

Factors are created lazily by templates when inference asks which
factors touch a changed variable; :attr:`Factor.key` deduplicates the
instances that two endpoints of the same factor would otherwise
produce.

A :class:`LogLinearFactor` built with ``stable=True`` asserts that its
features depend only on its endpoints' values (plus per-factor
constants such as an observed token string) — never on the values of
variables outside the factor.  That is what makes it eligible for the
array scorer (:mod:`repro.fg.vectorized`).

Stable factors carry an **array cache** for that scorer:
``(signature, endpoint values) -> (weight slots, feature values)``,
where the slots index the shared
:meth:`repro.fg.weights.Weights.slot` map.  The cache is
*weights-version independent* — slots are stable and only the dense
weight values move — so SampleRank's mid-run updates never evict it.
The ``signature`` folds in every per-factor constant the features
read (e.g. the observed token string), which lets templates share one
array dict across all their factor instances: every "Rangoon" emission
factor in the corpus hits the same entries.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Tuple

from repro.fg.features import FeatureVector
from repro.fg.variables import Variable
from repro.fg.weights import Weights

__all__ = ["Factor", "LogLinearFactor", "TableFactor", "ConstraintFactor", "NEG_INF"]

NEG_INF = float("-inf")


class Factor:
    """Base class.  A factor reads the *current* values of its variables."""

    __slots__ = ("template_name", "variables", "_key")

    def __init__(self, template_name: str, variables: Tuple[Variable, ...]):
        self.template_name = template_name
        self.variables = variables
        self._key = None

    @property
    def key(self) -> Hashable:
        """Identity for deduplication: a factor instance reachable from
        several of its variables must produce equal keys.  Computed on
        first use and cached (names never change)."""
        key = self._key
        if key is None:
            key = self._key = (
                self.template_name,
                tuple(v.name for v in self.variables),
            )
        return key

    def score(self) -> float:
        """Log-space compatibility of the current assignment."""
        raise NotImplementedError

    def features(self) -> FeatureVector:
        """Sufficient statistics of the current assignment (empty for
        non-parametric factors)."""
        return {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = ", ".join(str(v.name) for v in self.variables)
        return f"{type(self).__name__}({self.template_name}: {names})"


class LogLinearFactor(Factor):
    """``score = theta · phi(values)`` with shared template weights.

    ``feature_fn`` maps the current variable values (in ``variables``
    order) to a sparse feature vector; with ``pass_variables=True`` it
    receives the variable objects themselves instead (the calling
    convention of template-bound model feature methods, which read
    ``variable.value`` and per-variable observations directly — no
    per-instantiation closure needed).

    ``stable=True`` makes the factor eligible for the array scorer.
    Only enable for factors whose features are a pure function of their
    own endpoints' values (see module docstring).

    ``arrays``/``signature`` attach the factor to an array cache for the
    array scorer: ``arrays`` maps ``(signature, *endpoint values)``
    to precomputed ``(weight slots, feature values)`` tuples (shared
    across a template's factors when a signature function is available,
    private to this factor otherwise) and :meth:`build_array_entry`
    fills it from the current assignment.  ``arrays=None`` (the default,
    and the only valid choice for non-``stable`` factors) opts out.
    """

    __slots__ = ("weights", "_feature_fn", "stable", "_pass_variables",
                 "arrays", "signature")

    def __init__(
        self,
        template_name: str,
        variables: Tuple[Variable, ...],
        weights: Weights,
        feature_fn: Callable[..., FeatureVector],
        stable: bool = False,
        pass_variables: bool = False,
        arrays: Dict[Tuple[Any, ...], Tuple[Tuple[int, ...], Tuple[float, ...]]]
        | None = None,
        signature: Hashable = None,
    ):
        super().__init__(template_name, variables)
        self.weights = weights
        self._feature_fn = feature_fn
        self.stable = stable
        self._pass_variables = pass_variables
        self.arrays = arrays
        self.signature = signature

    def features(self) -> FeatureVector:
        if self._pass_variables:
            return self._feature_fn(*self.variables)
        return self._feature_fn(*(v.value for v in self.variables))

    def build_array_entry(self) -> Tuple[Tuple[int, ...], Tuple[float, ...]]:
        """``(weight slots, feature values)`` of the *current* assignment.

        Slots come from the stable :meth:`Weights.slot` map (assigned on
        demand, valid for the weights object's lifetime), in the feature
        dict's insertion order — the same order :meth:`Weights.dot`
        iterates, which keeps the scorer's term-by-term accumulation
        bit-identical to the sparse path.
        """
        weights = self.weights
        name = self.template_name
        slots = []
        values = []
        for key, value in self.features().items():
            slots.append(weights.slot(name, key))
            values.append(value)
        return tuple(slots), tuple(values)

    def score(self) -> float:
        return self.weights.dot(self.template_name, self.features())


class TableFactor(Factor):
    """An explicit (value-combo → log score) table.

    Convenient for unit tests and small exactly-enumerable models;
    missing combinations default to log score 0 (multiplicative 1).
    """

    __slots__ = ("table", "default")

    def __init__(
        self,
        template_name: str,
        variables: Tuple[Variable, ...],
        table: Dict[Tuple[Any, ...], float],
        default: float = 0.0,
    ):
        super().__init__(template_name, variables)
        self.table = table
        self.default = default

    def score(self) -> float:
        values = tuple(v.value for v in self.variables)
        return self.table.get(values, self.default)


class ConstraintFactor(Factor):
    """A deterministic factor: 0 when satisfied, −inf when violated.

    Worlds violating any constraint have probability zero (paper §3.2);
    in practice proposers are constraint-preserving and these factors
    only guard against programming errors.
    """

    __slots__ = ("_predicate",)

    def __init__(
        self,
        template_name: str,
        variables: Tuple[Variable, ...],
        predicate: Callable[..., bool],
    ):
        super().__init__(template_name, variables)
        self._predicate = predicate

    def score(self) -> float:
        if self._predicate(*(v.value for v in self.variables)):
            return 0.0
        return NEG_INF
