"""Model parameters.

A :class:`Weights` object holds the real-valued parameters ``theta`` of
every factor template, keyed by ``(template_name, feature_key)``.
Scoring is a sparse dot product; learning (SampleRank) applies sparse
additive updates.  Keeping all templates' weights in one object makes
saving/loading and L2 norms trivial.

Every *effective* mutation — one that changes the stored mapping — bumps
a monotonic :attr:`Weights.version` counter.  The array scorers'
blanket score caches (:mod:`repro.fg.vectorized`) are keyed against
this counter, so SampleRank's mid-inference weight updates transparently
invalidate every cached score without any registry of dependent factors.
A no-op ``set`` (writing the value already stored) deliberately does
*not* bump the version: it cannot change any score, and bumping would
evict every cached score graph-wide for nothing.

Parameters driven exactly to ``0.0`` are **kept** as explicit zeros.
Earlier revisions popped them, which silently shrank the parameter
universe whenever SampleRank crossed a weight through zero: ``items``/
``num_parameters``/``save`` lost features, a mid-training save→load
round-trip was not the identity, and any dense feature→index assignment
built on the dict would have had its slots yanked out from under it.

Array-backed scoring support
----------------------------

On top of the sparse dict (the single source of truth, and the only
state that pickles/saves), a :class:`Weights` maintains:

* a **stable feature→slot index** (:meth:`slot`): slots are assigned on
  first demand, append-only, and never reassigned — a weight crossing
  through zero, being overwritten, or being loaded keeps its slot for
  the object's lifetime;
* an incrementally maintained **dense value list** (``_dense``, one
  float per assigned slot), which the array scorer reads by plain
  list indexing — bit-identical to the sparse path because a factor's
  dot product is accumulated term-by-term in the same feature order
  either way.

The derived state is dropped on pickling and rebuilt on demand; two
unpickled copies of the same object assign slots independently.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, Hashable, ItemsView, List, Tuple

from repro.fg.features import FeatureVector

__all__ = ["Weights"]

Key = Tuple[str, Hashable]

#: Sentinel distinguishing "absent" from any stored float.
_MISSING = object()


class Weights:
    """Sparse parameter vector shared by all templates of a model."""

    __slots__ = ("_values", "_version", "_slots", "_dense")

    def __init__(self) -> None:
        self._values: Dict[Key, float] = {}
        self._version: int = 0
        # feature key -> dense slot, append-only (see module docstring).
        self._slots: Dict[Key, int] = {}
        # slot -> current value (0.0 for features with no stored weight).
        self._dense: List[float] = []

    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotonic mutation counter; scores cached under an older
        version are stale.  Bumped only by mutations that actually
        change a stored value."""
        return self._version

    def get(self, template: str, feature: Hashable) -> float:
        return self._values.get((template, feature), 0.0)

    def set(self, template: str, feature: Hashable, value: float) -> None:
        """Store ``theta[template, feature] = value``.

        Keeps explicit zeros (an entry set to ``0.0`` stays a
        parameter), and a no-op write — storing the value the entry
        already holds — bumps nothing: it cannot change any score, so
        cached scores stay valid.  Creating a brand-new entry (even at
        ``0.0``) changes the mapping and therefore bumps the version.
        """
        key = (template, feature)
        if self._values.get(key, _MISSING) == value:
            return  # No-op write: nothing stored changes, keep caches.
        self._version += 1
        self._values[key] = value
        slot = self._slots.get(key)
        if slot is not None:
            self._dense[slot] = value

    def dot(self, template: str, features: FeatureVector) -> float:
        """``theta_template · phi`` for a sparse feature vector."""
        values = self._values
        total = 0.0
        for key, value in features.items():
            weight = values.get((template, key))
            if weight is not None:
                total += weight * value
        return total

    def update(self, template: str, features: FeatureVector, step: float) -> None:
        """``theta_template += step * phi`` (the perceptron-style update
        SampleRank performs)."""
        if step == 0.0:
            return
        for key, value in features.items():
            self.set(template, key, self.get(template, key) + step * value)

    # ------------------------------------------------------------------
    # Dense view (array-backed scoring)
    # ------------------------------------------------------------------
    def slot(self, template: str, feature: Hashable) -> int:
        """Stable dense index of ``(template, feature)``.

        Assigned on first demand and never reassigned; the feature need
        not have a stored weight (its dense value is then 0.0).  The
        array scorer bakes slots into per-factor arrays, which stay
        valid across every weight mutation — only values move.
        """
        key = (template, feature)
        slot = self._slots.get(key)
        if slot is None:
            slot = len(self._dense)
            self._slots[key] = slot
            self._dense.append(self._values.get(key, 0.0))
        return slot

    def num_slots(self) -> int:
        """Number of dense slots assigned so far."""
        return len(self._dense)

    # ------------------------------------------------------------------
    def num_parameters(self) -> int:
        return len(self._values)

    def l2_norm(self) -> float:
        return math.sqrt(sum(v * v for v in self._values.values()))

    def copy(self) -> "Weights":
        out = Weights()
        out._values = dict(self._values)
        out._version = self._version
        return out

    def items(self) -> ItemsView[Tuple[str, Hashable], float]:
        return self._values.items()

    # ------------------------------------------------------------------
    # Pickling (multiprocess chain backend): only the sparse dict and
    # the version travel; slot assignments and the dense list are
    # derived state, rebuilt on demand in the receiving process.
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        return {"_values": self._values, "_version": self._version}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self._values = state["_values"]
        self._version = state["_version"]
        self._slots = {}
        self._dense = []

    # ------------------------------------------------------------------
    # Persistence (feature keys must be JSON-representable; tuple keys
    # are stored as JSON arrays and restored as tuples).
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        records = [
            {"template": template, "feature": _encode(feature), "value": value}
            for (template, feature), value in self._values.items()
        ]
        Path(path).write_text(json.dumps(records), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Weights":
        """Exact inverse of :meth:`save`.

        Constructs the mapping directly instead of replaying
        :meth:`set` per record, so a freshly loaded object reports
        ``version == 0`` (it has seen no mutations) and explicit zeros
        survive the round trip.
        """
        out = cls()
        out._values = {
            (record["template"], _decode(record["feature"])): record["value"]
            for record in json.loads(Path(path).read_text(encoding="utf-8"))
        }
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Weights({len(self._values)} parameters, |θ|={self.l2_norm():.3f})"


def _encode(feature: Hashable) -> Any:
    if isinstance(feature, tuple):
        return {"t": [_encode(f) for f in feature]}
    return feature


def _decode(raw: Any) -> Hashable:
    if isinstance(raw, dict) and "t" in raw:
        return tuple(_decode(f) for f in raw["t"])
    return raw
