"""Incremental plan maintenance — the engine behind Equation 6.

Each logical plan node gets a stateful *maintainer* that consumes the
world delta ``(Δ−, Δ+)`` produced by k Metropolis-Hastings steps and
emits the signed multiset of changes to its own output:

    Q(w') = Q(w) − Q'(w, Δ−) ∪ Q'(w, Δ+)            (paper, Eq. 6)

Signed multisets make the rewrite rules exact identities:

* selection / projection / union distribute over deltas;
* join uses the bilinear rule
  ``Δ(L ⋈ R) = ΔL ⋈ R' + L' ⋈ ΔR − ΔL ⋈ ΔR`` (primes = post-delta);
* DISTINCT and GROUP BY maintain multiset counters — the extra
  book-keeping the paper's §4.2 Remark notes is required under
  projection;
* :class:`AggLookupMaintainer` maintains decorrelated scalar-COUNT
  subqueries (the paper's Query 3).

Maintainers hold only the state they need (join buckets, group
accumulators, distinct counters); the final answer multiset lives in
:class:`repro.db.view.MaterializedView`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from repro.db.database import Database
from repro.db.delta import Delta
from repro.db.multiset import Multiset
from repro.db.ra.ast import (
    AggLookup,
    CrossProduct,
    Distinct,
    GroupAggregate,
    Join,
    Limit,
    OrderBy,
    PlanNode,
    Project,
    Scan,
    Select,
    UnionAll,
)
from repro.db.ra.eval import evaluate, zero_for
from repro.db.types import AttrType
from repro.errors import PlanError

__all__ = ["Maintainer", "build_maintainer"]

Row = Tuple[Any, ...]
KeyFn = Callable[[Row], tuple]


class Maintainer:
    """Stateful incremental executor for one plan node."""

    plan: PlanNode

    def initialize(self, db: Database) -> Multiset:
        """Full bottom-up evaluation; seeds internal state and returns
        the node's complete output."""
        raise NotImplementedError

    def apply(self, delta: Delta) -> Multiset:
        """Propagate a base-table delta; returns this node's output delta."""
        raise NotImplementedError


def build_maintainer(plan: PlanNode) -> Maintainer:
    """Construct the maintainer tree for ``plan``.

    Raises :class:`PlanError` for presentation-only operators
    (ORDER BY / LIMIT) that have no incremental multiset semantics.
    """
    if isinstance(plan, Scan):
        return _ScanMaintainer(plan)
    if isinstance(plan, Select):
        return _SelectMaintainer(plan)
    if isinstance(plan, Project):
        return _ProjectMaintainer(plan)
    if isinstance(plan, (Join, CrossProduct)):
        return _JoinMaintainer(plan)
    if isinstance(plan, UnionAll):
        return _UnionAllMaintainer(plan)
    if isinstance(plan, Distinct):
        return _DistinctMaintainer(plan)
    if isinstance(plan, GroupAggregate):
        return _GroupAggregateMaintainer(plan)
    if isinstance(plan, AggLookup):
        return _AggLookupMaintainer(plan)
    if isinstance(plan, (OrderBy, Limit)):
        raise PlanError(
            f"{type(plan).__name__} is presentation-only and cannot be "
            "incrementally maintained; strip it before materializing"
        )
    raise PlanError(f"unknown plan node {type(plan).__name__}")


# ----------------------------------------------------------------------
# Leaves and stateless unary operators
# ----------------------------------------------------------------------
class _ScanMaintainer(Maintainer):
    def __init__(self, plan: Scan):
        self.plan = plan

    def initialize(self, db: Database) -> Multiset:
        return db.table(self.plan.table_name).as_multiset()

    def apply(self, delta: Delta) -> Multiset:
        return delta.for_table(self.plan.table_name).copy()


class _SelectMaintainer(Maintainer):
    def __init__(self, plan: Select):
        self.plan = plan
        self.child = build_maintainer(plan.child)
        self._predicate = plan.predicate.bind(plan.child.schema)

    def initialize(self, db: Database) -> Multiset:
        if isinstance(self.plan.child, Scan):
            return evaluate(self.plan, db)  # a primary-key probe when pinned
        return self.child.initialize(db).filter_rows(self._predicate)

    def apply(self, delta: Delta) -> Multiset:
        return self.child.apply(delta).filter_rows(self._predicate)


class _ProjectMaintainer(Maintainer):
    def __init__(self, plan: Project):
        self.plan = plan
        self.child = build_maintainer(plan.child)
        compiled = [expr.bind(plan.child.schema) for expr, _ in plan.outputs]
        self._mapper = lambda row: tuple(fn(row) for fn in compiled)

    def initialize(self, db: Database) -> Multiset:
        return self.child.initialize(db).map_rows(self._mapper)

    def apply(self, delta: Delta) -> Multiset:
        return self.child.apply(delta).map_rows(self._mapper)


class _UnionAllMaintainer(Maintainer):
    def __init__(self, plan: UnionAll):
        self.plan = plan
        self.left = build_maintainer(plan.left)
        self.right = build_maintainer(plan.right)

    def initialize(self, db: Database) -> Multiset:
        return self.left.initialize(db) + self.right.initialize(db)

    def apply(self, delta: Delta) -> Multiset:
        return self.left.apply(delta) + self.right.apply(delta)


# ----------------------------------------------------------------------
# Join (bilinear delta rule over hash buckets)
# ----------------------------------------------------------------------
class _JoinMaintainer(Maintainer):
    """Maintains key-partitioned copies of both inputs.

    Buckets map the equi-join key to the multiset of input rows with
    that key; a join with no equi pairs degenerates to one bucket
    (cross product).  The residual condition (anything beyond the
    hashed equalities) is applied to each concatenated row.
    """

    def __init__(self, plan: Join | CrossProduct):
        self.plan = plan
        self.left = build_maintainer(plan.left)
        self.right = build_maintainer(plan.right)
        if isinstance(plan, Join):
            left_fns = [c.bind(plan.left.schema) for c, _ in plan.equi_pairs]
            right_fns = [c.bind(plan.right.schema) for _, c in plan.equi_pairs]
            self._left_key: KeyFn = lambda row: tuple(fn(row) for fn in left_fns)
            self._right_key: KeyFn = lambda row: tuple(fn(row) for fn in right_fns)
            self._condition = plan.condition.bind(plan.schema)
        else:
            self._left_key = self._right_key = lambda row: ()
            self._condition = None
        self._left_buckets: Dict[tuple, Multiset] = {}
        self._right_buckets: Dict[tuple, Multiset] = {}

    def initialize(self, db: Database) -> Multiset:
        left = self.left.initialize(db)
        right = self.right.initialize(db)
        self._left_buckets = _partition(left, self._left_key)
        self._right_buckets = _partition(right, self._right_key)
        return self._join(left, self._right_buckets, self._left_key, left_side=True)

    def apply(self, delta: Delta) -> Multiset:
        d_left = self.left.apply(delta)
        d_right = self.right.apply(delta)
        _merge_into(self._left_buckets, d_left, self._left_key)
        _merge_into(self._right_buckets, d_right, self._right_key)
        out = Multiset()
        if not d_left.is_empty():
            out.update(
                self._join(d_left, self._right_buckets, self._left_key, left_side=True)
            )
        if not d_right.is_empty():
            out.update(
                self._join(d_right, self._left_buckets, self._right_key, left_side=False)
            )
            if not d_left.is_empty():
                d_right_buckets = _partition(d_right, self._right_key)
                out.update(
                    self._join(
                        d_left, d_right_buckets, self._left_key, left_side=True
                    ).scaled(-1)
                )
        return out

    def _join(
        self,
        probe: Multiset,
        buckets: Dict[tuple, Multiset],
        probe_key: KeyFn,
        left_side: bool,
    ) -> Multiset:
        out = Multiset()
        condition = self._condition
        for row, count in probe.items():
            bucket = buckets.get(probe_key(row))
            if bucket is None:
                continue
            for other, other_count in bucket.items():
                joined = row + other if left_side else other + row
                if condition is None or condition(joined):
                    out.add(joined, count * other_count)
        return out


def _partition(ms: Multiset, key_fn: KeyFn) -> Dict[tuple, Multiset]:
    buckets: Dict[tuple, Multiset] = {}
    for row, count in ms.items():
        bucket = buckets.get(key_fn(row))
        if bucket is None:
            bucket = Multiset()
            buckets[key_fn(row)] = bucket
        bucket.add(row, count)
    return buckets


def _merge_into(buckets: Dict[tuple, Multiset], delta: Multiset, key_fn: KeyFn) -> None:
    for row, count in delta.items():
        key = key_fn(row)
        bucket = buckets.get(key)
        if bucket is None:
            bucket = Multiset()
            buckets[key] = bucket
        bucket.add(row, count)
        if bucket.is_empty():
            del buckets[key]


# ----------------------------------------------------------------------
# Distinct (support tracking)
# ----------------------------------------------------------------------
class _DistinctMaintainer(Maintainer):
    def __init__(self, plan: Distinct):
        self.plan = plan
        self.child = build_maintainer(plan.child)
        self._counts = Multiset()

    def initialize(self, db: Database) -> Multiset:
        self._counts = self.child.initialize(db)
        out = Multiset()
        for row in self._counts.support():
            out.add(row, 1)
        return out

    def apply(self, delta: Delta) -> Multiset:
        d_child = self.child.apply(delta)
        out = Multiset()
        for row, change in d_child.items():
            old = self._counts.count(row)
            new = old + change
            if new < 0:
                raise PlanError(
                    f"DISTINCT input went negative for row {row!r}; "
                    "the child plan is not a relation"
                )
            self._counts.add(row, change)
            if old == 0 and new > 0:
                out.add(row, 1)
            elif old > 0 and new == 0:
                out.add(row, -1)
        return out


# ----------------------------------------------------------------------
# Group-by aggregation
# ----------------------------------------------------------------------
class _GroupState:
    """Accumulators for one group."""

    __slots__ = ("n", "sums", "value_bags")

    def __init__(self, num_aggs: int, track_values: list[bool]):
        self.n = 0
        self.sums: List[Any] = [0] * num_aggs
        self.value_bags: List[Multiset | None] = [
            Multiset() if track else None for track in track_values
        ]


class _GroupAggregateMaintainer(Maintainer):
    def __init__(self, plan: GroupAggregate):
        self.plan = plan
        self.child = build_maintainer(plan.child)
        child_schema = plan.child.schema
        self._group_fns = [expr.bind(child_schema) for expr, _ in plan.group_by]
        self._arg_fns = [
            spec.arg.bind(child_schema) if spec.arg is not None else None
            for spec in plan.aggregates
        ]
        self._agg_types = [
            plan.schema.attributes[len(plan.group_by) + i].attr_type
            for i in range(len(plan.aggregates))
        ]
        self._track_values = [
            spec.func in ("min", "max") for spec in plan.aggregates
        ]
        self._groups: Dict[tuple, _GroupState] = {}
        self._global = not plan.group_by

    def initialize(self, db: Database) -> Multiset:
        child = self.child.initialize(db)
        self._groups = {}
        for row, count in child.items():
            if count <= 0:
                raise PlanError("aggregate input must be a relation")
            self._accumulate(self._key_of(row), row, count)
        out = Multiset()
        if self._global and not self._groups:
            out.add(self._output_row((), None), 1)
            return out
        for key, state in self._groups.items():
            out.add(self._output_row(key, state), 1)
        return out

    def apply(self, delta: Delta) -> Multiset:
        d_child = self.child.apply(delta)
        if d_child.is_empty():
            return Multiset()
        affected = {self._key_of(row) for row, _ in d_child.items()}
        old_rows = {key: self._current_output(key) for key in affected}
        for row, count in d_child.items():
            self._accumulate(self._key_of(row), row, count)
        out = Multiset()
        for key in affected:
            old = old_rows[key]
            new = self._current_output(key)
            if old == new:
                continue
            if old is not None:
                out.add(old, -1)
            if new is not None:
                out.add(new, 1)
        return out

    # -- internals -----------------------------------------------------
    def _key_of(self, row: Row) -> tuple:
        return tuple(fn(row) for fn in self._group_fns)

    def _accumulate(self, key: tuple, row: Row, count: int) -> None:
        state = self._groups.get(key)
        if state is None:
            state = _GroupState(len(self.plan.aggregates), self._track_values)
            self._groups[key] = state
        state.n += count
        for i, arg in enumerate(self._arg_fns):
            if arg is None:
                continue
            value = arg(row)
            if self.plan.aggregates[i].func in ("sum", "avg"):
                state.sums[i] += value * count
            bag = state.value_bags[i]
            if bag is not None:
                bag.add((value,), count)
        if state.n < 0:
            raise PlanError("aggregate group count went negative")
        if state.n == 0:
            del self._groups[key]

    def _current_output(self, key: tuple) -> Row | None:
        state = self._groups.get(key)
        if state is None:
            if self._global:
                return self._output_row((), None)
            return None
        return self._output_row(key, state)

    def _output_row(self, key: tuple, state: _GroupState | None) -> Row:
        values: list[Any] = []
        for i, spec in enumerate(self.plan.aggregates):
            attr_type = self._agg_types[i]
            if state is None or state.n == 0:
                values.append(0 if spec.func == "count" else zero_for(attr_type))
                continue
            if spec.func == "count":
                values.append(state.n)
            elif spec.func == "sum":
                total = state.sums[i]
                values.append(float(total) if attr_type is AttrType.FLOAT else total)
            elif spec.func == "avg":
                values.append(state.sums[i] / state.n)
            else:  # min / max
                bag = state.value_bags[i]
                assert bag is not None
                vals = [v for (v,) in bag.support()]
                if not vals:
                    values.append(zero_for(attr_type))
                elif spec.func == "min":
                    values.append(min(vals))
                else:
                    values.append(max(vals))
        return key + tuple(values)


# ----------------------------------------------------------------------
# Decorrelated scalar-aggregate lookup (Query 3)
# ----------------------------------------------------------------------
class _AggLookupMaintainer(Maintainer):
    """Maintains ``outer ⟕ (key → aggregate)`` with a default value.

    State: the outer rows partitioned by lookup key, and the current
    aggregate value per key.  Both inputs may change in the same delta
    (Query 3 reads TOKEN on both sides), so inner value changes are
    processed against the *old* outer partitions before the outer delta
    is merged in.
    """

    def __init__(self, plan: AggLookup):
        self.plan = plan
        self.outer = build_maintainer(plan.outer)
        self.inner = build_maintainer(plan.inner)
        self._key_fn = plan.outer_key.bind(plan.outer.schema)
        self._default = plan.default
        self._outer_by_key: Dict[Any, Multiset] = {}
        self._values: Dict[Any, Any] = {}

    def initialize(self, db: Database) -> Multiset:
        outer = self.outer.initialize(db)
        inner = self.inner.initialize(db)
        self._outer_by_key = _partition(outer, lambda row: (self._key_fn(row),))
        self._values = {row[0]: row[1] for row in inner.support()}
        out = Multiset()
        for row, count in outer.items():
            value = self._values.get(self._key_fn(row), self._default)
            out.add(row + (value,), count)
        return out

    def apply(self, delta: Delta) -> Multiset:
        d_outer = self.outer.apply(delta)
        d_inner = self.inner.apply(delta)
        out = Multiset()

        # 1) Per-key aggregate-value changes.
        changed: Dict[Any, tuple[Any, Any]] = {}
        if not d_inner.is_empty():
            new_values: Dict[Any, Any] = {}
            touched = set()
            for row, count in d_inner.items():
                touched.add(row[0])
                if count > 0:
                    new_values[row[0]] = row[1]
            for key in touched:
                old = self._values.get(key, self._default)
                new = new_values.get(key, self._default)
                if old != new:
                    changed[key] = (old, new)
                    if key in new_values:
                        self._values[key] = new
                    else:
                        self._values.pop(key, None)

        # 2) Swap the extension of existing outer rows under changed keys
        #    (old partitions: the outer delta has not been merged yet).
        for key, (old, new) in changed.items():
            bucket = self._outer_by_key.get((key,))
            if bucket is None:
                continue
            for row, count in bucket.items():
                out.add(row + (old,), -count)
                out.add(row + (new,), count)

        # 3) Outer rows entering/leaving, extended with the new values.
        for row, count in d_outer.items():
            key = self._key_fn(row)
            value = self._values.get(key, self._default)
            out.add(row + (value,), count)
        _merge_into(self._outer_by_key, d_outer, lambda row: (self._key_fn(row),))
        return out
