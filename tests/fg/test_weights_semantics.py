"""Weights storage semantics (ISSUE 9 satellites).

Three bugfix contracts, each with a regression test:

* explicit zeros are *kept* — driving a weight to 0.0 must not shrink
  the parameter universe or break a save→load round trip;
* ``set`` bumps :attr:`Weights.version` only on an *effective*
  mutation — a no-op write must not evict every cached score;
* ``load`` is the exact inverse of ``save`` and reports ``version == 0``
  (the loaded object has seen no mutations).

Plus hypothesis property tests over the stable feature→slot index that
the array scorer builds on: under arbitrary interleavings of
``set``/``update``/zero-crossing mutations, slots never move, the dense
list always mirrors the sparse dict, and the version bumps exactly when
the mapping changes.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fg import Weights


class TestExplicitZeros:
    def test_zero_set_keeps_parameter(self):
        w = Weights()
        w.set("t", "a", 2.5)
        w.set("t", "a", 0.0)
        assert w.num_parameters() == 1
        assert w.get("t", "a") == 0.0
        assert ("t", "a") in dict(w.items())

    def test_update_through_zero_keeps_parameter(self):
        w = Weights()
        w.set("t", "a", 1.0)
        w.update("t", {"a": 1.0}, -1.0)  # crosses exactly to zero
        assert w.num_parameters() == 1
        w.update("t", {"a": 1.0}, -1.0)  # and out the other side
        assert w.get("t", "a") == -1.0

    def test_zero_survives_save_load_roundtrip(self, tmp_path):
        w = Weights()
        w.set("t", ("emit", "Boston", "B-ORG"), 1.5)
        w.set("t", "zeroed", 1.0)
        w.set("t", "zeroed", 0.0)
        w.set("t", "born-zero", 0.0)
        path = tmp_path / "w.json"
        w.save(path)
        loaded = Weights.load(path)
        assert dict(loaded.items()) == dict(w.items())
        assert loaded.num_parameters() == 3
        assert loaded.get("t", "zeroed") == 0.0

    def test_l2_norm_ignores_zeros_numerically(self):
        w = Weights()
        w.set("t", "a", 3.0)
        w.set("t", "b", 4.0)
        w.set("t", "c", 0.0)
        assert w.l2_norm() == 5.0


class TestVersionSemantics:
    def test_noop_set_does_not_bump(self):
        w = Weights()
        w.set("t", "a", 1.0)
        before = w.version
        w.set("t", "a", 1.0)
        assert w.version == before

    def test_effective_set_bumps(self):
        w = Weights()
        w.set("t", "a", 1.0)
        before = w.version
        w.set("t", "a", 1.5)
        assert w.version == before + 1

    def test_new_zero_entry_bumps(self):
        # Creating a brand-new entry changes the mapping even at 0.0.
        w = Weights()
        before = w.version
        w.set("t", "a", 0.0)
        assert w.version == before + 1

    def test_zero_step_update_does_not_bump(self):
        w = Weights()
        w.set("t", "a", 1.0)
        before = w.version
        w.update("t", {"a": 5.0, "b": -2.0}, 0.0)
        assert w.version == before
        assert w.num_parameters() == 1


class TestLoadInverse:
    def test_load_version_is_zero(self, tmp_path):
        w = Weights()
        w.set("t", "a", 1.0)
        w.update("t", {"a": 1.0, "b": 2.0}, 0.5)
        path = tmp_path / "w.json"
        w.save(path)
        loaded = Weights.load(path)
        assert loaded.version == 0
        assert dict(loaded.items()) == dict(w.items())

    def test_save_load_save_is_stable(self, tmp_path):
        w = Weights()
        w.set("t", ("tuple", "key"), -0.25)
        w.set("t", "zero", 0.0)
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        w.save(first)
        Weights.load(first).save(second)
        assert first.read_text() == second.read_text()


# ----------------------------------------------------------------------
# Property tests: the stable slot index under interleaved mutations.
# ----------------------------------------------------------------------

_FEATURES = st.sampled_from(["a", "b", "c", ("pair", 1), ("pair", 2)])
_VALUES = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("set"), _FEATURES, _VALUES),
        st.tuples(st.just("update"), _FEATURES, _VALUES),
        st.tuples(st.just("slot"), _FEATURES, st.just(0.0)),
    ),
    min_size=1,
    max_size=40,
)


def _apply(w: Weights, ops):
    for op, feature, value in ops:
        if op == "set":
            w.set("t", feature, value)
        elif op == "update":
            w.update("t", {feature: 1.0}, value)
        else:
            w.slot("t", feature)


class TestSlotStability:
    @given(ops=_OPS)
    @settings(max_examples=60)
    def test_slots_never_move(self, ops):
        w = Weights()
        assigned = {}
        for op, feature, value in ops:
            slot = w.slot("t", feature)
            if feature in assigned:
                assert slot == assigned[feature]
            else:
                assigned[feature] = slot
            _apply(w, [(op, feature, value)])
        # Slots are a contiguous 0..n-1 range, one per distinct feature.
        assert sorted(assigned.values()) == list(range(len(assigned)))

    @given(ops=_OPS)
    @settings(max_examples=60)
    def test_dense_mirrors_sparse(self, ops):
        w = Weights()
        _apply(w, ops)
        for feature in ["a", "b", "c", ("pair", 1), ("pair", 2)]:
            slot = w.slot("t", feature)
            assert w._dense[slot] == w.get("t", feature)
        assert w.num_slots() == 5

    @given(ops=_OPS)
    @settings(max_examples=60)
    def test_version_bumps_iff_mapping_changes(self, ops):
        w = Weights()
        for op, feature, value in ops:
            before_map = dict(w.items())
            before_version = w.version
            _apply(w, [(op, feature, value)])
            if dict(w.items()) == before_map:
                assert w.version == before_version
            else:
                assert w.version > before_version

    @given(ops=_OPS)
    @settings(max_examples=60)
    def test_norm_matches_values(self, ops):
        w = Weights()
        _apply(w, ops)
        expected = math.sqrt(sum(v * v for _, v in w.items()))
        assert w.l2_norm() == expected
