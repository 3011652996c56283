"""Tests for tables, deltas and the database container."""

import pytest

from repro.db.database import Database
from repro.db.delta import Delta
from repro.db.multiset import Multiset
from repro.db.schema import Schema
from repro.db.types import AttrType
from repro.errors import IntegrityError


def make_db():
    db = Database()
    db.create_table(
        Schema.build(
            "TOKEN",
            [
                ("TOK_ID", AttrType.INT),
                ("DOC_ID", AttrType.INT),
                ("STRING", AttrType.STRING),
                ("LABEL", AttrType.STRING),
            ],
            key=["TOK_ID"],
        )
    )
    return db


class TestTable:
    def test_insert_and_get(self):
        db = make_db()
        db.insert("TOKEN", (1, 0, "a", "O"))
        assert db.table("TOKEN").get((1,)) == (1, 0, "a", "O")
        assert len(db.table("TOKEN")) == 1

    def test_duplicate_key_rejected(self):
        db = make_db()
        db.insert("TOKEN", (1, 0, "a", "O"))
        with pytest.raises(IntegrityError, match="duplicate"):
            db.insert("TOKEN", (1, 0, "b", "O"))

    def test_delete(self):
        db = make_db()
        db.insert("TOKEN", (1, 0, "a", "O"))
        row = db.delete("TOKEN", (1,))
        assert row == (1, 0, "a", "O")
        assert len(db.table("TOKEN")) == 0
        with pytest.raises(IntegrityError):
            db.delete("TOKEN", (1,))

    def test_update_returns_old_and_new(self):
        db = make_db()
        db.insert("TOKEN", (1, 0, "a", "O"))
        old, new = db.update("TOKEN", (1,), {"LABEL": "B-PER"})
        assert old == (1, 0, "a", "O")
        assert new == (1, 0, "a", "B-PER")

    def test_update_cannot_change_key(self):
        db = make_db()
        db.insert("TOKEN", (1, 0, "a", "O"))
        with pytest.raises(IntegrityError, match="primary key"):
            db.update("TOKEN", (1,), {"TOK_ID": 2})

    def test_update_missing_row(self):
        db = make_db()
        with pytest.raises(IntegrityError):
            db.update("TOKEN", (1,), {"LABEL": "O"})

    def test_as_multiset(self):
        db = make_db()
        db.insert("TOKEN", (1, 0, "a", "O"))
        db.insert("TOKEN", (2, 0, "b", "O"))
        ms = db.table("TOKEN").as_multiset()
        assert ms == Multiset([(1, 0, "a", "O"), (2, 0, "b", "O")])

    def test_keyless_table_bag_semantics(self):
        db = Database()
        db.create_table(Schema.build("B", [("x", AttrType.INT)]))
        db.insert("B", (1,))
        db.insert("B", (1,))
        assert len(db.table("B")) == 2
        db.table("B").delete_row((1,))
        assert len(db.table("B")) == 1
        with pytest.raises(IntegrityError):
            db.table("B").delete_row((9,))


class TestDatabase:
    def test_unknown_table(self):
        with pytest.raises(IntegrityError, match="no table"):
            make_db().table("NOPE")

    def test_duplicate_table(self):
        db = make_db()
        with pytest.raises(IntegrityError, match="already exists"):
            db.create_table(Schema.build("token", [("x", AttrType.INT)]))

    def test_drop_table(self):
        db = make_db()
        db.drop_table("TOKEN")
        assert not db.has_table("TOKEN")

    def test_contains(self):
        db = make_db()
        assert "token" in db
        assert "other" not in db

    def test_snapshot_restore(self):
        db = make_db()
        db.insert("TOKEN", (1, 0, "a", "O"))
        snap = db.snapshot()
        db.update("TOKEN", (1,), {"LABEL": "B-PER"})
        db.insert("TOKEN", (2, 0, "b", "O"))
        db.restore(snap)
        assert len(db.table("TOKEN")) == 1
        assert db.table("TOKEN").get((1,)) == (1, 0, "a", "O")

    def test_clone_is_independent(self):
        db = make_db()
        db.insert("TOKEN", (1, 0, "a", "O"))
        other = db.clone()
        other.update("TOKEN", (1,), {"LABEL": "B-PER"})
        assert db.table("TOKEN").get((1,)) == (1, 0, "a", "O")

    def test_from_snapshot(self):
        db = make_db()
        db.insert("TOKEN", (1, 0, "a", "O"))
        copy = Database.from_snapshot(db.snapshot())
        assert copy.table("TOKEN").get((1,)) == (1, 0, "a", "O")


class TestDeltaCapture:
    def test_recorder_sees_updates(self):
        db = make_db()
        db.insert("TOKEN", (1, 0, "a", "O"))
        rec = db.attach_recorder()
        db.update("TOKEN", (1,), {"LABEL": "B-PER"})
        delta = rec.pop()
        assert delta.for_table("TOKEN").count((1, 0, "a", "O")) == -1
        assert delta.for_table("TOKEN").count((1, 0, "a", "B-PER")) == 1

    def test_intermediate_states_cancel(self):
        db = make_db()
        db.insert("TOKEN", (1, 0, "a", "O"))
        rec = db.attach_recorder()
        db.update("TOKEN", (1,), {"LABEL": "B-PER"})
        db.update("TOKEN", (1,), {"LABEL": "B-ORG"})
        delta = rec.pop()
        ms = delta.for_table("TOKEN")
        assert ms.count((1, 0, "a", "O")) == -1
        assert ms.count((1, 0, "a", "B-PER")) == 0
        assert ms.count((1, 0, "a", "B-ORG")) == 1
        assert delta.size() == 2

    def test_noop_update_records_nothing(self):
        db = make_db()
        db.insert("TOKEN", (1, 0, "a", "O"))
        rec = db.attach_recorder()
        db.update("TOKEN", (1,), {"LABEL": "O"})
        assert rec.pop().is_empty()

    def test_pop_resets(self):
        db = make_db()
        rec = db.attach_recorder()
        db.insert("TOKEN", (1, 0, "a", "O"))
        assert not rec.pop().is_empty()
        assert rec.pop().is_empty()

    def test_detach(self):
        db = make_db()
        rec = db.attach_recorder()
        db.detach_recorder(rec)
        db.insert("TOKEN", (1, 0, "a", "O"))
        assert rec.pop().is_empty()

    def test_removed_added_split(self):
        delta = Delta()
        delta.record_update("T", (1, "old"), (1, "new"))
        assert delta.removed("T").count((1, "old")) == 1
        assert delta.added("T").count((1, "new")) == 1

    def test_inverted_undoes(self):
        delta = Delta()
        delta.record_update("T", (1, "old"), (1, "new"))
        inv = delta.inverted()
        merged = delta.copy()
        merged.merge(inv)
        assert merged.is_empty()

    def test_apply_delta_roundtrip(self):
        db = make_db()
        db.insert("TOKEN", (1, 0, "a", "O"))
        rec = db.attach_recorder()
        db.update("TOKEN", (1,), {"LABEL": "B-PER"})
        delta = rec.pop()
        db.apply_delta(delta.inverted())
        assert db.table("TOKEN").get((1,)) == (1, 0, "a", "O")
