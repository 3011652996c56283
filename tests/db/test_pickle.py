"""Pickle round-trips for database snapshots (ISSUE 2 satellite).

The multiprocess chain backend ships each worker a pickled
``(Database, MarkovChain)`` pair, so these invariants are load-bearing:
rows, schemas and keyed lookups survive, mutation listeners keep firing (the
delta recorders of Algorithm 1 observe the unpickled world), and object
identity between a chain's field variables and its database is
preserved through one combined pickle.
"""

import pickle

import pytest

from repro.db import AttrType, Database, Schema, query
from repro.db.database import Snapshot
from repro.fg.variables import FieldVariable


def build_db():
    db = Database("pickle-test")
    db.create_table(
        Schema.build(
            "CITY",
            [("NAME", AttrType.STRING), ("POP", AttrType.INT)],
            key=["NAME"],
        )
    )
    db.insert("CITY", ("Boston", 600))
    db.insert("CITY", ("Amherst", 40))
    # A keyless bag table exercises the Multiset storage path.
    db.create_table(Schema.build("LOG", [("EVENT", AttrType.STRING)]))
    db.insert("LOG", ("created",))
    db.insert("LOG", ("created",))
    return db


class TestDatabasePickle:
    def test_rows_and_schema_survive(self):
        db = pickle.loads(pickle.dumps(build_db()))
        assert sorted(db.table_names()) == ["CITY", "LOG"]
        assert sorted(db.table("CITY").rows()) == [
            ("Amherst", 40), ("Boston", 600),
        ]
        assert sorted(db.table("LOG").rows()) == [("created",), ("created",)]
        assert db.table("CITY").schema.key == ("name",) or db.table(
            "CITY"
        ).schema.key

    def test_keyed_rows_survive_and_serve_key_reads(self):
        db = pickle.loads(pickle.dumps(build_db()))
        assert db.table("CITY").find(("Boston",)) == ("Boston", 600)
        assert sorted(query(db, "SELECT POP FROM CITY WHERE NAME = 'Boston'")) == [
            (600,)
        ]

    def test_mutation_listener_still_wired(self):
        """The table→database listener (and hence delta recording) must
        survive: a recorder attached *after* unpickling sees changes."""
        db = pickle.loads(pickle.dumps(build_db()))
        recorder = db.attach_recorder()
        db.insert("CITY", ("Springfield", 150))
        db.update("CITY", ("Boston",), {"POP": 700})
        delta = recorder.pop()
        assert not delta.is_empty()
        counts = delta.for_table("CITY")
        assert counts.count(("Springfield", 150)) == 1
        assert counts.count(("Boston", 700)) == 1
        assert counts.count(("Boston", 600)) == -1

    def test_attached_recorders_survive(self):
        db = build_db()
        recorder = db.attach_recorder()
        db2 = pickle.loads(pickle.dumps(db))
        db2.insert("CITY", ("Hadley", 5))
        # The unpickled database has its own copy of the recorder.
        recorder2 = db2._recorders[0]
        assert recorder2 is not recorder
        assert recorder2.pop().for_table("CITY").count(("Hadley", 5)) == 1

    def test_snapshot_pickles(self):
        snap = build_db().snapshot()
        restored: Snapshot = pickle.loads(pickle.dumps(snap))
        assert sorted(restored.table_names()) == ["city", "log"]
        assert sorted(restored.rows("CITY")) == [
            ("Amherst", 40), ("Boston", 600),
        ]
        rebuilt = Database.from_snapshot(restored)
        assert sorted(rebuilt.table("CITY").rows()) == [
            ("Amherst", 40), ("Boston", 600),
        ]


class TestSharedIdentity:
    def test_field_variable_db_identity_preserved(self):
        """Pickling (db, variable) together must keep one shared
        database object, so flush() writes to the world the evaluator
        reads."""
        from repro.fg.domain import Domain

        db = build_db()
        domain = Domain("size", [40, 600, 9999])
        variable = FieldVariable(db, "CITY", ("Amherst",), "POP", domain)
        db2, variable2 = pickle.loads(pickle.dumps((db, variable)))
        assert variable2.db is db2
        variable2.set_value(9999)
        variable2.flush()
        assert db2.table("CITY").get(("Amherst",)) == ("Amherst", 9999)
        # The original is untouched (true copy, not shared state).
        assert db.table("CITY").get(("Amherst",)) == ("Amherst", 40)


class TestCorefChainPickle:
    def test_warm_chain_resumes_bit_identically_without_pair_table(self):
        """A coref chain pickled mid-walk carries no pair-score table
        (it is derived state) and continues exactly as the original."""
        from repro.ie.coref import (
            CorefModel,
            MoveMentionProposer,
            build_mention_database,
            generate_mentions,
        )
        from repro.mcmc import MetropolisHastings
        from repro.mcmc.chain import MarkovChain

        db = build_mention_database(
            generate_mentions(6, mentions_per_entity=3, seed=4)
        )
        model = CorefModel(db)
        kernel = MetropolisHastings(
            model.graph, MoveMentionProposer(model.variables), seed=3
        )
        chain = MarkovChain(kernel, 10)
        kernel.run(2000)
        assert model.graph._pair_scores
        db2, chain2 = pickle.loads(pickle.dumps((db, chain)))
        assert chain2.kernel.graph._pair_scores == {}

        def walk(chain):
            steps = [chain.kernel.step() for _ in range(2000)]
            return (
                [(s.accepted, s.log_acceptance) for s in steps],
                [v.value for v in chain.kernel.graph.variables],
            )

        assert walk(chain2) == walk(chain)
        assert sorted(db2.table("MENTION").rows()) == sorted(
            db.table("MENTION").rows()
        )
