"""Session routing, plan caching, and probabilistic cursors."""

import pytest

import repro
from repro.api import AnytimeCursor, PlanCache, connect, normalize_sql
from repro.core.materialized import MaterializedEvaluator
from repro.core.naive import NaiveEvaluator
from repro.errors import EvaluationError, QueryError
from repro.ie.ner.pdb import NerPipeline, NerTask


def make_deterministic_session():
    session = connect(name="det")
    session.execute_script(
        "CREATE TABLE CITY (NAME TEXT PRIMARY KEY, STATE TEXT, POP INT); "
        "INSERT INTO CITY VALUES ('Boston', 'MA', 675), "
        "('Hartford', 'CT', 121), ('Providence', 'RI', 190)"
    )
    return session


class TestNormalization:
    def test_whitespace_case_and_semicolon_fold(self):
        variants = [
            "SELECT NAME FROM CITY WHERE POP > 100",
            "select name from city where pop > 100;",
            "  SELECT  Name\nFROM City\tWHERE pop > 100 ; ",
        ]
        keys = {normalize_sql(sql) for sql in variants}
        assert len(keys) == 1

    def test_string_literals_keep_case(self):
        a = normalize_sql("SELECT NAME FROM CITY WHERE STATE = 'MA'")
        b = normalize_sql("SELECT NAME FROM CITY WHERE STATE = 'ma'")
        assert a != b


class TestPlanCacheUnit:
    def test_lru_eviction(self):
        cache = PlanCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a
        cache.put("c", 3)  # evicts b
        assert "b" not in cache
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_counters(self):
        cache = PlanCache(maxsize=4)
        cache.get("missing")
        cache.put("x", 1)
        cache.get("x")
        info = cache.info()
        assert (info.hits, info.misses, info.size) == (1, 1, 1)


class TestRouting:
    def test_classify(self):
        session = make_deterministic_session()
        assert session.classify("SELECT 1 FROM CITY") == "query"
        assert session.classify("CREATE TABLE X (A INT)") == "ddl"
        assert session.classify("DROP TABLE X") == "ddl"
        assert session.classify("INSERT INTO X VALUES (1)") == "dml"
        assert session.classify("UPDATE X SET A = 1") == "dml"
        assert session.classify("DELETE FROM X") == "dml"

    def test_repeat_select_hits_cache(self):
        session = make_deterministic_session()
        sql = "SELECT NAME FROM CITY WHERE POP > 150 ORDER BY NAME"
        session.execute(sql)
        before = session.cache_info()
        session.execute(sql)
        session.execute(sql.lower())
        after = session.cache_info()
        assert after.hits == before.hits + 2
        assert after.misses == before.misses

    def test_repeat_dml_hits_cache(self):
        session = make_deterministic_session()
        sql = "UPDATE CITY SET POP = POP + 1 WHERE STATE = 'MA'"
        session.execute(sql)
        before = session.cache_info()
        session.execute(sql)
        assert session.cache_info().hits == before.hits + 1

    def test_ddl_clears_plan_cache(self):
        session = make_deterministic_session()
        sql = "SELECT NAME FROM CITY"
        session.execute(sql)
        assert session.cache_info().size > 0
        session.execute("CREATE TABLE OTHER (A INT)")
        assert session.cache_info().size == 0
        # Recompiles cleanly afterwards.
        assert len(session.execute(sql).fetchall()) == 3

    def test_deterministic_cursor_dbapi_surface(self):
        session = make_deterministic_session()
        cursor = session.execute("SELECT NAME, POP FROM CITY ORDER BY POP DESC")
        assert cursor.statement_kind == "query"
        assert cursor.column_names == ("NAME", "POP")
        assert cursor.rowcount == 3
        assert cursor.fetchone() == ("Boston", 675)
        assert cursor.fetchmany(1) == [("Providence", 190)]
        assert cursor.fetchall() == [("Hartford", 121)]
        assert cursor.fetchone() is None

    def test_cursor_iteration(self):
        session = make_deterministic_session()
        cursor = session.execute("SELECT NAME FROM CITY ORDER BY NAME")
        assert [row for row in cursor] == [
            ("Boston",),
            ("Hartford",),
            ("Providence",),
        ]

    def test_closed_session_refuses_statements(self):
        session = make_deterministic_session()
        session.close()
        with pytest.raises(EvaluationError):
            session.execute("SELECT NAME FROM CITY")

    def test_context_manager_closes(self):
        with make_deterministic_session() as session:
            session.execute("SELECT NAME FROM CITY")
        with pytest.raises(EvaluationError):
            session.execute("SELECT NAME FROM CITY")

    def test_top_level_exports(self):
        assert repro.connect is connect
        for name in ("Session", "Database", "Schema", "AttrType", "__version__"):
            assert hasattr(repro, name)


class TestProbabilistic:
    QUERY = "SELECT STRING FROM TOKEN WHERE LABEL='B-PER'"

    def make_pipeline(self):
        return NerPipeline.build(300, seed=1, steps_per_sample=100)

    def test_requires_attached_model(self):
        session = make_deterministic_session()
        with pytest.raises(EvaluationError):
            session.execute("SELECT NAME FROM CITY", samples=5)

    def test_probabilistic_cursor(self):
        pipeline = self.make_pipeline()
        cursor = pipeline.session.execute(self.QUERY, samples=8)
        assert isinstance(cursor, AnytimeCursor)
        assert cursor.statement_kind == "probabilistic"
        assert cursor.num_samples == 9  # initial world + 8 thinned samples
        assert cursor.column_names == ("STRING", "probability")
        for *row, probability in cursor:
            assert 0.0 < probability <= 1.0

    def test_refine_accumulates(self):
        pipeline = self.make_pipeline()
        cursor = pipeline.session.execute(self.QUERY, samples=5)
        cursor.refine(7)
        assert cursor.num_samples == 13

    def test_repeat_execute_continues_chain(self):
        pipeline = self.make_pipeline()
        first = pipeline.session.execute(self.QUERY, samples=5)
        second = pipeline.session.execute(self.QUERY, samples=5)
        # Same evaluator: marginals accumulate, initial world counted once.
        assert second.num_samples == 11
        assert second.marginals() is first.marginals()

    def test_evaluator_kinds(self):
        pipeline = self.make_pipeline()
        materialized = pipeline.session.prepare(self.QUERY).evaluator
        naive = pipeline.session.prepare(self.QUERY, evaluator="naive").evaluator
        assert isinstance(materialized, MaterializedEvaluator)
        assert isinstance(naive, NaiveEvaluator)
        with pytest.raises(EvaluationError):
            pipeline.session.prepare(self.QUERY, evaluator="nope")

    def test_naive_equals_materialized_same_seed(self):
        task = NerTask(200, corpus_seed=4, steps_per_sample=100)

        def run(kind):
            instance = task.make_instance(9)
            session = connect(instance.db).attach_model(instance)
            return session.execute(self.QUERY, samples=8, evaluator=kind)

        a = run("naive").marginals().probabilities()
        b = run("materialized").marginals().probabilities()
        assert a == b

    def test_parallel_requires_factory(self):
        task = NerTask(200, corpus_seed=2, steps_per_sample=100)
        instance = task.make_instance(3)
        session = connect(instance.db).attach_model(instance)
        with pytest.raises(EvaluationError):
            session.execute(self.QUERY, samples=3, evaluator="parallel", chains=2)

    def test_parallel_pools_chains(self):
        pipeline = self.make_pipeline()
        cursor = pipeline.session.execute(
            self.QUERY, samples=4, evaluator="parallel", chains=3
        )
        assert cursor.num_samples == 3 * 5

    def test_chains_kwarg_implies_parallel(self):
        """chains=K routes to pooled parallel chains without having to
        name evaluator="parallel"."""
        pipeline = self.make_pipeline()
        cursor = pipeline.session.execute(self.QUERY, samples=4, chains=3)
        assert cursor.num_samples == 3 * 5

    def test_unknown_backend_rejected(self):
        pipeline = self.make_pipeline()
        with pytest.raises(EvaluationError, match="unknown backend"):
            pipeline.session.execute(
                self.QUERY, samples=3, chains=2, backend="threads"
            )

    def test_process_backend_reachable_from_connect(self):
        """ISSUE 2 acceptance: chains=K, backend="process" through the
        SQL session, with anytime refinement fanning out."""
        task = NerTask(150, corpus_seed=5, steps_per_sample=20)
        instance = task.make_instance(2)
        with connect(instance.db).attach_model(
            instance, chain_factory=task.chain_factory(31)
        ) as session:
            cursor = session.execute(
                self.QUERY, samples=3, chains=2, backend="process"
            )
            assert cursor.num_samples == 2 * 4
            cursor.refine(3)
            assert cursor.num_samples == 2 * 7
            assert cursor.wall_elapsed > 0
            assert cursor.cpu_elapsed > 0

    def test_sequential_and_process_backends_agree(self):
        """Fixed seeds, chains=1: identical pooled marginals whichever
        backend executes the chain."""
        task = NerTask(150, corpus_seed=5, steps_per_sample=20)

        def run(backend):
            instance = task.make_instance(2)
            with connect(instance.db).attach_model(
                instance, chain_factory=task.chain_factory(17)
            ) as session:
                cursor = session.execute(
                    self.QUERY, samples=6, chains=1, backend=backend
                )
                return cursor.marginals().probabilities()

        assert run("sequential") == run("process")

    def test_process_runner_workers_closed_on_session_close(self):
        task = NerTask(150, corpus_seed=5, steps_per_sample=20)
        instance = task.make_instance(2)
        session = connect(instance.db).attach_model(
            instance, chain_factory=task.chain_factory(8)
        )
        session.execute(self.QUERY, samples=2, chains=2, backend="process")
        runner = next(
            r for k, r in session._runners.items() if k[1] == "parallel"
        )
        workers = list(runner.backend._workers)
        assert workers and all(w.process.is_alive() for w in workers)
        session.close()
        assert all(not w.process.is_alive() for w in workers)

    def test_distinct_evaluator_kinds_get_distinct_parallel_runners(self):
        pipeline = self.make_pipeline()
        session = pipeline.session
        session.execute(self.QUERY, samples=2, chains=2)
        session.execute(self.QUERY, samples=2, chains=2, evaluator="naive")
        parallel_keys = [k for k in session._runners if k[1] == "parallel"]
        assert len(parallel_keys) == 2

    def test_dead_process_runner_evicted_and_rebuilt(self):
        """A worker crash must not permanently wedge the cached runner:
        the next execute() of the same SQL rebuilds fresh chains."""
        task = NerTask(150, corpus_seed=5, steps_per_sample=20)
        instance = task.make_instance(2)
        session = connect(instance.db).attach_model(
            instance, chain_factory=task.chain_factory(8)
        )
        session.execute(self.QUERY, samples=2, chains=2, backend="process")
        runner = next(
            r for k, r in session._runners.items() if k[1] == "parallel"
        )
        for worker in runner.backend._workers:
            worker.process.terminate()
            worker.process.join(timeout=5)
        with pytest.raises(EvaluationError):
            session.execute(self.QUERY, samples=2, chains=2, backend="process")
        # Evicted: the retry builds a fresh runner and succeeds.
        cursor = session.execute(
            self.QUERY, samples=2, chains=2, backend="process"
        )
        assert cursor.num_samples == 2 * 3
        session.close()

    def test_first_probabilistic_execute_is_not_a_cache_hit(self):
        pipeline = self.make_pipeline()
        before = pipeline.session.cache_info()
        pipeline.session.execute(self.QUERY, samples=3)
        after = pipeline.session.cache_info()
        assert after.hits == before.hits
        assert after.misses == before.misses + 1

    def test_dropped_runners_detach_their_recorders(self):
        pipeline = self.make_pipeline()
        db = pipeline.session.database
        baseline = len(db._recorders)
        pipeline.session.execute(self.QUERY, samples=3)
        assert len(db._recorders) == baseline + 1
        pipeline.session.execute("CREATE TABLE SCRATCH (A INT)")  # drops runners
        assert len(db._recorders) == baseline
        pipeline.session.execute(self.QUERY, samples=3)
        assert len(db._recorders) == baseline + 1

    def test_probabilistic_rejects_dml(self):
        pipeline = self.make_pipeline()
        with pytest.raises(QueryError):
            pipeline.session.prepare("DELETE FROM TOKEN")

    def test_dml_updates_probabilistic_world(self):
        # The session's DML mutates the same world the chain samples —
        # an attached materialized evaluator sees the change.
        pipeline = self.make_pipeline()
        count_sql = "SELECT COUNT(*) FROM TOKEN"
        before = pipeline.session.execute(count_sql).fetchone()[0]
        pipeline.session.execute(
            "INSERT INTO TOKEN VALUES (999999, 0, 'Zanzibar', 'O', 'O')"
        )
        after = pipeline.session.execute(count_sql).fetchone()[0]
        assert after == before + 1


class TestOneShapeManyLiterals:
    """Statements that differ only in a literal share one cached plan,
    but each keeps its own identity: its runner, its marginals, its
    targeted chain's seed."""

    PER = "SELECT STRING FROM TOKEN WHERE LABEL='B-PER'"
    ORG = "SELECT STRING FROM TOKEN WHERE LABEL='B-ORG'"

    def make_pipeline(self):
        return NerPipeline.build(300, seed=1, steps_per_sample=100)

    def test_runners_and_marginals_stay_apart(self):
        session = self.make_pipeline().session
        per = session.execute(self.PER, samples=5)
        misses = session.cache_info().misses
        org = session.execute(self.ORG, samples=5)
        assert session.cache_info().misses == misses  # one plan for both
        assert session.prepare(self.PER) is not session.prepare(self.ORG)
        assert per.marginals() is not org.marginals()
        assert per.num_samples == org.num_samples == 6

        # The bound plan samples exactly what the ORG statement planned
        # from its own text does.
        reference = self.make_pipeline().session
        reference.execute(self.PER, samples=5)
        reference._plans.clear()
        expected = reference.execute(self.ORG, samples=5)
        assert reference.cache_info().misses == misses + 1
        assert list(org) == list(expected)

    def test_targeted_chain_keeps_its_text_seed(self):
        from repro.db.shard import stable_hash
        from repro.rng import make_rng

        session = self.make_pipeline().session
        texts = [f"SELECT STRING, LABEL FROM TOKEN WHERE DOC_ID = {d}" for d in (0, 1)]
        runners = [session.prepare(sql) for sql in texts]
        assert session.cache_info().hits >= 1  # the second text was bound
        for sql, runner in zip(texts, runners):
            assert runner.targeted
            seed = stable_hash(("targeted", normalize_sql(sql)))
            kernel = runner.evaluator.chain.kernel
            assert kernel.rng.getstate() == make_rng(seed).getstate()
        # Each restriction was proved from its own literal.
        first, second = (
            set(runner.evaluator.chain.kernel.proposer.targeted.variables)
            for runner in runners
        )
        assert first and second and first.isdisjoint(second)

