"""Per-rule fixtures: one true positive, one true negative, and one
suppressed case for each checker (the ISSUE 7 acceptance grid)."""

from analysis_support import lint, rule_ids


class TestRL001PickleSafety:
    def test_lambda_template_argument_flagged(self):
        report = lint(
            """
            def build(weights):
                return UnaryTemplate("f", weights, lambda v: {"on": 1.0})
            """,
            "repro/ie/ner/task.py",
            rules=["RL001"],
        )
        assert rule_ids(report) == ["RL001"]
        assert "lambda" in report.findings[0].message

    def test_local_function_template_argument_flagged(self):
        report = lint(
            """
            def build(weights):
                def neighbors(v):
                    return ()
                def features(a, b):
                    return {}
                return PairwiseTemplate("p", weights, neighbors, features)
            """,
            "repro/ie/ner/task.py",
            rules=["RL001"],
        )
        assert rule_ids(report) == ["RL001", "RL001"]
        assert "closure" in report.findings[0].message

    def test_contract_class_storing_lambda_flagged(self):
        report = lint(
            """
            class SeededChainFactory:
                def configure(self):
                    self.builder = lambda i: i
            """,
            "repro/ie/ner/pdb.py",
            rules=["RL001"],
        )
        assert rule_ids(report) == ["RL001"]

    def test_contract_class_capturing_module_mutable_flagged(self):
        report = lint(
            """
            REGISTRY = {}

            class SeededChainFactory:
                def configure(self):
                    self.registry = REGISTRY
            """,
            "repro/ie/ner/pdb.py",
            rules=["RL001"],
        )
        assert rule_ids(report) == ["RL001"]
        assert "pickles by value" in report.findings[0].message

    def test_module_level_function_is_clean(self):
        report = lint(
            """
            def features(v):
                return {}

            def build(weights):
                return UnaryTemplate("f", weights, features)
            """,
            "repro/ie/ner/task.py",
            rules=["RL001"],
        )
        assert report.clean

    def test_non_contract_class_is_clean(self):
        report = lint(
            """
            class Helper:
                def configure(self):
                    self.fn = lambda x: x
            """,
            "repro/ie/ner/task.py",
            rules=["RL001"],
        )
        assert report.clean

    def test_suppressed_with_justification(self):
        report = lint(
            """
            def build(weights):
                # repro-lint: disable=RL001 -- never pickled: test-only factory
                return UnaryTemplate("f", weights, lambda v: {})
            """,
            "repro/ie/ner/task.py",
            rules=["RL001"],
        )
        assert report.clean and report.suppressed == 1


class TestRL002CacheInvalidation:
    def test_mutation_without_invalidation_flagged(self):
        report = lint(
            """
            class FactorGraph:
                def add(self, v):
                    self.variables.append(v)
                    return v
            """,
            "repro/fg/graph.py",
            rules=["RL002"],
        )
        assert rule_ids(report) == ["RL002"]
        assert "self.variables" in report.findings[0].message

    def test_raise_after_earlier_iteration_mutation_flagged(self):
        # The add_variables half-mutation bug shape: iteration N
        # registers a name, iteration N+1 raises on a duplicate.
        report = lint(
            """
            class FactorGraph:
                def add_all(self, vs):
                    for v in vs:
                        if v.name in self._by_name:
                            raise ValueError(v.name)
                        self._by_name[v.name] = v
                    self.invalidate_adjacency(vs)
            """,
            "repro/fg/graph.py",
            rules=["RL002"],
        )
        assert rule_ids(report) == ["RL002"]
        assert "raises" in report.findings[0].message

    def test_invalidated_on_every_path_is_clean(self):
        report = lint(
            """
            class FactorGraph:
                def add(self, v):
                    self.variables.append(v)
                    self.invalidate_adjacency([v])
                    return v
            """,
            "repro/fg/graph.py",
            rules=["RL002"],
        )
        assert report.clean

    def test_finally_invalidator_covers_all_exits(self):
        report = lint(
            """
            class FactorGraph:
                def swap(self, vs):
                    try:
                        self.variables = vs
                        return True
                    finally:
                        self.invalidate_adjacency(vs)
            """,
            "repro/fg/graph.py",
            rules=["RL002"],
        )
        assert report.clean

    def test_version_bump_before_mutation_is_clean(self):
        # Weights.set bumps _version first; the check is
        # order-insensitive within a path.
        report = lint(
            """
            class Weights:
                def set(self, key, value):
                    self._version += 1
                    self._values[key] = value
            """,
            "repro/fg/weights.py",
            rules=["RL002"],
        )
        assert report.clean

    def test_branch_missing_invalidation_flagged(self):
        report = lint(
            """
            class Weights:
                def drop(self, key, really):
                    if really:
                        self._values.pop(key)
                    else:
                        self._version += 1
            """,
            "repro/fg/weights.py",
            rules=["RL002"],
        )
        assert rule_ids(report) == ["RL002"]

    def test_init_is_exempt(self):
        report = lint(
            """
            class FactorGraph:
                def __init__(self, vs):
                    self.variables = list(vs)
            """,
            "repro/fg/graph.py",
            rules=["RL002"],
        )
        assert report.clean

    def test_index_written_outside_pool_methods_flagged(self):
        report = lint(
            """
            class PairwiseTemplate(Template):
                def evict_pair(self, a, b):
                    self._partners.pop(a, None)

                def adopt(self, a, b):
                    self._partners[a] = (b,)
                    self._partners.setdefault(b, (a,))
            """,
            "repro/fg/templates.py",
            rules=["RL002"],
        )
        assert rule_ids(report) == ["RL002", "RL002"]
        assert all("self._partners" in f.message for f in report.findings)
        assert all("adopt" in f.symbol for f in report.findings)

    def test_suppressed_with_justification(self):
        report = lint(
            """
            class FactorGraph:
                def adopt(self, vs):
                    # repro-lint: disable=RL002 -- caller invalidates in bulk
                    self.variables = vs
            """,
            "repro/fg/graph.py",
            rules=["RL002"],
        )
        assert report.clean and report.suppressed == 1


class TestRL003RngDiscipline:
    def test_global_random_call_flagged(self):
        report = lint(
            """
            import random

            def shuffle_rows(rows):
                random.shuffle(rows)
            """,
            "repro/mcmc/chain.py",
            rules=["RL003"],
        )
        assert rule_ids(report) == ["RL003"]

    def test_unseeded_random_instance_flagged(self):
        report = lint(
            """
            from random import Random

            def make():
                return Random()
            """,
            "repro/mcmc/chain.py",
            rules=["RL003"],
        )
        assert rule_ids(report) == ["RL003"]
        assert "unseeded" in report.findings[0].message

    def test_time_based_seed_flagged(self):
        report = lint(
            """
            import random
            import time

            def make():
                return random.Random(time.time())
            """,
            "repro/mcmc/chain.py",
            rules=["RL003"],
        )
        assert rule_ids(report) == ["RL003"]
        assert "time-based seed" in report.findings[0].message

    def test_numpy_random_flagged(self):
        report = lint(
            """
            def draw(np):
                return np.random.uniform()
            """,
            "repro/mcmc/chain.py",
            rules=["RL003"],
        )
        assert rule_ids(report) == ["RL003"]

    def test_seeded_instance_is_clean(self):
        report = lint(
            """
            import random

            def make(seed):
                rng = random.Random(seed)
                return rng.random()
            """,
            "repro/mcmc/chain.py",
            rules=["RL003"],
        )
        assert report.clean

    def test_suppressed_with_justification(self):
        report = lint(
            """
            import random

            def jitter():
                return random.random()  # repro-lint: disable=RL003 -- fixture
            """,
            "repro/mcmc/chain.py",
            rules=["RL003"],
        )
        assert report.clean and report.suppressed == 1


class TestRL004AsyncDiscipline:
    def test_blocking_call_in_coroutine_flagged(self):
        report = lint(
            """
            import time

            class Server:
                async def handle(self):
                    time.sleep(0.1)
            """,
            "repro/serve/server.py",
            rules=["RL004"],
        )
        assert rule_ids(report) == ["RL004"]
        assert "time.sleep" in report.findings[0].message

    def test_engine_execute_in_coroutine_flagged(self):
        report = lint(
            """
            class Server:
                async def write(self, sql):
                    return self.engine.execute(sql)
            """,
            "repro/serve/server.py",
            rules=["RL004"],
        )
        assert rule_ids(report) == ["RL004"]

    def test_to_thread_wrapped_call_is_clean(self):
        report = lint(
            """
            import asyncio

            class Server:
                async def write(self, sql):
                    return await asyncio.to_thread(self.engine.execute, sql)
            """,
            "repro/serve/server.py",
            rules=["RL004"],
        )
        assert report.clean

    def test_sync_method_may_block(self):
        report = lint(
            """
            import time

            class Server:
                def warmup(self):
                    time.sleep(0.1)
            """,
            "repro/serve/server.py",
            rules=["RL004"],
        )
        assert report.clean

    def test_guarded_attribute_touched_off_lock_flagged(self):
        report = lint(
            """
            class Server:
                async def commit(self, snap):
                    async with self._engine_lock:
                        self._snapshot = snap

                async def peek(self):
                    return self._snapshot
            """,
            "repro/serve/server.py",
            rules=["RL004"],
        )
        assert rule_ids(report) == ["RL004"]
        assert "_snapshot" in report.findings[0].message

    def test_guarded_attribute_under_lock_is_clean(self):
        report = lint(
            """
            class Server:
                async def commit(self, snap):
                    async with self._engine_lock:
                        self._snapshot = snap

                async def peek(self):
                    async with self._engine_lock:
                        return self._snapshot
            """,
            "repro/serve/server.py",
            rules=["RL004"],
        )
        assert report.clean

    def test_module_level_coroutine_checked(self):
        report = lint(
            """
            import time

            async def tick():
                time.sleep(1.0)
            """,
            "repro/serve/util.py",
            rules=["RL004"],
        )
        assert rule_ids(report) == ["RL004"]

    def test_suppressed_with_justification(self):
        report = lint(
            """
            class Server:
                async def write(self, sql):
                    # repro-lint: disable=RL004 -- O(1) plan-cache hit
                    return self.engine.execute(sql)
            """,
            "repro/serve/server.py",
            rules=["RL004"],
        )
        assert report.clean and report.suppressed == 1


class TestRL005DmlRouting:
    def test_unrouted_execute_dml_flagged(self):
        report = lint(
            """
            class Session:
                def execute(self, stmt):
                    delta = execute_dml(self.database, stmt)
                    return delta
            """,
            "repro/api/session.py",
            rules=["RL005"],
        )
        assert rule_ids(report) == ["RL005"]
        assert "_after_dml" in report.findings[0].message

    def test_paired_with_after_dml_is_clean(self):
        report = lint(
            """
            class Session:
                def execute(self, stmt):
                    delta = execute_dml(self.database, stmt)
                    self._after_dml(delta)
                    return delta
            """,
            "repro/api/session.py",
            rules=["RL005"],
        )
        assert report.clean

    def test_direct_table_mutation_flagged(self):
        report = lint(
            """
            class Session:
                def sneak(self, row):
                    self.database.table("TOKEN").insert(row)
            """,
            "repro/api/session.py",
            rules=["RL005"],
        )
        assert rule_ids(report) == ["RL005"]
        assert "bypasses the DML executor" in report.findings[0].message

    def test_db_layer_is_exempt(self):
        report = lint(
            """
            def apply(database, stmt):
                return execute_dml(database, stmt)
            """,
            "repro/db/engine.py",
            rules=["RL005"],
        )
        assert report.clean

    def test_suppressed_with_justification(self):
        report = lint(
            """
            class Session:
                def replay(self, stmt):
                    # repro-lint: disable=RL005 -- restore path rebuilds runners
                    return execute_dml(self.database, stmt)
            """,
            "repro/api/session.py",
            rules=["RL005"],
        )
        assert report.clean and report.suppressed == 1


class TestRL007ResilienceDiscipline:
    def test_bare_except_flagged(self):
        report = lint(
            """
            def supervise(worker):
                try:
                    worker.join()
                except:
                    worker.restart()
            """,
            "repro/resilience/retry.py",
            rules=["RL007"],
        )
        assert rule_ids(report) == ["RL007"]
        assert "bare except" in report.findings[0].message

    def test_swallowed_broad_exception_flagged(self):
        report = lint(
            """
            def pump(conn):
                try:
                    conn.recv()
                except Exception:
                    pass
            """,
            "repro/core/backends.py",
            rules=["RL007"],
        )
        assert rule_ids(report) == ["RL007"]
        assert "swallows" in report.findings[0].message

    def test_swallowed_base_exception_in_loop_flagged(self):
        report = lint(
            """
            def drain(conns):
                for conn in conns:
                    try:
                        conn.recv()
                    except BaseException:
                        continue
            """,
            "repro/serve/pool.py",
            rules=["RL007"],
        )
        assert rule_ids(report) == ["RL007"]

    def test_reraising_broad_handler_is_clean(self):
        report = lint(
            """
            def run(worker, breaker):
                try:
                    return worker.run()
                except Exception:
                    breaker.record_failure()
                    raise
            """,
            "repro/serve/server.py",
            rules=["RL007"],
        )
        assert report.clean

    def test_typed_noop_handler_is_clean(self):
        report = lint(
            """
            def forget(sessions, handle):
                try:
                    sessions.remove(handle)
                except ValueError:
                    pass
            """,
            "repro/serve/server.py",
            rules=["RL007"],
        )
        assert report.clean

    def test_out_of_scope_module_is_exempt(self):
        report = lint(
            """
            def parse(text):
                try:
                    return int(text)
                except:
                    return None
            """,
            "repro/db/sql/parser.py",
            rules=["RL007"],
        )
        assert report.clean

    def test_suppressed_with_justification(self):
        report = lint(
            """
            def best_effort(conn):
                try:
                    conn.close()
                # repro-lint: disable=RL007 -- close on a dead pipe may fail
                except Exception:
                    pass
            """,
            "repro/resilience/checkpoint.py",
            rules=["RL007"],
        )
        assert report.clean and report.suppressed == 1
