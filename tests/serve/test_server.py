"""ReproServer end-to-end: multiplexing, snapshot isolation, staleness.

The load test drives ≥100 concurrent :class:`ServerSession`\\ s with
interleaved query/DML traffic and asserts the serving contract:

* **zero stale reads** — every result's ``db_version`` is at least the
  committed version observed when the request was issued, and every
  deterministic read returns exactly the rows committed at its
  ``db_version`` (verified post-hoc against the full commit log);
* **clean drain** — shutdown waits for all in-flight statements, then
  refuses new ones with a typed overload error.
"""

import asyncio
import time

import pytest

from repro.errors import EvaluationError, ServeOverloadError
from repro.serve import ReproServer

from serve_support import QUERY, make_engine

INSERT_TOKEN = (
    "INSERT INTO TOKEN VALUES ({pk}, 0, 'Zanzibar{pk}', 'B-PER', 'B-PER')"
)


def make_server(**kwargs):
    task, session = make_engine(
        num_tokens=kwargs.pop("num_tokens", 60),
        steps_per_sample=kwargs.pop("steps_per_sample", 5),
    )
    kwargs.setdefault("workers", 2)
    return ReproServer(session, **kwargs)


class TestStartup:
    def test_start_snapshots_off_the_event_loop(self):
        """Regression (found by repro-lint RL004): ``start()`` used to
        call ``database.snapshot()`` directly on the loop thread — with
        a large database that freezes every tenant for the whole copy.
        A heartbeat task must keep ticking through a slow snapshot."""

        async def main():
            task, session = make_engine(num_tokens=30)
            server = ReproServer(session, workers=1)
            real_snapshot = session.database.snapshot

            def slow_snapshot():
                time.sleep(0.12)
                return real_snapshot()

            session.database.snapshot = slow_snapshot
            ticks = 0

            async def heartbeat():
                nonlocal ticks
                while True:
                    await asyncio.sleep(0.01)
                    ticks += 1

            beat = asyncio.create_task(heartbeat())
            await server.start()
            beat.cancel()
            assert ticks >= 4  # loop stayed live during the snapshot
            await server.drain()

        asyncio.run(main())


class TestBasicServing:
    def test_round_trip_all_statement_kinds(self):
        async def main():
            async with make_server() as server:
                s = server.session("alice")
                ddl = await s.execute("CREATE TABLE AUDIT (ID INT PRIMARY KEY)")
                assert ddl.kind == "ddl" and ddl.db_version == 1
                dml = await s.execute("INSERT INTO AUDIT VALUES (1)")
                assert dml.kind == "dml" and dml.rowcount == 1
                assert dml.db_version == 2
                read = await s.execute("SELECT ID FROM AUDIT")
                assert read.kind == "query" and read.rows == ((1,),)
                assert read.db_version == 2
                prob = await s.execute(QUERY, samples=3)
                assert prob.kind == "probabilistic" and not prob.cached
                assert prob.samples >= 3
                assert prob.columns[-1] == "probability"

        asyncio.run(main())

    def test_marginals_shared_across_tenants(self):
        async def main():
            async with make_server() as server:
                a, b = server.session("alice"), server.session("bob")
                first = await a.execute(QUERY, samples=4)
                second = await b.execute(QUERY, samples=4)
                assert not first.cached and second.cached
                assert second.rows == first.rows
                assert server.cache.info().hits == 1

        asyncio.run(main())

    def test_marginal_cache_keeps_literals_apart(self):
        # Both statements share one cached plan; their marginals do not.
        org = QUERY.replace("B-PER", "B-ORG")

        async def main():
            async with make_server() as server:
                s = server.session()
                per = await s.execute(QUERY, samples=4)
                first = await s.execute(org, samples=4)
                again = await s.execute(org, samples=4)
                assert not per.cached and not first.cached
                assert again.cached and again.rows == first.rows
                assert server.cache.info().hits == 1
                assert server.engine.cache_info().misses == 1

        asyncio.run(main())

    def test_dml_invalidates_shared_cache(self):
        async def main():
            async with make_server() as server:
                s = server.session()
                first = await s.execute(QUERY, samples=3)
                write = await s.execute(INSERT_TOKEN.format(pk=999999))
                after = await s.execute(QUERY, samples=3)
                assert not after.cached  # version moved; old entry unreachable
                assert after.db_version == write.db_version > first.db_version
                assert server.cache.info().invalidations >= 1

        asyncio.run(main())

    def test_deeper_cached_answer_serves_shallower_request(self):
        async def main():
            async with make_server() as server:
                s = server.session()
                deep = await s.execute(QUERY, samples=10)
                shallow = await s.execute(QUERY, samples=2)
                assert shallow.cached and shallow.samples == deep.samples

        asyncio.run(main())

    def test_needs_chain_factory(self):
        import repro

        session = repro.connect()
        with pytest.raises(EvaluationError, match="chain factory"):
            ReproServer(session)
        session.close()


class TestConcurrentLoad:
    def test_hundred_sessions_mixed_traffic_zero_stale_reads(self):
        """ISSUE 6 acceptance: ≥100 concurrent sessions, interleaved
        query/DML, every read consistent with the latest committed
        version it could have observed."""

        NUM_SESSIONS = 110
        audit_versions: list[int] = []  # version at which each AUDIT row landed
        det_reads: list[tuple[int, int]] = []  # (db_version, audit rows seen)

        async def main():
            server = make_server(
                workers=4, max_pending=4096, queue_timeout=60.0, cache_size=64
            )
            async with server:
                await server.session("init").execute(
                    "CREATE TABLE AUDIT (ID INT PRIMARY KEY)"
                )

                async def client(i):
                    s = server.session(f"tenant-{i}")
                    role = i % 4
                    for step in range(2):
                        floor = server.version
                        if role == 0:  # audit writer
                            res = await s.execute(
                                f"INSERT INTO AUDIT VALUES ({i * 10 + step})"
                            )
                            audit_versions.append(res.db_version)
                        elif role == 1:  # model writer (live-repair path)
                            res = await s.execute(
                                INSERT_TOKEN.format(pk=1_000_000 + i * 10 + step)
                            )
                        elif role == 2:  # deterministic reader
                            res = await s.execute("SELECT ID FROM AUDIT")
                            det_reads.append((res.db_version, len(res.rows)))
                        else:  # probabilistic reader
                            res = await s.execute(QUERY, samples=3)
                            assert res.samples >= 3
                        # freshness floor: no result may predate what the
                        # client had already observed committed
                        assert res.db_version >= floor, (
                            f"stale read: observed v{floor}, got v{res.db_version}"
                        )
                    s.close()

                await asyncio.gather(*[client(i) for i in range(NUM_SESSIONS)])
                stats = server.stats()
                # all traffic served, nothing shed, nothing left in flight
                assert stats["in_flight"] == 0
                assert stats["admission"]["shed_queue_full"] == 0
                assert stats["admission"]["shed_timeout"] == 0
                assert stats["served"]["probabilistic"] >= NUM_SESSIONS // 4
                # quiescent phase: with no commits racing, the second
                # read of the same plan must be served from the shared
                # cache at the same version.  A concurrent reader may
                # already have cached QUERY at the last version, so one
                # fence write first moves the version past every
                # cached entry.
                fence = await server.session("fence").execute(
                    "INSERT INTO AUDIT VALUES (999999)"
                )
                audit_versions.append(fence.db_version)
                warm = await server.session("warm-a").execute(QUERY, samples=3)
                hit = await server.session("warm-b").execute(QUERY, samples=3)
                assert not warm.cached and hit.cached
                assert hit.db_version == warm.db_version
            # post-hoc exactness: a read at version v sees exactly the
            # audit rows committed at versions <= v
            for version, rows_seen in det_reads:
                expected = sum(1 for v in audit_versions if v <= version)
                assert rows_seen == expected, (
                    f"read at v{version} saw {rows_seen} audit rows, "
                    f"expected {expected}"
                )

        asyncio.run(main())


class TestDrain:
    def test_drain_waits_for_in_flight_then_refuses(self):
        async def main():
            server = make_server()
            await server.start()
            s = server.session()
            running = [await s.execute(QUERY, samples=3)]

            async def late_traffic():
                return await s.execute(QUERY, samples=5)

            task = asyncio.create_task(late_traffic())
            await asyncio.sleep(0)  # let it get admitted
            await server.drain()
            # the in-flight statement completed cleanly
            assert (await task).samples >= 5
            assert server.stats()["in_flight"] == 0
            # new statements are refused with a typed shed
            with pytest.raises(ServeOverloadError) as err:
                await s.execute(QUERY, samples=1)
            assert err.value.reason == "shutdown"
            assert server.stats()["shed_shutdown"] == 1
            # the pool is gone
            with pytest.raises(EvaluationError, match="closed"):
                await server.pool.acquire()

        asyncio.run(main())

    def test_closed_session_refuses(self):
        async def main():
            async with make_server() as server:
                s = server.session()
                s.close()
                with pytest.raises(EvaluationError, match="closed"):
                    await s.execute("SELECT STRING FROM TOKEN")
                assert server.stats()["sessions"] == 0

        asyncio.run(main())


class TestObservability:
    def test_server_and_session_stats_shape(self):
        async def main():
            async with make_server() as server:
                s = server.session("alice")
                await s.execute(QUERY, samples=2)
                await s.execute(QUERY, samples=2)
                await s.execute("SELECT STRING FROM TOKEN")
                stats = server.stats()
                for key in (
                    "engine",
                    "marginal_cache",
                    "pool",
                    "admission",
                    "served",
                    "commits",
                ):
                    assert key in stats
                assert stats["engine"]["db_version"] == 0
                assert stats["served"]["probabilistic"] == 2
                assert stats["marginal_cache"]["hits"] == 1
                mine = s.stats()
                assert mine["tenant"] == "alice"
                assert mine["session"]["probabilistic"] == 2
                assert mine["session"]["cache_hits"] == 1
                assert mine["session"]["queries"] == 1

        asyncio.run(main())
