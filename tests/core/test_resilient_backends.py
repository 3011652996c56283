"""Fault-tolerant chain execution: checkpoint/resume, supervision, chaos.

The acceptance bar for the resilience tentpole:

1. a worker killed mid-refinement is resurrected from its latest
   checkpoint and the pooled marginals are **bit-identical** to an
   uninterrupted run — same floats, same cumulative sample counts
   (nothing lost, nothing double-counted);
2. every failure mode is *typed*: wedged workers raise
   :class:`WorkerTimeoutError`, dead workers :class:`WorkerCrashError`
   (with exit code), remote application errors chain the worker-side
   traceback, exhausted retry budgets :class:`RetryExhaustedError`;
3. chaos plans are deterministic data — the same seeded plan kills the
   same worker at the same sample, so every scenario here replays.
"""

import os
import signal

import pytest

from test_backends import QUERY, SeededFactory

from repro.core import ProcessPoolBackend, SequentialBackend
from repro.errors import (
    EvaluationError,
    RemoteTraceback,
    RetryExhaustedError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.resilience import (
    DiskCheckpointStore,
    Fault,
    FaultPlan,
    MemoryCheckpointStore,
    ResilienceConfig,
    RetryPolicy,
)

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.01, jitter=0)


def resil(plan=None, **kwargs):
    kwargs.setdefault("store", MemoryCheckpointStore())
    kwargs.setdefault("checkpoint_every", 3)
    kwargs.setdefault("retry", FAST_RETRY)
    return ResilienceConfig(fault_plan=plan, **kwargs)


def run_two_phase(backend):
    """The canonical anytime workload: run(6) then run(10) more."""
    backend.start(SeededFactory(21), 2, [QUERY])
    backend.run(6)
    return backend.run(10, include_initial=False)


@pytest.fixture(scope="module")
def expected():
    """Uninterrupted reference: pooled marginals + cumulative samples."""
    with SequentialBackend() as backend:
        result = run_two_phase(backend)
    return result.marginals.probabilities(), result.marginals.num_samples


# ----------------------------------------------------------------------
# Checkpoint-resume bit identity
# ----------------------------------------------------------------------
class TestKillRecovery:
    def test_sigkill_mid_refinement_is_bit_identical(self, expected):
        # Worker 1 dies at its 10th recorded sample — mid second run,
        # past several checkpoints.  The resurrected incarnation must
        # continue the *same* sample stream: identical floats, identical
        # cumulative counts (a lost or replayed sample would show up in
        # num_samples as under- or double-counting).
        config = resil(FaultPlan({1: [Fault("kill", at=9)]}))
        with ProcessPoolBackend(resilience=config) as backend:
            result = run_two_phase(backend)
            stats = backend.stats()
        assert result.marginals.probabilities() == expected[0]
        assert result.marginals.num_samples == expected[1]
        assert stats["respawns"] == 1
        assert stats["checkpoints_stored"] > 0

    def test_sigkill_at_first_sample_of_second_run(self, expected):
        config = resil(FaultPlan({0: [Fault("kill", at=7)]}))
        with ProcessPoolBackend(resilience=config) as backend:
            result = run_two_phase(backend)
        assert result.marginals.probabilities() == expected[0]
        assert result.marginals.num_samples == expected[1]

    def test_both_workers_killed(self, expected):
        plan = FaultPlan(
            {0: [Fault("kill", at=4)], 1: [Fault("kill", at=11)]}
        )
        config = resil(plan)
        with ProcessPoolBackend(resilience=config) as backend:
            result = run_two_phase(backend)
            assert backend.stats()["respawns"] == 2
        assert result.marginals.probabilities() == expected[0]
        assert result.marginals.num_samples == expected[1]

    def test_checkpoints_land_in_the_store(self):
        config = resil()
        with ProcessPoolBackend(resilience=config) as backend:
            backend.start(SeededFactory(21), 2, [QUERY])
            backend.run(6)
        store = config.store
        assert store.keys() == ["chain:0", "chain:1"]
        latest = store.latest("chain:0")
        assert latest.seq >= 1
        assert latest.payload  # serialized world + chain + counts


class TestWedgeRecovery:
    def test_pipe_drop_wedge_detected_by_silence_window(self, expected):
        # The worker closes its pipe end and spins forever: alive (no
        # exit code) but silent.  Only the heartbeat deadline can see
        # this; recovery must still be bit-identical.
        config = resil(
            FaultPlan({0: [Fault("pipe_drop", at=3)]}),
            heartbeat_timeout=2.0,
        )
        with ProcessPoolBackend(resilience=config) as backend:
            result = run_two_phase(backend)
            assert backend.stats()["respawns"] == 1
        assert result.marginals.probabilities() == expected[0]
        assert result.marginals.num_samples == expected[1]

    def test_slow_worker_survives_without_respawn(self, expected):
        config = resil(
            FaultPlan({1: [Fault("slow", at=2, seconds=0.2)]}),
            heartbeat_timeout=30.0,
        )
        with ProcessPoolBackend(resilience=config) as backend:
            result = run_two_phase(backend)
            assert backend.stats()["respawns"] == 0
        assert result.marginals.probabilities() == expected[0]


class TestCheckpointFailure:
    def test_failed_checkpoint_write_skips_but_chain_continues(self, expected):
        # Checkpoint seq 1 of worker 0 fails to write; the worker
        # reports the skip and keeps sampling, and the next cadence
        # checkpoint lands.  Marginals are unaffected.
        config = resil(
            FaultPlan({0: [Fault("ckpt_fail", at=1)]}), checkpoint_every=2
        )
        with ProcessPoolBackend(resilience=config) as backend:
            result = run_two_phase(backend)
            stats = backend.stats()
        assert result.marginals.probabilities() == expected[0]
        assert stats["checkpoints_skipped"] >= 1
        assert config.store.latest("chain:0").seq > 1


# ----------------------------------------------------------------------
# Typed failure surface
# ----------------------------------------------------------------------
class TestTypedFailures:
    def test_retry_exhaustion_is_typed_and_closes_backend(self):
        plan = FaultPlan(
            {0: [Fault("kill", at=2, all_incarnations=True)]}
        )
        config = resil(plan, retry=RetryPolicy(max_attempts=2, base_delay=0.01))
        backend = ProcessPoolBackend(resilience=config)
        backend.start(SeededFactory(21), 1, [QUERY])
        with pytest.raises(RetryExhaustedError) as err:
            backend.run(10)
        assert backend.closed
        assert isinstance(err.value.__cause__, WorkerCrashError)

    def test_wedge_without_checkpoints_raises_worker_timeout(self):
        # checkpoint_every=0 disables checkpointing: a wedged worker
        # (pipe open but silent — here a pathological slow fault) is
        # then unrecoverable, and the failure surfaces as the typed
        # WorkerTimeoutError (satellite a: no more blocking forever).
        config = resil(
            FaultPlan({0: [Fault("slow", at=2, seconds=60.0)]}),
            checkpoint_every=0,
            heartbeat_timeout=1.0,
        )
        backend = ProcessPoolBackend(resilience=config)
        backend.start(SeededFactory(21), 1, [QUERY])
        with pytest.raises(WorkerTimeoutError) as err:
            backend.run(10)
        assert isinstance(err.value, EvaluationError)
        assert err.value.worker_index == 0
        assert "silence" in str(err.value)
        assert backend.closed

    @pytest.mark.parametrize("reaped", [False, True])
    def test_external_sigkill_without_resilience_reports_exit_code(self, reaped):
        # Pre-resilience contract unchanged: no config means crash =
        # typed raise, with the process exit code attached — also when
        # the worker is reaped first, so run()'s send is what fails.
        backend = ProcessPoolBackend()
        backend.start(SeededFactory(21), 1, [QUERY])
        os.kill(backend.worker_pids()[0], signal.SIGKILL)
        if reaped:
            backend._workers[0].process.join()
        with pytest.raises(WorkerCrashError) as err:
            backend.run(5)
        assert err.value.exit_code == -signal.SIGKILL
        assert err.value.worker_index == 0
        assert backend.closed

    def test_remote_application_error_chains_traceback(self):
        # A worker-side application error (unanswerable query) must
        # carry the remote traceback (satellite b) and must NOT be
        # retried even under resilience — it is deterministic.
        config = resil()
        backend = ProcessPoolBackend(resilience=config)
        backend.start(SeededFactory(21), 1, ["SELECT ID FROM MISSING"])
        with pytest.raises(WorkerCrashError) as err:
            backend.run(3)
        cause = err.value.__cause__
        assert isinstance(cause, RemoteTraceback)
        assert "Traceback (most recent call last)" in str(cause)
        assert "MISSING" in str(cause)
        assert backend.closed  # terminal: no respawn loop


# ----------------------------------------------------------------------
# Supervisor restart (checkpoints outlive the backend)
# ----------------------------------------------------------------------
class TestSupervisorRestart:
    def test_sequential_backend_resumes_from_store(self, expected):
        store = MemoryCheckpointStore()
        first = SequentialBackend(resilience=resil(store=store))
        with first:
            first.start(SeededFactory(21), 2, [QUERY])
            first.run(6)
        second = SequentialBackend(resilience=resil(store=store))
        with second:
            second.start(SeededFactory(21), 2, [QUERY])
            result = second.run(10, include_initial=False)
        assert result.marginals.probabilities() == expected[0]
        assert result.marginals.num_samples == expected[1]

    def test_process_backend_resumes_from_disk_store(self, expected, tmp_path):
        store = DiskCheckpointStore(tmp_path / "ckpts")
        first = ProcessPoolBackend(resilience=resil(store=store))
        with first:
            first.start(SeededFactory(21), 2, [QUERY])
            first.run(6)
        # A brand-new supervisor (fresh process pool, fresh command
        # history) adopts the on-disk checkpoints instead of rebuilding
        # from the factory — and the continuation is bit-identical.
        second = ProcessPoolBackend(resilience=resil(store=store))
        with second:
            second.start(SeededFactory(21), 2, [QUERY])
            result = second.run(10, include_initial=False)
        assert result.marginals.probabilities() == expected[0]
        assert result.marginals.num_samples == expected[1]

    def test_cross_backend_resume(self, expected):
        # Checkpoints are backend-agnostic: a sequential run's state
        # resumes under the process backend.
        store = MemoryCheckpointStore()
        first = SequentialBackend(resilience=resil(store=store))
        with first:
            first.start(SeededFactory(21), 2, [QUERY])
            first.run(6)
        second = ProcessPoolBackend(resilience=resil(store=store))
        with second:
            second.start(SeededFactory(21), 2, [QUERY])
            result = second.run(10, include_initial=False)
        assert result.marginals.probabilities() == expected[0]
        assert result.marginals.num_samples == expected[1]


# ----------------------------------------------------------------------
# Seeded chaos sweep
# ----------------------------------------------------------------------
class TestChaosSweep:
    def test_random_plan_completes_correct_and_hang_free(self, expected):
        plan = FaultPlan.random(
            3, 2, kinds=("kill", "slow"), rate=1.0, max_at=5, slow_seconds=0.05
        )
        assert not plan.is_empty()
        config = resil(plan, heartbeat_timeout=5.0)
        with ProcessPoolBackend(resilience=config) as backend:
            result = run_two_phase(backend)
        assert result.marginals.probabilities() == expected[0]
        assert result.marginals.num_samples == expected[1]

    def test_same_seed_same_plan_same_outcome(self):
        fingerprints = {
            FaultPlan.random(9, 4, rate=0.7).fingerprint() for _ in range(3)
        }
        assert len(fingerprints) == 1
