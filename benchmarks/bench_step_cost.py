"""Ablation: MH walk-step cost is constant in database size (§5.3).

"For the skip-chain CRF ... the time to perform an MCMC walk-step is
constant with respect to the size of the database" — because a proposal
touching one variable evaluates only the constant number of factors
adjacent to it (Appendix 9.2).  This bench times walk-steps at two
database sizes an order of magnitude apart and asserts near-constancy.

Two series are recorded, one per scoring path:

* ``vectorized`` — the fast path: static adjacency cache plus the
  array-backed local scorers (:mod:`repro.fg.vectorized`, the default);
* ``uncached`` — ``set_caching(False)``: full re-instantiation, the
  bit-exact reference and the pre-overhaul baseline regime.

Protocol: §5.3's claim is about the *steady-state* walk step, so the
``vectorized`` series is measured at equilibrium — one conditional
sweep over every variable primes the per-variable scorers (cold
structure is a one-time cost, amortized over the run's lifetime), then
20k settle steps let the blanket caches absorb the walk's equilibrium
label churn, then 5 rounds of 2000 steps are timed.

Historical reference points (40k tokens, REPRO_SCALE=1, a 1-CPU
2.1 GHz Xeon VM): ~34.9 us/step pre-overhaul (commit c4d84e2),
~13.8 us/step with cached per-factor dict scoring (since replaced by
the array scorers), ~3.3 us/step with the array scorers.

``test_vectorized_bit_identical_to_uncached`` additionally asserts
in-bench that the two paths produce bit-identical marginals under fixed
seeds — the timings are only admissible evidence if the paths are
exactly interchangeable.
"""

from __future__ import annotations

import time

import pytest

from repro.bench import QUERY2, make_task, scale_factor

from check_step_cost import MAX_STEP_COST_RATIO

SIZES = [2_000, 40_000]
STEPS = 2_000
SETTLE_STEPS = 20_000

MODES = ["vectorized", "uncached"]


def _make_instance(num_tokens: int, mode: str, chain_seed: int = 1):
    task = make_task(num_tokens, steps_per_sample=STEPS)
    instance = task.make_instance(chain_seed)
    if mode == "uncached":
        instance.kernel.graph.set_caching(False)
    return instance


def _steady_instance(num_tokens: int, mode: str, chain_seed: int = 1):
    """An instance warmed to the steady-state regime (fast path): one
    conditional sweep primes every variable's scorer, then settle steps
    equilibrate the blanket caches."""
    instance = _make_instance(num_tokens, mode, chain_seed)
    if mode != "uncached":
        graph = instance.kernel.graph
        for variable in instance.model.variables:
            graph.local_conditional_scores(variable)
        instance.kernel.run(SETTLE_STEPS)
    return instance


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("num_tokens", [s * scale_factor() for s in SIZES])
@pytest.mark.benchmark(group="step-cost")
def test_step_cost(benchmark, num_tokens, mode):
    instance = _steady_instance(num_tokens, mode)

    def run_steps():
        instance.kernel.run(STEPS)

    benchmark.pedantic(run_steps, rounds=5, iterations=1, warmup_rounds=1)
    benchmark.extra_info["tokens"] = num_tokens
    benchmark.extra_info["steps"] = STEPS
    benchmark.extra_info["mode"] = mode


@pytest.mark.benchmark(group="step-cost-ratio")
def test_step_cost_ratio_is_near_constant(benchmark):
    """Direct assertion of the §5.3 claim (20x the data, ~same step cost)."""

    def experiment():
        times = {}
        for num_tokens in [s * scale_factor() for s in SIZES]:
            instance = _steady_instance(num_tokens, "vectorized")
            instance.kernel.run(STEPS)  # warmup round
            started = time.perf_counter()
            instance.kernel.run(STEPS)
            times[num_tokens] = (time.perf_counter() - started) / STEPS
        return times

    times = benchmark.pedantic(experiment, rounds=1, iterations=1)
    small, large = [times[s * scale_factor()] for s in SIZES]
    print(
        f"\nper-step: {small * 1e6:.1f}us @ {SIZES[0] * scale_factor()} tokens, "
        f"{large * 1e6:.1f}us @ {SIZES[1] * scale_factor()} tokens "
        f"(ratio {large / small:.2f}x for {SIZES[1] // SIZES[0]}x the data)"
    )
    benchmark.extra_info["per_step_seconds"] = {str(k): v for k, v in times.items()}
    assert large / small < MAX_STEP_COST_RATIO, (
        "walk-step cost must not scale with DB size"
    )


def test_vectorized_bit_identical_to_uncached():
    """Same seeds, same marginals, fast path or uncached reference."""
    marginals = {}
    for mode in MODES:
        instance = _make_instance(SIZES[0] * scale_factor(), mode, chain_seed=7)
        evaluator = instance.evaluator([QUERY2])
        evaluator.run(20)
        marginals[mode] = evaluator.estimators[0].probabilities()
    assert marginals["vectorized"] == marginals["uncached"], (
        "fast-path inference must be bit-identical to the uncached reference"
    )
