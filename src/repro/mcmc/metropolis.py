"""The Metropolis-Hastings kernel (paper Algorithm 2).

One :meth:`MetropolisHastings.step`:

1. draw ``w' ~ q(.|w)`` from the proposal distribution;
2. score only the factors adjacent to the touched variables, before
   and after the change — the Appendix 9.2 cancellation makes this
   O(|touched|), independent of database size; structure-changing
   models score the union of both adjacent factor sets (see
   :meth:`repro.fg.graph.FactorGraph.score_delta`).  For static models
   a single-variable proposal is scored by the variable's compiled
   array scorer (over the graph's static adjacency cache), so a
   steady-state walk step allocates almost nothing;
3. accept with probability ``min(1, pi(w')q(w|w') / pi(w)q(w'|w))``;
4. on acceptance, flush changed :class:`~repro.fg.variables.FieldVariable`
   values through to the database, where attached delta recorders pick
   them up for view maintenance.

All arithmetic is in log space; the normalizer ``Z_X`` cancels.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Dict

from repro.fg.graph import FactorGraph
from repro.fg.variables import FieldVariable, HiddenVariable
from repro.mcmc.proposal import ProposalDistribution
from repro.rng import make_rng

__all__ = ["StepResult", "MHStatistics", "MetropolisHastings"]


@dataclass(slots=True)
class StepResult:
    """Outcome of one MH step (slotted: allocated every step)."""

    accepted: bool
    log_acceptance: float
    changed: Dict[HiddenVariable, Any]


@dataclass
class MHStatistics:
    """Running counters over the lifetime of a kernel.

    No-op self-transitions (proposals that change nothing) are always
    accepted, so they count into both ``accepted`` and ``noops``.
    :attr:`acceptance_rate` therefore over-states how often the chain
    *moves*; consumers tuning against the acceptance signal should read
    :attr:`effective_acceptance_rate`, which excludes no-ops from both
    numerator and denominator.
    """

    proposals: int = 0
    accepted: int = 0
    noops: int = 0

    @property
    def acceptance_rate(self) -> float:
        """Fraction of proposals accepted, self-transitions included."""
        if self.proposals == 0:
            return 0.0
        return self.accepted / self.proposals

    @property
    def effective_acceptance_rate(self) -> float:
        """Fraction of *world-changing* proposals accepted.

        Excludes no-op self-transitions, which inflate
        :attr:`acceptance_rate` without moving the chain.
        """
        moves = self.proposals - self.noops
        if moves == 0:
            return 0.0
        return (self.accepted - self.noops) / moves


class MetropolisHastings:
    """A random-walk MH sampler over a factor graph.

    Parameters
    ----------
    graph:
        The model; proposals are scored through its templates.
    proposer:
        The jump function ``q``.
    seed / rng:
        Either a seed (int) or an explicit :class:`random.Random`.
    temperature:
        Optional >0 scaling of the model score (1.0 = the paper's
        sampler; <1 sharpens toward the MAP world, useful for
        annealed decoding).
    """

    def __init__(
        self,
        graph: FactorGraph,
        proposer: ProposalDistribution,
        seed: int | None = None,
        rng: random.Random | None = None,
        temperature: float = 1.0,
    ):
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        self.graph = graph
        self.proposer = proposer
        self.rng = rng if rng is not None else make_rng(seed)
        self.temperature = temperature
        self.stats = MHStatistics()

    # ------------------------------------------------------------------
    def step(self) -> StepResult:
        """Execute one propose/accept/reject cycle."""
        proposal = self.proposer.propose(self.rng)
        stats = self.stats
        stats.proposals += 1
        changes = proposal.changes
        if len(changes) == 1:
            # Single-variable proposal (the overwhelmingly common case):
            # skip the filtering dict build entirely.  ``_value`` is the
            # storage behind the ``value`` property on every variable
            # kind; reading it directly skips one descriptor hop per
            # step.
            [(variable, value)] = changes.items()
            if variable._value == value:
                changes = {}
        else:
            changes = {
                variable: value
                for variable, value in changes.items()
                if variable._value != value
            }
        if not changes:
            # Self-transition: always accepted, nothing to write.
            stats.accepted += 1
            stats.noops += 1
            return StepResult(True, 0.0, {})

        # Score through the graph's what-if machinery: static models
        # instantiate the adjacent factor set once and score it under
        # both worlds; generic dynamic models score the union of the
        # before/after adjacent sets so factors that appear or vanish
        # with the change contribute symmetrically.  Coref's graph
        # serves single-mention moves from its pair-score table.
        log_alpha = self.graph.score_delta(changes) / self.temperature
        log_alpha += proposal.log_backward - proposal.log_forward
        accepted = log_alpha >= 0 or math.log(self.rng.random()) < log_alpha

        if accepted:
            stats.accepted += 1
            for variable, value in changes.items():
                variable.set_value(value)
                if isinstance(variable, FieldVariable):
                    variable.flush()
            return StepResult(True, log_alpha, changes)

        return StepResult(False, log_alpha, {})

    def run(self, num_steps: int) -> MHStatistics:
        """Run ``num_steps`` (Algorithm 2's loop); returns statistics."""
        for _ in range(num_steps):
            self.step()
        return self.stats
