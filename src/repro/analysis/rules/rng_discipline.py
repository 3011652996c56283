"""RL003 — RNG discipline: no ambient randomness in the library.

Every count the ``benchmarks/e2e`` ledger repeats exactly for one seed
(``half_at_samples``, walk-steps, accepted proposals), every bit-identity
equivalence test (cached vs uncached scoring, sharded vs unsharded,
repaired vs rebuilt graphs) and the multiprocess backend's
"identical pooled marginals for fixed seeds" contract depend on one
rule: randomness flows only through explicitly seeded, chain-owned
:class:`random.Random` instances (see :mod:`repro.rng`).

Flagged, anywhere under ``repro/``:

* calls to the module-level ``random.*`` functions (``random.random``,
  ``random.randint``, ``random.choice``, ``random.shuffle``,
  ``random.seed``, ...) — they draw from the interpreter-global RNG
  that any import or library call may also advance;
* any use of ``numpy.random``/``np.random`` — same global-state
  problem, plus numpy is not a dependency of this repo;
* ``random.Random()`` with no arguments — an unseeded instance seeds
  itself from the OS, so two runs never reproduce;
* seeding from the clock: ``time.time()``/``time.time_ns()`` (or
  ``datetime.now()``) passed to ``Random(...)``, ``.seed(...)`` or
  ``make_rng(...)``.
"""

from __future__ import annotations

import ast

from repro.analysis.astutil import call_name, dotted_name
from repro.analysis.framework import Rule

__all__ = ["RngDisciplineRule"]

MODULE_LEVEL_FNS = {
    "random", "randint", "randrange", "choice", "choices", "sample",
    "shuffle", "uniform", "gauss", "normalvariate", "betavariate",
    "expovariate", "getrandbits", "seed", "triangular", "vonmisesvariate",
}

CLOCK_CALLS = {
    "time.time", "time.time_ns", "time.monotonic_ns",
    "datetime.now", "datetime.datetime.now", "datetime.utcnow",
}

SEEDING_TARGETS = {"Random", "seed", "make_rng", "SystemRandom"}


class RngDisciplineRule(Rule):
    rule_id = "RL003"
    title = (
        "randomness must flow through seeded chain-owned Random "
        "instances, never the global random module or the clock"
    )
    scope = ("repro/",)

    def visit_Call(self, node: ast.Call) -> None:
        name = call_name(node)
        if name is not None:
            parts = name.split(".")
            if parts[0] == "random" and len(parts) == 2:
                if parts[1] in MODULE_LEVEL_FNS:
                    self.report(
                        node,
                        f"call to global {name}() — draw from a seeded, "
                        "chain-owned random.Random (repro.rng.make_rng) "
                        "so runs reproduce",
                    )
                elif parts[1] == "Random" and not node.args and not node.keywords:
                    self.report(
                        node,
                        "unseeded random.Random() seeds itself from the "
                        "OS; pass an explicit seed",
                    )
            elif parts[-1] == "Random" and not node.args and not node.keywords:
                self.report(
                    node,
                    "unseeded Random() seeds itself from the OS; pass an "
                    "explicit seed",
                )
            if parts[-1] in SEEDING_TARGETS:
                for arg in list(node.args) + [k.value for k in node.keywords]:
                    if (
                        isinstance(arg, ast.Call)
                        and (call_name(arg) or "") in CLOCK_CALLS
                    ):
                        self.report(
                            arg,
                            f"time-based seed ({call_name(arg)}()) makes "
                            "every run different; derive seeds from the "
                            "chain's own RNG (repro.rng.spawn) or config",
                        )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr == "random":
            base = dotted_name(node.value)
            if base in ("numpy", "np"):
                self.report(
                    node,
                    f"{base}.random uses numpy's global RNG (and numpy "
                    "is not a dependency); use seeded random.Random",
                )
        self.generic_visit(node)
