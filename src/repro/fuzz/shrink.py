"""Shrinking a failing scenario to a minimal reproducer.

Delta-debugging (ddmin-style) over the phase tuple: repeatedly try to
delete chunks of phases, keeping any deletion after which the failure
*still reproduces*, halving the chunk size until single phases are
tried.  The result is 1-minimal — removing any one remaining phase
makes the failure disappear — which is usually the difference between
"seed 8143 fails" and "a Departure racing a split fails".

The shrinker is pure data-manipulation: the caller supplies
``still_fails(scenario) -> bool`` (typically a re-run of the invariant
harness), so it works for any failure predicate and is trivially
unit-testable without simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.value import replace
from repro.workload.scenarios.spec import Scenario
from typing import Callable


@dataclass(frozen=True)
class ShrinkResult:
    """Outcome of one shrink: the minimal scenario and the effort."""

    scenario: Scenario
    iterations: int
    removed: int

    @property
    def phases(self) -> int:
        return len(self.scenario.phases)


def _with_phases(scenario: Scenario, phases: list) -> Scenario:
    return replace(scenario, phases=tuple(phases))


def shrink_scenario(
    scenario: Scenario,
    still_fails: Callable[[Scenario], bool],
    max_iterations: int = 64,
) -> ShrinkResult:
    """Minimise *scenario*'s phase list while *still_fails* holds.

    *still_fails* is consulted on candidate scenarios only — the
    original is assumed failing (callers verified it; that is what made
    them shrink).  At most *max_iterations* predicate evaluations are
    spent, so a slow reproducer cannot stall CI: the result is then the
    smallest failing scenario found so far, possibly not yet 1-minimal.
    """
    phases = list(scenario.phases)
    original = len(phases)
    iterations = 0
    chunk = max(1, len(phases) // 2)
    while iterations < max_iterations:
        removed_this_pass = False
        index = 0
        while index < len(phases) and iterations < max_iterations:
            candidate = phases[:index] + phases[index + chunk:]
            iterations += 1
            if still_fails(_with_phases(scenario, candidate)):
                phases = candidate
                removed_this_pass = True
                # Same index now points at the next chunk.
            else:
                index += chunk
        if chunk == 1 and not removed_this_pass:
            break  # 1-minimal: no single phase is deletable
        chunk = max(1, chunk // 2)
    return ShrinkResult(
        scenario=_with_phases(scenario, phases),
        iterations=iterations,
        removed=original - len(phases),
    )
