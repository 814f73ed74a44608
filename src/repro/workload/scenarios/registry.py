"""The ``@scenario`` registry: named, discoverable workloads.

Mirrors the ``@handles`` registry that replaced if/elif dispatch in the
network layer (PR 1): instead of every experiment hand-wiring its own
waves, a scenario is registered once and looked up by name — by the
CLI (``python -m repro run <name>``), the sweep benchmark, and the
tests that assert every registered scenario is deterministic.

Factories (not instances) are registered so each caller gets a fresh
:class:`~repro.workload.scenarios.spec.Scenario` it may freely scale
or truncate.
"""

from __future__ import annotations

from typing import Callable

from repro.workload.scenarios.spec import Scenario

ScenarioFactory = Callable[[], Scenario]

_SCENARIOS: dict[str, ScenarioFactory] = {}


def scenario(name: str) -> Callable[[ScenarioFactory], ScenarioFactory]:
    """Register a scenario factory under *name* (decorator).

    The factory takes no arguments and returns a
    :class:`~repro.workload.scenarios.spec.Scenario` whose ``name``
    matches the registered one (checked at build time).
    """

    def decorate(factory: ScenarioFactory) -> ScenarioFactory:
        register_scenario(name, factory)
        return factory

    return decorate


def register_scenario(name: str, factory: ScenarioFactory) -> None:
    """Non-decorator registration (for programmatic catalogs)."""
    if not name:
        raise ValueError("scenario name must be non-empty")
    if name in _SCENARIOS:
        raise ValueError(f"scenario already registered: {name!r}")
    _SCENARIOS[name] = factory


def scenario_names() -> list[str]:
    """All registered scenario names, sorted."""
    return sorted(_SCENARIOS)


def build_scenario(name: str) -> Scenario:
    """Build a fresh instance of the scenario registered as *name*."""
    try:
        factory = _SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; known: {scenario_names()}"
        ) from None
    built = factory()
    if built.name != name:
        raise ValueError(
            f"scenario factory for {name!r} built one named "
            f"{built.name!r}; registration and spec must agree"
        )
    return built
