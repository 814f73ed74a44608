"""Sharded-experiment wiring: Matrix runs on the space-partitioned kernel.

:class:`ShardedMatrixExperiment` is a drop-in
:class:`~repro.harness.experiment.MatrixExperiment` whose substrate
factories build a :class:`~repro.sim.sharded.ShardedSimulator` and a
:class:`~repro.net.sharded.ShardedNetwork` instead of the classic
single-heap pair.  Everything above the substrate — deployment, fleet,
scenarios, sampling — runs unmodified; the facade routes scheduling to
the right lane.

The determinism contract (same seed ⇒ identical results at any shard
count) is proven by ``tests/sim/test_sharded.py``; what the lanes cost
in wall-clock time is measured by perfbench's ``hotspot-lanes``.

Deployment state is shard-local: the experiment builds a
:class:`~repro.core.lane_deployment.ShardedMatrixDeployment`, whose
pool/spawn/decommission control plane lives on a global-lane
``fabric`` node and is driven purely by ``fabric.*`` messages, so no
lane ever mutates another lane's objects directly.

Chaos support is partial: barrier-aligned ``LinkDegrade`` windows work
on sharded runs (a stage draws its randomness on the lane that owns its
node), but crash faults (``ServerCrash``/``CoordinatorCrash``) still
mutate foreign lanes mid-window and are refused with an explicit error.
"""

from __future__ import annotations

from repro.core.deployment import MatrixDeployment
from repro.core.lane_deployment import ShardedMatrixDeployment
from repro.geometry.sharding import ShardMap
from repro.harness.experiment import ExperimentResult, MatrixExperiment
from repro.net.network import Network
from repro.net.sharded import ShardedNetwork
from repro.sim.kernel import Simulator
from repro.sim.sharded import ShardedSimulator

__all__ = ["ShardedMatrixExperiment"]


class ShardedMatrixExperiment(MatrixExperiment):
    """A Matrix experiment running on the space-partitioned kernel."""

    def __init__(self, *args, shards: int = 2, **kwargs) -> None:
        self.shards = shards
        super().__init__(*args, **kwargs)

    def _build_sim(self) -> Simulator:
        return ShardedSimulator(self.shards, perf=self.perf)

    def _build_network(self) -> Network:
        shard_map = ShardMap(self.profile.world, self.shards)
        return ShardedNetwork(
            self.sim, shard_map, self.rng, perf=self.perf
        )

    def _build_deployment(self, **kwargs) -> MatrixDeployment:
        return ShardedMatrixDeployment(
            self.sim,
            self.network,
            self.config,
            game_server_factory=self._make_game_server,
            **kwargs,
        )

    def run(self, until: float) -> ExperimentResult:
        crashes = (
            self.chaos.crash_fault_types() if self.chaos is not None else []
        )
        if crashes:
            raise ValueError(
                "sharded runs do not support crash chaos faults "
                f"({', '.join(crashes)}): crashing a pair mutates foreign "
                "lanes mid-window; run crash scenarios with shards=None or "
                "chaos=False (see docs/ARCHITECTURE.md).  LinkDegrade "
                "chaos is fine."
            )
        # Conservative lookahead: the tightest lower bound on one-way
        # latency between different-shard nodes, derived from the
        # installed link profiles (LatencyModel.minimum()).
        self.sim.lookahead = self.network.minimum_cross_latency()
        return super().run(until)
