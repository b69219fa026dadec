"""Geographically-correlated regional failures: a BFS ball goes dark.

Earthquakes, floods and grid outages take out every router in an area, not
one link.  Without PoP coordinates the best proxy for "an area" is hop
distance: the model samples an epicenter node and fails every link incident
to a node within ``radius - 1`` hops of it (so ``radius=1`` fails the same
link set as a single-node failure, ``radius=2`` additionally takes the
epicenter's neighbours down, and so on).

Nodes inside the region are isolated by construction, so plain connectivity
of the survivor graph would reject every scenario; instead, as in
``node_failure_scenarios(only_non_disconnecting=True)``,
``non_disconnecting`` is interpreted as "at least two routers must survive,
mutually connected".  Note the asymmetry with the built-in ``kind="node"``
campaign scenarios, which enumerate *every* node (cut vertices included, as
in the paper's node-failure experiment): under the campaign default
``non_disconnecting=True`` this model drops regions whose loss splits the
survivors, so ``regional`` with ``radius=1`` is a *filtered* subset of the
node kind, not an identical regime.  Traffic sourced at or destined to a
dead region is excluded by the experiment's per-pair component check,
exactly as for node failures.
"""

from __future__ import annotations

import random
from typing import List, Mapping, Set

from repro.errors import ExperimentError
from repro.failures.scenarios import FailureScenario
from repro.graph.connectivity import is_connected
from repro.graph.multigraph import Graph
from repro.params import Param, ParamValue
from repro.scenarios.base import ScenarioModel


def hop_ball(graph: Graph, center: str, radius: int) -> Set[str]:
    """Nodes within ``radius`` hops of ``center`` (BFS, failure-free graph)."""
    frontier = [center]
    ball = {center}
    for _ in range(radius):
        next_frontier: List[str] = []
        for node in frontier:
            for neighbor in graph.neighbors(node):
                if neighbor not in ball:
                    ball.add(neighbor)
                    next_frontier.append(neighbor)
        frontier = next_frontier
    return ball


class RegionalFailures(ScenarioModel):
    """Sampled epicenters; every link touching the hop ball fails."""

    name = "regional"
    summary = "all links within a hop ball of a sampled epicenter fail"
    params = (
        Param("radius", 1, "hop radius of the dead region (1 = one node)"),
    )

    def validate_params(self, params) -> None:
        if params["radius"] < 1:
            raise ExperimentError("radius must be at least 1")

    def generate(
        self,
        graph: Graph,
        *,
        seed: int,
        samples: int,
        non_disconnecting: bool,
        params: Mapping[str, ParamValue],
    ) -> List[FailureScenario]:
        radius = int(params["radius"])
        rng = random.Random(seed)
        nodes = graph.nodes()
        # Epicenters are sampled without replacement; once every node has
        # served as an epicenter there are no new regions to draw.
        order = list(nodes)
        rng.shuffle(order)
        scenarios: List[FailureScenario] = []
        seen = set()
        for epicenter in order:
            region = hop_ball(graph, epicenter, radius - 1)
            failed = sorted(
                {
                    edge_id
                    for node in region
                    for edge_id in graph.incident_edge_ids(node)
                }
            )
            # Distinct epicenters can resolve to the same failed-link set
            # (overlapping balls); measuring it twice would overweight it.
            if not failed or tuple(failed) in seen:
                continue
            seen.add(tuple(failed))
            if non_disconnecting:
                survivors = graph.without_edges(failed)
                for node in region:
                    survivors.remove_node(node)
                # Fewer than two survivors means no network is left to carry
                # traffic — a total outage, the strongest possible
                # disconnection, not a vacuously "connected" remainder.
                if survivors.number_of_nodes() < 2 or not is_connected(survivors):
                    continue
            scenarios.append(
                FailureScenario(
                    tuple(failed),
                    kind="regional",
                    description=f"region around {epicenter} (radius {radius})",
                )
            )
            if len(scenarios) >= samples:
                break
        return scenarios
