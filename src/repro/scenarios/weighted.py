"""Weighted link failures: heavily-used or long links fail more often.

Field studies consistently find that failure probability is not uniform
across links — long-haul spans see more fibre cuts and links carrying more
shortest paths are the ones whose failures matter.  Each scenario of this
model fails ``failures`` links drawn *without replacement* with probability
proportional to a per-link weight:

* ``by="betweenness"`` — the number of shortest paths (over all ordered
  node pairs, deterministic tie-breaking) that traverse the link;
* ``by="length"`` — the link's routing cost, a proxy for physical span
  length on the ISP topologies.
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping

from repro.errors import ExperimentError
from repro.failures.scenarios import FailureScenario
from repro.graph.multigraph import Graph
from repro.graph.shortest_paths import dijkstra
from repro.params import Param, ParamValue
from repro.scenarios.base import ScenarioModel

_WEIGHT_MODES = ("betweenness", "length")


def edge_betweenness(graph: Graph) -> Dict[int, int]:
    """How many shortest paths (over ordered pairs) traverse each edge.

    Uses the same deterministic tie-breaking as the routing tables, so the
    counts — and everything sampled from them — are reproducible.
    """
    counts: Dict[int, int] = {edge_id: 0 for edge_id in graph.edge_ids()}
    for source in graph.nodes():
        _dist, parent = dijkstra(graph, source)
        for destination in graph.nodes():
            node = destination
            while node != source and node in parent:
                node, edge_id = parent[node]
                counts[edge_id] += 1
    return counts


def _weighted_sample(
    rng: random.Random, weights: Dict[int, float], count: int
) -> List[int]:
    """Draw ``count`` distinct keys with probability proportional to weight."""
    remaining = dict(weights)
    chosen: List[int] = []
    for _ in range(count):
        total = sum(remaining.values())
        if total <= 0:
            break
        pick = rng.random() * total
        cumulative = 0.0
        # Iterate in key order so the draw is independent of dict history.
        for edge_id in sorted(remaining):
            cumulative += remaining[edge_id]
            if pick < cumulative:
                chosen.append(edge_id)
                del remaining[edge_id]
                break
        else:  # pragma: no cover - float round-off fallback
            edge_id = max(sorted(remaining))
            chosen.append(edge_id)
            del remaining[edge_id]
    return chosen


class WeightedLinkFailures(ScenarioModel):
    """Sampled failure sets biased towards important or long links."""

    name = "weighted"
    summary = "link failure probability proportional to betweenness or length"
    params = (
        Param("failures", 1, "simultaneous link failures per scenario"),
        Param("by", "betweenness", "weighting: 'betweenness' or 'length'"),
        Param("attempts", 200, "rejection-sampling budget per scenario"),
    )

    def validate_params(self, params) -> None:
        if params["failures"] < 1:
            raise ExperimentError("failures must be at least 1")
        if params["by"] not in _WEIGHT_MODES:
            raise ExperimentError(
                f"unknown weighting {params['by']!r}; expected one of {_WEIGHT_MODES}"
            )
        if params["attempts"] < 1:
            raise ExperimentError("attempts must be at least 1")

    def generate(
        self,
        graph: Graph,
        *,
        seed: int,
        samples: int,
        non_disconnecting: bool,
        params: Mapping[str, ParamValue],
    ) -> List[FailureScenario]:
        failures = int(params["failures"])
        if failures > graph.number_of_edges():
            raise ExperimentError(
                f"cannot fail {failures} links in a topology with "
                f"{graph.number_of_edges()} links"
            )
        if params["by"] == "betweenness":
            weights = {k: float(v) for k, v in edge_betweenness(graph).items()}
        else:
            weights = {edge.edge_id: edge.weight for edge in graph.edges()}
        # Zero-weight links can never be drawn; with too few drawable links
        # the sampler would silently emit scenarios milder than the spec
        # (and its cell ids) claim, so fail loudly instead.
        drawable = sum(1 for weight in weights.values() if weight > 0)
        if failures > drawable:
            raise ExperimentError(
                f"cannot fail {failures} links: only {drawable} links have "
                f"positive {params['by']} weight on {graph.name!r}"
            )
        rng = random.Random(seed)
        scenarios: List[FailureScenario] = []
        seen = set()
        budget = samples * int(params["attempts"])
        while len(scenarios) < samples and budget > 0:
            budget -= 1
            combination = tuple(sorted(_weighted_sample(rng, weights, failures)))
            if combination in seen:
                continue
            scenario = FailureScenario(
                combination, kind="weighted", description=f"weighted by {params['by']}"
            )
            if non_disconnecting and not scenario.keeps_connected(graph):
                seen.add(combination)
                continue
            seen.add(combination)
            scenarios.append(scenario)
        return scenarios
