"""Rolling maintenance windows: planned, overlapping link outages.

Operators upgrade a backbone by taking links down in scheduled windows, a
few at a time, sweeping across the network.  Consecutive windows overlap
whenever crews run long, so the natural model is a sliding window over a
maintenance *schedule*: the links in a seeded deterministic order, with
``window`` links down simultaneously and the window advancing by ``stride``
links per scenario.  ``stride < window`` produces the overlapping outages
that make maintenance churn interesting for a resilience scheme.  The
schedule is cyclic (windows wrap around), so every scenario fails exactly
``window`` links.
"""

from __future__ import annotations

import random
from typing import List, Mapping

from repro.errors import ExperimentError
from repro.failures.scenarios import FailureScenario
from repro.graph.multigraph import Graph
from repro.params import Param, ParamValue
from repro.scenarios.base import ScenarioModel


class RollingMaintenance(ScenarioModel):
    """A sliding window of simultaneous outages over a seeded schedule."""

    name = "maintenance"
    summary = "rolling maintenance windows over a seeded link schedule"
    params = (
        Param("window", 2, "links down simultaneously per window"),
        Param("stride", 1, "links the window advances between scenarios"),
    )

    def validate_params(self, params) -> None:
        if params["window"] < 1:
            raise ExperimentError("window must be at least 1")
        if params["stride"] < 1:
            raise ExperimentError("stride must be at least 1")

    def generate(
        self,
        graph: Graph,
        *,
        seed: int,
        samples: int,
        non_disconnecting: bool,
        params: Mapping[str, ParamValue],
    ) -> List[FailureScenario]:
        window = int(params["window"])
        if window > graph.number_of_edges():
            # Clamping would store records (and cache cells) whose params
            # claim a regime the generator never measured.
            raise ExperimentError(
                f"maintenance window of {window} links exceeds the "
                f"{graph.number_of_edges()} links of {graph.name!r}"
            )
        stride = int(params["stride"])
        rng = random.Random(seed)
        schedule = graph.edge_ids()
        rng.shuffle(schedule)
        scenarios: List[FailureScenario] = []
        seen = set()
        start = 0
        # The schedule is cyclic: windows near the end wrap around to the
        # front, so every window has exactly ``window`` links down (a window
        # that silently shrank would measure a milder regime than the spec
        # and its cell ids claim).
        while start < len(schedule):
            group = tuple(
                schedule[(start + offset) % len(schedule)]
                for offset in range(window)
            )
            position = start
            start += stride
            canonical = tuple(sorted(group))
            if canonical in seen:
                continue
            seen.add(canonical)
            scenario = FailureScenario(
                group,
                kind="maintenance",
                description=f"maintenance window at slot {position}",
            )
            if non_disconnecting and not scenario.keeps_connected(graph):
                continue
            scenarios.append(scenario)
            if len(scenarios) >= samples:
                break
        return scenarios
