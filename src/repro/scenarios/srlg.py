"""Shared-risk link groups: links sharing a conduit fail together.

Backbone links are not independent: several logical links routinely ride the
same fibre conduit, duct or landing station, and a single backhoe takes all
of them down at once.  ISP SRLG databases are proprietary, so this model
*synthesises* a plausible grouping: links are shuffled deterministically and
partitioned into groups of ``group_size`` (the last group keeps the
remainder), and each scenario is the simultaneous failure of one whole
group.  The grouping — and therefore the scenario list — is a pure function
of the seed.
"""

from __future__ import annotations

import random
from typing import List, Mapping

from repro.failures.scenarios import FailureScenario
from repro.graph.multigraph import Graph
from repro.params import Param, ParamValue
from repro.scenarios.base import ScenarioModel
from repro.errors import ExperimentError


class SharedRiskGroups(ScenarioModel):
    """One scenario per synthetic shared-risk group of ``group_size`` links."""

    name = "srlg"
    summary = "conduit-sharing link groups fail together"
    params = (
        Param("group_size", 3, "links per shared-risk group"),
    )

    def validate_params(self, params) -> None:
        if params["group_size"] < 1:
            raise ExperimentError("group_size must be at least 1")

    def generate(
        self,
        graph: Graph,
        *,
        seed: int,
        samples: int,
        non_disconnecting: bool,
        params: Mapping[str, ParamValue],
    ) -> List[FailureScenario]:
        group_size = int(params["group_size"])
        rng = random.Random(seed)
        edge_ids = graph.edge_ids()
        rng.shuffle(edge_ids)
        scenarios: List[FailureScenario] = []
        for start in range(0, len(edge_ids), group_size):
            group = tuple(edge_ids[start : start + group_size])
            scenario = FailureScenario(
                group, kind="srlg", description=f"risk group {start // group_size}"
            )
            if non_disconnecting and not scenario.keeps_connected(graph):
                continue
            scenarios.append(scenario)
            if len(scenarios) >= samples:
                break
        return scenarios
