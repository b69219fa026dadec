"""Node-failure evaluation.

The paper's title and abstract cover "link or node failures"; the mechanism
handles a node failure as the simultaneous bidirectional failure of all of the
node's links (packets sourced at or destined to the failed router are
obviously unrecoverable and excluded).  This runner measures repair coverage
and stretch for every single-node failure of a topology, for any set of
schemes, over the pairs that do not involve the failed node and remain
connected.  It is the campaign measurement pass (:mod:`repro.metrics.stretch`)
run over the node scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import ExperimentError
from repro.failures.scenarios import node_failure_scenarios
from repro.forwarding.scheme import ForwardingScheme
from repro.graph.multigraph import Graph
from repro.metrics.ccdf import distribution_summary
from repro.metrics.stretch import measure_context, scenario_context


@dataclass
class NodeFailureResult:
    """Coverage and stretch of every scheme under single-node failures."""

    topology: str
    scenarios: int
    measured_pairs: int
    delivery_ratio: Dict[str, float] = field(default_factory=dict)
    stretch_summary: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def scheme_names(self) -> List[str]:
        return list(self.delivery_ratio)


def node_failure_experiment(
    graph: Graph,
    schemes: Optional[Sequence[ForwardingScheme]] = None,
    exclude: Optional[Sequence[str]] = None,
) -> NodeFailureResult:
    """Run every scheme over every single-node failure of ``graph``.

    ``exclude`` removes nodes from the failure set (e.g. nodes whose loss
    would disconnect the topology, if the caller wants to stay within the
    paper's guarantee regime).  ``schemes`` defaults to the Figure 2 trio
    (:func:`repro.experiments.stretch.default_schemes`).
    """
    if schemes is None:
        from repro.experiments.stretch import default_schemes

        schemes = default_schemes(graph)
    if not schemes:
        raise ExperimentError("at least one scheme is required")
    scenarios = node_failure_scenarios(graph, exclude=exclude)
    # A node failure isolates the router, so the shared conditioning
    # (affected and still connected) leaves out every pair that involves it.
    context = scenario_context(graph, [scenario.failed_links for scenario in scenarios])
    result = NodeFailureResult(
        topology=graph.name,
        scenarios=len(scenarios),
        measured_pairs=sum(len(affected) for _key, affected, _measured in context),
    )
    for scheme in schemes:
        fields, values, _report = measure_context(scheme, context)
        result.delivery_ratio[scheme.name] = fields["delivery_ratio"]
        result.stretch_summary[scheme.name] = distribution_summary(values)
    return result
