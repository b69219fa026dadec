"""Packets lost during re-convergence vs. under Packet Re-cycling.

This is the experiment behind the introduction's motivation: a loaded link
fails, the IGP takes on the order of a second to re-converge, and every
packet forwarded onto the dead link in the meantime is lost.  PR reroutes the
same packets over the complementary cycle, losing (essentially) none.

The simulator forwards with the schemes' own router logic (NoProtection,
Reconvergence and PR, switched per router by
:class:`~repro.simulator.forwarders.SchemeForwarder`), so the experiment
measures the same forwarding that the stretch and coverage experiments
trace.  The simulation uses a scaled-down packet rate so it runs in
milliseconds of CPU time; :func:`repro.simulator.des.estimate_packets_lost` extrapolates the
measured loss fraction to the OC-192 rates quoted by the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.baselines.noprotection import NoProtection
from repro.baselines.reconvergence import Reconvergence
from repro.core.scheme import PacketRecycling
from repro.errors import ExperimentError
from repro.forwarding.network_state import NetworkState
from repro.graph.multigraph import Graph
from repro.routing.reconvergence import ReconvergenceModel
from repro.simulator.des import PacketLevelSimulator, SimulationReport, estimate_packets_lost
from repro.simulator.flows import TrafficFlow
from repro.simulator.forwarders import SchemeForwarder
from repro.simulator.links import LinkModel


@dataclass
class ConvergenceLossResult:
    """Loss statistics of each behaviour plus the paper-scale extrapolation."""

    topology: str
    failed_link: Tuple[str, str]
    convergence_time: float
    reports: Dict[str, SimulationReport]
    extrapolated_losses: Dict[str, float]

    def loss_fraction(self, behaviour: str) -> float:
        """Measured loss fraction of one behaviour."""
        return self.reports[behaviour].loss_fraction


def convergence_behaviours(
    graph: Graph,
    failed_edge: int,
    updated_at: Mapping[str, float],
    detected_at: float,
    embedding_seed: int = 7,
    failure_time: float = 0.0,
) -> Dict[str, SchemeForwarder]:
    """The experiment's three behaviours around the failure of ``failed_edge``.

    Before ``failure_time`` every router forwards on the intact map.  From
    then on the link is dead, and every router forwards on the stale tables
    (the NoProtection logic) until it either installs its re-converged FIB
    (``updated_at``) or, with PR, the failure is detected (``detected_at``).
    """
    no_protection = NoProtection(graph)
    intact_state = NetworkState(graph)
    intact = (no_protection.build_logic(intact_state), intact_state)
    failed_state = NetworkState(graph, [failed_edge])
    stale = no_protection.build_logic(failed_state)
    afters = {
        "no-protection": (stale, 0.0),
        "re-convergence": (Reconvergence(graph).build_logic(failed_state), updated_at),
        "Packet Re-cycling": (
            PacketRecycling(graph, embedding_seed=embedding_seed).build_logic(failed_state),
            detected_at,
        ),
    }
    return {
        name: SchemeForwarder(
            name, failed_state, stale, after, switch_at, intact, failure_time
        )
        for name, (after, switch_at) in afters.items()
    }


def convergence_loss_experiment(
    graph: Graph,
    source: str,
    destination: str,
    failed_edge: Optional[int] = None,
    rate_pps: float = 2000.0,
    duration: float = 2.0,
    failure_time: float = 0.2,
    link_model: Optional[LinkModel] = None,
    reconvergence_model: Optional[ReconvergenceModel] = None,
    detection_delay: float = 0.05,
    paper_link_rate_bps: float = 9_953_280_000.0,
    paper_utilization: float = 0.25,
    embedding_seed: int = 7,
) -> ConvergenceLossResult:
    """Run the convergence-loss comparison for one flow and one link failure.

    The failed link defaults to the middle link of the flow's shortest
    path.  Each behaviour is one simulation over ``[0, duration)``: every
    router forwards on the intact map until ``failure_time``, so a packet
    still upstream of the link at that instant meets the dead link, and one
    on the link is lost when it reaches the far end.  From
    then on the three behaviours differ, each from the schemes' router logic:

    * ``no-protection`` — the NoProtection logic (stale tables) throughout,
      the upper bound on loss;
    * ``re-convergence`` — each router switches from the NoProtection logic
      to the Reconvergence logic at its own FIB-update instant (from
      :class:`ReconvergenceModel`);
    * ``Packet Re-cycling`` — the NoProtection logic until the failure is
      detected (``detection_delay``), then the PR logic.
    """
    no_protection = NoProtection(graph)
    tables = no_protection.routing
    if failed_edge is None:
        path = tables.shortest_path(source, destination)
        if len(path) < 2:
            raise ExperimentError("source and destination must differ")
        # Fail the link in the middle of the path so that upstream routers
        # keep blindly forwarding towards it until they learn better.
        middle = len(path) // 2 - 1 if len(path) > 2 else 0
        failed_edge = tables.entry(path[middle], destination).egress.edge_id
    edge = graph.edge(failed_edge)

    reconvergence_model = reconvergence_model or ReconvergenceModel(
        detection_delay=detection_delay
    )
    timeline = reconvergence_model.convergence_delay(graph, failed_edge, failure_time)
    link_model = link_model or LinkModel()

    behaviours = convergence_behaviours(
        graph,
        failed_edge,
        timeline.updated_at,
        failure_time + detection_delay,
        embedding_seed,
        failure_time,
    )
    reports: Dict[str, SimulationReport] = {}
    for name, forwarder in behaviours.items():
        simulator = PacketLevelSimulator(graph, forwarder, link_model)
        simulator.add_flow(TrafficFlow(source, destination, rate_pps, 1000, 0.0, duration))
        reports[name] = simulator.run()

    outage_by_behaviour = {
        "no-protection": duration - failure_time,
        "re-convergence": max(0.0, timeline.converged_time - failure_time),
        "Packet Re-cycling": detection_delay,
    }
    extrapolated = {
        name: estimate_packets_lost(
            paper_link_rate_bps, paper_utilization, outage_by_behaviour[name]
        )
        for name in behaviours
    }

    return ConvergenceLossResult(
        topology=graph.name,
        failed_link=(edge.u, edge.v),
        convergence_time=timeline.converged_time - failure_time,
        reports=reports,
        extrapolated_losses=extrapolated,
    )
