"""Full routing re-convergence: the paper's second comparison point.

Traditional link-state re-convergence floods the failure throughout the
network, lets every router re-run SPF and install new FIB entries.  This
module models the **transient** (:class:`ReconvergenceModel` /
:class:`ConvergenceTimeline`): how long each router forwards onto a dead
link before its new tables are in place, which drives the packet-loss
estimate of the introduction (a heavily loaded OC-192 link down for one
second loses on the order of a quarter of a million 1 kB packets).

The **end state**, shortest paths recomputed on the failed topology, is the
:class:`~repro.baselines.reconvergence.Reconvergence` scheme's router logic;
the simulator switches each router to it at the router's ``updated_at``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.graph.multigraph import Graph
from repro.graph.spcache import hop_engine_for


@dataclass
class ConvergenceTimeline:
    """Per-router timeline of one re-convergence episode (seconds).

    Attributes
    ----------
    failure_time:
        Instant the link went down.
    detection_time:
        Instant the adjacent routers declared the link dead.
    updated_at:
        Instant each router finished installing its new FIB.
    converged_time:
        Instant the last router finished (network-wide convergence).
    """

    failure_time: float
    detection_time: float
    updated_at: Dict[str, float] = field(default_factory=dict)

    @property
    def converged_time(self) -> float:
        if not self.updated_at:
            return self.detection_time
        return max(self.updated_at.values())

    def blackhole_duration(self, node: str) -> float:
        """How long ``node`` kept forwarding onto stale routes after the failure."""
        return max(0.0, self.updated_at.get(node, self.detection_time) - self.failure_time)


class ReconvergenceModel:
    """Timing model of link-state re-convergence.

    The model is deliberately simple and conservative, following the standard
    decomposition used in the IP fast-reroute literature: failure detection,
    LSA origination, hop-by-hop flooding, SPF computation and FIB update.
    All parameters are per-event constants; flooding time grows with the
    hop distance from the failure.
    """

    def __init__(
        self,
        detection_delay: float = 0.05,
        lsa_origination_delay: float = 0.01,
        per_hop_flooding_delay: float = 0.01,
        spf_computation_delay: float = 0.1,
        fib_update_delay: float = 0.5,
    ) -> None:
        self.detection_delay = detection_delay
        self.lsa_origination_delay = lsa_origination_delay
        self.per_hop_flooding_delay = per_hop_flooding_delay
        self.spf_computation_delay = spf_computation_delay
        self.fib_update_delay = fib_update_delay

    def convergence_delay(self, graph: Graph, failed_edge: int, failure_time: float = 0.0) -> ConvergenceTimeline:
        """Timeline of the re-convergence episode triggered by one link failure.

        Flooding distances are measured on the topology *without* the failed
        link (LSAs cannot cross it).
        """
        edge = graph.edge(failed_edge)
        detection = failure_time + self.detection_delay
        origination = detection + self.lsa_origination_delay

        # Flooding distances are hop counts on the failed topology; the
        # shared unit-weight engine memoizes (and incrementally repairs) the
        # per-endpoint trees instead of copying the graph per episode.  The
        # per-call content lookup (a graph-signature hash) is kept on
        # purpose: it is what lets a mutated graph resolve to a fresh engine.
        hop_engine = hop_engine_for(graph)
        excluded = frozenset((failed_edge,))
        distances: Dict[str, float] = {}
        for endpoint in (edge.u, edge.v):
            dist = hop_engine.sssp(endpoint, excluded)[0]
            for node, hops in dist.items():
                if node not in distances or hops < distances[node]:
                    distances[node] = hops

        timeline = ConvergenceTimeline(failure_time=failure_time, detection_time=detection)
        for node in graph.nodes():
            hops = distances.get(node)
            if hops is None:
                # Node cut off from the failure endpoints; it never learns and
                # never updates — model it as converging at detection time
                # since its routes cannot involve the failed link anyway.
                timeline.updated_at[node] = detection
                continue
            timeline.updated_at[node] = (
                origination
                + hops * self.per_hop_flooding_delay
                + self.spf_computation_delay
                + self.fib_update_delay
            )
        return timeline

    def network_convergence_time(self, graph: Graph, failed_edge: int) -> float:
        """Seconds from failure until the last router has re-converged."""
        timeline = self.convergence_delay(graph, failed_edge)
        return timeline.converged_time - timeline.failure_time
