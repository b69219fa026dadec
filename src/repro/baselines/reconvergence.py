"""Full routing re-convergence baseline.

For the stretch comparison of Figure 2 the interesting quantity is the path a
packet takes *after* the network has fully re-converged: the shortest path on
the failed topology.  (What happens *during* convergence — packets black-holed
onto the dead link — is simulated by :mod:`repro.simulator`, which switches
each router from stale tables to this logic at its own FIB-update instant;
the paper uses it as motivation rather than as a stretch data point.)
"""

from __future__ import annotations

from typing import Collection, Dict, Iterable, Optional, Tuple

from repro.errors import ProtocolError
from repro.forwarding.engine import ForwardingOutcome
from repro.forwarding.network_state import NetworkState
from repro.forwarding.packets import Packet
from repro.forwarding.router import ForwardingDecision, RouterLogic
from repro.forwarding.scheme import ForwardingScheme
from repro.forwarding.walk import Counters, Lane, walk_many
from repro.graph.darts import Dart
from repro.graph.multigraph import Graph
from repro.graph.spcache import ShortestPathEngine, engine_for


#: A re-converged forward carries ``spf_computations=0``; a drop carries nothing.
_COUNTERS = Counters("spf_computations")
_FORWARDED = _COUNTERS.code(spf_computations=0)


class ReconvergedLogic(RouterLogic):
    """Routers forward on shortest paths recomputed around the failures.

    A next hop is a parent pointer of the engine's memoized tree rooted at
    the destination on the failed map, read on the first packet for it.
    """

    name = "Re-convergence"

    def __init__(self, engine: ShortestPathEngine, state: NetworkState) -> None:
        self.engine = engine
        self.state = state
        self._trees: Dict[str, Dict[int, Tuple[int, int]]] = {}

    def decide(
        self,
        node: str,
        ingress: Optional[Dart],
        packet: Packet,
        state: NetworkState,
    ) -> ForwardingDecision:
        if state is not self.state:
            raise ProtocolError("router logic was built for a different network state")
        destination = packet.header.destination
        parent = self._trees.get(destination)
        if parent is None:
            parent = self.engine.sssp_tree(destination, state.failed_edges)[1]
            self._trees[destination] = parent
        hop = parent.get(self.engine.compiled.index[node])
        if hop is None:
            return ForwardingDecision.drop("destination unreachable after re-convergence")
        # The tree excludes the failed links, so the egress is up by
        # construction; the engine re-checks the invariant.
        return ForwardingDecision.forward(state.graph.dart(hop[1], node), spf_computations=0)


class Reconvergence(ForwardingScheme):
    """Idealised re-convergence: packets follow post-convergence shortest paths."""

    name = "Re-convergence"

    def __init__(self, graph: Graph) -> None:
        super().__init__(graph)
        # Resolved once: deliver_many runs once per scenario and the
        # signature hash behind engine_for is not free at sweep scale.
        self._engine = engine_for(graph)
        # A tree's parent pointer ``(towards, edge_id)`` -> its lane hop.
        names = self._engine.compiled.names
        self._lane_hops: Dict[Tuple[int, int], Tuple[str, int, float]] = {
            (end, edge_id): (names[end], 1 << edge_id, weight)
            for edge_id, (u, v, weight) in self._engine.compiled.edge_table.items()
            for end in (u, v)
        }

    def build_logic(self, state: NetworkState) -> RouterLogic:
        # Lazy per destination: one deliver pays for one (usually repaired)
        # tree, whatever the number of routers.
        return ReconvergedLogic(self._engine, state)

    def deliver_many(
        self,
        pairs: Collection[tuple],
        failed_links: Iterable[int] = (),
    ) -> Dict[tuple, ForwardingOutcome]:
        """Sweep fast path: :func:`~repro.forwarding.walk.walk_many` over converged trees.

        Each destination's lane is the engine's memoized tree rooted at it on
        the failed map (the trees :class:`ReconvergedLogic` reads); the
        decision only drops a packet whose destination is unreachable.
        """
        state = self.check_query(pairs, failed_links)
        engine = self._engine
        excluded = state.failed_edges
        compiled = engine.compiled
        names = compiled.names
        lane_hops = self._lane_hops

        def lane_of(destination: str) -> Lane:
            parent = engine.sssp_tree(destination, excluded)[1]
            return {names[node]: lane_hops[hop] for node, hop in parent.items()}

        def decide(node: str, destination: str, ingress, _state) -> tuple:
            return None, "destination unreachable after re-convergence", None, None, 0

        return walk_many(
            pairs, self.default_ttl(), compiled.exclusion_mask(excluded), lane_of, decide,
            _COUNTERS, lane_code=_FORWARDED,
        )

    def header_overhead_bits(self) -> int:
        """Re-convergence needs no extra header bits."""
        return 0

    def router_memory_entries(self) -> int:
        """No extra state beyond the ordinary routing table."""
        return 0

    def online_computation_per_failure(self) -> int:
        """Every router re-runs SPF once per failure event (plus floods LSAs)."""
        return self.graph.number_of_nodes()
