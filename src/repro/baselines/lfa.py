"""Loop-Free Alternates (RFC 5286) — a representative single-failure IPFRR scheme.

The paper's reference [2].  Each router precomputes, per destination, an
alternate neighbor whose own shortest path to the destination does not come
back through the protecting router (the loop-free condition
``dist(N, D) < dist(N, S) + dist(S, D)``).  On failure of the primary next
hop the router deflects the packet to the alternate without marking it; if no
loop-free alternate exists the packet is dropped.  LFA therefore covers many,
but not all, single failures and very few multi-failure combinations — which
is precisely why the paper compares against FCP and re-convergence instead.
"""

from __future__ import annotations

from typing import Collection, Dict, Iterable, List, Optional, Tuple

from repro.errors import ProtocolError
from repro.forwarding.engine import ForwardingOutcome
from repro.forwarding.network_state import NetworkState
from repro.forwarding.packets import Packet
from repro.forwarding.router import ForwardingDecision, RouterLogic
from repro.forwarding.scheme import ForwardingScheme
from repro.forwarding.walk import Counters, walk_many
from repro.graph.darts import Dart
from repro.graph.multigraph import Graph
from repro.graph.spcache import engine_for
from repro.routing.tables import RoutingTables, cached_routing_tables


#: The counters an LFA decision carries, as walk-kernel codes.
_COUNTERS = Counters("lfa_activations", "failures_detected")
_ACTIVATION = _COUNTERS.code(lfa_activations=1)
_DETECTED = _COUNTERS.code(failures_detected=1)


class LfaLogic(RouterLogic):
    """Primary next hop when it is up, precomputed loop-free alternate otherwise."""

    name = "Loop-Free Alternates"

    def __init__(
        self,
        routing: RoutingTables,
        alternates: Dict[Tuple[str, str], List[Dart]],
        state: NetworkState,
    ) -> None:
        self.routing = routing
        self.alternates = alternates
        self.state = state

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
        if not self.routing.has_route(node, destination):
            return ForwardingDecision.drop("no route to destination")
        primary = self.routing.egress(node, destination)
        if self.state.dart_usable(primary):
            return ForwardingDecision.forward(primary)
        for alternate in self.alternates.get((node, destination), []):
            if self.state.dart_usable(alternate):
                return ForwardingDecision.forward(alternate, lfa_activations=1)
        return ForwardingDecision.drop("no usable loop-free alternate", failures_detected=1)


class LoopFreeAlternates(ForwardingScheme):
    """LFA packaged as a forwarding scheme."""

    name = "Loop-Free Alternates"

    def __init__(self, graph: Graph) -> None:
        super().__init__(graph)
        self.routing = cached_routing_tables(graph)
        # Memoized on the per-process engine: the failure-free APSP is shared
        # with every other consumer of this topology (read-only).
        engine = engine_for(graph)
        self._engine = engine
        self._costs = engine.all_pairs_shortest_costs()
        self.alternates = self._compute_alternates()

    def _compute_alternates(self) -> Dict[Tuple[str, str], List[Dart]]:
        """Per (router, destination): loop-free alternate egresses, best first."""
        alternates: Dict[Tuple[str, str], List[Dart]] = {}
        for node in self.graph.nodes():
            for destination in self.graph.nodes():
                if node == destination or not self.routing.has_route(node, destination):
                    continue
                primary = self.routing.next_hop(node, destination)
                candidates: List[Tuple[float, Dart]] = []
                for neighbor, edge_id, _weight in self.graph.iter_adjacent(node):
                    if neighbor == primary:
                        continue
                    dist_nd = self._costs[neighbor].get(destination)
                    dist_ns = self._costs[neighbor].get(node)
                    dist_sd = self._costs[node].get(destination)
                    if dist_nd is None or dist_ns is None or dist_sd is None:
                        continue
                    # RFC 5286 inequality 1: the alternate must not loop back.
                    if dist_nd < dist_ns + dist_sd:
                        candidates.append((dist_nd, self.graph.dart(edge_id, node)))
                candidates.sort(key=lambda item: (item[0], item[1].head, item[1].edge_id))
                if candidates:
                    alternates[(node, destination)] = [dart for _cost, dart in candidates]
        return alternates

    def build_logic(self, state: NetworkState) -> RouterLogic:
        return LfaLogic(self.routing, self.alternates, state)

    def deliver_many(
        self,
        pairs: Collection[tuple],
        failed_links: Iterable[int] = (),
    ) -> Dict[tuple, ForwardingOutcome]:
        """Sweep fast path: :func:`~repro.forwarding.walk.walk_many` over the primaries.

        The routing lane, and :meth:`LfaLogic.decide` where a primary is down
        or missing.  LFA headers carry nothing, so every state is ``None``.
        """
        state = self.check_query(pairs, failed_links)
        compiled = self._engine.compiled
        failed_mask = compiled.exclusion_mask(state.failed_edges)
        routing_entries = self.routing._entries
        alternates = self.alternates
        weight_of = compiled.edge_weight

        def decide(node: str, destination: str, ingress, _state) -> tuple:
            # Called only where the primary is down or missing.
            if destination not in routing_entries[node]:
                return None, "no route to destination", None, None, 0
            for alternate in alternates.get((node, destination), ()):
                if not failed_mask & (1 << alternate.edge_id):
                    return (alternate, alternate.head, weight_of[alternate.edge_id], None,
                            _ACTIVATION)
            return None, "no usable loop-free alternate", None, None, _DETECTED

        return walk_many(
            pairs, self.default_ttl(), failed_mask, self.routing.lane, decide, _COUNTERS
        )

    def header_overhead_bits(self) -> int:
        """LFA needs no header changes."""
        return 0

    def router_memory_entries(self) -> int:
        """One stored alternate per protected (router, destination) pair."""
        return len(self.alternates)

    def online_computation_per_failure(self) -> int:
        """Switching to a precomputed alternate requires no recomputation."""
        return 0
