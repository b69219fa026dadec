"""No-protection baseline: packets hitting a failed link are simply lost.

This is the behaviour of plain shortest-path forwarding between the instant a
link dies and the completion of re-convergence — the quarter-of-a-million
dropped packets of the paper's introduction.  It provides the floor against
which every repair scheme's coverage is measured.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ProtocolError
from repro.forwarding.network_state import NetworkState
from repro.forwarding.packets import Packet
from repro.forwarding.router import ForwardingDecision, RouterLogic
from repro.forwarding.scheme import ForwardingScheme
from repro.graph.darts import Dart
from repro.routing.tables import RoutingTables, cached_routing_tables


class NoProtectionLogic(RouterLogic):
    """Forward on stale shortest-path tables; drop at the failure point."""

    name = "No protection"

    def __init__(self, routing: RoutingTables, state: NetworkState) -> None:
        self.routing = routing
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
        egress = self.routing.egress(node, destination)
        if self.state.dart_usable(egress):
            return ForwardingDecision.forward(egress)
        return ForwardingDecision.drop("next-hop link failed", failures_detected=1)


class NoProtection(ForwardingScheme):
    """Plain shortest-path forwarding with no repair mechanism at all."""

    name = "No protection"

    def __init__(self, graph) -> None:
        super().__init__(graph)
        self.routing = cached_routing_tables(graph)

    def build_logic(self, state: NetworkState) -> RouterLogic:
        return NoProtectionLogic(self.routing, state)
