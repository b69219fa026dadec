"""The Packet Re-cycling forwarding protocol (Sections 4.2 and 4.3).

Two router logics are provided:

* :class:`SimplePacketRecyclingLogic` — the one-bit protocol of Section 4.2.
  It guarantees recovery from any *single* link failure in 2-connected
  networks but, as the paper shows with Figure 1(c), can loop forever under
  some multi-failure combinations.
* :class:`PacketRecyclingLogic` — the full protocol with the
  decreasing-distance termination condition of Section 4.3.  The paper
  claims recovery from any combination of link failures that leaves the
  network connected.  As measured here, that holds on every planar map
  tested (embedded on the sphere), but an embedding of genus >= 1 can loop:
  on K3,3, embedded on the torus, 72 of the 1,080 dual-failure attempts
  expire their TTL (``tests/baselines/test_fastpath_equivalence.py``).

Both logics make strictly local decisions: the only inputs of a decision are
the failure state of the router's own interfaces, the precomputed
failure-free routing table, the precomputed cycle following table and the two
header fields (PR bit, DD bits).
"""

from __future__ import annotations

from typing import Optional

from repro.core.tables import CycleFollowingTables
from repro.errors import ProtocolError
from repro.forwarding.network_state import NetworkState
from repro.forwarding.packets import Packet
from repro.forwarding.router import ForwardingDecision, RouterLogic
from repro.graph.darts import Dart
from repro.routing.tables import RoutingTables


class _PacketRecyclingBase(RouterLogic):
    """State shared by both protocol variants."""

    def __init__(
        self,
        routing: RoutingTables,
        cycle_tables: CycleFollowingTables,
        state: NetworkState,
    ) -> None:
        self.routing = routing
        self.cycle_tables = cycle_tables
        self.state = state

    # ------------------------------------------------------------------
    # shared building blocks
    # ------------------------------------------------------------------
    def _routing_egress(self, node: str, destination: str) -> Optional[Dart]:
        """Failure-free routing table egress, or ``None`` if no route exists."""
        if not self.routing.has_route(node, destination):
            return None
        return self.routing.egress(node, destination)

    def _follow_complementary(
        self, node: str, failed_outgoing: Dart
    ) -> Optional[Dart]:
        """First usable interface found by repeated failure avoidance.

        The complementary next hop of a failed interface may itself be down;
        the protocol then treats that as a further failure met while cycle
        following at the same router and applies failure avoidance again
        (the DD comparison is a no-op at this point because the router's own
        discriminator cannot be smaller than the one it just wrote).  After
        one full turn of the rotation every interface has been tried and the
        router is isolated.
        """
        candidate = failed_outgoing
        for _attempt in range(self.state.graph.degree(node)):
            candidate = self.cycle_tables.failure_avoidance_next(node, candidate)
            if self.state.dart_usable(candidate):
                return candidate
        return None

    def _route_normally(self, node: str, packet: Packet) -> ForwardingDecision:
        """Shortest-path forwarding, falling back to PR when the egress is down."""
        destination = packet.header.destination
        egress = self._routing_egress(node, destination)
        if egress is None:
            return ForwardingDecision.drop("no route to destination in routing table")
        if self.state.dart_usable(egress):
            return ForwardingDecision.forward(egress)
        return self._start_recycling(node, egress, packet)

    def _start_recycling(
        self, node: str, failed_egress: Dart, packet: Packet
    ) -> ForwardingDecision:
        """Failure detected while routing: mark the packet and begin cycle following."""
        self._mark(node, packet)
        backup = self._follow_complementary(node, failed_egress)
        if backup is None:
            return ForwardingDecision.drop(
                "all interfaces failed at the detecting router", failures_detected=1
            )
        return ForwardingDecision.forward(backup, failures_detected=1, recycling_started=1)

    def _mark(self, node: str, packet: Packet) -> None:
        """Set the header fields when a failure is first detected (subclass hook)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # RouterLogic interface
    # ------------------------------------------------------------------
    def decide(
        self,
        node: str,
        ingress: Optional[Dart],
        packet: Packet,
        state: NetworkState,
    ) -> ForwardingDecision:
        if state is not self.state:
            raise ProtocolError("router logic was built for a different network state")
        if not packet.header.pr_bit:
            return self._route_normally(node, packet)
        if ingress is None:
            raise ProtocolError("a packet cannot originate with the PR bit already set")
        return self._cycle_follow(node, ingress, packet)

    def _cycle_follow(self, node: str, ingress: Dart, packet: Packet) -> ForwardingDecision:
        raise NotImplementedError


class SimplePacketRecyclingLogic(_PacketRecyclingBase):
    """The one-bit protocol of Section 4.2.

    A marked packet is forwarded along the cycle following column; when the
    cycle-following interface is down the router interprets this as the
    termination signal, clears the PR bit and resumes shortest-path routing
    (which may in turn detect a new failure and re-mark the packet).
    """

    name = "Packet Re-cycling (1-bit)"

    def _mark(self, node: str, packet: Packet) -> None:
        packet.header.mark_recycling(dd_value=0.0)
        packet.header.dd_value = None  # the simple protocol has no DD bits

    def _cycle_follow(self, node: str, ingress: Dart, packet: Packet) -> ForwardingDecision:
        outgoing = self.cycle_tables.cycle_following_next(node, ingress)
        if self.state.dart_usable(outgoing):
            return ForwardingDecision.forward(outgoing, cycle_following_hops=1)
        # Termination condition: the failure is encountered again (or another
        # failure is hit) — resume shortest-path routing.
        packet.header.clear_recycling()
        return self._route_normally(node, packet)


class PacketRecyclingLogic(_PacketRecyclingBase):
    """The full protocol with the decreasing-distance termination condition.

    Section 4.3: the first failure-detecting router writes its own distance
    discriminator to the destination into the DD bits.  A router that meets a
    further failure while cycle following compares its own discriminator with
    the DD bits: strictly smaller → clear the PR bit and resume shortest-path
    routing; larger or equal → keep cycle following along the complementary
    cycle of the newly failed interface.
    """

    name = "Packet Re-cycling"

    def _mark(self, node: str, packet: Packet) -> None:
        destination = packet.header.destination
        packet.header.mark_recycling(self.routing.discriminator(node, destination))

    def _cycle_follow(self, node: str, ingress: Dart, packet: Packet) -> ForwardingDecision:
        outgoing = self.cycle_tables.cycle_following_next(node, ingress)
        if self.state.dart_usable(outgoing):
            return ForwardingDecision.forward(outgoing, cycle_following_hops=1)

        destination = packet.header.destination
        own = self.routing.discriminator(node, destination)
        in_packet = packet.header.dd_value
        if in_packet is None:
            raise ProtocolError("marked packet carries no distance discriminator")

        if own < in_packet:
            # Termination: this router is strictly closer to the destination
            # than the router that marked the packet.
            packet.header.clear_recycling()
            return self._route_normally(node, packet)

        backup = self._follow_complementary(node, outgoing)
        if backup is None:
            return ForwardingDecision.drop(
                "all interfaces failed while cycle following", failures_detected=1
            )
        return ForwardingDecision.forward(backup, failures_detected=1, cycle_following_hops=1)
