"""Hop-by-hop forwarding engine.

The engine walks a packet from its source towards its destination, asking
the scheme's :class:`~repro.forwarding.router.RouterLogic` for a decision at
every router and enforcing the invariants that are independent of any scheme:

* a packet that reaches its destination is delivered;
* no router may forward onto a link that is currently down (that would be a
  protocol bug — failure detection is assumed local and immediate, as in the
  paper);
* the TTL bounds the number of hops, so a scheme that loops is reported as
  ``TTL_EXCEEDED`` rather than hanging the experiment.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional

from repro.errors import ProtocolError
from repro.forwarding.network_state import NetworkState
from repro.forwarding.packets import Packet
from repro.forwarding.router import Action, RouterLogic
from repro.graph.darts import Dart


class DeliveryStatus(str, enum.Enum):
    """Final status of a forwarding attempt."""

    DELIVERED = "delivered"
    DROPPED = "dropped"
    TTL_EXCEEDED = "ttl-exceeded"


class ForwardingOutcome:
    """Everything the experiments need to know about one packet's journey.

    A plain slotted class rather than a dataclass: sweeps create one outcome
    per (scenario, pair) packet, so construction cost is a measurable part
    of a campaign.
    """

    __slots__ = (
        "source",
        "destination",
        "status",
        "path",
        "cost",
        "hops",
        "drop_reason",
        "counters",
    )

    def __init__(
        self,
        source: str,
        destination: str,
        status: DeliveryStatus,
        path: List[str],
        cost: float,
        hops: int,
        drop_reason: Optional[str] = None,
        counters: Optional[Dict[str, float]] = None,
    ) -> None:
        self.source = source
        self.destination = destination
        self.status = status
        self.path = path
        self.cost = cost
        self.hops = hops
        self.drop_reason = drop_reason
        self.counters = counters if counters is not None else {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ForwardingOutcome):
            return NotImplemented
        return (
            self.source == other.source
            and self.destination == other.destination
            and self.status == other.status
            and self.path == other.path
            and self.cost == other.cost
            and self.hops == other.hops
            and self.drop_reason == other.drop_reason
            and self.counters == other.counters
        )

    @property
    def delivered(self) -> bool:
        """Whether the packet reached its destination."""
        return self.status is DeliveryStatus.DELIVERED

    def counter(self, name: str) -> float:
        """Value of an accounting counter (0 when the scheme never bumped it)."""
        return self.counters.get(name, 0.0)

    def __repr__(self) -> str:  # pragma: no cover - trivial formatting
        return (
            f"ForwardingOutcome({self.source}->{self.destination}, {self.status.value}, "
            f"hops={self.hops}, cost={self.cost:.3f})"
        )


class HopByHopEngine:
    """Drives one packet through the network under a given router logic."""

    def __init__(self, state: NetworkState, logic: RouterLogic) -> None:
        self.state = state
        self.logic = logic

    def forward_packet(self, packet: Packet) -> ForwardingOutcome:
        """Walk ``packet`` hop by hop until delivery, drop or TTL expiry."""
        graph = self.state.graph
        node = packet.source
        ingress: Optional[Dart] = None
        path = [node]
        cost = 0.0
        counters: Dict[str, float] = {}
        drop_reason: Optional[str] = None
        while True:
            if node == packet.destination:
                status = DeliveryStatus.DELIVERED
                break
            if packet.header.ttl <= 0:
                status = DeliveryStatus.TTL_EXCEEDED
                drop_reason = "ttl expired"
                break

            decision = self.logic.decide(node, ingress, packet, self.state)
            for name, value in decision.counters.items():
                counters[name] = counters.get(name, 0.0) + value

            if decision.action is Action.DROP:
                status = DeliveryStatus.DROPPED
                drop_reason = decision.drop_reason
                break
            if decision.action is Action.DELIVER:
                status = DeliveryStatus.DELIVERED
                break

            egress = decision.egress
            assert egress is not None  # guaranteed by ForwardingDecision
            if egress.tail != node:
                raise ProtocolError(
                    f"{self.logic.name}: router {node!r} tried to forward over "
                    f"{egress!r}, which does not leave it"
                )
            if not self.state.dart_usable(egress):
                raise ProtocolError(
                    f"{self.logic.name}: router {node!r} forwarded onto failed link "
                    f"{egress.edge_id} ({egress.tail}->{egress.head})"
                )

            cost += graph.weight(egress.edge_id)
            packet.header.ttl -= 1
            ingress = egress
            node = egress.head
            path.append(node)
        return ForwardingOutcome(
            source=packet.source,
            destination=packet.destination,
            status=status,
            path=path,
            cost=cost,
            hops=len(path) - 1,
            drop_reason=drop_reason,
            counters=counters,
        )

    def forward(self, source: str, destination: str, ttl: int = 255, size_bytes: int = 1000) -> ForwardingOutcome:
        """Convenience wrapper creating the packet and forwarding it."""
        packet = Packet(source, destination, size_bytes=size_bytes, ttl=ttl)
        return self.forward_packet(packet)
