"""Multi-homed prefix protection: the inter-domain extension of Section 7.

"Multihomed ISPs that receive several announcements for the same prefix via
different outgoing links can map this onto a connectivity graph, and use our
technique to obtain cycle following routes."

The construction here is the straightforward reading of that sketch: every
external prefix announced at several egress routers becomes a *virtual node*
attached to each announcing egress with a link whose weight reflects the
preference of that exit (e.g. the BGP MED or the IGP cost to the next hop).
Packet Re-cycling then runs on the augmented graph unchanged — a failure of
the preferred egress link (a peering going down or the announcement being
withdrawn) is just another link failure, recovered over the complementary
cycle towards another egress.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.scheme import PacketRecycling
from repro.embedding.builder import CellularEmbedding
from repro.errors import TopologyError
from repro.forwarding.engine import ForwardingOutcome
from repro.graph.multigraph import Graph
from repro.routing.discriminator import DiscriminatorKind


@dataclass(frozen=True)
class MultihomedPrefix:
    """One external prefix and the egress routers announcing it.

    Attributes
    ----------
    name:
        Identifier of the prefix (used as the virtual node name, prefixed
        with ``prefix:`` to avoid clashing with router names).
    egresses:
        ``(egress router, exit cost)`` pairs; at least two for the
        multi-homing case the paper describes (a single-homed prefix is
        allowed but cannot be protected against the loss of its only exit).
    """

    name: str
    egresses: Tuple[Tuple[str, float], ...]

    @property
    def virtual_node(self) -> str:
        """Name of the virtual node representing the prefix."""
        return f"prefix:{self.name}"


def augment_with_prefixes(
    graph: Graph, prefixes: Sequence[MultihomedPrefix]
) -> Tuple[Graph, Dict[Tuple[str, str], int]]:
    """Build the connectivity graph of Section 7.

    Returns the augmented copy of ``graph`` plus a mapping
    ``(prefix name, egress router) -> virtual edge id`` so that announcement
    withdrawals can be expressed as failures of the corresponding virtual
    link.
    """
    augmented = graph.copy(name=f"{graph.name}+prefixes")
    egress_edges: Dict[Tuple[str, str], int] = {}
    for prefix in prefixes:
        if not prefix.egresses:
            raise TopologyError(f"prefix {prefix.name!r} has no egress routers")
        virtual = prefix.virtual_node
        if augmented.has_node(virtual):
            raise TopologyError(f"duplicate prefix {prefix.name!r}")
        augmented.ensure_node(virtual)
        for router, cost in prefix.egresses:
            if not graph.has_node(router):
                raise TopologyError(
                    f"egress router {router!r} of prefix {prefix.name!r} is not in the topology"
                )
            edge_id = augmented.add_edge(router, virtual, max(1.0, float(cost)))
            egress_edges[(prefix.name, router)] = edge_id
    return augmented, egress_edges


class InterdomainPacketRecycling:
    """Packet Re-cycling over the intra-domain topology plus virtual prefixes."""

    def __init__(
        self,
        graph: Graph,
        prefixes: Sequence[MultihomedPrefix],
        discriminator_kind: DiscriminatorKind = DiscriminatorKind.HOP_COUNT,
        embedding: Optional[CellularEmbedding] = None,
        embedding_seed: Optional[int] = 0,
    ) -> None:
        self.base_graph = graph
        self.prefixes = {prefix.name: prefix for prefix in prefixes}
        self.graph, self._egress_edges = augment_with_prefixes(graph, prefixes)
        self.scheme = PacketRecycling(
            self.graph,
            embedding=embedding,
            discriminator_kind=discriminator_kind,
            embedding_seed=embedding_seed,
        )

    # ------------------------------------------------------------------
    # lookup helpers
    # ------------------------------------------------------------------
    def egress_edge(self, prefix_name: str, egress_router: str) -> int:
        """Virtual link id of one (prefix, egress) announcement."""
        try:
            return self._egress_edges[(prefix_name, egress_router)]
        except KeyError:
            raise TopologyError(
                f"prefix {prefix_name!r} is not announced at router {egress_router!r}"
            ) from None

    def preferred_egress(self, source: str, prefix_name: str) -> str:
        """Egress router the failure-free shortest path to the prefix exits at."""
        prefix = self._prefix(prefix_name)
        path = self.scheme.routing.shortest_path(source, prefix.virtual_node)
        return path[-2]

    def _prefix(self, prefix_name: str) -> MultihomedPrefix:
        try:
            return self.prefixes[prefix_name]
        except KeyError:
            raise TopologyError(f"unknown prefix {prefix_name!r}") from None

    # ------------------------------------------------------------------
    # forwarding
    # ------------------------------------------------------------------
    def deliver(
        self,
        source: str,
        prefix_name: str,
        failed_links: Iterable[int] = (),
        withdrawn_egresses: Iterable[str] = (),
    ) -> ForwardingOutcome:
        """Send a packet from ``source`` to an external prefix.

        ``failed_links`` are intra-domain link failures (edge ids of the base
        topology); ``withdrawn_egresses`` are routers whose announcement for
        this prefix has been withdrawn (or whose peering link has failed),
        modelled as failures of the corresponding virtual links.
        """
        prefix = self._prefix(prefix_name)
        failures: List[int] = list(failed_links)
        for router in withdrawn_egresses:
            failures.append(self.egress_edge(prefix_name, router))
        return self.scheme.deliver(source, prefix.virtual_node, failed_links=failures)

    def exit_router(self, outcome: ForwardingOutcome) -> Optional[str]:
        """The egress router a delivered packet actually left the domain through."""
        if not outcome.delivered or len(outcome.path) < 2:
            return None
        return outcome.path[-2]

    def header_overhead_bits(self) -> int:
        """Header budget of the augmented (prefix-aware) deployment."""
        return self.scheme.header_overhead_bits()
