"""Failure-free shortest-path routing tables with the PR distance column.

Every PR-enabled router "initialises the protocol by constructing its routing
table using a conventional shortest path algorithm" (Section 2) and stores,
per destination, the *distance discriminator* of Section 4.3.  This module
computes those tables for the whole network in one pass (one Dijkstra per
destination) and exposes per-router lookups used by the forwarding engine.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import NoPathExists, RoutingError
from repro.graph.darts import Dart
from repro.graph.multigraph import Graph
from repro.graph.spcache import ShortestPathEngine, engine_for
from repro.routing.discriminator import DiscriminatorKind, discriminator_value


class RoutingEntry:
    """One row of a router's routing table for a single destination."""

    __slots__ = ("destination", "next_hop", "egress", "cost", "hops", "discriminator")

    def __init__(
        self,
        destination: str,
        next_hop: str,
        egress: Dart,
        cost: float,
        hops: int,
        discriminator: float,
    ) -> None:
        self.destination = destination
        self.next_hop = next_hop
        self.egress = egress
        self.cost = cost
        self.hops = hops
        self.discriminator = discriminator

    def __repr__(self) -> str:  # pragma: no cover - trivial formatting
        return (
            f"RoutingEntry(dest={self.destination}, next={self.next_hop}, "
            f"cost={self.cost}, dd={self.discriminator})"
        )


class RoutingTables:
    """Routing tables of every router, computed on the failure-free topology."""

    def __init__(
        self,
        graph: Graph,
        discriminator_kind: DiscriminatorKind = DiscriminatorKind.HOP_COUNT,
        excluded_edges: Optional[Iterable[int]] = None,
        engine: Optional[ShortestPathEngine] = None,
    ) -> None:
        self.graph = graph
        self.discriminator_kind = discriminator_kind
        self._excluded = frozenset(excluded_edges or ())
        self._engine = engine if engine is not None else engine_for(graph)
        # _entries[node][destination] -> RoutingEntry
        self._entries: Dict[str, Dict[str, RoutingEntry]] = {
            node: {} for node in graph.nodes()
        }
        self._lanes: Dict[str, Dict[str, Tuple[str, int, float]]] = {}
        self._build()

    @property
    def excluded_edges(self) -> frozenset:
        """The failed links these tables were computed without."""
        return self._excluded

    def _build(self) -> None:
        for destination in self.graph.nodes():
            # Memoized per (topology content, destination, excluded set): one
            # Dijkstra per destination per process, not per consumer.
            dist, parent = self._engine.sssp(destination, self._excluded)
            hops = self._hop_counts(destination, dist, parent)
            for node, (towards, edge_id) in parent.items():
                # ``towards`` is the next hop of ``node`` on its way to the
                # destination (Dijkstra ran from the destination and the graph
                # is undirected with symmetric weights).
                egress = self.graph.dart(edge_id, node)
                entry = RoutingEntry(
                    destination=destination,
                    next_hop=towards,
                    egress=egress,
                    cost=dist[node],
                    hops=hops[node],
                    discriminator=discriminator_value(
                        self.discriminator_kind, hops[node], dist[node]
                    ),
                )
                self._entries[node][destination] = entry

    @staticmethod
    def _hop_counts(
        destination: str,
        dist: Dict[str, float],
        parent: Dict[str, Tuple[str, int]],
    ) -> Dict[str, int]:
        """Hop count of every node along its shortest path to the destination."""
        hops: Dict[str, int] = {destination: 0}
        for node in sorted(parent, key=lambda name: dist[name]):
            towards, _edge_id = parent[node]
            hops[node] = hops[towards] + 1
        return hops

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def entry(self, node: str, destination: str) -> RoutingEntry:
        """The routing entry of ``node`` for ``destination``.

        Raises :class:`~repro.errors.NoPathExists` when the destination is
        unreachable on the (failure-free) topology the tables were built on.
        """
        if node == destination:
            raise RoutingError(f"node {node!r} does not route to itself")
        try:
            return self._entries[node][destination]
        except KeyError:
            raise NoPathExists(node, destination) from None

    def has_route(self, node: str, destination: str) -> bool:
        """Whether ``node`` has a route to ``destination``."""
        return destination in self._entries.get(node, {})

    def next_hop(self, node: str, destination: str) -> str:
        """Next-hop router of ``node`` towards ``destination``."""
        return self.entry(node, destination).next_hop

    def egress(self, node: str, destination: str) -> Dart:
        """Outgoing dart (interface) of ``node`` towards ``destination``."""
        return self.entry(node, destination).egress

    def cost(self, node: str, destination: str) -> float:
        """Shortest-path cost from ``node`` to ``destination``."""
        if node == destination:
            return 0.0
        return self.entry(node, destination).cost

    def hops(self, node: str, destination: str) -> int:
        """Shortest-path hop count from ``node`` to ``destination``."""
        if node == destination:
            return 0
        return self.entry(node, destination).hops

    def discriminator(self, node: str, destination: str) -> float:
        """Distance discriminator of ``node`` for ``destination`` (Section 4.3)."""
        if node == destination:
            return 0.0
        return self.entry(node, destination).discriminator

    def lane(self, destination: str) -> Dict[str, Tuple[str, int, float]]:
        """Every router's table forward toward ``destination``, as a walk lane.

        ``node -> (next hop, egress link bitmask, link weight)`` for every
        router with a route (see :mod:`repro.forwarding.walk`); built on the
        first request for the destination, then memoized.
        """
        lane = self._lanes.get(destination)
        if lane is None:
            weight_of = self._engine.compiled.edge_weight
            lane = self._lanes[destination] = {
                node: (entry.next_hop, 1 << entry.egress.edge_id, weight_of[entry.egress.edge_id])
                for node, entries in self._entries.items()
                if (entry := entries.get(destination)) is not None
            }
        return lane

    def table_of(self, node: str) -> List[RoutingEntry]:
        """All routing entries of one router, sorted by destination."""
        return [self._entries[node][dest] for dest in sorted(self._entries[node])]

    def shortest_path(self, source: str, destination: str) -> List[str]:
        """Node sequence obtained by following next hops from ``source``."""
        if source == destination:
            return [source]
        path = [source]
        node = source
        while node != destination:
            node = self.next_hop(node, destination)
            path.append(node)
            if len(path) > self.graph.number_of_nodes():
                raise RoutingError(
                    f"routing tables loop between {source!r} and {destination!r}"
                )
        return path

    def memory_entries(self) -> int:
        """Total number of routing entries across all routers (memory accounting)."""
        return sum(len(entries) for entries in self._entries.values())

    def __repr__(self) -> str:  # pragma: no cover - trivial formatting
        return (
            f"RoutingTables({self.graph.name!r}, nodes={len(self._entries)}, "
            f"kind={self.discriminator_kind.value})"
        )


def build_routing_tables(
    graph: Graph,
    discriminator_kind: DiscriminatorKind = DiscriminatorKind.HOP_COUNT,
    excluded_edges: Optional[Iterable[int]] = None,
) -> RoutingTables:
    """Convenience constructor mirroring the paper's initialisation step."""
    return RoutingTables(graph, discriminator_kind, excluded_edges)


def cached_routing_tables(
    graph: Graph,
    discriminator_kind: DiscriminatorKind = DiscriminatorKind.HOP_COUNT,
) -> RoutingTables:
    """Shared failure-free routing tables for one (topology content, kind).

    Tables are immutable after construction, so every consumer in a process
    (the schemes' offline state, the stretch baseline) receives the same
    instance.  The memo lives on the per-content
    :class:`~repro.graph.spcache.ShortestPathEngine`, so a mutated graph
    naturally resolves to fresh tables.
    """
    engine = engine_for(graph)
    key = ("routing-tables", discriminator_kind)
    tables = engine.consumer_cache.get_or_none(key)
    if tables is None:
        tables = RoutingTables(graph, discriminator_kind, engine=engine)
        engine.consumer_cache.put(key, tables)
    return tables
