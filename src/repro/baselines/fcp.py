"""Failure-Carrying Packets (Lakshminarayanan et al., SIGCOMM 2007).

FCP guarantees convergence-free delivery by making packets carry the set of
failed links they have encountered.  Every router forwards along the shortest
path computed on its link-state map *minus* the failures listed in the
header; when the chosen next hop is itself down the router appends that link
to the header and recomputes.  Delivery is guaranteed whenever the
destination remains reachable, at the cost of (a) header space proportional
to the number of carried failures and (b) an SPF computation per carried
failure combination at every hop — exactly the two overheads the paper's
Section 6 holds against FCP.
"""

from __future__ import annotations

from typing import Collection, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.errors import ProtocolError
from repro.forwarding.engine import ForwardingOutcome
from repro.forwarding.headers import link_identifier_bits
from repro.forwarding.network_state import NetworkState
from repro.forwarding.packets import Packet
from repro.forwarding.router import ForwardingDecision, RouterLogic
from repro.forwarding.scheme import ForwardingScheme
from repro.forwarding.walk import Counters, walk_many
from repro.graph.darts import Dart
from repro.graph.multigraph import Graph
from repro.graph.spcache import _LruDict, engine_for
from repro.routing.tables import RoutingTables, cached_routing_tables

#: Bound of the per-scheme SPF table memo: one entry per distinct
#: (router, carried failure set) the sweep's packets ever present.  An entry
#: is a flat first-hop list that pins no tree, so an eviction costs at most a
#: repaired tree the next time the entry is needed.
_SPF_TABLE_CACHE = 16384

#: Sentinel distinguishing "destination not resolved yet" from the cached
#: ``None`` of an unreachable destination in the first-hop lists.
_UNRESOLVED = object()

_NOTHING_CARRIED: FrozenSet[int] = frozenset()

#: Every FCP decision carries both counters (explicit zeros included), as
#: walk-kernel codes: one decision, plus a unit of each value.
_COUNTERS = Counters("spf_computations", "failures_recorded")
_DECIDED = _COUNTERS.code(spf_computations=0, failures_recorded=0)
_SPF_RUN = _COUNTERS.unit("spf_computations")
_FAILURE_RECORDED = _COUNTERS.unit("failures_recorded")


def _resolve(
    first_hops: List,
    parent: Dict[int, Tuple[int, int]],
    root_idx: int,
    root_darts: Dict[int, Dart],
    destinations: Iterable[int],
) -> None:
    """Resolve each still-unresolved destination of ``first_hops`` on ``parent``.

    A destination absent from ``parent`` (the root, or unreachable) gets
    ``None``.  Any other walks its parent chain up to the root's direct
    child, or to a node already resolved, and every node on the chain gets
    the first hop found.
    """
    for dest_idx in destinations:
        if first_hops[dest_idx] is not _UNRESOLVED:
            continue
        if dest_idx not in parent:
            first_hops[dest_idx] = None
            continue
        chain = []
        walk = dest_idx
        egress = _UNRESOLVED
        while egress is _UNRESOLVED:
            chain.append(walk)
            towards, edge_id = parent[walk]
            if towards == root_idx:
                egress = root_darts[edge_id]
            else:
                walk = towards
                egress = first_hops[walk]
        for link in chain:
            first_hops[link] = egress


class FcpLogic(RouterLogic):
    """Per-router FCP forwarding behaviour."""

    name = "Failure-Carrying Packets"

    def __init__(
        self,
        graph: Graph,
        routing: RoutingTables,
        state: NetworkState,
        # (node, carried failure set) -> first-hop list by destination
        # index; see _next_hop_indexed.
        spf_cache: _LruDict,
    ) -> None:
        self.graph = graph
        self.routing = routing
        self.state = state
        self._engine = engine_for(graph)
        # Cache of SPF results keyed by (node, carried failure set) so that the
        # per-packet computational cost can be modelled without redoing work for
        # identical headers; the counter still reports one SPF per recomputation
        # a real router would perform.  The scheme passes one shared cache to
        # every logic it builds: the key already pins the failure set, so a
        # table computed under one scenario is equally valid under any other,
        # and repeated (hop, carried-set) combinations across scenarios become
        # list lookups instead of full Dijkstra runs.
        self._spf_cache = spf_cache
        # node -> link id -> the dart leaving node on it: the one egress
        # object every first-hop list entry of that router shares.
        darts = self._engine.consumer_cache.get_or_none(("fcp-egress",))
        if darts is None:
            darts = {
                node: {dart.edge_id: dart for dart in graph.darts_out(node)}
                for node in graph.nodes()
            }
            self._engine.consumer_cache.put(("fcp-egress",), darts)
        self._egress_darts = darts

    def _next_hop_given_failures(
        self, node: str, destination: str, failures: FrozenSet[int]
    ) -> Optional[Dart]:
        """Egress dart of the shortest path on the map minus carried failures."""
        return self._next_hop_indexed(node, self._engine.compiled.index[destination], failures)

    def _next_hop_indexed(
        self, node: str, dest_idx: int, failures: FrozenSet[int]
    ) -> Optional[Dart]:
        """Same as :meth:`_next_hop_given_failures`, destination pre-indexed.

        A ``(router, carried set)`` entry is a flat list indexed by
        destination index: the egress dart, ``None`` when unreachable, or
        ``_UNRESOLVED``.  It pins no tree.  On a ``repair_safe`` graph a
        destination whose failure-free path from the router avoids every
        carried link keeps its distance and tie-broken parent chain under
        the carried set (the property incremental repair relies on), so its
        first hop is read off the failure-free tree.  The first destination
        whose path crosses a carried link (every destination, off
        ``repair_safe``) asks the engine for the carried-set tree, and one
        pass resolves every destination still unresolved from it; resolving
        an unaffected one from either tree gives the same first hop, so the
        entry never needs the tree again.
        """
        engine = self._engine
        compiled = engine.compiled
        cache_key = (node, failures)
        first_hops = self._spf_cache.get_or_none(cache_key)
        if first_hops is None:
            first_hops = [_UNRESOLVED] * len(compiled.names)
            self._spf_cache.put(cache_key, first_hops)
        egress = first_hops[dest_idx]
        if egress is not _UNRESOLVED:
            return egress
        _dist, parent, path_masks = engine._repair_base_for(node)
        # The router itself (mask 0) and a destination the failure-free tree
        # cannot reach (no mask) stay so under any carried set.
        path_mask = path_masks.get(dest_idx)
        destinations: Iterable[int] = (dest_idx,)
        if path_mask and (
            not compiled.repair_safe or path_mask & compiled.exclusion_mask(failures)
        ):
            # The carried links may reroute this destination: resolve every
            # destination still unresolved from the carried-set tree.
            parent = engine.sssp_tree(node, failures)[1]
            destinations = range(len(first_hops))
        _resolve(first_hops, parent, compiled.index[node], self._egress_darts[node], destinations)
        return first_hops[dest_idx]

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
        spf_runs = 0
        failures_added = 0

        for _attempt in range(self.graph.number_of_edges() + 1):
            carried = packet.header.known_failures()
            if carried:
                egress = self._next_hop_given_failures(node, destination, carried)
                spf_runs += 1
            else:
                egress = (
                    self.routing.egress(node, destination)
                    if self.routing.has_route(node, destination)
                    else None
                )
            if egress is None:
                return ForwardingDecision.drop(
                    "destination unreachable given carried failures",
                    spf_computations=spf_runs,
                    failures_recorded=failures_added,
                )
            if self.state.dart_usable(egress):
                return ForwardingDecision.forward(
                    egress, spf_computations=spf_runs, failures_recorded=failures_added
                )
            packet.header.record_failure(egress.edge_id)
            failures_added += 1
        raise ProtocolError("FCP failed to converge on a next hop; graph state inconsistent")


class FailureCarryingPackets(ForwardingScheme):
    """FCP packaged as a forwarding scheme."""

    name = "Failure-Carrying Packets"

    def __init__(self, graph: Graph) -> None:
        super().__init__(graph)
        self.routing = cached_routing_tables(graph)
        engine = engine_for(graph)
        self._engine = engine
        # Shared across every FCP instance of this topology content in this
        # process: first-hop lists are keyed by the carried failure set, so
        # they stay valid across scenarios, cells and campaign re-runs.
        self._spf_cache = engine.consumer_cache.get_or_none(("fcp-spf",))
        if self._spf_cache is None:
            self._spf_cache = _LruDict(_SPF_TABLE_CACHE)
            engine.consumer_cache.put(("fcp-spf",), self._spf_cache)

    def build_logic(self, state: NetworkState) -> RouterLogic:
        return FcpLogic(self.graph, self.routing, state, spf_cache=self._spf_cache)

    def deliver_many(
        self,
        pairs: Collection[tuple],
        failed_links: Iterable[int] = (),
    ) -> Dict[tuple, ForwardingOutcome]:
        """Sweep fast path: :func:`~repro.forwarding.walk.walk_many` over the SPF memo.

        The routing lane, and :meth:`FcpLogic.decide` at every other hop with
        its SPF recomputation served from the scheme-level memo.  The state
        is the carried failure set, ``None`` while it is empty.
        """
        state = self.check_query(pairs, failed_links)
        logic = FcpLogic(self.graph, self.routing, state, spf_cache=self._spf_cache)
        next_hop_indexed = logic._next_hop_indexed
        spf_get = self._spf_cache.get_or_none
        compiled = self._engine.compiled
        failed_mask = compiled.exclusion_mask(state.failed_edges)
        routing_entries = self.routing._entries
        index_of = compiled.index
        weight_of = compiled.edge_weight
        attempts_bound = self.graph.number_of_edges() + 1

        def decide(node: str, destination: str, ingress, carried) -> tuple:
            spf_runs = 0
            failures_added = 0
            if carried is None:
                carried = _NOTHING_CARRIED
            for _attempt in range(attempts_bound):
                if carried:
                    # Inlined hot path of _next_hop_indexed: both the
                    # first-hop list and the destination's entry in it are
                    # usually already memoized.
                    dest_idx = index_of[destination]
                    first_hops = spf_get((node, carried))
                    egress = _UNRESOLVED if first_hops is None else first_hops[dest_idx]
                    if egress is _UNRESOLVED:
                        egress = next_hop_indexed(node, dest_idx, carried)
                    spf_runs += 1
                else:
                    entry = routing_entries[node].get(destination)
                    egress = entry.egress if entry is not None else None
                if egress is None or not failed_mask & (1 << egress.edge_id):
                    break
                # The carried set only grows on recorded failures, so the
                # frozenset is rebuilt here rather than per SPF lookup.
                carried = carried | {egress.edge_id}
                failures_added += 1
            else:  # pragma: no cover - defensive, mirrors FcpLogic.decide
                raise ProtocolError(
                    "FCP failed to converge on a next hop; graph state inconsistent"
                )
            code = _DECIDED + spf_runs * _SPF_RUN + failures_added * _FAILURE_RECORDED
            if egress is None:
                return None, "destination unreachable given carried failures", None, None, code
            # FCP never reads the ingress; a link id keeps the kernel's loop
            # watch cheap to hash, where a Dart hashes in Python.
            edge_id = egress.edge_id
            return edge_id, egress.head, weight_of[edge_id], carried or None, code

        return walk_many(
            pairs, self.default_ttl(), failed_mask, self.routing.lane, decide, _COUNTERS,
            lane_code=_DECIDED,
        )

    def header_overhead_bits(self, carried_failures: int = 1) -> int:
        """Header bits for a packet carrying ``carried_failures`` link identifiers."""
        return carried_failures * link_identifier_bits(self.graph.number_of_edges())

    def router_memory_entries(self) -> int:
        """FCP needs the full link-state map at every router; count one entry per link."""
        return self.graph.number_of_nodes() * self.graph.number_of_edges()

    def online_computation_per_failure(self) -> int:
        """Shortest-path recomputations per newly carried failure at each hop: one."""
        return 1
