"""Packet Re-cycling packaged as a :class:`ForwardingScheme`.

These wrappers bundle the offline stage (embedding → cycle following tables,
shortest paths → routing tables with the DD column) with the forwarding-time
logic, and expose the overhead accounting used by the evaluation section.
"""

from __future__ import annotations

from typing import Collection, Dict, Iterable, List, Optional

from repro.core.protocol import PacketRecyclingLogic, SimplePacketRecyclingLogic
from repro.core.tables import CycleFollowingTables
from repro.embedding.builder import CellularEmbedding, embed
from repro.errors import NoPathExists, ProtocolError
from repro.forwarding.engine import DeliveryStatus, ForwardingOutcome
from repro.forwarding.network_state import NetworkState
from repro.forwarding.router import RouterLogic
from repro.forwarding.scheme import ForwardingScheme
from repro.graph.multigraph import Graph
from repro.routing.discriminator import DiscriminatorKind, discriminator_bits_required
from repro.routing.tables import cached_routing_tables


class PacketRecycling(ForwardingScheme):
    """The full Packet Re-cycling scheme (Section 4.3).

    Parameters
    ----------
    graph:
        Connected network topology.
    embedding:
        Precomputed cellular embedding; computed with the default heuristics
        when omitted (this mirrors the paper's offline server step).
    discriminator_kind:
        Which distance discriminator the DD bits carry (hop count by
        default, matching the paper's examples).
    embedding_method, embedding_seed:
        Forwarded to :func:`repro.embedding.embed` when the embedding is not
        supplied.
    """

    name = "Packet Re-cycling"

    def __init__(
        self,
        graph: Graph,
        embedding: Optional[CellularEmbedding] = None,
        discriminator_kind: DiscriminatorKind = DiscriminatorKind.HOP_COUNT,
        embedding_method: str = "auto",
        embedding_seed: Optional[int] = None,
    ) -> None:
        super().__init__(graph)
        self.embedding = embedding if embedding is not None else embed(
            graph, method=embedding_method, seed=embedding_seed
        )
        self.discriminator_kind = discriminator_kind
        self.routing = cached_routing_tables(graph, discriminator_kind)
        self.cycle_tables = CycleFollowingTables(self.embedding)
        # Flattened lookup tables for the deliver_many fast path, built
        # lazily because ``deliver`` (the engine reference path) never needs
        # them.
        self._flat: Optional[tuple] = None

    #: Set by the 1-bit subclass: selects the Section 4.2 termination rule
    #: in the deliver_many fast path.
    _walk_simple = False

    def build_logic(self, state: NetworkState) -> RouterLogic:
        return PacketRecyclingLogic(self.routing, self.cycle_tables, state)

    def _flat_tables(self) -> tuple:
        """Int-coded cycle-following and failure-avoidance successor tables.

        Ingress darts are globally unique, so both three-column tables of
        every router flatten into two lists indexed by dart code (the dart's
        position in ``darts``).  An entry is the successor's ``(code, edge
        bitmask, weight, head)``, so one index answers both "where next" and
        "what does that hop cost"; ``cycle_next`` holds ``None`` for a dart
        without a cycle-following row.
        """
        if self._flat is None:
            darts = self.graph.darts()
            code_of = {dart: code for code, dart in enumerate(darts)}
            weight_of = {edge.edge_id: edge.weight for edge in self.graph.edges()}

            def step(dart) -> tuple:
                return (code_of[dart], 1 << dart.edge_id, weight_of[dart.edge_id], dart.head)

            cycle_next: List[Optional[tuple]] = [None] * len(darts)
            for node in self.graph.nodes():
                for ingress, row in self.cycle_tables.table_at(node)._rows.items():
                    cycle_next[code_of[ingress]] = step(row.cycle_following)
            complementary_next = self.cycle_tables.embedding.complementary_next
            avoid_next = [step(complementary_next(dart)) for dart in darts]
            degree_of = {node: self.graph.degree(node) for node in self.graph.nodes()}
            self._flat = (darts, code_of, cycle_next, avoid_next, degree_of, weight_of)
        return self._flat

    def deliver_many(
        self,
        pairs: Collection[tuple],
        failed_links: Iterable[int] = (),
    ) -> Dict[tuple, ForwardingOutcome]:
        """Sweep fast path: run the PR forwarding loop without the engine.

        Replicates :class:`~repro.core.protocol.PacketRecyclingLogic` (or the
        1-bit variant) plus the hop-by-hop engine bookkeeping in one flat
        loop over table lookups — identical paths, costs, counters, drop
        reasons and header evolution (asserted by the fast-path equivalence
        tests).  :meth:`ForwardingScheme.deliver` still runs the real engine
        and remains the reference implementation.

        Two exact shortcuts skip walking what is already determined:

        * **Shared continuations.**  A normal-mode decision (PR bit clear at
          the top of a hop) reads only the routing entry of ``(node,
          destination)`` and the failure set, never the ingress or the
          header, so within one call the rest of the walk from there is the
          same for every packet.  Walks that end delivered or dropped donate
          their suffix from each such state; a later walk reaching one takes
          it when its hops so far plus the suffix fit the TTL, replaying the
          suffix weights hop by hop so the float cost is unchanged.
        * **Loop fast-forward.**  The walk is a deterministic automaton over
          (egress, DD value) right after each failure-detecting decision, and
          every forwarding loop passes through one.  When such a state
          recurs, whole rounds of the cycle are appended at once (counters
          scaled by the round count) and the loop walks the last partial
          round to TTL expiry as usual.
        """
        state = self.check_query(pairs, failed_links)
        failed_mask = self.routing._engine.compiled.exclusion_mask(state.failed_edges)
        routing_entries = self.routing._entries
        darts, code_of, cycle_next, avoid_next, degree_of, weight_of = self._flat_tables()
        ttl_budget = self.default_ttl()
        simple = self._walk_simple
        delivered_status = DeliveryStatus.DELIVERED
        # destination -> {node: (path, weights, index, status, drop_reason,
        # detected, recycled, cycle_hops)}: the donor walk's path from
        # ``path[index] == node`` on, its hop weights ``weights[index:]``,
        # its end and the counter deltas of that suffix.
        continuations: Dict[str, Dict[str, tuple]] = {}
        outcomes: Dict[tuple, ForwardingOutcome] = {}
        for pair in pairs:
            source, destination = pair
            shared = continuations.get(destination)
            if shared is None:
                shared = continuations[destination] = {}
            node = source
            ingress = None
            pr_bit = False
            dd_value: Optional[float] = None
            path = [node]
            weights: list = []
            cost = 0.0
            ttl = ttl_budget
            n_detected = 0
            n_recycled = 0
            n_cycle_hops = 0
            status = None
            drop_reason = None
            egress = None
            # (path index, counters) at every normal-mode hop top: the
            # states this walk donates if it ends delivered or dropped.
            marks: list = []
            # (egress, dd_value) -> (path length, counters) right after each
            # failure-detecting decision; None once fast-forwarded.
            detections: Optional[Dict[tuple, tuple]] = {}
            while True:
                if node == destination:
                    status = delivered_status
                    break
                if ttl <= 0:
                    status = DeliveryStatus.TTL_EXCEEDED
                    drop_reason = "ttl expired"
                    break
                if not pr_bit:
                    donor = shared.get(node)
                    if donor is not None:
                        (d_path, d_weights, at, d_status, d_reason,
                         d_detected, d_recycled, d_cycle_hops) = donor
                        suffix_hops = len(d_path) - 1 - at
                        if suffix_hops < ttl or (
                            suffix_hops == ttl and d_status is delivered_status
                        ):
                            path += d_path[at + 1:]
                            suffix_weights = d_weights[at:]
                            for hop_weight in suffix_weights:
                                cost += hop_weight
                            weights += suffix_weights
                            n_detected += d_detected
                            n_recycled += d_recycled
                            n_cycle_hops += d_cycle_hops
                            status = d_status
                            drop_reason = d_reason
                            break
                    marks.append((len(path) - 1, n_detected, n_recycled, n_cycle_hops))
                # --- the router's decision (protocol.py, inlined) ---
                detected = False
                while True:
                    if not pr_bit:
                        # _route_normally
                        entry = routing_entries[node].get(destination)
                        if entry is None:
                            status = DeliveryStatus.DROPPED
                            drop_reason = "no route to destination in routing table"
                            break
                        routed = entry.egress
                        if not failed_mask & (1 << routed.edge_id):
                            hop_weight = weight_of[routed.edge_id]
                            hop_head = routed.head
                            egress = None  # never read: the next hop is normal
                            break  # plain shortest-path forward, no counters
                        # _start_recycling: mark the header, then failure
                        # avoidance from the failed egress.
                        pr_bit = True
                        dd_value = None if simple else entry.discriminator
                        candidate = code_of[routed]
                        backup = None
                        for _attempt in range(degree_of[node]):
                            candidate, edge_bit, hop_weight, hop_head = avoid_next[candidate]
                            if not failed_mask & edge_bit:
                                backup = candidate
                                break
                        n_detected += 1
                        if backup is None:
                            status = DeliveryStatus.DROPPED
                            drop_reason = "all interfaces failed at the detecting router"
                            break
                        n_recycled += 1
                        egress = backup
                        detected = True
                        break
                    # _cycle_follow
                    cycle_step = cycle_next[ingress]
                    if cycle_step is None:  # pragma: no cover - mirrors row_for_ingress
                        raise ProtocolError(
                            f"router {node!r} has no cycle-following row for "
                            f"ingress {darts[ingress]!r}"
                        )
                    outgoing, edge_bit, hop_weight, hop_head = cycle_step
                    if not failed_mask & edge_bit:
                        n_cycle_hops += 1
                        egress = outgoing
                        break
                    if simple:
                        # Section 4.2 termination: resume shortest-path routing.
                        pr_bit = False
                        dd_value = None
                        continue
                    entry = routing_entries[node].get(destination)
                    if entry is None:
                        raise NoPathExists(node, destination)
                    if entry.discriminator < dd_value:
                        # Section 4.3 termination: strictly closer than the
                        # marking router — resume shortest-path routing.
                        pr_bit = False
                        dd_value = None
                        continue
                    candidate = outgoing
                    backup = None
                    for _attempt in range(degree_of[node]):
                        candidate, edge_bit, hop_weight, hop_head = avoid_next[candidate]
                        if not failed_mask & edge_bit:
                            backup = candidate
                            break
                    n_detected += 1
                    if backup is None:
                        status = DeliveryStatus.DROPPED
                        drop_reason = "all interfaces failed while cycle following"
                        break
                    n_cycle_hops += 1
                    egress = backup
                    detected = True
                    break
                if status is not None:
                    break
                if detected and detections is not None:
                    state_key = (egress, dd_value)
                    seen = detections.get(state_key)
                    if seen is None:
                        detections[state_key] = (
                            len(path), n_detected, n_recycled, n_cycle_hops
                        )
                    else:
                        # The walk is back in a state it left ``period`` hops
                        # ago: it repeats that cycle until the TTL runs out.
                        # Append every whole round that still leaves the
                        # pending hop within budget, then walk on.
                        start, det0, rec0, cyc0 = seen
                        period = len(path) - start
                        rounds = (ttl - 1) // period
                        cycle_nodes = path[start:]
                        cycle_weights = weights[start - 1:]
                        for _round in range(rounds):
                            path += cycle_nodes
                            weights += cycle_weights
                            for cycle_weight in cycle_weights:
                                cost += cycle_weight
                        ttl -= rounds * period
                        n_detected += rounds * (n_detected - det0)
                        n_recycled += rounds * (n_recycled - rec0)
                        n_cycle_hops += rounds * (n_cycle_hops - cyc0)
                        detections = None
                # --- hop bookkeeping (engine, inlined) ---
                cost += hop_weight
                weights.append(hop_weight)
                ttl -= 1
                ingress = egress
                node = hop_head
                path.append(hop_head)
            if status is not DeliveryStatus.TTL_EXCEEDED:
                for at, det0, rec0, cyc0 in marks:
                    marked = path[at]
                    if marked not in shared:
                        shared[marked] = (
                            path, weights, at, status, drop_reason,
                            n_detected - det0, n_recycled - rec0, n_cycle_hops - cyc0,
                        )
            # Engine equivalence: a counter key exists exactly when at least
            # one decision carried it (PR decisions never carry zeros).
            counters: Dict[str, float] = {}
            if n_detected:
                counters["failures_detected"] = float(n_detected)
            if n_recycled:
                counters["recycling_started"] = float(n_recycled)
            if n_cycle_hops:
                counters["cycle_following_hops"] = float(n_cycle_hops)
            outcomes[pair] = ForwardingOutcome(
                source=source,
                destination=destination,
                status=status,
                path=path,
                cost=cost,
                hops=len(path) - 1,
                drop_reason=drop_reason,
                counters=counters,
            )
        return outcomes

    # ------------------------------------------------------------------
    # overhead accounting (Section 6)
    # ------------------------------------------------------------------
    def dd_bits(self) -> int:
        """Width of the DD field for this topology and discriminator."""
        return discriminator_bits_required(self.graph, self.discriminator_kind)

    def header_overhead_bits(self) -> int:
        """PR bit plus the DD bits — the paper's 1 + O(log2 d) bits."""
        return 1 + self.dd_bits()

    def router_memory_entries(self) -> int:
        """Cycle-following entries plus the extra DD column in the routing table."""
        dd_column_entries = self.routing.memory_entries()
        return self.cycle_tables.memory_entries() + dd_column_entries

    def online_computation_per_failure(self) -> int:
        """Route recomputations a router performs when a failure arrives: none."""
        return 0


class SimplePacketRecycling(PacketRecycling):
    """The one-bit protocol of Section 4.2 (single-failure coverage only)."""

    name = "Packet Re-cycling (1-bit)"
    _walk_simple = True

    def build_logic(self, state: NetworkState) -> RouterLogic:
        return SimplePacketRecyclingLogic(self.routing, self.cycle_tables, state)

    def header_overhead_bits(self) -> int:
        """A single bit: the PR bit."""
        return 1
