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
from repro.forwarding.engine import ForwardingOutcome
from repro.forwarding.network_state import NetworkState
from repro.forwarding.router import RouterLogic
from repro.forwarding.scheme import ForwardingScheme
from repro.forwarding.walk import Counters, walk_many
from repro.graph.multigraph import Graph
from repro.routing.discriminator import DiscriminatorKind, discriminator_bits_required
from repro.routing.tables import cached_routing_tables


#: The counters a PR decision carries (``protocol.py``), as walk-kernel codes.
_COUNTERS = Counters("failures_detected", "recycling_started", "cycle_following_hops")
_CYCLE_HOP = _COUNTERS.code(cycle_following_hops=1)
_DETECTED = _COUNTERS.code(failures_detected=1)
_DETECTED_STARTING = _COUNTERS.code(failures_detected=1, recycling_started=1)
_DETECTED_CYCLING = _COUNTERS.code(failures_detected=1, cycle_following_hops=1)


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
        position in ``darts``).  An entry is the successor's ``(head, edge
        bitmask, weight, code)``, the walk kernel's follow-hop layout, so one
        index answers both "where next" and "what does that hop cost";
        ``cycle_next`` holds ``None`` for a dart without a cycle-following
        row.
        """
        if self._flat is None:
            darts = self.graph.darts()
            code_of = {dart: code for code, dart in enumerate(darts)}
            weight_of = {edge.edge_id: edge.weight for edge in self.graph.edges()}

            def step(dart) -> tuple:
                return (dart.head, 1 << dart.edge_id, weight_of[dart.edge_id], code_of[dart])

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
        """Sweep fast path: :func:`~repro.forwarding.walk.walk_many` over flat tables.

        The routing lane, the cycle-following column as the follow table,
        and the rest of :class:`~repro.core.protocol.PacketRecyclingLogic`
        (or the 1-bit variant) as the decision.  The state is ``None`` while
        the PR bit is clear, else the DD value (``True`` for the 1-bit
        variant); the ingress is a dart code.
        """
        state = self.check_query(pairs, failed_links)
        failed_mask = self.routing._engine.compiled.exclusion_mask(state.failed_edges)
        routing_entries = self.routing._entries
        darts, code_of, cycle_next, avoid_next, degree_of, weight_of = self._flat_tables()
        simple = self._walk_simple

        def decide(node: str, destination: str, ingress: Optional[int], dd_value) -> tuple:
            if dd_value is not None:
                # _cycle_follow, reached when the cycle-following link is down.
                cycle_step = cycle_next[ingress]
                if cycle_step is None:  # pragma: no cover - mirrors row_for_ingress
                    raise ProtocolError(
                        f"router {node!r} has no cycle-following row for "
                        f"ingress {darts[ingress]!r}"
                    )
                if not simple:
                    entry = routing_entries[node].get(destination)
                    if entry is None:
                        raise NoPathExists(node, destination)
                    if not entry.discriminator < dd_value:
                        # A further failure met while cycle following.
                        return avoid(
                            node, cycle_step[3], dd_value, _DETECTED_CYCLING,
                            "all interfaces failed while cycle following",
                        )
                # Termination (Section 4.2: the cycle-following link is down;
                # Section 4.3: strictly closer than the marking router):
                # resume shortest-path routing.
            # _route_normally
            entry = routing_entries[node].get(destination)
            if entry is None:
                return None, "no route to destination in routing table", None, None, 0
            routed = entry.egress
            if not failed_mask & (1 << routed.edge_id):
                return code_of[routed], routed.head, weight_of[routed.edge_id], None, 0
            # _start_recycling: mark the header, then failure avoidance from
            # the failed egress.
            return avoid(
                node, code_of[routed], True if simple else entry.discriminator,
                _DETECTED_STARTING, "all interfaces failed at the detecting router",
            )

        def avoid(node: str, failed: int, dd_value, code: int, isolated: str) -> tuple:
            """Failure avoidance from the failed dart code ``failed``."""
            for _attempt in range(degree_of[node]):
                head, edge_bit, hop_weight, failed = avoid_next[failed]
                if not failed_mask & edge_bit:
                    return failed, head, hop_weight, dd_value, code
            return None, isolated, None, None, _DETECTED

        return walk_many(
            pairs, self.default_ttl(), failed_mask, self.routing.lane, decide, _COUNTERS,
            follow=cycle_next, follow_code=_CYCLE_HOP,
        )

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
