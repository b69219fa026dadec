"""`ForwardingScheme`: the common interface of PR and every baseline.

A scheme owns whatever per-router state it precomputes offline (routing
tables, cycle-following tables, LFA candidates, ...) and knows how to build
the :class:`~repro.forwarding.router.RouterLogic` that drives packets at
forwarding time.  The CLI and the daemon send single packets through
:meth:`ForwardingScheme.deliver`, which runs the hop-by-hop engine.
Campaigns send one per pair and failure set through
:meth:`ForwardingScheme.deliver_many`.  Here it runs the engine too, and it
stays the reference.  A scheme with a fast path overrides it with one call
of the walk kernel (:func:`repro.forwarding.walk.walk_many`), supplying only
its per-hop decision: a lane table per destination, an optional follow
table and a ``decide`` function over (node, destination, ingress, state).
The kernel does the rest, so the override's outcomes must equal the
engine's field for field: status, path, hop-order cost, hop count, drop
reason and counters.  Both entry points, overrides included, start with
:meth:`ForwardingScheme.check_query`, so a query that names a router or
link the topology does not have is an error, never a dropped packet.
"""

from __future__ import annotations

from typing import Collection, Dict, Iterable, Optional

from repro.errors import ForwardingError, NodeNotFound
from repro.forwarding.engine import ForwardingOutcome, HopByHopEngine
from repro.forwarding.network_state import NetworkState
from repro.forwarding.packets import Packet
from repro.forwarding.router import RouterLogic
from repro.graph.multigraph import Graph


class ForwardingScheme:
    """Base class for every forwarding scheme compared in the paper.

    Subclasses must set :attr:`name`, perform their offline precomputation in
    ``__init__`` (taking at least the topology) and implement
    :meth:`build_logic`.
    """

    #: Human-readable name used in result tables ("Packet Re-cycling", ...).
    name = "abstract"

    def __init__(self, graph: Graph) -> None:
        self.graph = graph

    # ------------------------------------------------------------------
    # interface used by experiments
    # ------------------------------------------------------------------
    def build_logic(self, state: NetworkState) -> RouterLogic:
        """Instantiate the per-router logic for a given failure state."""
        raise NotImplementedError

    def default_ttl(self) -> int:
        """Hop budget given to packets under this scheme.

        Generous enough that a correct scheme never hits it: cycle following
        may walk almost every dart of the network several times across
        successive failure episodes.
        """
        return max(64, 8 * self.graph.number_of_edges() + 2 * self.graph.number_of_nodes())

    def check_query(
        self, pairs: Collection[tuple], failed_links: Iterable[int] = ()
    ) -> NetworkState:
        """Validate a forwarding query and return its failure state.

        Raises :class:`~repro.errors.NodeNotFound` for an endpoint that is
        not a router of the topology, :class:`~repro.errors.ForwardingError`
        for a pair whose source is its destination, and
        :class:`~repro.errors.FailureScenarioError` for a failed link id the
        topology does not have.  Past this check every endpoint is known, so
        no forwarding path needs an unknown-router case of its own.
        """
        nodes = self.graph._adjacency
        for source, destination in pairs:
            if source not in nodes:
                raise NodeNotFound(source)
            if destination not in nodes:
                raise NodeNotFound(destination)
            if source == destination:
                raise ForwardingError(
                    f"source and destination must differ (both {source!r})"
                )
        return NetworkState(self.graph, failed_links)

    def deliver(
        self,
        source: str,
        destination: str,
        failed_links: Iterable[int] = (),
        size_bytes: int = 1000,
        ttl: Optional[int] = None,
        dscp: int = 0,
    ) -> ForwardingOutcome:
        """Send one packet from ``source`` to ``destination`` under failures.

        The failure set is applied to the data plane only: the offline state
        (routing tables, cycle-following tables) remains the failure-free one,
        exactly as in the paper's model where failures are strictly local
        knowledge.  ``dscp`` is the packet's traffic class, consulted only by
        class-based deployment policies.
        """
        state = self.check_query(((source, destination),), failed_links)
        logic = self.build_logic(state)
        engine = HopByHopEngine(state, logic)
        packet = Packet(
            source,
            destination,
            size_bytes=size_bytes,
            ttl=ttl if ttl is not None else self.default_ttl(),
            dscp=dscp,
        )
        return engine.forward_packet(packet)

    def deliver_many(
        self,
        pairs: Collection[tuple],
        failed_links: Iterable[int] = (),
    ) -> Dict[tuple, ForwardingOutcome]:
        """Deliver one packet per ``(source, destination)`` pair under one failure set.

        The network state and router logic are built once and reused, and
        every packet goes through the hop-by-hop engine: the reference for
        the fast-path overrides, which walk the same packets with
        :func:`~repro.forwarding.walk.walk_many`.  The whole query is
        checked first (:meth:`check_query`), so ``pairs`` is read twice and
        must be a collection, not a one-shot iterator.
        """
        state = self.check_query(pairs, failed_links)
        logic = self.build_logic(state)
        engine = HopByHopEngine(state, logic)
        outcomes: Dict[tuple, ForwardingOutcome] = {}
        for source, destination in pairs:
            packet = Packet(source, destination, ttl=self.default_ttl())
            outcomes[(source, destination)] = engine.forward_packet(packet)
        return outcomes

    def header_overhead_bits(self) -> int:
        """Worst-case number of extra header bits the scheme needs.

        Baselines override this; the default is zero (no extra fields).
        """
        return 0

    def router_memory_entries(self) -> int:
        """Total extra table entries the scheme installs across all routers."""
        return 0

    def __repr__(self) -> str:  # pragma: no cover - trivial formatting
        return f"{type(self).__name__}(graph={self.graph.name!r})"
