"""Full routing re-convergence baseline.

For the stretch comparison of Figure 2 the interesting quantity is the path a
packet takes *after* the network has fully re-converged: the shortest path on
the failed topology.  (What happens *during* convergence — packets black-holed
onto the dead link — is simulated by :mod:`repro.simulator`, which switches
each router from stale tables to this logic at its own FIB-update instant;
the paper uses it as motivation rather than as a stretch data point.)
"""

from __future__ import annotations

from typing import Collection, Dict, Iterable, Optional, Tuple

from repro.errors import ProtocolError
from repro.forwarding.engine import DeliveryStatus, ForwardingOutcome
from repro.forwarding.network_state import NetworkState
from repro.forwarding.packets import Packet
from repro.forwarding.router import ForwardingDecision, RouterLogic
from repro.forwarding.scheme import ForwardingScheme
from repro.graph.darts import Dart
from repro.graph.multigraph import Graph
from repro.graph.spcache import ShortestPathEngine, engine_for


class ReconvergedLogic(RouterLogic):
    """Routers forward on shortest paths recomputed around the failures.

    A next hop is a parent pointer of the engine's memoized tree rooted at
    the destination on the failed map, read on the first packet for it.
    """

    name = "Re-convergence"

    def __init__(self, engine: ShortestPathEngine, state: NetworkState) -> None:
        self.engine = engine
        self.state = state
        self._trees: Dict[str, Dict[int, Tuple[int, int]]] = {}

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
        parent = self._trees.get(destination)
        if parent is None:
            parent = self.engine.sssp_tree(destination, state.failed_edges)[1]
            self._trees[destination] = parent
        hop = parent.get(self.engine.compiled.index[node])
        if hop is None:
            return ForwardingDecision.drop("destination unreachable after re-convergence")
        # The tree excludes the failed links, so the egress is up by
        # construction; the engine re-checks the invariant.
        return ForwardingDecision.forward(state.graph.dart(hop[1], node), spf_computations=0)


class Reconvergence(ForwardingScheme):
    """Idealised re-convergence: packets follow post-convergence shortest paths."""

    name = "Re-convergence"

    def __init__(self, graph: Graph) -> None:
        super().__init__(graph)
        # Resolved once: deliver_many runs once per scenario and the
        # signature hash behind engine_for is not free at sweep scale.
        self._engine = engine_for(graph)

    def build_logic(self, state: NetworkState) -> RouterLogic:
        # Lazy per destination: one deliver pays for one (usually repaired)
        # tree, whatever the number of routers.
        return ReconvergedLogic(self._engine, state)

    def deliver_many(
        self,
        pairs: Collection[tuple],
        failed_links: Iterable[int] = (),
    ) -> Dict[tuple, ForwardingOutcome]:
        """Sweep fast path: walk the converged trees directly.

        Re-converged forwarding is a pure next-hop walk of the converged
        trees, so the generic hop-by-hop engine adds only constant overhead
        per hop.  This override produces outcomes field-for-field identical
        to the engine (same paths, same hop-order cost summation, same
        counters and drop reasons — asserted by the fast-path equivalence
        tests); :meth:`ForwardingScheme.deliver` still runs the real engine
        and remains the reference implementation.
        """
        state = self.check_query(pairs, failed_links)
        engine = self._engine
        excluded = state.failed_edges
        compiled = engine.compiled
        names = compiled.names
        index_of = compiled.index
        # One memoized SSSP tree per destination queried, the same trees
        # ReconvergedLogic reads.  The walk runs in node-index space; names
        # only materialise into the outcome's path list.
        trees: Dict[str, Dict] = {}
        weight_of = compiled.edge_weight
        ttl_budget = self.default_ttl()
        delivered = DeliveryStatus.DELIVERED
        outcomes: Dict[tuple, ForwardingOutcome] = {}
        for source, destination in pairs:
            node = index_of[source]
            target = index_of[destination]
            parent = trees.get(destination)
            if parent is None:
                parent = engine.sssp_tree(destination, excluded)[1]
                trees[destination] = parent
            path = [source]
            cost = 0.0
            ttl = ttl_budget
            outcome = None
            while True:
                if node == target:
                    outcome = ForwardingOutcome(
                        source=source,
                        destination=destination,
                        status=delivered,
                        path=path,
                        cost=cost,
                        hops=len(path) - 1,
                        # Every hop's decision carries spf_computations=0 and
                        # the engine accumulates explicit zeros, so the key
                        # appears exactly when at least one hop was decided:
                        # always here, as the source is not the destination.
                        counters={"spf_computations": 0.0},
                    )
                    break
                if ttl <= 0:
                    outcome = ForwardingOutcome(
                        source=source,
                        destination=destination,
                        status=DeliveryStatus.TTL_EXCEEDED,
                        path=path,
                        cost=cost,
                        hops=len(path) - 1,
                        drop_reason="ttl expired",
                        counters={"spf_computations": 0.0} if len(path) > 1 else {},
                    )
                    break
                hop = parent.get(node)
                if hop is None:
                    outcome = ForwardingOutcome(
                        source=source,
                        destination=destination,
                        status=DeliveryStatus.DROPPED,
                        path=path,
                        cost=cost,
                        hops=len(path) - 1,
                        drop_reason="destination unreachable after re-convergence",
                        counters={"spf_computations": 0.0} if len(path) > 1 else {},
                    )
                    break
                towards, edge_id = hop
                cost += weight_of[edge_id]
                ttl -= 1
                node = towards
                path.append(names[node])
            outcomes[(source, destination)] = outcome
        return outcomes

    def header_overhead_bits(self) -> int:
        """Re-convergence needs no extra header bits."""
        return 0

    def router_memory_entries(self) -> int:
        """No extra state beyond the ordinary routing table."""
        return 0

    def online_computation_per_failure(self) -> int:
        """Every router re-runs SPF once per failure event (plus floods LSAs)."""
        return self.graph.number_of_nodes()
