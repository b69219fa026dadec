"""Integer-indexed, array-backed snapshot of a :class:`~repro.graph.multigraph.Graph`.

The string-keyed multigraph is the right construction API, but it is a poor
substrate for the sweep hot path: every Dijkstra relaxation pays string
hashing, ``Edge`` attribute chasing and a generator frame per neighbor.  A
:class:`CompiledGraph` freezes one topology into flat CSR-style adjacency
arrays over small integers:

* node *indices* are the lexicographic ranks of the node names, so a heap
  ordered by ``(cost, index)`` pops in exactly the same order as the
  reference implementation's ``(cost, name)`` heap — tie-breaking is
  bit-identical by construction;
* the adjacency slice of a node preserves the multigraph's edge insertion
  order, so relaxation scans visit neighbors in the same order as
  :meth:`Graph.iter_adjacent`;
* failed links are tested against an integer *exclusion bitmask*
  (``mask >> edge_id & 1``) instead of a per-call ``frozenset``.

A compiled snapshot is immutable and safe to share read-only across threads
and (via pickling or fork) across runner worker processes.  Use
:func:`compile_graph` or the memoizing engine in :mod:`repro.graph.spcache`.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import NodeNotFound
from repro.graph.multigraph import Graph

#: Same tolerance as :mod:`repro.graph.shortest_paths` — the compiled engine
#: must make exactly the same equal-cost decisions as the reference Dijkstra.
_COST_EPSILON = 1e-9

#: Weights eligible for incremental SSSP repair must be exact multiples of
#: ``2**-20``: finite sums of such weights are computed exactly in double
#: precision, so the reference Dijkstra's epsilon comparisons degenerate to
#: exact equality and its tie-breaking becomes order-independent — the
#: property :meth:`CompiledGraph.sssp_repair_content` rests on when it
#: re-solves only part of a tree.  Graphs with other weights simply fall back
#: to full recompute.
_REPAIR_WEIGHT_SCALE = 1048576.0

#: Weights must also dwarf the tie-breaking epsilon, so a single edge can
#: never bridge two cost classes the reference would consider equal.
_REPAIR_MIN_WEIGHT = 1e-6

#: Exactness also needs headroom at the top: a sum of 2**-20-granular values
#: stays exact only below 2**53 * 2**-20 = 2**33.  Bounding the *total* edge
#: weight (an upper bound on any simple path cost) at 2**32 keeps every
#: reachable sum one power of two clear of the rounding threshold.
_REPAIR_MAX_TOTAL_WEIGHT = 4294967296.0

#: Above this fraction of affected (reachable) vertices a repair would do
#: almost as much heap work as a full recompute on top of copying the base
#: tree — recompute from scratch instead.
REPAIR_MAX_AFFECTED_FRACTION = 0.5


def graph_signature(graph: Graph) -> Tuple:
    """Content identity of a graph: nodes in insertion order plus every edge.

    Two graphs with equal signatures produce byte-identical shortest-path
    results, so the signature doubles as the cache key of the per-process
    engine registry (see :func:`repro.graph.spcache.engine_for`).
    """
    return (
        tuple(graph.nodes()),
        tuple(
            (edge.edge_id, edge.u, edge.v, edge.weight) for edge in graph.edges()
        ),
    )


class CompiledGraph:
    """Read-only CSR adjacency snapshot of one topology.

    Attributes
    ----------
    names:
        Node names ordered by lexicographic rank; ``names[i]`` is the name of
        node index ``i``.
    order:
        Node names in the source graph's insertion order (what
        ``graph.nodes()`` returns) — iteration order of pair sweeps.
    index:
        Mapping ``name -> node index``.
    """

    __slots__ = (
        "name",
        "names",
        "order",
        "index",
        "adj_start",
        "adj_neighbor",
        "adj_edge",
        "adj_weight",
        "adj_items",
        "edge_table",
        "edge_weight",
        "signature",
        "repair_safe",
    )

    def __init__(self, graph: Graph) -> None:
        self.name = graph.name
        order = tuple(graph.nodes())
        names = tuple(sorted(order))
        index = {node: position for position, node in enumerate(names)}
        self.order = order
        self.names = names
        self.index = index

        adj_start: List[int] = [0]
        adj_neighbor: List[int] = []
        adj_edge: List[int] = []
        adj_weight: List[float] = []
        adj_items: List[Tuple[int, int, float]] = []
        for node in names:
            for edge in graph.incident_edges(node):
                neighbor = index[edge.other(node)]
                adj_neighbor.append(neighbor)
                adj_edge.append(edge.edge_id)
                adj_weight.append(edge.weight)
                adj_items.append((edge.edge_id, neighbor, edge.weight))
            adj_start.append(len(adj_neighbor))
        self.adj_start = adj_start
        self.adj_neighbor = adj_neighbor
        self.adj_edge = adj_edge
        self.adj_weight = adj_weight
        #: The same CSR slices as ``(edge_id, neighbor, weight)`` tuples —
        #: unpacking a tuple per relaxation beats three indexed list loads.
        self.adj_items = adj_items
        #: ``edge_id -> (u_index, v_index, weight)`` for O(1) edge lookup.
        self.edge_table: Dict[int, Tuple[int, int, float]] = {
            edge.edge_id: (index[edge.u], index[edge.v], edge.weight)
            for edge in graph.edges()
        }
        #: ``edge_id -> weight``: the per-hop cost lookup of the sweep fast
        #: paths, built once here instead of per ``deliver_many`` call.
        self.edge_weight: Dict[int, float] = {
            edge.edge_id: edge.weight for edge in graph.edges()
        }
        self.signature = graph_signature(graph)
        #: Whether every edge weight is exact enough for incremental repair
        #: (see :data:`_REPAIR_WEIGHT_SCALE` / :data:`_REPAIR_MAX_TOTAL_WEIGHT`);
        #: checked once at compile time.
        self.repair_safe = (
            all(
                edge.weight > _REPAIR_MIN_WEIGHT
                and (edge.weight * _REPAIR_WEIGHT_SCALE).is_integer()
                for edge in graph.edges()
            )
            and sum(adj_weight) <= 2 * _REPAIR_MAX_TOTAL_WEIGHT
        )

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def number_of_nodes(self) -> int:
        return len(self.names)

    def number_of_edges(self) -> int:
        return len(self.edge_table)

    def node_index(self, node: str) -> int:
        """Index of ``node``, raising :class:`NodeNotFound` if absent."""
        try:
            return self.index[node]
        except KeyError:
            raise NodeNotFound(node) from None

    def exclusion_mask(self, excluded_edges: Optional[Iterable[int]] = None) -> int:
        """Failed-link set as an integer bitmask (bit ``i`` = edge id ``i``)."""
        mask = 0
        for edge_id in excluded_edges or ():
            mask |= 1 << edge_id
        return mask

    # ------------------------------------------------------------------
    # shortest paths
    # ------------------------------------------------------------------
    def dijkstra_indexed(
        self, source: int, excluded_mask: int = 0
    ) -> Tuple[Dict[int, float], Dict[int, Tuple[int, int]]]:
        """Single-source shortest paths over node indices.

        Semantically identical to :func:`repro.graph.shortest_paths.dijkstra`
        — same float arithmetic, same epsilon comparisons, same
        lexicographic tie-breaking.  The returned dicts happen to share the
        reference's insertion order, but engine trees do not promise it
        (repaired trees are patched copies).
        """
        dist: Dict[int, float] = {source: 0.0}
        parent: Dict[int, Tuple[int, int]] = {}
        heap: List[Tuple[float, int]] = [(0.0, source)]
        finalized = bytearray(len(self.names))
        adj_start = self.adj_start
        adj_items = self.adj_items
        dist_get = dist.get
        push = heapq.heappush
        pop = heapq.heappop
        while heap:
            cost, node = pop(heap)
            if finalized[node]:
                continue
            finalized[node] = 1
            for edge_id, neighbor, weight in adj_items[
                adj_start[node] : adj_start[node + 1]
            ]:
                if (excluded_mask >> edge_id) & 1:
                    continue
                if finalized[neighbor]:
                    continue
                candidate = cost + weight
                current = dist_get(neighbor)
                if current is None:
                    dist[neighbor] = candidate
                    parent[neighbor] = (node, edge_id)
                    push(heap, (candidate, neighbor))
                    continue
                if candidate < current - _COST_EPSILON:
                    dist[neighbor] = candidate
                    parent[neighbor] = (node, edge_id)
                    push(heap, (candidate, neighbor))
                elif (
                    candidate - current <= _COST_EPSILON
                    and current - candidate <= _COST_EPSILON
                    and (node, edge_id) < parent[neighbor]
                ):
                    dist[neighbor] = candidate
                    parent[neighbor] = (node, edge_id)
                    push(heap, (candidate, neighbor))
        return dist, parent

    def _repair_frontier(
        self,
        excluded_mask: int,
        base_dist: Dict[int, float],
        affected: List[int],
        in_affected: set,
    ) -> Tuple[Dict[int, float], Dict[int, Tuple[int, int]]]:
        """Dijkstra restricted to the affected region of a repair.

        Every affected vertex is seeded from its unaffected, reachable
        neighbors (the frontier — their distances are frozen), then the heap
        runs over affected vertices only.  The accept rules mirror
        :meth:`dijkstra_indexed`; under ``repair_safe`` weights they reduce
        to the order-independent "smallest (candidate, parent)" choice, so
        the resulting distances and parents equal the full run's.  Affected
        vertices unreachable under the exclusions are absent from the result.
        """
        adj_start = self.adj_start
        adj_items = self.adj_items
        dist: Dict[int, float] = {}
        parent: Dict[int, Tuple[int, int]] = {}
        heap: List[Tuple[float, int]] = []
        push = heapq.heappush
        for node in affected:
            for edge_id, neighbor, weight in adj_items[
                adj_start[node] : adj_start[node + 1]
            ]:
                if (excluded_mask >> edge_id) & 1:
                    continue
                if neighbor in in_affected:
                    continue
                base = base_dist.get(neighbor)
                if base is None:
                    continue
                candidate = base + weight
                current = dist.get(node)
                if current is None:
                    dist[node] = candidate
                    parent[node] = (neighbor, edge_id)
                elif candidate < current - _COST_EPSILON:
                    dist[node] = candidate
                    parent[node] = (neighbor, edge_id)
                elif (
                    candidate - current <= _COST_EPSILON
                    and current - candidate <= _COST_EPSILON
                    and (neighbor, edge_id) < parent[node]
                ):
                    dist[node] = candidate
                    parent[node] = (neighbor, edge_id)
        for node, cost in dist.items():
            push(heap, (cost, node))
        finalized: set = set()
        pop = heapq.heappop
        dist_get = dist.get
        while heap:
            cost, node = pop(heap)
            if node in finalized:
                continue
            finalized.add(node)
            for edge_id, neighbor, weight in adj_items[
                adj_start[node] : adj_start[node + 1]
            ]:
                if (excluded_mask >> edge_id) & 1:
                    continue
                if neighbor not in in_affected or neighbor in finalized:
                    continue
                candidate = cost + weight
                current = dist_get(neighbor)
                if current is None:
                    dist[neighbor] = candidate
                    parent[neighbor] = (node, edge_id)
                    push(heap, (candidate, neighbor))
                elif candidate < current - _COST_EPSILON:
                    dist[neighbor] = candidate
                    parent[neighbor] = (node, edge_id)
                    push(heap, (candidate, neighbor))
                elif (
                    candidate - current <= _COST_EPSILON
                    and current - candidate <= _COST_EPSILON
                    and (node, edge_id) < parent[neighbor]
                ):
                    dist[neighbor] = candidate
                    parent[neighbor] = (node, edge_id)
                    push(heap, (candidate, neighbor))
        return dist, parent

    def sssp_repair_content(
        self,
        excluded_mask: int,
        base_dist: Dict[int, float],
        base_parent: Dict[int, Tuple[int, int]],
        base_masks: Dict[int, int],
        max_affected_fraction: float = REPAIR_MAX_AFFECTED_FRACTION,
    ) -> Optional[Tuple[Dict[int, float], Dict[int, Tuple[int, int]]]]:
        """Repair a failure-free SSSP tree under ``excluded_mask``.

        ``base_*`` describe the memoized failure-free run: ``base_dist`` /
        ``base_parent`` are its result and ``base_masks[v]`` the bitmask of
        edges on the failure-free shortest path from the root to ``v``.
        The repair

        1. finds the *affected* vertices — one bitmask AND per reachable
           vertex — whose failure-free path crosses an excluded edge; every
           other vertex provably keeps its distance and parent;
        2. re-solves only the affected region with a frontier Dijkstra
           seeded from the unaffected boundary, and patches a C-speed copy
           of the base dicts (affected vertices overwritten, or dropped when
           unreachable).

        With no affected vertices the memoized base dicts are returned
        as-is.  Values, parents and tie-breaking equal a full
        :meth:`dijkstra_indexed` run *provided* the graph is
        :attr:`repair_safe` (callers must check); the dict insertion order
        is unspecified.  Returns ``None`` when more than
        ``max_affected_fraction`` of the reachable vertices are affected —
        the caller should fall back to a full recompute.
        """
        affected = [v for v, mask in base_masks.items() if mask & excluded_mask]
        if not affected:
            return base_dist, base_parent
        if len(affected) > max_affected_fraction * len(base_dist):
            return None
        in_affected = set(affected)
        dist, parent = self._repair_frontier(
            excluded_mask, base_dist, affected, in_affected
        )
        dist_out = dict(base_dist)
        parent_out = dict(base_parent)
        for node in affected:
            if node in dist:
                dist_out[node] = dist[node]
                parent_out[node] = parent[node]
            else:
                del dist_out[node]
                del parent_out[node]
        return dist_out, parent_out

    # ------------------------------------------------------------------
    # connectivity
    # ------------------------------------------------------------------
    def component_labels(self, excluded_mask: int = 0) -> List[int]:
        """Connected-component label of every node index under the mask."""
        labels = [-1] * len(self.names)
        adj_start = self.adj_start
        adj_items = self.adj_items
        current = 0
        for root in range(len(self.names)):
            if labels[root] >= 0:
                continue
            labels[root] = current
            stack = [root]
            while stack:
                node = stack.pop()
                for edge_id, neighbor, _weight in adj_items[
                    adj_start[node] : adj_start[node + 1]
                ]:
                    if (excluded_mask >> edge_id) & 1:
                        continue
                    if labels[neighbor] < 0:
                        labels[neighbor] = current
                        stack.append(neighbor)
            current += 1
        return labels

    def __repr__(self) -> str:  # pragma: no cover - trivial formatting
        return (
            f"CompiledGraph({self.name!r}, nodes={len(self.names)}, "
            f"edges={len(self.edge_table)})"
        )


def compile_graph(graph: Graph) -> CompiledGraph:
    """Freeze ``graph`` into a :class:`CompiledGraph` snapshot."""
    return CompiledGraph(graph)
