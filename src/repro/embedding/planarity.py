"""Planarity testing (left-right) and planar (genus 0) cellular embedding (DMP).

The paper notes that for planar networks "very efficient O(n) algorithms are
available".  The two jobs of this module use two different algorithms.

**Testing** -- :func:`is_planar` and :func:`is_planar_indexed` -- is the
left-right planarity test of Brandes ("The Left-Right Planarity Test",
2009), a simplification of de Fraysseix and Rosenstiehl's LR criterion.
A depth-first search orients the graph into tree edges and back edges and
computes each edge's lowpoints.  A second search walks the children of
every node in nesting order and keeps a stack of *conflict pairs*: two
intervals of back edges that must end up on opposite sides of the tree.
The graph is planar exactly when every back edge can be given a side that
meets all of these constraints.  Both searches are iterative and linear in
the size of the graph (bar the per-node sort by nesting depth), and the
test never builds an embedding, so the genus heuristics can ask "still
planar?" once per candidate edge.

**Embedding** -- :func:`planar_embedding` -- is the classic
Demoucron–Malgrange–Pertuiset (DMP) *path addition* algorithm: quadratic
rather than linear, but simple, easy to verify, and more than fast enough
for ISP-scale topologies.  Its rotations feed every payload, so it is the
only embedder.  It embeds one biconnected component at a time:

1. Start from an arbitrary cycle, which splits the sphere into two faces.
2. Repeatedly consider the *bridges* (fragments) of the not-yet-embedded
   part relative to the embedded subgraph.  Each bridge must be drawable
   inside a single face whose boundary contains all of the bridge's
   attachment vertices; if some bridge has no such *admissible* face the
   graph is not planar.
3. Choose a bridge (preferring one with a unique admissible face, which is
   forced), embed one path of it through the face, splitting that face in
   two, and repeat until every edge is embedded.

The face walks maintained by the algorithm are finally converted back into a
rotation system via :func:`repro.embedding.faces.rotation_from_faces`.
Rotation systems of separate biconnected components are merged at cut
vertices by concatenation, which preserves genus 0.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import DisconnectedGraph, EmbeddingError, NotPlanar
from repro.graph.connectivity import biconnected_edge_components, is_connected
from repro.graph.darts import Dart
from repro.graph.multigraph import Graph
from repro.graph.traversal import find_cycle
from repro.embedding.faces import rotation_from_faces
from repro.embedding.rotation import RotationSystem


class _Bridge:
    """A fragment of the not-yet-embedded graph relative to the embedded part."""

    __slots__ = ("edge_ids", "internal_nodes", "attachments")

    def __init__(
        self,
        edge_ids: Set[int],
        internal_nodes: Set[str],
        attachments: Set[str],
    ) -> None:
        self.edge_ids = edge_ids
        self.internal_nodes = internal_nodes
        self.attachments = attachments


def _cycle_node_sequence(graph: Graph, cycle_edge_ids: Sequence[int]) -> List[Tuple[str, int]]:
    """Order the edges of a cycle into a closed walk ``[(node, edge_to_next), ...]``."""
    edges = [graph.edge(edge_id) for edge_id in cycle_edge_ids]
    if not edges:
        raise EmbeddingError("cannot order an empty cycle")
    if len(edges) == 1:
        raise EmbeddingError("a single edge does not form a cycle")
    incidence: Dict[str, List[int]] = {}
    for edge in edges:
        incidence.setdefault(edge.u, []).append(edge.edge_id)
        incidence.setdefault(edge.v, []).append(edge.edge_id)
    for node, incident in incidence.items():
        if len(incident) != 2:
            raise EmbeddingError(f"edge set is not a simple cycle at node {node!r}")
    start = edges[0].u
    walk: List[Tuple[str, int]] = []
    node = start
    used: Set[int] = set()
    while True:
        options = [edge_id for edge_id in incidence[node] if edge_id not in used]
        if not options:
            break
        edge_id = options[0]
        used.add(edge_id)
        walk.append((node, edge_id))
        node = graph.edge(edge_id).other(node)
        if node == start:
            break
    if len(walk) != len(edges):
        raise EmbeddingError("edge set is not a single simple cycle")
    return walk


def _cyclic_slice(darts: Sequence[Dart], start: int, stop: int) -> List[Dart]:
    """Darts from index ``start`` (inclusive) up to ``stop`` (exclusive), cyclically."""
    if start <= stop:
        return list(darts[start:stop])
    return list(darts[start:]) + list(darts[:stop])


def _compute_bridges(graph: Graph, embedded_nodes: Set[str], embedded_edges: Set[int]) -> List[_Bridge]:
    """All bridges (fragments) of ``graph`` relative to the embedded subgraph."""
    bridges: List[_Bridge] = []
    # Singleton bridges: a non-embedded edge whose endpoints are both embedded.
    for edge in graph.edges():
        if edge.edge_id in embedded_edges:
            continue
        if edge.u in embedded_nodes and edge.v in embedded_nodes:
            bridges.append(_Bridge({edge.edge_id}, set(), {edge.u, edge.v}))
    # Component bridges: connected components of the non-embedded nodes, plus
    # every edge incident to them and the embedded nodes they attach to.
    unvisited = [node for node in graph.nodes() if node not in embedded_nodes]
    seen: Set[str] = set()
    for root in unvisited:
        if root in seen:
            continue
        seen.add(root)
        internal = {root}
        queue = deque([root])
        edge_ids: Set[int] = set()
        attachments: Set[str] = set()
        while queue:
            node = queue.popleft()
            for neighbor, edge_id, _weight in graph.iter_adjacent(node):
                edge_ids.add(edge_id)
                if neighbor in embedded_nodes:
                    attachments.add(neighbor)
                elif neighbor not in seen:
                    seen.add(neighbor)
                    internal.add(neighbor)
                    queue.append(neighbor)
        bridges.append(_Bridge(edge_ids, internal, attachments))
    return bridges


def _path_through_bridge(
    graph: Graph,
    bridge: _Bridge,
    start: str,
    embedded_nodes: Set[str],
) -> Tuple[List[str], List[int]]:
    """A path from attachment ``start`` through the bridge to another attachment.

    Intermediate nodes are internal to the bridge; only the endpoints touch
    the embedded subgraph.  Returns ``(node_sequence, edge_id_sequence)``.
    """
    if not bridge.internal_nodes:
        # Singleton edge bridge.
        edge_id = next(iter(bridge.edge_ids))
        edge = graph.edge(edge_id)
        return [edge.u, edge.v] if edge.u == start else [edge.v, edge.u], [edge_id]

    parents: Dict[str, Tuple[str, int]] = {}
    queue = deque([start])
    visited = {start}
    target: Optional[str] = None
    while queue and target is None:
        node = queue.popleft()
        if node != start and node in embedded_nodes:
            continue
        for neighbor, edge_id, _weight in graph.iter_adjacent(node):
            if edge_id not in bridge.edge_ids or neighbor in visited:
                continue
            visited.add(neighbor)
            parents[neighbor] = (node, edge_id)
            if neighbor in embedded_nodes and neighbor != start:
                target = neighbor
                break
            queue.append(neighbor)
    if target is None:
        raise EmbeddingError("bridge has no second attachment reachable from the first")
    nodes = [target]
    edges: List[int] = []
    node = target
    while node != start:
        parent, edge_id = parents[node]
        edges.append(edge_id)
        nodes.append(parent)
        node = parent
    nodes.reverse()
    edges.reverse()
    return nodes, edges


def _embed_biconnected(graph: Graph) -> Dict[str, List[Dart]]:
    """DMP embedding of one biconnected component given as a standalone graph.

    Returns the rotation (list of darts) at every node of the component.
    Raises :class:`NotPlanar` if the component cannot be drawn on the sphere.
    """
    if graph.number_of_edges() == 1:
        edge = graph.edges()[0]
        return {edge.u: [edge.dart_from(edge.u)], edge.v: [edge.dart_from(edge.v)]}

    cycle_edge_ids = find_cycle(graph)
    if cycle_edge_ids is None:
        raise EmbeddingError("biconnected component with >1 edge must contain a cycle")
    walk = _cycle_node_sequence(graph, cycle_edge_ids)

    forward = [graph.edge(edge_id).dart_from(node) for node, edge_id in walk]
    backward = [dart.reversed() for dart in reversed(forward)]
    faces: List[List[Dart]] = [forward, backward]

    embedded_nodes: Set[str] = {node for node, _edge_id in walk}
    embedded_edges: Set[int] = {edge_id for _node, edge_id in walk}
    total_edges = graph.number_of_edges()

    while len(embedded_edges) < total_edges:
        bridges = _compute_bridges(graph, embedded_nodes, embedded_edges)
        if not bridges:
            raise EmbeddingError("edges remain but no bridge was found; graph inconsistent")

        chosen: Optional[_Bridge] = None
        chosen_faces: List[int] = []
        for bridge in bridges:
            admissible = [
                index
                for index, face in enumerate(faces)
                if bridge.attachments <= {dart.tail for dart in face}
            ]
            if not admissible:
                raise NotPlanar(
                    f"graph {graph.name!r} is not planar: a fragment with attachments "
                    f"{sorted(bridge.attachments)} fits in no face"
                )
            if chosen is None or (len(admissible) == 1 and len(chosen_faces) != 1):
                chosen = bridge
                chosen_faces = admissible
            if len(chosen_faces) == 1:
                break
        assert chosen is not None  # guaranteed: bridges is non-empty

        face_index = chosen_faces[0]
        face = faces[face_index]
        boundary_nodes = [dart.tail for dart in face]

        start = sorted(chosen.attachments)[0]
        path_nodes, path_edges = _path_through_bridge(graph, chosen, start, embedded_nodes)
        end = path_nodes[-1]

        position_start = boundary_nodes.index(start)
        position_end = boundary_nodes.index(end)

        path_darts = [
            graph.edge(edge_id).dart_from(node)
            for node, edge_id in zip(path_nodes[:-1], path_edges)
        ]
        reverse_path_darts = [dart.reversed() for dart in reversed(path_darts)]

        face_one = path_darts + _cyclic_slice(face, position_end, position_start)
        face_two = reverse_path_darts + _cyclic_slice(face, position_start, position_end)

        faces[face_index] = face_one
        faces.append(face_two)

        embedded_nodes.update(path_nodes)
        embedded_edges.update(path_edges)

    rotation = rotation_from_faces(graph, faces)
    return rotation.as_mapping()


def planar_embedding(graph: Graph) -> RotationSystem:
    """Genus-0 rotation system of a connected planar graph.

    Each biconnected component is embedded independently with DMP and the
    per-node rotations are concatenated at cut vertices, which keeps the
    composite embedding planar.  Raises :class:`NotPlanar` when the graph is
    not planar and :class:`DisconnectedGraph` when it is not connected.
    """
    if graph.number_of_nodes() == 0:
        return RotationSystem(graph, {})
    if not is_connected(graph):
        raise DisconnectedGraph(
            f"planar_embedding requires a connected graph; {graph.name!r} is not connected"
        )

    rotations: Dict[str, List[Dart]] = {node: [] for node in graph.nodes()}
    for component_edges in biconnected_edge_components(graph):
        component_nodes: Set[str] = set()
        for edge_id in component_edges:
            edge = graph.edge(edge_id)
            component_nodes.add(edge.u)
            component_nodes.add(edge.v)
        component = graph.subgraph(component_nodes)
        for edge_id in component.edge_ids():
            if edge_id not in component_edges:
                component.remove_edge(edge_id)
        component_rotation = _embed_biconnected(component)
        for node, darts in component_rotation.items():
            rotations[node].extend(darts)
    return RotationSystem(graph, rotations)


def is_planar(graph: Graph) -> bool:
    """Whether the graph admits a planar embedding (left-right test).

    Any graph is accepted, parallel edges, isolated nodes and several
    components included; it is planar when each of its components is.
    """
    index = {node: position for position, node in enumerate(graph.nodes())}
    return is_planar_indexed(
        len(index), [(index[edge.u], index[edge.v]) for edge in graph.edges()]
    )


def is_planar_indexed(node_count: int, edges: Iterable[Tuple[int, int]]) -> bool:
    """Whether nodes ``0 .. node_count - 1`` with ``edges`` form a planar graph.

    Self-loops and parallel edges are dropped: neither affects planarity.
    A simple graph with ``V >= 3`` nodes and more than ``3V - 6`` edges is
    rejected without a search; otherwise the left-right test decides.
    """
    simple = {(u, v) if u < v else (v, u) for u, v in edges if u != v}
    if node_count >= 3 and len(simple) > 3 * node_count - 6:
        return False
    return _left_right_planar(node_count, list(simple))


def _left_right_planar(node_count: int, edges: List[Tuple[int, int]]) -> bool:
    """Brandes' left-right planarity test on a simple graph, test only.

    Edge ``k`` of ``edges`` is oriented by the first search, from the node
    that reaches it first to ``head[k]``.  A conflict pair is a list
    ``[left_low, left_high, right_low, right_high]`` of back edges (``None``
    for an empty end); the back edges of one interval are chained from
    ``high`` down to ``low`` through ``ref``.  The side and embedding
    bookkeeping of the full algorithm is left out.
    """
    adjacency: List[List[Tuple[int, int]]] = [[] for _ in range(node_count)]
    for edge, (u, v) in enumerate(edges):
        adjacency[u].append((v, edge))
        adjacency[v].append((u, edge))
    edge_count = len(edges)
    height = [-1] * node_count
    parent_edge = [-1] * node_count
    head = [0] * edge_count
    oriented = [False] * edge_count
    lowpt = [0] * edge_count
    lowpt2 = [0] * edge_count
    nesting_depth = [0] * edge_count
    out: List[List[int]] = [[] for _ in range(node_count)]

    def finish_orientation(edge: int, tail_height: int, parent: int) -> None:
        """Nesting depth of ``edge``, then fold its lowpoints into ``parent``'s."""
        low, low2 = lowpt[edge], lowpt2[edge]
        nesting_depth[edge] = 2 * low + (low2 < tail_height)
        if parent < 0:
            return
        if low < lowpt[parent]:
            lowpt2[parent] = min(lowpt[parent], low2)
            lowpt[parent] = low
        elif low > lowpt[parent]:
            lowpt2[parent] = min(lowpt2[parent], low)
        else:
            lowpt2[parent] = min(lowpt2[parent], low2)

    # Phase 1: orient the graph by depth-first search, one root per component.
    roots: List[int] = []
    position = [0] * node_count
    for root in range(node_count):
        if height[root] >= 0:
            continue
        roots.append(root)
        height[root] = 0
        stack = [root]
        while stack:
            v = stack[-1]
            v_height = height[v]
            incident = adjacency[v]
            index = position[v]
            descend = -1
            while index < len(incident):
                w, edge = incident[index]
                index += 1
                if oriented[edge]:
                    continue
                oriented[edge] = True
                head[edge] = w
                out[v].append(edge)
                lowpt[edge] = lowpt2[edge] = v_height
                if height[w] < 0:
                    # Tree edge: finished once the search returns from w.
                    parent_edge[w] = edge
                    height[w] = v_height + 1
                    descend = w
                    break
                lowpt[edge] = height[w]
                finish_orientation(edge, v_height, parent_edge[v])
            position[v] = index
            if descend >= 0:
                stack.append(descend)
                continue
            stack.pop()
            if stack:
                finish_orientation(parent_edge[v], v_height - 1, parent_edge[stack[-1]])

    # Phase 2: test for an LR partition, children in nesting order.
    for edges_out in out:
        edges_out.sort(key=nesting_depth.__getitem__)
    conflicts: List[list] = []
    stack_bottom: List[Optional[list]] = [None] * edge_count
    lowpt_edge = [0] * edge_count
    ref: List[Optional[int]] = [None] * edge_count

    def conflicting(low_end: Optional[int], high_end: Optional[int], edge: int) -> bool:
        """Whether the interval ``(low_end, high_end)`` conflicts with ``edge``."""
        if low_end is None and high_end is None:
            return False
        return lowpt[high_end] > lowpt[edge]

    def lowest(pair: list) -> int:
        """The lowest return point of a conflict pair."""
        left_low, left_high, right_low, right_high = pair
        if left_low is None and left_high is None:
            return lowpt[right_low]
        if right_low is None and right_high is None:
            return lowpt[left_low]
        return min(lowpt[left_low], lowpt[right_low])

    def add_constraints(edge: int, parent: int) -> bool:
        """Merge the return edges of ``edge`` with its older siblings'; False if impossible."""
        pair: list = [None, None, None, None]
        # The return edges of ``edge`` itself all go right.
        while True:
            q = conflicts.pop()
            if q[0] is not None or q[1] is not None:
                q[0], q[1], q[2], q[3] = q[2], q[3], q[0], q[1]
                if q[0] is not None or q[1] is not None:
                    return False
            if lowpt[q[2]] > lowpt[parent]:
                if pair[2] is None and pair[3] is None:
                    pair[3] = q[3]
                else:
                    ref[pair[2]] = q[3]
                pair[2] = q[2]
            else:
                # Returns exactly at the parent's lowpoint: align with it.
                ref[q[2]] = lowpt_edge[parent]
            if (conflicts[-1] if conflicts else None) is stack_bottom[edge]:
                break
        # Older return edges that conflict with ``edge`` all go left.
        while conflicts:
            q = conflicts[-1]
            if not (conflicting(q[0], q[1], edge) or conflicting(q[2], q[3], edge)):
                break
            conflicts.pop()
            if conflicting(q[2], q[3], edge):
                q[0], q[1], q[2], q[3] = q[2], q[3], q[0], q[1]
                if conflicting(q[2], q[3], edge):
                    return False
            if pair[2] is not None:
                ref[pair[2]] = q[3]
            if q[2] is not None:
                pair[2] = q[2]
            if pair[0] is None and pair[1] is None:
                pair[1] = q[1]
            else:
                ref[pair[0]] = q[1]
            pair[0] = q[0]
        if pair != [None, None, None, None]:
            conflicts.append(pair)
        return True

    def remove_back_edges(tail: int) -> None:
        """Trim the back edges that end at ``tail`` off the conflict stack."""
        tail_height = height[tail]
        while conflicts and lowest(conflicts[-1]) == tail_height:
            conflicts.pop()
        if not conflicts:
            return
        pair = conflicts[-1]
        while pair[1] is not None and head[pair[1]] == tail:
            pair[1] = ref[pair[1]]
        if pair[1] is None and pair[0] is not None:
            pair[0] = None
        while pair[3] is not None and head[pair[3]] == tail:
            pair[3] = ref[pair[3]]
        if pair[3] is None and pair[2] is not None:
            pair[2] = None

    def integrate(v: int, index: int, edge: int) -> bool:
        """Account for the return edges of ``edge``, the ``index``-th child edge of ``v``."""
        if lowpt[edge] >= height[v]:
            return True
        if index == 0:
            lowpt_edge[parent_edge[v]] = lowpt_edge[edge]
            return True
        return add_constraints(edge, parent_edge[v])

    position = [0] * node_count
    for root in roots:
        stack = [root]
        while stack:
            v = stack[-1]
            edges_out = out[v]
            index = position[v]
            while index < len(edges_out):
                edge = edges_out[index]
                stack_bottom[edge] = conflicts[-1] if conflicts else None
                if parent_edge[head[edge]] == edge:
                    break
                lowpt_edge[edge] = edge
                conflicts.append([None, None, edge, edge])
                if not integrate(v, index, edge):
                    return False
                index += 1
            position[v] = index
            if index < len(edges_out):
                # Descend the tree edge; it is integrated once w is done.
                stack.append(head[edges_out[index]])
                continue
            stack.pop()
            if stack:
                u = stack[-1]
                remove_back_edges(u)
                if not integrate(u, position[u], parent_edge[v]):
                    return False
                position[u] += 1
    return True
