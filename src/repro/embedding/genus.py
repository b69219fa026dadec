"""Heuristic search for low-genus rotation systems of non-planar graphs.

Finding the minimum-genus embedding of an arbitrary graph is NP-hard (the
paper cites Mohar & Thomassen for this), but *any* rotation system of a
connected graph is a cellular embedding of *some* orientable surface — so
correctness of Packet Re-cycling never depends on optimality.  Genus only
affects path stretch: fewer faces means longer backup cycles.  The heuristics
below therefore maximise the number of faces:

* :func:`greedy_insertion_rotation` — embed a maximal planar subgraph exactly
  (DMP), then insert the remaining edges one by one, choosing the rotation
  positions of their two darts so that the resulting face count is maximal.
* :func:`local_search_rotation` — hill climbing (optionally with simulated
  annealing style restarts) over single-dart relocation moves.
* :func:`minimise_genus` — the public entry point combining both.

All three score thousands of candidate rotations, so they share one integer
encoding of the darts, :class:`_IntRotation`: rotations are lists of ints, the
face permutation is one flat array, and a score is one O(darts) orbit trace
over plain lists.  A candidate is tried by editing one or two nodes' int lists
in place, never by copying a :class:`RotationSystem`; the result is converted
back once.  Candidate order, tie-breaks and random draws are those of the
object-level formulation, so the heuristics return exactly the same rotations.
"""

from __future__ import annotations

import operator
import random
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.graph.connectivity import bridges
from repro.graph.darts import Dart
from repro.graph.multigraph import Graph
from repro.embedding.faces import trace_faces
from repro.embedding.planarity import is_planar, is_planar_indexed, planar_embedding
from repro.embedding.rotation import RotationSystem


class _IntRotation:
    """Integer-encoded rotation system: the genus heuristics' scratch space.

    Edge ``k`` of ``graph.edges()`` owns dart ``2k`` (leaving ``edge.u``) and
    dart ``2k + 1`` (leaving ``edge.v``), so ``dart ^ 1`` is the reverse dart.
    ``rot`` holds each node's cyclic order as a list of dart ints, mirroring
    the :class:`Dart` lists position for position.  ``next_in_face[d]`` is the
    dart after ``d`` along its face (the successor of ``d ^ 1`` at its tail),
    or ``-1`` while the edge of ``d`` is not in the rotation; such absent
    edges neither form faces nor count as self-paired, which is how a partial
    rotation is scored during greedy construction.
    """

    __slots__ = ("graph", "darts", "first_dart", "rot", "next_in_face")

    def __init__(self, graph: Graph, rotations: Mapping[str, Sequence[Dart]]) -> None:
        self.graph = graph
        self.darts: List[Dart] = [dart for edge in graph.edges() for dart in edge.darts()]
        self.first_dart: Dict[int, int] = {
            edge.edge_id: 2 * k for k, edge in enumerate(graph.edges())
        }
        index_of = {dart: index for index, dart in enumerate(self.darts)}
        self.rot: Dict[str, List[int]] = {
            node: [index_of[dart] for dart in rotations.get(node, ())] for node in graph.nodes()
        }
        self.next_in_face = [-1] * len(self.darts)
        for node in self.rot:
            self.sync(node)

    def sync(self, node: str) -> None:
        """Rewrite the face-permutation entries that ``node``'s rotation defines."""
        cycle = self.rot[node]
        if not cycle:
            return
        next_in_face = self.next_in_face
        previous = cycle[-1]
        for dart in cycle:
            next_in_face[previous ^ 1] = dart
            previous = dart

    def face_labels(self) -> Tuple[List[int], int]:
        """Face number of every dart (``-1`` for absent darts) and the face count."""
        next_in_face = self.next_in_face
        face_of = [-1] * len(next_in_face)
        faces = 0
        for start, dart in enumerate(next_in_face):
            if dart < 0 or face_of[start] >= 0:
                continue
            face_of[start] = faces
            while dart != start:
                face_of[dart] = faces
                dart = next_in_face[dart]
            faces += 1
        return face_of, faces

    def score(self) -> Tuple[int, int]:
        """``(-self_paired_edges, faces)``, as :func:`embedding_score`."""
        face_of, faces = self.face_labels()
        forward, backward = face_of[0::2], face_of[1::2]
        # Absent edges have both darts labelled -1: equal, but not self-paired.
        self_paired = sum(map(operator.eq, forward, backward)) - forward.count(-1)
        return (-self_paired, faces)

    def insert_best(self, edge_id: int) -> None:
        """Insert both darts of ``edge_id`` at the best-scoring position pair.

        Candidates run over the index at ``edge.u`` (outer) and at ``edge.v``
        (inner); the first strictly best pair wins.
        """
        forward = self.first_dart[edge_id]
        backward = forward + 1
        u, v = self.darts[forward].tail, self.darts[backward].tail
        cycle_u, cycle_v = self.rot[u], self.rot[v]
        best_score: Optional[Tuple[int, int]] = None
        best_u = best_v = 0
        for index_u in range(len(cycle_u) + 1):
            cycle_u.insert(index_u, forward)
            self.sync(u)
            for index_v in range(len(cycle_v) + 1):
                cycle_v.insert(index_v, backward)
                self.sync(v)
                score = self.score()
                if best_score is None or score > best_score:
                    best_score, best_u, best_v = score, index_u, index_v
                del cycle_v[index_v]
            del cycle_u[index_u]
        cycle_u.insert(best_u, forward)
        cycle_v.insert(best_v, backward)
        self.sync(u)
        self.sync(v)

    def remove_edge(self, edge_id: int) -> None:
        """Take both darts of ``edge_id`` out of the rotation."""
        forward = self.first_dart[edge_id]
        for dart in (forward, forward + 1):
            node = self.darts[dart].tail
            self.rot[node].remove(dart)
            self.next_in_face[dart] = -1
            self.sync(node)

    def climb(self, iterations: int, rng: random.Random) -> None:
        """Hill climb over single-dart relocations at nodes of degree >= 3."""
        movable = [node for node in self.graph.nodes() if self.graph.degree(node) >= 3]
        if not movable:
            return
        current_score = self.score()
        for _round in range(iterations):
            node = rng.choice(movable)
            cycle = self.rot[node]
            dart = rng.choice(cycle)
            new_index = rng.randrange(len(cycle))
            old_index = cycle.index(dart)
            del cycle[old_index]
            cycle.insert(new_index, dart)
            if abs(new_index - old_index) in (0, len(cycle) - 1):
                # Unchanged or turned list: same cyclic order, so the same
                # score, and a tie keeps the move.
                continue
            self.sync(node)
            candidate_score = self.score()
            if candidate_score >= current_score:
                current_score = candidate_score
            else:
                del cycle[new_index]
                cycle.insert(old_index, dart)
                self.sync(node)

    def repair(self, unavoidable: Set[int], rounds: int) -> Tuple[int, int]:
        """Re-insert self-paired edges (bar ``unavoidable``); returns the score."""
        for _round in range(rounds):
            face_of, _faces = self.face_labels()
            pairs = zip(self.graph.edges(), face_of[0::2], face_of[1::2])
            offenders = [
                edge.edge_id
                for edge, forward, backward in pairs
                if forward == backward and edge.edge_id not in unavoidable
            ]
            if not offenders:
                break
            for edge_id in offenders:
                self.remove_edge(edge_id)
                self.insert_best(edge_id)
        return self.score()

    def to_rotation_system(self) -> RotationSystem:
        """The :class:`RotationSystem` with the same dart lists."""
        darts = self.darts
        rotations = {node: [darts[index] for index in cycle] for node, cycle in self.rot.items()}
        return RotationSystem(self.graph, rotations)


def self_paired_edge_count(rotation: RotationSystem) -> int:
    """Number of edges whose two darts lie on the *same* face.

    The paper calls this the "curved cell" case: the main cycle and the
    complementary cycle of the link coincide.  Such links are exactly the
    ones Packet Re-cycling cannot route around (the backup cycle of the
    failed link is the cycle the packet is already stuck on), so the genus
    heuristics treat eliminating them as more important than gaining an
    extra face.  Planar embeddings of 2-connected graphs never contain them.
    """
    faces = trace_faces(rotation)
    count = 0
    for edge in rotation.graph.edges():
        forward, backward = edge.darts()
        if faces.face_of(forward) is faces.face_of(backward):
            count += 1
    return count


def embedding_score(rotation: RotationSystem) -> Tuple[int, int]:
    """Quality of a rotation system, higher is better.

    Lexicographic: first minimise the number of self-paired (unprotectable)
    edges, then maximise the number of faces (i.e. minimise genus).  Edges
    not (yet) in the rotation do not contribute.
    """
    return _IntRotation(rotation.graph, rotation.as_mapping()).score()


def greedy_insertion_rotation(graph: Graph, seed: Optional[int] = None) -> RotationSystem:
    """Embed a maximal planar subgraph exactly, then insert leftover edges greedily.

    Every leftover edge is inserted at the pair of rotation positions (one
    per endpoint) that maximises :func:`embedding_score` of the resulting
    embedding; ties are broken deterministically.
    """
    return _greedy_insertion(graph, seed).to_rotation_system()


def _greedy_insertion(graph: Graph, seed: Optional[int]) -> _IntRotation:
    rng = random.Random(seed)
    planar_core, deferred = _maximal_planar_core(graph, rng if seed is not None else None)
    state = _IntRotation(graph, planar_embedding(planar_core).as_mapping())
    for edge_id in deferred:
        state.insert_best(edge_id)
    return state


def _maximal_planar_core(
    graph: Graph, rng: Optional[random.Random]
) -> Tuple[Graph, List[int]]:
    """Grow a maximal planar connected subgraph of ``graph``.

    A spanning tree is added first so that the core stays connected (the
    planar embedder requires connectivity); the remaining edges are then
    added greedily in (optionally shuffled) id order as long as planarity is
    preserved.  Each candidate is tested on the growing integer edge list,
    and the core :class:`Graph` is built once, in the same edge order.
    Returns the core and the list of deferred edge ids.
    """
    from repro.graph.traversal import spanning_tree_edges

    tree = spanning_tree_edges(graph)
    index = {node: position for position, node in enumerate(graph.nodes())}

    def ends(edge_id: int) -> Tuple[int, int]:
        edge = graph.edge(edge_id)
        return index[edge.u], index[edge.v]

    core_edges = [ends(edge_id) for edge_id in tree]
    in_tree = set(tree)
    remaining = [edge_id for edge_id in graph.edge_ids() if edge_id not in in_tree]
    if rng is not None:
        rng.shuffle(remaining)
    accepted: List[int] = []
    deferred: List[int] = []
    for edge_id in remaining:
        core_edges.append(ends(edge_id))
        if is_planar_indexed(len(index), core_edges):
            accepted.append(edge_id)
        else:
            core_edges.pop()
            deferred.append(edge_id)
    core = graph.edge_subgraph(tree, name=f"{graph.name}-planar-core")
    for edge_id in accepted:
        edge = graph.edge(edge_id)
        core.add_edge_with_id(edge_id, edge.u, edge.v, edge.weight)
    return core, deferred


def repair_self_paired_edges(
    rotation: RotationSystem,
    graph: Graph,
    rounds: int = 4,
) -> RotationSystem:
    """Targeted repair: re-insert the darts of self-paired edges at better spots.

    For every edge whose two darts ended up on the same face, remove both
    darts from the rotation and re-insert them at the position pair with the
    best :func:`embedding_score`.  A few rounds usually eliminate all
    self-paired edges on ISP-scale graphs (when the graph structure allows
    it at all — a cut edge is self-paired in every embedding).
    """
    state = _IntRotation(graph, rotation.as_mapping())
    state.repair(set(bridges(graph)), rounds)
    return state.to_rotation_system()


def local_search_rotation(
    graph: Graph,
    initial: Optional[RotationSystem] = None,
    iterations: int = 200,
    seed: Optional[int] = None,
) -> RotationSystem:
    """Hill-climbing over single-dart relocation moves, maximising the score.

    Starting from ``initial`` (or the adjacency-order rotation), repeatedly
    pick a dart and a new position within its node's rotation at random and
    keep the move if the lexicographic :func:`embedding_score` — fewer
    self-paired edges first, then more faces — does not decrease.  The
    search stops after ``iterations`` candidate moves.
    """
    start = initial or RotationSystem.from_adjacency_order(graph)
    state = _IntRotation(graph, start.as_mapping())
    state.climb(iterations, random.Random(seed))
    return state.to_rotation_system()


def minimise_genus(
    graph: Graph,
    method: str = "auto",
    iterations: int = 200,
    seed: Optional[int] = None,
    restarts: int = 4,
) -> RotationSystem:
    """Best-effort low-genus rotation system of a connected graph.

    ``method``:

    * ``"auto"`` — exact planar embedding when the graph is planar, otherwise
      up to ``restarts`` rounds of greedy insertion + local search + repair,
      keeping the best result and stopping early once an embedding with no
      self-paired edges (a "strong" embedding, the kind PR needs for full
      single-failure coverage) has been found.
    * ``"planar"`` — exact planar embedding; raises :class:`NotPlanar` if
      impossible.
    * ``"greedy"`` — greedy edge insertion only.
    * ``"local-search"`` — local search from the adjacency-order rotation.
    * ``"adjacency"`` — the raw adjacency-order rotation (no optimisation);
      useful as a worst-case ablation point.
    """
    if method == "planar":
        return planar_embedding(graph)
    if method == "adjacency":
        return RotationSystem.from_adjacency_order(graph)
    if method == "greedy":
        return greedy_insertion_rotation(graph, seed=seed)
    if method == "local-search":
        return local_search_rotation(graph, iterations=iterations, seed=seed)
    if method != "auto":
        raise ValueError(f"unknown embedding method {method!r}")

    if is_planar(graph):
        return planar_embedding(graph)

    base_seed = 0 if seed is None else seed
    unavoidable = set(bridges(graph))
    adjacency = {node: graph.darts_out(node) for node in graph.nodes()}
    best: Optional[_IntRotation] = None
    best_score: Optional[Tuple[int, int]] = None

    def consider(state: _IntRotation, budget: int, attempt_seed: int) -> bool:
        """Climb and repair ``state``; True once the best has no self-paired edge."""
        nonlocal best, best_score
        # Neither the climb nor a repair ever lowers the score (a repair may
        # always re-insert an edge where it was), so the repaired climb result
        # is the best candidate of the pass.
        state.climb(budget, random.Random(attempt_seed))
        score = state.repair(unavoidable, rounds=4)
        if best_score is None or score > best_score:
            best, best_score = state, score
        # No self-paired edges: every link has a usable backup cycle.
        return best_score[0] == 0

    # A longer budget for the plain local search pass: it starts from a much
    # worse point (adjacency order) than the greedy-insertion pass does.
    plain_iterations = max(iterations, 25 * graph.number_of_edges())

    for attempt in range(max(1, restarts)):
        attempt_seed = base_seed + attempt
        if consider(_greedy_insertion(graph, attempt_seed), iterations, attempt_seed):
            break
        # Second try within the same attempt: local search from scratch, which
        # escapes starting points where greedy insertion trapped itself.
        if consider(_IntRotation(graph, adjacency), plain_iterations, attempt_seed):
            break
    assert best is not None  # restarts >= 1 guarantees at least one candidate
    return best.to_rotation_system()
