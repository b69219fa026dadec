"""Differential fuzzer: the left-right planarity test vs. the DMP embedder.

:func:`~repro.embedding.planarity.is_planar_indexed` decides planarity with
Brandes' left-right test and never builds an embedding.  The reference is
the path-addition embedder: a graph is planar when
:func:`~repro.embedding.planarity.planar_embedding` succeeds on each of its
connected components (:func:`oracle_planar`).  The two are compared on
seeded random graphs from several families:

* ``near-bound`` -- simple graphs with ``3V - 9 <= E <= 3V - 6`` edges, just
  under the edge bound that rejects without a search;
* ``sparse`` -- simple graphs with ``V - 1 <= E <= 2V`` edges;
* ``triangulation`` -- a random maximal planar graph with a few edges
  dropped and a few random edges added;
* ``kuratowski`` -- a subdivided K5 or K3,3, sometimes minus one edge,
  glued into a random planar graph;
* ``multigraph`` -- parallel edges, self-loops, isolated nodes and several
  components.

Node labels and edge directions are shuffled, so the depth-first search
meets each graph from a random root and in a random order.  A mismatch is
shrunk to a minimal edge set before it is reported.

Not collected by pytest (the file name has no ``test_`` prefix); the tier-1
slice lives in ``test_planarity.py`` and the full run is::

    PYTHONPATH=src python -m tests.embedding.planarity_fuzz --seed 1

The seed is printed first, so any failure can be replayed with ``--seed``.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.embedding.planarity import is_planar_indexed, planar_embedding
from repro.errors import NotPlanar
from repro.graph.connectivity import connected_components
from repro.graph.multigraph import Graph

Edges = List[Tuple[int, int]]


def oracle_planar(node_count: int, edges: Sequence[Tuple[int, int]]) -> bool:
    """Planarity by DMP: ``planar_embedding`` succeeds on every component.

    Self-loops are left out, because :class:`Graph` rejects them and they
    never affect planarity; parallel edges are kept.
    """
    graph = Graph("oracle")
    for node in range(node_count):
        graph.ensure_node(f"v{node}")
    for u, v in edges:
        if u != v:
            graph.add_edge(f"v{u}", f"v{v}")
    try:
        for component in connected_components(graph):
            planar_embedding(graph.subgraph(component))
    except NotPlanar:
        return False
    return True


def left_right(node_count: int, edges: Sequence[Tuple[int, int]]) -> Union[bool, str]:
    """The left-right test's answer, or the exception it raised, as text."""
    try:
        return is_planar_indexed(node_count, edges)
    except Exception as error:  # a crash is a finding: report and shrink it
        return repr(error)


def disagrees(node_count: int, edges: Sequence[Tuple[int, int]]) -> bool:
    """Whether the left-right test and the oracle differ on this graph."""
    return left_right(node_count, edges) != oracle_planar(node_count, edges)


def shuffled(rng: random.Random, node_count: int, edges: Edges) -> Edges:
    """``edges`` under a random node relabelling, order and edge direction."""
    label = list(range(node_count))
    rng.shuffle(label)
    result = [
        (label[u], label[v]) if rng.random() < 0.5 else (label[v], label[u])
        for u, v in edges
    ]
    rng.shuffle(result)
    return result


def random_simple(rng: random.Random, node_count: int, edge_count: int) -> Edges:
    """``edge_count`` distinct node pairs drawn uniformly."""
    pairs = [(u, v) for u in range(node_count) for v in range(u + 1, node_count)]
    return rng.sample(pairs, min(max(edge_count, 0), len(pairs)))


def triangulation(rng: random.Random, node_count: int) -> Edges:
    """A random maximal planar graph: each new node goes into a random face."""
    edges = [(0, 1), (1, 2), (0, 2)]
    faces = [(0, 1, 2), (0, 1, 2)]
    for node in range(3, node_count):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        edges += [(a, node), (b, node), (c, node)]
        faces += [(a, b, node), (b, c, node), (a, c, node)]
    return edges


def near_bound(rng: random.Random, max_nodes: int) -> Tuple[int, Edges]:
    nodes = rng.randint(4, max_nodes)
    return nodes, random_simple(rng, nodes, rng.randint(3 * nodes - 9, 3 * nodes - 6))


def sparse(rng: random.Random, max_nodes: int) -> Tuple[int, Edges]:
    nodes = rng.randint(2, max_nodes)
    return nodes, random_simple(rng, nodes, rng.randint(nodes - 1, 2 * nodes))


def triangulation_plus(rng: random.Random, max_nodes: int) -> Tuple[int, Edges]:
    nodes = rng.randint(4, max_nodes)
    edges = triangulation(rng, nodes)
    rng.shuffle(edges)
    del edges[len(edges) - rng.randint(0, nodes):]
    for _ in range(rng.randint(0, 3)):
        edges.append(tuple(rng.sample(range(nodes), 2)))
    return nodes, edges


def kuratowski(rng: random.Random, max_nodes: int) -> Tuple[int, Edges]:
    if rng.random() < 0.5:
        nodes = 5
        core = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    else:
        nodes = 6
        core = [(u, v) for u in range(3) for v in range(3, 6)]
    if rng.random() < 0.3:
        core.pop(rng.randrange(len(core)))
    edges: Edges = []
    for u, v in core:
        previous = u
        for _ in range(rng.randint(0, 3)):
            edges.append((previous, nodes))
            previous = nodes
            nodes += 1
        edges.append((previous, v))
    # Glue a random planar graph on at one node of the subdivision.
    extra = rng.randint(0, max(0, max_nodes - nodes))
    if extra >= 3:
        offset = nodes
        edges += [(u + offset, v + offset) for u, v in triangulation(rng, extra)]
        edges.append((rng.randrange(offset), offset))
        nodes += extra
    return nodes, edges


def multigraph(rng: random.Random, max_nodes: int) -> Tuple[int, Edges]:
    nodes = rng.randint(0, max_nodes)
    if nodes == 0:
        return 0, []
    edges = [
        (rng.randrange(nodes), rng.randrange(nodes))
        for _ in range(rng.randint(0, 3 * nodes))
    ]
    if edges:
        edges += [rng.choice(edges) for _ in range(rng.randint(0, 3))]
    return nodes + rng.randint(0, 3), edges


FAMILIES: Dict[str, Callable[[random.Random, int], Tuple[int, Edges]]] = {
    "near-bound": near_bound,
    "sparse": sparse,
    "triangulation": triangulation_plus,
    "kuratowski": kuratowski,
    "multigraph": multigraph,
}


def random_graph(rng: random.Random, family: str, max_nodes: int) -> Tuple[int, Edges]:
    """One shuffled graph of ``family`` with at most about ``max_nodes`` nodes."""
    nodes, edges = FAMILIES[family](rng, max_nodes)
    return nodes, shuffled(rng, nodes, edges)


def shrink(node_count: int, edges: Sequence[Tuple[int, int]]) -> Edges:
    """A minimal edge subset on which the test and the oracle still disagree.

    Greedy one-edge-at-a-time removal: the result disagrees, and dropping
    any single further edge makes the disagreement go away.
    """
    current = list(edges)
    index = 0
    while index < len(current):
        candidate = current[:index] + current[index + 1:]
        if disagrees(node_count, candidate):
            current = candidate
        else:
            index += 1
    return current


def fuzz(
    rng: random.Random, graphs: int, max_nodes: int
) -> Tuple[Dict[str, List[int]], Optional[str]]:
    """Compare ``graphs`` random graphs per family.

    Returns ``[planar, non-planar]`` counts per family and, on the first
    disagreement, a report with the shrunk edge set (``None`` when all agree).
    """
    counts: Dict[str, List[int]] = {family: [0, 0] for family in FAMILIES}
    for round_index in range(graphs):
        for family in FAMILIES:
            nodes, edges = random_graph(rng, family, max_nodes)
            planar = oracle_planar(nodes, edges)
            answer = left_right(nodes, edges)
            if answer != planar:
                minimal = shrink(nodes, edges)
                return counts, (
                    f"{family} graph {round_index} ({nodes} nodes, {len(edges)} edges): "
                    f"left-right test {answer}, DMP {planar}; minimal disagreeing "
                    f"edge set on {nodes} nodes: {minimal} (left-right test "
                    f"{left_right(nodes, minimal)}, DMP {oracle_planar(nodes, minimal)})"
                )
            counts[family][0 if planar else 1] += 1
    return counts, None


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed (random when omitted; always printed)")
    parser.add_argument("--graphs", type=int, default=1000,
                        help="random graphs per family")
    parser.add_argument("--max-nodes", type=int, default=40,
                        help="about the largest graph generated")
    args = parser.parse_args(argv)

    seed = args.seed if args.seed is not None else random.randrange(2**32)
    print(f"planarity fuzz seed {seed}", flush=True)
    started = time.perf_counter()
    counts, failure = fuzz(random.Random(seed), args.graphs, args.max_nodes)
    if failure is not None:
        print(f"MISMATCH (seed {seed}): {failure}", flush=True)
        return 1
    for family, (planar, non_planar) in counts.items():
        print(f"  {family}: {planar} planar, {non_planar} non-planar", flush=True)
    print(f"all decisions identical ({time.perf_counter() - started:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
