"""Unit tests for planarity testing and the DMP planar embedder."""

import random

import pytest

import repro.embedding.genus as genus
from repro.embedding.builder import embed
from repro.embedding.faces import euler_genus, trace_faces
from repro.embedding.planarity import is_planar, is_planar_indexed, planar_embedding
from repro.embedding.validation import validate_embedding
from repro.errors import DisconnectedGraph, NotPlanar
from repro.graph.multigraph import Graph
from repro.topologies.generators import (
    complete_graph,
    grid_graph,
    k33_graph,
    k5_graph,
    ladder_graph,
    petersen_graph,
    ring_graph,
    wheel_graph,
)
from repro.topologies.corpus import parse_topology_spec, topology_set
from tests.embedding.planarity_fuzz import kuratowski, near_bound, oracle_planar, shuffled


class TestIsPlanar:
    @pytest.mark.parametrize(
        "graph_factory",
        [
            lambda: ring_graph(8),
            lambda: grid_graph(4, 5),
            lambda: wheel_graph(6),
            lambda: ladder_graph(5),
            lambda: complete_graph(4),
        ],
    )
    def test_planar_families(self, graph_factory):
        assert is_planar(graph_factory())

    @pytest.mark.parametrize(
        "graph_factory",
        [k5_graph, k33_graph, petersen_graph, lambda: complete_graph(6)],
    )
    def test_non_planar_families(self, graph_factory):
        assert not is_planar(graph_factory())

    def test_isp_topologies(self, abilene_graph, geant_graph):
        assert is_planar(abilene_graph)
        assert is_planar(geant_graph)

    def test_disconnected_graph_checked_per_component(self):
        graph = Graph.from_edge_list([("a", "b"), ("b", "c"), ("a", "c")])
        graph.ensure_node("island")
        assert is_planar(graph)

    def test_dense_graph_rejected_by_edge_bound(self):
        assert not is_planar(complete_graph(8))


class TestPlanarEmbedding:
    @pytest.mark.parametrize(
        "graph_factory",
        [
            lambda: ring_graph(5),
            lambda: grid_graph(3, 4),
            lambda: wheel_graph(7),
            lambda: complete_graph(4),
            lambda: ladder_graph(4),
        ],
    )
    def test_embedding_is_genus_zero_and_valid(self, graph_factory):
        graph = graph_factory()
        rotation = planar_embedding(graph)
        faces = validate_embedding(graph, rotation)
        assert euler_genus(graph, faces) == 0

    def test_abilene_planar_embedding(self, abilene_graph):
        rotation = planar_embedding(abilene_graph)
        faces = validate_embedding(abilene_graph, rotation)
        assert euler_genus(abilene_graph, faces) == 0
        # Euler: F = E - V + 2 = 14 - 11 + 2.
        assert len(faces) == 5

    def test_geant_planar_embedding(self, geant_graph):
        rotation = planar_embedding(geant_graph)
        faces = validate_embedding(geant_graph, rotation)
        assert euler_genus(geant_graph, faces) == 0

    def test_non_planar_raises(self):
        with pytest.raises(NotPlanar):
            planar_embedding(k5_graph())

    def test_k33_raises(self):
        with pytest.raises(NotPlanar):
            planar_embedding(k33_graph())

    def test_disconnected_raises(self):
        graph = Graph.from_edge_list([("a", "b")])
        graph.ensure_node("island")
        with pytest.raises(DisconnectedGraph):
            planar_embedding(graph)

    def test_graph_with_bridges_and_cut_vertices(self):
        graph = Graph.from_edge_list(
            [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("d", "e"), ("e", "f"), ("d", "f")]
        )
        rotation = planar_embedding(graph)
        faces = validate_embedding(graph, rotation)
        assert euler_genus(graph, faces) == 0

    def test_single_edge_graph(self):
        graph = Graph.from_edge_list([("a", "b")])
        rotation = planar_embedding(graph)
        faces = validate_embedding(graph, rotation)
        assert len(faces) == 1

    def test_tree_embedding(self):
        tree = Graph.from_edge_list([("a", "b"), ("b", "c"), ("b", "d"), ("d", "e")])
        rotation = planar_embedding(tree)
        faces = validate_embedding(tree, rotation)
        # A tree embeds with a single face walking every edge twice.
        assert len(faces) == 1

    def test_multigraph_embedding(self):
        graph = Graph()
        graph.add_edge("a", "b")
        graph.add_edge("a", "b")
        graph.add_edge("b", "c")
        graph.add_edge("c", "a")
        rotation = planar_embedding(graph)
        faces = validate_embedding(graph, rotation)
        assert euler_genus(graph, faces) == 0

    def test_empty_graph(self):
        graph = Graph()
        rotation = planar_embedding(graph)
        assert rotation.darts() == []

    def test_larger_grid_face_count(self):
        grid = grid_graph(5, 5)
        rotation = planar_embedding(grid)
        faces = trace_faces(rotation)
        # 4x4 inner cells plus the outer face.
        assert len(faces) == 17


def indexed(graph):
    """``graph`` as ``(node_count, int edge list)``, nodes numbered in graph order."""
    index = {node: position for position, node in enumerate(graph.nodes())}
    return len(index), [(index[edge.u], index[edge.v]) for edge in graph.edges()]


class TestLeftRightAgainstDmp:
    """The left-right test decides exactly as the DMP embedder (``oracle_planar``)."""

    @pytest.mark.parametrize("topology", topology_set("all"))
    def test_corpus_member(self, topology):
        graph = parse_topology_spec(topology).build()
        assert is_planar(graph) == oracle_planar(*indexed(graph))

    def test_every_planar_core_candidate_of_the_corpus(self, monkeypatch):
        tested = {}
        check = genus.is_planar_indexed

        def recording(node_count, edges):
            edges = list(edges)
            planar = check(node_count, edges)
            tested.setdefault((node_count, tuple(sorted(edges))), planar)
            return planar

        monkeypatch.setattr(genus, "is_planar_indexed", recording)
        for topology in topology_set("all"):
            graph = parse_topology_spec(topology).build()
            for seed in range(4):
                embed(graph, seed=seed)
        assert len(tested) > 500
        assert {planar for planar in tested.values()} == {True, False}
        wrong = [key for key, planar in tested.items() if oracle_planar(*key) != planar]
        assert wrong == []

    @pytest.mark.parametrize("seed", range(40))
    def test_subdivided_kuratowski_graphs(self, seed):
        rng = random.Random(seed)
        node_count, edges = kuratowski(rng, 30)
        edges = shuffled(rng, node_count, edges)
        assert is_planar_indexed(node_count, edges) == oracle_planar(node_count, edges)

    @pytest.mark.parametrize("seed", range(150))
    def test_random_graphs_near_the_edge_bound(self, seed):
        rng = random.Random(seed)
        node_count, edges = near_bound(rng, 24)
        assert 3 * node_count - 9 <= len(edges) <= 3 * node_count - 6
        assert is_planar_indexed(node_count, edges) == oracle_planar(node_count, edges)

    @pytest.mark.parametrize(
        "node_count, edges, planar",
        [
            (0, [], True),
            (1, [], True),
            (1, [(0, 0)], True),
            (2, [], True),
            (2, [(0, 1), (1, 0), (0, 1)], True),
            (2, [(0, 0), (0, 1), (1, 1)], True),
            (8, [(u, v) for u in range(5) for v in range(u + 1, 5)], False),
            # K5 with every edge doubled and a loop at each node.
            (5, [(u, v) for u in range(5) for v in range(5) if u <= v] * 2, False),
            # K3,3 and a separate triangle, plus two isolated nodes.
            (11, [(u, v) for u in range(3) for v in range(3, 6)] + [(6, 7), (7, 8), (8, 6)],
             False),
            # Two disjoint K4s, each planar.
            (8, [(u + base, v + base) for base in (0, 4) for u in range(4)
                 for v in range(u + 1, 4)], True),
        ],
    )
    def test_multigraph_edge_cases(self, node_count, edges, planar):
        assert is_planar_indexed(node_count, edges) is planar
        assert oracle_planar(node_count, edges) is planar

    def test_parallel_edges_and_isolated_nodes_on_a_graph(self):
        graph = k33_graph()
        graph.add_edge(*graph.edges()[0].endpoints)
        graph.ensure_node("island")
        assert not is_planar(graph)
        graph.remove_edge(graph.edge_ids()[1])
        assert is_planar(graph)

    @pytest.mark.parametrize("factory", [ring_graph, lambda size: grid_graph(1, size)])
    def test_long_ring_and_path_do_not_recurse(self, factory):
        # A recursive depth-first search would exceed Python's default
        # recursion limit (1000) on a 3,000-node ring or path.
        assert is_planar(factory(3000))
