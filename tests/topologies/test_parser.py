"""Tests for the topology file parser."""

import pytest

from repro.errors import TopologyError
from repro.topologies.parser import graph_from_text, graph_to_text, load_graph, save_graph


class TestParser:
    def test_basic_edge_list(self):
        graph = graph_from_text("a b 2.5\nb c\n")
        assert graph.number_of_edges() == 2
        assert graph.edge(0).weight == 2.5
        assert graph.edge(1).weight == 1.0

    def test_comments_and_blank_lines_ignored(self):
        graph = graph_from_text("# header\n\na b 1 # inline comment\n")
        assert graph.number_of_edges() == 1

    def test_isolated_node_declaration(self):
        graph = graph_from_text("node lonely\na b\n")
        assert graph.has_node("lonely")
        assert graph.degree("lonely") == 0

    def test_invalid_weight_rejected(self):
        with pytest.raises(TopologyError):
            graph_from_text("a b heavy\n")

    def test_negative_weight_rejected(self):
        with pytest.raises(TopologyError):
            graph_from_text("a b -3\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(TopologyError):
            graph_from_text("a b 1 extra\n")

    def test_duplicate_node_declaration_rejected(self):
        with pytest.raises(TopologyError, match="duplicate node name"):
            graph_from_text("node lonely\nnode lonely\n")

    def test_redeclaring_an_edge_endpoint_rejected(self):
        with pytest.raises(TopologyError, match="duplicate node name"):
            graph_from_text("a b 1\nnode a\n")

    def test_round_trip(self, abilene_graph):
        text = graph_to_text(abilene_graph)
        rebuilt = graph_from_text(text, name="abilene")
        assert rebuilt.to_edge_list() == abilene_graph.to_edge_list()

    def test_file_round_trip(self, tmp_path, fig1_graph):
        path = save_graph(fig1_graph, tmp_path / "fig1.topo")
        loaded = load_graph(path)
        assert loaded.to_edge_list() == fig1_graph.to_edge_list()
        assert loaded.name == "fig1"
