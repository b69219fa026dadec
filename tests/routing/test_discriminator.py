"""Unit tests for distance discriminators."""

import math
from collections import deque

import pytest

from repro.core.scheme import PacketRecycling
from repro.errors import RoutingError
from repro.routing.discriminator import (
    DiscriminatorKind,
    compare_discriminators,
    discriminator_bits_required,
    discriminator_value,
)
from repro.topologies.corpus import parse_topology_spec, topology_set
from repro.topologies.generators import ring_graph


class TestDiscriminatorValue:
    def test_hop_count_kind(self):
        assert discriminator_value(DiscriminatorKind.HOP_COUNT, hops=3, cost=17.0) == 3.0

    def test_weighted_cost_kind(self):
        assert discriminator_value(DiscriminatorKind.WEIGHTED_COST, hops=3, cost=17.0) == 17.0

    def test_unknown_kind_raises(self):
        with pytest.raises(RoutingError):
            discriminator_value("bogus", hops=1, cost=1.0)  # type: ignore[arg-type]


class TestBitsRequired:
    def test_matches_log2_of_diameter(self, abilene_graph):
        bits = discriminator_bits_required(abilene_graph, DiscriminatorKind.HOP_COUNT)
        # Abilene's hop diameter is 5 (e.g. Seattle to Washington), so 3 bits.
        assert bits == 3

    def test_single_node_graph(self):
        from repro.graph.multigraph import Graph

        graph = Graph()
        graph.add_node("only")
        assert discriminator_bits_required(graph, DiscriminatorKind.HOP_COUNT) == 1

    def test_ring_bits(self):
        ring = ring_graph(8)  # hop diameter 4
        assert discriminator_bits_required(ring, DiscriminatorKind.HOP_COUNT) == 3

    def test_weighted_bits_at_least_hop_bits_for_unit_weights(self, abilene_graph):
        weighted = discriminator_bits_required(abilene_graph, DiscriminatorKind.WEIGHTED_COST)
        hops = discriminator_bits_required(abilene_graph, DiscriminatorKind.HOP_COUNT)
        assert weighted >= hops


def hop_diameter(graph):
    """Largest BFS hop distance between two nodes of a connected graph."""
    largest = 0
    for source in graph.nodes():
        hops = {source: 0}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for neighbor in graph.neighbors(node):
                if neighbor not in hops:
                    hops[neighbor] = hops[node] + 1
                    queue.append(neighbor)
        largest = max(largest, max(hops.values()))
    return largest


@pytest.mark.parametrize("topology", topology_set("all"))
def test_header_bound_is_log_of_hop_diameter_on_every_corpus_member(topology):
    """Section 6: the DD field takes ``ceil(log2(d + 1))`` bits for hop
    diameter ``d``, and the PR header adds the PR bit to it."""
    graph = parse_topology_spec(topology).build()
    bits = max(1, math.ceil(math.log2(hop_diameter(graph) + 1)))
    assert discriminator_bits_required(graph, DiscriminatorKind.HOP_COUNT) == bits
    scheme = PacketRecycling(
        graph, discriminator_kind=DiscriminatorKind.HOP_COUNT, embedding_seed=0
    )
    assert scheme.header_overhead_bits() == 1 + bits


class TestComparison:
    def test_strictly_smaller_resumes_routing(self):
        assert compare_discriminators(own=1.0, in_packet=2.0)

    def test_equal_keeps_cycle_following(self):
        assert not compare_discriminators(own=2.0, in_packet=2.0)

    def test_larger_keeps_cycle_following(self):
        assert not compare_discriminators(own=5.0, in_packet=2.0)
