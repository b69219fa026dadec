"""Corpus-wide oracle: the ``auto`` embedding leaves only cut links unprotected.

A link whose two darts lie on one face has no usable backup cycle, so Packet
Re-cycling cannot route around its failure.  A cut link (bridge) is on one
face in every embedding; any other self-paired link is a shortfall of the
genus heuristics.  The embedding campaigns and ``repro serve`` use (``auto``,
seed 0) must be valid and self-pair exactly the bridges of every topology the
repository ships.
"""

import pytest

from repro.embedding.builder import embed
from repro.embedding.genus import self_paired_edge_count
from repro.embedding.validation import validate_embedding
from repro.graph.connectivity import bridges
from repro.topologies.corpus import parse_topology_spec, topology_set

TOPOLOGIES = topology_set("all") + ["abilene", "geant", "teleglobe"]


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_auto_embedding_self_pairs_only_bridges(topology):
    graph = parse_topology_spec(topology).build()
    rotation = embed(graph, method="auto", seed=0).rotation
    validate_embedding(graph, rotation)
    assert self_paired_edge_count(rotation) == len(bridges(graph))
