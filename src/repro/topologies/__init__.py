"""Network topologies used by the paper's evaluation plus synthetic generators.

The paper evaluates PR on three ISP topologies: Abilene, Teleglobe and Géant.
Abilene is public and reproduced exactly; the Géant (2009-era) and Teleglobe
(Rocketfuel AS6453) graphs are reconstructions of comparable size and
structure (see DESIGN.md §3 for the substitution rationale).  The package
also contains the six-node example of Figure 1(a) — with the exact cellular
embedding (cycles c1–c4) used throughout Section 4 — and a set of synthetic
generators used by the tests, the property-based suites and the ablation
benchmarks.
"""

from repro.topologies.example import example_fig1, example_fig1_embedding
from repro.topologies.abilene import abilene
from repro.topologies.geant import geant
from repro.topologies.teleglobe import teleglobe
from repro.topologies.generators import (
    barabasi_albert_graph,
    barbell_graph,
    complete_graph,
    er_giant_component_graph,
    erdos_renyi_graph,
    fat_tree_graph,
    grid_graph,
    k33_graph,
    k5_graph,
    ladder_graph,
    petersen_graph,
    random_planar_graph,
    ring_graph,
    torus_grid_graph,
    waxman_graph,
    wheel_graph,
)
from repro.topologies.graphml import graph_from_graphml, load_graphml
from repro.topologies.parser import graph_from_text, graph_to_text, load_graph, save_graph
from repro.topologies.corpus import (
    TopologyFamily,
    TopologySpec,
    TopologyValidation,
    build_topology,
    canonical_topology,
    family_names,
    get_family,
    load_topology_file,
    parse_topology_spec,
    register_family,
    registered_families,
    topology_set,
    validate_topology,
)

__all__ = [
    "TopologyFamily",
    "TopologySpec",
    "TopologyValidation",
    "build_topology",
    "canonical_topology",
    "family_names",
    "get_family",
    "load_topology_file",
    "parse_topology_spec",
    "register_family",
    "registered_families",
    "topology_set",
    "validate_topology",
    "barabasi_albert_graph",
    "er_giant_component_graph",
    "fat_tree_graph",
    "graph_from_graphml",
    "load_graphml",
    "example_fig1",
    "example_fig1_embedding",
    "abilene",
    "geant",
    "teleglobe",
    "barbell_graph",
    "complete_graph",
    "erdos_renyi_graph",
    "grid_graph",
    "k33_graph",
    "k5_graph",
    "ladder_graph",
    "petersen_graph",
    "random_planar_graph",
    "ring_graph",
    "torus_grid_graph",
    "waxman_graph",
    "wheel_graph",
    "graph_from_text",
    "graph_to_text",
    "load_graph",
    "save_graph",
]
