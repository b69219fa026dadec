"""Golden rotations: the genus heuristics must return byte-identical rotations.

Embeddings feed every payload, the perfbench digests and the artifact cache,
so a changed candidate order, tie-break or RNG draw in the heuristics is a
behaviour change even when the result is still a valid low-genus embedding.
:mod:`test_genus` checks validity and genus only; this module pins the exact
rotation lists.  Each entry is the first 16 hex digits of the SHA-256 of
``[(node, [(tail, head, edge_id), ...]), ...]`` in graph node order, for seeds
0, 1 and 7.
"""

import hashlib
import json

import pytest

from repro.embedding.genus import (
    embedding_score,
    greedy_insertion_rotation,
    local_search_rotation,
    minimise_genus,
    repair_self_paired_edges,
)
from repro.embedding.rotation import RotationSystem
from repro.topologies import teleglobe
from repro.topologies.corpus import parse_topology_spec
from repro.topologies.generators import (
    complete_graph,
    k33_graph,
    k5_graph,
    petersen_graph,
    torus_grid_graph,
)

SEEDS = (0, 1, 7)

# Keys are the non-planar members of ``topology_set("all")`` (as canonical
# specs) plus a few named graphs built below.
GRAPHS = {
    "teleglobe": teleglobe,
    "k5": k5_graph,
    "k33": k33_graph,
    "petersen": petersen_graph,
    "k6": lambda: complete_graph(6),
    "torus-3x3": lambda: torus_grid_graph(3, 3),
}

HEURISTICS = {
    "minimise_genus": lambda graph, seed: minimise_genus(graph, seed=seed),
    "greedy_insertion_rotation": lambda graph, seed: greedy_insertion_rotation(graph, seed=seed),
    "local_search_rotation": lambda graph, seed: local_search_rotation(graph, seed=seed),
    # A short climb from adjacency order leaves self-paired edges to repair.
    "repair_self_paired_edges": lambda graph, seed: repair_self_paired_edges(
        local_search_rotation(graph, iterations=20, seed=seed), graph
    ),
}

GOLDEN = {
    "nsfnet1991": {
        "minimise_genus": ("c8138b612288e981", "2e2cb679ce4152f6", "656418178b903897"),
        "greedy_insertion_rotation": ("3b8544e97d662d72", "5968da3e57929b29", "d73c52642e019f95"),
        "local_search_rotation": ("96a274aad7b2da68", "af2bd5387ee6028d", "7d9dcac832d5e383"),
        "repair_self_paired_edges": ("98858beb8b60fd04", "5c5c0771f0635cd0", "2ec013b7c1a28b91"),
    },
    "torus:cols=5,rows=4": {
        "minimise_genus": ("d10e70472ef3309c", "e6f7cb80bf542969", "9a4181d62cf11a87"),
        "greedy_insertion_rotation": ("302f98bdc6db3926", "f430cc3a214616e6", "b94abd236b63c291"),
        "local_search_rotation": ("cfe171cda5c7f214", "f806cbc1e4298395", "886c613877fd6273"),
        "repair_self_paired_edges": ("b592ae8bf6b7c4d1", "a9b65a8a6539d82b", "67d91310aedb3316"),
    },
    "fat-tree:k=4": {
        "minimise_genus": ("ee4d9ebd41425276", "125c685ed1aad5ae", "453579f5a21207d3"),
        "greedy_insertion_rotation": ("0e125292bc48e3ef", "d0add915c6c30cee", "7c212f7626a8bcc6"),
        "local_search_rotation": ("9eb27adf90504d6e", "517564b3de18f20f", "177f4eb04a10e2dc"),
        "repair_self_paired_edges": ("5e0add478b95b174", "62180892bfb1da40", "7e2dd9a6ab677fb5"),
    },
    "waxman:alpha=0.6,beta=0.4,seed=7,size=24": {
        "minimise_genus": ("90cd1d5e7c37cce5", "49395e6fd247a2d8", "96d746186d20587c"),
        "greedy_insertion_rotation": ("aca02b6868faae68", "a2ccfa95df93ba0d", "cfa08a2ffbd334e2"),
        "local_search_rotation": ("29c704ea2ecfd0ce", "67eed2fcd894c13f", "57868f46dff6fb6d"),
        "repair_self_paired_edges": ("9a61a3b676706809", "4dd2c27cd67bf15c", "bc332ed7b664e5c2"),
    },
    "barabasi-albert:m=2,seed=3,size=24": {
        "minimise_genus": ("ab994e407ecce1ba", "59f17f0349beeeaa", "7f9736fd4fa9892b"),
        "greedy_insertion_rotation": ("50c9ddf1377a77e8", "78974f456544cc4d", "c87b411aa99e5fab"),
        "local_search_rotation": ("4c9739b13b4cbca7", "710cb871f12c8050", "14eddfb55e3df820"),
        "repair_self_paired_edges": ("95172f7e5ee4c050", "bfb8bb2f1f2d1c37", "632f3765cebb53d8"),
    },
    "er-giant:probability=0.12,seed=5,size=30": {
        "minimise_genus": ("1e52679fe65588a6", "04c491ab9ee83c75", "fcdc9c2817a720c7"),
        "greedy_insertion_rotation": ("a10afa2518d7632d", "5b7b24ab5d11c3f8", "c8325e6d1ed74a24"),
        "local_search_rotation": ("54f270ef4e894a3f", "2fbe7506454bc825", "18071587d3671040"),
        "repair_self_paired_edges": ("526bd820e9757dfa", "89b1a5b1535c8c1e", "d84d010f69dd3ad7"),
    },
    "random-connected:extra=10,seed=11,size=20": {
        "minimise_genus": ("fb601611eb7c3a13", "b70245e8fd6ee541", "1e2fd826ffbb2ef2"),
        "greedy_insertion_rotation": ("39c0bf21f286355f", "39c0bf21f286355f", "a365ca316159dbef"),
        "local_search_rotation": ("0df604eb6d3be116", "dcfa78fef48042dc", "c67f4cb3e0e5ca3c"),
        "repair_self_paired_edges": ("9d89a6e29603076d", "3825b0937c1519c5", "582595c3316b2da6"),
    },
    "teleglobe": {
        "minimise_genus": ("4ebbee4150f125a4", "83b7a27b315b9a01", "9f15e3b208909985"),
        "greedy_insertion_rotation": ("e8c843f185df6921", "2a384e4f68ae8a39", "9cea7ecfbf571a3b"),
        "local_search_rotation": ("5e15652a8d7414d5", "bea10acc417bba0f", "45455ccd547dc671"),
        "repair_self_paired_edges": ("1f9f4476bcf17ee2", "7d1fcd8a6a47ccd6", "5f78f5a0f2ff1069"),
    },
    "k5": {
        "minimise_genus": ("3ce8740cf3054603", "f436493120903396", "d60fea4899ff47ce"),
        "greedy_insertion_rotation": ("c9ba1a9c50bceda6", "10bdcda882bcd7b6", "dc7a6be29c4c6e99"),
        "local_search_rotation": ("7b1d09b736e44150", "0062971728a3fe74", "6a262557094ee5ba"),
        "repair_self_paired_edges": ("8c8f4228802209aa", "8746844a4d880429", "aeb69e65a3f9d335"),
    },
    "k33": {
        "minimise_genus": ("9aeeb0c37b821bc7", "223435a9cfa1d4bb", "f5e5b1a2d029cf16"),
        "greedy_insertion_rotation": ("c24535069a497bf1", "a55ccff53f5a89f5", "7a14aef98f9223ef"),
        "local_search_rotation": ("374fe0dd0697b8bf", "a23f89edf9eb5e6f", "d123ece80f53d3a5"),
        "repair_self_paired_edges": ("e68cc7518b8e92e4", "9f4cca1e47666450", "5d75410994f64878"),
    },
    "petersen": {
        "minimise_genus": ("bf370c36c0c10dda", "44cbe3babcfd03ed", "bb660744b5568bcd"),
        "greedy_insertion_rotation": ("88a9476825c9c278", "c051c577d294bcd0", "8106b7ef92254fdd"),
        "local_search_rotation": ("311b0ed86115e008", "cbee62f579b4c79d", "dd678d515952ae85"),
        "repair_self_paired_edges": ("46fecd9f297e70e3", "9bd6d0f2ee9d3535", "7f442cb3501d2344"),
    },
    "k6": {
        "minimise_genus": ("43cc02feaa2c1e83", "8140079c8a6fa735", "447810b655af03ed"),
        "greedy_insertion_rotation": ("87f62f34396d1dae", "8376bcdfb16e4a83", "c174a2348156502c"),
        "local_search_rotation": ("91db7d54e31cac1e", "c115753dcae6dd78", "b05b92f6406aa754"),
        "repair_self_paired_edges": ("08ef45329f74e396", "d2ec42fbd7167ddf", "e7c4dfc0e512932d"),
    },
    "torus-3x3": {
        "minimise_genus": ("cf7874b4be8d1d3b", "424fe39663a60cc7", "edf023aec50cc9c5"),
        "greedy_insertion_rotation": ("722436eec17d013e", "722436eec17d013e", "b928972aff7fcdef"),
        "local_search_rotation": ("5c0e410b2ac3b3f5", "0f57383035dfd914", "fd8e91dd4e732eb5"),
        "repair_self_paired_edges": ("507f8aea4a4da205", "455b14b71c8972ac", "f85318e132841eee"),
    },
}


def _build(name):
    factory = GRAPHS.get(name)
    return factory() if factory is not None else parse_topology_spec(name).build()


def _digest(rotation):
    payload = [
        (node, [(dart.tail, dart.head, dart.edge_id) for dart in rotation.rotation_at(node)])
        for node in rotation.graph.nodes()
    ]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16]


def test_golden_covers_every_non_planar_corpus_member():
    from repro.embedding.planarity import is_planar
    from repro.topologies.corpus import topology_set

    non_planar = [
        spec for spec in topology_set("all") if not is_planar(parse_topology_spec(spec).build())
    ]
    assert set(non_planar) == set(GOLDEN) - set(GRAPHS)


@pytest.mark.parametrize(
    "name, heuristic", [(name, heuristic) for name in GOLDEN for heuristic in HEURISTICS]
)
def test_rotation_is_unchanged(name, heuristic):
    graph = _build(name)
    run = HEURISTICS[heuristic]
    digests = tuple(_digest(run(graph, seed)) for seed in SEEDS)
    assert digests == GOLDEN[name][heuristic]


def test_partial_rotation_score_ignores_absent_edges():
    """Edges missing from a rotation neither count as faces nor as self-paired."""
    graph = petersen_graph()
    rotations = RotationSystem.from_adjacency_order(graph).as_mapping()
    for dart in graph.edge(graph.edge_ids()[0]).darts():
        rotations[dart.tail].remove(dart)
    assert embedding_score(RotationSystem(graph, rotations)) == (-9, 2)
