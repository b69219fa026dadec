"""Randomized equivalence: the compiled engine vs. the reference algorithms.

The compiled shortest-path core (:mod:`repro.graph.compiled`) and its
memoizing engine (:mod:`repro.graph.spcache`) exist purely for speed; every
answer must carry exactly the content of the pure reference implementations
in :mod:`repro.graph.shortest_paths` and :mod:`repro.graph.connectivity` —
the same distances, the same parents under deterministic equal-cost
tie-breaking.  Engine trees do not promise the reference's dict insertion
order, so the suite compares values and parents, not order.  It checks that
over randomized multigraphs (parallel edges, random weights, disconnected
pieces), random exclusion sets, and the real topologies.
"""

import random

import pytest

from repro.failures.scenarios import FailureScenario, all_affecting_pairs
from repro.graph.compiled import CompiledGraph
from repro.graph.connectivity import connected_components, same_component
from repro.graph.multigraph import Graph
from repro.graph.shortest_paths import all_pairs_shortest_costs, dijkstra
from repro.graph.spcache import ShortestPathEngine, engine_for
from repro.routing.tables import RoutingTables
from repro.topologies.corpus import build_topology, parse_topology_spec, topology_set


def random_graph(seed: int, nodes: int = 10, extra_edges: int = 14) -> Graph:
    """A random connected-ish multigraph; some seeds leave isolated pieces."""
    rng = random.Random(seed)
    names = [f"n{i:02d}" for i in range(nodes)]
    rng.shuffle(names)
    graph = Graph(f"random-{seed}")
    for name in names:
        graph.ensure_node(name)
    # A spanning path over a random subset keeps most seeds connected while
    # leaving the rest as isolated nodes (the disconnected case).
    backbone = names[: rng.randint(max(2, nodes - 3), nodes)]
    for u, v in zip(backbone, backbone[1:]):
        graph.add_edge(u, v, rng.choice([1.0, 1.0, 2.0, 2.5, 7.0]))
    for _ in range(extra_edges):
        u, v = rng.sample(names, 2)
        graph.add_edge(u, v, rng.choice([1.0, 1.0, 1.0, 3.0, 10.0]))
    return graph


def random_exclusions(rng: random.Random, graph: Graph):
    edge_ids = graph.edge_ids()
    k = rng.randint(0, min(4, len(edge_ids)))
    return frozenset(rng.sample(edge_ids, k))


@pytest.mark.parametrize("seed", range(12))
def test_engine_sssp_matches_reference_dijkstra(seed):
    graph = random_graph(seed)
    engine = ShortestPathEngine(graph)
    rng = random.Random(1000 + seed)
    for _ in range(8):
        excluded = random_exclusions(rng, graph)
        source = rng.choice(graph.nodes())
        ref_dist, ref_parent = dijkstra(graph, source, excluded)
        dist, parent = engine.sssp(source, excluded)
        assert dist == ref_dist
        assert parent == ref_parent


@pytest.mark.parametrize("topology", ["abilene", "teleglobe", "geant"])
def test_engine_sssp_matches_reference_on_real_topologies(topology):
    graph = build_topology(topology)
    engine = engine_for(graph)
    rng = random.Random(7)
    for _ in range(5):
        excluded = random_exclusions(rng, graph)
        for source in graph.nodes():
            ref = dijkstra(graph, source, excluded)
            fast = engine.sssp(source, excluded)
            assert fast[0] == ref[0] and fast[1] == ref[1]


@pytest.mark.parametrize("seed", range(6))
def test_all_pairs_costs_match(seed):
    graph = random_graph(seed, nodes=8, extra_edges=10)
    engine = ShortestPathEngine(graph)
    rng = random.Random(2000 + seed)
    excluded = random_exclusions(rng, graph)
    assert engine.all_pairs_shortest_costs(excluded) == all_pairs_shortest_costs(
        graph, excluded
    )


@pytest.mark.parametrize("seed", range(8))
def test_component_labels_match_connectivity(seed):
    graph = random_graph(seed)
    engine = ShortestPathEngine(graph)
    rng = random.Random(4000 + seed)
    nodes = graph.nodes()
    for _ in range(6):
        excluded = random_exclusions(rng, graph)
        components = connected_components(graph, excluded)
        assert engine.is_connected(excluded) == (len(components) == 1)
        for _ in range(15):
            u, v = rng.choice(nodes), rng.choice(nodes)
            assert engine.same_component(u, v, excluded) == same_component(
                graph, u, v, excluded
            )


def _legacy_affecting_pairs(graph, scenario, tables):
    """The pre-engine hop-walk implementation, verbatim."""
    failed = set(scenario.failed_links)
    pairs = []
    for source in graph.nodes():
        for destination in graph.nodes():
            if source == destination or not tables.has_route(source, destination):
                continue
            node = source
            affected = False
            while node != destination:
                entry = tables.entry(node, destination)
                if entry.egress.edge_id in failed:
                    affected = True
                    break
                node = entry.next_hop
            if affected:
                pairs.append((source, destination))
    return pairs


@pytest.mark.parametrize("seed", [*range(8), "garr1999"])
def test_affecting_pairs_fast_path_matches_table_walk(seed):
    # Integer seeds draw random graphs; a corpus name adds a real topology
    # with inexact weights (not repair_safe), where the path masks still
    # come from the parent-chain walk.
    if isinstance(seed, str):
        graph = parse_topology_spec(seed).build()
        rng = random.Random(seed)
    else:
        graph = random_graph(seed)
        rng = random.Random(5000 + seed)
    tables = RoutingTables(graph)
    for _ in range(6):
        excluded = random_exclusions(rng, graph)
        scenario = FailureScenario(tuple(excluded), kind="custom")
        fast = all_affecting_pairs(graph, scenario)
        assert fast == _legacy_affecting_pairs(graph, scenario, tables)
        # Same answer (and order) whether or not the default tables are
        # passed explicitly.
        assert fast == all_affecting_pairs(graph, scenario, tables)


def test_affecting_pairs_with_excluded_tables_uses_walk():
    graph = build_topology("abilene")
    pre_failed = frozenset([graph.edge_ids()[0]])
    tables = RoutingTables(graph, excluded_edges=pre_failed)
    scenario = FailureScenario((graph.edge_ids()[1],), kind="custom")
    assert all_affecting_pairs(graph, scenario, tables) == _legacy_affecting_pairs(
        graph, scenario, tables
    )


# ----------------------------------------------------------------------
# incremental SSSP repair vs. full recompute, across the whole corpus
# ----------------------------------------------------------------------
@pytest.mark.parametrize("topology", topology_set("all"))
def test_repaired_sssp_matches_full_recompute_across_corpus(topology):
    """Repaired trees must be field-for-field identical to full Dijkstra.

    Randomized excluded-edge sets over every corpus topology; the engine
    route exercises the repair layer (zero-work aliasing, frontier repair,
    threshold fallback and the ``repair_safe`` guard for non-exact weights)
    while the reference runs the pure Dijkstra.  Identity covers distances,
    parents and tie-breaking; dict order is unspecified.
    """
    graph = parse_topology_spec(topology).build()
    engine = ShortestPathEngine(graph)
    rng = random.Random(topology)  # str seeds are process-stable
    edge_ids = graph.edge_ids()
    nodes = graph.nodes()
    for _trial in range(12):
        k = rng.randint(1, min(5, len(edge_ids)))
        excluded = frozenset(rng.sample(edge_ids, k))
        for source in rng.sample(nodes, min(4, len(nodes))):
            ref_dist, ref_parent = dijkstra(graph, source, excluded)
            dist, parent = engine.sssp(source, excluded)
            assert dist == ref_dist and parent == ref_parent
    info = engine.cache_info()
    if info["repair_safe"]:
        # Every corpus topology with exact weights must actually exercise
        # the repair layer in this workload, not silently fall back.
        assert info["repair_hits"] > 0
    else:
        assert info["repair_hits"] == 0 and info["repair_fallbacks"] == 0


@pytest.mark.parametrize("topology", topology_set("all"))
def test_content_tree_matches_full_recompute_across_corpus(topology):
    """``sssp_tree`` read directly (index-keyed) must agree on values and parents."""
    graph = parse_topology_spec(topology).build()
    engine = ShortestPathEngine(graph)
    rng = random.Random("tree:" + topology)
    edge_ids = graph.edge_ids()
    compiled = engine.compiled
    names = compiled.names
    for _trial in range(10):
        k = rng.randint(1, min(4, len(edge_ids)))
        excluded = frozenset(rng.sample(edge_ids, k))
        source = rng.choice(graph.nodes())
        ref_dist, ref_parent = dijkstra(graph, source, excluded)
        dist, parent = engine.sssp_tree(source, excluded)
        assert {names[v]: c for v, c in dist.items()} == ref_dist
        assert {
            names[v]: (names[t], e) for v, (t, e) in parent.items()
        } == ref_parent


def test_repair_falls_back_above_affected_threshold():
    """A failure hitting most of a tree must recompute, not repair."""
    graph = build_topology("abilene")
    engine = ShortestPathEngine(graph)
    source = graph.nodes()[0]
    # Excluding every edge on the source's failure-free tree affects every
    # reachable vertex — far beyond the fallback fraction.
    _dist, parent = engine.sssp(source)
    tree_edges = frozenset(edge_id for (_towards, edge_id) in parent.values())
    before = engine.repair_fallbacks
    ref = dijkstra(graph, source, tree_edges)
    fast = engine.sssp(source, tree_edges)
    assert fast[0] == ref[0] and fast[1] == ref[1]
    assert engine.repair_fallbacks == before + 1


def test_repair_disabled_on_inexact_weights():
    """Graphs with non-dyadic weights must never attempt a repair."""
    graph = parse_topology_spec("garr1999").build()
    engine = ShortestPathEngine(graph)
    assert not engine.compiled.repair_safe
    rng = random.Random(5)
    edge_ids = graph.edge_ids()
    for _ in range(6):
        excluded = frozenset(rng.sample(edge_ids, 2))
        source = rng.choice(graph.nodes())
        ref = dijkstra(graph, source, excluded)
        fast = engine.sssp(source, excluded)
        assert fast[0] == ref[0] and fast[1] == ref[1]
    assert engine.repair_hits == 0
    assert engine.repair_fallbacks == 0


def test_cache_info_reports_repair_counters():
    graph = build_topology("abilene")
    engine = ShortestPathEngine(graph)
    info = engine.cache_info()
    for key in ("repair_hits", "repair_fallbacks", "repair_bases", "repair_safe"):
        assert key in info
    assert info["repair_safe"] == 1
    assert info["repair_hits"] == 0
    engine.sssp(graph.nodes()[0], frozenset({graph.edge_ids()[0]}))
    info = engine.cache_info()
    assert info["repair_hits"] + info["repair_fallbacks"] == 1
    assert info["repair_bases"] == 1


def test_each_memo_lookup_counts_one_hit_or_miss():
    """Plain miss -> hit -> repaired miss -> fallback, counters pinned."""
    graph = build_topology("abilene")
    engine = ShortestPathEngine(graph)
    source = graph.nodes()[0]

    def counters():
        info = engine.cache_info()
        return tuple(
            info[name]
            for name in ("hits", "misses", "repair_hits", "repair_fallbacks", "sssp_entries")
        )

    _dist, parent = engine.sssp_tree(source)
    assert counters() == (0, 1, 0, 0, 1)
    engine.sssp_tree(source)
    assert counters() == (1, 1, 0, 0, 1)
    # sssp() is a view of sssp_tree: one lookup, not two.
    engine.sssp(source)
    assert counters() == (2, 1, 0, 0, 1)
    # A leaf's tree edge affects only the leaf: a repaired miss.  Building
    # the repair base reads the failure-free tree through the memo (a hit).
    towards = {t for t, _edge in parent.values()}
    leaf = next(node for node in parent if node not in towards)
    engine.sssp_tree(source, {parent[leaf][1]})
    assert counters() == (3, 2, 1, 0, 2)
    # Every tree edge affects every vertex: the repair falls back.
    engine.sssp_tree(source, {edge for _t, edge in parent.values()})
    assert counters() == (3, 3, 1, 1, 3)


def test_engine_is_content_addressed():
    one = build_topology("abilene")
    two = build_topology("abilene")
    assert one is not two
    assert engine_for(one) is engine_for(two)
    # Mutating a graph changes its content signature and thus its engine.
    mutated = build_topology("abilene")
    engine_before = engine_for(mutated)
    mutated.add_edge(mutated.nodes()[0], mutated.nodes()[-1], 5.0)
    assert engine_for(mutated) is not engine_before


def test_compiled_graph_exclusion_mask_round_trip():
    graph = build_topology("abilene")
    compiled = CompiledGraph(graph)
    edge_ids = graph.edge_ids()[:3]
    mask = compiled.exclusion_mask(edge_ids)
    for edge_id in graph.edge_ids():
        assert bool((mask >> edge_id) & 1) == (edge_id in edge_ids)
