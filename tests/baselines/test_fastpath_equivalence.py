"""Fast-path ``deliver_many`` overrides vs. the hop-by-hop engine.

Re-convergence, FCP, LFA and both Packet Re-cycling variants override
``deliver_many`` with one call of the walk kernel
(:func:`repro.forwarding.walk.walk_many`) for sweep speed.  The kernel
shares walk continuations within one call and fast-forwards forwarding
loops to TTL expiry for every scheme, and FCP asks for a carried-set SPF
tree only once a destination's route can change under the carried links,
resolving its whole first-hop list from it.
``ForwardingScheme.deliver_many`` — the generic implementation driving the
real :class:`HopByHopEngine` — remains the reference; every override must
produce outcomes that are field-for-field identical: status, path,
hop-order cost summation, hop count, drop reason and accounting counters.
Randomized over the whole topology corpus plus the three ISP maps, failure
sets and pair subsets, with repeated rounds per scheme instance so warm
per-instance caches are exercised as hard as cold ones.  The seeded
deep-failure fuzzer behind the slice test below lives in
``fastpath_fuzz.py``.
"""

import itertools
import random

import pytest

from repro.baselines.fcp import _UNRESOLVED, FailureCarryingPackets, FcpLogic
from repro.baselines.lfa import LoopFreeAlternates
from repro.baselines.reconvergence import Reconvergence
from repro.core.scheme import PacketRecycling, SimplePacketRecycling
from repro.forwarding.engine import DeliveryStatus
from repro.forwarding.network_state import NetworkState
from repro.forwarding.scheme import ForwardingScheme
from repro.graph.darts import Dart
from repro.graph.spcache import _LruDict, engine_for
from repro.routing.discriminator import DiscriminatorKind
from repro.topologies.corpus import build_topology, parse_topology_spec, topology_set
from repro.topologies.generators import k5_graph, k33_graph
from tests.baselines.fastpath_fuzz import SCHEMES as FUZZ_SCHEMES
from tests.baselines.fastpath_fuzz import (
    fcp_table_error,
    fuzz_topology,
    outcome_fields,
    reference_first_hops,
)

SCHEME_FACTORIES = {
    "reconvergence": lambda graph: Reconvergence(graph),
    "fcp": lambda graph: FailureCarryingPackets(graph),
    "lfa": lambda graph: LoopFreeAlternates(graph),
    "pr": lambda graph: PacketRecycling(graph, embedding_seed=7),
    "pr-1bit": lambda graph: SimplePacketRecycling(graph, embedding_seed=7),
}

#: The daemon takes ``discriminator`` per request, so the PR fast paths are
#: also pinned with the DD bits carrying weighted path cost.
WEIGHTED_FACTORIES = {
    "pr-weighted": lambda graph: PacketRecycling(
        graph, discriminator_kind=DiscriminatorKind.WEIGHTED_COST, embedding_seed=7
    ),
    "pr-1bit-weighted": lambda graph: SimplePacketRecycling(
        graph, discriminator_kind=DiscriminatorKind.WEIGHTED_COST, embedding_seed=7
    ),
}


def assert_outcomes_identical(fast, reference, context):
    """Same pairs, and per pair the same source, destination, status, path,
    cost, hops, drop reason and counters (``outcome_fields``)."""
    assert fast.keys() == reference.keys(), context
    for pair in reference:
        a, b = outcome_fields(fast[pair]), outcome_fields(reference[pair])
        assert a == b, (context, pair, a, b)


@pytest.mark.parametrize("scheme_key", sorted(SCHEME_FACTORIES) + sorted(WEIGHTED_FACTORIES))
@pytest.mark.parametrize(
    "topology", topology_set("all") + ["abilene", "teleglobe", "geant"]
)
def test_fast_path_matches_engine(topology, scheme_key):
    graph = parse_topology_spec(topology).build()
    scheme = {**SCHEME_FACTORIES, **WEIGHTED_FACTORIES}[scheme_key](graph)
    nodes = graph.nodes()
    pairs = [(u, v) for u in nodes for v in nodes if u != v]
    edge_ids = graph.edge_ids()
    # A string seed, unlike ``hash()`` of a string, is the same in every
    # process, so a failing round replays.
    seed = f"{topology}-{scheme_key}"
    rng = random.Random(seed)
    for _round in range(8):
        failures = min(rng.choice([0, 1, 1, 2, 3, 5]), len(edge_ids))
        failed = tuple(sorted(rng.sample(edge_ids, failures)))
        subset = rng.sample(pairs, min(40, len(pairs)))
        fast = scheme.deliver_many(subset, failed_links=failed)
        reference = ForwardingScheme.deliver_many(scheme, subset, failed_links=failed)
        assert_outcomes_identical(fast, reference, (seed, _round, failed))


@pytest.mark.parametrize("scheme_key", sorted(SCHEME_FACTORIES))
def test_fast_path_memo_is_scenario_safe(scheme_key):
    """Nothing computed under one scenario may leak into another.

    Alternating between failure sets that overlap on some edges is the
    adversarial case for state a scheme instance keeps across calls, such as
    FCP's carried-set SPF tables, which are valid under any failure set.
    """
    graph = build_topology("abilene")
    scheme = SCHEME_FACTORIES[scheme_key](graph)
    nodes = graph.nodes()
    pairs = [(u, v) for u in nodes for v in nodes if u != v]
    edge_ids = graph.edge_ids()
    rng = random.Random(99)
    scenario_pool = [
        tuple(sorted(rng.sample(edge_ids, rng.choice([1, 2, 4])))) for _ in range(6)
    ]
    for _round in range(3):
        for failed in scenario_pool:
            fast = scheme.deliver_many(pairs, failed_links=failed)
            reference = ForwardingScheme.deliver_many(scheme, pairs, failed_links=failed)
            assert_outcomes_identical(fast, reference, (scheme_key, failed))


def test_fresh_instances_share_memo_but_stay_correct():
    """Two PR instances with identical offline state share one engine."""
    graph = build_topology("geant")
    first = PacketRecycling(graph, embedding_seed=7)
    second = PacketRecycling(graph, embedding_seed=7)
    edge_ids = graph.edge_ids()
    nodes = graph.nodes()
    pairs = [(u, v) for u in nodes for v in nodes if u != v][:60]
    failed = tuple(edge_ids[:2])
    warm = first.deliver_many(pairs, failed_links=failed)
    again = second.deliver_many(pairs, failed_links=failed)
    reference = ForwardingScheme.deliver_many(second, pairs, failed_links=failed)
    assert_outcomes_identical(again, reference, "shared-memo")
    assert_outcomes_identical(warm, reference, "first-instance")


@pytest.mark.parametrize("scheme_key", sorted(FUZZ_SCHEMES))
def test_deep_failure_slice_matches_engine(scheme_key):
    """Teleglobe at 8-12 failed links, every ordered pair, fresh then reused.

    Deep failure sets are where PR loops until its TTL runs out, so this is
    the slice that exercises the loop fast-forward.  One instance serves
    two failure sets: the first call meets it fresh, the second with warm
    per-instance caches.
    """
    graph = build_topology("teleglobe")
    rng = random.Random(f"deep-{scheme_key}")
    scheme = FUZZ_SCHEMES[scheme_key](graph)
    expiries, failure = fuzz_topology(
        graph, [scheme_key], rng, rounds=2, min_failures=8, max_failures=12, scheme=scheme
    )
    assert failure is None, failure
    if scheme_key.startswith("pr"):
        assert expiries[scheme_key] > 0, expiries


#: TTL expiries over every dual link failure and every ordered pair, with
#: PR embedded from seed 0 (K3,3: 36 failure sets x 30 pairs = 1,080
#: attempts; K5: 45 x 20 = 900).  K3,3 embeds on the torus, and PR loops
#: there: with a0-b0 and a1-b1 failed, the packet a0 -> a1 goes round
#: a0 b1 a2 b2 a0 ... until its TTL expires.
KURATOWSKI_EXPIRIES = {
    ("k33", "pr"): 72,
    ("k33", "pr-1bit"): 60,
    ("k33", "fcp"): 0,
    ("k33", "lfa"): 0,
    ("k33", "reconvergence"): 0,
    ("k5", "pr"): 16,
    ("k5", "pr-1bit"): 14,
    ("k5", "fcp"): 0,
    ("k5", "lfa"): 10,
    ("k5", "reconvergence"): 0,
}

SEED0_FACTORIES = {
    **SCHEME_FACTORIES,
    "pr": lambda graph: PacketRecycling(graph, embedding_seed=0),
    "pr-1bit": lambda graph: SimplePacketRecycling(graph, embedding_seed=0),
}


@pytest.mark.parametrize("scheme_key", sorted(SEED0_FACTORIES))
@pytest.mark.parametrize("graph_factory", [k33_graph, k5_graph], ids=["k33", "k5"])
def test_every_dual_failure_of_the_kuratowski_graphs(graph_factory, scheme_key):
    """Every dual failure of K3,3 and K5, every ordered pair: fast == engine.

    The minimal non-planar graphs are where PR loops, so this exhaustive
    case runs the loop fast-forward on shared suffixes; the expiry counts
    pin the characterisation of PR's multi-failure coverage beyond planar
    embeddings.
    """
    graph = graph_factory()
    scheme = SEED0_FACTORIES[scheme_key](graph)
    nodes = graph.nodes()
    pairs = [(u, v) for u in nodes for v in nodes if u != v]
    expiries = 0
    for failed in itertools.combinations(graph.edge_ids(), 2):
        fast = scheme.deliver_many(pairs, failed_links=failed)
        reference = ForwardingScheme.deliver_many(scheme, pairs, failed_links=failed)
        assert_outcomes_identical(fast, reference, failed)
        expiries += sum(
            1 for outcome in fast.values() if outcome.status is DeliveryStatus.TTL_EXCEEDED
        )
    assert expiries == KURATOWSKI_EXPIRIES[(graph.name, scheme_key)]


@pytest.mark.parametrize("scheme_key", sorted(SCHEME_FACTORIES))
def test_outcomes_do_not_depend_on_pair_order(scheme_key):
    """A shuffled ``pairs`` gives the same outcome for every pair.

    Continuation sharing lets a walk take a suffix an earlier walk of the
    same call donated, so the order of ``pairs`` decides who walks and who
    takes; Teleglobe with 10 failed links makes long shared suffixes and
    forwarding loops.
    """
    graph = build_topology("teleglobe")
    scheme = SCHEME_FACTORIES[scheme_key](graph)
    nodes = graph.nodes()
    pairs = [(u, v) for u in nodes for v in nodes if u != v]
    edge_ids = graph.edge_ids()
    rng = random.Random(f"pair-order-{scheme_key}")
    for _round in range(5):
        failed = tuple(sorted(rng.sample(edge_ids, 10)))
        shuffled = list(pairs)
        rng.shuffle(shuffled)
        ordered = scheme.deliver_many(pairs, failed_links=failed)
        assert_outcomes_identical(
            scheme.deliver_many(shuffled, failed_links=failed), ordered, (_round, failed)
        )


def _reweighted(name, weights):
    graph = build_topology(name).copy()
    for position, edge in enumerate(graph.edges()):
        edge.weight = weights[position % len(weights)]
    return graph


@pytest.mark.parametrize(
    "graph_factory, repair_safe",
    [
        (lambda: build_topology("geant"), True),
        # 0.1 and 0.2 are not dyadic, so float sums tie inexactly and the
        # failure-free path shortcut must stay off.
        (lambda: _reweighted("geant", (0.1, 0.2)), False),
    ],
    ids=["repair-safe", "inexact-weights"],
)
def test_fcp_first_hops_match_reference_dijkstra(graph_factory, repair_safe):
    """FCP's carried-set first-hop lists equal a reference SPF.

    On a ``repair_safe`` graph a destination the carried links cannot
    reroute is answered from the failure-free tree without building the
    carried-set tree; the first one they can reroute (on inexact weights,
    the first destination asked for) resolves the whole list from that
    tree.  Every first hop asked for, and every other one the lists
    resolved on the way, must match the reference
    :func:`~repro.graph.shortest_paths.dijkstra` on the map minus the
    carried links, and the fast path must still match the engine end to
    end.
    """
    graph = graph_factory()
    assert engine_for(graph).compiled.repair_safe is repair_safe
    scheme = FailureCarryingPackets(graph)
    logic = FcpLogic(graph, scheme.routing, NetworkState(graph), spf_cache=scheme._spf_cache)
    nodes = graph.nodes()
    edge_ids = graph.edge_ids()
    rng = random.Random(f"fcp-first-hops-{repair_safe}")
    for _round in range(12):
        carried = frozenset(rng.sample(edge_ids, rng.randint(1, 6)))
        node = rng.choice(nodes)
        for destination in rng.sample(nodes, 12):
            got = logic._next_hop_given_failures(node, destination, carried)
            expected = reference_first_hops(graph, node, carried).get(destination)
            assert got == expected, (node, destination, sorted(carried))
    assert fcp_table_error(scheme, set()) is None
    pairs = [(u, v) for u in nodes for v in nodes if u != v]
    for _round in range(3):
        failed = tuple(sorted(rng.sample(edge_ids, rng.randint(2, 8))))
        fast = scheme.deliver_many(pairs, failed_links=failed)
        reference = ForwardingScheme.deliver_many(scheme, pairs, failed_links=failed)
        assert_outcomes_identical(fast, reference, (repair_safe, failed))
    assert fcp_table_error(scheme, set()) is None


@pytest.mark.parametrize(
    "graph_factory",
    [lambda: build_topology("geant"), lambda: _reweighted("geant", (0.1, 0.2))],
    ids=["repair-safe", "inexact-weights"],
)
def test_fcp_first_hops_need_no_cached_tree(graph_factory):
    """FCP stays exact when the trees it resolved from are gone.

    A first-hop list keeps no tree, so neither dropping every tree from the
    engine's SSSP memo between calls nor evicting lists from a two-entry
    FCP memo may change an outcome, and no memo entry may hold a tree.
    """
    graph = graph_factory()
    engine = engine_for(graph)
    scheme = FailureCarryingPackets(graph)
    nodes = graph.nodes()
    pairs = [(u, v) for u in nodes for v in nodes if u != v]
    edge_ids = graph.edge_ids()
    rng = random.Random("fcp-no-cached-tree")
    for memo in ("sssp-cleared", "fcp-maxsize-2"):
        if memo == "fcp-maxsize-2":
            scheme._spf_cache = _LruDict(2)
        for _round in range(3):
            failed = tuple(sorted(rng.sample(edge_ids, rng.randint(2, 8))))
            engine._tree.clear()
            fast = scheme.deliver_many(pairs, failed_links=failed)
            engine._tree.clear()
            reference = ForwardingScheme.deliver_many(scheme, pairs, failed_links=failed)
            assert_outcomes_identical(fast, reference, (memo, failed))
            for first_hops in scheme._spf_cache.values():
                assert type(first_hops) is list
                assert all(
                    hop is None or hop is _UNRESOLVED or type(hop) is Dart for hop in first_hops
                ), first_hops
    assert scheme._spf_cache.evictions > 0
