"""Fast-path ``deliver_many`` overrides vs. the hop-by-hop engine.

Re-convergence, FCP, LFA and both Packet Re-cycling variants override
``deliver_many`` with flat walks for sweep speed.  PR shares walk
continuations within one call and fast-forwards forwarding loops to TTL
expiry, and FCP builds a carried-set SPF tree only for destinations whose
route the carried links can change.  ``ForwardingScheme.deliver_many`` —
the generic implementation driving the real :class:`HopByHopEngine` —
remains the reference; every override must produce outcomes that are
field-for-field identical: status, path, hop-order cost summation, hop
count, drop reason and accounting counters.  Randomized over the whole
topology corpus plus the three ISP maps, failure sets and pair subsets,
with repeated rounds per scheme instance so warm per-instance caches are
exercised as hard as cold ones.  The seeded
deep-failure fuzzer behind the slice test below lives in
``fastpath_fuzz.py``.
"""

import random

import pytest

from repro.baselines.fcp import FailureCarryingPackets, FcpLogic
from repro.baselines.lfa import LoopFreeAlternates
from repro.baselines.reconvergence import Reconvergence
from repro.core.scheme import PacketRecycling, SimplePacketRecycling
from repro.forwarding.network_state import NetworkState
from repro.forwarding.scheme import ForwardingScheme
from repro.graph.spcache import engine_for
from repro.topologies.corpus import parse_topology_spec, topology_set
from repro.topologies.registry import by_name
from tests.baselines.fastpath_fuzz import SCHEMES as FUZZ_SCHEMES
from tests.baselines.fastpath_fuzz import fuzz_topology, outcome_fields, reference_first_hops

SCHEME_FACTORIES = {
    "reconvergence": lambda graph: Reconvergence(graph),
    "fcp": lambda graph: FailureCarryingPackets(graph),
    "lfa": lambda graph: LoopFreeAlternates(graph),
    "pr": lambda graph: PacketRecycling(graph, embedding_seed=7),
    "pr-1bit": lambda graph: SimplePacketRecycling(graph, embedding_seed=7),
}


def assert_outcomes_identical(fast, reference, context):
    """Same pairs, and per pair the same source, destination, status, path,
    cost, hops, drop reason and counters (``outcome_fields``)."""
    assert fast.keys() == reference.keys(), context
    for pair in reference:
        a, b = outcome_fields(fast[pair]), outcome_fields(reference[pair])
        assert a == b, (context, pair, a, b)


@pytest.mark.parametrize("scheme_key", sorted(SCHEME_FACTORIES))
@pytest.mark.parametrize(
    "topology", topology_set("all") + ["abilene", "teleglobe", "geant"]
)
def test_fast_path_matches_engine(topology, scheme_key):
    graph = parse_topology_spec(topology).build()
    scheme = SCHEME_FACTORIES[scheme_key](graph)
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
    graph = by_name("abilene")
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
    graph = by_name("geant")
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
    graph = by_name("teleglobe")
    rng = random.Random(f"deep-{scheme_key}")
    scheme = FUZZ_SCHEMES[scheme_key](graph)
    expiries, failure = fuzz_topology(
        graph, [scheme_key], rng, rounds=2, min_failures=8, max_failures=12, scheme=scheme
    )
    assert failure is None, failure
    if scheme_key.startswith("pr"):
        assert expiries[scheme_key] > 0, expiries


def _reweighted(name, weights):
    graph = by_name(name).copy()
    for position, edge in enumerate(graph.edges()):
        edge.weight = weights[position % len(weights)]
    return graph


@pytest.mark.parametrize(
    "graph_factory, repair_safe",
    [
        (lambda: by_name("geant"), True),
        # 0.1 and 0.2 are not dyadic, so float sums tie inexactly and the
        # failure-free path shortcut must stay off.
        (lambda: _reweighted("geant", (0.1, 0.2)), False),
    ],
    ids=["repair-safe", "inexact-weights"],
)
def test_fcp_first_hops_match_reference_dijkstra(graph_factory, repair_safe):
    """FCP's lazily resolved carried-set first hops equal a reference SPF.

    On a ``repair_safe`` graph most destinations are answered from the
    failure-free tree without building the carried-set tree; on inexact
    weights every destination goes through the tree.  Both must match the
    reference :func:`~repro.graph.shortest_paths.dijkstra` on the map minus
    the carried links, and the fast path must still match the engine end to
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
    pairs = [(u, v) for u in nodes for v in nodes if u != v]
    for _round in range(3):
        failed = tuple(sorted(rng.sample(edge_ids, rng.randint(2, 8))))
        fast = scheme.deliver_many(pairs, failed_links=failed)
        reference = ForwardingScheme.deliver_many(scheme, pairs, failed_links=failed)
        assert_outcomes_identical(fast, reference, (repair_safe, failed))
