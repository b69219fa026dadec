"""Differential fuzzer: scheme ``deliver_many`` fast paths vs. the engine.

Compares each scheme's ``deliver_many`` fast path (one walk kernel,
:func:`repro.forwarding.walk.walk_many`, for all five) with the generic
:meth:`ForwardingScheme.deliver_many`, which drives the hop-by-hop engine
and is the reference, over seeded 1–12-link failure sets and every ordered
pair of nodes.  Outcomes must agree field for field: status, path, cost
(hop-order float sum), hop count, drop reason and counters.  Each scheme
instance is reused across rounds, so per-instance caches see many failure
sets, and one round in three runs under a small TTL budget so that walks
end exactly at the TTL boundary.  A mismatch is shrunk to a minimal
failed-link set before it is reported.

FCP's fast path and the engine read the same carried-set first-hop lists,
so comparing the two cannot catch a wrong entry there.  After every FCP
round, each first hop the lists resolved since the last check (from the
failure-free tree or in one pass over the carried-set tree) is also checked
against the reference :func:`~repro.graph.shortest_paths.dijkstra` on the
map minus the carried links.  Re-convergence has the same gap: its fast
path and its router logic read the same memoized post-failure trees.  After
every re-convergence round, each outcome is checked against ``dijkstra`` on
the map minus the failed links: a delivered packet's cost is the distance,
a dropped packet's destination is unreachable, and a TTL expiry happens
only on a reachable destination.

Not collected by pytest (the file name has no ``test_`` prefix); the tier-1
slice lives in ``test_fastpath_equivalence.py`` and the full run is::

    PYTHONPATH=src python -m tests.baselines.fastpath_fuzz --seed 1 \\
        --topology-set all --topologies abilene teleglobe geant

The seed is printed first, so any failure can be replayed with ``--seed``.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
import time
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.baselines.fcp import _UNRESOLVED, FailureCarryingPackets
from repro.baselines.lfa import LoopFreeAlternates
from repro.baselines.reconvergence import Reconvergence
from repro.core.scheme import PacketRecycling, SimplePacketRecycling
from repro.forwarding.engine import DeliveryStatus, ForwardingOutcome
from repro.forwarding.scheme import ForwardingScheme
from repro.graph.darts import Dart
from repro.graph.multigraph import Graph
from repro.graph.shortest_paths import dijkstra
from repro.graph.spcache import engine_for

SCHEMES: Dict[str, Callable[[Graph], ForwardingScheme]] = {
    "pr": lambda graph: PacketRecycling(graph, embedding_seed=7),
    "pr-1bit": lambda graph: SimplePacketRecycling(graph, embedding_seed=7),
    "fcp": FailureCarryingPackets,
    "lfa": LoopFreeAlternates,
    "reconvergence": Reconvergence,
}

MAX_FAILURES = 12


def set_ttl(scheme: ForwardingScheme, ttl: Optional[int]) -> None:
    """Give ``scheme`` a fixed TTL budget, or restore its default (``None``)."""
    if ttl is None:
        scheme.__dict__.pop("default_ttl", None)
    else:
        scheme.default_ttl = lambda: ttl


def outcome_fields(outcome: ForwardingOutcome) -> Tuple:
    """Everything the equivalence contract covers, in comparable form."""
    return (
        outcome.source,
        outcome.destination,
        outcome.status,
        outcome.path,
        outcome.cost,
        outcome.hops,
        outcome.drop_reason,
        outcome.counters,
    )


def mismatches(
    scheme: ForwardingScheme, pairs: Sequence[tuple], failed: Sequence[int]
) -> Tuple[List[tuple], Dict[tuple, ForwardingOutcome]]:
    """Pairs whose fast-path outcome differs from the engine's, plus the fast outcomes."""
    fast = scheme.deliver_many(pairs, failed_links=failed)
    reference = ForwardingScheme.deliver_many(scheme, pairs, failed_links=failed)
    if fast.keys() != reference.keys():
        return sorted(set(fast) ^ set(reference)), fast
    bad = [
        pair
        for pair in reference
        if outcome_fields(fast[pair]) != outcome_fields(reference[pair])
    ]
    return bad, fast


def reference_first_hops(
    graph: Graph, node: str, carried: FrozenSet[int]
) -> Dict[str, Dart]:
    """Destination -> first hop of ``node``'s reference shortest path avoiding ``carried``.

    The router itself and unreachable destinations are absent.
    """
    _dist, parent = dijkstra(graph, node, carried)
    hops: Dict[str, Dart] = {}
    for destination in parent:
        walk = destination
        while parent[walk][0] != node:
            walk = parent[walk][0]
        hops[destination] = graph.dart(parent[walk][1], node)
    return hops


def fcp_table_error(
    scheme: FailureCarryingPackets, checked: Set[tuple]
) -> Optional[str]:
    """The first FCP carried-set first hop that differs from the reference SPF.

    Checks every resolved ``(router, carried set, destination)`` entry of
    the scheme's first-hop lists not yet in ``checked`` (and adds it there):
    a dart must be the reference first hop, ``None`` must mean the router
    itself or an unreachable destination.
    """
    graph = scheme.graph
    names = engine_for(graph).compiled.names
    for (node, carried), first_hops in list(scheme._spf_cache.items()):
        fresh = [
            dest_idx
            for dest_idx, hop in enumerate(first_hops)
            if hop is not _UNRESOLVED and (node, carried, dest_idx) not in checked
        ]
        if not fresh:
            continue
        expected = reference_first_hops(graph, node, carried)
        for dest_idx in fresh:
            checked.add((node, carried, dest_idx))
            want = expected.get(names[dest_idx])
            if first_hops[dest_idx] != want:
                return (
                    f"{graph.name} fcp first hop {node} -> {names[dest_idx]} carrying "
                    f"{sorted(carried)}: table {first_hops[dest_idx]} != dijkstra {want}"
                )
    return None


def reconvergence_error(
    graph: Graph, failed: Sequence[int], outcomes: Dict[tuple, ForwardingOutcome]
) -> Optional[str]:
    """The first re-convergence outcome that disagrees with the reference SPF.

    Delivered outcomes must cost the ``dijkstra`` distance on the map minus
    ``failed`` (up to float summation order), dropped ones must have an
    unreachable destination, and TTL expiries a reachable one.
    """
    distances: Dict[str, Dict[str, float]] = {}
    for (source, destination), outcome in outcomes.items():
        if destination not in distances:
            distances[destination] = dijkstra(graph, destination, failed)[0]
        distance = distances[destination].get(source)
        status = outcome.status
        if status is DeliveryStatus.DELIVERED:
            ok = distance is not None and math.isclose(outcome.cost, distance, rel_tol=1e-9)
        elif status is DeliveryStatus.DROPPED:
            ok = distance is None
        else:
            ok = distance is not None
        if not ok:
            return (
                f"{graph.name} reconvergence {source} -> {destination} under "
                f"{tuple(failed)}: {status.value} at cost {outcome.cost}, "
                f"dijkstra distance {distance}"
            )
    return None


def shrink(
    scheme: ForwardingScheme, pairs: Sequence[tuple], failed: Sequence[int]
) -> Tuple[int, ...]:
    """A minimal failed-link subset on which some of ``pairs`` still mismatch.

    Greedy one-link-at-a-time removal: the result mismatches, and dropping
    any single further link makes the mismatch go away.  The pair set stays
    whole, because a walk may splice a continuation another pair donated.
    """
    current = list(failed)
    index = 0
    while index < len(current):
        candidate = current[:index] + current[index + 1:]
        if mismatches(scheme, pairs, candidate)[0]:
            current = candidate
        else:
            index += 1
    return tuple(current)


def fuzz_topology(
    graph: Graph,
    scheme_keys: Sequence[str],
    rng: random.Random,
    rounds: int,
    min_failures: int = 1,
    max_failures: int = MAX_FAILURES,
    scheme: Optional[ForwardingScheme] = None,
) -> Tuple[Dict[str, int], Optional[str]]:
    """Fuzz ``rounds`` failure sets per scheme on one topology.

    Returns the TTL-expiry count per scheme and, on the first mismatch, a
    report naming the shrunk failed-link set, the wrong FCP first hop or the
    re-convergence outcome that disagrees with ``dijkstra`` (``None`` when
    all agree).
    ``scheme`` reuses a prebuilt instance when only one key is fuzzed.
    """
    nodes = graph.nodes()
    pairs = [(u, v) for u in nodes for v in nodes if u != v]
    edge_ids = graph.edge_ids()
    upper = min(max_failures, len(edge_ids))
    expiries: Dict[str, int] = {}
    for key in scheme_keys:
        instance = scheme if scheme is not None else SCHEMES[key](graph)
        expiries[key] = 0
        checked: Set[tuple] = set()
        for round_index in range(rounds):
            failed = tuple(
                sorted(rng.sample(edge_ids, rng.randint(min(min_failures, upper), upper)))
            )
            ttl = rng.randint(1, 24) if rng.random() < 1 / 3 else None
            set_ttl(instance, ttl)
            try:
                bad, fast = mismatches(instance, pairs, failed)
                if bad:
                    minimal = shrink(instance, pairs, failed)
                    pair = mismatches(instance, pairs, minimal)[0][0]
                    reference = ForwardingScheme.deliver_many(
                        instance, [pair], failed_links=minimal
                    )[pair]
                    got = instance.deliver_many(pairs, failed_links=minimal)[pair]
                    return expiries, (
                        f"{graph.name} {key} round {round_index} (TTL "
                        f"{ttl or 'default'}): {len(bad)} pairs differ under {failed}; "
                        f"minimal failed links {minimal}; {pair}: fast "
                        f"{outcome_fields(got)} != engine {outcome_fields(reference)}"
                    )
            finally:
                set_ttl(instance, None)
            if key == "fcp":
                error = fcp_table_error(instance, checked)
                if error is not None:
                    return expiries, f"round {round_index} under {failed}: {error}"
            if key == "reconvergence":
                error = reconvergence_error(graph, failed, fast)
                if error is not None:
                    return expiries, f"round {round_index}: {error}"
            expiries[key] += sum(
                1 for outcome in fast.values()
                if outcome.status is DeliveryStatus.TTL_EXCEEDED
            )
    return expiries, None


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed (random when omitted; always printed)")
    parser.add_argument("--topologies", nargs="*", default=[],
                        help="topology specs to fuzz")
    parser.add_argument("--topology-set", default=None,
                        help="also fuzz a named corpus set (zoo, synthetic, all)")
    parser.add_argument("--schemes", nargs="*", default=sorted(SCHEMES),
                        choices=sorted(SCHEMES))
    parser.add_argument("--rounds", type=int, default=6,
                        help="failure sets per (topology, scheme)")
    args = parser.parse_args(argv)

    from repro.runner.executor import load_topology
    from repro.topologies.corpus import topology_set

    seed = args.seed if args.seed is not None else random.randrange(2**32)
    print(f"fastpath fuzz seed {seed}", flush=True)
    names = list(args.topologies)
    if args.topology_set:
        names = topology_set(args.topology_set) + names
    if not names:
        parser.error("name at least one topology or a --topology-set")
    started = time.perf_counter()
    for name in names:
        rng = random.Random(f"{seed}-{name}")
        expiries, failure = fuzz_topology(load_topology(name), args.schemes, rng, args.rounds)
        if failure is not None:
            print(f"MISMATCH (seed {seed}): {failure}", flush=True)
            return 1
        print(f"  {name}: ok, TTL expiries {expiries}", flush=True)
    print(f"all outcomes identical ({time.perf_counter() - started:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
