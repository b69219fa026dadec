"""A3 — cost of the offline stage the paper delegates to a server.

PR's selling point is that all expensive work (the cellular embedding, the
cycle-following tables, the DD column) happens offline.  This benchmark
measures that cost for the three evaluation topologies so the "relatively
expensive computations offline" claim of Section 7 has a number attached,
and verifies the resulting embeddings are valid and strong (no self-paired
links) wherever the topology allows it.
"""

import pytest

from repro.core.scheme import PacketRecycling
from repro.embedding.genus import self_paired_edge_count
from repro.embedding.validation import validate_embedding
from repro.topologies.corpus import build_topology


@pytest.mark.parametrize("topology_name", ["abilene", "teleglobe", "geant"])
def test_bench_offline_precomputation(benchmark, topology_name):
    graph = build_topology(topology_name)
    scheme = benchmark(lambda: PacketRecycling(graph, embedding_seed=0))

    validate_embedding(graph, scheme.embedding.rotation, scheme.embedding.faces)
    print()
    print(
        f"{topology_name}: faces={scheme.embedding.number_of_faces} "
        f"genus={scheme.embedding.genus} "
        f"self-paired links={self_paired_edge_count(scheme.embedding.rotation)} "
        f"header bits={scheme.header_overhead_bits()} "
        f"router memory entries={scheme.router_memory_entries()}"
    )
    assert self_paired_edge_count(scheme.embedding.rotation) == 0
    assert scheme.header_overhead_bits() <= 6
