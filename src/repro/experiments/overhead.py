"""Overhead comparison experiment (Section 6's qualitative table, made concrete)."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.baselines.fcp import FailureCarryingPackets
from repro.baselines.lfa import LoopFreeAlternates
from repro.baselines.reconvergence import Reconvergence
from repro.core.scheme import PacketRecycling, SimplePacketRecycling
from repro.graph.multigraph import Graph
from repro.metrics.overhead import OverheadRow, overhead_comparison
from repro.topologies.corpus import parse_topology_spec


def overhead_experiment(
    topology_names: Optional[Sequence[str]] = None,
    include_extras: bool = True,
    embedding_seed: int = 7,
) -> Dict[str, List[OverheadRow]]:
    """Header/memory/computation overheads of every scheme on every topology.

    Returns ``{topology name: [OverheadRow, ...]}``.  ``include_extras`` adds
    the 1-bit PR variant and LFA to the three schemes of the paper, which is
    useful context when reading the table.
    """
    if topology_names is None:
        topology_names = ["abilene", "teleglobe", "geant"]
    results: Dict[str, List[OverheadRow]] = {}
    for name in topology_names:
        graph: Graph = parse_topology_spec(name).build()
        schemes = [
            Reconvergence(graph),
            FailureCarryingPackets(graph),
            PacketRecycling(graph, embedding_seed=embedding_seed),
        ]
        if include_extras:
            schemes.append(SimplePacketRecycling(graph, embedding_seed=embedding_seed))
            schemes.append(LoopFreeAlternates(graph))
        results[name] = overhead_comparison(graph, schemes)
    return results
