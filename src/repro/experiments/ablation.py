"""Ablations on the design choices Section 7 calls out.

Two knobs of PR affect the stretch/overhead trade-off:

* **Embedding quality** — the paper notes that heuristic embeddings of
  non-planar graphs trade extra stretch for tractability ("which may provide
  useful 2-cell embeddings for arbitrary networks at the cost of increased
  stretch").  :func:`embedding_quality_ablation` measures stretch with the
  exact/heuristic/pessimal rotation systems on the same workload.
* **Distance discriminator** — hop count vs. weighted cost (Section 4.3
  offers both).  :func:`dd_kind_ablation` compares them on delivery and
  stretch, plus the resulting DD-bit width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.scheme import PacketRecycling
from repro.embedding.builder import embed
from repro.failures.scenarios import FailureScenario, single_link_failures
from repro.graph.multigraph import Graph
from repro.routing.discriminator import DiscriminatorKind, discriminator_bits_required
from repro.experiments.stretch import run_stretch_experiment


@dataclass
class AblationRow:
    """Stretch and delivery figures of one configuration."""

    configuration: str
    faces: int
    genus: int
    delivery_ratio: float
    mean_stretch: float
    p90_stretch: float
    max_stretch: float
    header_bits: int


def embedding_quality_ablation(
    graph: Graph,
    methods: Optional[Sequence[str]] = None,
    scenarios: Optional[Sequence[FailureScenario]] = None,
    seed: int = 7,
) -> List[AblationRow]:
    """Stretch of PR under embeddings of different quality on the same workload."""
    if methods is None:
        methods = ["auto", "greedy", "adjacency"]
    if scenarios is None:
        scenarios = single_link_failures(graph, only_non_disconnecting=True)

    rows: List[AblationRow] = []
    for method in methods:
        embedding = embed(graph, method=method, seed=seed)
        scheme = PacketRecycling(graph, embedding=embedding)
        result = run_stretch_experiment(graph, scenarios, schemes=[scheme])
        summary = result.summary[scheme.name]
        rows.append(
            AblationRow(
                configuration=f"embedding={method}",
                faces=embedding.number_of_faces,
                genus=embedding.genus,
                delivery_ratio=result.delivery_ratio[scheme.name],
                mean_stretch=summary["mean"],
                p90_stretch=summary["p90"],
                max_stretch=summary["max"],
                header_bits=scheme.header_overhead_bits(),
            )
        )
    return rows


def dd_kind_ablation(
    graph: Graph,
    scenarios: Optional[Sequence[FailureScenario]] = None,
    seed: int = 7,
) -> List[AblationRow]:
    """Hop-count vs. weighted-cost distance discriminators on the same workload."""
    if scenarios is None:
        scenarios = single_link_failures(graph, only_non_disconnecting=True)
    embedding = embed(graph, seed=seed)

    rows: List[AblationRow] = []
    for kind in (DiscriminatorKind.HOP_COUNT, DiscriminatorKind.WEIGHTED_COST):
        scheme = PacketRecycling(graph, embedding=embedding, discriminator_kind=kind)
        result = run_stretch_experiment(graph, scenarios, schemes=[scheme])
        summary = result.summary[scheme.name]
        rows.append(
            AblationRow(
                configuration=f"dd={kind.value}",
                faces=embedding.number_of_faces,
                genus=embedding.genus,
                delivery_ratio=result.delivery_ratio[scheme.name],
                mean_stretch=summary["mean"],
                p90_stretch=summary["p90"],
                max_stretch=summary["max"],
                header_bits=1 + discriminator_bits_required(graph, kind),
            )
        )
    return rows
