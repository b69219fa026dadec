"""Repair-coverage analysis.

The paper's headline claim is that PR "can guarantee full repair coverage for
any number of failures, as long as the network remains connected".  Measured
here, it holds on planar maps, while embeddings of genus >= 1 can loop (see
:mod:`repro.core.protocol`).  This module measures the claim empirically for
any scheme: enumerate (or sample)
failure scenarios, send a packet between every ordered pair of routers that
is still connected, and classify the outcome.  The sending and accounting is
the campaign cell's measurement pass in ``"full"`` coverage mode
(:mod:`repro.metrics.stretch`); :class:`CoverageReport` is its coverage half.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.forwarding.engine import DeliveryStatus
from repro.forwarding.scheme import ForwardingScheme
from repro.graph.multigraph import Graph
from repro.graph.spcache import engine_for


@dataclass
class CoverageReport:
    """Aggregate delivery statistics of one scheme over many scenarios."""

    scheme: str
    attempts: int = 0
    delivered: int = 0
    dropped: int = 0
    looped: int = 0
    unreachable_pairs_skipped: int = 0
    drop_reasons: Dict[str, int] = field(default_factory=dict)

    @property
    def coverage(self) -> float:
        """Fraction of reachable (source, destination, scenario) triples delivered."""
        if self.attempts == 0:
            return 1.0
        return self.delivered / self.attempts

    @property
    def full_coverage(self) -> bool:
        """Whether every packet with an existing path was delivered."""
        return self.delivered == self.attempts

    def record(self, status: DeliveryStatus, reason: Optional[str]) -> None:
        """Account one forwarding outcome."""
        self.attempts += 1
        if status is DeliveryStatus.DELIVERED:
            self.delivered += 1
            return
        if status is DeliveryStatus.TTL_EXCEEDED:
            self.looped += 1
        else:
            self.dropped += 1
        if reason:
            self.drop_reasons[reason] = self.drop_reasons.get(reason, 0) + 1

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.scheme}: {self.delivered}/{self.attempts} delivered "
            f"({100.0 * self.coverage:.2f}%), {self.dropped} dropped, {self.looped} looped"
        )


def reachable_pairs(graph: Graph, failed_links: Iterable[int]) -> List[Tuple[str, str]]:
    """Ordered (source, destination) pairs still connected under the failures."""
    engine = engine_for(graph)
    failed = frozenset(failed_links)
    nodes = graph.nodes()
    return [
        (source, destination)
        for source in nodes
        for destination in nodes
        if source != destination and engine.same_component(source, destination, failed)
    ]


def coverage_report(
    scheme: ForwardingScheme, scenarios: Iterable[Sequence[int]]
) -> CoverageReport:
    """Measure delivery coverage of ``scheme`` over the given failure scenarios.

    Only (source, destination) pairs for which a path still exists are
    attempted — pairs cut off by the failures are counted separately, since
    no scheme can deliver those.  This is the campaign measurement pass
    (:func:`repro.metrics.stretch.measure_context`) in ``"full"`` coverage
    mode.
    """
    # Imported here: repro.metrics.stretch builds on CoverageReport.
    from repro.metrics.stretch import measure_context, scenario_context

    context = scenario_context(scheme.graph, scenarios, coverage="full")
    return measure_context(scheme, context)[2]
