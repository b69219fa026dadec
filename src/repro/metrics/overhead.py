"""Overhead comparison between schemes (the qualitative part of Section 6).

The paper compares PR, FCP and re-convergence along three axes: packet
header bits, router memory, and on-line computation when a failure occurs.
:func:`overhead_comparison` fills one row per scheme with concrete numbers
for a given topology so the argument ("PR needs 1 + log2(d) header bits and
no real-time computation") can be checked quantitatively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from repro.forwarding.headers import link_identifier_bits
from repro.forwarding.scheme import ForwardingScheme
from repro.graph.multigraph import Graph
from repro.graph.spcache import cached_diameter


@dataclass(frozen=True)
class OverheadRow:
    """Overhead figures of one scheme on one topology."""

    scheme: str
    header_bits: int
    header_bits_note: str
    memory_entries: int
    online_computation: int


def overhead_comparison(
    graph: Graph,
    schemes: Sequence[ForwardingScheme],
    worst_case_failures: Optional[int] = None,
) -> List[OverheadRow]:
    """One :class:`OverheadRow` per scheme.

    ``worst_case_failures`` sizes FCP's header for a packet that has to carry
    that many failed links; the default is the number that keeps the network
    barely connected in the worst case (|E| - |V| + 1, the cycle rank), which
    is the honest worst case for "any non-disconnecting combination".
    """
    if worst_case_failures is None:
        worst_case_failures = max(
            1, graph.number_of_edges() - graph.number_of_nodes() + 1
        )
    hop_diameter = int(cached_diameter(graph, hop_count=True))
    rows: List[OverheadRow] = []
    for scheme in schemes:
        if hasattr(scheme, "dd_bits"):
            bits = scheme.header_overhead_bits()
            if bits == 1:
                note = "1 PR bit only (single-failure variant, no DD bits)"
            else:
                note = f"1 PR bit + {scheme.dd_bits()} DD bits (diameter {hop_diameter})"
        elif scheme.name.startswith("Failure-Carrying"):
            per_link = link_identifier_bits(graph.number_of_edges())
            bits = scheme.header_overhead_bits(worst_case_failures)  # type: ignore[call-arg]
            note = (
                f"{worst_case_failures} failures x {per_link} bits/link id "
                f"(worst non-disconnecting case)"
            )
        else:
            bits = scheme.header_overhead_bits()
            note = "no extra header fields"
        rows.append(
            OverheadRow(
                scheme=scheme.name,
                header_bits=bits,
                header_bits_note=note,
                memory_entries=scheme.router_memory_entries(),
                online_computation=scheme.online_computation_per_failure()
                if hasattr(scheme, "online_computation_per_failure")
                else 0,
            )
        )
    return rows


def render_overhead_table(topology_name: str, rows: Iterable[OverheadRow]) -> str:
    """Format the overhead comparison as a fixed-width text table."""
    header = (
        f"Overhead comparison on {topology_name}\n"
        f"{'Scheme':<28} {'Header bits':>12} {'Memory entries':>15} {'SPF/ failure':>13}  Notes"
    )
    lines = [header]
    for row in rows:
        lines.append(
            f"{row.scheme:<28} {row.header_bits:>12} {row.memory_entries:>15} "
            f"{row.online_computation:>13}  {row.header_bits_note}"
        )
    return "\n".join(lines)
