#!/usr/bin/env python3
"""Repair coverage study: which failures can each scheme actually recover from?

Compares Packet Re-cycling (full and 1-bit variants), Loop-Free Alternates and
plain shortest-path forwarding on a chosen topology under every single link
failure and under sampled multi-failure combinations.

Usage:
    python examples/failure_coverage.py [topology] [multi_failures] [samples]

Defaults: abilene, 3 simultaneous failures, 25 sampled scenarios.
"""

import sys

from repro.baselines.lfa import LoopFreeAlternates
from repro.baselines.noprotection import NoProtection
from repro.core.coverage import coverage_report
from repro.core.scheme import PacketRecycling, SimplePacketRecycling
from repro.experiments.asciiplot import render_table
from repro.failures.sampling import sample_multi_link_failures
from repro.failures.scenarios import single_link_failures
from repro.topologies.corpus import build_topology


def main() -> None:
    topology = sys.argv[1] if len(sys.argv) > 1 else "abilene"
    failures = int(sys.argv[2]) if len(sys.argv) > 2 else 3
    samples = int(sys.argv[3]) if len(sys.argv) > 3 else 25

    graph = build_topology(topology)
    print(f"Topology {graph.name}: {graph.number_of_nodes()} routers, "
          f"{graph.number_of_edges()} links")

    schemes = {
        "Packet Re-cycling": PacketRecycling(graph, embedding_seed=0),
        "Packet Re-cycling (1-bit)": SimplePacketRecycling(graph, embedding_seed=0),
        "Loop-Free Alternates": LoopFreeAlternates(graph),
        "No protection": NoProtection(graph),
    }

    single = [s.failed_links for s in single_link_failures(graph)]
    multi = [
        s.failed_links
        for s in sample_multi_link_failures(graph, failures=failures, samples=samples, seed=1)
    ]

    for label, scenarios in (("single link failures", single),
                             (f"{failures} simultaneous failures ({len(multi)} scenarios)", multi)):
        if not scenarios:
            print(f"\n[{label}] no non-disconnecting scenarios exist on this topology")
            continue
        print(f"\n=== Coverage under {label} ===")
        rows = []
        for name, scheme in schemes.items():
            report = coverage_report(scheme, scenarios)
            rows.append([name, report.attempts, report.delivered,
                         f"{100 * report.coverage:.2f}%", report.dropped, report.looped])
        print(render_table(
            ["scheme", "attempts", "delivered", "coverage", "dropped", "loops"], rows
        ))


if __name__ == "__main__":
    main()
