#!/usr/bin/env python3
"""Packets lost around one link failure: re-convergence vs Packet Re-cycling.

Reproduces the paper's motivation with the discrete-event simulator: a flow
crosses a link that fails mid-simulation; under plain re-convergence every
packet forwarded onto the dead link until the routers re-converge is lost,
while PR reroutes them over the complementary cycle immediately after local
detection.  The measured loss fractions are extrapolated to an OC-192 link to
recover the paper's "more than a quarter of a million packets" figure.

Usage:
    python examples/convergence_loss.py [topology] [source] [destination]
"""

import sys

from repro.experiments.asciiplot import render_table
from repro.experiments.convergence import convergence_loss_experiment
from repro.simulator.des import estimate_packets_lost
from repro.topologies.corpus import build_topology


def main() -> None:
    topology = sys.argv[1] if len(sys.argv) > 1 else "abilene"
    source = sys.argv[2] if len(sys.argv) > 2 else "Seattle"
    destination = sys.argv[3] if len(sys.argv) > 3 else "KansasCity"

    graph = build_topology(topology)
    print(f"Simulating a {source} -> {destination} flow on {graph.name}; the link in the "
          f"middle of its path fails 0.2 s into a 2 s simulation.")
    result = convergence_loss_experiment(
        graph, source=source, destination=destination, rate_pps=1000.0, duration=2.0
    )

    print(f"\nfailed link: {result.failed_link[0]} -- {result.failed_link[1]}")
    print(f"re-convergence completes {result.convergence_time * 1000:.0f} ms after the failure\n")

    rows = []
    for name, report in result.reports.items():
        rows.append([
            name,
            report.packets_sent,
            report.packets_dropped,
            f"{100 * report.loss_fraction:.2f}%",
            f"{1000 * report.mean_latency:.1f} ms",
            f"{result.extrapolated_losses[name]:,.0f}",
        ])
    print(render_table(
        ["behaviour", "sent", "dropped", "loss", "mean latency", "extrapolated @ OC-192, 25% load"],
        rows,
    ))

    paper = estimate_packets_lost(9.95328e9, utilization=0.25, outage_seconds=1.0)
    print(f"\npaper's back-of-the-envelope for a 1 s outage: {paper:,.0f} packets")


if __name__ == "__main__":
    main()
