"""Conventional link-state routing: the substrate PR extends.

Packet Re-cycling leaves failure-free forwarding untouched: every router
first builds an ordinary shortest-path routing table (the paper cites
Dijkstra explicitly) and only consults the cycle-following machinery when a
failure is hit.  This package provides those tables, the *distance
discriminator* column added by Section 4.3, and the timing model of full
routing re-convergence that the discrete-event simulator switches routers
by (the converged end state is the Reconvergence scheme of
:mod:`repro.baselines`).
"""

from repro.routing.discriminator import (
    DiscriminatorKind,
    discriminator_bits_required,
    discriminator_value,
)
from repro.routing.tables import RoutingEntry, RoutingTables, build_routing_tables
from repro.routing.reconvergence import (
    ConvergenceTimeline,
    ReconvergenceModel,
)

__all__ = [
    "DiscriminatorKind",
    "discriminator_bits_required",
    "discriminator_value",
    "RoutingEntry",
    "RoutingTables",
    "build_routing_tables",
    "ConvergenceTimeline",
    "ReconvergenceModel",
]
