"""Discrete-event packet-level simulator.

The stretch results of Figure 2 only need path tracing, but the paper's
motivation is about *time*: "If, for instance, a heavily loaded OC-192 link
is down for a second, more than a quarter of a million packets could be
lost".  This package provides a small discrete-event simulator with link
propagation and serialisation delays, constant-bit-rate flows, link failure
events and per-router re-convergence times, so that the packets-lost-during-
convergence experiment (and the PR counterfactual, which loses none) can be
run end to end.  Every hop is decided by a scheme's own
:class:`~repro.forwarding.router.RouterLogic` through one
:class:`SchemeForwarder`, so the simulator has no forwarding rules of its
own.
"""

from repro.simulator.events import Event, EventQueue
from repro.simulator.links import LinkModel, OC192
from repro.simulator.flows import TrafficFlow
from repro.simulator.forwarders import SchemeForwarder
from repro.simulator.des import PacketLevelSimulator, SimulationReport, estimate_packets_lost

__all__ = [
    "Event",
    "EventQueue",
    "LinkModel",
    "OC192",
    "TrafficFlow",
    "SchemeForwarder",
    "PacketLevelSimulator",
    "SimulationReport",
    "estimate_packets_lost",
]
