"""Packet forwarding substrate: headers, packets, network state and the engine.

The subsystem is deliberately split the same way a router implementation
would be:

* :mod:`~repro.forwarding.headers` — the packet header fields each scheme
  needs (the PR bit, the DD bits, FCP's failure list) plus the DSCP pool-2
  encoding suggested by the paper.
* :mod:`~repro.forwarding.packets` — packets (header + metadata).
* :mod:`~repro.forwarding.network_state` — which links are currently down.
* :mod:`~repro.forwarding.router` — the per-router decision interface
  (`RouterLogic`) and its decisions.
* :mod:`~repro.forwarding.engine` — the hop-by-hop engine that moves a packet
  from router to router, enforcing that nobody forwards onto a failed link,
  and records the outcome.
* :mod:`~repro.forwarding.scheme` — the `ForwardingScheme` base class shared
  by Packet Re-cycling and every baseline.
* :mod:`~repro.forwarding.walk` — the walk kernel of the schemes'
  ``deliver_many`` fast paths: TTL, path, cost, counters, continuation
  sharing and loop fast-forward around a scheme's per-hop decision.
"""

from repro.forwarding.headers import DscpCodec, PacketHeader
from repro.forwarding.packets import Packet
from repro.forwarding.network_state import NetworkState
from repro.forwarding.router import Action, ForwardingDecision, RouterLogic
from repro.forwarding.engine import DeliveryStatus, ForwardingOutcome, HopByHopEngine
from repro.forwarding.scheme import ForwardingScheme
from repro.forwarding.policy import ClassBasedProtection, DEFAULT_PROTECTED_CLASSES

__all__ = [
    "DscpCodec",
    "PacketHeader",
    "Packet",
    "NetworkState",
    "Action",
    "ForwardingDecision",
    "RouterLogic",
    "DeliveryStatus",
    "ForwardingOutcome",
    "HopByHopEngine",
    "ForwardingScheme",
    "ClassBasedProtection",
    "DEFAULT_PROTECTED_CLASSES",
]
