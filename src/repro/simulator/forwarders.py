"""Time-aware forwarding for the discrete-event simulator.

The simulator forwards with the schemes' own router logic: a
:class:`SchemeForwarder` holds two :class:`~repro.forwarding.router.RouterLogic`
objects built for the same :class:`NetworkState` and switches each router
from the ``before`` logic to the ``after`` logic at that router's instant.
The convergence-loss experiment builds its three behaviours from schemes,
each running the intact map's NoProtection logic before the failure instant:

* no protection — the :class:`~repro.baselines.noprotection.NoProtection`
  logic throughout, so packets meeting the dead link are lost;
* re-convergence — the NoProtection logic until the router installs its new
  FIB (per router, from
  :class:`~repro.routing.reconvergence.ReconvergenceModel`), then the
  :class:`~repro.baselines.reconvergence.Reconvergence` logic;
* Packet Re-cycling — the NoProtection logic until the failure is detected,
  then the PR logic.
"""

from __future__ import annotations

from typing import Mapping, Optional, Tuple, Union

from repro.forwarding.network_state import NetworkState
from repro.forwarding.packets import Packet
from repro.forwarding.router import Action, RouterLogic
from repro.graph.darts import Dart


class SchemeForwarder:
    """One forwarding behaviour: a scheme logic before and after a switch.

    ``switch_at`` is one instant for every router, or a per-router map (a
    router missing from it runs ``after`` from time zero).  ``intact`` is an
    optional ``(logic, state)`` pair in force everywhere before
    ``failure_time``, so one run covers the failure-free prefix too: a
    packet emitted before the failure meets the failed ``state`` at every
    hop it reaches after it.  A packet is forwarded only when the logic in
    force decides ``FORWARD`` over a dart usable in its state and the link
    is still up when the packet reaches its far end (:meth:`link_up`);
    anything else loses it, which is the loss the simulator measures.
    """

    def __init__(
        self,
        name: str,
        state: NetworkState,
        before: RouterLogic,
        after: RouterLogic,
        switch_at: Union[float, Mapping[str, float]] = 0.0,
        intact: Optional[Tuple[RouterLogic, NetworkState]] = None,
        failure_time: float = 0.0,
    ) -> None:
        self.name = name
        self.state = state
        self.before = before
        self.after = after
        self.switch_at = switch_at
        self.intact = intact
        self.failure_time = failure_time

    def switch_time(self, node: str) -> float:
        """Instant ``node`` starts running the ``after`` logic."""
        if isinstance(self.switch_at, Mapping):
            return self.switch_at.get(node, 0.0)
        return self.switch_at

    def egress_for(
        self,
        time: float,
        node: str,
        ingress: Optional[Dart],
        packet: Packet,
    ) -> Optional[Dart]:
        """The dart to forward over, or ``None`` to drop the packet."""
        if self.intact is not None and time < self.failure_time:
            logic, state = self.intact
        else:
            logic = self.after if time >= self.switch_time(node) else self.before
            state = self.state
        decision = logic.decide(node, ingress, packet, state)
        if decision.action is Action.FORWARD and state.dart_usable(decision.egress):
            return decision.egress
        return None

    def link_up(self, time: float, dart: Dart) -> bool:
        """Whether ``dart``'s link still carries a packet reaching its far end at ``time``."""
        if self.intact is not None and time < self.failure_time:
            return self.intact[1].dart_usable(dart)
        return self.state.dart_usable(dart)
