"""The walk kernel behind every scheme's ``deliver_many`` fast path.

:func:`walk_many` walks packets hop by hop like
:class:`~repro.forwarding.engine.HopByHopEngine`, the reference, and owns all
but the scheme's decision: the TTL, the path, the hop weights, the cost
(summed in hop order), the counters and the outcome.  A scheme supplies:

* a **lane** per destination, ``node -> (next hop, egress link bitmask, link
  weight)``: the table forward at a packet state of ``None``;
* optionally a **follow** table, ``ingress -> (next hop, egress link
  bitmask, link weight, egress)``: the table forward at any other state,
  which keeps the state (Packet Re-cycling's cycle following);
* ``decide(node, destination, ingress, state)`` for every other hop, or
  where the table's link is down: ``(egress, next hop, link weight, new
  state, counters)`` to forward, ``(None, drop reason, None, None,
  counters)`` to drop.  ``egress`` comes back as the next ``ingress``, and
  ``counters`` is the :class:`Counters` code of what the decision carries.

At a *lane state* (``None``) the rest of the walk depends only on (node,
destination, failure set), so ``decide`` gets no ingress there.  Within one
call, a walk that ends delivered or dropped donates its suffix from every
lane state it passed, and a later walk reaching one takes it when the TTL
allows, replaying the suffix weights so the float cost is unchanged.  The
configuration at a ``decide`` call, (node, ingress, state), determines the
rest of the walk: when one recurs, whole rounds of the loop are appended at
once, counters scaled by the round count, and the last partial round is
walked to TTL expiry.  Lanes are loop-free routing trees and a follow run
ends at a failed link, so every loop of these schemes passes a ``decide``
call; one that did not would be walked exactly, hop by hop.
"""

from __future__ import annotations

from typing import Any, Callable, Collection, Dict, Optional, Sequence, Tuple

from repro.forwarding.engine import DeliveryStatus, ForwardingOutcome

#: ``node -> (next hop, egress link bitmask, link weight)`` toward one destination.
Lane = Dict[str, Tuple[str, int, float]]

#: Bits of one packed counter field: no walk comes near 2**64 increments.
_FIELD = 64
_MASK = (1 << _FIELD) - 1


class Counters:
    """The counter names of a scheme's decisions, packed into one integer.

    Each name has two fields of the code: its summed value, and how many
    decisions carried it.  A walk's counters are then the plain sum of its
    decisions' codes, a suffix's the difference of two sums and ``k`` rounds
    of a loop ``k`` times one round's.  Increments are non-negative integers,
    so every summed value is exact.
    """

    def __init__(self, *names: str) -> None:
        self.names = names
        self._shift = {name: 2 * _FIELD * slot for slot, name in enumerate(names)}

    def code(self, **increments: int) -> int:
        """The code of a decision carrying these counters (zeros included)."""
        return sum(
            (value << self._shift[name]) + (1 << (self._shift[name] + _FIELD))
            for name, value in increments.items()
        )

    def unit(self, name: str) -> int:
        """One more of ``name``'s value, without counting another carrier."""
        return 1 << self._shift[name]

    def decode(self, packed: int) -> Dict[str, float]:
        """The outcome counters of a summed code."""
        counters: Dict[str, float] = {}
        for name in self.names:
            shift = self._shift[name]
            if (packed >> (shift + _FIELD)) & _MASK:
                counters[name] = float((packed >> shift) & _MASK)
        return counters


def walk_many(
    pairs: Collection[tuple],
    ttl_budget: int,
    failed_mask: int,
    lane_of: Callable[[str], Lane],
    decide: Callable[[str, str, Any, Any], tuple],
    counters: Counters,
    lane_code: int = 0,
    follow: Optional[Sequence[Optional[tuple]]] = None,
    follow_code: int = 0,
) -> Dict[tuple, ForwardingOutcome]:
    """Walk one packet per ``(source, destination)`` pair; outcomes by pair.

    ``failed_mask`` is the failure set's link bitmask, tested against the
    link of every lane and follow hop; ``lane_of`` is called once per
    destination.  The pairs must already be checked
    (:meth:`ForwardingScheme.check_query`).
    """
    delivered = DeliveryStatus.DELIVERED
    dropped = DeliveryStatus.DROPPED
    expired = DeliveryStatus.TTL_EXCEEDED
    # destination -> (lane, shared continuations).  A continuation is
    # node -> (path, weights, index, status, drop reason, counters): the
    # donor walk from ``path[index] == node`` on, with the summed counters
    # code of that suffix.
    destinations: Dict[str, tuple] = {}
    # summed counters code -> its outcome counters
    decoded: Dict[int, Dict[str, float]] = {}
    outcomes: Dict[tuple, ForwardingOutcome] = {}
    for pair in pairs:
        source, destination = pair
        known = destinations.get(destination)
        if known is None:
            known = destinations[destination] = (lane_of(destination), {})
        lane, shared = known
        node = source
        state: Any = None
        ingress: Any = None
        path = [node]
        weights: list = []
        cost = 0.0
        ttl = ttl_budget
        packed = 0
        # (path index, counters code) at every lane state: the continuations
        # this walk donates if it ends delivered or dropped.
        marks: list = []
        # (node, ingress, state) of every decide call (the node alone at a
        # lane state) -> (path index, counters code); None once the walk has
        # been fast-forwarded.
        seen: Optional[Dict[Any, tuple]] = {}
        while True:
            if node == destination:
                status = delivered
                drop_reason = None
                break
            if ttl <= 0:
                status = expired
                drop_reason = "ttl expired"
                break
            if state is None:
                donor = shared.get(node)
                if donor is not None:
                    d_path, d_weights, at, d_status, d_reason, d_packed = donor
                    suffix_hops = len(d_path) - 1 - at
                    if suffix_hops < ttl or (suffix_hops == ttl and d_status is delivered):
                        path += d_path[at + 1 :]
                        suffix_weights = d_weights[at:]
                        for hop_weight in suffix_weights:
                            cost += hop_weight
                        weights += suffix_weights
                        packed += d_packed
                        status = d_status
                        drop_reason = d_reason
                        break
                mark = (len(path) - 1, packed)
                marks.append(mark)
                hop = lane.get(node)
                if hop is not None:
                    head, edge_bit, hop_weight = hop
                    if not failed_mask & edge_bit:
                        packed += lane_code
                        cost += hop_weight
                        weights.append(hop_weight)
                        ttl -= 1
                        node = head
                        path.append(head)
                        continue
            elif follow is not None:
                hop = follow[ingress]
                if hop is not None:
                    head, edge_bit, hop_weight, egress = hop
                    if not failed_mask & edge_bit:
                        packed += follow_code
                        ingress = egress
                        cost += hop_weight
                        weights.append(hop_weight)
                        ttl -= 1
                        node = head
                        path.append(head)
                        continue
            if seen is not None:
                # At a lane state only the node matters, and its mark is
                # the one just taken.
                config = node if state is None else (node, ingress, state)
                first = seen.get(config)
                if first is None:
                    seen[config] = mark if state is None else (len(path) - 1, packed)
                else:
                    # Back in a configuration seen ``period`` hops ago.
                    first_at, first_packed = first
                    period = len(path) - 1 - first_at
                    rounds = ttl // period
                    cycle_nodes = path[first_at + 1 :]
                    cycle_weights = weights[first_at:]
                    for _round in range(rounds):
                        path += cycle_nodes
                        weights += cycle_weights
                        for hop_weight in cycle_weights:
                            cost += hop_weight
                    packed += rounds * (packed - first_packed)
                    ttl -= rounds * period
                    seen = None
                    continue
            egress, head, hop_weight, state, code = decide(node, destination, ingress, state)
            packed += code
            if egress is None:
                status = dropped
                drop_reason = head
                break
            ingress = None if state is None else egress
            cost += hop_weight
            weights.append(hop_weight)
            ttl -= 1
            node = head
            path.append(head)
        if status is not expired:
            for at, at_packed in marks:
                marked = path[at]
                if marked not in shared:
                    shared[marked] = (path, weights, at, status, drop_reason, packed - at_packed)
        outcome_counters = decoded.get(packed)
        if outcome_counters is None:
            outcome_counters = decoded[packed] = counters.decode(packed)
        outcomes[pair] = ForwardingOutcome(
            source=source,
            destination=destination,
            status=status,
            path=path,
            cost=cost,
            hops=len(path) - 1,
            drop_reason=drop_reason,
            counters=dict(outcome_counters),
        )
    return outcomes
