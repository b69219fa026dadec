"""Distance discriminators (Section 4.3 of the paper).

The enriched routing table stores, per destination, "a strictly increasing
function of the links along the shortest path".  The paper proposes two
candidates — the number of hops and the sum of the link weights — and the
header needs enough DD bits to encode the largest value that can occur,
which is in the order of ``log2(d)`` bits for the hop-count discriminator
(``d`` being the network diameter).
"""

from __future__ import annotations

import enum
import math

from repro.errors import RoutingError
from repro.graph.multigraph import Graph
from repro.graph.spcache import cached_diameter


class DiscriminatorKind(str, enum.Enum):
    """Which strictly increasing path function the DD bits encode."""

    #: Number of hops along the shortest path (the paper's default; needs
    #: about ``log2(diameter)`` bits).
    HOP_COUNT = "hop-count"
    #: Sum of link weights along the shortest path.
    WEIGHTED_COST = "weighted-cost"


def discriminator_value(kind: DiscriminatorKind, hops: int, cost: float) -> float:
    """The discriminator value for a path with the given hop count and cost."""
    if kind is DiscriminatorKind.HOP_COUNT:
        return float(hops)
    if kind is DiscriminatorKind.WEIGHTED_COST:
        return float(cost)
    raise RoutingError(f"unknown discriminator kind {kind!r}")


def discriminator_bits_required(graph: Graph, kind: DiscriminatorKind) -> int:
    """Number of DD bits needed to encode every possible discriminator value.

    For the hop-count discriminator this is ``ceil(log2(d + 1))`` where ``d``
    is the hop diameter, matching the paper's "in the order of log2(d) bits".
    For the weighted-cost discriminator the weights are quantised to integers
    (ceiling) before sizing the field, which upper-bounds the requirement.
    """
    if graph.number_of_nodes() <= 1:
        return 1
    if kind is DiscriminatorKind.HOP_COUNT:
        largest = int(cached_diameter(graph, hop_count=True))
    elif kind is DiscriminatorKind.WEIGHTED_COST:
        largest = int(math.ceil(cached_diameter(graph, hop_count=False)))
    else:
        raise RoutingError(f"unknown discriminator kind {kind!r}")
    return max(1, math.ceil(math.log2(largest + 1)))


def compare_discriminators(own: float, in_packet: float) -> bool:
    """Whether a failure-detecting router should *resume shortest-path routing*.

    Section 4.3: "If its own is smaller, it will clear the PR bit and route
    along the shortest path.  If its distance discriminator is larger or
    equal, it will forward the packet along the complementary cycle."
    Returns ``True`` when the own value is strictly smaller.
    """
    return own < in_packet
