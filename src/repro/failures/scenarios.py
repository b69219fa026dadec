"""Failure scenario containers and exhaustive enumerators."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.errors import FailureScenarioError
from repro.graph.connectivity import is_connected
from repro.graph.multigraph import Graph
from repro.graph.spcache import engine_for
from repro.routing.tables import RoutingTables


def resolve_failed_links(graph: Graph, specs: Sequence[object]) -> Tuple[int, ...]:
    """Sorted, distinct link ids from a list of edge ids and ``(u, v)`` endpoint pairs.

    An endpoint pair fails every parallel link joining the two routers, which
    is what "the link between u and v went down" means operationally.  An
    edge id is taken as given: the scheme a query enters checks it
    (:meth:`~repro.forwarding.scheme.ForwardingScheme.check_query`).
    """
    if not isinstance(specs, (list, tuple)):
        raise FailureScenarioError(
            f"failed links must be a list of edge ids and (u, v) pairs, not {specs!r}"
        )
    ids: List[int] = []
    for spec in specs:
        if isinstance(spec, bool):
            # bool is an int subclass: without this guard True/False would
            # silently pass as edge ids 1/0.
            raise FailureScenarioError(
                f"bad failed-link entry {spec!r}: booleans are not edge ids;"
                " use an integer edge id or a (u, v) endpoint pair"
            )
        if isinstance(spec, int):
            ids.append(spec)
        elif isinstance(spec, (list, tuple)) and len(spec) == 2:
            u, v = str(spec[0]), str(spec[1])
            matched = graph.edge_ids_between(u, v)
            if not matched:
                raise FailureScenarioError(
                    f"no link between {u!r} and {v!r} in {graph.name!r}"
                )
            ids.extend(matched)
        else:
            raise FailureScenarioError(
                f"bad failed-link entry {spec!r}; use an edge id or a (u, v) endpoint pair"
            )
    return tuple(sorted(set(ids)))


@dataclass(frozen=True)
class FailureScenario:
    """One failure scenario: a set of simultaneously failed links.

    ``kind`` records how the scenario was produced ("single-link",
    "multi-link", "node", ...) purely for reporting purposes.
    """

    failed_links: Tuple[int, ...]
    kind: str = "custom"
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "failed_links", tuple(sorted(set(self.failed_links))))

    def __len__(self) -> int:
        return len(self.failed_links)

    def keeps_connected(self, graph: Graph) -> bool:
        """Whether the network stays connected under this scenario.

        Served by the shared engine's memoized component labels (equivalent
        to :func:`repro.graph.connectivity.is_connected`), so enumerators
        probing every link and every consumer re-checking the same scenario
        share one labelling per failure set.
        """
        return engine_for(graph).is_connected(self.failed_links)

    def describe(self, graph: Graph) -> str:
        """Human-readable description listing the failed links by endpoints."""
        parts = []
        for edge_id in self.failed_links:
            edge = graph.edge(edge_id)
            parts.append(f"{edge.u}--{edge.v}")
        label = self.description or self.kind
        return f"{label}: " + (", ".join(parts) if parts else "no failures")


def single_link_failures(graph: Graph, only_non_disconnecting: bool = False) -> List[FailureScenario]:
    """One scenario per link of the topology.

    With ``only_non_disconnecting=True`` bridges are skipped, since no scheme
    can recover traffic that must cross a failed bridge.
    """
    scenarios: List[FailureScenario] = []
    engine = engine_for(graph)
    for edge in graph.edges():
        scenario = FailureScenario((edge.edge_id,), kind="single-link")
        if only_non_disconnecting and not engine.is_connected(scenario.failed_links):
            continue
        scenarios.append(scenario)
    return scenarios


def node_failure_scenarios(
    graph: Graph,
    only_non_disconnecting: bool = False,
    exclude: Optional[Iterable[str]] = None,
) -> List[FailureScenario]:
    """One scenario per node: all links incident to the node fail together.

    The paper treats node failures as the simultaneous failure of the node's
    links; traffic sourced at or destined to the failed node is of course
    unrecoverable and excluded by the experiment's pair selection.
    """
    excluded_nodes = set(exclude or ())
    scenarios: List[FailureScenario] = []
    for node in graph.nodes():
        if node in excluded_nodes:
            continue
        incident = tuple(graph.incident_edge_ids(node))
        if not incident:
            continue
        scenario = FailureScenario(incident, kind="node", description=f"node {node}")
        if only_non_disconnecting:
            remainder = graph.without_edges(incident)
            remainder.remove_node(node)
            if remainder.number_of_nodes() > 0 and not is_connected(remainder):
                continue
        scenarios.append(scenario)
    return scenarios


def all_affecting_pairs(
    graph: Graph,
    scenario: FailureScenario,
    tables: Optional[RoutingTables] = None,
) -> List[Tuple[str, str]]:
    """Ordered (source, destination) pairs whose failure-free path is broken.

    This is the conditioning used for the Figure 2 CCDFs: stretch is measured
    only over pairs that actually need repairing (pairs whose shortest path
    does not touch a failed link have stretch exactly 1 under every scheme
    and would just compress the interesting part of the distribution).

    For the default failure-free tables the check runs on the shared
    shortest-path engine: the failure-free path of every pair is folded into
    an edge bitmask exactly once per topology (per process), and each
    scenario costs one bitmask AND per pair instead of a hop-by-hop table
    walk.  Caller-supplied tables with exclusions (or tables for another
    graph) fall back to the explicit walk below, which the equivalence suite
    keeps bit-identical to the fast path.
    """
    if tables is None or (tables.graph is graph and not tables.excluded_edges):
        return engine_for(graph).affecting_pairs(scenario.failed_links)
    failed = set(scenario.failed_links)
    pairs: List[Tuple[str, str]] = []
    for source in graph.nodes():
        for destination in graph.nodes():
            if source == destination or not tables.has_route(source, destination):
                continue
            node = source
            affected = False
            while node != destination:
                entry = tables.entry(node, destination)
                if entry.egress.edge_id in failed:
                    affected = True
                    break
                node = entry.next_hop
            if affected:
                pairs.append((source, destination))
    return pairs


def validate_scenario(graph: Graph, scenario: FailureScenario) -> None:
    """Check that every failed link id exists in the topology."""
    known = set(graph.edge_ids())
    unknown = [edge_id for edge_id in scenario.failed_links if edge_id not in known]
    if unknown:
        raise FailureScenarioError(
            f"scenario references unknown links {unknown!r} for topology {graph.name!r}"
        )
