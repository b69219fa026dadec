"""Unit tests for the re-convergence baseline scheme."""

import random
from functools import partial

import pytest

from repro.baselines.reconvergence import Reconvergence
from repro.core.coverage import coverage_report
from repro.errors import NodeNotFound
from repro.failures.scenarios import single_link_failures
from repro.forwarding.network_state import NetworkState
from repro.forwarding.packets import Packet
from repro.forwarding.router import Action
from repro.forwarding.scheme import ForwardingScheme
from repro.graph.shortest_paths import shortest_path_cost
from repro.graph.spcache import ShortestPathEngine, clear_engines, engine_for
from repro.routing.tables import RoutingTables
from repro.store.serve import ServeSession
from repro.topologies.corpus import build_topology, parse_topology_spec, topology_set

UNREACHABLE = "destination unreachable after re-convergence"


def _edge(graph, u, v):
    return graph.edge_ids_between(u, v)[0]


class TestReconvergence:
    def test_follows_post_convergence_shortest_path(self, abilene_graph):
        scheme = Reconvergence(abilene_graph)
        failed = _edge(abilene_graph, "Chicago", "NewYork")
        outcome = scheme.deliver("Chicago", "NewYork", failed_links=[failed])
        assert outcome.delivered
        expected = shortest_path_cost(abilene_graph, "Chicago", "NewYork", excluded_edges=[failed])
        assert outcome.cost == pytest.approx(expected)

    def test_optimal_stretch_among_schemes(self, abilene_graph, abilene_pr):
        """Re-convergence is the stretch lower bound: no scheme can do better."""
        failed = [_edge(abilene_graph, "Denver", "KansasCity")]
        reconv = Reconvergence(abilene_graph).deliver("Seattle", "KansasCity", failed_links=failed)
        pr = abilene_pr.deliver("Seattle", "KansasCity", failed_links=failed)
        assert reconv.cost <= pr.cost + 1e-9

    def test_full_coverage(self, abilene_graph):
        scheme = Reconvergence(abilene_graph)
        scenarios = [s.failed_links for s in single_link_failures(abilene_graph)]
        assert coverage_report(scheme, scenarios).full_coverage

    def test_unreachable_destination_dropped(self):
        from repro.graph.multigraph import Graph

        graph = Graph.from_edge_list([("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])
        scheme = Reconvergence(graph)
        outcome = scheme.deliver("a", "d", failed_links=[graph.edge_ids_between("c", "d")[0]])
        assert not outcome.delivered

    def test_unknown_endpoints_in_sweep(self, abilene_graph):
        """An unknown router fails the whole sweep call, as in the engine path."""
        scheme = Reconvergence(abilene_graph)
        for pair in [("Mars", "Seattle"), ("Seattle", "Mars"), ("Mars", "Mars")]:
            for sweep in (scheme.deliver_many, partial(ForwardingScheme.deliver_many, scheme)):
                with pytest.raises(NodeNotFound, match="Mars"):
                    sweep([("Seattle", "Denver"), pair])

    def test_no_extra_overheads(self, abilene_graph):
        scheme = Reconvergence(abilene_graph)
        assert scheme.header_overhead_bits() == 0
        assert scheme.router_memory_entries() == 0
        assert scheme.online_computation_per_failure() == abilene_graph.number_of_nodes()


def _failure_sets(graph, rng):
    """Seeded failure sets of 0-5 links, the last one cutting a node off."""
    edge_ids = graph.edge_ids()
    sets = [
        tuple(sorted(rng.sample(edge_ids, min(size, len(edge_ids)))))
        for size in (0, 1, 2, 3, 5)
    ]
    node = min(graph.nodes(), key=lambda name: (len(graph.incident_edge_ids(name)), name))
    sets.append(tuple(sorted(graph.incident_edge_ids(node)[:5])))
    return sets


@pytest.mark.parametrize(
    "topology", topology_set("all") + ["abilene", "teleglobe", "geant"]
)
def test_logic_matches_converged_tables(topology):
    """Every next hop of the lazy logic equals eagerly built converged tables.

    The oracle tables run on their own engine, so they recompute every tree
    instead of reading the memo the logic reads.
    """
    graph = parse_topology_spec(topology).build()
    scheme = Reconvergence(graph)
    oracle_engine = ShortestPathEngine(graph)
    nodes = graph.nodes()
    rng = random.Random(f"reconvergence-oracle-{topology}")
    drops = 0
    for failed in _failure_sets(graph, rng):
        state = NetworkState(graph, failed)
        logic = scheme.build_logic(state)
        oracle = RoutingTables(graph, excluded_edges=failed, engine=oracle_engine)
        for destination in nodes:
            packet = Packet(nodes[0], destination)
            for node in nodes:
                if node == destination:
                    continue
                decision = logic.decide(node, None, packet, state)
                context = (topology, failed, node, destination)
                if oracle.has_route(node, destination):
                    assert decision.action is Action.FORWARD, context
                    assert decision.egress == oracle.egress(node, destination), context
                    assert decision.counters == {"spf_computations": 0}, context
                else:
                    drops += 1
                    assert decision.action is Action.DROP, context
                    assert decision.drop_reason == UNREACHABLE, context
        for source, destination in (("nowhere", nodes[0]), (nodes[0], "nowhere")):
            with pytest.raises(NodeNotFound, match="nowhere"):
                scheme.deliver(source, destination, failed_links=failed)
    assert drops > 0, "no failure set disconnected a pair"


def _counting_builds(monkeypatch):
    """Record every ``RoutingTables._build`` call from here on."""
    builds = []
    original = RoutingTables._build

    def counted(self):
        builds.append(self.excluded_edges)
        original(self)

    monkeypatch.setattr(RoutingTables, "_build", counted)
    return builds


class TestSinglePacketWork:
    """One re-converged packet under a new failure set costs one tree.

    Counted rather than timed: no routing tables are built, and the engine
    misses exactly once, for the tree towards the destination on the failed
    map (the failure-free tree it is repaired from is warmed first).
    """

    SOURCE, DESTINATION = "UK", "GR"

    def _cold_engine(self):
        clear_engines()
        engine = engine_for(build_topology("geant"))
        engine.sssp_tree(self.DESTINATION)
        return engine

    def _failure(self, graph):
        # IT-GR is on the failure-free UK -> GR path, CZ-DE is not.
        return [_edge(graph, "IT", "GR"), _edge(graph, "CZ", "DE")]

    def test_scheme_deliver(self, monkeypatch):
        engine = self._cold_engine()
        graph = build_topology("geant")
        scheme = Reconvergence(graph)
        builds = _counting_builds(monkeypatch)
        misses = engine.misses
        outcome = scheme.deliver(self.SOURCE, self.DESTINATION, failed_links=self._failure(graph))
        assert outcome.delivered
        assert builds == []
        assert engine.misses - misses == 1

    def test_serve_handle(self, monkeypatch):
        engine = self._cold_engine()
        session = ServeSession()
        try:
            warm = {"op": "warm", "topology": "geant", "schemes": ["reconvergence"]}
            assert session.handle(warm)["ok"]
            builds = _counting_builds(monkeypatch)
            misses = engine.misses
            response = session.handle({
                "op": "deliver", "topology": "geant", "scheme": "reconvergence",
                "source": self.SOURCE, "destination": self.DESTINATION,
                "failed": self._failure(build_topology("geant")),
            })
        finally:
            session.close()
        assert response["ok"] and response["delivered"], response
        assert builds == []
        assert engine.misses - misses == 1
