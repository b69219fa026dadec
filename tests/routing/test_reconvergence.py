"""Unit tests for the re-convergence model."""

from repro.baselines.reconvergence import Reconvergence
from repro.forwarding.network_state import NetworkState
from repro.forwarding.packets import Packet
from repro.forwarding.router import Action
from repro.routing.reconvergence import ReconvergenceModel


class TestConvergedTables:
    """The converged end state is the Reconvergence scheme's routing."""

    def test_routes_avoid_failed_links(self, abilene_graph):
        edge = abilene_graph.edge_ids_between("Denver", "KansasCity")[0]
        state = NetworkState(abilene_graph, [edge])
        logic = Reconvergence(abilene_graph).build_logic(state)
        forwarded = 0
        for node in abilene_graph.nodes():
            for destination in abilene_graph.nodes():
                if node == destination:
                    continue
                decision = logic.decide(node, None, Packet(node, destination), state)
                if decision.action is Action.FORWARD:
                    forwarded += 1
                    assert decision.egress.edge_id != edge
        assert forwarded > 0

    def test_costs_never_improve_after_failure(self, abilene_graph, abilene_tables):
        edge = abilene_graph.edge_ids_between("Chicago", "NewYork")[0]
        outcomes = Reconvergence(abilene_graph).deliver_many(
            [(node, "NewYork") for node in abilene_graph.nodes() if node != "NewYork"],
            failed_links=[edge],
        )
        for (node, destination), outcome in outcomes.items():
            assert outcome.delivered
            assert outcome.cost >= abilene_tables.cost(node, destination) - 1e-9


class TestReconvergenceModel:
    def test_timeline_ordering(self, abilene_graph):
        model = ReconvergenceModel()
        edge = abilene_graph.edge_ids_between("Denver", "KansasCity")[0]
        timeline = model.convergence_delay(abilene_graph, edge, failure_time=1.0)
        assert timeline.failure_time == 1.0
        assert timeline.detection_time > timeline.failure_time
        assert timeline.converged_time >= timeline.detection_time

    def test_adjacent_routers_converge_first(self, abilene_graph):
        model = ReconvergenceModel()
        edge_id = abilene_graph.edge_ids_between("Denver", "KansasCity")[0]
        timeline = model.convergence_delay(abilene_graph, edge_id)
        assert timeline.updated_at["Denver"] <= timeline.updated_at["Seattle"]
        assert timeline.updated_at["KansasCity"] <= timeline.updated_at["NewYork"]

    def test_network_convergence_time_positive_and_subsecond_default(self, abilene_graph):
        model = ReconvergenceModel()
        edge_id = abilene_graph.edge_ids_between("Atlanta", "Washington")[0]
        total = model.network_convergence_time(abilene_graph, edge_id)
        assert 0.5 < total < 2.0

    def test_blackhole_duration(self, abilene_graph):
        model = ReconvergenceModel()
        edge_id = abilene_graph.edge_ids_between("Atlanta", "Washington")[0]
        timeline = model.convergence_delay(abilene_graph, edge_id)
        assert timeline.blackhole_duration("Atlanta") > 0.0
