"""Tests for the packet-level discrete-event simulator."""

import pytest

from repro.baselines.noprotection import NoProtection
from repro.baselines.reconvergence import Reconvergence
from repro.forwarding.network_state import NetworkState
from repro.routing.reconvergence import ReconvergenceModel
from repro.simulator.des import PacketLevelSimulator, estimate_packets_lost
from repro.simulator.flows import TrafficFlow
from repro.simulator.forwarders import SchemeForwarder
from repro.simulator.links import LinkModel


def _edge(graph, u, v):
    return graph.edge_ids_between(u, v)[0]


def _stale(graph, state):
    """The NoProtection logic: stale tables, drop at the failed link."""
    return NoProtection(graph).build_logic(state)


def _no_protection(graph, state):
    stale = _stale(graph, state)
    return SchemeForwarder("no-protection", state, stale, stale)


class TestFailureFreeSimulation:
    def test_all_packets_delivered(self, abilene_graph):
        state = NetworkState(abilene_graph)
        simulator = PacketLevelSimulator(abilene_graph, _no_protection(abilene_graph, state))
        simulator.add_flow(TrafficFlow("Seattle", "Washington", rate_pps=200.0, end=0.5))
        report = simulator.run()
        assert report.packets_sent == 100
        assert report.packets_delivered == 100
        assert report.packets_dropped == 0
        assert report.loss_fraction == 0.0

    def test_packets_sent_matches_flow_total_packets(self, abilene_graph):
        state = NetworkState(abilene_graph)
        simulator = PacketLevelSimulator(abilene_graph, _no_protection(abilene_graph, state))
        flow = TrafficFlow("Seattle", "Washington", rate_pps=1.0, end=1.5)
        simulator.add_flow(flow)
        assert simulator.run().packets_sent == flow.total_packets == 2

    def test_latency_accounts_for_propagation(self, abilene_graph, abilene_tables):
        state = NetworkState(abilene_graph)
        link = LinkModel(propagation_delay_s=0.01)
        simulator = PacketLevelSimulator(
            abilene_graph, _no_protection(abilene_graph, state), link
        )
        simulator.add_flow(TrafficFlow("Seattle", "Denver", rate_pps=10.0, end=0.2))
        report = simulator.run()
        hops = abilene_tables.hops("Seattle", "Denver")
        assert report.mean_latency == pytest.approx(hops * 0.01, rel=0.05)
        assert report.mean_hops == pytest.approx(hops)


class TestFailureSimulation:
    def test_static_forwarder_loses_affected_traffic(self, abilene_graph):
        failed = _edge(abilene_graph, "Denver", "KansasCity")
        state = NetworkState(abilene_graph, [failed])
        simulator = PacketLevelSimulator(abilene_graph, _no_protection(abilene_graph, state))
        simulator.add_flow(TrafficFlow("Seattle", "KansasCity", rate_pps=100.0, end=1.0))
        report = simulator.run()
        assert report.packets_dropped == report.packets_sent

    def test_convergence_aware_forwarder_recovers_after_updates(self, abilene_graph):
        failed = _edge(abilene_graph, "Denver", "KansasCity")
        state = NetworkState(abilene_graph, [failed])
        timeline = ReconvergenceModel().convergence_delay(abilene_graph, failed, failure_time=0.0)
        forwarder = SchemeForwarder(
            "re-convergence",
            state,
            _stale(abilene_graph, state),
            Reconvergence(abilene_graph).build_logic(state),
            timeline.updated_at,
        )
        simulator = PacketLevelSimulator(abilene_graph, forwarder)
        simulator.add_flow(TrafficFlow("Seattle", "KansasCity", rate_pps=100.0, end=2.0))
        report = simulator.run()
        assert 0 < report.packets_dropped < report.packets_sent
        # Losses stop once the network has converged.
        assert max(report.drop_times) <= timeline.converged_time + 0.1

    def test_pr_forwarder_loses_nothing_after_detection(self, abilene_graph, abilene_pr):
        failed = _edge(abilene_graph, "Denver", "KansasCity")
        state = NetworkState(abilene_graph, [failed])
        forwarder = SchemeForwarder(
            "pr", state, _stale(abilene_graph, state), abilene_pr.build_logic(state), 0.0
        )
        simulator = PacketLevelSimulator(abilene_graph, forwarder)
        simulator.add_flow(TrafficFlow("Seattle", "KansasCity", rate_pps=100.0, end=1.0))
        report = simulator.run()
        assert report.packets_dropped == 0
        assert report.packets_delivered == report.packets_sent

    def test_pr_loss_limited_to_detection_window(self, abilene_graph, abilene_pr):
        failed = _edge(abilene_graph, "Denver", "KansasCity")
        state = NetworkState(abilene_graph, [failed])
        forwarder = SchemeForwarder(
            "pr", state, _stale(abilene_graph, state), abilene_pr.build_logic(state), 0.05
        )
        simulator = PacketLevelSimulator(abilene_graph, forwarder)
        simulator.add_flow(TrafficFlow("Denver", "KansasCity", rate_pps=100.0, end=1.0))
        report = simulator.run()
        assert report.packets_dropped <= 0.05 * 100 + 1
        assert report.packets_dropped < report.packets_sent


class TestEstimatePacketsLost:
    def test_paper_quarter_million_claim(self):
        """OC-192 at ~25% load, one second, 1 kB packets: >250k packets."""
        lost = estimate_packets_lost(9.95328e9, utilization=0.25, outage_seconds=1.0)
        assert lost > 250_000

    def test_full_load_is_about_1_24_million(self):
        lost = estimate_packets_lost(9.95328e9, utilization=1.0, outage_seconds=1.0)
        assert lost == pytest.approx(1.244e6, rel=0.01)

    def test_invalid_utilization_rejected(self):
        with pytest.raises(Exception):
            estimate_packets_lost(1e9, utilization=1.5, outage_seconds=1.0)


class TestSchemeForwarder:
    def test_switch_instants(self, abilene_graph):
        state = NetworkState(abilene_graph)
        logic = _stale(abilene_graph, state)
        per_router = SchemeForwarder("x", state, logic, logic, {"Seattle": 1.5})
        assert per_router.switch_time("Seattle") == 1.5
        # A router missing from the map runs the after logic from time zero.
        assert per_router.switch_time("Denver") == 0.0
        assert SchemeForwarder("x", state, logic, logic, 0.3).switch_time("Denver") == 0.3
