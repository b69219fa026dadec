"""Tests for the convergence-loss experiment (the paper's motivation, X2)."""

import random

import pytest

from repro.experiments.convergence import convergence_behaviours, convergence_loss_experiment
from repro.routing.reconvergence import ReconvergenceModel
from repro.routing.tables import RoutingTables
from repro.simulator.des import PacketLevelSimulator
from repro.simulator.flows import TrafficFlow
from repro.simulator.links import LinkModel
from repro.topologies.corpus import build_topology


@pytest.fixture(scope="module")
def result(request):
    abilene_pr = request.getfixturevalue("abilene_pr")
    return convergence_loss_experiment(
        abilene_pr.graph,
        source="Seattle",
        destination="KansasCity",
        rate_pps=500.0,
        duration=1.5,
        failure_time=0.2,
    )


class TestConvergenceLoss:
    def test_all_three_behaviours_reported(self, result):
        assert set(result.reports) == {"no-protection", "re-convergence", "Packet Re-cycling"}

    def test_loss_ordering(self, result):
        assert result.loss_fraction("Packet Re-cycling") <= result.loss_fraction("re-convergence")
        assert result.loss_fraction("re-convergence") <= result.loss_fraction("no-protection")

    def test_reconvergence_loses_packets_but_not_all(self, result):
        assert 0.0 < result.loss_fraction("re-convergence") < 1.0

    def test_pr_loses_essentially_nothing(self, result):
        # Only packets already in flight during the detection window can be lost.
        assert result.loss_fraction("Packet Re-cycling") < 0.05

    def test_extrapolation_is_paper_scale(self, result):
        # At OC-192 rates the sub-second convergence episode still costs on
        # the order of 10^5 packets (the paper's quarter-million figure is for
        # a full one-second outage, pinned separately in the simulator tests).
        assert result.extrapolated_losses["re-convergence"] > 100_000
        assert (
            result.extrapolated_losses["Packet Re-cycling"]
            < 0.2 * result.extrapolated_losses["re-convergence"]
        )

    def test_convergence_time_is_subsecond_but_positive(self, result):
        assert 0.1 < result.convergence_time < 2.0

    def test_no_protection_mean_latency_is_the_failure_free_path_latency(
        self, result, abilene_tables
    ):
        # Only the packets sent before the failure get through, each over
        # the intact shortest path with no queueing at this rate.
        link = LinkModel()
        hops = abilene_tables.hops("Seattle", "KansasCity")
        per_hop = link.propagation_delay_s + link.serialization_delay(1000)
        report = result.reports["no-protection"]
        assert report.packets_delivered > 0
        assert report.mean_latency == pytest.approx(hops * per_hop, rel=1e-9)
        assert report.mean_hops == hops


def _ticks(first, count, interval=0.05):
    return [first + k * interval for k in range(count)]


#: Results of ``convergence_loss_experiment(graph, source, destination,
#: rate_pps=20.0, duration=1.5)``: failed link, convergence time,
#: extrapolated losses and, per behaviour, (sent, delivered, dropped,
#: drop times).  Drops start when the first post-failure packet reaches the
#: dead link and recur every emission interval.
GOLDEN = {
    ("abilene", "Seattle", "KansasCity"): (
        ("Seattle", "Denver"),
        0.7,
        {"no-protection": 404352.0, "re-convergence": 217728.0, "Packet Re-cycling": 15552.0},
        {
            "no-protection": (30, 4, 26, _ticks(0.2, 26)),
            "re-convergence": (30, 16, 14, _ticks(0.2, 14)),
            "Packet Re-cycling": (30, 29, 1, [0.2]),
        },
    ),
    ("geant", "PT", "FI"): (
        ("DE", "FR"),
        0.7,
        {"no-protection": 404352.0, "re-convergence": 217728.0, "Packet Re-cycling": 15552.0},
        {
            "no-protection": (30, 4, 26, _ticks(0.2100016, 26)),
            "re-convergence": (30, 17, 13, _ticks(0.2100016, 13)),
            "Packet Re-cycling": (30, 29, 1, [0.2100016]),
        },
    ),
    ("teleglobe", "Seattle", "London"): (
        ("NewYork", "Chicago"),
        0.71,
        {"no-protection": 404352.0, "re-convergence": 220838.4, "Packet Re-cycling": 15552.0},
        {
            "no-protection": (30, 4, 26, _ticks(0.2050008, 26)),
            "re-convergence": (30, 16, 14, _ticks(0.2050008, 14)),
            "Packet Re-cycling": (30, 29, 1, [0.2050008]),
        },
    ),
}


@pytest.mark.parametrize("flow", sorted(GOLDEN), ids="-".join)
def test_golden_results(flow):
    topology, source, destination = flow
    failed_link, convergence_time, extrapolated, reports = GOLDEN[flow]
    result = convergence_loss_experiment(
        build_topology(topology), source, destination, rate_pps=20.0, duration=1.5
    )
    assert result.failed_link == failed_link
    assert result.convergence_time == pytest.approx(convergence_time, abs=1e-12)
    assert result.extrapolated_losses == pytest.approx(extrapolated, rel=1e-12)
    assert list(result.reports) == list(reports)
    for name, (sent, delivered, dropped, drop_times) in reports.items():
        report = result.reports[name]
        counts = (report.packets_sent, report.packets_delivered, report.packets_dropped)
        assert counts == (sent, delivered, dropped), name
        assert report.drop_times == pytest.approx(drop_times, abs=1e-12), name


def _oracle_cases(topology):
    """(graph, flows, failed links): links on the flows' paths and elsewhere."""
    graph = build_topology(topology)
    rng = random.Random(f"convergence-oracle-{topology}")
    nodes = sorted(graph.nodes())
    flows = [tuple(rng.sample(nodes, 2)) for _ in range(3)]
    tables = RoutingTables(graph)
    on_paths = sorted(
        {tables.entry(source, destination).egress.edge_id for source, destination in flows}
    )
    return graph, flows, on_paths + rng.sample(graph.edge_ids(), 2)


def _seconds_across_link(graph, tables, source, destination, failed):
    """Seconds from emission until a packet reaches the far end of ``failed``.

    ``None`` if the packet's path does not cross it.
    """
    link = LinkModel()
    elapsed = 0.0
    for node in tables.shortest_path(source, destination)[:-1]:
        edge_id = tables.entry(node, destination).egress.edge_id
        elapsed += link.serialization_delay(1000) + link.propagation_delay(graph.weight(edge_id))
        if edge_id == failed:
            return elapsed
    return None


@pytest.mark.parametrize("topology", ["abilene", "geant", "teleglobe"])
def test_no_protection_drops_exactly_the_flows_crossing_the_failure(topology):
    graph, flows, failed_links = _oracle_cases(topology)
    tables = RoutingTables(graph)
    for failed in failed_links:
        for source, destination in flows:
            result = convergence_loss_experiment(
                graph, source, destination, failed_edge=failed,
                rate_pps=100.0, duration=1.0, failure_time=0.2,
            )
            report = result.reports["no-protection"]
            across = _seconds_across_link(graph, tables, source, destination, failed)
            emissions = TrafficFlow(source, destination, 100.0, 1000, 0.0, 1.0).emission_times()
            # Lost: every packet that would leave the link at or after the
            # failure: those on it or upstream of it at the failure instant
            # and those emitted after.
            lost = 0 if across is None else sum(1 for t in emissions if t + across >= 0.2)
            assert report.packets_sent == 100
            assert report.packets_dropped == lost, (source, destination, failed)


def test_packet_upstream_at_the_failure_instant_is_lost_under_no_protection():
    """A packet emitted before the failure that meets the link at or after it is lost.

    PT -> FI on GEANT crosses the DE-FR link two hops (10.0016 ms) after
    the source, and each hop takes 5.0008 ms.  At 1,000 pps the packets
    emitted at 190-199 ms are still upstream when the link fails at 200 ms,
    so they meet the dead link.  Those emitted at 185-189 ms are on the
    link when it fails, and they are lost when they reach FR.
    """
    result = convergence_loss_experiment(
        build_topology("geant"), "PT", "FI", rate_pps=1000.0, duration=0.25, failure_time=0.2
    )
    assert result.failed_link == ("DE", "FR")
    hop = LinkModel().propagation_delay_s + LinkModel().serialization_delay(1000)
    reach = 2 * hop
    report = result.reports["no-protection"]
    assert report.packets_sent == 250
    early = sorted(t for t in report.drop_times if t < 0.2 + reach)
    on_link = [k / 1000 + reach + hop for k in range(185, 190)]
    upstream = [k / 1000 + reach for k in range(190, 200)]
    assert early == pytest.approx(sorted(on_link + upstream), abs=1e-12)
    assert report.packets_delivered == 185
    assert report.packets_dropped == 65


@pytest.mark.parametrize("topology", ["abilene", "geant", "teleglobe"])
def test_reconvergence_after_convergence_follows_the_failed_map_shortest_path(topology):
    graph, flows, failed_links = _oracle_cases(topology)
    model = ReconvergenceModel()
    for failed in failed_links:
        converged = RoutingTables(graph, excluded_edges=[failed])
        timeline = model.convergence_delay(graph, failed, failure_time=0.2)
        forwarder = convergence_behaviours(
            graph, failed, timeline.updated_at, timeline.detection_time
        )["re-convergence"]
        for source, destination in flows:
            simulator = PacketLevelSimulator(graph, forwarder)
            start = timeline.converged_time + 0.01
            simulator.add_flow(
                TrafficFlow(source, destination, rate_pps=100.0, start=start, end=start + 0.2)
            )
            report = simulator.run()
            context = (source, destination, failed)
            assert report.packets_delivered == report.packets_sent == 20, context
            assert report.mean_hops == converged.hops(source, destination), context
