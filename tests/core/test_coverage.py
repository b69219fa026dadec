"""Coverage analysis: the paper's full-repair-coverage claim, measured."""

import pytest

from repro.baselines.noprotection import NoProtection
from repro.core.coverage import coverage_report, reachable_pairs
from repro.core.scheme import PacketRecycling, SimplePacketRecycling
from repro.failures.sampling import all_multi_link_failures, sample_multi_link_failures
from repro.failures.scenarios import single_link_failures
from repro.topologies.corpus import parse_topology_spec, topology_set
from repro.topologies.generators import grid_graph, random_planar_graph, ring_graph


class TestReachablePairs:
    def test_all_pairs_when_no_failures(self, abilene_graph):
        pairs = reachable_pairs(abilene_graph, [])
        nodes = abilene_graph.number_of_nodes()
        assert len(pairs) == nodes * (nodes - 1)

    def test_disconnected_pairs_removed(self):
        ring = ring_graph(4)
        pairs = reachable_pairs(ring, [0, 2])  # two opposite links: splits the ring
        assert all(
            (source, destination) not in pairs
            for source in ("n0",)
            for destination in ("n2",)
        ) or len(pairs) < 12


class TestSingleFailureCoverage:
    def test_pr_full_coverage_on_abilene(self, abilene_pr):
        scenarios = [s.failed_links for s in single_link_failures(abilene_pr.graph)]
        report = coverage_report(abilene_pr, scenarios)
        assert report.full_coverage
        assert report.looped == 0

    def test_simple_pr_full_single_failure_coverage_on_2_connected_graphs(self):
        grid = grid_graph(3, 3)
        scheme = SimplePacketRecycling(grid)
        scenarios = [s.failed_links for s in single_link_failures(grid, only_non_disconnecting=True)]
        report = coverage_report(scheme, scenarios)
        assert report.full_coverage

    def test_no_protection_loses_packets(self, abilene_graph):
        scheme = NoProtection(abilene_graph)
        scenarios = [s.failed_links for s in single_link_failures(abilene_graph)]
        report = coverage_report(scheme, scenarios)
        assert not report.full_coverage
        assert report.dropped > 0
        assert "next-hop link failed" in report.drop_reasons


@pytest.mark.parametrize("topology", topology_set("all"))
def test_pr_full_single_failure_coverage_on_every_corpus_member(topology):
    """Section 4: every single link failure that leaves the network connected
    is repaired -- no packet is dropped or loops -- on each corpus member,
    with the seed-0 embedding that campaigns and ``repro serve`` use."""
    graph = parse_topology_spec(topology).build()
    scheme = PacketRecycling(graph, embedding_seed=0)
    scenarios = [
        s.failed_links for s in single_link_failures(graph, only_non_disconnecting=True)
    ]
    report = coverage_report(scheme, scenarios)
    assert report.full_coverage, report.summary()
    assert report.looped == 0
    assert report.dropped == 0


class TestMultiFailureCoverage:
    def test_pr_covers_all_dual_failures_on_abilene(self, abilene_pr):
        scenarios = [
            s.failed_links
            for s in all_multi_link_failures(abilene_pr.graph, 2, require_connected=True)
        ]
        report = coverage_report(abilene_pr, scenarios)
        assert report.full_coverage

    def test_pr_covers_sampled_four_failures_on_planar_graph(self):
        graph = random_planar_graph(4, 4, extra_diagonals=3, seed=2)
        scheme = PacketRecycling(graph)
        scenarios = [
            s.failed_links
            for s in sample_multi_link_failures(graph, failures=4, samples=15, seed=3)
        ]
        report = coverage_report(scheme, scenarios)
        assert report.full_coverage

    def test_report_summary_format(self, abilene_pr):
        scenarios = [s.failed_links for s in single_link_failures(abilene_pr.graph)][:3]
        report = coverage_report(abilene_pr, scenarios)
        summary = report.summary()
        assert "delivered" in summary and "%" in summary
