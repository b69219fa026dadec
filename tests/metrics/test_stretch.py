"""Tests for stretch measurement: the shared scenario context and measurement pass."""

import pytest

from repro.baselines.noprotection import NoProtection
from repro.experiments.stretch import run_stretch_experiment
from repro.failures.scenarios import single_link_failures
from repro.forwarding.engine import DeliveryStatus, ForwardingOutcome
from repro.graph.multigraph import Graph
from repro.graph.shortest_paths import dijkstra
from repro.metrics.stretch import (
    StretchSample,
    measure_context,
    scenario_context,
    stretch_values,
)
from repro.topologies.corpus import parse_topology_spec, topology_set


def _outcome(delivered: bool, cost: float) -> ForwardingOutcome:
    return ForwardingOutcome(
        source="a",
        destination="b",
        status=DeliveryStatus.DELIVERED if delivered else DeliveryStatus.DROPPED,
        path=["a", "b"],
        cost=cost,
        hops=1,
        drop_reason=None if delivered else "next-hop link failed",
    )


class _FixedOutcomes:
    """A scheme stand-in whose delivery pass answers with a prepared outcome."""

    name = "fixed"

    def __init__(self, outcome: ForwardingOutcome) -> None:
        graph = Graph("line")
        graph.add_edge("a", "b", 10.0)
        graph.add_edge("b", "c", 5.0)
        self.graph = graph
        self.outcome = outcome

    def deliver_many(self, pairs, failed_links=()):
        return {pair: self.outcome for pair in pairs}


def _measure_one(outcome: ForwardingOutcome, pair=("a", "b")):
    """The measurement pass over one scenario whose one affected pair is ``pair``."""
    affected = [pair]
    fields, _values, report = measure_context(
        _FixedOutcomes(outcome), [((0,), affected, affected)], record_samples=True
    )
    [row] = fields["samples"]
    return fields, report, row


class TestStretchOfOutcome:
    """The stretch of one outcome, as the measurement pass computes it."""

    def test_ratio_of_costs(self):
        fields, _report, row = _measure_one(_outcome(True, 30.0))
        assert row[3] == pytest.approx(3.0)
        assert row[7] == 10.0
        assert fields["n_stretch"] == 1

    def test_undelivered_has_no_stretch(self):
        fields, report, row = _measure_one(_outcome(False, 30.0))
        assert row[3] is None and row[4] is False
        assert fields["n_stretch"] == 0
        assert fields["delivered_samples"] == 0
        assert (report.attempts, report.dropped) == (1, 1)

    def test_zero_baseline_guarded(self):
        fields, report, row = _measure_one(_outcome(True, 30.0), pair=("a", "a"))
        assert row[7] == 0.0
        assert row[3] is None
        # No stretch, but the packet counts as delivered.
        assert fields["n_stretch"] == 0
        assert fields["delivered_samples"] == 1
        assert fields["delivery_ratio"] == 1.0
        assert report.full_coverage


class TestSampleHelpers:
    def _sample(self, stretch, delivered=True):
        return StretchSample(
            scheme="x", source="a", destination="b", failed_links=(0,),
            stretch=stretch, delivered=delivered, hops=1, cost=1.0, baseline_cost=1.0,
        )

    def test_values_ignore_losses(self):
        samples = [self._sample(2.0), self._sample(None, delivered=False)]
        assert stretch_values(samples) == [2.0]


class TestCollectSamples:
    """Samples of the library experiment, which runs the measurement pass."""

    def test_samples_on_abilene_single_failures(self, abilene_graph, abilene_pr):
        scenarios = single_link_failures(abilene_graph)[:3]
        result = run_stretch_experiment(abilene_graph, scenarios, [abilene_pr])
        samples = result.samples[abilene_pr.name]
        assert samples
        assert all(sample.delivered for sample in samples)
        assert all(sample.stretch >= 1.0 - 1e-9 for sample in samples)

    def test_baseline_cost_is_failure_free_cost(self, abilene_graph, abilene_pr, abilene_tables):
        scenarios = single_link_failures(abilene_graph)[:1]
        result = run_stretch_experiment(abilene_graph, scenarios, [abilene_pr])
        samples = result.samples[abilene_pr.name]
        assert samples
        for sample in samples:
            assert sample.baseline_cost == pytest.approx(
                abilene_tables.cost(sample.source, sample.destination)
            )


class TestScenarioContext:
    def test_repeated_scenarios_share_one_entry(self, abilene_graph):
        scenario = single_link_failures(abilene_graph)[0].failed_links
        first, second = scenario_context(abilene_graph, [scenario, scenario])
        assert first is second

    def test_affected_mode_measures_the_affected_pairs(self, abilene_graph):
        [(key, affected, measured)] = scenario_context(abilene_graph, [(3,)])
        assert key == (3,)
        assert measured is affected

    def test_node_failure_pairs_avoid_the_failed_router(self, abilene_graph):
        measured = 0
        for node in abilene_graph.nodes():
            failed = tuple(abilene_graph.incident_edge_ids(node))
            [(_key, affected, _measured)] = scenario_context(abilene_graph, [failed])
            assert all(node not in pair for pair in affected)
            measured += len(affected)
        assert measured > 0


@pytest.mark.parametrize("topology", ["abilene", "teleglobe", "geant"] + topology_set("all"))
def test_measurement_matches_independent_dijkstra(topology):
    """Baseline costs are failure-free distances and every attempt is accounted.

    An independent check of the measurement pass: each sample's baseline is
    the reference Dijkstra distance, delivered stretches are cost over that
    baseline, and in ``"full"`` coverage mode every ordered pair of every
    scenario is either attempted or skipped as unreachable.
    """
    graph = parse_topology_spec(topology).build()
    scenarios = [s.failed_links for s in single_link_failures(graph)]
    context = scenario_context(graph, scenarios, coverage="full")
    fields, values, report = measure_context(
        NoProtection(graph), context, record_samples=True
    )

    distances = {node: dijkstra(graph, node)[0] for node in graph.nodes()}
    rows = fields["samples"]
    assert len(rows) == fields["n_samples"] == fields["measured_pairs"]
    assert values == [row[3] for row in rows if row[3] is not None]
    for source, destination, _links, stretch, delivered, _hops, cost, baseline in rows:
        assert baseline == distances[destination][source]
        if delivered:
            assert stretch == cost / baseline
        else:
            assert stretch is None
    assert report.attempts == report.delivered + report.dropped + report.looped
    nodes = graph.number_of_nodes()
    assert report.attempts + report.unreachable_pairs_skipped == (
        len(scenarios) * nodes * (nodes - 1)
    )
