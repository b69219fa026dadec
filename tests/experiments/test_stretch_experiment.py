"""Tests for the Figure 2 experiment machinery."""

import pytest

from repro.errors import ExperimentError
from repro.experiments.stretch import (
    FIGURE2_PANELS,
    default_schemes,
    figure2_panel,
    resolve_figure2_panel,
    run_stretch_experiment,
)
from repro.failures.scenarios import single_link_failures


class TestPanelDefinitions:
    def test_all_six_panels_defined(self):
        assert set(FIGURE2_PANELS) == {"2a", "2b", "2c", "2d", "2e", "2f"}

    def test_panel_parameters_match_paper(self):
        assert FIGURE2_PANELS["2a"] == ("abilene", 1)
        assert FIGURE2_PANELS["2d"] == ("abilene", 4)
        assert FIGURE2_PANELS["2e"] == ("teleglobe", 10)
        assert FIGURE2_PANELS["2f"] == ("geant", 16)

    def test_unknown_panel_rejected(self):
        with pytest.raises(ExperimentError):
            figure2_panel("2z")

    @pytest.mark.parametrize("spelling", ["2a", "fig2a", "figure2a", "FIG2A", "Figure 2a", "  2a  "])
    def test_accepted_panel_spellings(self, spelling):
        assert resolve_figure2_panel(spelling) == ("abilene", 1)

    @pytest.mark.parametrize(
        "bad",
        [
            "",            # empty
            "2g",          # out of range
            "fig",         # prefix alone
            "figure",      # prefix alone
            "gif2a",       # lstrip("fig") would have mangled this into a match
            "ure2a",       # likewise for lstrip("ure")
            "fig2a2b",     # trailing junk
            "3a",          # wrong figure number
            "a2",          # reversed
        ],
    )
    def test_rejected_panel_spellings(self, bad):
        with pytest.raises(ExperimentError):
            resolve_figure2_panel(bad)


class TestDefaultSchemes:
    def test_legend_order_matches_paper(self, abilene_graph):
        names = [scheme.name for scheme in default_schemes(abilene_graph)]
        assert names == ["Re-convergence", "Failure-Carrying Packets", "Packet Re-cycling"]


class TestRunStretchExperiment:
    @pytest.fixture(scope="class")
    def abilene_result(self, abilene_graph, abilene_pr):
        from repro.baselines.fcp import FailureCarryingPackets
        from repro.baselines.reconvergence import Reconvergence

        schemes = [Reconvergence(abilene_graph), FailureCarryingPackets(abilene_graph), abilene_pr]
        scenarios = single_link_failures(abilene_graph)
        return run_stretch_experiment(abilene_graph, scenarios, schemes)

    def test_every_scheme_reported(self, abilene_result):
        assert set(abilene_result.scheme_names()) == {
            "Re-convergence",
            "Failure-Carrying Packets",
            "Packet Re-cycling",
        }

    def test_all_schemes_measured_on_identical_workload(self, abilene_result):
        sizes = {name: len(samples) for name, samples in abilene_result.samples.items()}
        assert len(set(sizes.values())) == 1
        assert abilene_result.measured_pairs == next(iter(sizes.values()))

    def test_full_delivery_for_all_three_schemes(self, abilene_result):
        assert all(ratio == 1.0 for ratio in abilene_result.delivery_ratio.values())

    def test_stretch_ordering_matches_paper(self, abilene_result):
        """Figure 2: re-convergence stretches least, PR most, FCP in between."""
        reconvergence = abilene_result.mean_stretch("Re-convergence")
        fcp = abilene_result.mean_stretch("Failure-Carrying Packets")
        pr = abilene_result.mean_stretch("Packet Re-cycling")
        assert reconvergence <= fcp + 1e-9
        assert fcp <= pr + 1e-9

    def test_reconvergence_is_lower_envelope_sample_by_sample(self, abilene_result):
        reconvergence = {
            (s.source, s.destination, s.failed_links): s.stretch
            for s in abilene_result.samples["Re-convergence"]
        }
        for sample in abilene_result.samples["Packet Re-cycling"]:
            key = (sample.source, sample.destination, sample.failed_links)
            assert reconvergence[key] <= sample.stretch + 1e-9

    def test_ccdf_starts_at_or_below_one_and_decreases(self, abilene_result):
        for curve in abilene_result.ccdf.values():
            probabilities = [p for _x, p in curve]
            assert all(0.0 <= p <= 1.0 for p in probabilities)
            assert probabilities == sorted(probabilities, reverse=True)

    def test_all_stretch_values_at_least_one(self, abilene_result):
        for samples in abilene_result.samples.values():
            assert all(s.stretch is None or s.stretch >= 1.0 - 1e-9 for s in samples)

    def test_empty_scenarios_rejected(self, abilene_graph):
        with pytest.raises(ExperimentError):
            run_stretch_experiment(abilene_graph, [])

    def test_repeated_scenario_counts_every_sample(self, abilene_graph, abilene_pr):
        """A scenario listed twice is measured twice, as a campaign cell does."""
        scenario = single_link_failures(abilene_graph)[0]
        result = run_stretch_experiment(abilene_graph, [scenario, scenario], [abilene_pr])
        samples = result.samples[abilene_pr.name]
        assert result.scenarios == 2
        assert result.measured_pairs == len(samples) > 0


class TestFigure2Panel:
    def test_panel_2a_runs_with_supplied_graph(self, abilene_graph, abilene_pr):
        from repro.baselines.reconvergence import Reconvergence

        result = figure2_panel("2a", graph=abilene_graph, schemes=[Reconvergence(abilene_graph), abilene_pr])
        assert result.scenarios == abilene_graph.number_of_edges()
        assert result.failures_per_scenario == 1

    def test_panel_2d_samples_multi_failures(self, abilene_graph, abilene_pr):
        result = figure2_panel("2d", samples=5, seed=1, graph=abilene_graph, schemes=[abilene_pr])
        assert result.failures_per_scenario == 4
        assert result.scenarios == 5

    def test_panel_name_normalisation(self, abilene_graph, abilene_pr):
        result = figure2_panel("fig2a", graph=abilene_graph, schemes=[abilene_pr])
        assert result.topology == "abilene"
