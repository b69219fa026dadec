"""The Figure 2 stretch experiments.

Each panel of Figure 2 is one call to :func:`figure2_panel`: pick the
topology, generate the failure scenarios (every single link failure for the
top row; sampled non-disconnecting 4/10/16-link combinations for the bottom
row), select the (source, destination) pairs whose failure-free shortest path
is affected and which remain connected, run Re-convergence, FCP and PR on
exactly the same (scenario, pair) workload, and report the stretch CCDF
``P(Stretch > x | path)`` for x = 1..15.

The conditioning and the delivery pass are the campaign runner's
(:mod:`repro.metrics.stretch`), so a panel computed here and the same panel
rebuilt from campaign records
(:func:`repro.runner.aggregate.stretch_result_from_records`) agree exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines.fcp import FailureCarryingPackets
from repro.baselines.reconvergence import Reconvergence
from repro.core.scheme import PacketRecycling
from repro.errors import ExperimentError
from repro.failures.sampling import sample_multi_link_failures
from repro.failures.scenarios import FailureScenario, single_link_failures
from repro.forwarding.scheme import ForwardingScheme
from repro.graph.multigraph import Graph
from repro.metrics.ccdf import ccdf_curve, default_stretch_thresholds, distribution_summary
from repro.metrics.stretch import (
    StretchSample,
    measure_context,
    samples_from_rows,
    scenario_context,
    stretch_values,
)
from repro.topologies.corpus import parse_topology_spec

#: Figure 2 panel definitions: (paper label, topology name, failures per scenario).
FIGURE2_PANELS: Dict[str, Tuple[str, int]] = {
    "2a": ("abilene", 1),
    "2b": ("teleglobe", 1),
    "2c": ("geant", 1),
    "2d": ("abilene", 4),
    "2e": ("teleglobe", 10),
    "2f": ("geant", 16),
}


#: Accepted panel spellings: "2a", "fig2a", "figure2a" (case-insensitive,
#: surrounding whitespace ignored).  An explicit pattern rather than
#: ``lstrip``-chains: ``lstrip("fig")`` strips *characters*, not a prefix,
#: and happily mangles labels like "gif2a" into accidental matches.
_PANEL_PATTERN = re.compile(r"^(?:fig(?:ure)?)?\s*(2[a-f])$", re.IGNORECASE)


def resolve_figure2_panel(panel: str) -> Tuple[str, int]:
    """Normalise a panel label ("2a", "fig2a", "figure2a", ...) to (topology, failures)."""
    match = _PANEL_PATTERN.match(panel.strip())
    if match is None:
        raise ExperimentError(
            f"unknown Figure 2 panel {panel!r}; expected one of {sorted(FIGURE2_PANELS)}"
        )
    return FIGURE2_PANELS[match.group(1).lower()]


@dataclass
class StretchExperimentResult:
    """Everything a Figure 2 panel reports."""

    topology: str
    failures_per_scenario: int
    scenarios: int
    measured_pairs: int
    samples: Dict[str, List[StretchSample]] = field(default_factory=dict)
    ccdf: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    summary: Dict[str, Dict[str, float]] = field(default_factory=dict)
    delivery_ratio: Dict[str, float] = field(default_factory=dict)

    def scheme_names(self) -> List[str]:
        """Scheme names in insertion (presentation) order."""
        return list(self.samples)

    def mean_stretch(self, scheme: str) -> float:
        """Mean stretch of the delivered packets of ``scheme``."""
        return self.summary.get(scheme, {}).get("mean", 0.0)

    def add_scheme(self, name: str, samples: List[StretchSample]) -> None:
        """Record one scheme's samples with their CCDF, summary and delivery ratio."""
        values = stretch_values(samples)
        self.samples[name] = samples
        self.ccdf[name] = ccdf_curve(values, default_stretch_thresholds())
        self.summary[name] = distribution_summary(values)
        delivered = sum(1 for sample in samples if sample.delivered)
        self.delivery_ratio[name] = delivered / len(samples) if samples else 1.0


def default_schemes(
    graph: Graph,
    embedding_seed: Optional[int] = 7,
    cache=None,
) -> List[ForwardingScheme]:
    """The three schemes compared in Figure 2, in the paper's legend order.

    ``cache`` is an optional :class:`repro.runner.cache.ArtifactCache` (any
    object with ``get_or_build``); when given, PR's offline-stage embedding
    is served from the content-addressed artifact cache instead of being
    recomputed, so repeated experiments on one topology embed it only once.
    """
    embedding = None
    if cache is not None:
        embedding = cache.get_or_build(graph, seed=embedding_seed)
    return [
        Reconvergence(graph),
        FailureCarryingPackets(graph),
        PacketRecycling(graph, embedding=embedding, embedding_seed=embedding_seed),
    ]


def run_stretch_experiment(
    graph: Graph,
    scenarios: Sequence[FailureScenario],
    schemes: Optional[Sequence[ForwardingScheme]] = None,
) -> StretchExperimentResult:
    """Run the stretch comparison on an explicit list of scenarios.

    Every scheme is measured by the campaign cell's pass
    (:func:`~repro.metrics.stretch.measure_context`) over one shared
    scenario context, so ``measured_pairs`` counts one pair per (scenario,
    affected pair), repeated scenarios included, exactly as a campaign
    cell's payload does.
    """
    if not scenarios:
        raise ExperimentError("at least one failure scenario is required")
    if schemes is None:
        schemes = default_schemes(graph)

    context = scenario_context(graph, [scenario.failed_links for scenario in scenarios])
    result = StretchExperimentResult(
        topology=graph.name,
        failures_per_scenario=len(scenarios[0].failed_links),
        scenarios=len(scenarios),
        measured_pairs=sum(len(affected) for _key, affected, _measured in context),
    )
    for scheme in schemes:
        fields, _values, _report = measure_context(scheme, context, record_samples=True)
        result.add_scheme(scheme.name, samples_from_rows(scheme.name, fields["samples"]))
    return result


def figure2_panel(
    panel: str,
    samples: int = 100,
    seed: int = 1,
    schemes: Optional[Sequence[ForwardingScheme]] = None,
    graph: Optional[Graph] = None,
    cache=None,
) -> StretchExperimentResult:
    """Regenerate one panel of Figure 2.

    ``panel`` is one of ``"2a"``–``"2f"``.  Single-failure panels enumerate
    every link failure; multi-failure panels draw ``samples`` random
    non-disconnecting combinations with the panel's failure count.
    ``cache`` (an artifact cache, see :func:`default_schemes`) reuses the
    topology's offline-stage embedding across panels and invocations.
    """
    topology_name, failures = resolve_figure2_panel(panel)
    if graph is None:
        graph = parse_topology_spec(topology_name).build()
    if failures == 1:
        scenarios = single_link_failures(graph, only_non_disconnecting=True)
    else:
        scenarios = sample_multi_link_failures(
            graph, failures=failures, samples=samples, seed=seed, require_connected=True
        )
        if not scenarios:
            raise ExperimentError(
                f"could not sample any non-disconnecting {failures}-failure scenario "
                f"on {topology_name}"
            )
    if schemes is None:
        schemes = default_schemes(graph, cache=cache)
    return run_stretch_experiment(graph, scenarios, schemes)
