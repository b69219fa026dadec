"""Experiment runners that regenerate the paper's tables and figures.

Every panel of Figure 2, the Table 1 example, the Section 6 overhead
discussion and the introduction's convergence-loss estimate have a runner in
this package; the benchmark suite under ``benchmarks/`` calls these runners
and prints the regenerated rows/series.  Two ablations not present in the
paper (embedding quality vs. stretch, and the choice of distance
discriminator) are included because the paper's Section 7 calls them out as
the relevant trade-offs.

The stretch, ablation and node-failure runners measure through the campaign
cell's pass (:func:`repro.metrics.stretch.scenario_context` and
:func:`repro.metrics.stretch.measure_context`), so a library result and a
campaign record of the same workload carry the same numbers.
"""

from repro.experiments.stretch import (
    FIGURE2_PANELS,
    StretchExperimentResult,
    default_schemes,
    figure2_panel,
    run_stretch_experiment,
)
from repro.experiments.overhead import overhead_experiment
from repro.experiments.convergence import ConvergenceLossResult, convergence_loss_experiment
from repro.experiments.ablation import dd_kind_ablation, embedding_quality_ablation
from repro.experiments.nodefail import NodeFailureResult, node_failure_experiment
from repro.experiments.flapping import FLAP_PROCESSES, FlappingRow, flapping_experiment
from repro.experiments.asciiplot import render_ccdf_plot, render_table

__all__ = [
    "FIGURE2_PANELS",
    "StretchExperimentResult",
    "default_schemes",
    "figure2_panel",
    "run_stretch_experiment",
    "overhead_experiment",
    "ConvergenceLossResult",
    "convergence_loss_experiment",
    "dd_kind_ablation",
    "embedding_quality_ablation",
    "NodeFailureResult",
    "node_failure_experiment",
    "FLAP_PROCESSES",
    "FlappingRow",
    "flapping_experiment",
    "render_ccdf_plot",
    "render_table",
]
