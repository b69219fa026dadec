"""Evaluation metrics: path stretch, CCDFs and overhead accounting.

Section 6 defines "the stretch of a path as the ratio between the total path
cost while cycle following and the path cost of the normal shortest path" and
plots its complementary CDF; it also compares the schemes on packet-header
overhead, router memory and per-failure computation.  This package computes
all of those quantities from forwarding outcomes.  Stretch samples and repair
coverage come from one measurement pass,
:func:`~repro.metrics.stretch.measure_context`, shared by campaign cells and
the library experiments.
"""

from repro.metrics.stretch import StretchSample, measure_context, scenario_context
from repro.metrics.ccdf import ccdf, ccdf_curve, distribution_summary, percentile
from repro.metrics.overhead import OverheadRow, overhead_comparison, render_overhead_table

__all__ = [
    "StretchSample",
    "measure_context",
    "scenario_context",
    "ccdf",
    "ccdf_curve",
    "distribution_summary",
    "percentile",
    "OverheadRow",
    "overhead_comparison",
    "render_overhead_table",
]
