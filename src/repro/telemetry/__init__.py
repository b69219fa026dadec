"""Campaign telemetry: spans, counters, distributions, cross-worker merge.

A lightweight, stdlib-only instrumentation layer with three parts:

* :mod:`repro.telemetry.collector` — the write side: a per-process (or
  per-cell) :class:`TelemetryCollector` fed through the module-level
  :func:`span` / :func:`count` / :func:`record_value` primitives, with a
  near-zero disabled fast path;
* :mod:`repro.telemetry.merge` — the read side: deterministic merging of
  per-cell snapshots into the campaign telemetry manifest (stored in the
  campaign store's ``telemetry`` table), plus schema validation for CI;
* :mod:`repro.telemetry.report` — plain-text rendering for ``repro report``
  and the sweep ``--slowest`` table.

See the README's "Observability" section for the manifest schema and the
counter glossary.
"""

from repro.telemetry.collector import (
    RESERVOIR_SIZE,
    Distribution,
    TelemetryCollector,
    active_collector,
    collector_scope,
    count,
    counters_with_prefix,
    enabled,
    merge_snapshots,
    record_value,
    set_enabled,
    span,
)
from repro.telemetry.merge import (
    MANIFEST_SCHEMA,
    build_manifest,
    canonical_bytes,
    deterministic_view,
    load_manifest,
    merge_records,
    record_snapshot,
    slowest_cells,
    validate_manifest,
    write_manifest,
)
from repro.telemetry.report import render_report

__all__ = [
    "Distribution",
    "MANIFEST_SCHEMA",
    "RESERVOIR_SIZE",
    "TelemetryCollector",
    "active_collector",
    "build_manifest",
    "canonical_bytes",
    "collector_scope",
    "count",
    "counters_with_prefix",
    "deterministic_view",
    "enabled",
    "load_manifest",
    "merge_records",
    "merge_snapshots",
    "record_snapshot",
    "record_value",
    "render_report",
    "set_enabled",
    "slowest_cells",
    "span",
    "validate_manifest",
    "write_manifest",
]
