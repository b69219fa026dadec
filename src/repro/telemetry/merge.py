"""Cross-worker telemetry merge and the queryable run manifest.

Every campaign cell record carries the telemetry snapshot of its own
execution under ``record["meta"]["telemetry"]`` (see
:func:`repro.runner.executor.run_cell`).  Because the snapshots ride inside
the records, they flow through the existing chunk-result envelopes from
worker processes to the parent, persist in the campaign store, and are
reused by resumed campaigns exactly like the payloads they accompany.

This module is the read side: it merges those per-cell snapshots — counter
addition is order-independent, span/distribution folds keep only commutative
aggregates, and all keys are emitted sorted — into a campaign **telemetry
manifest**, a JSON document kept in the campaign store's ``telemetry``
table (and written as a ``.telemetry.json`` file by ``repro migrate``).
The manifest's ``counters`` section is deterministic: serial, parallel and
(topology-aligned) resumed runs of the same campaign merge to byte-identical
counter totals, which is what lets the perf trajectory compare *why* numbers
moved across runs and machines.  Wall-clock sections (``spans``,
``slowest_cells``, ``run``) are measured, not deterministic, and are
excluded from :func:`deterministic_view`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.telemetry.collector import TelemetryCollector, merge_snapshots

#: Manifest schema identifier; bump when the document shape changes.
MANIFEST_SCHEMA = "repro-telemetry/v1"

#: Counters every campaign produces regardless of scheme mix — the CI smoke
#: validation requires them (see :func:`validate_manifest`).
REQUIRED_COUNTERS = (
    "engine/builds",
    "engine/hits",
    "engine/misses",
    "cells/executed",
)

#: Span prefixes of which at least one representative must appear in a
#: telemetry-enabled manifest.
REQUIRED_SPAN_PREFIXES = ("cell/", "delivery/")

Record = Dict[str, Any]


def record_snapshot(record: Record) -> Optional[Dict[str, Any]]:
    """The telemetry snapshot a record carries, or ``None`` (disabled run)."""
    meta = record.get("meta")
    if not isinstance(meta, dict):
        return None
    snapshot = meta.get("telemetry")
    return snapshot if isinstance(snapshot, dict) else None


def merge_records(records: Sequence[Record]) -> TelemetryCollector:
    """Merged collector over every snapshot-bearing record, in record order."""
    return merge_snapshots(
        snapshot for snapshot in map(record_snapshot, records) if snapshot is not None
    )


def _cell_phases(record: Record) -> Dict[str, float]:
    """Per-phase seconds of one cell, from its snapshot's span totals."""
    snapshot = record_snapshot(record)
    if snapshot is None:
        return {}
    return {
        path: entry["total_s"] for path, entry in snapshot.get("spans", {}).items()
    }


def slowest_cells(records: Sequence[Record], limit: int = 10) -> List[Dict[str, Any]]:
    """The ``limit`` slowest cells with their per-phase breakdowns.

    Sorted by measured ``meta.elapsed_s`` descending, ties broken by cell
    order so the table is stable for equal timings.
    """
    timed = [
        (float(record.get("meta", {}).get("elapsed_s", 0.0)), position, record)
        for position, record in enumerate(records)
    ]
    timed.sort(key=lambda item: (-item[0], item[1]))
    rows = []
    for elapsed, _position, record in timed[: max(0, limit)]:
        rows.append(
            {
                "cell_id": record.get("cell_id"),
                "topology": record.get("topology"),
                "scheme": record.get("scheme"),
                "scenario": record.get("scenario_family")
                or record.get("scenario", {}).get("kind"),
                "elapsed_s": elapsed,
                "phases": dict(sorted(_cell_phases(record).items())),
            }
        )
    return rows


def build_manifest(
    records: Sequence[Record],
    campaign: Optional[Dict[str, Any]] = None,
    run: Optional[Dict[str, Any]] = None,
    slowest: int = 10,
    extra_counters: Optional[Dict[str, int]] = None,
) -> Dict[str, Any]:
    """Assemble the campaign telemetry manifest from cell records.

    ``campaign`` holds run-independent identity (spec hash, cell count);
    ``run`` holds facts about this particular invocation (executed/skipped
    counts, worker count, wall time) and is deliberately outside the
    deterministic view — a resumed run reports different ``run`` facts while
    merging to the identical ``counters`` section.

    ``extra_counters`` carries run-level counters that no cell snapshot can
    hold — the executor's fault accounting (``faults/retries``,
    ``faults/pool_rebuilds``, ...) happens in the parent, outside any cell.
    Only **non-zero** entries are merged in, so a fault-free run's counters
    section is byte-identical whether or not the fault layer was armed.
    """
    merged = merge_records(records)
    with_snapshots = sum(1 for r in records if record_snapshot(r) is not None)
    counters: Dict[str, int] = dict(merged.counters)
    for name, value in (extra_counters or {}).items():
        if value:
            counters[name] = counters.get(name, 0) + value
    manifest: Dict[str, Any] = {
        "schema": MANIFEST_SCHEMA,
        "campaign": dict(sorted((campaign or {}).items())),
        "counters": {name: counters[name] for name in sorted(counters)},
        "spans": {
            path: {
                "count": entry[0],
                "total_s": entry[1],
                "mean_s": entry[1] / entry[0] if entry[0] else 0.0,
                "min_s": entry[2],
                "max_s": entry[3],
            }
            for path, entry in sorted(merged.spans.items())
        },
        "distributions": {
            name: merged.values[name].summary() for name in sorted(merged.values)
        },
        "slowest_cells": slowest_cells(records, slowest),
        "run": dict(sorted((run or {}).items())),
        "records": {"total": len(records), "with_telemetry": with_snapshots},
    }
    return manifest


def deterministic_view(manifest: Dict[str, Any]) -> Dict[str, Any]:
    """The portion of a manifest that is identical across equivalent runs.

    Covers the schema id, the campaign identity and the merged counters —
    everything wall-clock-derived (spans, distributions of timings, slowest
    cells, per-run facts) is excluded.  Serial, parallel and resumed runs of
    the same campaign from cold per-process caches serialize this view to
    identical bytes (asserted by ``tests/telemetry/test_manifest.py``).
    """
    return {
        "schema": manifest.get("schema"),
        "campaign": manifest.get("campaign", {}),
        "counters": manifest.get("counters", {}),
    }


def canonical_bytes(document: Dict[str, Any]) -> bytes:
    """Byte-stable serialization used by the determinism tests."""
    return json.dumps(document, sort_keys=True, separators=(",", ":")).encode("utf-8")


# ----------------------------------------------------------------------
# manifest files
# ----------------------------------------------------------------------
def write_manifest(manifest: Dict[str, Any], path: Union[str, Path]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def load_manifest(path: Union[str, Path]) -> Dict[str, Any]:
    return json.loads(Path(path).read_text())


# ----------------------------------------------------------------------
# schema validation (the CI smoke gate)
# ----------------------------------------------------------------------
def validate_manifest(manifest: Dict[str, Any]) -> List[str]:
    """Schema problems of a manifest; an empty list means it validates.

    Checks the invariants the CI smoke step gates on: the schema id, the
    presence of the always-produced counter keys, at least one span per
    required phase prefix, and non-negativity of every counter and span
    total.
    """
    problems: List[str] = []
    if manifest.get("schema") != MANIFEST_SCHEMA:
        problems.append(
            f"schema is {manifest.get('schema')!r}, expected {MANIFEST_SCHEMA!r}"
        )
    counters = manifest.get("counters")
    if not isinstance(counters, dict):
        problems.append("counters section missing or not a mapping")
        counters = {}
    for name in REQUIRED_COUNTERS:
        if name not in counters:
            problems.append(f"required counter {name!r} missing")
    for name, value in counters.items():
        if not isinstance(value, int) or value < 0:
            problems.append(f"counter {name!r} is not a non-negative integer: {value!r}")
    spans = manifest.get("spans")
    if not isinstance(spans, dict):
        problems.append("spans section missing or not a mapping")
        spans = {}
    for prefix in REQUIRED_SPAN_PREFIXES:
        if not any(path.startswith(prefix) for path in spans):
            problems.append(f"no span with required prefix {prefix!r}")
    for path, entry in spans.items():
        if not isinstance(entry, dict) or not {
            "count",
            "total_s",
            "min_s",
            "max_s",
        } <= set(entry):
            problems.append(f"span {path!r} missing required keys")
            continue
        if entry["count"] < 0 or entry["total_s"] < 0:
            problems.append(f"span {path!r} has negative totals")
    for section in ("campaign", "run"):
        if not isinstance(manifest.get(section), dict):
            problems.append(f"{section} section missing or not a mapping")
    return problems
