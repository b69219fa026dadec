"""Rendering the telemetry manifest for humans (``repro report``).

Three views, all plain-text tables so they compose with the rest of the CLI
output:

* **phase-time breakdown** — one row per span, with total/mean/max seconds
  and each span's share of the summed span time;
* **cache efficiency** — hit/miss/rate rows for every cache layer that
  reports counters (engine memo, incremental repair, artifact cache);
* **slowest cells** — the manifest's top-N cells with their dominant phase.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

#: ``(label, hit counter, miss counter)`` per cache layer, in display order.
#: Repair rows divide repair hits by the misses repair was attempted on.
_CACHE_LAYERS = (
    ("engine memo", "engine/hits", "engine/misses"),
    ("incremental repair", "engine/repair_hits", "engine/repair_fallbacks"),
    ("artifact cache", "artifact_cache/hits", "artifact_cache/misses"),
)


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    return f"{seconds * 1000.0:.1f}ms"


def phase_rows(manifest: Dict[str, Any]) -> List[List[str]]:
    """Span table rows: name, count, total, mean, max, share of span time."""
    spans = manifest.get("spans", {})
    grand_total = sum(entry["total_s"] for entry in spans.values()) or 1.0
    ordered = sorted(spans.items(), key=lambda item: -item[1]["total_s"])
    return [
        [
            path,
            str(entry["count"]),
            _format_seconds(entry["total_s"]),
            _format_seconds(entry["mean_s"]),
            _format_seconds(entry["max_s"]),
            f"{100.0 * entry['total_s'] / grand_total:.1f}%",
        ]
        for path, entry in ordered
    ]


def cache_rows(manifest: Dict[str, Any]) -> List[List[str]]:
    """Cache-efficiency rows for every layer with at least one event."""
    counters = manifest.get("counters", {})
    rows: List[List[str]] = []
    for label, hit_key, miss_key in _CACHE_LAYERS:
        hits = counters.get(hit_key, 0)
        misses = counters.get(miss_key, 0)
        total = hits + misses
        if not total:
            continue
        rows.append([label, str(hits), str(misses), f"{100.0 * hits / total:.1f}%"])
    write_bytes = counters.get("artifact_cache/write_bytes")
    if write_bytes:
        rows.append(["artifact cache writes", str(counters.get("artifact_cache/stores", 0)),
                     f"{write_bytes / 1024.0:.1f} KiB", "-"])
    return rows


def slowest_rows(
    manifest: Dict[str, Any], limit: Optional[int] = None
) -> List[List[str]]:
    """Slowest-cell rows: cell id, coordinates, elapsed, dominant phase."""
    cells = manifest.get("slowest_cells", [])
    if limit is not None:
        cells = cells[: max(0, limit)]
    rows: List[List[str]] = []
    for cell in cells:
        phases = cell.get("phases", {})
        if phases:
            dominant = max(phases.items(), key=lambda item: item[1])
            phase_text = f"{dominant[0]} ({_format_seconds(dominant[1])})"
        else:
            phase_text = "-"
        rows.append(
            [
                str(cell.get("cell_id", "-")),
                str(cell.get("topology", "-")),
                str(cell.get("scheme", "-")),
                str(cell.get("scenario", "-")),
                _format_seconds(float(cell.get("elapsed_s", 0.0))),
                phase_text,
            ]
        )
    return rows


def render_report(manifest: Dict[str, Any], slowest: int = 10) -> str:
    """The full ``repro report`` body for one manifest."""
    from repro.experiments.asciiplot import render_table

    campaign = manifest.get("campaign", {})
    run = manifest.get("run", {})
    records = manifest.get("records", {})
    lines: List[str] = []
    header = ", ".join(
        f"{key}={value}"
        for key, value in (
            ("spec", campaign.get("spec_hash")),
            ("cells", campaign.get("cells")),
            ("executed", run.get("executed")),
            ("skipped", run.get("skipped")),
            ("workers", run.get("workers")),
        )
        if value is not None
    )
    lines.append(f"campaign telemetry: {header or 'no campaign metadata'}")
    if records:
        lines.append(
            f"records: {records.get('total', 0)} total, "
            f"{records.get('with_telemetry', 0)} with telemetry"
        )
    phases = phase_rows(manifest)
    if phases:
        lines.append("")
        lines.append("=== phase-time breakdown ===")
        lines.append(
            render_table(["span", "count", "total", "mean", "max", "share"], phases)
        )
    caches = cache_rows(manifest)
    if caches:
        lines.append("")
        lines.append("=== cache efficiency ===")
        lines.append(render_table(["layer", "hits", "misses", "hit rate"], caches))
    slow = slowest_rows(manifest, slowest)
    if slow:
        lines.append("")
        lines.append(f"=== slowest cells (top {len(slow)}) ===")
        lines.append(
            render_table(
                ["cell", "topology", "scheme", "scenario", "elapsed", "dominant phase"],
                slow,
            )
        )
    if not (phases or caches or slow):
        lines.append("no telemetry recorded (run the sweep without --no-telemetry)")
    return "\n".join(lines)
