"""Merging campaign cell records into the existing metrics shapes.

Cell records are deliberately flat JSON; these helpers lift them back into
the result types the rest of the codebase (benchmark drivers, CLI renderers,
``assert_paper_shape``) already understands:

* pooled stretch CCDF curves per scheme (:func:`merged_ccdf`) — exact
  pooling: each cell stores the count of stretch values behind its curve, so
  the merged ``P(Stretch > x)`` is the count-weighted average;
* a :class:`~repro.experiments.stretch.StretchExperimentResult` rebuilt from
  the per-sample rows (:func:`stretch_result_from_records`);
* :class:`~repro.core.coverage.CoverageReport` objects summed per
  (topology, scheme) (:func:`coverage_reports`);
* :class:`~repro.metrics.overhead.OverheadRow` tables per topology
  (:func:`overhead_rows`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ExperimentError
from repro.experiments.stretch import StretchExperimentResult
from repro.core.coverage import CoverageReport
from repro.metrics.ccdf import default_stretch_thresholds
from repro.metrics.overhead import OverheadRow
from repro.metrics.stretch import StretchSample, samples_from_rows
from repro.topologies.corpus import TOPOLOGY_FILE_SUFFIXES

Record = Dict[str, Any]


def records_for(
    records: Sequence[Record],
    topology: Optional[str] = None,
    scheme: Optional[str] = None,
) -> List[Record]:
    """Filter records by topology and/or scheme registry key."""
    selected = list(records)
    if topology is not None:
        selected = [r for r in selected if r["topology"] == topology]
    if scheme is not None:
        selected = [r for r in selected if r["scheme"] == scheme]
    return selected


def scenario_family(record: Record) -> str:
    """The scenario family a record belongs to.

    Built-in generators aggregate under their kind (``single-link``,
    ``multi-link``, ``node``); model cells aggregate under the model name, so
    every registered model contributes its own row to per-family output.

    New records carry the family directly (``ScenarioSpec.family`` stamped by
    the executor); records from older stores fall back to deriving it from
    the scenario payload.
    """
    family = record.get("scenario_family")
    if family:
        return family
    scenario = record["scenario"]
    if scenario.get("model"):
        return scenario["model"]
    if scenario["kind"] == "multi-link":
        return f'{scenario.get("failures", 1)}-link'
    return scenario["kind"]


def families_in(records: Sequence[Record]) -> List[str]:
    """Scenario families present in the records, in first-seen order."""
    seen: List[str] = []
    for record in records:
        family = scenario_family(record)
        if family not in seen:
            seen.append(family)
    return seen


def topologies_in(records: Sequence[Record]) -> List[str]:
    """Topologies present in the records, in first-seen order."""
    seen: List[str] = []
    for record in records:
        if record["topology"] not in seen:
            seen.append(record["topology"])
    return seen


def _scheme_labels(records: Sequence[Record]) -> List[str]:
    """Display label of every record's scheme, deciding the format once.

    When the set sweeps more than one discriminator kind, the discriminator
    is part of the label — otherwise cells that differ only in their DD
    function would silently pool under one name.  The check scans the whole
    record set once, not once per record.
    """
    multi = len({r.get("discriminator") for r in records}) > 1
    if not multi:
        return [record["scheme_name"] for record in records]
    return [
        f'{record["scheme_name"]} [{record.get("discriminator")}]'
        for record in records
    ]


def merged_ccdf(
    records: Sequence[Record], topology: Optional[str] = None
) -> Dict[str, List[Tuple[float, float]]]:
    """Pooled ``P(Stretch > x | path)`` per scheme across cells.

    Pooling is exact: every cell carries ``n_stretch`` (how many stretch
    values produced its curve), and the pooled probability at each threshold
    is the count-weighted average of the per-cell probabilities.
    """
    selected = records_for(records, topology)
    order: List[str] = []
    weights: Dict[str, int] = {}
    sums: Dict[str, Dict[float, float]] = {}
    for record, name in zip(selected, _scheme_labels(selected)):
        if name not in order:
            order.append(name)
        count = record["payload"]["n_stretch"]
        if count == 0:
            continue
        weights[name] = weights.get(name, 0) + count
        accumulator = sums.setdefault(name, {})
        for x, probability in record["payload"]["ccdf"]:
            accumulator[x] = accumulator.get(x, 0.0) + count * probability
    curves: Dict[str, List[Tuple[float, float]]] = {}
    for name in order:
        accumulator = sums.get(name)
        if accumulator is None:
            # A scheme that delivered nothing still belongs in the figure —
            # as an all-zero curve, not as a silently missing series.
            curves[name] = [(x, 0.0) for x in default_stretch_thresholds()]
            continue
        total = weights[name]
        curves[name] = [(x, accumulator[x] / total) for x in sorted(accumulator)]
    return curves


def _samples_from_record(record: Record, name: str) -> List[StretchSample]:
    rows = record["payload"].get("samples")
    if rows is None:
        raise ExperimentError(
            "records were produced with record_samples=False; per-sample "
            "reconstruction is not possible"
        )
    return samples_from_rows(name, rows)


def stretch_result_from_records(
    records: Sequence[Record], topology: Optional[str] = None
) -> StretchExperimentResult:
    """Rebuild a :class:`StretchExperimentResult` from cell records.

    Requires records produced with ``record_samples=True`` (the default).
    When cells of several scenario specs are present for the topology their
    samples are pooled and the scenario counts summed.
    """
    selected = records_for(records, topology)
    if topology is None:
        topologies = topologies_in(selected)
        if len(topologies) != 1:
            raise ExperimentError(
                f"records cover topologies {topologies!r}; pass topology= to select one"
            )
        topology = topologies[0]
    if not selected:
        raise ExperimentError(f"no records for topology {topology!r}")

    by_scheme: Dict[str, List[StretchSample]] = {}
    scenario_cells: Dict[Tuple[object, ...], Record] = {}
    for record, name in zip(selected, _scheme_labels(selected)):
        by_scheme.setdefault(name, []).extend(_samples_from_record(record, name))
        scenario_key = tuple(sorted(record["scenario"].items()))
        scenario_cells.setdefault(scenario_key, record)

    scenarios = sum(r["payload"]["scenarios"] for r in scenario_cells.values())
    measured_pairs = sum(r["payload"]["measured_pairs"] for r in scenario_cells.values())
    first = selected[0]
    result = StretchExperimentResult(
        topology=load_name(first),
        failures_per_scenario=first["payload"]["failures_per_scenario"],
        scenarios=scenarios,
        measured_pairs=measured_pairs,
    )
    for name, samples in by_scheme.items():
        result.add_scheme(name, samples)
    return result


def load_name(record: Record) -> str:
    """The display name of a record's topology.

    File paths reduce to their stem; corpus specs (which may contain dots
    inside parameter values, e.g. ``waxman:alpha=0.6,...``) pass through
    unchanged.
    """
    topology = record["topology"].replace("\\", "/").rsplit("/", 1)[-1]
    for suffix in TOPOLOGY_FILE_SUFFIXES:
        if topology.lower().endswith(suffix):
            return topology[: -len(suffix)]
    return topology


def coverage_reports(
    records: Sequence[Record],
) -> Dict[Tuple[str, str], CoverageReport]:
    """Summed :class:`CoverageReport` per (topology, scheme display name)."""
    reports: Dict[Tuple[str, str], CoverageReport] = {}
    for record, name in zip(records, _scheme_labels(records)):
        key = (record["topology"], name)
        report = reports.setdefault(key, CoverageReport(scheme=name))
        coverage = record["payload"]["coverage"]
        report.attempts += coverage["attempts"]
        report.delivered += coverage["delivered"]
        report.dropped += coverage["dropped"]
        report.looped += coverage["looped"]
        report.unreachable_pairs_skipped += coverage["unreachable_pairs_skipped"]
        for reason, count in coverage["drop_reasons"].items():
            report.drop_reasons[reason] = report.drop_reasons.get(reason, 0) + count
    return reports


def overhead_rows(records: Sequence[Record]) -> Dict[str, List[OverheadRow]]:
    """Per-topology overhead tables from the per-cell overhead figures.

    Overheads are properties of (topology, scheme), not of the scenario, so
    duplicate cells collapse to one row; rows keep first-seen scheme order.
    """
    tables: Dict[str, List[OverheadRow]] = {}
    seen: set = set()
    for record, name in zip(records, _scheme_labels(records)):
        key = (record["topology"], name)
        if key in seen:
            continue
        seen.add(key)
        payload = record["payload"]
        tables.setdefault(record["topology"], []).append(
            OverheadRow(
                scheme=name,
                header_bits=payload["header_bits"],
                header_bits_note=payload.get(
                    "header_bits_note", "measured by campaign runner"
                ),
                memory_entries=payload["memory_entries"],
                online_computation=payload.get("online_computation", 0),
            )
        )
    return tables


def _pooled_totals(
    selected: Sequence[Record], keys: Sequence[Tuple[object, ...]]
) -> Dict[Tuple[object, ...], Dict[str, float]]:
    """Accumulate poolable payload figures per grouping key (one per record)."""
    totals: Dict[Tuple[object, ...], Dict[str, float]] = {}
    for record, key in zip(selected, keys):
        payload = record["payload"]
        if key not in totals:
            totals[key] = {
                "scenarios": 0.0,
                "samples": 0.0,
                "delivered": 0.0,
                "stretch_sum": 0.0,
                "n_stretch": 0.0,
                "max": 0.0,
                "attempts": 0.0,
                "covered": 0.0,
            }
        entry = totals[key]
        entry["scenarios"] += payload["scenarios"]
        entry["samples"] += payload["n_samples"]
        entry["delivered"] += payload["delivered_samples"]
        entry["stretch_sum"] += payload["stretch_summary"]["mean"] * payload["n_stretch"]
        entry["n_stretch"] += payload["n_stretch"]
        entry["max"] = max(entry["max"], payload["stretch_summary"]["max"])
        entry["attempts"] += payload["coverage"]["attempts"]
        entry["covered"] += payload["coverage"]["delivered"]
    return totals


def _totals_columns(entry: Dict[str, float]) -> List[object]:
    """The rendered (delivery, mean, max, coverage) columns of one group."""
    delivery = entry["delivered"] / entry["samples"] if entry["samples"] else 1.0
    mean = entry["stretch_sum"] / entry["n_stretch"] if entry["n_stretch"] else 0.0
    coverage = entry["covered"] / entry["attempts"] if entry["attempts"] else 1.0
    return [
        f"{delivery:.3f}",
        f"{mean:.2f}",
        f"{entry['max']:.2f}",
        f"{100.0 * coverage:.2f}%",
    ]


def summary_rows(
    records: Sequence[Record], topology: Optional[str] = None
) -> List[List[object]]:
    """Per-scheme summary table rows (delivery, pooled mean/max stretch)."""
    selected = records_for(records, topology)
    keys = [(name,) for name in _scheme_labels(selected)]
    totals = _pooled_totals(selected, keys)
    return [
        [name] + _totals_columns(totals[(name,)])
        for (name,) in dict.fromkeys(keys)
    ]


def topology_summary_rows(records: Sequence[Record]) -> List[List[object]]:
    """Per-(topology, scheme) summary rows spanning a whole corpus sweep.

    The cross-topology companion of :func:`summary_rows`: one row per
    (topology, scheme display name) pair in first-seen order, so a campaign
    sharded over dozens of corpus topologies aggregates into one table in a
    single pass over the records instead of one :func:`records_for` scan per
    topology.
    """
    keys = [
        (record["topology"], name)
        for record, name in zip(records, _scheme_labels(records))
    ]
    totals = _pooled_totals(records, keys)
    rows: List[List[object]] = []
    for topology, name in dict.fromkeys(keys):
        entry = totals[(topology, name)]
        rows.append(
            [topology, name, f"{int(entry['scenarios'])}"]
            + _totals_columns(entry)
        )
    return rows


def family_summary_rows(
    records: Sequence[Record], topology: Optional[str] = None
) -> List[List[object]]:
    """Per-(scenario family, scheme) summary rows.

    A campaign sweeping several scenario generators — built-in kinds and
    registered models alike — gets one row per (family, scheme) pair, so the
    schemes can be compared *within* each failure regime instead of pooled
    across regimes with very different severities.
    """
    selected = records_for(records, topology)
    keys = [
        (scenario_family(record), name)
        for record, name in zip(selected, _scheme_labels(selected))
    ]
    totals = _pooled_totals(selected, keys)
    rows: List[List[object]] = []
    for family, name in dict.fromkeys(keys):
        entry = totals[(family, name)]
        rows.append(
            [family, name, f"{int(entry['scenarios'])}"]
            + _totals_columns(entry)
        )
    return rows
