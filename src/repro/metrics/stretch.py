"""Path-length stretch (the paper's Figure 2 metric) and the one pass that measures it.

"Consistently with prior work, we define the stretch of a path as the ratio
between the total path cost while cycle following and the path cost of the
normal shortest path."  The denominator is the failure-free shortest path
cost between the same pair; the numerator is the cost of whatever path the
scheme actually produced under the failure scenario.  Undelivered packets
have no stretch — they are reported separately as losses.

Every measurement in the package goes through two functions of this module:
campaign cells (:mod:`repro.runner.executor`), the library Figure 2
experiment (:func:`repro.experiments.stretch.run_stretch_experiment`),
:func:`repro.core.coverage.coverage_report` and the node-failure experiment.

* :func:`scenario_context` conditions a scenario list into
  ``(failed links, affected pairs, measured pairs)`` entries;
* :func:`measure_context` runs one scheme's delivery pass over those entries
  and derives both the stretch samples and the repair-coverage counts from
  the same outcomes.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.coverage import CoverageReport, reachable_pairs
from repro.forwarding.engine import DeliveryStatus
from repro.forwarding.scheme import ForwardingScheme
from repro.graph.multigraph import Graph
from repro.graph.spcache import engine_for


class StretchSample:
    """One (scheme, scenario, source, destination) stretch measurement.

    A plain slotted class rather than a frozen dataclass: a campaign creates
    (and the aggregation layer re-creates) one sample per measured packet,
    so construction cost matters at sweep scale.
    """

    __slots__ = (
        "scheme",
        "source",
        "destination",
        "failed_links",
        "stretch",
        "delivered",
        "hops",
        "cost",
        "baseline_cost",
    )

    def __init__(
        self,
        scheme: str,
        source: str,
        destination: str,
        failed_links: Tuple[int, ...],
        stretch: Optional[float],
        delivered: bool,
        hops: int,
        cost: float,
        baseline_cost: float,
    ) -> None:
        self.scheme = scheme
        self.source = source
        self.destination = destination
        self.failed_links = failed_links
        self.stretch = stretch
        self.delivered = delivered
        self.hops = hops
        self.cost = cost
        self.baseline_cost = baseline_cost

    def _key(self) -> tuple:
        return (
            self.scheme,
            self.source,
            self.destination,
            self.failed_links,
            self.stretch,
            self.delivered,
            self.hops,
            self.cost,
            self.baseline_cost,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StretchSample):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:  # pragma: no cover - trivial formatting
        return (
            f"StretchSample({self.scheme}: {self.source}->{self.destination}, "
            f"stretch={self.stretch}, delivered={self.delivered})"
        )


Pair = Tuple[str, str]
#: One :func:`scenario_context` entry: (sorted failed links, affected pairs,
#: measured pairs).
ScenarioEntry = Tuple[Tuple[int, ...], List[Pair], List[Pair]]


def scenario_context(
    graph: Graph, scenarios: Iterable[Iterable[int]], coverage: str = "affected"
) -> List[ScenarioEntry]:
    """``(failed links, affected pairs, measured pairs)`` per scenario.

    ``scenarios`` are failed-link sets.  The *affected* pairs are the Figure 2
    conditioning: ordered pairs whose failure-free path crosses a failed
    link and which stay connected; they carry the stretch samples.  The
    *measured* pairs are the ones a packet is sent between: with
    ``coverage="affected"`` they are the affected list itself (the same
    object), with ``coverage="full"`` every ordered pair that stays
    connected (:func:`~repro.core.coverage.reachable_pairs`).

    Scenario models (srlg, regional, maintenance, ...) can emit the same
    failed-link set repeatedly; the conditioning is a pure function of that
    set, so duplicates share one entry object, and :func:`measure_context`
    one delivery pass per pattern.
    """
    engine = engine_for(graph)
    context: List[ScenarioEntry] = []
    by_pattern: Dict[Tuple[int, ...], ScenarioEntry] = {}
    for scenario in scenarios:
        failed = tuple(sorted(scenario))
        entry = by_pattern.get(failed)
        if entry is None:
            failed_set = frozenset(failed)
            affected = [
                pair
                for pair in engine.affecting_pairs(failed)
                if engine.same_component(pair[0], pair[1], failed_set)
            ]
            if coverage == "full":
                measured = reachable_pairs(graph, failed)
            else:
                measured = affected
            entry = (failed, affected, measured)
            by_pattern[failed] = entry
        context.append(entry)
    return context


def measure_context(
    scheme: ForwardingScheme,
    context: Sequence[ScenarioEntry],
    record_samples: bool = False,
) -> Tuple[Dict[str, Any], List[float], CoverageReport]:
    """One delivery pass of ``scheme`` over a :func:`scenario_context`.

    Returns ``(fields, stretch values, coverage report)``.  ``fields`` are
    the sample counts of a campaign cell payload (``measured_pairs``,
    ``n_samples``, ``delivered_samples``, ``delivery_ratio``, ``n_stretch``
    and, with ``record_samples``, ``samples``); the stretch values feed the
    caller's CCDF and summary; the report covers every measured pair.  One
    sample is taken per (scenario, affected pair); a sample row is
    ``[source, destination, failed links, stretch, delivered, hops, cost,
    baseline cost]`` (see :func:`samples_from_rows`).  A delivered packet
    whose baseline cost is 0 has no stretch but counts as delivered.
    """
    graph = scheme.graph
    # Failure-free baseline costs come straight off the engine's memoized
    # destination trees (the same values RoutingTables.cost would return),
    # so a scheme that builds no routing tables doesn't force a full table
    # construction just for the stretch baseline.
    engine = engine_for(graph)
    node_index = engine.compiled.index
    report = CoverageReport(scheme=scheme.name)
    nodes = graph.nodes()
    all_pairs_count = len(nodes) * (len(nodes) - 1)
    measured_pairs = 0
    # Accounting runs over every (scenario, pair) outcome, so the loop works
    # on primitives: per-sample rows are plain lists (not StretchSample
    # objects) and failure-free baseline costs are memoized per pair.
    delivered_status = DeliveryStatus.DELIVERED
    sample_rows: List[List[Any]] = []
    values: List[float] = []
    n_samples = 0
    delivered_samples = 0
    baseline_cost_of: Dict[Pair, float] = {}
    # One delivery pass per distinct failed-link pattern: scenarios sharing
    # a pattern reuse the same outcome dict — deliver_many is deterministic
    # in (pairs, failed links), so the per-scenario accounting is unchanged.
    outcomes_by_pattern: Dict[Tuple[int, ...], Dict[Pair, Any]] = {}
    for key, affected, measured in context:
        measured_pairs += len(affected)
        if measured is not affected:
            # Full coverage: every pair left out was cut off by the failures.
            report.unreachable_pairs_skipped += all_pairs_count - len(measured)
        if not measured:
            continue
        affected_set = set(affected)
        outcomes = outcomes_by_pattern.get(key)
        if outcomes is None:
            outcomes = scheme.deliver_many(measured, failed_links=key)
            outcomes_by_pattern[key] = outcomes
        key_row = list(key)
        for pair, outcome in outcomes.items():
            status = outcome.status
            delivered = status is delivered_status
            if delivered:
                report.attempts += 1
                report.delivered += 1
            else:
                report.record(status, outcome.drop_reason)
            if pair not in affected_set:
                continue
            baseline_cost = baseline_cost_of.get(pair)
            if baseline_cost is None:
                # cost(source -> destination) == dist[source] of the
                # destination-rooted failure-free tree (undirected graph,
                # exactly what RoutingTables stores in its cost column).
                baseline_cost = engine.sssp_tree(pair[1])[0][node_index[pair[0]]]
                baseline_cost_of[pair] = baseline_cost
            n_samples += 1
            if delivered and baseline_cost > 0:
                stretch = outcome.cost / baseline_cost
                values.append(stretch)
                delivered_samples += 1
            else:
                stretch = None
                if delivered:
                    delivered_samples += 1
            if record_samples:
                sample_rows.append(
                    [
                        pair[0],
                        pair[1],
                        key_row,
                        stretch,
                        delivered,
                        outcome.hops,
                        outcome.cost,
                        baseline_cost,
                    ]
                )

    fields: Dict[str, Any] = {
        "measured_pairs": measured_pairs,
        "n_samples": n_samples,
        "delivered_samples": delivered_samples,
        "delivery_ratio": delivered_samples / n_samples if n_samples else 1.0,
        "n_stretch": len(values),
    }
    if record_samples:
        fields["samples"] = sample_rows
    return fields, values, report


def samples_from_rows(scheme: str, rows: Sequence[Sequence[Any]]) -> List[StretchSample]:
    """:class:`StretchSample` objects from :func:`measure_context` sample rows."""
    # Consecutive rows of one scenario share the failed-links list object
    # (and JSONL-loaded rows repeat equal lists), so the tuple conversion is
    # cached across the run of identical values.
    last_links = None
    last_tuple: tuple = ()
    samples = []
    append = samples.append
    for row in rows:
        links = row[2]
        if links is not last_links:
            last_tuple = tuple(links)
            last_links = links
        append(
            StretchSample(
                scheme, row[0], row[1], last_tuple, row[3], row[4], row[5], row[6], row[7]
            )
        )
    return samples


def stretch_values(samples: Iterable[StretchSample]) -> List[float]:
    """The stretch values of the delivered samples only."""
    return [sample.stretch for sample in samples if sample.stretch is not None]
