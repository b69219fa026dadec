"""Parallel campaign execution with streaming results and resume.

The executor turns a :class:`~repro.runner.spec.CampaignSpec` into records:
one JSON-serialisable dictionary per cell, appended to the SQLite campaign
store of :mod:`repro.store` (or kept in memory when no ``results`` path is
given) as soon as the cell finishes.  Cells are independent by construction, so
they fan out across worker processes with :mod:`concurrent.futures`; the
artifact cache is shared through the filesystem, which means the expensive
offline stage of a topology runs in exactly one worker and every other cell
of that topology loads the artifact.

Records have three parts:

* identity — ``cell_id``, the grid coordinates and the derived seed;
* ``payload`` — the measured results.  The payload is **deterministic**: the
  same spec produces byte-identical payloads whether the campaign runs
  serially or in parallel, cold or cached (this is what the resume logic and
  the determinism tests rely on);
* ``meta`` — timing, cache statistics and the worker pid.  Never compared.

A cell measures through the same pass as the library experiments
(:func:`repro.metrics.stretch.scenario_context` and
:func:`repro.metrics.stretch.measure_context`); the executor adds the scenario
generation, the offline stage, the telemetry spans and the payload layout.

A cell always runs on the main thread of its process, where a timeout's
``SIGALRM`` preempts it: :func:`run_campaign` called from any other thread
(the ``repro serve`` job worker, say) runs every cell on a process pool.

Records reach the store as their cells complete, so a parallel run appends
them in completion order.  Every store reader orders by cell index, and the
handle lists its records in cell order, so a campaign produced by a parallel
run is record-for-record comparable with a serial one.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from contextlib import closing
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro import telemetry
from repro.baselines.fcp import FailureCarryingPackets
from repro.baselines.lfa import LoopFreeAlternates
from repro.baselines.noprotection import NoProtection
from repro.baselines.reconvergence import Reconvergence
from repro.core.scheme import PacketRecycling, SimplePacketRecycling
from repro.errors import (
    CellTimeoutError,
    ExperimentError,
    WorkerCrashError,
)
from repro.failures.sampling import sample_multi_link_failures
from repro.failures.scenarios import (
    FailureScenario,
    node_failure_scenarios,
    single_link_failures,
)
from repro.forwarding.scheme import ForwardingScheme
from repro.graph.multigraph import Graph
from repro.graph.compiled import graph_signature
from repro.graph.spcache import clear_engines, engine_counter_totals, engine_for
from repro.metrics.ccdf import ccdf_curve, default_stretch_thresholds, distribution_summary
from repro.metrics.overhead import overhead_comparison
from repro.metrics.stretch import ScenarioEntry, measure_context, scenario_context
from repro.routing.discriminator import DiscriminatorKind
from repro.runner import aggregate, faults
from repro.runner.cache import ArtifactCache, cached_embedding
from repro.runner.policy import ExecutionPolicy, collector_paused, run_with_timeout
from repro.runner.spec import (
    EMBEDDING_SCHEMES,
    SCHEME_NAMES,
    CampaignCell,
    CampaignSpec,
    chunk_cells,
)
from repro.scenarios import get_scenario_model
from repro.store.database import CampaignStore, require_store_path
from repro.store.query import Filter, check_limit, parse_filter
from repro.topologies import corpus


#: Per-process topology memo: a campaign's cells repeatedly load the same
#: few topologies, and a shared ``Graph`` object lets every cell of a worker
#: resolve to the same shortest-path engine without re-parsing or
#: re-generating anything — corpus topologies are constructed lazily, once
#: per worker, on the first cell that shards onto them.  Corpus specs are
#: keyed by their canonical form; file-based topologies by (path, mtime,
#: size) so an edited file is reloaded.
_TOPOLOGY_CACHE: Dict[Tuple, Graph] = {}


def load_topology(spec: str) -> Graph:
    """A corpus topology spec (``name[:k=v,...]``) or a path to a topology file.

    Corpus specs cover the legacy registry names (``abilene``), the
    parameterized synthetic families (``waxman:size=40,seed=3``) and the
    committed zoo snapshots (``nsfnet1991``); anything else is treated as a
    path to a GraphML or edge-list file.  An entry that is neither raises
    :class:`~repro.errors.TopologyError` (see ``corpus.topology_file_stat``).
    """
    parsed = corpus.try_parse_spec(spec)
    if parsed is not None:
        key: Tuple = ("corpus", parsed.canonical)
    else:
        stat = corpus.topology_file_stat(spec)
        key = ("file", spec, stat.st_mtime_ns, stat.st_size)
    graph = _TOPOLOGY_CACHE.get(key)
    if graph is None:
        if parsed is not None:
            graph = parsed.build()
        else:
            graph = corpus.load_topology_file(spec)
        if len(_TOPOLOGY_CACHE) >= 64:
            _TOPOLOGY_CACHE.clear()
        _TOPOLOGY_CACHE[key] = graph
    return graph


def build_scheme(
    key: str,
    graph: Graph,
    discriminator: str = DiscriminatorKind.HOP_COUNT.value,
    embedding: Optional[object] = None,
) -> ForwardingScheme:
    """Instantiate the scheme behind a registry key.

    ``embedding`` is only consulted by the Packet Re-cycling variants; the
    baselines have no embedding in their offline stage.
    """
    if key not in SCHEME_NAMES:
        raise ExperimentError(
            f"unknown scheme key {key!r}; available: {sorted(SCHEME_NAMES)}"
        )
    try:
        kind = DiscriminatorKind(discriminator)
    except ValueError:
        raise ExperimentError(
            f"unknown discriminator {discriminator!r}; available:"
            f" {sorted(kind.value for kind in DiscriminatorKind)}"
        ) from None
    if key == "pr":
        return PacketRecycling(graph, embedding=embedding, discriminator_kind=kind)
    if key == "pr-1bit":
        return SimplePacketRecycling(graph, embedding=embedding, discriminator_kind=kind)
    if key == "fcp":
        return FailureCarryingPackets(graph)
    if key == "reconvergence":
        return Reconvergence(graph)
    if key == "lfa":
        return LoopFreeAlternates(graph)
    return NoProtection(graph)


def generate_scenarios(graph: Graph, cell: CampaignCell) -> List[FailureScenario]:
    """The failure scenarios of one cell, deterministic in the cell's seed."""
    scenario = cell.scenario
    if scenario.kind == "single-link":
        return single_link_failures(
            graph, only_non_disconnecting=scenario.non_disconnecting
        )
    if scenario.kind == "node":
        return node_failure_scenarios(graph)
    if scenario.kind == "model":
        model = get_scenario_model(scenario.model)
        generated = model.generate(
            graph,
            seed=cell.seed,
            samples=scenario.samples,
            non_disconnecting=scenario.non_disconnecting,
            params=dict(scenario.params),
        )
        if not generated:
            raise ExperimentError(
                f"scenario model {scenario.model!r} produced no scenarios on "
                f"{graph.name!r} (params {dict(scenario.params)!r})"
            )
        return generated
    generated = sample_multi_link_failures(
        graph,
        failures=scenario.failures,
        samples=scenario.samples,
        seed=cell.seed,
        require_connected=scenario.non_disconnecting,
    )
    if not generated:
        raise ExperimentError(
            f"could not sample any {scenario.failures}-failure scenario on "
            f"{graph.name!r} that keeps the network connected"
        )
    return generated


def _scenario_context(graph: Graph, cell: CampaignCell) -> List[ScenarioEntry]:
    """The :func:`~repro.metrics.stretch.scenario_context` of a cell's scenarios.

    The context depends only on (topology content, scenario spec, seed,
    coverage mode) — deliberately *not* on the scheme or discriminator — so
    the cells of one scenario column share it through the per-process engine
    cache: scenario generation, the affected-pair conditioning and the
    connectivity filtering all run once per worker instead of once per cell.
    """
    engine = engine_for(graph)
    key = ("cell-context", cell.scenario.key(), cell.seed, cell.coverage)
    cached = engine.consumer_cache.get_or_none(key)
    if cached is not None:
        return cached
    scenarios = generate_scenarios(graph, cell)
    context = scenario_context(
        graph, [scenario.failed_links for scenario in scenarios], cell.coverage
    )
    engine.consumer_cache.put(key, context)
    return context


# ----------------------------------------------------------------------
# cell execution (top-level so it pickles into worker processes)
# ----------------------------------------------------------------------
def run_cell(
    cell: CampaignCell, cache_dir: Optional[str] = None, attempt: int = 0
) -> Dict[str, Any]:
    """Run one campaign cell and return its result record.

    When telemetry is enabled the cell body runs under a *fresh*
    :class:`~repro.telemetry.TelemetryCollector`, and the record's ``meta``
    gains a ``telemetry`` snapshot: phase spans and artifact cache
    counters, plus the cell's *delta* of the per-process engine
    counters (hits/misses/repair/evictions/builds accumulate on the engines
    across a whole worker; diffing around the cell attributes them to it).
    Snapshots ride inside the records, so they cross the chunk-result
    envelopes from workers unchanged and persist in the store for resumed
    campaigns.  The ``payload`` is byte-identical with telemetry on
    or off.
    """
    faults.checkpoint("cell-body", cell.cell_id, attempt)
    collector = telemetry.TelemetryCollector() if telemetry.enabled() else None
    if collector is None:
        return _run_cell_body(cell, cache_dir)
    engines_before = engine_counter_totals()
    with telemetry.collector_scope(collector):
        record = _run_cell_body(cell, cache_dir)
    engines_after = engine_counter_totals()
    for name in sorted(engines_after):
        # Clamped at zero: a registry eviction mid-cell can make a raw
        # delta negative, and merged counters must stay monotonic.
        delta = engines_after[name] - engines_before.get(name, 0)
        collector.count(f"engine/{name}", max(0, delta))
    collector.count("cells/executed")
    record["meta"]["telemetry"] = collector.snapshot()
    return record


def _run_cell_body(cell: CampaignCell, cache_dir: Optional[str] = None) -> Dict[str, Any]:
    """The instrumented cell body (see :func:`run_cell`).

    The forwarding work is the shared measurement pass,
    :func:`~repro.metrics.stretch.measure_context`: one delivery pass per
    distinct failed-link pattern over the measured pair set, from which both
    the coverage accounting and the stretch samples are derived (stretch
    only over the pairs whose failure-free path the scenario broke — the
    Figure 2 conditioning).
    """
    started = time.perf_counter()
    with telemetry.span("cell/topology_load"):
        graph = load_topology(cell.topology)
    with telemetry.span("cell/scenarios"):
        context = _scenario_context(graph, cell)
    cache: Optional[ArtifactCache] = None
    embedding = None
    offline_started = time.perf_counter()
    if cell.scheme in EMBEDDING_SCHEMES:
        cache = ArtifactCache(cache_dir) if cache_dir else None
        with telemetry.span("offline/embedding"):
            embedding = cached_embedding(
                graph,
                method=cell.embedding_method,
                seed=cell.embedding_seed,
                iterations=cell.embedding_iterations,
                cache=cache,
            )
    with telemetry.span("cell/build_scheme"):
        scheme = build_scheme(cell.scheme, graph, cell.discriminator, embedding)
    offline_seconds = time.perf_counter() - offline_started

    with telemetry.span(f"delivery/scheme={cell.scheme}"):
        fields, stretch_values, report = measure_context(
            scheme, context, cell.record_samples
        )

    telemetry.record_value("cell/measured_pairs", fields["measured_pairs"])
    telemetry.record_value("cell/stretch_samples", len(stretch_values))
    with telemetry.span("cell/aggregate"):
        [overhead_row] = overhead_comparison(graph, [scheme])
        payload: Dict[str, Any] = {
            "scenarios": len(context),
            "failures_per_scenario": len(context[0][0]) if context else 0,
            # measured_pairs ... n_stretch, plus samples when recorded
            **fields,
            # JSON-normalised (lists, not tuples) so in-memory records compare
            # equal to records reloaded from the store.
            "ccdf": [
                [x, p]
                for x, p in ccdf_curve(stretch_values, default_stretch_thresholds())
            ],
            "stretch_summary": distribution_summary(stretch_values),
            "coverage": {
                "attempts": report.attempts,
                "delivered": report.delivered,
                "dropped": report.dropped,
                "looped": report.looped,
                "unreachable_pairs_skipped": report.unreachable_pairs_skipped,
                "drop_reasons": dict(sorted(report.drop_reasons.items())),
            },
            "header_bits": overhead_row.header_bits,
            "header_bits_note": overhead_row.header_bits_note,
            "memory_entries": overhead_row.memory_entries,
            "online_computation": overhead_row.online_computation,
        }
    return {
        "cell_id": cell.cell_id,
        "index": cell.index,
        "topology": cell.topology,
        "scheme": cell.scheme,
        "scheme_name": SCHEME_NAMES[cell.scheme],
        "discriminator": cell.discriminator,
        "scenario": cell.scenario.to_dict(),
        "scenario_family": cell.scenario.family,
        "seed": cell.seed,
        "payload": payload,
        "meta": {
            "elapsed_s": time.perf_counter() - started,
            "offline_s": offline_seconds,
            "cache_hits": cache.hits if cache else 0,
            "cache_misses": cache.misses if cache else 0,
            "pid": os.getpid(),
        },
    }


def _worker_init(
    active_topologies: Tuple[str, ...] = (), telemetry_enabled: Optional[bool] = None
) -> None:
    """Per-worker process initializer: shed every stale per-process cache.

    Fork-started workers inherit the parent's engine registry and topology
    memo.  The registries are content-addressed, so inherited entries are
    never *wrong* — but a resumed campaign after a topology-set change (or a
    long sequence of sweeps in one driver process) would keep every stale
    engine alive in every worker.  ``clear_engines`` with the campaign's
    active topology signatures drops exactly those stale engines while
    keeping the warm, still-valid engines of the topologies this campaign
    sweeps (on a machine where workers time-share cores, re-deriving them
    per worker is the dominant dispatch cost).

    ``telemetry_enabled`` carries the parent's telemetry state into the
    worker explicitly (spawn-started workers re-read only the environment,
    which a ``--no-telemetry`` run does not touch).
    """
    # Fault plans travel through REPRO_FAULTS: fork-started workers must
    # shed the parent's fire accounting, spawn-started ones must load the
    # plan at all.
    faults.reload_from_env()
    if telemetry_enabled is not None:
        telemetry.set_enabled(telemetry_enabled)
    keep_sigs = []
    keep_graphs = []
    for spec in active_topologies:
        try:
            graph = load_topology(spec)  # usually an inherited cache hit
        except Exception:
            # A broken spec fails in run_cell with its real error; the
            # initializer must never take the whole pool down.
            continue
        keep_graphs.append(graph)
        keep_sigs.append(graph_signature(graph))
    clear_engines(keep=keep_sigs)
    alive = {id(graph) for graph in keep_graphs}
    for key in [key for key, graph in _TOPOLOGY_CACHE.items() if id(graph) not in alive]:
        del _TOPOLOGY_CACHE[key]


def _run_cell_attempts(
    cell: CampaignCell,
    cache_dir: Optional[str],
    policy: ExecutionPolicy,
    base_attempt: int = 0,
) -> Tuple[str, Any, Dict[str, int]]:
    """Run one cell under the execution policy: timeout, retries, backoff.

    Returns a ``(status, payload, info)`` envelope: ``("ok", record, info)``
    or ``("error", last_exception, info)`` once the retry budget is spent.
    ``info`` carries the fault accounting (``retries``, ``timeouts``,
    ``attempts``) that the parent folds into the campaign fault counters.
    ``base_attempt`` is the number of attempts already consumed elsewhere —
    a crashed worker's re-dispatch arrives here with the crash counted.

    Each attempt runs inside :func:`~repro.runner.policy.collector_paused`.
    This is the one site that pauses the collector, and it covers the
    serial dispatch and pool workers.  The backoff sleep and the time
    between cells run with the collector as it was.
    """
    attempt = base_attempt
    info = {"retries": 0, "timeouts": 0, "attempts": 0}
    while True:
        info["attempts"] = attempt + 1
        try:
            with collector_paused():
                record = run_with_timeout(
                    lambda: run_cell(cell, cache_dir, attempt=attempt),
                    policy.cell_timeout,
                    label=f"cell {cell.cell_id}",
                )
            return "ok", record, info
        except CellTimeoutError as exc:
            info["timeouts"] += 1
            last_error: Exception = exc
        except Exception as exc:
            last_error = exc
        attempt += 1
        if attempt > policy.max_retries:
            return "error", last_error, info
        info["retries"] += 1
        delay = policy.backoff_seconds(cell.cell_id, attempt)
        if delay > 0:
            time.sleep(delay)


def _run_cell_chunk(
    cells: List[CampaignCell],
    cache_dir: Optional[str] = None,
    policy: ExecutionPolicy = ExecutionPolicy(),
    base_attempts: Optional[List[int]] = None,
) -> List[Tuple[str, Any, Dict[str, int]]]:
    """Run a chunk of cells in one worker round trip (see ``chunk_cells``).

    Cells of one topology share the worker's graph, engine and scenario
    context across the whole chunk; one submission and one result message
    replace a per-cell pickling round trip.  Cells stay independent even
    inside a chunk: one cell raising must not discard its siblings'
    completed records (they still reach the store, so a resumed run
    skips them), hence the per-cell ``("ok", record, info) | ("error", exc,
    info)`` envelope instead of a bare record list.  Retries and the cell
    timeout run *inside* the worker (the cheapest place to re-attempt);
    only worker crashes need parent-side recovery, which re-dispatches with
    ``base_attempts`` advanced so the crash counts against the retry budget.
    """
    outcomes: List[Tuple[str, Any, Dict[str, int]]] = []
    for position, cell in enumerate(cells):
        base = base_attempts[position] if base_attempts else 0
        outcomes.append(_run_cell_attempts(cell, cache_dir, policy, base))
    faults.checkpoint(
        "chunk-envelope",
        cells[0].cell_id if cells else None,
        base_attempts[0] if base_attempts else 0,
    )
    return outcomes


#: One disposed cell: ``(cell, status, payload, info)`` with the envelope of
#: :func:`_run_cell_attempts`.  The pool's give-up is the one outcome
#: without a cell; its payload is the campaign's error.
Outcome = Tuple[Optional[CampaignCell], str, Any, Dict[str, int]]
_Group = Tuple[List[CampaignCell], List[int]]


def _pool_outcomes(
    pending: List[CampaignCell],
    workers: int,
    cache_dir: Optional[str],
    policy: ExecutionPolicy,
    fault_counters: Dict[str, int],
) -> Iterator[Outcome]:
    """Run cells on a process pool, yielding each chunk's outcomes as it completes.

    Chunked dispatch: one future per chunk of (topology-grouped) cells
    instead of one per cell, with per-worker persistent engine reuse across
    a chunk.  Outcomes come out in completion order.  A worker crash is
    recovered here: the pool is rebuilt (``faults/pool_rebuilds``), a
    crash-attributed cell is retried or comes out as a
    :class:`~repro.errors.WorkerCrashError` outcome, and past
    ``policy.max_pool_rebuilds`` every unresolved cell comes out as one,
    followed by the give-up outcome.  Closing the generator shuts the pool
    down and cancels the chunks no worker has taken yet.
    """
    chunks = chunk_cells(pending, workers)
    active_topologies = tuple(dict.fromkeys(cell.topology for cell in pending))

    def make_pool() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=min(workers, len(chunks)),
            initializer=_worker_init,
            initargs=(active_topologies, telemetry.enabled()),
        )

    def submit(pool: ProcessPoolExecutor, group: _Group):
        return pool.submit(_run_cell_chunk, group[0], cache_dir, policy, group[1])

    def harvest(futures, crashed_groups: List[_Group]) -> Iterator[Outcome]:
        for future in futures:
            group = in_flight.pop(future)
            try:
                envelopes = future.result()
            except BrokenProcessPool:
                crashed_groups.append(group)
                continue
            for cell, (status, payload, info) in zip(group[0], envelopes):
                yield cell, status, payload, info

    # Two dispatch regimes.  Normal: up to two chunks per worker in flight
    # (usually every chunk), all a closed generator leaves the pool to
    # finish.  Recovery (after a pool crash): the doomed groups re-dispatch ONE
    # AT A TIME — `BrokenProcessPool` dooms every in-flight future, so
    # solo dispatch is the only way to attribute a crash to a group,
    # and a crashing multi-cell group bisects down to the poison cell.
    normal_queue: deque = deque((list(chunk), [0] * len(chunk)) for chunk in chunks)
    recovery_queue: deque = deque()
    in_flight: Dict[Any, _Group] = {}
    rebuilds = 0
    pool = make_pool()
    try:
        while normal_queue or recovery_queue or in_flight:
            crashed_groups: List[_Group] = []
            try:
                if recovery_queue:
                    if not in_flight:
                        group = recovery_queue.popleft()
                        in_flight[submit(pool, group)] = group
                else:
                    while normal_queue and len(in_flight) < 2 * workers:
                        group = normal_queue.popleft()
                        in_flight[submit(pool, group)] = group
            except BrokenProcessPool:
                # The pool died between submissions (e.g. an initializer
                # crash); the unsubmitted group is doomed-by-association.
                crashed_groups.append(group)
            if in_flight and not crashed_groups:
                finished, _ = wait(set(in_flight), return_when=FIRST_COMPLETED)
                yield from harvest(finished, crashed_groups)
            if not crashed_groups:
                continue
            # A worker died.  Every in-flight future of a broken pool
            # completes immediately: harvest the ones that finished
            # before the crash, doom the rest.
            if in_flight:
                wait(set(in_flight))
                yield from harvest(list(in_flight), crashed_groups)
            rebuilds += 1
            fault_counters["faults/pool_rebuilds"] += 1
            if rebuilds > policy.max_pool_rebuilds:
                # Give up like any other failure: the unresolved cells
                # fail, and the campaign is finalized before the error is
                # raised.
                unresolved = [(group, 1) for group in crashed_groups]
                unresolved += [(group, 0) for group in recovery_queue]
                unresolved += [(group, 0) for group in normal_queue]
                for (group_cells, bases), crashed in unresolved:
                    for cell, base in zip(group_cells, bases):
                        error = WorkerCrashError(
                            f"worker pool gave up before cell {cell.cell_id} completed"
                        )
                        yield cell, "error", error, {"attempts": base + crashed}
                gave_up = ExperimentError(
                    f"worker pool died {rebuilds} times; giving up"
                    f" (max_pool_rebuilds={policy.max_pool_rebuilds})"
                )
                yield None, "error", gave_up, {}
                return
            pool.shutdown(wait=False)
            pool = make_pool()
            if len(crashed_groups) == 1 and len(crashed_groups[0][0]) == 1:
                # Solo dispatch of a single cell crashed: definitive
                # attribution.  The crash consumes one retry attempt.
                [poison], [base] = crashed_groups[0]
                attempt = base + 1
                if attempt <= policy.max_retries:
                    fault_counters["faults/retries"] += 1
                    time.sleep(policy.backoff_seconds(poison.cell_id, attempt))
                    recovery_queue.appendleft(([poison], [attempt]))
                else:
                    error = WorkerCrashError(
                        f"worker process died while running cell"
                        f" {poison.cell_id} (attempt {attempt})"
                    )
                    yield poison, "error", error, {"attempts": attempt}
            else:
                # Ambiguous: several groups were in flight.  Re-dispatch
                # them solo, bisecting multi-cell groups so repeated
                # crashes converge on the poison cell.
                for group_cells, bases in crashed_groups:
                    if len(group_cells) <= 1:
                        recovery_queue.append((group_cells, bases))
                    else:
                        mid = (len(group_cells) + 1) // 2
                        recovery_queue.append((group_cells[:mid], bases[:mid]))
                        recovery_queue.append((group_cells[mid:], bases[mid:]))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


# ----------------------------------------------------------------------
# campaign driver
# ----------------------------------------------------------------------
@dataclass
class CampaignHandle:
    """Everything a finished (or resumed) campaign produced.

    On top of the aggregation views it exposes the campaign store itself
    (:attr:`store`, ``None`` for in-memory runs), the filter-based
    :meth:`query` and the one-dictionary :meth:`summary`.
    """

    spec: CampaignSpec
    records: List[Dict[str, Any]] = field(default_factory=list)
    executed: int = 0
    skipped: int = 0
    elapsed_s: float = 0.0
    #: The SQLite store the campaign ran into (``None`` for in-memory runs).
    store: Optional[CampaignStore] = None
    #: cell_ids actually run in this invocation (resumed cells excluded).
    executed_cell_ids: Set[str] = field(default_factory=set)
    #: Worker count of this invocation (recorded in the telemetry manifest).
    workers: int = 1
    #: Quarantined-cell entries (``on_error="quarantine"``), in cell order.
    quarantined: List[Dict[str, Any]] = field(default_factory=list)
    #: Non-zero ``faults/*`` counters of this invocation (retries, timeouts,
    #: quarantined cells, pool rebuilds).
    fault_counters: Dict[str, int] = field(default_factory=dict)

    @property
    def campaign_id(self) -> str:
        """The canonical campaign identity (the spec hash)."""
        return self.spec.spec_hash()

    def query(
        self,
        expression: Union[str, Sequence[str], Filter, None] = None,
        limit: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Records matching a filter expression (see :mod:`repro.store.query`).

        A ``campaign:`` selector in the expression routes the query through
        the backing store (cross-campaign); otherwise this campaign's own
        records are filtered in memory.
        """
        check_limit(limit)
        filt = (
            expression
            if isinstance(expression, Filter)
            else parse_filter(expression)
        )
        if (filt.campaign_explicit or filt.campaign != ("all",)) and self.store is not None:
            return self.store.query(filt, limit=limit)
        records = filt.filter_records(self.records)
        return records[:limit] if limit is not None else records

    def summary(self) -> Dict[str, Any]:
        """The run facts in one JSON-shaped dictionary."""
        return {
            "campaign_id": self.campaign_id,
            "cells": self.spec.cell_count(),
            "records": len(self.records),
            "executed": self.executed,
            "skipped": self.skipped,
            "quarantined": len(self.quarantined),
            "elapsed_s": self.elapsed_s,
            "workers": self.workers,
            "results": str(self.store.path) if self.store is not None else None,
            "backend": "sqlite" if self.store is not None else "memory",
            "fault_counters": dict(self.fault_counters),
            "topologies": aggregate.topologies_in(self.records),
            "schemes": sorted({r.get("scheme", "") for r in self.records}),
        }

    # Aggregation views over the records (see :mod:`repro.runner.aggregate`).
    def stretch_result(self, topology: Optional[str] = None):
        return aggregate.stretch_result_from_records(self.records, topology)

    def merged_ccdf(self, topology: Optional[str] = None):
        return aggregate.merged_ccdf(self.records, topology)

    def coverage_reports(self):
        return aggregate.coverage_reports(self.records)

    def overhead_rows(self):
        return aggregate.overhead_rows(self.records)

    def family_summary(self, topology: Optional[str] = None):
        return aggregate.family_summary_rows(self.records, topology)

    def topology_summary(self):
        """Per-(topology, scheme) rows spanning the whole corpus swept."""
        return aggregate.topology_summary_rows(self.records)

    def _executed_records(self) -> List[Dict[str, Any]]:
        """Records produced by this invocation (resumed records excluded)."""
        return [r for r in self.records if r.get("cell_id") in self.executed_cell_ids]

    def cache_stats(self) -> Dict[str, int]:
        """Cache hit/miss totals summed over the cells this invocation ran."""
        executed = self._executed_records()
        hits = sum(r.get("meta", {}).get("cache_hits", 0) for r in executed)
        misses = sum(r.get("meta", {}).get("cache_misses", 0) for r in executed)
        return {"hits": hits, "misses": misses}

    def offline_seconds(self) -> float:
        """Offline-stage time this invocation spent (what the cache removes)."""
        return sum(
            r.get("meta", {}).get("offline_s", 0.0) for r in self._executed_records()
        )

    # ------------------------------------------------------------------
    # telemetry views
    # ------------------------------------------------------------------
    def telemetry(self, slowest: int = 10) -> Dict[str, Any]:
        """The campaign telemetry manifest merged over every record.

        Includes resumed records: their snapshots were produced when those
        cells actually ran, so a resumed campaign reports the same merged
        counters a fresh one does.
        """
        return telemetry_manifest(self, slowest=slowest)

    def merged_counters(self) -> Dict[str, int]:
        """Deterministically merged telemetry counters over every record.

        This is the campaign-wide answer :func:`aggregate_cache_info` cannot
        give: engine counters accumulate per *process*, so in a parallel run
        the parent's registry only ever saw its own cells.  The per-cell
        snapshots merged here crossed the chunk envelopes from every worker.
        """
        return dict(telemetry.merge_records(self.records).counters)

    def engine_counters(self) -> Dict[str, int]:
        """Merged ``engine/*`` counters with the prefix stripped."""
        return {
            name.split("/", 1)[1]: value
            for name, value in self.merged_counters().items()
            if name.startswith("engine/")
        }


def telemetry_manifest(result: CampaignHandle, slowest: int = 10) -> Dict[str, Any]:
    """The telemetry manifest of a campaign result (see :mod:`repro.telemetry`)."""
    return telemetry.build_manifest(
        result.records,
        campaign={
            "spec_hash": result.spec.spec_hash(),
            "cells": result.spec.cell_count(),
        },
        run={
            "executed": result.executed,
            "skipped": result.skipped,
            "workers": result.workers,
            "elapsed_s": result.elapsed_s,
            "quarantined": len(result.quarantined),
        },
        slowest=slowest,
        extra_counters=result.fault_counters,
    )


ProgressCallback = Callable[[CampaignCell, Dict[str, Any], int, int], None]


def run_campaign(
    spec: CampaignSpec,
    workers: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    results: Optional[Union[str, Path]] = None,
    resume: bool = False,
    progress: Optional[ProgressCallback] = None,
    policy: Optional[ExecutionPolicy] = None,
) -> CampaignHandle:
    """Run every cell of a campaign, optionally in parallel and resumably.

    Parameters
    ----------
    workers:
        Number of worker processes; ``1`` (or fewer pending cells than
        workers would help) runs in-process when called on the main
        thread, and on a pool of one worker from any other thread.
        ``0``/``None`` means one process per CPU.
    cache_dir:
        Artifact-cache directory shared by all workers; ``None`` disables
        caching (every cell recomputes its offline stage).
    results:
        A ``.sqlite``/``.sqlite3``/``.db`` path: records stream into that
        :class:`~repro.store.database.CampaignStore` (opened or created)
        under the campaign's spec hash.  Any other path raises
        :class:`~repro.errors.ExperimentError` before a cell runs (JSONL is
        only the ``repro migrate`` format).  ``None`` keeps the records in
        memory.  Required for ``resume``.
    resume:
        Skip cells whose ``cell_id`` already has a record in ``results``
        and reuse those records in the returned handle.
    progress:
        Called as ``progress(cell, record, done, total)`` after each cell's
        record is stored, in completion order.  One that raises stops the
        campaign once a pool has run the chunks it holds (one worker: two).
    policy:
        Fault-tolerance policy (retries, per-cell timeout, quarantine,
        pool-rebuild budget); ``None`` keeps the legacy semantics: no
        retries, no timeout, the first error aborts the campaign (raised
        only after every completed record — and the telemetry manifest —
        has been flushed).
    """
    started = time.perf_counter()
    if policy is None:
        policy = ExecutionPolicy()
    if not workers:
        workers = os.cpu_count() or 1
    cache_str = str(cache_dir) if cache_dir is not None else None
    campaign_id = spec.spec_hash()
    if results is not None:
        results = require_store_path(results, campaign_id)
    elif resume:
        raise ExperimentError("resume requires a results store to resume from")
    cells = spec.cells()
    cells_by_id = {cell.cell_id: cell for cell in cells}

    fault_counters = {
        "faults/retries": 0,
        "faults/timeouts": 0,
        "faults/quarantined_cells": 0,
        "faults/pool_rebuilds": 0,
    }
    store: Optional[CampaignStore] = None
    previous: Dict[str, Dict[str, Any]] = {}
    if results is not None:
        store = CampaignStore(results)
        if resume:
            store.ensure_campaign(campaign_id, spec.to_dict(), len(cells), workers)
            for record in store.load_records(campaign_id):
                if record.get("cell_id") in cells_by_id:
                    previous[record["cell_id"]] = record
        else:
            # Without resume the campaign represents *this* run; keeping the
            # previous run's records would double-count every cell.
            store.begin_campaign(campaign_id, spec.to_dict(), len(cells), workers)

    pending = [cell for cell in cells if cell.cell_id not in previous]

    # Failure disposition: quarantine mode records the cell and moves on;
    # fail mode remembers the first error, which is re-raised only after
    # the campaign has drained and its manifest is in the store.  Cells are
    # independent, so one failing cell never stops its siblings' records
    # from being computed and appended, and a resumed run then only redoes
    # the failed cells.  Bookkeeping is keyed by cell.index (unique by
    # construction) rather than cell_id, which content-hashes the inputs
    # and could in principle collide for equivalent cells.
    first_error: Optional[BaseException] = None
    quarantined: List[Dict[str, Any]] = []
    new_records: Dict[int, Dict[str, Any]] = {}
    # Only the main thread runs cells itself (see the module docstring).
    in_process = workers <= 1 or len(pending) <= 1
    if not pending or (in_process and threading.current_thread() is threading.main_thread()):
        outcomes: Iterator[Outcome] = (
            (cell, *_run_cell_attempts(cell, cache_str, policy)) for cell in pending
        )
    else:
        outcomes = _pool_outcomes(pending, max(1, workers), cache_str, policy, fault_counters)
    # closing(): a progress callback that raises (the daemon's JobCancelled)
    # still runs the pool generator's shutdown.
    with closing(outcomes):
        for cell, status, payload, info in outcomes:
            fault_counters["faults/retries"] += info.get("retries", 0)
            fault_counters["faults/timeouts"] += info.get("timeouts", 0)
            if status == "ok":
                new_records[cell.index] = payload
                if store is not None:
                    store.append_record(campaign_id, payload)
                if progress is not None:
                    progress(cell, payload, len(new_records), len(pending))
            elif cell is None:
                first_error = payload  # the pool gave up
            elif policy.quarantines:
                fault_counters["faults/quarantined_cells"] += 1
                quarantined.append(
                    {
                        "cell_id": cell.cell_id,
                        "index": cell.index,
                        "topology": cell.topology,
                        "scheme": cell.scheme,
                        "scenario_family": cell.scenario.family,
                        "seed": cell.seed,
                        "error_type": type(payload).__name__,
                        "error": str(payload),
                        "attempts": info["attempts"],
                    }
                )
            elif first_error is None:
                first_error = payload

    ordered: List[Dict[str, Any]] = []
    executed_ids = set()
    for cell in cells:
        record = new_records.get(cell.index)
        if record is not None:
            executed_ids.add(cell.cell_id)
        else:
            record = previous.get(cell.cell_id)
        if record is not None:
            ordered.append(record)
    # Quarantine entries are sorted into cell order and rewritten as a
    # whole at the end of the run, so serial and parallel runs of the same
    # campaign leave identical quarantine sets (quarantined cells never
    # enter the records table — a resumed run re-attempts them).
    quarantined.sort(key=lambda entry: entry["index"])
    handle = CampaignHandle(
        spec=spec,
        records=ordered,
        executed=len(new_records),
        skipped=len(previous),
        elapsed_s=time.perf_counter() - started,
        store=store,
        executed_cell_ids=executed_ids,
        workers=workers,
        quarantined=quarantined,
        fault_counters={k: v for k, v in fault_counters.items() if v},
    )
    if store is not None:
        # The manifest merges over *all* records (resumed included), so a
        # resumed campaign rewrites a manifest covering the whole campaign.
        # Written before the first-error re-raise below: a failing cell
        # must not lose the telemetry of the records that did complete.
        store.put_manifest(campaign_id, telemetry_manifest(handle))
        if policy.quarantines:
            store.put_quarantine(campaign_id, quarantined)
        store.finish_campaign(
            campaign_id,
            handle.executed,
            handle.skipped,
            handle.elapsed_s,
            status="failed" if first_error is not None else "done",
        )
    if first_error is not None:
        raise first_error
    return handle
