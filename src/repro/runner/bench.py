"""``python -m repro bench`` — reproducible wall-clock benchmarks.

Runs the two workloads the performance work is anchored on and reports their
wall-clock timings as a JSON artifact (``BENCH_*.json``):

* **figure2** — one multi-failure Figure 2 panel driven through the campaign
  runner (the per-cell hot path: scenario generation, affected-pair
  conditioning, per-scheme delivery walks, aggregation);
* **sweep** — a (topologies × schemes) campaign executed four ways: cold
  (offline embedding computed and persisted), warm (artifact cache hit,
  in-process engine caches hot), parallel (worker processes) and resumed
  (every cell skipped via the campaign store);
* **corpus** — a corpus-sharded single-link campaign over zoo snapshots and
  parameterized synthetic instances (quick mode uses a 4-topology slice,
  full mode the entire ``all`` set), exercising lazy per-worker topology
  construction and the cross-topology aggregation path;
* **incremental** — a repair-heavy serial campaign (srlg groups plus
  multi-link samples over two ISP maps) whose per-scenario trees are almost
  all served by the incremental SSSP repair layer; ``sweep_incremental_s``
  tracks that layer specifically, and the report's ``repair_hits`` /
  ``repair_fallbacks`` totals show how much of the workload it carried;
* **warm query** — the resident ``repro serve`` hot path: an in-process
  :class:`~repro.store.serve.ServeSession` answering the same filter query
  against a warm SQLite campaign store, reported as ``query_warm_qps``
  under the higher-is-better ``throughput`` section — plus
  ``query_warm_qps_under_load``, the same query answered while the
  session's job worker executes a submitted campaign in the background
  (the daemon's no-head-of-line-blocking guarantee, as a number).

The CI benchmark-regression step runs ``repro bench --quick --check
benchmarks/bench_baseline.json``: the run fails when any timing regresses
more than ``--tolerance`` (default 25%) against the committed baseline, or
when any ``throughput`` rate drops below the baseline by the same margin
(see :func:`check_throughput`).
"""

from __future__ import annotations

import gc
import json
import os
import platform
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.graph.spcache import aggregate_cache_info
from repro.runner.executor import run_campaign
from repro.runner.policy import ExecutionPolicy
from repro.runner.spec import (
    CampaignSpec,
    ScenarioSpec,
    corpus_campaign_spec,
    figure2_campaign_spec,
)


def _corpus_spec(quick: bool) -> CampaignSpec:
    if quick:
        return CampaignSpec(
            topologies=(
                "nsfnet1991",
                "switch2003",
                "fat-tree:k=4",
                "waxman:size=24,seed=7",
            ),
            schemes=("reconvergence", "fcp"),
            scenarios=(ScenarioSpec(kind="single-link"),),
        )
    return corpus_campaign_spec("all")


def _incremental_spec(quick: bool) -> CampaignSpec:
    """A repair-heavy workload: every scenario re-solves trees near failures.

    SRLG groups and multi-link samples produce many distinct failure sets on
    the same two topologies, so nearly every post-failure tree is a repair
    of a memoized failure-free tree rather than a full recompute.
    """
    return CampaignSpec(
        topologies=("abilene", "geant"),
        schemes=("reconvergence", "fcp"),
        scenarios=(
            ScenarioSpec.for_model("srlg", samples=8 if quick else 30),
            ScenarioSpec(
                kind="multi-link", failures=3, samples=6 if quick else 20
            ),
        ),
    )


def _sweep_spec(quick: bool) -> CampaignSpec:
    return CampaignSpec(
        topologies=("abilene", "geant"),
        schemes=("reconvergence", "fcp", "pr"),
        scenarios=(
            ScenarioSpec("multi-link", failures=4, samples=2 if quick else 4),
        ),
        embedding_method="local-search",
        embedding_iterations=600 if quick else 1200,
        embedding_seed=0,
    )


def _figure2_spec(quick: bool) -> CampaignSpec:
    return figure2_campaign_spec("2d", samples=20 if quick else 60, seed=1)


def run_bench(
    quick: bool = False,
    workers: int = 2,
) -> Dict[str, Any]:
    """Run both benchmark workloads and return the timing document."""
    timings: Dict[str, float] = {}

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        cache_dir = Path(tmp) / "cache"

        started = time.perf_counter()
        run_campaign(_figure2_spec(quick), workers=1, cache_dir=cache_dir)
        timings["figure2_s"] = time.perf_counter() - started

    # The cross-topology aggregation is part of the corpus workload: the
    # sweep is not done until the per-topology summary exists.  Both legs
    # of every fault-layer overhead pair start from a collected heap: a
    # full cyclic-GC pass owed to earlier allocations takes longer than a
    # quick-mode leg, and landing in one leg of a pair it would read as
    # fault-layer overhead (see check_ft_overhead).
    gc.collect()
    started = time.perf_counter()
    corpus_result = run_campaign(_corpus_spec(quick), workers=1)
    corpus_rows = len(corpus_result.topology_summary())
    timings["corpus_sweep_s"] = time.perf_counter() - started
    # Merged telemetry counters of the corpus workload (empty when telemetry
    # is disabled): where the corpus wall-clock went, cache layer by layer.
    corpus_counters = corpus_result.merged_counters()

    # The same corpus workload with the fault-tolerance layer armed but
    # idle (retries + timeout + quarantine configured, zero faults firing):
    # the *_ft_s timings exist so CI can gate the layer's overhead against
    # the fault-free baseline (see check_ft_overhead).
    ft_policy = ExecutionPolicy(max_retries=2, cell_timeout=600.0, on_error="quarantine")
    gc.collect()
    started = time.perf_counter()
    ft_result = run_campaign(_corpus_spec(quick), workers=1, policy=ft_policy)
    timings["corpus_sweep_ft_s"] = time.perf_counter() - started
    assert not ft_result.quarantined, "idle fault layer must quarantine nothing"

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        cache_dir = Path(tmp) / "cache"
        results = Path(tmp) / "results.sqlite"
        spec = _sweep_spec(quick)

        started = time.perf_counter()
        cold = run_campaign(spec, workers=1, cache_dir=cache_dir, results=results)
        timings["sweep_cold_s"] = time.perf_counter() - started

        started = time.perf_counter()
        run_campaign(spec, workers=1, cache_dir=cache_dir)
        timings["sweep_warm_s"] = time.perf_counter() - started

        gc.collect()
        started = time.perf_counter()
        run_campaign(spec, workers=workers, cache_dir=cache_dir)
        timings["sweep_parallel_s"] = time.perf_counter() - started

        gc.collect()
        started = time.perf_counter()
        run_campaign(spec, workers=workers, cache_dir=cache_dir, policy=ft_policy)
        timings["sweep_parallel_ft_s"] = time.perf_counter() - started

        started = time.perf_counter()
        resumed = run_campaign(
            spec, workers=1, cache_dir=cache_dir, results=results, resume=True
        )
        timings["sweep_resumed_s"] = time.perf_counter() - started

        offline_cold = cold.offline_seconds()
        cells = cold.executed
        resumed_skipped = resumed.skipped

        # Warm-query throughput: the resident ``repro serve`` hot path.
        # The sweep lands in the SQLite campaign store, then one
        # ServeSession answers the same cross-campaign filter query
        # repeatedly with the store handle and engines already warm.
        # Driven in-process (no socket) so the number tracks the query
        # layer, not Unix-socket framing.
        from repro.store.serve import ServeSession

        store_path = Path(tmp) / "results.sqlite"
        run_campaign(spec, workers=1, cache_dir=cache_dir, results=store_path)
        session = ServeSession(cache_dir=cache_dir)
        try:
            query_request = {
                "op": "query",
                "results": str(store_path),
                "filter": "scheme=pr campaign:last1",
            }
            warmup = session.handle(dict(query_request))
            assert warmup.get("ok"), warmup
            query_rounds = 100 if quick else 400
            started = time.perf_counter()
            for _ in range(query_rounds):
                session.handle(dict(query_request))
            query_elapsed = time.perf_counter() - started
        finally:
            session.close()
        query_warm_qps = query_rounds / query_elapsed if query_elapsed else 0.0

        # Under-load throughput: the same warm query while the daemon's
        # job worker executes a submitted campaign in the background.
        # The rate necessarily drops (one GIL, two workloads) — the floor
        # gate asserts the service keeps *answering* during a job instead
        # of blocking behind it (head-of-line protection).
        session = ServeSession(
            cache_dir=cache_dir, jobs_path=Path(tmp) / "jobs.sqlite"
        )
        try:
            warmup = session.handle(dict(query_request))
            assert warmup.get("ok"), warmup
            submitted = session.handle({
                "op": "submit",
                "spec": spec.to_dict(),
                "results": str(Path(tmp) / "load.sqlite"),
                "workers": 1,
            })
            assert submitted.get("ok"), submitted
            load_rounds = 0
            started = time.perf_counter()
            while True:
                response = session.handle(dict(query_request))
                assert response.get("ok"), response
                load_rounds += 1
                job = session.handle(
                    {"op": "job", "job_id": submitted["job_id"]}
                )
                if job["job"]["state"] not in ("queued", "running"):
                    break
            load_elapsed = time.perf_counter() - started
        finally:
            session.close()
        query_warm_qps_under_load = (
            load_rounds / load_elapsed if load_elapsed else 0.0
        )

    # Incremental-repair workload: serial, in-process, so the engine cache
    # counters below describe this process's work.  Runs after the sweep
    # block — growing the parent heap before the parallel leg forks would
    # bill copy-on-write churn to ``sweep_parallel_s``.
    started = time.perf_counter()
    run_campaign(_incremental_spec(quick), workers=1)
    timings["sweep_incremental_s"] = time.perf_counter() - started
    engine_info = aggregate_cache_info()

    timings["sweep_total_s"] = (
        timings["sweep_cold_s"]
        + timings["sweep_warm_s"]
        + timings["sweep_parallel_s"]
        + timings["sweep_resumed_s"]
    )
    return {
        "timings": {name: round(value, 4) for name, value in timings.items()},
        # Higher-is-better rates live apart from "timings" so the
        # lower-is-better regression check never sees them.
        "throughput": {
            "query_warm_qps": round(query_warm_qps, 1),
            "query_warm_qps_under_load": round(query_warm_qps_under_load, 1),
        },
        "meta": {
            "quick": quick,
            "workers": workers,
            "cells": cells,
            "corpus_topologies": len(corpus_result.spec.topologies),
            "corpus_summary_rows": corpus_rows,
            "repair_hits": engine_info.get("repair_hits", 0),
            "repair_fallbacks": engine_info.get("repair_fallbacks", 0),
            "corpus_counters": corpus_counters,
            "offline_cold_s": round(offline_cold, 4),
            "resumed_skipped": resumed_skipped,
            "query_rounds": query_rounds,
            "load_rounds": load_rounds,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
    }


#: (fault-layer timing, fault-free timing) pairs compared by
#: :func:`check_ft_overhead`.
FT_OVERHEAD_PAIRS = (
    ("corpus_sweep_ft_s", "corpus_sweep_s"),
    ("sweep_parallel_ft_s", "sweep_parallel_s"),
)


def check_ft_overhead(
    document: Dict[str, Any],
    limit: float = 0.03,
    floor_s: float = 0.05,
) -> List[str]:
    """Violations of the idle fault-layer overhead budget, empty when ok.

    Compares each ``*_ft_s`` timing against its fault-free twin *from the
    same run* (same machine, same thermal state — the only comparison where
    a 3% relative budget is meaningful).  ``floor_s`` is an absolute noise
    floor: quick-mode legs finish in well under 100 ms, where 3% is below
    scheduler jitter, so a delta must exceed BOTH the relative budget and
    the floor to count as a violation.
    """
    timings = document.get("timings", {})
    violations: List[str] = []
    for ft_name, base_name in FT_OVERHEAD_PAIRS:
        ft_value = timings.get(ft_name)
        base_value = timings.get(base_name)
        if not isinstance(ft_value, (int, float)) or not isinstance(
            base_value, (int, float)
        ):
            continue
        delta = ft_value - base_value
        if delta > base_value * limit and delta > floor_s:
            violations.append(
                f"{ft_name}: {ft_value:.3f}s is {delta:.3f}s over fault-free "
                f"{base_name} {base_value:.3f}s (> {limit:.0%} and > {floor_s:.2f}s)"
            )
    return violations


def check_regression(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float = 0.25,
) -> List[str]:
    """Timings in ``current`` that exceed the baseline by more than ``tolerance``.

    Only timing keys present in both documents are compared; a missing key is
    not a regression (it lets the baseline trail the benchmark's evolution).
    Returns human-readable violation strings, empty when the check passes.
    """
    violations: List[str] = []
    baseline_timings = baseline.get("timings", {})
    current_timings = current.get("timings", {})
    for name, allowed in sorted(baseline_timings.items()):
        measured = current_timings.get(name)
        if measured is None or not isinstance(allowed, (int, float)):
            continue
        budget = allowed * (1.0 + tolerance)
        if measured > budget:
            violations.append(
                f"{name}: {measured:.3f}s exceeds baseline {allowed:.3f}s "
                f"+{tolerance:.0%} (budget {budget:.3f}s)"
            )
    return violations


def check_throughput(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float = 0.25,
) -> List[str]:
    """Throughput rates in ``current`` that fall short of the baseline.

    The mirror image of :func:`check_regression` for higher-is-better
    numbers (the ``throughput`` section, e.g. ``query_warm_qps``): a rate
    violates when it drops below ``baseline / (1 + tolerance)``.  Only keys
    present in both documents are compared, so a baseline can trail the
    benchmark's evolution without failing the gate.
    """
    violations: List[str] = []
    baseline_rates = baseline.get("throughput", {})
    current_rates = current.get("throughput", {})
    for name, required in sorted(baseline_rates.items()):
        measured = current_rates.get(name)
        if measured is None or not isinstance(required, (int, float)):
            continue
        floor = required / (1.0 + tolerance)
        if measured < floor:
            violations.append(
                f"{name}: {measured:.1f}/s is below baseline {required:.1f}/s "
                f"-{tolerance:.0%} (floor {floor:.1f}/s)"
            )
    return violations


def write_bench(document: Dict[str, Any], path: Union[str, Path]) -> Path:
    """Write a timing document as pretty JSON (sorted keys).

    When the target file already carries a perf-history trajectory (the
    committed ``BENCH_sweep.json`` keeps one entry per optimization PR under
    ``history``) and the new document does not bring its own, the existing
    history and note are preserved: a routine local or CI bench run
    refreshes ``timings``/``meta`` without silently erasing the recorded
    trajectory, while a document that deliberately updates the trajectory
    wins over the stale one.
    """
    path = Path(path)
    if path.exists() and "history" not in document:
        try:
            previous = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            previous = {}
        if isinstance(previous, dict) and "history" in previous:
            merged = dict(previous)
            merged.update(document)
            document = merged
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


def load_bench(path: Union[str, Path]) -> Dict[str, Any]:
    """Load a timing document written by :func:`write_bench`."""
    return json.loads(Path(path).read_text())
