"""S1 — campaign runner wall-time: cold vs cached vs parallel vs resumed.

Anchors the perf trajectory of the campaign-runner subsystem on the
Abilene+GEANT grid: a cold campaign pays the offline stage (heuristic
cellular embedding) once per topology; a second invocation with the same
spec serves it from the content-addressed artifact cache and is observably
faster; a resumed run skips every completed cell outright; and a parallel
run produces byte-identical payloads to the serial one.
"""

import tempfile
import time
from pathlib import Path

from repro.experiments.asciiplot import render_table
from repro.runner import CampaignSpec, ScenarioSpec, run_campaign
from repro.runner import cache as cache_module


def _spec() -> CampaignSpec:
    # The local-search embedding heuristic is the expensive offline stage a
    # production deployment would run per topology; the sweep workload is
    # kept small so the offline/online split is visible in the wall times.
    return CampaignSpec(
        topologies=("abilene", "geant"),
        schemes=("reconvergence", "fcp", "pr"),
        scenarios=(ScenarioSpec("multi-link", failures=4, samples=4),),
        embedding_method="local-search",
        embedding_iterations=1200,
        embedding_seed=0,
    )


def _payloads(result):
    return [{k: v for k, v in r.items() if k != "meta"} for r in result.records]


def test_bench_sweep_cold_vs_cached_vs_parallel(benchmark, monkeypatch):
    # Embeddings computed in this process, counted per run: the offline
    # stage is the one thing the artifact cache must skip.
    embed_calls = []
    real_embed = cache_module.embed

    def counting_embed(*args, **kwargs):
        embed_calls.append(1)
        return real_embed(*args, **kwargs)

    monkeypatch.setattr(cache_module, "embed", counting_embed)
    embeds = {}

    def run():
        timings = {}
        with tempfile.TemporaryDirectory() as tmp:
            cache = Path(tmp) / "cache"
            results = Path(tmp) / "results.sqlite"
            spec = _spec()

            started = time.perf_counter()
            cold = run_campaign(spec, workers=1, cache_dir=cache, results=results)
            timings["cold"] = (time.perf_counter() - started, cold)
            embeds["cold"] = len(embed_calls)

            started = time.perf_counter()
            warm = run_campaign(spec, workers=1, cache_dir=cache)
            timings["cached"] = (time.perf_counter() - started, warm)
            embeds["cached"] = len(embed_calls) - embeds["cold"]

            started = time.perf_counter()
            parallel = run_campaign(spec, workers=2, cache_dir=cache)
            timings["parallel (2 workers, warm)"] = (time.perf_counter() - started, parallel)

            started = time.perf_counter()
            resumed = run_campaign(
                spec, workers=1, cache_dir=cache, results=results, resume=True
            )
            timings["resumed"] = (time.perf_counter() - started, resumed)
        return timings

    timings = benchmark.pedantic(run, rounds=1, iterations=1)

    print()
    print("=== Campaign runner: Abilene+GEANT, 3 schemes, 4-link scenarios ===")
    rows = [
        [
            name,
            f"{wall:.2f}s",
            f"{result.offline_seconds():.2f}s",
            result.executed,
            result.skipped,
            result.cache_stats()["hits"],
            result.cache_stats()["misses"],
        ]
        for name, (wall, result) in timings.items()
    ]
    print(render_table(
        ["run", "wall", "offline stage", "executed", "reused", "cache hits", "misses"],
        rows,
    ))

    cold_wall, cold = timings["cold"]
    warm_wall, warm = timings["cached"]
    _, parallel = timings["parallel (2 workers, warm)"]
    resumed_wall, resumed = timings["resumed"]

    # The cold run computes (and persists) one embedding per topology: only
    # the PR cells consult the cache, and there is one per topology here.
    assert cold.cache_stats()["misses"] == 2
    assert embeds["cold"] == 2
    # The cached run never recomputes the offline stage and is observably faster.
    assert warm.cache_stats()["misses"] == 0
    assert embeds["cached"] == 0
    assert warm_wall < cold_wall
    # A resumed run skips every completed cell.
    assert resumed.executed == 0
    assert resumed.skipped == cold.executed
    assert resumed_wall < warm_wall
    # Results are bit-identical across all execution modes.
    assert _payloads(cold) == _payloads(warm) == _payloads(parallel) == _payloads(resumed)
