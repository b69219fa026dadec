"""One repetition of a campaign workload, in a fresh process.

Prints ``READY <time.monotonic()>`` once imports and topology loads are done
(the end of set-up), then runs the campaign(s) and prints one JSON result line.  With
``--trace 1`` the layer entry points are wrapped before anything runs and
the spans are written to ``<work>/spans-<rep>.json`` after the timed phase.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from perfbench import workloads
    from repro.graph.spcache import aggregate_cache_info
    from repro.runner.executor import load_topology, run_campaign
    from repro.runner.policy import ExecutionPolicy

    recorder = None
    if args.trace:
        from perfbench.spans import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()
    specs = workloads.campaign_specs(args.workload, args.seed)
    for spec in specs:
        for topology in spec.topologies:
            load_topology(topology)
    print(f"READY {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return 0

    rep_dir = Path(args.work) / f"rep{args.rep}"
    cold = args.workload == workloads.CORPUS
    # Quarantine instead of aborting, so a failing cell is counted rather
    # than ending the run.
    policy = ExecutionPolicy(on_error="quarantine")
    handles = []
    walls = []
    for i, spec in enumerate(specs):
        started = time.perf_counter()
        handles.append(
            run_campaign(
                spec,
                workers=1,
                cache_dir=rep_dir / "cache" if cold else None,
                results=rep_dir / f"results{i}.sqlite" if cold else None,
                policy=policy,
            )
        )
        walls.append(time.perf_counter() - started)
    # Read before the digest below, whose JSON encoding would add its own peak.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    records = [record for handle in handles for record in handle.records]
    # The timed phase in steps: each cell, then each campaign's time outside
    # its cells (runner overhead, store appends).
    steps = []
    for handle, wall in zip(handles, walls):
        cells = [record["meta"]["elapsed_s"] for record in handle.records]
        steps += cells + [wall - sum(cells)]
    result = {
        "wall_s": sum(walls),
        "steps": steps,
        "cells": sum(spec.cell_count() for spec in specs),
        "records": len(records),
        "quarantined": sum(len(handle.quarantined) for handle in handles),
        "outcomes": sum(record["payload"]["measured_pairs"] for record in records),
        "digest": workloads.payload_digest(records),
        "peak_rss_mb": peak_rss_mb,
    }
    if recorder is not None:
        counters: dict = {}
        for handle in handles:
            for name, value in handle.merged_counters().items():
                counters[name] = counters.get(name, 0) + value
        result["counters"] = counters
        result["cache_info"] = aggregate_cache_info()
        spans_path = Path(args.work) / f"spans-{args.rep}.json"
        recorder.dump(spans_path)
        result["spans"] = str(spans_path)
    for handle in handles:
        if handle.store is not None:
            handle.store.close()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
