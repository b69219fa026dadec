"""Start a ``repro serve`` daemon the way the CLI does, for the benchmark.

The launcher builds the same :class:`ServeSession` as ``repro serve --warm
abilene geant teleglobe --schemes pr fcp reconvergence lfa`` and calls
:func:`serve_forever`.  With ``--trace 1`` it first wraps the layer entry
points (``ServeSession.handle`` among them).  After the ``shutdown`` op it
writes its peak RSS, engine cache totals and spans to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--socket", required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)

    from perfbench import workloads
    from repro import telemetry
    from repro.graph.spcache import aggregate_cache_info
    from repro.store.serve import ServeSession, jobs_path_for, serve_forever

    recorder = None
    if args.trace:
        from perfbench.spans import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()
    session = ServeSession(cache_dir=args.cache_dir, jobs_path=jobs_path_for(args.socket))
    for topology in workloads.SERVE_TOPOLOGIES:
        response = session.handle(
            {"op": "warm", "topology": topology, "schemes": list(workloads.SERVE_SCHEMES)}
        )
        if not response.get("ok"):
            print(f"cannot warm {topology}: {response.get('error')}", file=sys.stderr)
            return 1
    served = serve_forever(args.socket, session, max_inflight=8, deadline_s=30.0)
    collector = telemetry.active_collector()
    result = {
        "served": served,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cache_info": aggregate_cache_info(),
        "counters": dict(collector.snapshot()["counters"]) if collector is not None else {},
        "spans": recorder.rows() if recorder is not None else [],
    }
    with open(args.out, "w") as stream:
        json.dump(result, stream)
    return 0


if __name__ == "__main__":
    sys.exit(main())
