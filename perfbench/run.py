#!/usr/bin/env python3
"""Run one benchmark workload against the program in this source checkout.

    python3 perfbench/run.py --workload fig2-multi --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout (the directory holding ``src/repro``).
Every repetition starts a fresh program process, so warm caches of one
repetition cannot flatter the next.  Human-readable lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` makes a separate traced run and reports
the per-layer metrics.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

if not __package__:
    # Run as a script: make the ``perfbench`` package importable.
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import spans, stats, workloads  # noqa: E402

#: The checkout under test: the directory the benchmark is run from.
ROOT = Path.cwd()

#: Fewest fresh-process campaign repetitions per run.
MIN_REPS = 4
#: Set-up-only daemons started before each measured serve-mixed daemon.
SERVE_SETUP_PROBES = 2
#: Campaign children run this many at a time.  On a 2-vCPU VM each vCPU
#: slows down in bursts of its own, so two side by side double the
#: readings a run gets without waiting for one another.
SIDE_BY_SIDE = 2
#: Program processes the serve-mixed load is spread over (untraced run).
SERVE_DAEMONS = 5
#: serve-mixed requests per second of ``--seconds``: about the rate the
#: daemon sustained when the benchmark was defined (one 2-vCPU Xeon VM).
SERVE_REQUESTS_PER_SECOND = 600
#: How many successful deliver answers are recomputed in the load process.
VERIFY_DELIVERS = 200
#: Longest a single child process may take.
CHILD_TIMEOUT_S = 150.0


class BenchError(Exception):
    """The benchmark could not produce a trustworthy result."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def stderr_tail(path: Path) -> str:
    try:
        return path.read_text()[-2000:]
    except OSError:
        return ""


def listed(values, digits: int = 3) -> str:
    return ", ".join(f"{value:.{digits}f}" for value in values)


def ratio(hits: float, misses: float) -> Tuple[float, float]:
    base = hits + misses
    return (hits / base if base else 0.0), base


# ----------------------------------------------------------------------
# campaign workloads
# ----------------------------------------------------------------------
def campaign_reps(
    workload: str, seed: int, work: Path, first: int, traces: List[int], setup_only: bool = False
) -> List[Tuple[float, Optional[Dict[str, Any]]]]:
    """Run one campaign child per entry of ``traces``, side by side.

    Returns ``(setup seconds, result or None)`` per child.  A child prints
    ``READY <time.monotonic()>`` when set-up is done; the monotonic clock is
    system-wide, so set-up is that minus the moment the child was spawned.
    """
    children = []
    try:
        for rep, trace in enumerate(traces, first):
            cmd = [
                sys.executable, "-m", "perfbench.campaign_child",
                "--workload", workload, "--seed", str(seed), "--work", str(work),
                "--rep", str(rep), "--trace", str(trace),
            ]
            if setup_only:
                cmd.append("--setup-only")
            err_path = work / f"child{rep}.err"
            with open(err_path, "w") as err:
                spawned = time.monotonic()
                proc = subprocess.Popen(
                    cmd, stdout=subprocess.PIPE, stderr=err, text=True, cwd=ROOT,
                    env=child_env(),
                )
            children.append((proc, spawned, err_path))
        results = []
        for proc, spawned, err_path in children:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
            lines = out.strip().splitlines()
            if proc.returncode != 0 or not lines or not lines[0].startswith("READY "):
                raise BenchError(
                    f"{workload} child exited with {proc.returncode}:\n{stderr_tail(err_path)}"
                )
            setup = float(lines[0].split()[1]) - spawned
            results.append((setup, None if setup_only else json.loads(lines[-1])))
        return results
    finally:
        for proc, _, _ in children:
            stop(proc)


def reference_digest(workload: str, seed: int) -> str:
    """The recorded payload digest; ``corpus-cold`` has one for every seed."""
    expected = json.loads((Path(__file__).parent / "digests.json").read_text())[workload]
    if isinstance(expected, dict):
        expected = expected.get(str(workloads.campaign_seed(seed)))
    if expected is None:
        raise BenchError(f"no reference digest for {workload} campaign seed "
                         f"{workloads.campaign_seed(seed)}")
    return expected


def count_failures(reps: List[Dict[str, Any]], expected: str) -> Tuple[int, int, int]:
    """``(attempted cells, failed cells, digest mismatches)`` over the reps.

    A quarantined cell fails; a repetition whose payload digest differs from
    the reference fails every one of its cells.
    """
    attempted = failed = mismatches = 0
    for rep in reps:
        attempted += rep["cells"]
        if rep["digest"] != expected or rep["records"] + rep["quarantined"] != rep["cells"]:
            mismatches += 1
            failed += rep["cells"]
        else:
            failed += rep["quarantined"]
    return attempted, failed, mismatches


def run_campaign_workload(args, work: Path) -> Dict[str, Any]:
    # Each round: set-up-only children, then repetitions, side by side.  A
    # traced run pairs every traced repetition with an untraced one.
    traces = [0, 1] if args.trace else [0] * SIDE_BY_SIDE
    reps: List[Tuple[int, Dict[str, Any]]] = []
    setups: List[float] = []
    started = time.perf_counter()
    while True:
        for setup, _ in campaign_reps(args.workload, args.seed, work, len(reps),
                                      [0] * SIDE_BY_SIDE, setup_only=True):
            setups.append(setup)
        for trace, (setup, result) in zip(traces, campaign_reps(
            args.workload, args.seed, work, len(reps), traces
        )):
            setups.append(setup)
            reps.append((trace, result))
        if len(reps) >= MIN_REPS and time.perf_counter() - started >= args.seconds:
            break

    attempted, failed, mismatches = count_failures(
        [r for _, r in reps], reference_digest(args.workload, args.seed)
    )
    plain = [r for t, r in reps if not t]
    walls = [r["wall_s"] for r in plain]
    rates = [r["outcomes"] / r["wall_s"] for r in plain]
    # Fastest readings, not medians: on a shared VM the CPU speed drifts by
    # a third from second to second, and the fastest reading of a fixed
    # piece of work is the steadiest across runs.  Medians are printed too.
    fastest = stats.fastest_total([r["steps"] for r in plain])
    metrics = {
        "setup_s": min(setups),
        "ops_per_s": plain[0]["outcomes"] / fastest,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    lines = [
        f"workload {args.workload}: seed {args.seed}, {len(reps)} repetitions"
        f" ({len(reps) - len(plain)} traced), each a fresh process",
        f"setup_s {metrics['setup_s']:.4f} s fastest, {statistics.median(setups):.4f} s median"
        f" (of {len(setups)} set-ups: {listed(setups)})",
        f"wall_s {statistics.median(walls):.4f} s (median of {len(walls)}: {listed(walls)});"
        f" {fastest:.4f} s from each step's fastest repetition",
        f"outcomes_per_s {metrics['ops_per_s']:.1f} 1/s fastest, {statistics.median(rates):.1f}"
        f" median (of {listed(rates, 1)}; base {plain[0]['outcomes']} outcomes per repetition)",
        f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB",
        f"failed_ratio {failed / attempted:.4f} ({failed} of {attempted} cells;"
        f" {mismatches} repetitions with a payload digest mismatch)",
    ]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "lines": lines}
    if not args.trace:
        result["metrics"] = metrics
        return result

    traced = [r for t, r in reps if t]
    totals: Dict[str, Dict[str, float]] = {}
    counters: Dict[str, float] = {}
    cache_info: Dict[str, float] = {}
    for rep in traced:
        for name, entry in spans.layer_totals(spans.load_rows(rep["spans"])).items():
            into = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key, value in entry.items():
                into[key] += value / len(traced)
        for name, value in rep["counters"].items():
            counters[name] = counters.get(name, 0) + value / len(traced)
        for name, value in rep["cache_info"].items():
            cache_info[name] = cache_info.get(name, 0) + value / len(traced)
    guard(args.workload, totals)
    wall = statistics.fmean(r["wall_s"] for r in traced)
    layer = layer_metrics(totals, cache_info, counters)
    layer["runner.overhead_s"] = wall - layer["runner.run_cell.s"]
    layer["trace.overhead_ratio"] = wall / statistics.fmean(r["wall_s"] for r in plain)
    result["metrics"] = layer
    result["lines"] += share_lines(totals, wall, "traced repetition wall")
    return result


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
class Daemon:
    """One ``repro serve`` process started through the benchmark's launcher."""

    def __init__(self, work: Path, index: int, trace: int) -> None:
        self.work = work
        self.index = index
        self.trace = trace
        # Relative to the checkout root: AF_UNIX paths are short.
        self.socket = str((work / f"d{index}.sock").relative_to(ROOT))
        self.out = work / f"daemon{index}.json"
        self.err = work / f"daemon{index}.err"
        self.proc: Optional[subprocess.Popen] = None

    def start(self) -> float:
        """Spawn, warm and wait for the first ``ping`` answer; returns set-up seconds."""
        from repro.errors import ReproError
        from repro.store.serve import request

        cmd = [
            sys.executable, "-m", "perfbench.serve_launcher",
            "--socket", f"d{self.index}.sock", "--cache-dir", f"cache{self.index}",
            "--out", self.out.name, "--trace", str(self.trace),
        ]
        with open(self.err, "w") as err:
            started = time.perf_counter()
            self.proc = subprocess.Popen(
                cmd, stdout=subprocess.DEVNULL, stderr=err, cwd=self.work, env=child_env()
            )
        while True:
            try:
                request(self.socket, {"op": "ping"}, timeout=30.0)
                return time.perf_counter() - started
            except ReproError:
                if self.proc.poll() is not None:
                    raise BenchError(f"serve daemon exited:\n{stderr_tail(self.err)}")
                if time.perf_counter() - started > CHILD_TIMEOUT_S:
                    raise BenchError("serve daemon never answered ping")
                time.sleep(0.002)

    def shutdown(self) -> Dict[str, Any]:
        from repro.store.serve import request

        try:
            request(self.socket, {"op": "shutdown"}, timeout=30.0)
            self.proc.wait(timeout=30.0)
        finally:
            stop(self.proc)
        if self.proc.returncode != 0:
            raise BenchError(f"serve daemon exited with {self.proc.returncode}:\n"
                             f"{stderr_tail(self.err)}")
        return json.loads(self.out.read_text())


def drive(daemon: Daemon, requests: List[Dict], ledgers, answered: List[tuple]) -> Dict:
    """Closed loop, one request outstanding; ``rtts[i]`` is ``inf`` when request i failed."""
    from repro.errors import ReproError
    from repro.store.serve import request

    rtts: List[float] = []
    started = time.perf_counter()
    for req in requests:
        ledger = ledgers[req["op"]]
        rtts.append(math.inf)
        sent = time.perf_counter()
        try:
            response = request(daemon.socket, req, timeout=10.0)
        except ReproError:
            ledger.fail("ReproError")
            continue
        rtt = time.perf_counter() - sent
        reason = stats.response_failure(response)
        if reason is not None:
            ledger.fail(reason)
            continue
        rtts[-1] = rtt
        answered.append((req, response, ledger.ok(rtt * 1000.0)))
    ok = sum(rtt < math.inf for rtt in rtts)
    return {"wall_s": time.perf_counter() - started, "ok": ok, "rtts": rtts}


def verify_serve(seed: int, answered: List[tuple], expected: Dict[str, int], ledgers) -> int:
    """Recompute query counts and a seeded sample of deliver answers."""
    from repro.runner.cache import cached_embedding
    from repro.runner.executor import build_scheme, load_topology
    from repro.runner.spec import EMBEDDING_SCHEMES

    wrong = 0
    delivers = []
    for req, response, index in answered:
        if req["op"] == "query":
            if response.get("records") != expected[req["filter"]]:
                ledgers["query"].mark_wrong(index, "mismatch")
                wrong += 1
        else:
            delivers.append((req, response, index))
    rng = random.Random(seed)
    sample = rng.sample(delivers, min(VERIFY_DELIVERS, len(delivers)))
    schemes: Dict[tuple, Any] = {}
    for req, response, index in sample:
        key = (req["topology"], req["scheme"])
        if key not in schemes:
            graph = load_topology(req["topology"])
            embedding = cached_embedding(graph) if req["scheme"] in EMBEDDING_SCHEMES else None
            schemes[key] = build_scheme(req["scheme"], graph, embedding=embedding)
        outcome = schemes[key].deliver(req["source"], req["destination"], failed_links=req["failed"])
        if (outcome.status.value, outcome.hops, outcome.cost) != (
            response.get("status"), response.get("hops"), response.get("cost")
        ):
            ledgers["deliver"].mark_wrong(index, "mismatch")
            wrong += 1
    return wrong


def run_serve_workload(args, work: Path) -> Dict[str, Any]:
    from repro.runner.executor import run_campaign
    from repro.store.database import CampaignStore

    # The query fixture is built before any daemon starts; not timed.
    fixture = work / workloads.FIXTURE_STORE
    handle = run_campaign(workloads.fixture_spec(), results=fixture)
    handle.store.close()
    store = CampaignStore(fixture)
    expected = {f: len(store.query(f)) for f in workloads.QUERY_FILTERS}
    store.close()

    plan = [0, 1] if args.trace else [0] * SERVE_DAEMONS
    # A fixed request count, not a time window: the daemon's memo sizes
    # (and so its peak RSS) depend on how many requests it served.  Every
    # daemon replays the same requests from a cold start, so the daemons
    # are repetitions of one piece of work.
    per_daemon = int(args.seconds * SERVE_REQUESTS_PER_SECOND / len(plan))
    requests = list(itertools.islice(
        workloads.request_stream(args.seed, workloads.serve_topologies()), per_daemon
    ))
    ledgers = {"deliver": stats.OpLedger(), "query": stats.OpLedger()}
    answered: List[tuple] = []
    runs = []
    setups = []
    # Before each measured daemon, set-up probes: started, pinged, shut down.
    daemons = [probe for trace in plan for probe in [None] * SERVE_SETUP_PROBES + [trace]]
    for index, trace in enumerate(daemons):
        daemon = Daemon(work, index, trace or 0)
        try:
            setups.append(daemon.start())
            run = drive(daemon, requests, ledgers, answered) if trace is not None else {}
            run.update(daemon.shutdown(), trace=trace)
        finally:
            if daemon.proc is not None:
                stop(daemon.proc)
        if trace is not None:
            runs.append(run)
    wrong = verify_serve(args.seed, answered, expected, ledgers)

    attempted = sum(ledger.attempted for ledger in ledgers.values())
    failed = sum(ledger.failed for ledger in ledgers.values())
    plain = [run for run in runs if not run["trace"]]
    rates = [run["ok"] / run["wall_s"] for run in plain]
    # Fastest readings, as for the campaign workloads: each request's
    # fastest round trip over the daemons that replayed it.
    fastest = stats.fastest_total([run["rtts"] for run in plain])
    metrics = {
        "setup_s": min(setups),
        "ops_per_s": per_daemon / fastest,
        "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in plain),
    }
    lines = [
        f"workload serve-mixed: seed {args.seed}, {len(runs)} daemons"
        f" ({len(runs) - len(plain)} traced) each replaying the same {per_daemon} requests,"
        f" closed loop, one request outstanding",
        f"setup_s {metrics['setup_s']:.4f} s fastest, {statistics.median(setups):.4f} s median"
        f" (of {len(setups)} daemon set-ups: {listed(setups)})",
        f"requests_per_s {metrics['ops_per_s']:.1f} 1/s from each request's fastest round trip,"
        f" {statistics.median(rates):.1f} median daemon (of {listed(rates, 1)})",
    ]
    for op, ledger in ledgers.items():
        if not ledger.latencies_ms:
            raise BenchError(f"no {op} requests were sent")
        p50 = stats.percentile(ledger.latencies_ms, 50)
        top = stats.tail(ledger.latencies_ms)
        tail_text = (
            f"p{top[0]:g} {top[1]:.3f} ms ({top[2]} samples beyond)" if top else "no tail"
        )
        lines.append(f"{op}_p50_ms {p50:.3f} ms, {tail_text}; n={len(ledger.latencies_ms)}")
    errors: Counter = Counter()
    for ledger in ledgers.values():
        errors.update(ledger.errors)
    lines += [
        f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB",
        f"failed_ratio {failed / attempted:.4f} ({failed} of {attempted} requests;"
        f" {wrong} wrong answers; errors {dict(sorted(errors.items()))})",
    ]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "lines": lines}
    if not args.trace:
        result["metrics"] = metrics
        return result

    [traced] = [run for run in runs if run["trace"]]
    rows = traced["spans"]
    totals = spans.layer_totals(rows)
    guard(args.workload, totals)
    handled = {}
    for name, start, end, parent, bench_id in rows:
        if name == "serve.handle" and parent < 0 and bench_id is not None:
            handled[bench_id] = end - start
    by_op: Dict[str, List[float]] = {"deliver": [], "query": []}
    transport = []
    rtt_total = 0.0
    for req, rtt in zip(requests, traced["rtts"]):
        if req["bench_id"] in handled and rtt < math.inf:
            by_op[req["op"]].append(handled[req["bench_id"]] * 1000.0)
            transport.append((rtt - handled[req["bench_id"]]) * 1000.0)
            rtt_total += rtt
    counters = traced.get("counters", {})
    layer = layer_metrics(totals, traced["cache_info"], counters)
    layer["serve.handle.calls"] = len(handled)
    layer["serve.handle.deliver_ms"] = statistics.median(by_op["deliver"])
    layer["serve.handle.query_ms"] = statistics.median(by_op["query"])
    layer["serve.transport_ms"] = statistics.median(transport)
    [untraced] = plain
    layer["trace.overhead_ratio"] = (traced["wall_s"] / traced["ok"]) / (
        untraced["wall_s"] / untraced["ok"]
    )
    result["metrics"] = layer
    handle_total = sum(handled.values())
    result["lines"] += [
        f"traced daemon: {len(handled)} requests; ServeSession.handle"
        f" {handle_total / rtt_total:.1%} and transport {1 - handle_total / rtt_total:.1%}"
        f" of client round-trip time",
    ] + share_lines(spans.layer_totals(rows, requests_only=True), handle_total,
                    "ServeSession.handle time of the requests")
    return result


# ----------------------------------------------------------------------
# per-layer reporting
# ----------------------------------------------------------------------
def guard(workload: str, totals: Dict[str, Dict[str, float]]) -> None:
    """The layer-coverage guard: every expected entry point was called."""
    missing = spans.missing_coverage(workload, totals)
    if missing:
        raise BenchError(
            f"traced {workload} never called: {', '.join(missing)}"
            " (renamed or no longer on this workload's path?)"
        )


def layer_metrics(
    totals: Dict[str, Dict[str, float]],
    cache_info: Dict[str, float],
    counters: Dict[str, float],
) -> Dict[str, float]:
    def get(span: str, key: str) -> float:
        return totals.get(span, {}).get(key, 0.0)

    # Filled in by the workload that has them; zero elsewhere.
    layer = dict.fromkeys(
        ("runner.overhead_s", "serve.handle.calls", "serve.handle.deliver_ms",
         "serve.handle.query_ms", "serve.transport_ms"),
        0.0,
    )
    for span in ("graph.sssp_tree", "graph.dijkstra_indexed", "graph.sssp_repair_content",
                 "embedding.embed", "runner.run_cell", "store.append_record", "store.query"):
        layer[f"{span}.calls"] = get(span, "calls")
    for span in ("graph.dijkstra_indexed", "graph.sssp_repair_content", "embedding.embed",
                 "failures.generate", "runner.run_cell", "store.append_record", "store.query",
                 "metrics.aggregate"):
        layer[f"{span}.s"] = get(span, "s")
    for span in ("graph.sssp_tree", "core.pr.deliver_many", "baselines.fcp.deliver_many",
                 "baselines.reconvergence.deliver_many", "baselines.lfa.deliver_many",
                 "forwarding.deliver_many", "forwarding.deliver"):
        layer[f"{span}.self_s"] = get(span, "self_s")
    for name, (hits, misses) in {
        "graph.repair_hit_ratio": (cache_info.get("repair_hits", 0),
                                   cache_info.get("repair_fallbacks", 0)),
        "graph.engine_hit_ratio": (cache_info.get("hits", 0), cache_info.get("misses", 0)),
        "baselines.outcome_memo.hit_ratio": (counters.get("outcome_memo/hits", 0),
                                             counters.get("outcome_memo/misses", 0)),
        "runner.artifact_cache.hit_ratio": (counters.get("artifact_cache/hits", 0),
                                            counters.get("artifact_cache/misses", 0)),
    }.items():
        layer[name], layer[f"{name}.base"] = ratio(hits, misses)
    return layer


def share_lines(totals: Dict[str, Dict[str, float]], whole: float, label: str) -> List[str]:
    """Self time per traced entry point and per layer, as shares of ``whole``."""
    lines = [f"self time as a share of {label} ({whole:.3f} s):"]
    by_layer: Dict[str, float] = {}
    for name, entry in sorted(totals.items(), key=lambda item: -item[1]["self_s"]):
        lines.append(f"  {name:<40} {entry['self_s']:9.3f} s  {entry['self_s'] / whole:6.1%}"
                     f"  ({entry['calls']:.0f} calls)")
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + entry["self_s"]
    lines.append("  by layer: " + ", ".join(
        f"{layer} {value / whole:.1%}" for layer, value in sorted(by_layer.items(),
                                                                   key=lambda item: -item[1])
    ))
    return lines


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: src/repro not found; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.workload == workloads.SERVE:
            result = run_serve_workload(args, work)
        else:
            result = run_campaign_workload(args, work)
        missing = sorted(set(units) - set(result["metrics"]))
        if missing:
            raise BenchError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for line in result["lines"]:
        print(line)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
