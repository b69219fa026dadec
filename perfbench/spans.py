"""In-memory span tracing around the public entry points of each layer.

The benchmark never edits the program: a traced process replaces each entry
point listed in :data:`TARGETS` with a wrapper that records a span (name,
start, end, parent span, request id) and calls the original.  Class methods
are patched on the class that defines them; module functions under the name
their caller looks up at call time.  Spans stay in memory until the process
writes them out with :meth:`SpanRecorder.dump`.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from perfbench.workloads import CORPUS, FIG2, SERVE


class Target(NamedTuple):
    """One traced entry point and the workloads that must reach it."""

    span: str
    module: str
    attribute: str
    expected_on: Tuple[str, ...]
    #: Extracts the request id from the call's arguments (outermost spans).
    request_of: Optional[Callable[..., Any]] = None


def _cell_id(cell, *args, **kwargs):
    return getattr(cell, "cell_id", None)


def _bench_id(session, request, *args, **kwargs):
    return request.get("bench_id") if isinstance(request, dict) else None


CAMPAIGNS = (FIG2, CORPUS)

#: Every traced entry point.  ``expected_on`` feeds the layer-coverage guard:
#: a traced run of one of those workloads fails when the entry point was
#: never called, so a renamed method cannot silently zero a layer metric.
TARGETS: Tuple[Target, ...] = (
    Target("graph.sssp_tree", "repro.graph.spcache", "ShortestPathEngine.sssp_tree",
           CAMPAIGNS),
    Target("graph.dijkstra_indexed", "repro.graph.compiled", "CompiledGraph.dijkstra_indexed",
           CAMPAIGNS),
    Target("graph.sssp_repair_content", "repro.graph.compiled",
           "CompiledGraph.sssp_repair_content", CAMPAIGNS),
    Target("embedding.embed", "repro.runner.cache", "embed", (FIG2, CORPUS, SERVE)),
    Target("core.pr.deliver_many", "repro.core.scheme", "PacketRecycling.deliver_many",
           CAMPAIGNS),
    Target("baselines.fcp.deliver_many", "repro.baselines.fcp",
           "FailureCarryingPackets.deliver_many", CAMPAIGNS),
    Target("baselines.reconvergence.deliver_many", "repro.baselines.reconvergence",
           "Reconvergence.deliver_many", CAMPAIGNS),
    Target("baselines.lfa.deliver_many", "repro.baselines.lfa",
           "LoopFreeAlternates.deliver_many", (CORPUS,)),
    # The generic hop-by-hop batch path; of the campaign schemes only
    # NoProtection uses it.
    Target("forwarding.deliver_many", "repro.forwarding.scheme",
           "ForwardingScheme.deliver_many", (CORPUS,)),
    Target("forwarding.deliver", "repro.forwarding.scheme", "ForwardingScheme.deliver",
           (SERVE,)),
    Target("failures.generate", "repro.runner.executor", "generate_scenarios", CAMPAIGNS),
    Target("runner.run_cell", "repro.runner.executor", "run_cell", CAMPAIGNS,
           request_of=_cell_id),
    Target("store.append_record", "repro.store.database", "CampaignStore.append_record",
           (CORPUS,)),
    Target("store.query", "repro.store.database", "CampaignStore.query", (SERVE,)),
    Target("serve.handle", "repro.store.serve", "ServeSession.handle", (SERVE,),
           request_of=_bench_id),
    # The cell's aggregation step: the metrics functions the executor calls.
    Target("metrics.aggregate", "repro.runner.executor", "overhead_comparison", CAMPAIGNS),
    Target("metrics.aggregate", "repro.runner.executor", "ccdf_curve", CAMPAIGNS),
    Target("metrics.aggregate", "repro.runner.executor", "distribution_summary", CAMPAIGNS),
)


class _Span:
    __slots__ = ("name", "start", "end", "parent", "request")

    def __init__(self, name: str, start: float, parent: Optional["_Span"], request: Any):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request


def resolve(target: Target) -> Tuple[Any, str, Callable[..., Any]]:
    """``(owner, attribute, current value)`` of a target's entry point.

    A method must be defined on the named class itself, not merely
    inherited, so the patch lands where every caller looks it up.
    """
    owner: Any = importlib.import_module(target.module)
    *path, attribute = target.attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    if path:
        if attribute not in vars(owner):
            raise AttributeError(f"{target.module}.{target.attribute} is not defined")
        return owner, attribute, vars(owner)[attribute]
    return owner, attribute, getattr(owner, attribute)


class SpanRecorder:
    """Collects spans in memory; one call stack per thread."""

    def __init__(self) -> None:
        self.spans: List[_Span] = []
        self._local = threading.local()

    def wrap(
        self,
        name: str,
        function: Callable[..., Any],
        request_of: Optional[Callable[..., Any]] = None,
    ) -> Callable[..., Any]:
        spans = self.spans
        local = self._local
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            request = parent.request if parent is not None else None
            if request is None and request_of is not None:
                request = request_of(*args, **kwargs)
            span = _Span(name, clock(), parent, request)
            spans.append(span)
            stack.append(span)
            try:
                return function(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()

        return traced

    def install(self, targets: Iterable[Target] = TARGETS) -> None:
        """Patch every target; a missing entry point raises ``AttributeError``."""
        for target in targets:
            owner, attribute, original = resolve(target)
            setattr(owner, attribute, self.wrap(target.span, original, target.request_of))

    def rows(self) -> List[list]:
        """Spans as ``[name, start, end, parent index, request id]`` rows."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [
            [s.name, s.start, s.end, index[id(s.parent)] if s.parent is not None else -1,
             s.request]
            for s in self.spans
        ]

    def dump(self, path) -> None:
        with open(path, "w") as stream:
            json.dump(self.rows(), stream, separators=(",", ":"))


def load_rows(path) -> List[list]:
    with open(path) as stream:
        return json.load(stream)


def self_times(rows: Sequence[list]) -> List[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent, _ in rows:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for i, (name, start, end, parent, _) in enumerate(rows):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(i, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append((end - start) - covered)
    return result


def layer_totals(
    rows: Sequence[list], requests_only: bool = False
) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, inclusive ``s`` and ``self_s``.

    Inclusive time counts only the outermost span of a name, so a traced
    entry point that (indirectly) calls itself is not counted twice.
    ``requests_only`` skips spans outside any request (e.g. daemon warm-up).
    """
    selfs = self_times(rows)
    totals: Dict[str, Dict[str, float]] = {}
    for i, (name, start, end, parent, request) in enumerate(rows):
        if requests_only and request is None:
            continue
        entry = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += selfs[i]
        ancestor = parent
        nested = False
        while ancestor >= 0:
            if rows[ancestor][0] == name:
                nested = True
                break
            ancestor = rows[ancestor][3]
        if not nested:
            entry["s"] += end - start
    return totals


def missing_coverage(workload: str, totals: Dict[str, Dict[str, float]]) -> List[str]:
    """Entry points the workload is meant to exercise but never called."""
    return sorted({
        target.span
        for target in TARGETS
        if workload in target.expected_on and not totals.get(target.span, {}).get("calls")
    })
