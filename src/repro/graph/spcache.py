"""Memoized shortest-path engine shared by every routing consumer.

This module is the caching layer between the experiments and the compiled
graph core (:mod:`repro.graph.compiled`):

* :class:`ShortestPathEngine` — per-topology memoization of SSSP trees,
  all-pairs costs, connectivity labels and failure-free path-edge bitmasks.
  SSSP trees live in one LRU-bounded memo keyed by
  ``(source, frozenset(excluded_edges))``.
* :func:`engine_for` — a per-process, content-addressed registry: every
  consumer (routing tables, FCP, LFA, the campaign executor) asking for the
  engine of an equal-content graph gets the *same* engine object, which is
  what makes a sweep's cells share one set of shortest-path trees per worker
  process.

Results returned by the engine are cached objects shared between callers and
must be treated as **read-only**.  Trees carry exactly the distances, parents
and equal-cost tie-breaking of the reference
:func:`repro.graph.shortest_paths.dijkstra`, but their dict insertion order is
unspecified (a repaired tree is a patched copy of the failure-free one), so
no consumer may let it leak into a result.  The equivalence suite in
``tests/graph/test_compiled_equivalence.py`` asserts the content across
randomized topologies and the whole corpus.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.errors import NodeNotFound
from repro.graph.compiled import CompiledGraph, graph_signature
from repro.graph.multigraph import Graph

#: Bound of the per-engine SSSP memo (an entry is one (dist, parent) tree,
#: i.e. O(nodes)), sized from measured LRU reuse distances.  Most trees are
#: asked for once: in the Figure 2e+2f multi-failure campaigns (seed 3),
#: 23,836 of 29,485 requests are first requests.  FCP's first-hop lists keep
#: no tree, so a larger bound only catches late repeats: 8,192 entries would
#: turn 123 more requests (0.4%) into hits, for about 50 MB more trees over
#: the campaign's two engines.  The corpus sweep repeats nothing beyond
#: 1,024 other trees (122 requests beyond 512).
DEFAULT_SSSP_CACHE = 1024

#: Bound of the per-process engine registry (one entry per distinct topology
#: content seen by this process).
_MAX_ENGINES = 32


_MISSING = object()

#: Engines constructed by this process since import (registry-cached *and*
#: nested hop engines alike) — the per-cell telemetry deltas count builds
#: through this instead of registry size, which eviction would distort.
_ENGINE_BUILDS = 0


def _frozen(excluded_edges: Optional[Iterable[int]]) -> FrozenSet[int]:
    """``excluded_edges`` as the frozenset memo keys are built from."""
    if isinstance(excluded_edges, frozenset):
        return excluded_edges
    return frozenset(excluded_edges or ())


class _LruDict(OrderedDict):
    """Tiny LRU: ``get_or_none`` refreshes recency, ``put`` evicts oldest."""

    def __init__(self, maxsize: int) -> None:
        super().__init__()
        self.maxsize = maxsize
        #: Entries dropped by the size bound since construction (telemetry).
        self.evictions = 0

    def get_or_none(self, key):
        # Sentinel-based miss detection: the memo misses of a sweep are hot
        # enough that raising/catching KeyError is measurable.
        value = self.get(key, _MISSING)
        if value is _MISSING:
            return None
        self.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        self[key] = value
        self.move_to_end(key)
        while len(self) > self.maxsize:
            self.popitem(last=False)
            self.evictions += 1


class ShortestPathEngine:
    """Compiled + memoized shortest paths for one topology snapshot.

    The engine answers the same questions as the pure functions in
    :mod:`repro.graph.shortest_paths`, but every answer is computed on the
    :class:`~repro.graph.compiled.CompiledGraph` core and memoized, so a
    sweep asking for the same ``(source, excluded)`` tree twice pays one
    dictionary lookup the second time.
    """

    def __init__(self, graph: Graph) -> None:
        global _ENGINE_BUILDS
        _ENGINE_BUILDS += 1
        self.compiled = CompiledGraph(graph)
        #: The SSSP memo: ``(source, excluded) -> (dist, parent)``, index-keyed.
        self._tree: _LruDict = _LruDict(DEFAULT_SSSP_CACHE)
        self._apsp: _LruDict = _LruDict(64)
        self._components: _LruDict = _LruDict(1024)
        self._pair_mask_rows: Optional[List[Tuple[Tuple[str, str], int]]] = None
        #: Free-form per-engine memo for consumers that live in modules the
        #: engine cannot import (FCP first-hop lists and egress darts,
        #: executor scenario contexts, the hop engine, failure-free routing
        #: tables, cached diameters).
        #: Entries here are few and long-lived singletons, never one per
        #: failure set.
        self.consumer_cache: _LruDict = _LruDict(256)
        #: Per-root failure-free bases: the tree plus its per-vertex
        #: path-edge bitmasks, read by incremental repair and
        #: :meth:`affecting_pairs`.  At most one entry per node, each
        #: O(nodes) — never evicted, so scenario churn cannot force a rebuild.
        self._repair_base: Dict[str, Tuple] = {}
        self.hits = 0
        self.misses = 0
        #: Memo misses served by repairing the failure-free tree instead of
        #: a full Dijkstra, and misses where repair was attempted but bailed
        #: out (affected fraction above the fallback threshold).
        self.repair_hits = 0
        self.repair_fallbacks = 0

    # ------------------------------------------------------------------
    # single-source shortest paths
    # ------------------------------------------------------------------
    def sssp(
        self, source: str, excluded_edges: Optional[Iterable[int]] = None
    ) -> Tuple[Dict[str, float], Dict[str, Tuple[str, int]]]:
        """Name-keyed ``(dist, parent)`` from ``source``.

        A fresh, unmemoized view of :meth:`sssp_tree`: same content as
        :func:`repro.graph.shortest_paths.dijkstra`, unspecified dict order.
        """
        dist, parent = self.sssp_tree(source, excluded_edges)
        names = self.compiled.names
        return (
            {names[node]: cost for node, cost in dist.items()},
            {
                names[node]: (names[towards], edge_id)
                for node, (towards, edge_id) in parent.items()
            },
        )

    def sssp_tree(
        self, source: str, excluded_edges: Optional[Iterable[int]] = None
    ) -> Tuple[Dict[int, float], Dict[int, Tuple[int, int]]]:
        """Memoized index-keyed ``(dist, parent)`` from ``source`` (read-only).

        Same distances, parents and tie-breaking as the reference
        :func:`repro.graph.shortest_paths.dijkstra`; the dict insertion
        order is unspecified.  On a miss with exclusions the failure-free
        tree is repaired (:meth:`CompiledGraph.sssp_repair_content`) when
        the graph is ``repair_safe``, otherwise recomputed in full.
        """
        excluded = _frozen(excluded_edges)
        key = (source, excluded)
        cached = self._tree.get_or_none(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        compiled = self.compiled
        excluded_mask = compiled.exclusion_mask(excluded)
        value = None
        if excluded and compiled.repair_safe:
            value = compiled.sssp_repair_content(
                excluded_mask, *self._repair_base_for(source)
            )
            if value is not None:
                self.repair_hits += 1
            else:
                self.repair_fallbacks += 1
        if value is None:
            value = compiled.dijkstra_indexed(
                compiled.node_index(source), excluded_mask
            )
        self._tree.put(key, value)
        return value

    def _repair_base_for(self, root: str) -> Tuple:
        """Failure-free ``(dist, parent, masks)`` of ``root`` (built once).

        ``masks[v]`` has bit ``e`` set iff edge ``e`` lies on the
        (deterministically tie-broken) failure-free shortest path between
        ``root`` and ``v`` — the path the routing tables forward along when
        ``root`` is the destination.  Unreachable vertices do not appear.
        The parent-chain walk needs no particular dict order and works on
        every graph, ``repair_safe`` or not.
        """
        base = self._repair_base.get(root)
        if base is None:
            dist, parent = self.sssp_tree(root)
            masks: Dict[int, int] = {self.compiled.index[root]: 0}
            for node in parent:
                if node in masks:
                    continue
                # Resolve the parent chain iteratively; every hop strictly
                # approaches the root, so the chain terminates.
                chain = []
                walk = node
                while walk not in masks:
                    chain.append(walk)
                    walk = parent[walk][0]
                mask = masks[walk]
                for link in reversed(chain):
                    mask |= 1 << parent[link][1]
                    masks[link] = mask
            base = (dist, parent, masks)
            self._repair_base[root] = base
        return base

    # ------------------------------------------------------------------
    # all-pairs shortest costs
    # ------------------------------------------------------------------
    def all_pairs_shortest_costs(
        self, excluded_edges: Optional[Iterable[int]] = None
    ) -> Dict[str, Dict[str, float]]:
        """Memoized all-pairs cost table (read-only result).

        Same content as
        :func:`repro.graph.shortest_paths.all_pairs_shortest_costs`: one
        SSSP per node, outer keys in graph insertion order.
        """
        excluded = _frozen(excluded_edges)
        cached = self._apsp.get_or_none(excluded)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        value = {
            node: self.sssp(node, excluded)[0] for node in self.compiled.order
        }
        self._apsp.put(excluded, value)
        return value

    # ------------------------------------------------------------------
    # connectivity
    # ------------------------------------------------------------------
    def _labels(self, excluded: FrozenSet[int]) -> List[int]:
        cached = self._components.get_or_none(excluded)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        labels = self.compiled.component_labels(self.compiled.exclusion_mask(excluded))
        self._components.put(excluded, labels)
        return labels

    def same_component(
        self, u: str, v: str, excluded_edges: Optional[Iterable[int]] = None
    ) -> bool:
        """Whether ``u`` and ``v`` stay connected once ``excluded_edges`` fail.

        Equivalent to :func:`repro.graph.connectivity.same_component`, but a
        scenario's component labels are computed once and every subsequent
        pair query is two list lookups.
        """
        compiled = self.compiled
        index = compiled.index
        if u not in index:
            raise NodeNotFound(u)
        if v not in index:
            raise NodeNotFound(v)
        if u == v:
            return True
        labels = self._labels(_frozen(excluded_edges))
        return labels[index[u]] == labels[index[v]]

    def is_connected(self, excluded_edges: Optional[Iterable[int]] = None) -> bool:
        """Whether the whole graph stays connected under the exclusions."""
        if not self.compiled.names:
            return True
        labels = self._labels(_frozen(excluded_edges))
        return max(labels) == 0 if labels else True

    # ------------------------------------------------------------------
    # failure-free path-edge bitmasks (the all_affecting_pairs fast path)
    # ------------------------------------------------------------------
    def affecting_pairs(self, failed_links: Iterable[int]) -> List[Tuple[str, str]]:
        """Ordered pairs whose failure-free path crosses a failed link.

        Equivalent to :func:`repro.failures.scenarios.all_affecting_pairs`
        with default failure-free tables — same pairs, same order — but each
        pair is one bitmask AND over a flat, precomputed ``(pair, mask)``
        row list (built once per engine from the per-destination repair
        bases; a routed pair's path has at least one edge, so a zero mask
        never occurs and rows hold exactly the routed pairs).
        """
        rows = self._pair_mask_rows
        if rows is None:
            order = self.compiled.order
            index = self.compiled.index
            masks = {
                destination: self._repair_base_for(destination)[2]
                for destination in order
            }
            rows = []
            for source in order:
                for destination in order:
                    if source == destination:
                        continue
                    path_mask = masks[destination].get(index[source])
                    if path_mask:
                        rows.append(((source, destination), path_mask))
            self._pair_mask_rows = rows
        failed_mask = self.compiled.exclusion_mask(failed_links)
        return [pair for pair, mask in rows if mask & failed_mask]

    def cache_info(self) -> Dict[str, int]:
        """Hit/miss counters plus current memo sizes (perfbench reads them).

        Every memo lookup counts exactly one hit or one miss.
        ``repair_hits`` counts SSSP misses answered by incrementally
        repairing the failure-free tree; ``repair_fallbacks`` counts misses
        where repair bailed out to a full Dijkstra (affected fraction above
        the threshold).  Both stay zero when ``repair_safe`` is false — on
        such graphs repair is never attempted.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "sssp_entries": len(self._tree),
            "apsp_entries": len(self._apsp),
            "component_entries": len(self._components),
            "repair_hits": self.repair_hits,
            "repair_fallbacks": self.repair_fallbacks,
            "repair_bases": len(self._repair_base),
            "repair_safe": int(self.compiled.repair_safe),
            "evictions": self.evictions(),
        }

    def evictions(self) -> int:
        """Entries dropped by LRU bounds across every memo of this engine."""
        return (
            self._tree.evictions
            + self._apsp.evictions
            + self._components.evictions
            + self.consumer_cache.evictions
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial formatting
        return (
            f"ShortestPathEngine({self.compiled.name!r}, "
            f"nodes={len(self.compiled.names)}, hits={self.hits}, misses={self.misses})"
        )


# ----------------------------------------------------------------------
# per-process, content-addressed engine registry
# ----------------------------------------------------------------------
_ENGINES: "OrderedDict[Tuple, ShortestPathEngine]" = OrderedDict()

#: Guards registry *membership* (insert / evict / clear): the resident
#: ``repro serve`` daemon resolves engines from several request threads at
#: once, and an unguarded ``move_to_end`` racing a ``popitem`` eviction is a
#: KeyError.  Engine internals stay lock-free — per-engine memo races are
#: contained by the daemon's per-request error handling.
_REGISTRY_LOCK = threading.RLock()


def _fresh_registry_lock() -> None:
    # A pool worker forked while another thread held the lock would wait
    # on its copy forever: no thread of the child can release it.
    global _REGISTRY_LOCK
    _REGISTRY_LOCK = threading.RLock()


os.register_at_fork(after_in_child=_fresh_registry_lock)


def engine_for(graph: Graph) -> ShortestPathEngine:
    """The shared engine of ``graph``'s *content* in this process.

    Keyed by :func:`~repro.graph.compiled.graph_signature`, so distinct
    ``Graph`` objects loaded from the same topology (one per campaign cell)
    all share one engine — and a graph mutated in place simply resolves to a
    fresh engine on its next call, because its signature changed.
    """
    key = graph_signature(graph)
    with _REGISTRY_LOCK:
        engine = _ENGINES.get(key)
        if engine is not None:
            _ENGINES.move_to_end(key)
            return engine
    # Built outside the lock: engine construction is the expensive part,
    # and two threads racing to build the same engine just means the loser
    # registers last (identical content, so either object is correct).
    engine = ShortestPathEngine(graph)
    with _REGISTRY_LOCK:
        existing = _ENGINES.get(key)
        if existing is not None:
            _ENGINES.move_to_end(key)
            return existing
        _ENGINES[key] = engine
        _ENGINES.move_to_end(key)
        while len(_ENGINES) > _MAX_ENGINES:
            _ENGINES.popitem(last=False)
    return engine


def hop_engine_for(graph: Graph) -> ShortestPathEngine:
    """The shared engine of the unit-weight variant of ``graph``.

    Hop-count queries (flooding distances of the re-convergence timing model,
    the paper's ``log2(d)`` DD-bit diameter) run Dijkstra with every weight
    forced to 1.0.  The unit copy is built once per topology content and its
    engine shared through the base engine's consumer cache, so those
    consumers get memoized — and incrementally repaired — hop trees instead
    of copying the graph per query.
    """
    engine = engine_for(graph)
    hop = engine.consumer_cache.get_or_none(("hop-engine",))
    if hop is None:
        unit = graph.copy()
        for edge in unit.edges():
            edge.weight = 1.0
        # Deliberately NOT registered in the per-process registry: the hop
        # engine lives and dies with its base engine via the consumer cache,
        # and registering it would halve the registry's effective capacity
        # (a corpus-wide sweep already keeps one base engine per topology).
        hop = ShortestPathEngine(unit)
        engine.consumer_cache.put(("hop-engine",), hop)
    return hop


def cached_diameter(graph: Graph, hop_count: bool = True) -> float:
    """Graph diameter, memoized per topology content.

    Same value as :func:`repro.graph.shortest_paths.diameter` — the engine
    trees carry the reference Dijkstra's distances — but the all-pairs
    pass runs once per (topology content, metric) per process instead of
    once per caller (PR's DD-bit sizing, overhead rows and the CLI all ask).
    """
    if graph.number_of_nodes() == 0:
        return 0.0
    engine = engine_for(graph)
    key = ("diameter", hop_count)
    cached = engine.consumer_cache.get_or_none(key)
    if cached is None:
        source = hop_engine_for(graph) if hop_count else engine
        costs = source.all_pairs_shortest_costs()
        cached = max(
            (max(dist.values()) if dist else 0.0) for dist in costs.values()
        )
        engine.consumer_cache.put(key, cached)
    return cached


def clear_engines(keep: Optional[Iterable[Tuple]] = None) -> None:
    """Drop cached engines (tests, worker initializers, long processes).

    With ``keep`` — an iterable of :func:`graph_signature` keys — only the
    engines *not* listed are dropped.  Campaign worker initializers use this
    to shed engines left over from earlier topology sets (fork-started
    workers inherit the parent's registry) while retaining the warm engines
    of the topologies the current campaign actually sweeps.
    """
    with _REGISTRY_LOCK:
        if keep is None:
            _ENGINES.clear()
            return
        keep_keys = set(keep)
        for key in [key for key in _ENGINES if key not in keep_keys]:
            del _ENGINES[key]


def _all_engines() -> List[ShortestPathEngine]:
    """Registry engines plus the hop engines nested in their consumer caches.

    Hop engines (:func:`hop_engine_for`) are deliberately kept out of the
    registry, so any total summed over ``_ENGINES`` alone silently drops
    their hit/miss work.  The lookup uses plain ``dict.get`` — *not*
    ``get_or_none`` — so taking a telemetry snapshot never refreshes LRU
    recency and therefore cannot change eviction behaviour.
    """
    engines: List[ShortestPathEngine] = []
    with _REGISTRY_LOCK:
        registered = list(_ENGINES.values())
    for engine in registered:
        engines.append(engine)
        hop = dict.get(engine.consumer_cache, ("hop-engine",))
        if hop is not None:
            engines.append(hop)
    return engines


#: ``cache_info`` keys that are monotonic event counts (deltas are
#: meaningful); the remaining keys are gauges of current memo sizes.
ENGINE_COUNTER_KEYS = (
    "hits",
    "misses",
    "repair_hits",
    "repair_fallbacks",
    "evictions",
)


def engine_counter_totals() -> Dict[str, int]:
    """Monotonic engine counters summed over every engine in this process.

    The snapshot the campaign executor diffs around each cell to attribute
    engine work (memo hits/misses, repair hits/fallbacks, LRU evictions,
    engine builds) to the cell that caused it.  Only monotonic counters are
    included — memo *sizes* are gauges and would make deltas meaningless.
    """
    totals: Dict[str, int] = {name: 0 for name in ENGINE_COUNTER_KEYS}
    for engine in _all_engines():
        totals["hits"] += engine.hits
        totals["misses"] += engine.misses
        totals["repair_hits"] += engine.repair_hits
        totals["repair_fallbacks"] += engine.repair_fallbacks
        totals["evictions"] += engine.evictions()
    totals["builds"] = _ENGINE_BUILDS
    return totals


def aggregate_cache_info() -> Dict[str, int]:
    """Summed :meth:`ShortestPathEngine.cache_info` over this process's engines.

    ``perfbench`` reports these totals (``graph.repair_hit_ratio`` and
    ``graph.engine_hit_ratio``) so the incremental-repair hit rate of a
    workload is visible next to its wall-clock timing.  Hop engines nested
    in consumer caches are included.

    **Scope caveat:** this sees only the *calling process*.  Cells executed
    by worker processes accumulate their counters in those workers, so a
    parallel sweep's totals must be read from the merged telemetry manifest
    (``CampaignHandle.telemetry()`` / the store's ``telemetry`` table),
    which routes per-worker counters back through the chunk-result
    envelopes — serial and parallel runs of the same campaign then report
    identical totals for identical work.
    """
    totals: Dict[str, int] = {}
    for engine in _all_engines():
        for name, value in engine.cache_info().items():
            totals[name] = totals.get(name, 0) + value
    totals["engines"] = len(_ENGINES)
    return totals
