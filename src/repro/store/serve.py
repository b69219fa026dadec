"""`repro serve` — a supervised, concurrent, crash-safe resident service.

One long-lived process keeps the expensive state hot — per-process
shortest-path engines, embeddings, built forwarding schemes and open
:class:`~repro.store.database.CampaignStore` connections — and answers
requests over a Unix-domain socket with a line-delimited JSON protocol
(one JSON request per line, one JSON response per line; stdlib only).

:class:`ServeSession` is the transport-free core: a request dictionary in,
a response dictionary out, safe to drive from many threads at once.  The
socket loop (:func:`serve_forever`) drives it, and library embedders and
tests may drive it directly.

The transport is **concurrent and bounded**: one handler thread per
connection, a bounded in-flight request budget with explicit load-shedding
(``{"ok": false, "error_type": "Overloaded", "retry_after_s": ...}``
instead of unbounded blocking), a per-request deadline
(``error_type: "DeadlineExceeded"``), and a line-size cap
(``error_type: "LineTooLong"``).  Requests execute on one pool of
persistent worker threads, one per in-flight slot, while the connection
thread waits up to the deadline; a handler abandoned at its deadline keeps
its slot until it returns (``serve/abandoned`` counts them).  Pipelined
requests on one connection are answered in order; malformed lines get
error responses; a client vanishing mid-line just drops the connection —
the loop never dies with it.  Shutdown closes every open connection.

The client (:func:`request`) keeps one connection alive per thread, socket
path and process, so a closed loop of requests pays for one connect.

``submit`` is **asynchronous** and needs the session's job journal (a
``jobs`` table in the versioned SQLite schema, see
:mod:`repro.store.jobs`): the request journals a job row and returns a
``job_id`` immediately; a supervised background worker thread executes
jobs through the existing :func:`~repro.runner.executor.run_campaign` +
:class:`~repro.runner.policy.ExecutionPolicy` machinery, which runs the
cells of a job in worker processes.  On startup the
daemon refuses to clobber a live peer's socket, recovers the journal
(stale ``running`` jobs with dead pids are re-queued with resume forced)
and drains — a daemon SIGKILLed mid-job, restarted and drained produces
campaign payloads byte-identical to an uninterrupted run.

Operations (``op`` field).  Request fields are typed strictly and never
coerced: names, paths and ids are strings; ``workers`` and ``limit``
(>= 0) integers; ``resume``, ``include_records`` and ``follow`` booleans;
``wait_s`` and ``timeout_s`` numbers; ``schemes`` a list of strings;
``spec`` and ``policy`` objects decoded like a campaign spec file (see
:mod:`repro.params`).  An absent or ``null`` optional field takes its
default, and a mistyped one answers ``ok: false, error_type:
"ExperimentError"`` naming the field.

``ping``
    Liveness check; echoes ``payload``.
``warm``
    Pre-build the engine/embedding/scheme of a topology so later queries
    skip the cold start: ``{"op": "warm", "topology": "abilene",
    "schemes": ["pr", "lfa"]}``.
``deliver`` / ``stretch``
    Ad-hoc forwarding query: ``{"op": "deliver", "topology": "abilene",
    "scheme": "pr", "source": "a", "destination": "b",
    "failed": [[u, v], 3]}`` — failed links as edge ids or endpoint pairs.
    Returns delivery status, hops, cost, the failure-free ``baseline_cost``
    and (delivered) the path stretch against it.  A query the topology
    cannot answer is an error, never a dropped packet: an unknown source or
    destination answers ``ok: false, error_type: "NodeNotFound"``, source
    == destination ``"ForwardingError"``, and an unknown edge id or
    endpoint pair ``"FailureScenarioError"`` — the exceptions
    :meth:`~repro.forwarding.scheme.ForwardingScheme.check_query` raises
    for the same query in the library.
``query``
    Filter records out of a results store (kept open across requests):
    ``{"op": "query", "results": "corpus.sqlite", "filter":
    "scheme=pr topology~zoo campaign:last10", "limit": 100}``.  Answers
    the match count; ``include_records`` adds the records and
    ``"aggregate": "summary"`` per-topology summary rows.  Without either,
    the store counts matches in SQL and decodes no record.
``campaigns``
    List the campaigns of a store.
``submit``
    Journal a campaign job and return its ``job_id`` (non-blocking; needs
    a ``results`` SQLite store path and a configured journal — a session
    without one answers ``ok: false`` like ``job``/``jobs``/``cancel``).
    Optional ``workers``, ``resume`` and ``policy`` (an
    :class:`~repro.runner.policy.ExecutionPolicy` dictionary) ride along.
``job``
    One job's status and progress: ``{"op": "job", "job_id": ...}``.
    ``wait_s`` blocks until the job is terminal (bounded); ``follow``
    streams progress snapshots as separate response lines until the job is
    terminal (the last line carries ``"final": true``).
``jobs``
    List journal rows, optionally ``{"state": "queued"}``-filtered.
``cancel``
    Cancel a job: immediately when queued; a running one-worker job stops
    within two cells.
``drain``
    Block (bounded by ``timeout_s``) until no job is queued or running.
``stats``
    Session cache occupancy, ``serve/*`` counters, job-queue summary.
``shutdown``
    Stop the socket loop after responding.
"""

from __future__ import annotations

import json
import os
import queue
import socket
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union

from repro.errors import ExperimentError, JobCancelled, ReproError
from repro.failures.scenarios import resolve_failed_links
from repro.graph.spcache import ShortestPathEngine, engine_counter_totals, engine_for
from repro.params import check_value
from repro.runner import faults
from repro.runner.executor import build_scheme, load_topology
from repro.runner.policy import ExecutionPolicy
from repro.runner.spec import CampaignSpec, EMBEDDING_SCHEMES
from repro.store.database import CampaignStore, is_store_path, require_store_path
from repro.store.jobs import ACTIVE_STATES, JobQueue, public_view
from repro.store.query import parse_filter

DEFAULT_SOCKET = ".repro-serve.sock"

#: A request line larger than this is rejected (LineTooLong) and the
#: connection dropped — a hostile or broken client must not balloon the
#: daemon's memory one unbounded buffer at a time.
MAX_LINE_BYTES = 4 * 1024 * 1024

#: What an Overloaded response tells the client to wait before retrying.
OVERLOAD_RETRY_AFTER_S = 0.05

#: Ops the per-request deadline never applies to: they block by design,
#: bounded by their own explicit timeouts (or end the loop outright).
DEADLINE_EXEMPT_OPS = frozenset({"drain", "shutdown"})


def jobs_path_for(socket_path: Union[str, Path]) -> Path:
    """The default job-journal path of a daemon socket.

    ``.repro-serve.sock`` -> ``.repro-serve.jobs.sqlite`` — next to the
    socket, so a restarted daemon on the same socket finds the same journal.
    """
    path = Path(socket_path)
    stem = path.stem if path.suffix else path.name
    return path.with_name(stem + ".jobs.sqlite")


def _field(request: Dict[str, Any], field: str, kind: Any, default: Any) -> Any:
    """``request[field]``, a ``kind`` (never coerced), or ``default`` when absent or null."""
    value = request.get(field)
    if value is None:
        return default
    check_value(value, kind, request.get("op"), field)
    return value


def _required(request: Dict[str, Any], field: str) -> str:
    """``request[field]``, a non-empty string; an op answers an error without it."""
    value = request.get(field)
    if not value:
        raise ExperimentError(f"{request.get('op')} needs a {field}")
    check_value(value, str, request.get("op"), field)
    return value


class JobWorker(threading.Thread):
    """The supervised background executor of journaled jobs.

    One daemon thread claiming queued jobs oldest-first and running them
    through ``run_campaign``.  Every failure mode is contained per job —
    the worker itself only exits when asked to (or with the process); the
    session's :meth:`ServeSession.ensure_worker` restarts a worker that
    died anyway, which is the supervision contract.

    ``run_campaign`` runs a job's cells in pool worker processes.  A
    worker asked to stop ends its job at the next stored cell, once the
    pool has run the cells it holds, and leaves the job to recovery.
    """

    poll_interval_s = 0.05

    def __init__(self, session: "ServeSession") -> None:
        super().__init__(name="repro-serve-job-worker", daemon=True)
        self.session = session
        self._halt = threading.Event()
        self.stopped = False  # set by stop(): died-on-purpose marker

    def stop(self) -> None:
        self.stopped = True
        self._halt.set()

    def run(self) -> None:
        queue = self.session.jobs
        while not self._halt.is_set():
            try:
                job = queue.claim(os.getpid())
            except Exception:
                # A journal hiccup (locked database, transient I/O) must
                # not kill the worker; back off and try again.
                self._halt.wait(self.poll_interval_s)
                continue
            if job is None:
                self._halt.wait(self.poll_interval_s)
                continue
            self._execute(job)

    def _execute(self, job: Dict[str, Any]) -> None:
        from repro.runner.executor import run_campaign

        queue = self.session.jobs
        job_id = job["job_id"]
        try:
            # A crash fault here SIGKILLs the daemon with the job row in
            # ``running`` — exactly the window the journal recovery path
            # exists for (the chaos suite injects it deliberately).
            faults.checkpoint("job-dispatch", job_id, attempt=max(0, job["attempts"] - 1))
            spec = CampaignSpec.from_dict(json.loads(job["spec_json"]))
            policy = ExecutionPolicy.from_dict(
                json.loads(job["policy_json"]) if job["policy_json"] else None
            )
            total = spec.cell_count()
            queue.progress(job_id, 0, total, phase="running")

            def on_progress(cell, record, done, total_cells) -> None:
                if self.stopped or queue.cancel_requested(job_id):
                    raise JobCancelled(
                        f"job {job_id} cancelled after {done}/{total_cells} cells"
                    )
                queue.progress(
                    job_id, done, total_cells, phase=f"cell {cell.cell_id[:12]}"
                )

            handle = run_campaign(
                spec,
                workers=int(job["workers"] or 1),
                cache_dir=self.session.cache_dir,
                results=job["results"],
                resume=bool(job["resume"]),
                progress=on_progress,
                policy=policy,
            )
            if handle.store is not None:
                handle.store.close()  # one connection per job must not pile up
            queue.finish(job_id, handle.executed, handle.skipped, handle.elapsed_s)
            self.session.count("serve/jobs_completed")
        except Exception as exc:
            if self.stopped:
                return  # the row stays running; the next daemon's recovery resumes it
            cancelled = isinstance(exc, JobCancelled)
            queue.fail(job_id, str(exc) if cancelled else f"{type(exc).__name__}: {exc}",
                       cancelled=cancelled)
            self.session.count("serve/jobs_cancelled" if cancelled else "serve/jobs_failed")


class ServeSession:
    """The transport-free serve core: warm caches + request dispatch.

    Thread-safe: the warm caches (``_schemes``, ``_stores``), the counters
    and the shared store connections are guarded by one re-entrant lock, so
    the concurrent transport and the job worker can drive one session.
    """

    def __init__(
        self,
        cache_dir: Optional[Union[str, Path]] = None,
        jobs_path: Optional[Union[str, Path]] = None,
        max_queued_jobs: int = 64,
    ) -> None:
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        #: (topology spec, scheme key, discriminator) -> (built scheme, the
        #: shortest-path engine of its graph).
        self._schemes: Dict[Tuple[str, str, str], Tuple[Any, ShortestPathEngine]] = {}
        #: results path -> open CampaignStore (warm across queries).
        self._stores: Dict[str, CampaignStore] = {}
        self._lock = threading.RLock()
        self.requests_served = 0
        #: ``serve/*`` telemetry counters (reported by the ``stats`` op).
        self.counters: Dict[str, int] = {}
        #: The job journal; ``None`` (library embedders and tests without
        #: a journal) refuses the job ops, ``submit`` included.
        self.jobs: Optional[JobQueue] = JobQueue(jobs_path) if jobs_path else None
        self.max_queued_jobs = max_queued_jobs
        self._worker: Optional[JobWorker] = None

    # ------------------------------------------------------------------
    # warm state
    # ------------------------------------------------------------------
    def count(self, name: str, delta: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + delta

    def store_for(self, results: Union[str, Path]) -> CampaignStore:
        key = str(Path(results))
        with self._lock:
            store = self._stores.get(key)
            if store is None:
                store = CampaignStore(require_store_path(key))
                self._stores[key] = store
            return store

    def scheme_for(
        self, topology: str, scheme: str, discriminator: Optional[str] = None
    ):
        return self._warm_scheme(topology, scheme, discriminator)[0]

    def _warm_scheme(
        self, topology: str, scheme: str, discriminator: Optional[str] = None
    ) -> Tuple[Any, ShortestPathEngine]:
        """The warm scheme and its graph's engine, both built on first use."""
        from repro.routing.discriminator import DiscriminatorKind

        kind = discriminator or DiscriminatorKind.HOP_COUNT.value
        key = (topology, scheme, kind)
        with self._lock:
            built = self._schemes.get(key)
            if built is None:
                graph = load_topology(topology)
                embedding = None
                if scheme in EMBEDDING_SCHEMES:
                    from repro.runner.cache import ArtifactCache, cached_embedding

                    cache = ArtifactCache(self.cache_dir) if self.cache_dir else None
                    embedding = cached_embedding(graph, cache=cache)
                built = (build_scheme(scheme, graph, kind, embedding), engine_for(graph))
                self._schemes[key] = built
            return built

    # ------------------------------------------------------------------
    # job-worker supervision
    # ------------------------------------------------------------------
    def ensure_worker(self) -> None:
        """Start (or restart) the job worker thread when a journal exists."""
        if self.jobs is None:
            return
        with self._lock:
            worker = self._worker
            if worker is not None and worker.is_alive():
                return
            if worker is not None and not worker.stopped:
                # The previous worker died without being asked to: restart
                # and record the supervision event.
                self.count("serve/worker_restarts")
            self._worker = JobWorker(self)
            self._worker.start()

    def recover_jobs(self) -> List[str]:
        """Re-queue journal jobs orphaned by a dead daemon (startup path)."""
        if self.jobs is None:
            return []
        recovered = self.jobs.recover()
        if recovered:
            self.count("serve/jobs_recovered", len(recovered))
        return recovered

    def close(self) -> None:
        with self._lock:
            worker, self._worker = self._worker, None
        if worker is not None:
            worker.stop()
            worker.join(timeout=2.0)
        with self._lock:
            for store in self._stores.values():
                store.close()
            self._stores.clear()
            self._schemes.clear()
            if self.jobs is not None:
                self.jobs.close()

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Answer one request; errors come back as ``{"ok": false, ...}``."""
        op = request.get("op")
        handler = getattr(self, f"_op_{op}", None) if isinstance(op, str) else None
        if handler is None:
            return {
                "ok": False,
                "error": f"unknown op {op!r}",
                "ops": sorted(
                    name[len("_op_") :]
                    for name in dir(self)
                    if name.startswith("_op_")
                ),
            }
        try:
            faults.checkpoint("serve-request", op)
            response = handler(request)
        except ReproError as exc:
            return {"ok": False, "error": str(exc), "error_type": type(exc).__name__}
        except Exception as exc:  # noqa: BLE001 - a resident loop must not die
            return {
                "ok": False,
                "error": f"{type(exc).__name__}: {exc}",
                "error_type": type(exc).__name__,
            }
        response.setdefault("ok", True)
        if response["ok"]:
            with self._lock:
                self.requests_served += 1
        return response

    def _wait(self, settled: Callable[[], bool], timeout_s: float) -> None:
        """Poll ``settled`` for up to ``timeout_s``, keeping the job worker alive."""
        deadline = time.monotonic() + timeout_s
        while not settled() and time.monotonic() < deadline:
            self.ensure_worker()
            time.sleep(0.05)

    def _require_jobs(self) -> JobQueue:
        if self.jobs is None:
            raise ExperimentError(
                "this serve session has no job journal; start the daemon"
                " without --no-jobs (or pass jobs_path=) to enable submit"
            )
        return self.jobs

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def _op_ping(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {"pong": True, "payload": request.get("payload")}

    def _op_warm(self, request: Dict[str, Any]) -> Dict[str, Any]:
        topology = _required(request, "topology")
        schemes = _field(request, "schemes", Tuple[str, ...], ())
        graph = load_topology(topology)
        engine_for(graph)  # builds + registers the shortest-path engine
        for scheme in schemes:
            self.scheme_for(topology, scheme, request.get("discriminator"))
        return {
            "topology": graph.name,
            "nodes": graph.number_of_nodes(),
            "edges": graph.number_of_edges(),
            "schemes_warm": len(schemes),
        }

    def _op_deliver(self, request: Dict[str, Any]) -> Dict[str, Any]:
        topology, key, source, destination = (
            _required(request, field) for field in ("topology", "scheme", "source", "destination")
        )
        scheme, engine = self._warm_scheme(topology, key, request.get("discriminator"))
        failed = request.get("failed")
        failed = resolve_failed_links(scheme.graph, () if failed is None else failed)
        outcome = scheme.deliver(source, destination, failed_links=failed)
        delivered = outcome.status.value == "delivered"
        response: Dict[str, Any] = {
            "status": outcome.status.value,
            "delivered": delivered,
            "hops": outcome.hops,
            "cost": outcome.cost,
            "failed_links": list(failed),
            "scheme": scheme.name,
        }
        if outcome.drop_reason:
            response["drop_reason"] = outcome.drop_reason
        # deliver checked both endpoints; a destination the failure-free
        # map cannot reach has no baseline (None).
        baseline = engine.sssp_tree(destination)[0].get(engine.compiled.index[source])
        response["baseline_cost"] = baseline
        if delivered and baseline:
            response["stretch"] = outcome.cost / baseline
        return response

    _op_stretch = _op_deliver

    def _op_query(self, request: Dict[str, Any]) -> Dict[str, Any]:
        include = _field(request, "include_records", bool, False)
        store = self.store_for(_required(request, "results"))
        filt = parse_filter(request.get("filter"))
        summary = request.get("aggregate") == "summary"
        # The store connection is shared across request threads; the lock
        # serialises statement execution (sqlite3's shared-connection
        # contract), while other ops proceed between queries.  Without
        # records to return or aggregate, the store only counts matches.
        with self._lock:
            found = store.query(
                filt, limit=request.get("limit"), count=not (summary or include)
            )
        if isinstance(found, int):
            return {"records": found, "filter": filt.describe()}
        response: Dict[str, Any] = {
            "records": len(found),
            "filter": filt.describe(),
        }
        if summary:
            from repro.runner import aggregate

            response["summary_rows"] = aggregate.topology_summary_rows(found)
        if include:
            response["matched"] = found
        return response

    def _op_campaigns(self, request: Dict[str, Any]) -> Dict[str, Any]:
        store = self.store_for(_required(request, "results"))
        with self._lock:
            return {"campaigns": store.campaigns()}

    def _op_submit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        queue = self._require_jobs()
        if request.get("spec"):
            spec = CampaignSpec.from_dict(request["spec"])
        elif request.get("spec_path"):
            spec = CampaignSpec.load(_required(request, "spec_path"))
        else:
            raise ExperimentError("submit needs a spec or spec_path")
        policy_dict = request.get("policy")
        ExecutionPolicy.from_dict(policy_dict)  # validated up front
        workers = _field(request, "workers", int, 1)
        resume = _field(request, "resume", bool, False)
        results = request.get("results")
        if not results or not is_store_path(str(results)):
            raise ExperimentError(
                "submit needs a 'results' SQLite store path"
                " (.sqlite/.sqlite3/.db) so the job can be resumed after a"
                " crash"
            )
        campaign_id = spec.spec_hash()
        faults.checkpoint("job-journal", campaign_id)
        if queue.active_count() >= self.max_queued_jobs:
            return {
                "ok": False,
                "error": (
                    f"job queue is full ({self.max_queued_jobs} active jobs);"
                    " retry later"
                ),
                "error_type": "Overloaded",
                "retry_after_s": OVERLOAD_RETRY_AFTER_S,
            }
        job_id = queue.submit(
            campaign_id,
            spec.to_dict(),
            str(results),
            workers=workers,
            resume=resume,
            policy_dict=policy_dict,
            cells=spec.cell_count(),
        )
        self.count("serve/jobs_submitted")
        self.ensure_worker()
        return {
            "job_id": job_id,
            "campaign_id": campaign_id,
            "state": "queued",
            "cells": spec.cell_count(),
            "results": str(results),
        }

    def _op_job(self, request: Dict[str, Any]) -> Dict[str, Any]:
        queue = self._require_jobs()
        job_id = _required(request, "job_id")
        wait_s = _field(request, "wait_s", float, 0.0)
        follow = _field(request, "follow", bool, False)
        if wait_s > 0:
            self._wait(lambda: queue.get(job_id)["state"] not in ACTIVE_STATES, wait_s)
        job = queue.get(job_id)
        response: Dict[str, Any] = {"job": public_view(job)}
        if follow and job["state"] not in ACTIVE_STATES:
            response["final"] = True  # nothing left to stream
        return response

    def _op_jobs(self, request: Dict[str, Any]) -> Dict[str, Any]:
        queue = self._require_jobs()
        rows = queue.list_jobs(state=request.get("state"))
        return {"jobs": [public_view(row) for row in rows], "count": len(rows)}

    def _op_cancel(self, request: Dict[str, Any]) -> Dict[str, Any]:
        queue = self._require_jobs()
        job = queue.cancel(_required(request, "job_id"))
        return {"job": public_view(job)}

    def _op_drain(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Block until the journal has no queued/running job (bounded)."""
        queue = self._require_jobs()
        self._wait(lambda: not queue.active_count(), _field(request, "timeout_s", float, 60.0))
        active = queue.active_count()
        return {
            "drained": active == 0,
            "active": active,
            "jobs": [public_view(row) for row in queue.list_jobs()],
        }

    def _op_stats(self, request: Dict[str, Any]) -> Dict[str, Any]:
        with self._lock:
            response = {
                "requests_served": self.requests_served,
                "warm_schemes": sorted("/".join(key) for key in self._schemes),
                "open_stores": sorted(self._stores),
                "engine_counters": engine_counter_totals(),
                "counters": dict(sorted(self.counters.items())),
            }
        if self.jobs is not None:
            by_state: Dict[str, int] = {}
            for row in self.jobs.list_jobs():
                by_state[row["state"]] = by_state.get(row["state"], 0) + 1
            response["jobs"] = {
                "journal": str(self.jobs.path),
                "active": self.jobs.active_count(),
                "by_state": dict(sorted(by_state.items())),
            }
        return response

    def _op_shutdown(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {"shutdown": True}


# ----------------------------------------------------------------------
# socket transport
# ----------------------------------------------------------------------
def socket_alive(socket_path: Union[str, Path], timeout: float = 0.5) -> bool:
    """Whether a live daemon answers a ping on ``socket_path``.

    A stale socket file (its daemon SIGKILLed) refuses the connection and
    returns ``False`` — safe to unlink.  A live peer answers and must not
    be clobbered.
    """
    client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    client.settimeout(timeout)
    try:
        client.connect(str(socket_path))
        client.sendall(b'{"op": "ping"}\n')
        return bool(client.recv(4096))
    except OSError:
        return False
    finally:
        client.close()


def _send(conn: socket.socket, response: Dict[str, Any]) -> bool:
    try:
        conn.sendall((json.dumps(response) + "\n").encode("utf-8"))
    except OSError:
        return False
    return True


def _line_too_long() -> Dict[str, Any]:
    return {
        "ok": False,
        "error": f"request line exceeds {MAX_LINE_BYTES} bytes",
        "error_type": "LineTooLong",
    }


class _Call:
    """One request handed to the pool; ``done`` is released once it returned."""

    __slots__ = ("fn", "done", "result", "error")

    def __init__(self, fn: Callable[[], Any]) -> None:
        self.fn = fn
        # A pre-acquired lock is the cheapest one-shot completion signal.
        self.done = threading.Lock()
        self.done.acquire()
        self.result: Any = None
        self.error: Optional[BaseException] = None


class _PoolWorker:
    """One pool thread's mailbox: ``wake`` is released to hand it ``call``."""

    __slots__ = ("wake", "call")

    def __init__(self) -> None:
        self.wake = threading.Lock()
        self.wake.acquire()
        self.call: Optional[_Call] = None


class _RequestPool:
    """``size`` persistent daemon threads that run request handlers.

    Deliberately not :class:`concurrent.futures.ThreadPoolExecutor`: its
    workers are non-daemon threads, so one handler stuck past its deadline
    would block interpreter exit.  The most recently idle worker takes the
    next request, so a steady stream of requests keeps landing on one warm
    thread.  A worker frees its request's ``inflight`` slot only once it is
    idle again, so a request admitted to a slot always finds an idle worker.
    """

    def __init__(self, size: int, inflight: threading.BoundedSemaphore) -> None:
        self._inflight = inflight
        self._idle: List[_PoolWorker] = []
        self._lock = threading.Lock()
        self._closed = False
        for _ in range(size):
            worker = _PoolWorker()
            self._idle.append(worker)
            threading.Thread(
                target=self._work, args=(worker,), daemon=True,
                name="repro-serve-request",
            ).start()

    def submit(self, fn: Callable[[], Any]) -> _Call:
        """Run ``fn`` on an idle worker; the caller holds an ``inflight`` slot."""
        call = _Call(fn)
        with self._lock:
            worker = self._idle.pop()
        worker.call = call
        worker.wake.release()
        return call

    def _work(self, worker: _PoolWorker) -> None:
        while True:
            worker.wake.acquire()
            call, worker.call = worker.call, None
            if call is None:
                return
            try:
                call.result = call.fn()
            except BaseException as exc:  # re-raised in the waiting thread
                call.error = exc
            with self._lock:
                closed = self._closed
                if not closed:
                    self._idle.append(worker)
            self._inflight.release()
            call.done.release()
            if closed:
                return

    def close(self) -> None:
        """Stop the idle workers; a busy one exits when its handler returns."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for worker in idle:
            worker.wake.release()  # with no call: exit


class _Transport:
    """What one :func:`serve_forever` loop shares across its connections."""

    def __init__(
        self, session: ServeSession, max_inflight: int, deadline_s: Optional[float]
    ) -> None:
        self.session = session
        self.deadline_s = deadline_s
        self.stop = threading.Event()
        #: One slot per executing request.  A handler abandoned at its
        #: deadline keeps its slot until it returns, so stuck requests are
        #: bounded by ``max_inflight`` instead of piling up threads.
        self.inflight = threading.BoundedSemaphore(max_inflight)
        self.pool = _RequestPool(max_inflight, self.inflight)
        self._connections: Set[socket.socket] = set()
        self._connections_lock = threading.Lock()

    def track(self, conn: socket.socket) -> None:
        with self._connections_lock:
            self._connections.add(conn)

    def close_connections(self) -> None:
        """Wake every handler blocked in ``recv`` on an idle connection."""
        # Under the lock: a handler closes its socket only after leaving the
        # set, so no socket here is closed (and its fd reused) meanwhile.
        with self._connections_lock:
            for conn in self._connections:
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass

    def respond(self, line: bytes) -> Tuple[Optional[Dict[str, Any]], Dict[str, Any]]:
        """One request line -> (parsed request or None, response)."""
        session = self.session
        try:
            request_obj = json.loads(line)
        except ValueError as exc:  # malformed JSON or invalid UTF-8
            return None, {
                "ok": False,
                "error": f"bad JSON request: {exc}",
                "error_type": "BadRequest",
            }
        if not isinstance(request_obj, dict):
            return None, {
                "ok": False,
                "error": "request must be a JSON object",
                "error_type": "BadRequest",
            }
        op = request_obj.get("op")
        if op == "shutdown":
            # Always admitted: a daemon whose every slot is held by stuck
            # handlers must still stop when asked.
            return request_obj, session.handle(request_obj)
        if not self.inflight.acquire(blocking=False):
            session.count("serve/overloaded")
            return request_obj, {
                "ok": False,
                "error": "server at capacity; retry shortly",
                "error_type": "Overloaded",
                "retry_after_s": OVERLOAD_RETRY_AFTER_S,
            }
        exempt = op in DEADLINE_EXEMPT_OPS or (
            op == "job" and (request_obj.get("wait_s") or request_obj.get("follow"))
        )
        # The pool worker frees the slot when the handler returns.
        call = self.pool.submit(lambda: session.handle(request_obj))
        limit = -1 if exempt or not self.deadline_s else self.deadline_s
        if call.done.acquire(timeout=limit):
            if call.error is not None:
                raise call.error
            return request_obj, call.result
        session.count("serve/deadline_exceeded")
        session.count("serve/abandoned")
        return request_obj, {
            "ok": False,
            "error": (
                f"request op={op!r} exceeded {self.deadline_s:g}s"
                " wall-clock timeout"
            ),
            "error_type": "DeadlineExceeded",
            "deadline_s": self.deadline_s,
        }

    def serve_connection(self, conn: socket.socket) -> None:
        """One client connection: pipelined request lines, answered in order."""
        try:
            self._serve_lines(conn)
        finally:
            with self._connections_lock:
                self._connections.discard(conn)
            conn.close()

    def _serve_lines(self, conn: socket.socket) -> None:
        session = self.session
        conn.settimeout(None)  # sockets from a timed accept inherit its timeout
        buffer = b""
        while not self.stop.is_set():
            try:
                chunk = conn.recv(65536)
            except OSError:
                return
            if not chunk:
                return  # client left (possibly mid-line), or shutdown
            buffer += chunk
            if b"\n" not in buffer and len(buffer) > MAX_LINE_BYTES:
                session.count("serve/rejected_lines")
                _send(conn, _line_too_long())
                return
            while b"\n" in buffer:
                if self.stop.is_set():
                    return  # shutting down: start no more requests
                line, buffer = buffer.split(b"\n", 1)
                if not line.strip():
                    continue
                if len(line) > MAX_LINE_BYTES:
                    session.count("serve/rejected_lines")
                    _send(conn, _line_too_long())
                    return
                request_obj, response = self.respond(line)
                if not _send(conn, response):
                    return
                if response.get("shutdown"):
                    self.stop.set()  # the accept loop polls this between accepts
                    return
                if (
                    isinstance(request_obj, dict)
                    and request_obj.get("op") == "job"
                    and request_obj.get("follow")
                    and response.get("ok")
                ):
                    _follow_job(conn, session, request_obj, response, self.stop)
                    return  # the stream consumes the connection


def _follow_job(
    conn: socket.socket,
    session: ServeSession,
    request_obj: Dict[str, Any],
    first_response: Dict[str, Any],
    stop: threading.Event,
    poll_interval_s: float = 0.05,
) -> None:
    """Stream job snapshots until the job is terminal (``final: true``)."""
    job = first_response.get("job") or {}
    while not stop.is_set() and job.get("state") in ACTIVE_STATES:
        time.sleep(poll_interval_s)
        response = session.handle({"op": "job", "job_id": request_obj.get("job_id")})
        if not response.get("ok"):
            _send(conn, response)
            return
        job = response["job"]
        if job["state"] not in ACTIVE_STATES:
            response["final"] = True
        if not _send(conn, response):
            return


def serve_forever(
    socket_path: Union[str, Path],
    session: Optional[ServeSession] = None,
    ready: Optional[Any] = None,
    *,
    max_inflight: int = 8,
    deadline_s: Optional[float] = 30.0,
    backlog: int = 16,
) -> int:
    """Serve line-delimited JSON requests on a Unix socket until shutdown.

    The transport is the one the module docstring describes, with
    ``max_inflight`` in-flight slots and pool threads, and ``deadline_s``
    per request (``None`` waits without a limit).  A live daemon already
    bound to ``socket_path`` is detected by pinging it and refused; only a
    stale socket file is unlinked.  When the session has a job journal,
    startup recovers it (orphaned ``running`` jobs are re-queued) and
    starts the supervised job worker.

    ``ready`` (when given) is an object with a ``set()`` method — e.g. a
    :class:`threading.Event` — signalled once the socket is listening.
    Returns the number of requests served.
    """
    socket_path = Path(socket_path)
    if session is None:
        session = ServeSession()
    socket_path.parent.mkdir(parents=True, exist_ok=True)
    if socket_path.exists():
        if socket_alive(socket_path):
            raise ReproError(
                f"another serve daemon is listening on {socket_path};"
                " refusing to clobber its socket (stop it first, or use"
                " a different --socket path)"
            )
        socket_path.unlink()
    server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    transport = _Transport(session, max_inflight, deadline_s)
    handlers: List[threading.Thread] = []
    try:
        server.bind(str(socket_path))
        server.listen(backlog)
        # A timed accept: closing a socket another thread is blocked
        # accept()ing on does not reliably wake it, so the shutdown op
        # just sets ``stop`` and the loop notices within one interval.
        server.settimeout(0.1)
        session.recover_jobs()
        session.ensure_worker()
        if ready is not None:
            ready.set()
        while not transport.stop.is_set():
            try:
                conn, _ = server.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # server socket closed under us (teardown)
            session.count("serve/connections")
            transport.track(conn)
            thread = threading.Thread(
                target=transport.serve_connection,
                args=(conn,),
                daemon=True,
                name="repro-serve-conn",
            )
            thread.start()
            handlers.append(thread)
            handlers = [t for t in handlers if t.is_alive()]
    finally:
        transport.stop.set()
        try:
            server.close()
        except OSError:
            pass
        transport.close_connections()
        for thread in handlers:
            thread.join(timeout=1.0)
        transport.pool.close()
        if socket_path.exists():
            socket_path.unlink()
        session.close()
    return session.requests_served


# ----------------------------------------------------------------------
# client helpers
# ----------------------------------------------------------------------
class _KeptConnection:
    """A thread's kept-alive client socket and the path and process it serves.

    Closed when dropped, or else when its thread exits and the thread-local
    state holding it goes away.  ``close()``, never ``shutdown()``: a forked
    child holds a copy of its parent's socket, and shutting that copy down
    would cut the parent off.
    """

    __slots__ = ("sock", "path", "pid")

    def __init__(self, sock: socket.socket, path: str) -> None:
        self.sock = sock
        self.path = path
        self.pid = os.getpid()

    def __del__(self) -> None:
        self.sock.close()


#: Per thread, the ``kept`` :class:`_KeptConnection` of :func:`request`.
_client = threading.local()


def _client_connection(path: str, timeout: float) -> Tuple[socket.socket, bool]:
    """This thread's connection to ``path``, and whether it was reused."""
    kept = getattr(_client, "kept", None)
    if kept is not None and kept.path == path and kept.pid == os.getpid():
        if kept.sock.gettimeout() != timeout:
            kept.sock.settimeout(timeout)
        return kept.sock, True
    _drop_client_connection()  # one to another path, or the parent's
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    try:
        sock.connect(path)
    except BaseException:
        sock.close()
        raise
    _client.kept = _KeptConnection(sock, path)
    return sock, False


def _drop_client_connection() -> None:
    kept = getattr(_client, "kept", None)
    _client.kept = None
    if kept is not None:
        kept.sock.close()


def _request_once(
    socket_path: Union[str, Path], payload: Dict[str, Any], timeout: float
) -> Dict[str, Any]:
    path = str(socket_path)
    line = (json.dumps(payload) + "\n").encode("utf-8")
    conn, reused = _client_connection(path, timeout)
    try:
        try:
            conn.sendall(line)
        except OSError:
            if not reused:
                raise
            # The server closed the kept-alive connection (a restarted
            # daemon, say).  The newline is the last byte sent, so a failed
            # sendall means the server never parsed this request: sending it
            # again on a fresh connection cannot run it twice.
            _drop_client_connection()
            conn, _ = _client_connection(path, timeout)
            conn.sendall(line)
        # The response may arrive in arbitrarily small recv chunks; keep
        # reading until the terminating newline, however it is framed.
        buffer = b""
        while b"\n" not in buffer:
            chunk = conn.recv(65536)
            if not chunk:
                raise ReproError(
                    f"serve loop at {socket_path} closed the connection"
                    " before a full response"
                )
            buffer += chunk
        head, rest = buffer.split(b"\n", 1)
        response = json.loads(head)
    except socket.timeout as exc:
        # The late answer would otherwise be read as the next response.
        _drop_client_connection()
        raise ReproError(
            f"serve request timed out after {timeout:g}s at {socket_path}"
        ) from exc
    except BaseException:
        _drop_client_connection()
        raise
    if (
        rest
        or payload.get("follow")
        or response.get("shutdown")
        or response.get("error_type") == "LineTooLong"
    ):
        # The server closes this connection or has more lines to send on it.
        _drop_client_connection()
    return response


def request(
    socket_path: Union[str, Path],
    payload: Dict[str, Any],
    timeout: float = 30.0,
    retries: int = 0,
    retry_delay_s: float = 0.05,
) -> Dict[str, Any]:
    """Send one request to a running serve loop and return its response.

    Each thread keeps its connection alive and reuses it while it talks to
    the same socket path, so a run of requests costs one connect.  The connection is dropped on a timeout, on any error, after
    ``shutdown``, and when the thread turns to another socket path; a
    forked child never reuses its parent's.  A request whose ``sendall``
    fails on a reused connection (its daemon restarted, say) is sent again
    on a fresh one; a fully sent request is never re-sent.

    Socket timeouts surface as :class:`~repro.errors.ReproError` naming the
    socket path.  ``retries`` bounds reconnect attempts when the daemon is
    still starting up (connection refused / socket file not yet created).
    """
    attempt = 0
    while True:
        try:
            return _request_once(socket_path, payload, timeout)
        except (ConnectionRefusedError, FileNotFoundError) as exc:
            attempt += 1
            if attempt > retries:
                raise ReproError(
                    f"cannot reach serve loop at {socket_path}: {exc}"
                ) from exc
            time.sleep(retry_delay_s)


def stream(
    socket_path: Union[str, Path],
    payload: Dict[str, Any],
    timeout: float = 30.0,
):
    """Yield the response lines of a streaming request (e.g. job follow).

    The generator ends after a line carrying ``"final": true``, an error
    response, or the server closing the connection.
    """
    client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    client.settimeout(timeout)
    try:
        client.connect(str(socket_path))
        client.sendall((json.dumps(payload) + "\n").encode("utf-8"))
        buffer = b""
        while True:
            while b"\n" not in buffer:
                try:
                    chunk = client.recv(65536)
                except socket.timeout as exc:
                    raise ReproError(
                        f"serve stream timed out after {timeout:g}s"
                        f" at {socket_path}"
                    ) from exc
                if not chunk:
                    return
                buffer += chunk
            line, buffer = buffer.split(b"\n", 1)
            response = json.loads(line)
            yield response
            if response.get("final") or not response.get("ok"):
                return
    finally:
        client.close()
