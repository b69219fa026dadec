"""The ``repro serve`` job journal: a crash-safe queue in the campaign store.

A submitted campaign becomes a **job row** (the ``jobs`` table of the
versioned SQLite schema, :mod:`repro.store.schema` v2) before anything
executes, and every state transition afterwards is one UPDATE inside the
store's WAL — so the journal is exactly as crash-consistent as the results
it describes.  States::

    queued ──claim──> running ──> done
                         │  └───> failed    (error recorded, attempts kept)
       └────cancel────> cancelled <──┘      (cancel observed between cells)

A daemon SIGKILLed mid-job leaves the row in ``running`` with the dead
process's pid; :meth:`JobQueue.recover` finds those rows on restart,
re-queues them with ``resume`` forced on, and the worker drains them
through the store's existing resume path — which is what makes the drained
campaign byte-identical to an uninterrupted run (the chaos suite's
contract, extended up into the service layer).

Every method takes the queue's lock and runs its statements in one
``BEGIN IMMEDIATE`` transaction, so the journal connection can be shared
by the daemon's request threads and its job worker.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.errors import JobError
from repro.store import schema

#: Job states a row can be in.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: States that still need (or are consuming) worker time.
ACTIVE_STATES = ("queued", "running")


def pid_alive(pid: Optional[int]) -> bool:
    """Whether a pid names a live process (signal 0 probe)."""
    if not pid or pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # alive, owned by someone else
        return True
    return True


class JobQueue:
    """The journal behind the daemon's async ``submit`` (see module docstring)."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._lock = threading.RLock()
        self._conn: Optional[sqlite3.Connection] = None

    @property
    def conn(self) -> sqlite3.Connection:
        with self._lock:
            if self._conn is None:
                self._conn = schema.open_store(self.path)
            return self._conn

    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    def _transaction(self, fn):
        with self._lock, schema.transaction(self.conn) as conn:
            return fn(conn)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self,
        campaign_id: str,
        spec_dict: Dict[str, Any],
        results: str,
        workers: int = 1,
        resume: bool = False,
        policy_dict: Optional[Dict[str, Any]] = None,
        cells: int = 0,
    ) -> str:
        """Journal one job; returns its ``job_id``.

        The id is ``<campaign_id prefix>-<journal seq>``: stable enough to
        grep logs by campaign, unique across resubmissions of the same spec.
        """

        def _insert(conn: sqlite3.Connection) -> str:
            seq = conn.execute(
                "SELECT COALESCE(MAX(seq), 0) + 1 FROM jobs"
            ).fetchone()[0]
            job_id = f"{campaign_id[:12]}-{int(seq)}"
            conn.execute(
                "INSERT INTO jobs (job_id, campaign_id, spec_json, results,"
                " workers, resume, policy_json, state, submitted_s,"
                " progress_total)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, 'queued', ?, ?)",
                (
                    job_id,
                    campaign_id,
                    json.dumps(spec_dict, sort_keys=True),
                    results,
                    int(workers),
                    int(bool(resume)),
                    json.dumps(policy_dict, sort_keys=True) if policy_dict else None,
                    time.time(),
                    int(cells),
                ),
            )
            return job_id

        return self._transaction(_insert)

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------
    def claim(self, worker_pid: int) -> Optional[Dict[str, Any]]:
        """Atomically move the oldest queued job to ``running`` and return it."""

        def _claim(conn: sqlite3.Connection) -> Optional[Dict[str, Any]]:
            row = conn.execute(
                "SELECT * FROM jobs WHERE state = 'queued' ORDER BY seq LIMIT 1"
            ).fetchone()
            if row is None:
                return None
            conn.execute(
                "UPDATE jobs SET state = 'running', worker_pid = ?,"
                " attempts = attempts + 1, heartbeat_s = ?, phase = 'starting'"
                " WHERE job_id = ?",
                (worker_pid, time.time(), row["job_id"]),
            )
            job = dict(row)
            job["attempts"] += 1
            job["worker_pid"] = worker_pid
            return job

        return self._transaction(_claim)

    def progress(
        self, job_id: str, done: int, total: int, phase: Optional[str] = None
    ) -> None:
        """Heartbeat one running job (cells done/total plus a phase label)."""
        self._transaction(
            lambda conn: conn.execute(
                "UPDATE jobs SET progress_done = ?, progress_total = ?,"
                " phase = COALESCE(?, phase), heartbeat_s = ?"
                " WHERE job_id = ? AND state = 'running'",
                (int(done), int(total), phase, time.time(), job_id),
            )
        )

    def finish(
        self, job_id: str, executed: int, skipped: int, elapsed_s: float
    ) -> None:
        self._transaction(
            lambda conn: conn.execute(
                "UPDATE jobs SET state = 'done', executed = ?, skipped = ?,"
                " elapsed_s = ?, phase = 'done', heartbeat_s = ?,"
                " progress_done = progress_total WHERE job_id = ?",
                (int(executed), int(skipped), float(elapsed_s), time.time(), job_id),
            )
        )

    def fail(self, job_id: str, error: str, cancelled: bool = False) -> None:
        state = "cancelled" if cancelled else "failed"
        self._transaction(
            lambda conn: conn.execute(
                "UPDATE jobs SET state = ?, last_error = ?, phase = ?,"
                " heartbeat_s = ? WHERE job_id = ?",
                (state, error, state, time.time(), job_id),
            )
        )

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Dict[str, Any]:
        with self._lock:
            row = self.conn.execute(
                "SELECT * FROM jobs WHERE job_id = ?", (job_id,)
            ).fetchone()
        if row is None:
            raise JobError(f"no job {job_id!r} in journal {self.path}")
        return dict(row)

    def list_jobs(self, state: Optional[str] = None) -> List[Dict[str, Any]]:
        """Every job row, oldest-first, optionally filtered by state."""
        if state is not None and state not in JOB_STATES:
            raise JobError(
                f"unknown job state {state!r}; expected one of {JOB_STATES}"
            )
        with self._lock:
            if state is None:
                rows = self.conn.execute("SELECT * FROM jobs ORDER BY seq").fetchall()
            else:
                rows = self.conn.execute(
                    "SELECT * FROM jobs WHERE state = ? ORDER BY seq", (state,)
                ).fetchall()
        return [dict(row) for row in rows]

    def active_count(self) -> int:
        with self._lock:
            return int(
                self.conn.execute(
                    "SELECT COUNT(*) FROM jobs WHERE state IN ('queued', 'running')"
                ).fetchone()[0]
            )

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """Cancel a job: immediately when queued, via flag when running.

        A running job aborts when its next cell is stored, once its pool
        has run the cells it holds (one worker: at most two); a terminal
        job is left untouched (the returned row says which happened).
        """

        def _cancel(conn: sqlite3.Connection) -> None:
            row = conn.execute(
                "SELECT state FROM jobs WHERE job_id = ?", (job_id,)
            ).fetchone()
            if row is None:
                raise JobError(f"no job {job_id!r} in journal {self.path}")
            if row["state"] == "queued":
                conn.execute(
                    "UPDATE jobs SET state = 'cancelled', phase = 'cancelled',"
                    " cancel_requested = 1, heartbeat_s = ? WHERE job_id = ?",
                    (time.time(), job_id),
                )
            elif row["state"] == "running":
                conn.execute(
                    "UPDATE jobs SET cancel_requested = 1 WHERE job_id = ?",
                    (job_id,),
                )

        self._transaction(_cancel)
        return self.get(job_id)

    def cancel_requested(self, job_id: str) -> bool:
        with self._lock:
            row = self.conn.execute(
                "SELECT cancel_requested FROM jobs WHERE job_id = ?", (job_id,)
            ).fetchone()
        return bool(row and row["cancel_requested"])

    # ------------------------------------------------------------------
    # crash recovery
    # ------------------------------------------------------------------
    def recover(self) -> List[str]:
        """Re-queue stale ``running`` jobs whose worker pid is dead.

        Called on daemon startup.  Recovery forces ``resume`` on: whatever
        records the dead run flushed are kept, and the store's resume path
        re-runs exactly the missing cells — the byte-identity contract.
        Returns the re-queued job ids.
        """

        def _recover(conn: sqlite3.Connection) -> List[str]:
            rows = conn.execute(
                "SELECT job_id, worker_pid FROM jobs WHERE state = 'running'"
            ).fetchall()
            recovered = []
            for row in rows:
                if pid_alive(row["worker_pid"]) and row["worker_pid"] != os.getpid():
                    continue
                conn.execute(
                    "UPDATE jobs SET state = 'queued', worker_pid = NULL,"
                    " resume = 1, phase = 'recovered', heartbeat_s = ?"
                    " WHERE job_id = ?",
                    (time.time(), row["job_id"]),
                )
                recovered.append(row["job_id"])
            return recovered

        return self._transaction(_recover)


def public_view(job: Dict[str, Any]) -> Dict[str, Any]:
    """The response-shaped view of a job row (stable field set, no seq)."""
    return {
        "job_id": job["job_id"],
        "campaign_id": job["campaign_id"],
        "state": job["state"],
        "results": job["results"],
        "workers": job["workers"],
        "resume": bool(job["resume"]),
        "attempts": job["attempts"],
        "worker_pid": job["worker_pid"],
        "progress": {
            "done": job["progress_done"],
            "total": job["progress_total"],
            "phase": job["phase"],
        },
        "last_error": job["last_error"],
        "executed": job["executed"],
        "skipped": job["skipped"],
        "elapsed_s": job["elapsed_s"],
    }
