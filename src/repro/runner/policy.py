"""Execution policy for fault-tolerant campaigns: retries, timeouts, quarantine.

:class:`ExecutionPolicy` bundles the knobs `run_campaign` consults when a
cell fails: how many times to retry, how long a cell may run, and whether a
cell that exhausts its retries aborts the campaign (``on_error="fail"``, the
legacy behaviour and the default) or is quarantined (``on_error="quarantine"``:
recorded in the campaign store's ``quarantine`` table) so the rest of the
sweep completes.

Backoff between retries is exponential with **deterministic jitter**: the
jitter fraction is hashed from ``(cell_id, attempt)``, so a rerun of the
same campaign against the same flaky resource spaces its retries
identically — reproducibility extends to the failure path.

Every cell attempt also runs with Python's cyclic garbage collector paused
(:func:`collector_paused`): a campaign's long-lived heap of engine memos and
sample rows is almost all live, so collections during a cell walk hundreds
of thousands of objects and free next to nothing.
"""

from __future__ import annotations

import gc
import hashlib
import signal
import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from typing import Any, Callable, Iterator, Optional

from repro.errors import CellTimeoutError, ExperimentError

#: Valid ``on_error`` dispositions.
ON_ERROR_MODES = ("fail", "quarantine")


@dataclass(frozen=True)
class ExecutionPolicy:
    """How `run_campaign` treats failing, hanging, and crashing cells.

    The defaults reproduce the legacy semantics exactly: no retries, no
    timeout, first error aborts the campaign.
    """

    max_retries: int = 0
    cell_timeout: Optional[float] = None
    on_error: str = "fail"
    backoff_base_s: float = 0.1
    backoff_cap_s: float = 5.0
    max_pool_rebuilds: int = 16

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ExperimentError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ExperimentError(
                f"cell_timeout must be positive, got {self.cell_timeout}"
            )
        if self.on_error not in ON_ERROR_MODES:
            raise ExperimentError(
                f"on_error must be one of {ON_ERROR_MODES}, got {self.on_error!r}"
            )
        if self.max_pool_rebuilds < 0:
            raise ExperimentError(
                f"max_pool_rebuilds must be >= 0, got {self.max_pool_rebuilds}"
            )

    @property
    def quarantines(self) -> bool:
        return self.on_error == "quarantine"

    def to_dict(self) -> dict:
        """The policy as a JSON-shaped dictionary (the job-journal form)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Optional[dict]) -> "ExecutionPolicy":
        """A policy from its dictionary form (missing keys keep defaults).

        This is how a ``repro serve`` ``submit`` request carries its
        fault-tolerance knobs into the journal and back out to the worker
        that eventually executes the job.  Unknown keys fail loudly —
        a typo in a policy field must not silently run with defaults.
        """
        if not payload:
            return cls()
        known = {field.name for field in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ExperimentError(
                f"unknown execution-policy fields {unknown!r};"
                f" expected a subset of {sorted(known)}"
            )
        return cls(**payload)

    def backoff_seconds(self, cell_id: str, attempt: int) -> float:
        """Delay before retry ``attempt`` (1-based) of a cell.

        Exponential in the attempt number, capped, with a deterministic
        jitter in ``[0, 1)`` of the base delay hashed from the cell id so
        two cells failing together don't retry in lockstep — yet the same
        cell always waits the same amount on the same attempt.
        """
        if attempt <= 0:
            return 0.0
        base = self.backoff_base_s * (2.0 ** (attempt - 1))
        digest = hashlib.sha256(f"{cell_id}|{attempt}".encode("utf-8")).digest()
        jitter = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return min(self.backoff_cap_s, base * (1.0 + jitter))


#: How many callers are inside :func:`collector_paused`, guarded by the lock.
_pause_lock = threading.Lock()
_pause_depth = 0
#: Whether the collector was enabled when the first caller entered.
_pause_restores = False


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause Python's cyclic garbage collector for the ``with`` body.

    Nests and is thread-safe: the first entrant records ``gc.isenabled()``
    and disables the collector; the last leaver re-enables it only if it
    was enabled on that first entry, on every exit path, exceptions
    included.  The collector is process-global, so while any caller is
    inside, *every* thread of the process sees it paused — in
    ``repro serve`` the request threads run beside the job worker's cells
    this way.  Reference counting still frees acyclic garbage; cycles made
    meanwhile wait for the first collection after the pause.  The pause
    never calls ``gc.collect()``: a full pass over a campaign's heap costs
    more than the pause saves.
    """
    global _pause_depth, _pause_restores
    with _pause_lock:
        if _pause_depth == 0:
            _pause_restores = gc.isenabled()
            gc.disable()
        _pause_depth += 1
    try:
        yield
    finally:
        with _pause_lock:
            _pause_depth -= 1
            if _pause_depth == 0 and _pause_restores:
                gc.enable()


def run_with_timeout(
    fn: Callable[[], Any], timeout: Optional[float], label: str = "cell"
) -> Any:
    """Run ``fn`` with a wall-clock deadline, raising :class:`CellTimeoutError`.

    On the main thread of a process (the only thread a worker process runs
    cells on) the deadline is enforced with ``SIGALRM``/``setitimer``, which
    interrupts even a CPU-bound cell body.  Off the main thread — e.g. a
    library caller driving campaigns from a thread — we fall back to running
    ``fn`` on a daemon thread and abandoning it on timeout: the result is
    discarded, but the campaign regains control.

    The executor calls this inside :func:`collector_paused`, never the other
    way round: the pause is held by the caller, so a timeout releases it
    when :class:`CellTimeoutError` is raised here, not when an abandoned
    body thread ends (which may be never).
    """
    if timeout is None:
        return fn()
    if threading.current_thread() is threading.main_thread():
        def _on_alarm(signum, frame):
            raise CellTimeoutError(f"{label} exceeded {timeout:g}s wall-clock timeout")

        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            return fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    box: dict = {}

    def _target() -> None:
        try:
            box["value"] = fn()
        except BaseException as exc:  # propagated below
            box["error"] = exc

    worker = threading.Thread(target=_target, daemon=True)
    worker.start()
    worker.join(timeout)
    if worker.is_alive():
        raise CellTimeoutError(f"{label} exceeded {timeout:g}s wall-clock timeout")
    if "error" in box:
        raise box["error"]
    return box["value"]

