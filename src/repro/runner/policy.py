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

A cell timeout preempts the cell with ``SIGALRM`` (:func:`run_with_timeout`),
so cells run only on the main thread of a process; no cell body outlives
its timeout.

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
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterator, Optional

from repro.errors import CellTimeoutError, ExperimentError
from repro.params import check_fields, decode

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
        check_fields(self, "execution policy")
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
        that eventually executes the job.  Unknown keys and mistyped values
        fail loudly — a typo in a policy field must not silently run with
        defaults.  ``None`` is the default policy.
        """
        return decode(cls, {} if payload is None else payload, "execution policy")

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


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause Python's cyclic garbage collector for the ``with`` body.

    Records ``gc.isenabled()``, disables the collector, and restores the
    recorded state on every exit path, exceptions included, so a nested
    pause restores only at the outermost exit.  Cells run only on the main
    thread of their process, so one thread per process holds the pause.
    Reference counting still frees acyclic
    garbage; cycles made meanwhile wait for the first collection after the
    pause.  The pause never calls ``gc.collect()``: a full pass over a
    campaign's heap costs more than the pause saves.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def run_with_timeout(
    fn: Callable[[], Any], timeout: Optional[float], label: str = "cell"
) -> Any:
    """Run ``fn`` with a wall-clock deadline, raising :class:`CellTimeoutError`.

    The deadline is enforced with ``SIGALRM``/``setitimer``, which
    interrupts even a CPU-bound cell body.  Signals reach only the main
    thread of a process, so a timeout asked for on any other thread raises
    :class:`~repro.errors.ExperimentError`; ``run_campaign`` never asks
    there (see :func:`~repro.runner.executor.run_campaign`).
    """
    if timeout is None:
        return fn()
    if threading.current_thread() is not threading.main_thread():
        raise ExperimentError(
            f"{label}: a {timeout:g}s timeout needs the main thread,"
            " where SIGALRM can interrupt the work"
        )

    def _on_alarm(signum, frame):
        raise CellTimeoutError(f"{label} exceeded {timeout:g}s wall-clock timeout")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
