"""Deterministic fault-injection harness for campaign chaos testing.

The campaign runner claims to survive worker crashes, cell hangs, poison
cells and torn writes; this module makes those failures *reproducible* so
the chaos suite can assert the claim.  A :class:`FaultPlan` is a list of
:class:`FaultSpec` entries, each naming an injection **site** (a checkpoint
compiled into the runner), a fault **kind**, and a deterministic trigger —
either an explicit cell-id match or a seeded probability hashed from the
``(seed, site, key, attempt)`` coordinates, so the same plan fires the same
faults on every rerun regardless of process layout or timing.

Sites (where :func:`checkpoint` is called from):

* ``cell-body``     — start of :func:`~repro.runner.executor.run_cell`
  (key: the cell id, attempt: the retry attempt number);
* ``chunk-envelope`` — before a worker returns its chunk-result envelope
  (key: the first cell id of the chunk);
* ``store-append``  — before :meth:`CampaignStore.append_record` writes a
  record (key: the record's cell id);
* ``cache-read``    — before :meth:`ArtifactCache.load_embedding` reads an
  artifact (key: the artifact's content-addressed key);
* ``serve-request`` — before a ``repro serve`` request dispatches to its
  op handler (key: the op name);
* ``job-journal``   — before a ``submit`` request journals its job row
  (key: the campaign id);
* ``job-dispatch``  — in the daemon's job worker, after a job is claimed
  and marked ``running`` but before any cell executes (key: the job id,
  attempt: the job's prior attempt count — ``max_attempt=1`` makes a crash
  here fire once and let the restarted daemon recover cleanly).

Kinds:

* ``exception``     — raise :class:`~repro.errors.InjectedFault`;
* ``crash``         — ``SIGKILL`` the current process (a worker OOM-kill, or
  the whole campaign when injected at a parent-side site);
* ``hang``          — sleep ``seconds`` (exercises the cell-timeout reaper);
* ``partial-write`` — returned to the call site, which simulates a torn
  write (store: death with the insert transaction open; cache: truncate
  the artifact).

Plans are configured through the ``REPRO_FAULTS`` environment variable — the
cross-process contract that reaches worker processes however they start —
or programmatically via :func:`install`.  The grammar is ``;``-separated
faults of ``,``-separated ``key=value`` fields::

    REPRO_FAULTS="site=cell-body,kind=exception,cells=3f2a,max_attempt=1"
    REPRO_FAULTS="site=store-append,kind=partial-write,skip=3"
    REPRO_FAULTS="site=cell-body,kind=hang,p=0.25,seed=7,seconds=5"

Fields: ``site`` (required), ``kind`` (required), ``p`` (probability,
default 1), ``seed`` (hash seed for ``p < 1``), ``cells`` (``+``-separated
cell-id prefixes to match), ``times`` (max fires per process), ``skip``
(ignore the first N eligible hits, per process), ``max_attempt`` (fire only
while ``attempt < max_attempt`` — a transient fault that retries cure), and
``seconds`` (hang duration).  ``times``/``skip`` counters are per-process
and count hits in the order the process sees them, so they are
deterministic only for serial runs: in a parallel run, parent-side sites
such as ``store-append`` see cells in completion order.  Parallel plans
should prefer ``cells=``/``max_attempt`` triggers, which are stateless.
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import ExperimentError, InjectedFault

#: Injection sites compiled into the campaign runner and the serve daemon.
SITES: Tuple[str, ...] = (
    "cell-body",
    "chunk-envelope",
    "store-append",
    "cache-read",
    "serve-request",
    "job-journal",
    "job-dispatch",
)

#: Fault kinds the harness can act out.
KINDS: Tuple[str, ...] = ("exception", "crash", "hang", "partial-write")

#: Environment variable holding the active plan (the cross-process contract).
ENV_VAR = "REPRO_FAULTS"


def fault_fraction(seed: int, site: str, key: Optional[str], attempt: int) -> float:
    """A deterministic value in ``[0, 1)`` for a probability decision.

    Hashed from every coordinate of the injection point, so the decision is
    identical across reruns, serial vs parallel layouts, and resume — the
    same property the campaign's own per-cell seeds rely on.
    """
    text = f"{seed}|{site}|{key or ''}|{attempt}"
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class FaultSpec:
    """One fault: where it fires, what it does, and its deterministic trigger."""

    site: str
    kind: str
    probability: float = 1.0
    seed: int = 0
    cells: Tuple[str, ...] = ()
    times: Optional[int] = None
    skip: int = 0
    max_attempt: Optional[int] = None
    seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ExperimentError(
                f"unknown fault site {self.site!r}; expected one of {SITES}"
            )
        if self.kind not in KINDS:
            raise ExperimentError(
                f"unknown fault kind {self.kind!r}; expected one of {KINDS}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ExperimentError(
                f"fault probability must be within [0, 1], got {self.probability!r}"
            )

    def matches(self, site: str, key: Optional[str], attempt: int) -> bool:
        """The stateless part of the trigger (no times/skip accounting)."""
        if site != self.site:
            return False
        if self.cells:
            if key is None or not any(key.startswith(prefix) for prefix in self.cells):
                return False
        if self.max_attempt is not None and attempt >= self.max_attempt:
            return False
        if self.probability >= 1.0:
            return True
        return fault_fraction(self.seed, site, key, attempt) < self.probability

    def describe(self) -> str:
        parts = [f"site={self.site}", f"kind={self.kind}"]
        if self.probability < 1.0:
            parts.append(f"p={self.probability:g}")
            parts.append(f"seed={self.seed}")
        if self.cells:
            parts.append("cells=" + "+".join(self.cells))
        if self.times is not None:
            parts.append(f"times={self.times}")
        if self.skip:
            parts.append(f"skip={self.skip}")
        if self.max_attempt is not None:
            parts.append(f"max_attempt={self.max_attempt}")
        if self.kind == "hang":
            parts.append(f"seconds={self.seconds:g}")
        return ",".join(parts)


def parse_fault(text: str) -> FaultSpec:
    """One ``key=value,...`` fault clause into a :class:`FaultSpec`."""
    fields: Dict[str, str] = {}
    for pair in text.split(","):
        pair = pair.strip()
        if not pair:
            continue
        if "=" not in pair:
            raise ExperimentError(
                f"cannot parse fault field {pair!r} in {text!r}; use key=value"
            )
        name, value = pair.split("=", 1)
        fields[name.strip()] = value.strip()
    unknown = sorted(
        set(fields)
        - {"site", "kind", "p", "seed", "cells", "times", "skip", "max_attempt", "seconds"}
    )
    if unknown:
        raise ExperimentError(f"unknown fault fields {unknown!r} in {text!r}")
    if "site" not in fields or "kind" not in fields:
        raise ExperimentError(f"fault spec {text!r} needs at least site= and kind=")
    try:
        return FaultSpec(
            site=fields["site"],
            kind=fields["kind"],
            probability=float(fields.get("p", 1.0)),
            seed=int(fields.get("seed", 0)),
            cells=tuple(
                prefix for prefix in fields.get("cells", "").split("+") if prefix
            ),
            times=int(fields["times"]) if "times" in fields else None,
            skip=int(fields.get("skip", 0)),
            max_attempt=int(fields["max_attempt"]) if "max_attempt" in fields else None,
            seconds=float(fields.get("seconds", 30.0)),
        )
    except ValueError as exc:
        raise ExperimentError(f"bad numeric field in fault spec {text!r}: {exc}")


@dataclass
class FaultPlan:
    """An ordered list of fault specs plus their per-process fire accounting."""

    specs: Tuple[FaultSpec, ...] = ()
    _eligible: Dict[int, int] = field(default_factory=dict, repr=False)
    _fired: Dict[int, int] = field(default_factory=dict, repr=False)

    def decide(self, site: str, key: Optional[str], attempt: int) -> Optional[FaultSpec]:
        """The first spec that fires at this checkpoint, with accounting."""
        for index, spec in enumerate(self.specs):
            if not spec.matches(site, key, attempt):
                continue
            seen = self._eligible.get(index, 0) + 1
            self._eligible[index] = seen
            if seen <= spec.skip:
                continue
            fired = self._fired.get(index, 0)
            if spec.times is not None and fired >= spec.times:
                continue
            self._fired[index] = fired + 1
            return spec
        return None

    def describe(self) -> str:
        return ";".join(spec.describe() for spec in self.specs)


def parse_plan(text: str) -> Optional[FaultPlan]:
    """A full ``REPRO_FAULTS`` value into a plan (``None`` when empty)."""
    clauses = [clause.strip() for clause in text.split(";") if clause.strip()]
    if not clauses:
        return None
    return FaultPlan(specs=tuple(parse_fault(clause) for clause in clauses))


# ----------------------------------------------------------------------
# the active plan (None == no injection, the production fast path)
# ----------------------------------------------------------------------
_PLAN: Optional[FaultPlan] = None
_LOADED = False


def active_plan() -> Optional[FaultPlan]:
    """The process's fault plan, lazily loaded from ``REPRO_FAULTS``."""
    global _PLAN, _LOADED
    if not _LOADED:
        _PLAN = parse_plan(os.environ.get(ENV_VAR, ""))
        _LOADED = True
    return _PLAN


def install(plan: Optional[FaultPlan]) -> None:
    """Install a plan programmatically (``None`` disables injection).

    In-process only: worker processes (a ``repro serve`` job's among them)
    load their plan from ``REPRO_FAULTS`` via :func:`reload_from_env`, so
    cross-process chaos tests must configure the environment variable.
    """
    global _PLAN, _LOADED
    _PLAN = plan
    _LOADED = True


def reload_from_env() -> None:
    """Drop the cached plan; the next checkpoint re-reads ``REPRO_FAULTS``.

    Worker initializers call this so fork-started workers shed the parent's
    fire accounting (and spawn-started workers pick the plan up at all).
    """
    global _PLAN, _LOADED
    _PLAN = None
    _LOADED = False


def crash_now() -> None:  # pragma: no cover - the caller dies
    """Die the way an OOM-killed worker dies: SIGKILL, no cleanup."""
    os.kill(os.getpid(), signal.SIGKILL)


def checkpoint(site: str, key: Optional[str] = None, attempt: int = 0) -> Optional[FaultSpec]:
    """Run the fault decision for one injection site.

    ``exception``/``crash``/``hang`` faults are acted out here; a
    ``partial-write`` fault is *returned* for the call site to simulate
    (what "partially written" means differs per site).  Returns ``None`` —
    at the cost of one module-global load — when no plan is installed.
    """
    plan = _PLAN if _LOADED else active_plan()
    if plan is None:
        return None
    spec = plan.decide(site, key, attempt)
    if spec is None:
        return None
    if spec.kind == "exception":
        raise InjectedFault(
            f"injected fault at {site} (key={key!r}, attempt={attempt})"
        )
    if spec.kind == "crash":  # pragma: no cover - the process dies
        crash_now()
    if spec.kind == "hang":
        time.sleep(spec.seconds)
        return None
    return spec  # partial-write: interpreted by the call site
