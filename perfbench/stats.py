"""Percentiles, spreads and failure accounting for the benchmark."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: Percentiles a tail may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def rank(count: int, pct: float) -> int:
    """1-based nearest rank of ``pct`` among ``count`` samples."""
    # Rounded first so 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(pct * count / 100.0, 9)))


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``pct``% at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    return sorted(samples)[rank(len(samples), pct) - 1]


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie strictly beyond the ``pct`` rank."""
    return count - rank(count, pct)


def tail(samples: Sequence[float]) -> Optional[Tuple[float, float, int]]:
    """``(pct, value, samples beyond)`` for the highest supported percentile.

    The highest of :data:`TAIL_PERCENTILES` that has at least
    :data:`MIN_BEYOND` samples beyond it; ``None`` when even the median
    lacks that many.
    """
    for pct in TAIL_PERCENTILES:
        beyond = samples_beyond(len(samples), pct)
        if beyond >= MIN_BEYOND:
            return pct, percentile(samples, pct), beyond
    return None


def fastest_total(repetitions: Sequence[Sequence[float]]) -> float:
    """Sum over the steps of the fastest time any repetition took for the step.

    Every repetition replays the same steps (campaigns, requests).  On a
    machine whose speed drifts from second to second, the fastest reading of
    each step is the steadiest estimate of the program's own cost.
    """
    return sum(min(times) for times in zip(*repetitions))


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


@dataclass
class OpLedger:
    """Attempts, failures and latencies of one kind of operation.

    A failed operation also misses every latency limit, so it enters the
    latency samples as ``+inf``.
    """

    attempted: int = 0
    failed: int = 0
    latencies_ms: List[float] = field(default_factory=list)
    errors: Dict[str, int] = field(default_factory=dict)

    def ok(self, latency_ms: float) -> int:
        """Count a successful operation; returns its index for :meth:`mark_wrong`."""
        self.attempted += 1
        self.latencies_ms.append(latency_ms)
        return len(self.latencies_ms) - 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.latencies_ms.append(math.inf)
        self.errors[reason] = self.errors.get(reason, 0) + 1

    def mark_wrong(self, index: int, reason: str) -> None:
        """Turn an operation counted as ok into a failure (a wrong answer)."""
        if self.latencies_ms[index] == math.inf:
            return
        self.latencies_ms[index] = math.inf
        self.failed += 1
        self.errors[reason] = self.errors.get(reason, 0) + 1


def response_failure(response: dict) -> Optional[str]:
    """The failure reason of a serve response, or ``None`` when it succeeded."""
    if response.get("ok"):
        return None
    return str(response.get("error_type") or "error")
