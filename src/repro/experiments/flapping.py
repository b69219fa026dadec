"""Link-flapping experiment (the Section 7 discussion, quantified).

A flapping link makes any alternate-forwarding scheme dangerous: a packet
that was deflected because the link was down may meet the same link up again
while still cycle following, breaking the assumptions behind the termination
argument.  The paper's counter-measure is a hold-down: "link state transitions
only happen after the link has been idle for long enough".

This experiment generates a flapping sample path, applies hold-down filters of
increasing length and reports, for each setting:

* how many state transitions the control plane actually acts on;
* the *inconsistency time* — how long the link is advertised up while it is
  really down (the window in which packets can be black-holed or meet the
  link in inconsistent states);
* the *capacity loss* — how long the link is advertised down while it is
  really up (the price paid for damping).

Larger hold-downs trade capacity for stability, which is exactly the knob the
paper hands to the operator.

The sample path defaults to the exponential process of
:class:`~repro.failures.flapping.LinkFlappingProcess`, but any churn process
from the scenario-model library can be substituted (``process=
"gilbert-elliott"`` for bursty Markov-chain churn, ``"weibull"`` for
heavy-tailed repair times), so the hold-down trade-off can be read off under
the same traces the ``churn`` scenario model feeds into campaigns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import ExperimentError
from repro.failures.flapping import FlapEvent, LinkFlappingProcess, hold_down_filter
from repro.scenarios.churn import CHURN_PROCESSES, churn_events


@dataclass(frozen=True)
class FlappingRow:
    """Outcome of one hold-down setting on one flapping sample path."""

    hold_down: float
    raw_transitions: int
    acted_transitions: int
    advertised_up_while_down: float
    advertised_down_while_up: float


def _state_timeline(events: Sequence[FlapEvent], horizon: float, initially_up: bool = True) -> List[Tuple[float, float, bool]]:
    """Turn a transition list into ``(start, end, up)`` segments covering [0, horizon)."""
    segments: List[Tuple[float, float, bool]] = []
    state = initially_up
    last = 0.0
    for event in sorted(events, key=lambda item: item.time):
        if event.time >= horizon:
            break
        if event.time > last:
            segments.append((last, event.time, state))
        state = event.up
        last = event.time
    if last < horizon:
        segments.append((last, horizon, state))
    return segments


def _overlap_where(
    actual: Sequence[Tuple[float, float, bool]],
    advertised: Sequence[Tuple[float, float, bool]],
    actual_up: bool,
    advertised_up: bool,
) -> float:
    """Total time where the actual and advertised states match the given pattern."""
    total = 0.0
    for a_start, a_end, a_state in actual:
        if a_state != actual_up:
            continue
        for b_start, b_end, b_state in advertised:
            if b_state != advertised_up:
                continue
            overlap = min(a_end, b_end) - max(a_start, b_start)
            if overlap > 0:
                total += overlap
    return total


#: Sample-path generators accepted by :func:`flapping_experiment`: the
#: exponential baseline plus every churn process the scenario library ships.
FLAP_PROCESSES = ("exponential",) + CHURN_PROCESSES


def flapping_experiment(
    mean_up_time: float = 2.0,
    mean_down_time: float = 0.5,
    horizon: float = 300.0,
    hold_downs: Optional[Sequence[float]] = None,
    seed: int = 42,
    process: str = "exponential",
    shape: float = 1.5,
    step: float = 0.1,
) -> List[FlappingRow]:
    """Evaluate hold-down settings against one flapping sample path.

    ``process`` selects the churn model behind the sample path; ``shape``
    only applies to ``"weibull"`` and ``step`` only to ``"gilbert-elliott"``.
    """
    if hold_downs is None:
        hold_downs = [0.0, 1.0, 2.0, 5.0, 10.0]
    if process == "exponential":
        raw_events = LinkFlappingProcess(
            mean_up_time, mean_down_time, seed=seed
        ).events_until(horizon)
    elif process in FLAP_PROCESSES:
        raw_events = churn_events(
            process,
            rng=random.Random(seed),
            horizon=horizon,
            mean_up=mean_up_time,
            mean_down=mean_down_time,
            shape=shape,
            step=step,
        )
    else:
        raise ExperimentError(
            f"unknown flapping process {process!r}; expected one of {FLAP_PROCESSES}"
        )
    actual = _state_timeline(raw_events, horizon)

    rows: List[FlappingRow] = []
    for hold_down in hold_downs:
        if hold_down <= 0.0:
            acted_events = list(raw_events)
        else:
            acted_events = hold_down_filter(raw_events, hold_down=hold_down, horizon=horizon)
        advertised = _state_timeline(acted_events, horizon)
        rows.append(
            FlappingRow(
                hold_down=hold_down,
                raw_transitions=len(raw_events),
                acted_transitions=len(acted_events),
                advertised_up_while_down=_overlap_where(actual, advertised, False, True),
                advertised_down_while_up=_overlap_where(actual, advertised, True, False),
            )
        )
    return rows
