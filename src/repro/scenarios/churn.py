"""Churn traces: per-link up/down processes snapshotted into failure sets.

The flapping module (:mod:`repro.failures.flapping`) models a single link
with exponential sojourn times.  Real links burst: outages cluster in time
(Gilbert–Elliott's two-state Markov chain) and repair times are heavy-tailed
(Weibull fits of measured time-between-failure data).  This module provides
both processes as :class:`~repro.failures.flapping.FlapEvent` timeline
generators — reused by the Section 7 flapping experiment via
``flapping_experiment(process=...)`` — and a scenario model that runs one
independent process per link and snapshots the network at evenly spaced
times: every link down at a snapshot instant fails together, which is how
temporal correlation becomes the *spatially* correlated failure sets the
campaign runner consumes.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Mapping, Tuple

from repro.errors import ExperimentError
from repro.failures.flapping import FlapEvent
from repro.failures.scenarios import FailureScenario
from repro.graph.multigraph import Graph
from repro.params import Param, ParamValue
from repro.scenarios.base import ScenarioModel

#: Churn processes accepted by :func:`churn_events` (and, with the addition
#: of ``"exponential"``, by ``flapping_experiment``).
CHURN_PROCESSES = ("gilbert-elliott", "weibull")


def _require_positive_finite(**values: float) -> None:
    """Every value must be a positive finite number (nan/inf would make the
    simulation time loops run forever)."""
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0):
            raise ExperimentError(f"{name} must be positive and finite, got {value!r}")


def gilbert_elliott_events(
    rng: random.Random,
    horizon: float,
    mean_up: float,
    mean_down: float,
    step: float = 1.0,
    initially_up: bool = True,
) -> List[FlapEvent]:
    """Two-state discrete-time Markov chain sampled every ``step`` seconds.

    Transition probabilities are chosen so the expected sojourn times match
    ``mean_up`` / ``mean_down``: ``P(up -> down) = step / mean_up`` per step
    (clamped to 1), and symmetrically for repair.
    """
    _require_positive_finite(horizon=horizon, step=step, mean_up=mean_up,
                             mean_down=mean_down)
    p_fail = min(1.0, step / mean_up)
    p_repair = min(1.0, step / mean_down)
    events: List[FlapEvent] = []
    up = initially_up
    time = step
    while time < horizon:
        flip = rng.random() < (p_fail if up else p_repair)
        if flip:
            up = not up
            events.append(FlapEvent(time=time, up=up))
        time += step
    return events


def weibull_events(
    rng: random.Random,
    horizon: float,
    mean_up: float,
    mean_down: float,
    shape: float = 1.5,
    initially_up: bool = True,
) -> List[FlapEvent]:
    """Alternating renewal process with Weibull-distributed sojourn times.

    The scale of each Weibull is set so its mean matches ``mean_up`` /
    ``mean_down`` (mean of Weibull(scale, shape) is ``scale * Γ(1 + 1/shape)``).
    ``shape < 1`` gives heavy-tailed outages, ``shape > 1`` wear-out-like
    clustering around the mean.
    """
    _require_positive_finite(horizon=horizon, mean_up=mean_up,
                             mean_down=mean_down, shape=shape)
    gamma = math.gamma(1.0 + 1.0 / shape)
    scale_up = mean_up / gamma
    scale_down = mean_down / gamma
    events: List[FlapEvent] = []
    up = initially_up
    time = 0.0
    while True:
        scale = scale_up if up else scale_down
        time += rng.weibullvariate(scale, shape)
        if time >= horizon:
            break
        up = not up
        events.append(FlapEvent(time=time, up=up))
    return events


def churn_events(
    process: str,
    *,
    rng: random.Random,
    horizon: float,
    mean_up: float,
    mean_down: float,
    shape: float = 1.5,
    step: float = 1.0,
    initially_up: bool = True,
) -> List[FlapEvent]:
    """Dispatch to one of the churn processes by name."""
    if process == "gilbert-elliott":
        return gilbert_elliott_events(
            rng, horizon, mean_up, mean_down, step=step, initially_up=initially_up
        )
    if process == "weibull":
        return weibull_events(
            rng, horizon, mean_up, mean_down, shape=shape, initially_up=initially_up
        )
    raise ExperimentError(
        f"unknown churn process {process!r}; expected one of {CHURN_PROCESSES}"
    )


def churn_traces(
    graph: Graph,
    *,
    seed: int,
    process: str,
    horizon: float,
    mean_up: float,
    mean_down: float,
    shape: float = 1.5,
    step: float = 1.0,
) -> Dict[int, List[FlapEvent]]:
    """One independent churn timeline per link, deterministic in ``seed``.

    Each link's sub-seed is derived from ``(seed, edge_id)`` so the trace of
    one link does not depend on how many links precede it.
    """
    traces: Dict[int, List[FlapEvent]] = {}
    for edge_id in graph.edge_ids():
        rng = random.Random((seed << 20) ^ edge_id)
        traces[edge_id] = churn_events(
            process,
            rng=rng,
            horizon=horizon,
            mean_up=mean_up,
            mean_down=mean_down,
            shape=shape,
            step=step,
        )
    return traces


def down_links_at(traces: Mapping[int, List[FlapEvent]], time: float) -> Tuple[int, ...]:
    """The links that are down at ``time`` (links start up at time 0)."""
    down: List[int] = []
    for edge_id, events in traces.items():
        up = True
        for event in events:
            if event.time > time:
                break
            up = event.up
        if not up:
            down.append(edge_id)
    return tuple(sorted(down))


class ChurnSnapshots(ScenarioModel):
    """Snapshots of a per-link churn process as simultaneous failure sets."""

    name = "churn"
    summary = "Gilbert-Elliott/Weibull per-link churn sampled at snapshot times"
    params = (
        Param("process", "gilbert-elliott", "'gilbert-elliott' or 'weibull'"),
        Param("horizon", 200.0, "simulated seconds of churn"),
        Param("mean_up", 50.0, "mean link up time (seconds)"),
        Param("mean_down", 5.0, "mean link down time (seconds)"),
        Param("shape", 1.5, "Weibull shape (ignored by gilbert-elliott)"),
        Param("step", 1.0, "Gilbert-Elliott step (ignored by weibull)"),
    )

    def validate_params(self, params) -> None:
        if params["process"] not in CHURN_PROCESSES:
            raise ExperimentError(
                f"unknown churn process {params['process']!r}; "
                f"expected one of {CHURN_PROCESSES}"
            )
        for name in ("horizon", "mean_up", "mean_down", "shape", "step"):
            if params[name] <= 0:
                raise ExperimentError(f"{name} must be positive")

    def generate(
        self,
        graph: Graph,
        *,
        seed: int,
        samples: int,
        non_disconnecting: bool,
        params: Mapping[str, ParamValue],
    ) -> List[FailureScenario]:
        horizon = float(params["horizon"])
        traces = churn_traces(
            graph,
            seed=seed,
            process=str(params["process"]),
            horizon=horizon,
            mean_up=float(params["mean_up"]),
            mean_down=float(params["mean_down"]),
            shape=float(params["shape"]),
            step=float(params["step"]),
        )
        scenarios: List[FailureScenario] = []
        seen = set()
        # Evenly spaced snapshot instants strictly inside (0, horizon); an
        # empty snapshot (nothing down) carries no failure and is skipped, as
        # are repeats of an already-captured failure set.
        for index in range(samples):
            time = horizon * (index + 1) / (samples + 1)
            down = down_links_at(traces, time)
            if not down or down in seen:
                continue
            seen.add(down)
            scenario = FailureScenario(
                down,
                kind="churn",
                description=f"{params['process']} snapshot at t={time:.1f}s",
            )
            if non_disconnecting and not scenario.keeps_connected(graph):
                continue
            scenarios.append(scenario)
        return scenarios
