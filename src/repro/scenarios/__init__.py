"""Pluggable failure-scenario models for the campaign runner.

The paper evaluates resilient forwarding under independent failures: every
single link, sampled k-subsets, every node.  Real outages are correlated —
links share conduits, regions lose power, maintenance sweeps the backbone,
links flap in bursts.  This package turns "failure scenario generator" into
an extension point: a :class:`~repro.scenarios.base.ScenarioModel` is a
named, deterministic, parameterised generator of
:class:`~repro.failures.scenarios.FailureScenario` lists, and a campaign
selects one with ``ScenarioSpec(kind="model", model="srlg", ...)``.

Built-in models (see ``python -m repro scenarios list``):

============  ==========================================================
``srlg``      shared-risk link groups — conduit-sharing links fail together
``regional``  a BFS hop-ball around a sampled epicenter goes dark
``weighted``  failure probability proportional to betweenness or length
``maintenance``  rolling maintenance windows over a seeded link schedule
``churn``     Gilbert-Elliott/Weibull per-link churn, snapshotted in time
============  ==========================================================

Registering a custom model::

    from repro.scenarios import ScenarioModel, register_scenario_model

    class MeteorStrike(ScenarioModel):
        name = "meteor"
        summary = "a very local problem"
        def generate(self, graph, *, seed, samples, non_disconnecting, params):
            ...

    register_scenario_model(MeteorStrike())

(Register at import time of a module the executor's worker processes also
import — see :func:`~repro.scenarios.registry.register_scenario_model` for
the ``fork`` vs ``spawn`` caveat on parallel sweeps.)
"""

from repro.params import Param, ParamValue
from repro.scenarios.base import ScenarioModel
from repro.scenarios.registry import (
    available_scenario_models,
    get_scenario_model,
    register_scenario_model,
    registered_models,
)
from repro.scenarios.srlg import SharedRiskGroups
from repro.scenarios.regional import RegionalFailures, hop_ball
from repro.scenarios.weighted import WeightedLinkFailures, edge_betweenness
from repro.scenarios.maintenance import RollingMaintenance
from repro.scenarios.churn import (
    CHURN_PROCESSES,
    ChurnSnapshots,
    churn_events,
    churn_traces,
    down_links_at,
    gilbert_elliott_events,
    weibull_events,
)

#: The built-in models, registered on import so that specs referring to them
#: by name resolve in every process (including executor workers).
register_scenario_model(SharedRiskGroups())
register_scenario_model(RegionalFailures())
register_scenario_model(WeightedLinkFailures())
register_scenario_model(RollingMaintenance())
register_scenario_model(ChurnSnapshots())

__all__ = [
    "CHURN_PROCESSES",
    "ChurnSnapshots",
    "Param",
    "ParamValue",
    "RegionalFailures",
    "RollingMaintenance",
    "ScenarioModel",
    "SharedRiskGroups",
    "WeightedLinkFailures",
    "available_scenario_models",
    "churn_events",
    "churn_traces",
    "down_links_at",
    "edge_betweenness",
    "get_scenario_model",
    "gilbert_elliott_events",
    "hop_ball",
    "register_scenario_model",
    "registered_models",
    "weibull_events",
]
