"""Packet Re-cycling (PR) — reproduction of Lor, Landa & Rio, HotNets 2010.

The package is organised around a small set of subsystems:

* :mod:`repro.graph` — the graph substrate (multigraphs, darts, shortest
  paths, connectivity).
* :mod:`repro.embedding` — cellular graph embeddings (rotation systems,
  face tracing, planarity, genus minimisation).
* :mod:`repro.routing` — conventional link-state routing tables and
  distance discriminators.
* :mod:`repro.forwarding` — packets, headers, routers and the hop-by-hop
  forwarding engine.
* :mod:`repro.core` — the paper's contribution: cycle-following tables and
  the Packet Re-cycling protocol.
* :mod:`repro.baselines` — Failure-Carrying Packets, re-convergence,
  Loop-Free Alternates and a no-protection baseline.
* :mod:`repro.topologies` — Abilene, Géant, Teleglobe and synthetic
  topology generators.
* :mod:`repro.failures` — failure scenario enumeration and sampling.
* :mod:`repro.scenarios` — pluggable failure-scenario models (SRLG,
  regional, weighted, maintenance, churn) behind a name-keyed registry.
* :mod:`repro.metrics` — stretch, CCDFs and overhead accounting.
* :mod:`repro.simulator` — a discrete-event packet-level simulator.
* :mod:`repro.experiments` — runners that regenerate every figure and
  table of the paper's evaluation.
* :mod:`repro.runner` — the campaign runner: declarative parallel sweeps
  over the evaluation grid with a content-addressed offline-stage artifact
  cache and resumable runs into the campaign store.
* :mod:`repro.store` — the results layer: the queryable SQLite campaign
  store, the checksummed JSONL interchange format, migration between the
  two, the filter grammar and the resident serve loop.

Quickstart
----------

>>> from repro import build_packet_recycling, topologies
>>> network = topologies.abilene()
>>> pr = build_packet_recycling(network)
>>> outcome = pr.deliver("Seattle", "Atlanta", failed_links=set())
>>> outcome.delivered
True
"""

from repro._version import __version__
from repro.api import (
    ArtifactCache,
    CampaignHandle,
    CampaignSpec,
    CampaignStore,
    FailureScenario,
    Filter,
    ResultStore,
    ScenarioModel,
    ScenarioSpec,
    available_scenario_models,
    build_packet_recycling,
    compare_schemes,
    get_scenario_model,
    node_failure_scenarios,
    parse_filter,
    register_scenario_model,
    resolve_results,
    run_campaign,
    sample_multi_link_failures,
    single_link_failures,
    stretch_ccdf,
)
from repro import (
    baselines,
    core,
    embedding,
    experiments,
    failures,
    forwarding,
    graph,
    metrics,
    routing,
    runner,
    scenarios,
    simulator,
    topologies,
)

__all__ = [
    "__version__",
    "ArtifactCache",
    "CampaignHandle",
    "CampaignSpec",
    "CampaignStore",
    "FailureScenario",
    "Filter",
    "ResultStore",
    "ScenarioModel",
    "ScenarioSpec",
    "available_scenario_models",
    "build_packet_recycling",
    "compare_schemes",
    "get_scenario_model",
    "node_failure_scenarios",
    "parse_filter",
    "register_scenario_model",
    "resolve_results",
    "run_campaign",
    "sample_multi_link_failures",
    "single_link_failures",
    "stretch_ccdf",
    "baselines",
    "core",
    "embedding",
    "experiments",
    "failures",
    "forwarding",
    "graph",
    "metrics",
    "routing",
    "runner",
    "scenarios",
    "simulator",
    "topologies",
]
