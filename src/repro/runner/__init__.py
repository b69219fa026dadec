"""Campaign runner: parallel experiment sweeps over the evaluation grid.

The paper's evaluation is a grid of (topology x scheme x failure scenario)
runs.  This subsystem turns that grid into a first-class object:

* :mod:`repro.runner.spec` — declarative :class:`CampaignSpec` sweeps with
  deterministic per-cell seeds;
* :mod:`repro.runner.cache` — a content-addressed on-disk cache of
  offline-stage artifacts (cellular embeddings), shared across processes;
* :mod:`repro.runner.executor` — a :mod:`concurrent.futures`-based parallel
  executor streaming into the SQLite campaign store of :mod:`repro.store`
  with resume-from-partial;
* :mod:`repro.runner.policy` — the fault-tolerance policy (per-cell
  timeouts, bounded retries with deterministic backoff, quarantine);
* :mod:`repro.runner.faults` — a deterministic fault-injection harness for
  chaos-testing the executor (``REPRO_FAULTS``);
* :mod:`repro.runner.aggregate` — merges cell records back into the
  codebase's existing metrics shapes (stretch CCDFs, coverage reports,
  overhead tables).

Quickstart::

    from repro.runner import CampaignSpec, ScenarioSpec, run_campaign

    spec = CampaignSpec(
        topologies=("abilene", "geant"),
        schemes=("reconvergence", "fcp", "pr"),
        scenarios=(ScenarioSpec("single-link"),
                   ScenarioSpec("multi-link", failures=4, samples=20)),
    )
    handle = run_campaign(spec, workers=4, cache_dir=".repro-cache",
                          results="campaign.sqlite", resume=True)
    print(handle.merged_ccdf("abilene"))
    print(handle.query("scheme=pr topology=abilene"))
"""

from repro.runner.spec import (
    CampaignCell,
    CampaignSpec,
    ScenarioSpec,
    available_schemes,
    corpus_campaign_spec,
    figure2_campaign_spec,
    node_failure_campaign_spec,
    scenario_model_campaign_spec,
)
from repro.runner.cache import ArtifactCache, cached_embedding, topology_fingerprint
from repro.runner import aggregate, faults
from repro.runner.faults import FaultPlan, FaultSpec, parse_plan
from repro.runner.policy import ExecutionPolicy, run_with_timeout
from repro.runner.aggregate import (
    coverage_reports,
    families_in,
    family_summary_rows,
    merged_ccdf,
    overhead_rows,
    scenario_family,
    stretch_result_from_records,
    summary_rows,
    topology_summary_rows,
)
from repro.runner.executor import (
    CampaignHandle,
    build_scheme,
    generate_scenarios,
    load_topology,
    run_campaign,
    run_cell,
    telemetry_manifest,
)
from repro.store.database import CampaignStore

__all__ = [
    "ArtifactCache",
    "CampaignCell",
    "CampaignHandle",
    "CampaignSpec",
    "CampaignStore",
    "ExecutionPolicy",
    "FaultPlan",
    "FaultSpec",
    "ScenarioSpec",
    "available_schemes",
    "build_scheme",
    "cached_embedding",
    "corpus_campaign_spec",
    "coverage_reports",
    "families_in",
    "family_summary_rows",
    "figure2_campaign_spec",
    "generate_scenarios",
    "load_topology",
    "merged_ccdf",
    "node_failure_campaign_spec",
    "overhead_rows",
    "parse_plan",
    "run_campaign",
    "run_cell",
    "run_with_timeout",
    "scenario_family",
    "scenario_model_campaign_spec",
    "stretch_result_from_records",
    "summary_rows",
    "telemetry_manifest",
    "topology_fingerprint",
    "topology_summary_rows",
]
