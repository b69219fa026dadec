"""Convenience entry points for the most common library uses.

Most users want one of four things: "give me a PR instance for my topology",
"compare PR against the baselines under these failures", "give me the
stretch CCDF the paper plots", or "sweep the whole evaluation grid".  These
helpers wrap the lower-level packages so that each of those is a single
call; everything they do can also be done explicitly through
:mod:`repro.core`, :mod:`repro.baselines`, :mod:`repro.experiments` and
:mod:`repro.runner`.

For sweeps, :class:`~repro.runner.spec.CampaignSpec` and
:func:`~repro.runner.executor.run_campaign` are re-exported here: describe
the grid (topologies x schemes x discriminators x failure scenarios)
declaratively and run it in parallel with a content-addressed offline-stage
artifact cache and resume-from-partial.  ``run_campaign`` returns a
:class:`~repro.runner.executor.CampaignHandle`; a ``results=`` path
(``.sqlite``/``.sqlite3``/``.db``) lands the campaign in the queryable
:class:`~repro.store.database.CampaignStore`, and the handle exposes
``.store``, ``.query(expr)`` (the ``scheme=pr topology~zoo campaign:last10``
grammar of :mod:`repro.store.query`), ``.summary()`` and ``.telemetry()``.
Checksummed JSONL (:class:`~repro.store.jsonl.ResultStore`) is only the
``repro migrate`` import/export format.

The failure-scenario toolbox rides along: the enumerators and sampler behind
the built-in scenario kinds (:func:`single_link_failures`,
:func:`sample_multi_link_failures`, :func:`node_failure_scenarios`) and the
pluggable scenario-model registry of :mod:`repro.scenarios`
(:func:`available_scenario_models`, :func:`get_scenario_model`,
:func:`register_scenario_model`), so custom scenario sets can be built and
swept without reaching into subpackages.

So does the topology corpus (:mod:`repro.topologies.corpus`):
:func:`parse_topology_spec` / :func:`build_topology` resolve
``name[:k=v,...]`` specs (legacy ISP maps, parameterized synthetic
families, committed Topology Zoo snapshots), :func:`topology_set` expands
the named corpus sets campaigns shard across, and
:func:`register_topology_family` plugs in new families.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.scheme import PacketRecycling
from repro.experiments.stretch import default_schemes, run_stretch_experiment
from repro.failures.sampling import (  # noqa: F401  (re-exported convenience API)
    sample_multi_link_failures,
)
from repro.failures.scenarios import (  # noqa: F401  (re-exported convenience API)
    FailureScenario,
    node_failure_scenarios,
    single_link_failures,
)
from repro.forwarding.engine import ForwardingOutcome
from repro.forwarding.scheme import ForwardingScheme
from repro.graph.multigraph import Graph
from repro.graph.spcache import (  # noqa: F401  (re-exported convenience API)
    ShortestPathEngine,
    engine_for,
)
from repro.routing.discriminator import DiscriminatorKind
from repro.runner import (  # noqa: F401  (re-exported convenience API)
    ArtifactCache,
    CampaignHandle,
    CampaignSpec,
    ScenarioSpec,
    run_campaign,
)
from repro.store import (  # noqa: F401  (re-exported convenience API)
    CampaignStore,
    Filter,
    ResultStore,
    migrate as migrate_results,
    parse_filter,
    resolve_results,
)
from repro.scenarios import (  # noqa: F401  (re-exported convenience API)
    ScenarioModel,
    available_scenario_models,
    get_scenario_model,
    register_scenario_model,
)
from repro.topologies.corpus import (  # noqa: F401  (re-exported convenience API)
    TopologyFamily,
    TopologySpec,
    build_topology,
    parse_topology_spec,
    register_family as register_topology_family,
    topology_set,
    validate_topology,
)


def build_packet_recycling(
    graph: Graph,
    discriminator_kind: DiscriminatorKind = DiscriminatorKind.HOP_COUNT,
    embedding_method: str = "auto",
    embedding_seed: Optional[int] = 7,
) -> PacketRecycling:
    """Build a ready-to-forward Packet Re-cycling instance for a topology.

    This performs the full offline stage of the paper: cellular embedding,
    cycle-following tables and routing tables with the DD column.
    """
    return PacketRecycling(
        graph,
        discriminator_kind=discriminator_kind,
        embedding_method=embedding_method,
        embedding_seed=embedding_seed,
    )


def compare_schemes(
    graph: Graph,
    source: str,
    destination: str,
    failed_links: Iterable[int],
    schemes: Optional[Sequence[ForwardingScheme]] = None,
) -> Dict[str, ForwardingOutcome]:
    """Deliver one packet under every scheme and return the outcomes by name."""
    if schemes is None:
        schemes = default_schemes(graph)
    failed = list(failed_links)
    return {
        scheme.name: scheme.deliver(source, destination, failed_links=failed)
        for scheme in schemes
    }


def stretch_ccdf(
    graph: Graph,
    scenarios: Sequence[FailureScenario],
    schemes: Optional[Sequence[ForwardingScheme]] = None,
) -> Dict[str, List[Tuple[float, float]]]:
    """The Figure 2 curves ``P(Stretch > x | path)`` for the given scenarios."""
    result = run_stretch_experiment(graph, scenarios, schemes)
    return result.ccdf
