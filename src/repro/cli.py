"""Command-line interface: ``python -m repro <command> ...``.

The CLI exposes the operational workflow and the headline experiments so that
the reproduction can be driven without writing Python:

* ``topology``  — summarise a built-in or file-based topology.
* ``topologies`` — inspect the topology corpus: ``topologies list``
  tabulates every registered family (legacy ISP maps, parameterized
  synthetic generators, committed Topology Zoo snapshots) and the named
  corpus sets; ``topologies show SPEC`` builds one ``name[:k=v,...]`` spec
  (or file) and summarises it; ``topologies validate --all`` builds the
  whole corpus and checks the invariants campaigns rely on.  Example::

      python -m repro topologies show waxman:size=40,seed=3 --links
* ``embed``     — run the offline stage and write the embedding artefact.
* ``tables``    — print one router's cycle following table.
* ``deliver``   — forward one packet under a failure set and show the path.
* ``figure2``   — regenerate one panel of Figure 2.
* ``overhead``  — print the Section 6 overhead comparison.
* ``coverage``  — measure repair coverage under sampled failures.
* ``scenarios`` — inspect the pluggable failure-scenario model library:
  ``scenarios list`` tabulates the registered models and their parameters,
  ``scenarios preview`` generates a model's scenarios for a topology and
  prints each failure set.  Example::

      python -m repro scenarios preview churn --topology geant \\
          --samples 5 --param process=weibull --param shape=0.8

* ``sweep``     — run a parallel campaign over the full evaluation grid
  (topologies x schemes x discriminators x failure scenarios) through the
  :mod:`repro.runner` subsystem, with a content-addressed offline-stage
  artifact cache (``--cache-dir``), process parallelism (``--workers``), a
  SQLite campaign store the records stream into (``--results``, a
  ``.sqlite``/``.sqlite3``/``.db`` path) and resume-from-partial
  (``--resume``).  Example::

      python -m repro sweep --topologies abilene geant \\
          --schemes reconvergence fcp pr --failures 4 --samples 20 \\
          --workers 4 --cache-dir .repro-cache --results campaign.sqlite

  ``--topology-set zoo|synthetic|all`` shards the campaign across a whole
  corpus set instead of (or on top of) ``--topologies``; the report then
  leads with a cross-topology summary table (one row per topology x
  scheme).  Example::

      python -m repro sweep --topology-set all --schemes reconvergence fcp \\
          --workers 4 --results corpus.sqlite

  A campaign can also be saved to / loaded from a JSON spec file
  (``--save-spec`` / ``--spec``); a second invocation with the same spec
  hits the artifact cache, and ``--resume`` skips completed cells.
  Checksummed JSONL is only an import/export format: ``repro migrate
  corpus.sqlite corpus.jsonl`` exports a campaign (with its telemetry and
  quarantine sidecars), and the reverse direction imports one.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from repro.api import build_packet_recycling, compare_schemes
from repro.core.coverage import coverage_report
from repro.core.scheme import PacketRecycling
from repro.embedding.genus import self_paired_edge_count
from repro.embedding.serialization import save_embedding
from repro.experiments.asciiplot import ccdf_rows, render_ccdf_plot, render_table
from repro.experiments.overhead import overhead_experiment
from repro.experiments.stretch import default_schemes, figure2_panel
from repro.failures.sampling import sample_multi_link_failures
from repro.failures.scenarios import resolve_failed_links, single_link_failures
from repro.graph.connectivity import is_two_edge_connected
from repro.graph.multigraph import Graph
from repro.graph.spcache import cached_diameter
from repro.metrics.overhead import render_overhead_table
from repro.runner import (
    ArtifactCache,
    CampaignSpec,
    ExecutionPolicy,
    ScenarioSpec,
    available_schemes,
    load_topology as _load_topology,
    run_campaign,
)
from repro.runner import aggregate as campaign_aggregate
from repro.runner import faults as fault_harness
from repro.errors import ExperimentError, FailureScenarioError, ReproError
from repro.params import parse_assignments, parse_spec
from repro.scenarios import available_scenario_models, get_scenario_model, registered_models
from repro.store import resolve_results
from repro.topologies import corpus as topology_corpus
from repro import telemetry

# Embedding seed of every command that builds Packet Re-cycling, the same as
# ``repro serve`` and campaign specs use, so one request gets one answer.
_EMBEDDING_SEED = 0


# ----------------------------------------------------------------------
# sub-commands
# ----------------------------------------------------------------------
def _print_topology_summary(graph: Graph, links: bool) -> None:
    """The shared body of ``topology`` and ``topologies show``."""
    print(f"routers: {graph.number_of_nodes()}")
    print(f"links: {graph.number_of_edges()}")
    print(f"hop diameter: {int(cached_diameter(graph, hop_count=True))}")
    print(f"2-edge-connected: {is_two_edge_connected(graph)}")
    if links:
        for edge in graph.edges():
            print(f"  [{edge.edge_id}] {edge.u} -- {edge.v}  weight={edge.weight:g}")


def _cmd_topology(args: argparse.Namespace) -> int:
    graph = _load_topology(args.topology)
    print(f"name: {graph.name}")
    _print_topology_summary(graph, args.links)
    return 0


def _cmd_embed(args: argparse.Namespace) -> int:
    graph = _load_topology(args.topology)
    scheme = build_packet_recycling(
        graph, embedding_method=args.method, embedding_seed=_EMBEDDING_SEED
    )
    embedding = scheme.embedding
    print(f"faces: {embedding.number_of_faces}")
    print(f"genus: {embedding.genus}")
    print(f"self-paired links: {self_paired_edge_count(embedding.rotation)}")
    print(f"header overhead: {scheme.header_overhead_bits()} bits")
    if args.output:
        path = save_embedding(embedding, args.output)
        print(f"embedding written to {path}")
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    graph = _load_topology(args.topology)
    scheme = build_packet_recycling(graph, embedding_seed=_EMBEDDING_SEED)
    print(scheme.cycle_tables.table_at(args.router).render())
    return 0


def _parse_fail(graph: Graph, spec: str) -> object:
    """One ``--fail`` argument: an edge id, or ``u-v`` split at the ``-`` whose
    halves are both routers (router names may contain hyphens)."""
    if spec.isdigit():
        return int(spec)
    readings = [
        (spec[:at], spec[at + 1:])
        for at, char in enumerate(spec)
        if char == "-" and spec[:at] in graph and spec[at + 1:] in graph
    ]
    if len(readings) == 1:
        return readings[0]
    if readings:
        spelled = " or ".join(f"{u!r}-{v!r}" for u, v in readings)
        raise FailureScenarioError(f"ambiguous failed link {spec!r}: reads as {spelled}")
    raise FailureScenarioError(
        f"bad failed-link entry {spec!r}; use an edge id or u-v with two routers of {graph.name!r}"
    )


def _cmd_deliver(args: argparse.Namespace) -> int:
    graph = _load_topology(args.topology)
    failed = resolve_failed_links(graph, [_parse_fail(graph, spec) for spec in args.fail])
    if args.compare:
        schemes = default_schemes(graph, embedding_seed=_EMBEDDING_SEED)
        outcomes = compare_schemes(graph, args.source, args.destination, failed, schemes)
    else:
        scheme = build_packet_recycling(graph, embedding_seed=_EMBEDDING_SEED)
        outcomes = {
            "Packet Re-cycling": scheme.deliver(
                args.source, args.destination, failed_links=failed
            )
        }
    for name, outcome in outcomes.items():
        status = "delivered" if outcome.delivered else f"LOST ({outcome.drop_reason})"
        print(f"{name}: {status}")
        print(f"  path: {' -> '.join(outcome.path)}")
        print(f"  hops: {outcome.hops}  cost: {outcome.cost:g}")
    return 0 if all(outcome.delivered for outcome in outcomes.values()) else 1


def _cmd_figure2(args: argparse.Namespace) -> int:
    cache = ArtifactCache(args.cache_dir) if args.cache_dir else None
    result = figure2_panel(args.panel, samples=args.samples, seed=args.seed, cache=cache)
    headers = ["stretch x"] + sorted(result.ccdf)
    print(f"topology={result.topology} failures/scenario={result.failures_per_scenario} "
          f"scenarios={result.scenarios} pairs={result.measured_pairs}")
    print(render_table(headers, ccdf_rows(result.ccdf)))
    if args.plot:
        print()
        print(render_ccdf_plot(result.ccdf, title=f"P(Stretch > x | path) — Figure {args.panel}"))
    return 0


def _cmd_overhead(args: argparse.Namespace) -> int:
    results = overhead_experiment(args.topologies or None)
    for topology, rows in results.items():
        print(render_overhead_table(topology, rows))
        print()
    return 0


def _cmd_coverage(args: argparse.Namespace) -> int:
    graph = _load_topology(args.topology)
    embedding = None
    if args.cache_dir:
        embedding = ArtifactCache(args.cache_dir).get_or_build(graph, seed=_EMBEDDING_SEED)
    scheme = PacketRecycling(graph, embedding=embedding, embedding_seed=_EMBEDDING_SEED)
    if args.failures <= 1:
        scenarios = [s.failed_links for s in single_link_failures(graph)]
    else:
        scenarios = [
            s.failed_links
            for s in sample_multi_link_failures(
                graph, failures=args.failures, samples=args.samples, seed=args.seed
            )
        ]
    if not scenarios:
        print("no non-disconnecting scenarios could be generated")
        return 1
    report = coverage_report(scheme, scenarios)
    print(report.summary())
    return 0 if report.full_coverage else 1


def _parse_model_arg(text: str, samples: int) -> ScenarioSpec:
    """A sweep ``--model`` argument: ``name`` or ``name:k=v,k2=v2``."""
    try:
        name, params = parse_spec(text, ExperimentError)
        # Parameters go through the params field (not keyword splatting) so
        # a user parameter named like a spec field still gets the model's
        # clean unknown-parameter error instead of a TypeError.
        return ScenarioSpec(kind="model", model=name, samples=samples, params=params)
    except ReproError as exc:
        raise SystemExit(f"bad --model {text!r}: {exc}")


def _cmd_scenarios(args: argparse.Namespace) -> int:
    if args.action == "list":
        rows = []
        for model in registered_models():
            params = ", ".join(
                f"{param.name}={param.default!r}" for param in model.params
            )
            rows.append([model.name, params or "-", model.summary])
        print(render_table(["model", "parameters (defaults)", "summary"], rows))
        return 0

    # preview: generate and print one model's scenarios for a topology.
    graph = _load_topology(args.topology)
    model = get_scenario_model(args.model)
    spec = ScenarioSpec(
        kind="model",
        model=args.model,
        samples=args.samples,
        non_disconnecting=not args.allow_disconnecting,
        params=parse_assignments(args.param, ExperimentError),
    )
    scenarios = model.generate(
        graph,
        seed=args.seed,
        samples=spec.samples,
        non_disconnecting=spec.non_disconnecting,
        params=dict(spec.params),
    )
    print(
        f"model={model.name} topology={graph.name} seed={args.seed} "
        f"params={dict(spec.params)}"
    )
    if not scenarios:
        print("no scenarios generated (all candidates rejected)")
        return 1
    for index, scenario in enumerate(scenarios):
        print(f"[{index}] ({len(scenario)} links) {scenario.describe(graph)}")
    return 0


def _cmd_topologies(args: argparse.Namespace) -> int:
    if args.action == "list":
        rows = []
        for family in topology_corpus.registered_families():
            params = ", ".join(
                f"{param.name}={param.default!r}" for param in family.params
            )
            rows.append([family.name, family.kind, params or "-", family.summary])
        print(render_table(["topology", "kind", "parameters (defaults)", "summary"], rows))
        print()
        for set_name in topology_corpus.TOPOLOGY_SETS:
            members = topology_corpus.topology_set(set_name)
            print(f"set {set_name!r}: {len(members)} topologies")
        return 0

    if args.action == "show":
        try:
            graph = topology_corpus.build_topology(args.spec)
        except OSError as exc:
            raise SystemExit(str(exc))
        print(f"spec: {topology_corpus.canonical_topology(args.spec)}")
        _print_topology_summary(graph, args.links)
        return 0

    # validate: every named spec (or a whole corpus set) must build and
    # satisfy the invariants campaigns rely on.
    specs = list(args.specs)
    if args.all:
        specs.extend(topology_corpus.topology_set("all"))
    elif args.set:
        specs.extend(topology_corpus.topology_set(args.set))
    if not specs:
        raise SystemExit("nothing to validate; pass specs, --set NAME or --all")
    failures = 0
    for spec in specs:
        report = topology_corpus.validate_topology(spec)
        print(report.describe())
        if not report.ok:
            failures += 1
    print()
    print(f"{len(specs) - failures}/{len(specs)} topologies valid")
    return 1 if failures else 0


def _cmd_report(args: argparse.Namespace) -> int:
    with resolve_results(args.results) as resolved:
        manifest = resolved.manifest()
    if args.validate:
        problems = telemetry.validate_manifest(manifest)
        if problems:
            print(f"manifest INVALID ({len(problems)} problems):")
            for problem in problems:
                print(f"  - {problem}")
            return 1
        print(f"manifest valid ({manifest.get('schema')})")
        return 0
    print(telemetry.render_report(manifest, slowest=args.slowest))
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    with resolve_results(args.results) as resolved:
        if args.campaigns:
            rows = resolved.campaigns()
            if not rows:
                print(f"{resolved.path} holds no campaigns")
                return 1
            print(render_table(
                ["campaign", "records", "executed", "skipped", "wall", "status"],
                [
                    [
                        str(row.get("campaign_id", "?")),
                        str(row.get("records", "?")),
                        str(row.get("executed", "-")),
                        str(row.get("skipped", "-")),
                        f"{row['elapsed_s']:.2f}s" if "elapsed_s" in row else "-",
                        str(row.get("status", "-")),
                    ]
                    for row in rows
                ],
            ))
            return 0
        records = resolved.records(args.filter or None, limit=args.limit or None)
    if args.json:
        for record in records:
            print(json.dumps(record, sort_keys=True))
        return 0 if records else 1
    expression = " ".join(args.filter) if args.filter else "(match everything)"
    print(f"{len(records)} records match {expression!r} in {resolved.path}")
    if not records:
        return 1
    print()
    print(render_table(
        ["topology", "scheme", "scenarios", "delivery", "mean stretch",
         "max", "coverage"],
        campaign_aggregate.topology_summary_rows(records),
    ))
    if len(campaign_aggregate.families_in(records)) > 1:
        print()
        print(render_table(
            ["family", "scheme", "scenarios", "delivery", "mean stretch",
             "max", "coverage"],
            campaign_aggregate.family_summary_rows(records),
        ))
    return 0


def _cmd_migrate(args: argparse.Namespace) -> int:
    from repro.store import migrate as migrate_results

    summary = migrate_results(args.source, args.destination, args.campaign)
    print(f"{summary['direction']}: campaign {summary['campaign_id']}, "
          f"{summary['records']} records -> {args.destination}")
    if summary.get("manifest"):
        print(f"telemetry manifest: {summary['manifest']}"
              if isinstance(summary["manifest"], str)
              else "telemetry manifest: imported into store")
    if summary.get("quarantine"):
        print(f"quarantine sidecar: {summary['quarantine']}")
    elif summary.get("quarantined"):
        print(f"quarantine entries imported: {summary['quarantined']}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.store.serve import ServeSession, jobs_path_for, serve_forever

    jobs_path = None if args.no_jobs else (args.jobs or jobs_path_for(args.socket))
    session = ServeSession(
        cache_dir=args.cache_dir,
        jobs_path=jobs_path,
        max_queued_jobs=args.max_jobs,
    )
    for topology in args.warm or []:
        response = session.handle(
            {"op": "warm", "topology": topology, "schemes": args.schemes}
        )
        if not response.get("ok"):
            raise SystemExit(f"cannot warm {topology!r}: {response.get('error')}")
        print(f"warm: {response['topology']} "
              f"({response['nodes']} routers, {response['edges']} links, "
              f"{response['schemes_warm']} schemes)")
    recovered = session.recover_jobs()
    if recovered:
        print(f"recovered {len(recovered)} interrupted job(s): "
              + ", ".join(recovered))
    if jobs_path is not None:
        print(f"job journal: {jobs_path}")
    print(f"serving on {args.socket} "
          f"(line-delimited JSON requests; op=shutdown or ctrl-c stops)")
    try:
        served = serve_forever(
            args.socket,
            session,
            max_inflight=args.max_inflight,
            deadline_s=args.deadline if args.deadline > 0 else None,
        )
    except KeyboardInterrupt:
        served = session.requests_served
        session.close()
        print()
    print(f"served {served} requests")
    return 0


def _sweep_spec_from_args(args: argparse.Namespace) -> CampaignSpec:
    """Build the campaign spec a ``sweep`` invocation describes."""
    if args.spec:
        return CampaignSpec.load(args.spec)
    scenarios = []
    if not args.skip_single:
        scenarios.append(ScenarioSpec(kind="single-link"))
    for failures in args.failures or []:
        scenarios.append(
            ScenarioSpec(kind="multi-link", failures=failures, samples=args.samples)
        )
    if args.node:
        scenarios.append(ScenarioSpec(kind="node"))
    for model_arg in args.model or []:
        scenarios.append(_parse_model_arg(model_arg, args.samples))
    if not scenarios:
        raise SystemExit(
            "no scenarios selected; drop --skip-single or add --failures/--node/--model"
        )
    topologies = list(args.topologies or [])
    if args.topology_set:
        topologies.extend(topology_corpus.topology_set(args.topology_set))
    if not topologies:
        topologies = ["abilene", "geant"]
    return CampaignSpec(
        topologies=tuple(topologies),
        schemes=tuple(args.schemes),
        discriminators=tuple(args.discriminators),
        scenarios=tuple(scenarios),
        seed=args.seed,
        embedding_method=args.embedding_method,
        embedding_seed=args.embedding_seed,
        coverage=args.coverage,
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = _sweep_spec_from_args(args)
    if args.resume and not args.results:
        raise SystemExit("--resume needs --results to know which cells are done")
    if args.results:
        from repro.store import require_store_path

        require_store_path(args.results, spec.spec_hash())
    if args.no_telemetry:
        telemetry.set_enabled(False)
    policy = ExecutionPolicy(
        max_retries=args.max_retries,
        cell_timeout=args.cell_timeout,
        on_error=args.on_error,
    )
    if args.inject is not None:
        # The environment variable is the cross-process contract: worker
        # processes re-read it in their initializer, so --inject reaches
        # them however the pool starts.
        fault_harness.parse_plan(args.inject)
        os.environ[fault_harness.ENV_VAR] = args.inject
        fault_harness.reload_from_env()
    for name in spec.topologies:
        try:
            _load_topology(name)
        except Exception as exc:
            raise SystemExit(f"cannot load topology {name!r}: {exc}")
    if args.save_spec:
        path = spec.save(args.save_spec)
        print(f"campaign spec written to {path}")

    def progress(cell, record, done, total):
        if not args.quiet:
            elapsed = record["meta"]["elapsed_s"]
            print(f"[{done}/{total}] {cell.label}  ({elapsed:.2f}s)")

    result = run_campaign(
        spec,
        workers=args.workers,
        cache_dir=args.cache_dir,
        results=args.results,
        resume=args.resume,
        progress=progress,
        policy=policy,
    )

    print()
    print(f"campaign {spec.spec_hash()}: {result.executed} cells executed, "
          f"{result.skipped} reused, {result.elapsed_s:.2f}s wall, "
          f"offline stage {result.offline_seconds():.2f}s")
    if result.fault_counters:
        print("fault counters: "
              + ", ".join(f"{name.split('/', 1)[1]}={value}"
                          for name, value in sorted(result.fault_counters.items())))
    if result.quarantined:
        print()
        print(f"=== quarantined cells ({len(result.quarantined)}) ===")
        print(render_table(
            ["cell", "topology", "scheme", "scenario", "attempts", "error"],
            [
                [
                    entry["cell_id"],
                    entry["topology"],
                    entry["scheme"],
                    entry["scenario_family"],
                    str(entry["attempts"]),
                    f"{entry['error_type']}: {entry['error'][:60]}",
                ]
                for entry in result.quarantined
            ],
        ))
        if result.store is not None:
            print(f"quarantine entries recorded in {result.store.path}")
    stats = result.cache_stats()
    if args.cache_dir:
        print(f"artifact cache: {stats['hits']} hits, {stats['misses']} misses "
              f"({args.cache_dir})")
    if result.store is not None:
        print(f"results store: {result.store.path} "
              f"(campaign {spec.spec_hash()}; query with: "
              f"repro query {result.store.path} campaign:last1)")
    engine_counters = result.engine_counters()
    if engine_counters:
        # Merged across every worker through the per-cell snapshots — the
        # campaign-wide totals a per-process aggregate_cache_info() misses.
        print("engine counters (all workers): "
              + ", ".join(f"{name}={value}"
                          for name, value in sorted(engine_counters.items())))
    if result.store is not None:
        print(f"telemetry manifest recorded in {result.store.path} "
              f"(repro report {result.store.path})")
    if args.slowest:
        manifest = result.telemetry(slowest=args.slowest)
        rows = telemetry.report.slowest_rows(manifest, args.slowest)
        if rows:
            print()
            print(f"=== slowest cells (top {len(rows)}) ===")
            print(render_table(
                ["cell", "topology", "scheme", "scenario", "elapsed",
                 "dominant phase"],
                rows,
            ))

    # A corpus-scale sweep would print dozens of per-topology sections;
    # beyond a few topologies the cross-topology summary table carries the
    # report instead (pass --plot to force the detailed sections).
    detailed = len(spec.topologies) <= 3 or args.plot
    if detailed:
        for topology in spec.topologies:
            print()
            print(f"=== {topology} ===")
            curves = result.merged_ccdf(topology)
            if curves:
                headers = ["stretch x"] + sorted(curves)
                print(render_table(headers, ccdf_rows(curves)))
                if args.plot:
                    print()
                    print(render_ccdf_plot(curves, title=f"P(Stretch > x | path) — {topology}"))
            print()
            print(render_table(
                ["scheme", "delivery", "mean stretch", "max", "coverage"],
                campaign_aggregate.summary_rows(result.records, topology),
            ))
            if len(campaign_aggregate.families_in(result.records)) > 1:
                print()
                print(render_table(
                    ["family", "scheme", "scenarios", "delivery", "mean stretch",
                     "max", "coverage"],
                    campaign_aggregate.family_summary_rows(result.records, topology),
                ))
    if len(spec.topologies) > 1:
        print()
        print(f"=== corpus summary ({len(spec.topologies)} topologies) ===")
        print(render_table(
            ["topology", "scheme", "scenarios", "delivery", "mean stretch",
             "max", "coverage"],
            result.topology_summary(),
        ))
    if detailed:
        overheads = result.overhead_rows()
        for topology in spec.topologies:
            rows = overheads.get(topology)
            if rows:
                print()
                print(render_overhead_table(topology, rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Packet Re-cycling (HotNets 2010) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    topology = sub.add_parser("topology", help="summarise a topology")
    topology.add_argument("topology", help="registry name (abilene/teleglobe/geant) or file path")
    topology.add_argument("--links", action="store_true", help="list every link")
    topology.set_defaults(handler=_cmd_topology)

    topologies_cmd = sub.add_parser(
        "topologies",
        help="inspect the topology corpus (families, zoo snapshots, sets)",
    )
    topologies_sub = topologies_cmd.add_subparsers(dest="action", required=True)
    topologies_list = topologies_sub.add_parser(
        "list", help="tabulate the registered topology families and corpus sets"
    )
    topologies_list.set_defaults(handler=_cmd_topologies)
    topologies_show = topologies_sub.add_parser(
        "show", help="build one corpus spec or file and summarise it"
    )
    topologies_show.add_argument(
        "spec", help="topology spec (name[:k=v,...]) or file path"
    )
    topologies_show.add_argument("--links", action="store_true", help="list every link")
    topologies_show.set_defaults(handler=_cmd_topologies)
    topologies_validate = topologies_sub.add_parser(
        "validate", help="build corpus entries and check campaign invariants"
    )
    topologies_validate.add_argument(
        "specs", nargs="*", help="topology specs or file paths to validate"
    )
    topologies_validate.add_argument(
        "--set", choices=list(topology_corpus.TOPOLOGY_SETS),
        help="also validate every member of this corpus set",
    )
    topologies_validate.add_argument(
        "--all", action="store_true", help="validate the whole corpus (set 'all')"
    )
    topologies_validate.set_defaults(handler=_cmd_topologies)

    embed_cmd = sub.add_parser("embed", help="compute the cellular embedding (offline stage)")
    embed_cmd.add_argument("topology")
    embed_cmd.add_argument("--method", default="auto",
                           choices=["auto", "planar", "greedy", "local-search", "adjacency"])
    embed_cmd.add_argument("--output", help="write the embedding artefact to this JSON file")
    embed_cmd.set_defaults(handler=_cmd_embed)

    tables = sub.add_parser("tables", help="print a router's cycle following table")
    tables.add_argument("topology")
    tables.add_argument("router")
    tables.set_defaults(handler=_cmd_tables)

    deliver = sub.add_parser("deliver", help="forward one packet under failures")
    deliver.add_argument("topology")
    deliver.add_argument("source")
    deliver.add_argument("destination")
    deliver.add_argument("--fail", action="append", default=[],
                         help="failed link as an edge id or 'u-v' (repeatable)")
    deliver.add_argument("--compare", action="store_true",
                         help="also run FCP and re-convergence on the same packet")
    deliver.set_defaults(handler=_cmd_deliver)

    figure2 = sub.add_parser("figure2", help="regenerate a Figure 2 panel")
    figure2.add_argument("panel", choices=["2a", "2b", "2c", "2d", "2e", "2f"])
    figure2.add_argument("--samples", type=int, default=50)
    figure2.add_argument("--seed", type=int, default=1)
    figure2.add_argument("--plot", action="store_true", help="also print the ASCII plot")
    figure2.add_argument("--cache-dir", help="offline-stage artifact cache directory")
    figure2.set_defaults(handler=_cmd_figure2)

    overhead = sub.add_parser("overhead", help="print the Section 6 overhead comparison")
    overhead.add_argument("topologies", nargs="*", help="defaults to abilene teleglobe geant")
    overhead.set_defaults(handler=_cmd_overhead)

    coverage = sub.add_parser("coverage", help="measure PR repair coverage")
    coverage.add_argument("topology")
    coverage.add_argument("--failures", type=int, default=1)
    coverage.add_argument("--samples", type=int, default=50)
    coverage.add_argument("--seed", type=int, default=1)
    coverage.add_argument("--cache-dir", help="offline-stage artifact cache directory")
    coverage.set_defaults(handler=_cmd_coverage)

    scenarios_cmd = sub.add_parser(
        "scenarios",
        help="inspect the pluggable failure-scenario model library",
    )
    scenarios_sub = scenarios_cmd.add_subparsers(dest="action", required=True)
    scenarios_list = scenarios_sub.add_parser(
        "list", help="tabulate the registered scenario models"
    )
    scenarios_list.set_defaults(handler=_cmd_scenarios)
    scenarios_preview = scenarios_sub.add_parser(
        "preview", help="generate and print one model's scenarios"
    )
    scenarios_preview.add_argument("model",
                                   help=f"registered model "
                                        f"({', '.join(available_scenario_models())})")
    scenarios_preview.add_argument("--topology", default="abilene",
                                   help="registry name or edge-list file path")
    scenarios_preview.add_argument("--samples", type=int, default=5)
    scenarios_preview.add_argument("--seed", type=int, default=1)
    scenarios_preview.add_argument("--param", action="append", default=[],
                                   metavar="NAME=VALUE",
                                   help="model parameter override (repeatable)")
    scenarios_preview.add_argument("--allow-disconnecting", action="store_true",
                                   help="keep scenarios that disconnect the "
                                        "surviving network")
    scenarios_preview.set_defaults(handler=_cmd_scenarios)

    sweep = sub.add_parser(
        "sweep",
        help="run a parallel experiment campaign over the evaluation grid",
    )
    sweep.add_argument("--topologies", nargs="+", default=None,
                       help="corpus specs (name[:k=v,...]) or topology file "
                            "paths; defaults to abilene geant unless "
                            "--topology-set is given")
    sweep.add_argument("--topology-set", choices=list(topology_corpus.TOPOLOGY_SETS),
                       help="also sweep a whole corpus set (zoo snapshots, "
                            "seeded synthetic instances, or both)")
    sweep.add_argument("--schemes", nargs="+", default=["reconvergence", "fcp", "pr"],
                       choices=available_schemes(), metavar="SCHEME",
                       help=f"schemes to sweep (choices: {', '.join(available_schemes())})")
    sweep.add_argument("--discriminators", nargs="+", default=["hop-count"],
                       choices=["hop-count", "weighted-cost"])
    sweep.add_argument("--skip-single", action="store_true",
                       help="do not include the single-link-failure scenario set")
    sweep.add_argument("--failures", type=int, action="append",
                       help="add a multi-link scenario set with this many "
                            "simultaneous failures (repeatable)")
    sweep.add_argument("--node", action="store_true",
                       help="add the single-node-failure scenario set")
    sweep.add_argument("--model", action="append", metavar="NAME[:K=V,...]",
                       help="add a scenario-model set, e.g. srlg or "
                            "churn:process=weibull,mean_down=20 (repeatable; "
                            f"models: {', '.join(available_scenario_models())})")
    sweep.add_argument("--samples", type=int, default=10,
                       help="scenarios per multi-link or --model scenario set")
    sweep.add_argument("--seed", type=int, default=1)
    sweep.add_argument("--coverage", choices=["affected", "full"], default="affected",
                       help="delivery accounting: affected pairs only (Figure 2) "
                            "or every still-connected pair (repair coverage)")
    sweep.add_argument("--embedding-method", default="auto",
                       choices=["auto", "planar", "greedy", "local-search", "adjacency"])
    sweep.add_argument("--embedding-seed", type=int, default=0)
    sweep.add_argument("--workers", type=int, default=1,
                       help="worker processes (0 = one per CPU)")
    sweep.add_argument("--cache-dir", default=".repro-cache",
                       help="offline-stage artifact cache directory")
    sweep.add_argument("--results",
                       help="SQLite campaign store (.sqlite/.sqlite3/.db) to "
                            "stream cell records into; JSONL is refused (export "
                            "a finished campaign with repro migrate)")
    sweep.add_argument("--resume", action="store_true",
                       help="skip cells already recorded in --results")
    sweep.add_argument("--spec", help="load the campaign spec from this JSON file "
                                      "(overrides the grid flags)")
    sweep.add_argument("--save-spec", help="write the campaign spec to this JSON file")
    sweep.add_argument("--plot", action="store_true", help="also print ASCII CCDF plots")
    sweep.add_argument("--quiet", action="store_true", help="suppress per-cell progress")
    sweep.add_argument("--max-retries", type=int, default=0, metavar="N",
                       help="re-attempt a failing/timed-out/crashed cell up to N times "
                            "with exponential backoff (deterministic per-cell jitter)")
    sweep.add_argument("--cell-timeout", type=float, default=None, metavar="SECONDS",
                       help="per-cell wall-clock timeout; a cell exceeding it fails "
                            "(and retries under --max-retries)")
    sweep.add_argument("--on-error", choices=["fail", "quarantine"], default="fail",
                       help="what to do when a cell exhausts its retries: abort the "
                            "campaign after draining (fail, default) or record the "
                            "cell in the store's quarantine table and keep going "
                            "(quarantine)")
    sweep.add_argument("--inject", metavar="PLAN",
                       help="arm the deterministic fault-injection harness (testing "
                            "only); same grammar as the REPRO_FAULTS environment "
                            "variable, e.g. 'site=cell-body,kind=exception,p=0.2,seed=1'")
    sweep.add_argument("--slowest", type=int, default=0, metavar="N",
                       help="print the N slowest cells with their phase breakdown")
    sweep.add_argument("--no-telemetry", action="store_true",
                       help="disable telemetry collection (payloads are "
                            "byte-identical either way)")
    sweep.set_defaults(handler=_cmd_sweep)

    report = sub.add_parser(
        "report",
        help="query a campaign's telemetry manifest (phase times, cache "
             "efficiency, slowest cells)",
    )
    report.add_argument("results",
                        help="a results store (.sqlite — the latest campaign's "
                             "manifest) or a manifest file directly (such as "
                             "the .telemetry.json sidecar repro migrate "
                             "exports); JSONL results are refused")
    report.add_argument("--slowest", type=int, default=10, metavar="N",
                        help="rows in the slowest-cells table (default 10)")
    report.add_argument("--validate", action="store_true",
                        help="only validate the manifest schema; exit 1 on "
                             "problems (the CI smoke gate)")
    report.set_defaults(handler=_cmd_report)

    query = sub.add_parser(
        "query",
        help="filter records out of a results store "
             "(scheme=pr topology~zoo campaign:last10)",
    )
    query.add_argument("results",
                       help="results store (.sqlite); import JSONL results "
                            "first with repro migrate")
    query.add_argument("filter", nargs="*", metavar="CLAUSE",
                       help="filter clauses: field=value, field!=value, "
                            "field~value (substring) over topology/scheme/"
                            "discriminator/family/seed/cell, plus "
                            "campaign:lastN | campaign:HASH | campaign:all")
    query.add_argument("--limit", type=int, default=0, metavar="N",
                       help="return at most N records (0 = unlimited)")
    query.add_argument("--json", action="store_true",
                       help="print matching records as JSON lines instead of "
                            "summary tables")
    query.add_argument("--campaigns", action="store_true",
                       help="list the campaigns in the store instead of "
                            "querying records")
    query.set_defaults(handler=_cmd_query)

    migrate_cmd = sub.add_parser(
        "migrate",
        help="convert campaign results between JSONL and the SQLite store "
             "(byte-identical round trips, sidecars included)",
    )
    migrate_cmd.add_argument("source", help="results file to convert from")
    migrate_cmd.add_argument("destination",
                             help="results file to convert into; direction is "
                                  "inferred from the two suffixes")
    migrate_cmd.add_argument("--campaign", metavar="ID",
                             help="campaign id (or unique prefix) to export "
                                  "from a store / id to import under "
                                  "(default: latest / derived)")
    migrate_cmd.set_defaults(handler=_cmd_migrate)

    serve = sub.add_parser(
        "serve",
        help="resident query loop: warm engines answering deliver/stretch/"
             "query/submit requests over a Unix socket",
    )
    serve.add_argument("--socket", default=".repro-serve.sock",
                       help="Unix socket path to listen on "
                            "(default .repro-serve.sock)")
    serve.add_argument("--cache-dir", default=".repro-cache",
                       help="offline-stage artifact cache directory")
    serve.add_argument("--warm", nargs="+", metavar="TOPOLOGY",
                       help="pre-warm these topologies before serving")
    serve.add_argument("--schemes", nargs="+", default=["pr"],
                       choices=available_schemes(), metavar="SCHEME",
                       help="schemes to pre-build for each --warm topology")
    serve.add_argument("--jobs", metavar="PATH",
                       help="job-journal SQLite path for async submit "
                            "(default: derived from --socket, e.g. "
                            ".repro-serve.jobs.sqlite)")
    serve.add_argument("--no-jobs", action="store_true",
                       help="disable the job journal; submit, job, jobs "
                            "and cancel answer with an error")
    serve.add_argument("--max-jobs", type=int, default=64, metavar="N",
                       help="queued+running jobs before submit sheds "
                            "with Overloaded (default 64)")
    serve.add_argument("--max-inflight", type=int, default=8, metavar="N",
                       help="concurrent requests before load-shedding "
                            "with Overloaded (default 8)")
    serve.add_argument("--deadline", type=float, default=30.0, metavar="S",
                       help="per-request deadline in seconds; 0 disables "
                            "(default 30)")
    serve.set_defaults(handler=_cmd_serve)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Every command reports a :class:`~repro.errors.ReproError` the same way:
    its one-line message on stderr and exit status 1, with no traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        raise SystemExit(str(exc)) from None


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
