"""Inputs of the three workloads, all derived from the benchmark seed."""

from __future__ import annotations

import hashlib
import json
import random
from typing import Any, Dict, Iterator, List, Sequence, Tuple

FIG2 = "fig2-multi"
CORPUS = "corpus-cold"
SERVE = "serve-mixed"
WORKLOADS = (FIG2, CORPUS, SERVE)

#: Campaign seeds cycle through this many values so that every benchmark
#: seed has a reference payload digest recorded in ``digests.json``.
SEED_CYCLE = 32

FIG2_PANELS = ("2e", "2f")
FIG2_SAMPLES = 60
CORPUS_SCHEMES = ("reconvergence", "fcp", "lfa", "pr", "noprotection")

SERVE_TOPOLOGIES = ("abilene", "geant", "teleglobe")
SERVE_SCHEMES = ("pr", "fcp", "reconvergence", "lfa")
#: The query filters a ``query`` request draws from (fixture-relative).
QUERY_FILTERS = (
    "scheme=pr",
    "topology=geant",
    "scheme=fcp topology=teleglobe",
    "family=single-link",
    "family=2-link scheme!=lfa",
    "topology~o scheme=reconvergence",
    "campaign:last1 topology=abilene",
)
#: The results store ``query`` requests name, relative to the daemon's cwd.
FIXTURE_STORE = "fixture.sqlite"


def campaign_seed(seed: int) -> int:
    return 1 + seed % SEED_CYCLE


def campaign_specs(workload: str, seed: int) -> List[Any]:
    """The campaign spec(s) one repetition of a campaign workload runs."""
    from repro.runner.spec import corpus_campaign_spec, figure2_campaign_spec

    cseed = campaign_seed(seed)
    if workload == FIG2:
        return [figure2_campaign_spec(p, samples=FIG2_SAMPLES, seed=cseed) for p in FIG2_PANELS]
    if workload == CORPUS:
        return [corpus_campaign_spec("all", schemes=CORPUS_SCHEMES, seed=cseed)]
    raise ValueError(f"not a campaign workload: {workload}")


def fixture_spec():
    """The campaign that fills the store ``query`` requests read."""
    from repro.runner.spec import CampaignSpec, ScenarioSpec

    return CampaignSpec(
        topologies=SERVE_TOPOLOGIES,
        schemes=SERVE_SCHEMES,
        scenarios=(
            ScenarioSpec(kind="single-link"),
            ScenarioSpec(kind="multi-link", failures=2, samples=10),
        ),
        seed=7,
        # Summary records only: per-sample rows would make every query a
        # bulk JSON decode rather than a store read.
        record_samples=False,
    )


def payload_digest(records: Sequence[Dict[str, Any]]) -> str:
    """SHA-256 of the canonical payloads, without timing or telemetry meta."""
    canonical = [
        [r["topology"], r["scheme"], r["scenario"], r["payload"]] for r in records
    ]
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def serve_topologies() -> Dict[str, Tuple[List[str], List[int]]]:
    """Sorted router names and link ids of the topologies the daemon serves."""
    from repro.runner.executor import load_topology

    result = {}
    for name in SERVE_TOPOLOGIES:
        graph = load_topology(name)
        result[name] = (
            sorted(graph.nodes()),
            sorted(edge.edge_id for edge in graph.edges()),
        )
    return result


def request_stream(
    seed: int, topologies: Dict[str, Tuple[List[str], List[int]]]
) -> Iterator[Dict[str, Any]]:
    """The endless, seeded ``serve-mixed`` request stream.

    Each request is a ``deliver`` (random pair, 1-3 random failed links,
    random scheme) or a ``query`` (one of :data:`QUERY_FILTERS`) with equal
    probability, tagged with a ``bench_id`` sequence number.
    """
    rng = random.Random(seed)
    names = sorted(topologies)
    bench_id = 0
    while True:
        if rng.random() < 0.5:
            topology = rng.choice(names)
            nodes, links = topologies[topology]
            source, destination = rng.sample(nodes, 2)
            failed = sorted(rng.sample(links, rng.randint(1, 3)))
            request: Dict[str, Any] = {
                "op": "deliver",
                "topology": topology,
                "scheme": rng.choice(SERVE_SCHEMES),
                "source": source,
                "destination": destination,
                "failed": failed,
            }
        else:
            request = {
                "op": "query",
                "results": FIXTURE_STORE,
                "filter": rng.choice(QUERY_FILTERS),
            }
        request["bench_id"] = bench_id
        bench_id += 1
        yield request
