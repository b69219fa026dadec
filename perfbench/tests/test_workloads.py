"""Seeded workload inputs."""

import itertools
import json

import pytest

from perfbench import workloads


@pytest.fixture(scope="module")
def topologies():
    return workloads.serve_topologies()


def first(seed, topologies, count=2000):
    return list(itertools.islice(workloads.request_stream(seed, topologies), count))


def wire(requests):
    """The bytes the client sends: one JSON line per request."""
    return b"".join((json.dumps(r) + "\n").encode("utf-8") for r in requests)


def test_stream_is_byte_identical_for_the_same_seed(topologies):
    assert wire(first(3, topologies)) == wire(first(3, topologies))
    assert wire(first(3, topologies)) != wire(first(4, topologies))


def test_stream_mix(topologies):
    requests = first(11, topologies)
    delivers = [r for r in requests if r["op"] == "deliver"]
    queries = [r for r in requests if r["op"] == "query"]
    assert 0.45 < len(delivers) / len(requests) < 0.55
    assert [r["bench_id"] for r in requests] == list(range(len(requests)))
    for request in delivers:
        nodes, links = topologies[request["topology"]]
        assert request["source"] != request["destination"]
        assert {request["source"], request["destination"]} <= set(nodes)
        assert 1 <= len(set(request["failed"])) == len(request["failed"]) <= 3
        assert set(request["failed"]) <= set(links)
        assert request["scheme"] in workloads.SERVE_SCHEMES
    assert {r["filter"] for r in queries} == set(workloads.QUERY_FILTERS)


def test_campaign_seeds_cycle():
    assert workloads.campaign_seed(0) == workloads.campaign_seed(workloads.SEED_CYCLE) == 1
    specs = workloads.campaign_specs(workloads.FIG2, 5)
    assert [spec.topologies for spec in specs] == [("teleglobe",), ("geant",)]
    assert all(spec.seed == 6 for spec in specs)


def test_digest_ignores_meta():
    record = {"topology": "t", "scheme": "pr", "scenario": {"kind": "single-link"},
              "payload": {"measured_pairs": 3}, "meta": {"elapsed_s": 1.0}}
    other = dict(record, meta={"elapsed_s": 2.0, "telemetry": {}})
    assert workloads.payload_digest([record]) == workloads.payload_digest([other])
    changed = dict(record, payload={"measured_pairs": 4})
    assert workloads.payload_digest([record]) != workloads.payload_digest([changed])
