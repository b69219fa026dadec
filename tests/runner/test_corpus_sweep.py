"""Corpus-aware campaign execution: sharding, summaries and determinism."""

import json

import pytest

from repro.errors import TopologyError
from repro.runner import (
    CampaignSpec,
    ScenarioSpec,
    corpus_campaign_spec,
    load_topology,
    run_campaign,
    topology_summary_rows,
)
from repro.store import CampaignStore, migrate
from repro.topologies.corpus import topology_set


def small_corpus_spec() -> CampaignSpec:
    return CampaignSpec(
        topologies=("nsfnet1991", "fat-tree:k=4"),
        schemes=("reconvergence", "fcp"),
        scenarios=(ScenarioSpec(kind="single-link"),),
    )


class TestLoadTopology:
    def test_corpus_spec_resolves(self):
        graph = load_topology("waxman:size=20,seed=5")
        assert graph.name == "waxman:alpha=0.6,beta=0.4,seed=5,size=20"

    def test_zoo_snapshot_resolves(self):
        assert load_topology("nsfnet1991").number_of_nodes() == 14

    def test_spellings_share_the_cached_object(self):
        one = load_topology("waxman:size=20,seed=5")
        two = load_topology("WAXMAN:seed=5,size=20")
        assert one is two

    def test_graphml_file_path_resolves(self, tmp_path):
        path = tmp_path / "tri.graphml"
        path.write_text(
            '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">'
            '<graph edgedefault="undirected">'
            '<node id="a"/><node id="b"/><node id="c"/>'
            '<edge source="a" target="b"/><edge source="b" target="c"/>'
            '<edge source="c" target="a"/>'
            "</graph></graphml>"
        )
        assert load_topology(str(path)).number_of_edges() == 3

    def test_bad_params_of_known_family_raise(self):
        with pytest.raises(TopologyError):
            load_topology("ring:blast=9")


class TestCorpusSharding:
    def test_parallel_equals_serial_across_the_corpus(self, tmp_path):
        spec = small_corpus_spec()
        serial = run_campaign(spec, workers=1)
        parallel = run_campaign(spec, workers=2)

        def payloads(result):
            return [
                {k: v for k, v in record.items() if k != "meta"}
                for record in result.records
            ]

        assert payloads(serial) == payloads(parallel)

    def test_jsonl_rerun_payloads_identical(self, tmp_path):
        """Serial and parallel store runs export to the same JSONL lines."""
        spec = small_corpus_spec()
        first = tmp_path / "first.jsonl"
        second = tmp_path / "second.jsonl"
        for path, workers in ((first, 1), (second, 2)):
            store = path.with_suffix(".sqlite")
            run_campaign(spec, workers=workers, results=store)
            migrate(store, path)

        def lines(path):
            rows = []
            for line in path.read_text().splitlines():
                record = json.loads(line)
                record.pop("meta")
                # The line checksum covers meta (per-run timings), so it
                # goes too once meta is stripped.
                record.pop("_checksum", None)
                rows.append(json.dumps(record, sort_keys=True))
            return rows

        assert lines(first) == lines(second)

    def test_topology_summary_one_row_per_topology_scheme(self):
        spec = small_corpus_spec()
        result = run_campaign(spec, workers=1)
        rows = result.topology_summary()
        assert len(rows) == len(spec.topologies) * len(spec.schemes)
        assert [row[0] for row in rows[:2]] == ["nsfnet1991", "nsfnet1991"]
        # delivery / mean stretch / max / coverage columns render as strings.
        assert all(len(row) == 7 for row in rows)

    def test_topology_summary_rows_from_reloaded_store(self, tmp_path):
        spec = small_corpus_spec()
        path = tmp_path / "corpus.sqlite"
        result = run_campaign(spec, workers=1, results=path)
        with CampaignStore(path) as store:
            reloaded = store.load_records(spec.spec_hash())
        assert topology_summary_rows(reloaded) == result.topology_summary()


class TestCorpusCampaignSpec:
    def test_spans_the_full_corpus(self):
        spec = corpus_campaign_spec("all")
        assert len(spec.topologies) >= 12
        assert set(spec.topologies) == set(topology_set("all"))

    def test_zoo_slice(self):
        spec = corpus_campaign_spec("zoo", schemes=("reconvergence",))
        assert set(spec.topologies) == set(topology_set("zoo"))
        assert spec.cell_count() == len(spec.topologies)
