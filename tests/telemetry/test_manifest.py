"""Manifest determinism: serial == parallel == resumed, telemetry on/off."""

import json

import pytest

from repro import telemetry
from repro.graph.spcache import clear_engines
from repro.runner.executor import _TOPOLOGY_CACHE, run_campaign, telemetry_manifest
from repro.runner.spec import CampaignSpec, ScenarioSpec

from tests.store.conftest import keep_only


@pytest.fixture(autouse=True)
def enabled_telemetry():
    telemetry.set_enabled(True)
    yield
    telemetry.set_enabled(True)


def reset_process_caches():
    """Cold-start the per-process caches, like a fresh CLI invocation."""
    clear_engines()
    _TOPOLOGY_CACHE.clear()


def small_spec():
    return CampaignSpec(
        topologies=("fig1-example", "abilene"),
        schemes=("reconvergence", "pr"),
        scenarios=(ScenarioSpec("single-link"),),
        embedding_seed=0,
    )


def payload_lines(records):
    return [json.dumps(r["payload"], sort_keys=True) for r in records]


def run_fresh(tmp_path, name, workers, **kwargs):
    reset_process_caches()
    return run_campaign(
        small_spec(),
        workers=workers,
        cache_dir=tmp_path / f"cache-{name}",
        results=tmp_path / f"{name}.sqlite",
        **kwargs,
    )


def stored_manifest(result):
    """The manifest a campaign left in its store's telemetry table."""
    return result.store.get_manifest(result.campaign_id)


class TestManifestSidecar:
    def test_sidecar_written_next_to_results(self, tmp_path):
        result = run_fresh(tmp_path, "serial", workers=1)
        manifest = stored_manifest(result)
        assert manifest["schema"] == telemetry.MANIFEST_SCHEMA
        assert telemetry.validate_manifest(manifest) == []
        assert manifest["records"]["total"] == len(result.records)
        assert manifest["records"]["with_telemetry"] == len(result.records)
        assert manifest["campaign"]["spec_hash"] == small_spec().spec_hash()

    def test_manifest_path_for(self):
        """The exported manifest file pairs visibly with its JSONL file."""
        from pathlib import Path

        from repro.store.migrate import sidecar_paths

        assert sidecar_paths("out/run.jsonl")[0] == Path("out/run.telemetry.json")
        assert sidecar_paths("run.results")[0] == Path("run.results.telemetry.json")

    def test_expected_counters_present(self, tmp_path):
        result = run_fresh(tmp_path, "serial", workers=1)
        counters = stored_manifest(result)["counters"]
        assert counters["cells/executed"] == len(result.records)
        assert counters["engine/builds"] > 0
        assert counters["engine/hits"] > 0
        assert counters["engine/misses"] > 0
        # pr cells went through the artifact cache (cold: one miss + store).
        assert counters["artifact_cache/misses"] > 0
        assert counters["artifact_cache/write_bytes"] > 0


class TestDeterminism:
    def test_serial_parallel_resumed_merge_identically(self, tmp_path):
        serial = run_fresh(tmp_path, "serial", workers=1)
        parallel = run_fresh(tmp_path, "parallel", workers=2)

        # Resumed: cut the serial campaign at the topology boundary (the
        # per-topology caches make within-topology hit/miss attribution
        # depend on which sibling cells already ran) and re-run the rest
        # from cold caches.
        resumed_path = tmp_path / "resumed.sqlite"
        first_topology = small_spec().topologies[0]
        kept = [r for r in serial.records if r["topology"] == first_topology]
        assert 0 < len(kept) < len(serial.records)
        keep_only(resumed_path, small_spec(), kept)
        reset_process_caches()
        resumed = run_campaign(
            small_spec(),
            workers=1,
            cache_dir=tmp_path / "cache-resumed",
            results=resumed_path,
            resume=True,
        )
        assert resumed.skipped == len(kept)
        assert resumed.executed == len(serial.records) - len(kept)

        views = [
            telemetry.canonical_bytes(
                telemetry.deterministic_view(stored_manifest(r))
            )
            for r in (serial, parallel, resumed)
        ]
        assert views[0] == views[1]
        assert views[0] == views[2]

    def test_payloads_identical_with_telemetry_on_or_off(self, tmp_path):
        on = run_fresh(tmp_path, "on", workers=1)
        telemetry.set_enabled(False)
        off = run_fresh(tmp_path, "off", workers=1)
        telemetry.set_enabled(True)
        assert payload_lines(on.records) == payload_lines(off.records)
        assert all("telemetry" in r["meta"] for r in on.records)
        assert all("telemetry" not in r["meta"] for r in off.records)
        manifest = stored_manifest(off)
        assert manifest["records"]["with_telemetry"] == 0
        assert manifest["counters"] == {}

    def test_parallel_payloads_identical_with_telemetry_off(self, tmp_path):
        on = run_fresh(tmp_path, "on", workers=2)
        telemetry.set_enabled(False)
        off = run_fresh(tmp_path, "off", workers=2)
        telemetry.set_enabled(True)
        assert payload_lines(on.records) == payload_lines(off.records)
        assert all("telemetry" not in r["meta"] for r in off.records)


class TestCampaignResultViews:
    def test_merged_counters_cross_worker(self, tmp_path):
        """The satellite fix: parallel totals come from the merged snapshots.

        ``aggregate_cache_info()`` only ever sees the parent process's
        engines, which in a parallel campaign did none of the work; the
        merged per-cell snapshots carry every worker's counters.
        """
        parallel = run_fresh(tmp_path, "parallel", workers=2)
        counters = parallel.merged_counters()
        assert counters["engine/builds"] > 0
        assert counters["engine/hits"] > 0
        engine = parallel.engine_counters()
        assert engine["builds"] == counters["engine/builds"]
        assert set(engine) >= {"builds", "hits", "misses", "repair_hits",
                               "repair_fallbacks", "evictions"}

    def test_result_telemetry_matches_sidecar_counters(self, tmp_path):
        result = run_fresh(tmp_path, "serial", workers=1)
        in_memory = result.telemetry()
        on_disk = stored_manifest(result)
        assert telemetry.deterministic_view(in_memory) == telemetry.deterministic_view(
            on_disk
        )
        assert in_memory is not None
        assert telemetry_manifest(result)["counters"] == on_disk["counters"]


class TestSlowestCells:
    def test_rows_sorted_by_elapsed_with_stable_ties(self):
        records = [
            {"cell_id": c, "topology": "t", "scheme": "s",
             "scenario_family": "single-link", "meta": {"elapsed_s": e}}
            for c, e in [("a", 1.0), ("b", 3.0), ("c", 1.0)]
        ]
        rows = telemetry.slowest_cells(records, limit=3)
        assert [row["cell_id"] for row in rows] == ["b", "a", "c"]
        assert telemetry.slowest_cells(records, limit=1)[0]["cell_id"] == "b"

    def test_phases_come_from_snapshot_spans(self, tmp_path):
        result = run_fresh(tmp_path, "serial", workers=1)
        rows = telemetry.slowest_cells(result.records, limit=2)
        assert rows[0]["elapsed_s"] >= rows[1]["elapsed_s"]
        assert any("delivery" in phase for row in rows for phase in row["phases"])


class TestValidation:
    def test_real_manifest_validates(self, tmp_path):
        result = run_fresh(tmp_path, "serial", workers=1)
        assert telemetry.validate_manifest(result.telemetry()) == []

    def test_problems_detected(self):
        manifest = {
            "schema": "bogus/v9",
            "counters": {"engine/hits": -1},
            "spans": {"weird": {"count": 1}},
            "campaign": [],
        }
        problems = telemetry.validate_manifest(manifest)
        text = "\n".join(problems)
        assert "schema" in text
        assert "cells/executed" in text
        assert "non-negative" in text
        assert "cell/" in text
        assert "missing required keys" in text
        assert "campaign" in text

    def test_empty_manifest_fails(self):
        assert telemetry.validate_manifest({}) != []


class TestReportRendering:
    def test_render_report_smoke(self, tmp_path):
        result = run_fresh(tmp_path, "serial", workers=1)
        text = telemetry.render_report(result.telemetry(), slowest=3)
        assert "phase-time breakdown" in text
        assert "cache efficiency" in text
        assert "slowest cells" in text
        assert "delivery/scheme=pr" in text

    def test_render_report_empty_manifest(self):
        text = telemetry.render_report(telemetry.build_manifest([]))
        assert "no telemetry recorded" in text
