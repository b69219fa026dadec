"""CampaignStore: schema, campaign lifecycle, backend parity with JSONL."""

import sqlite3

import pytest

from repro.errors import ExperimentError, ResultStoreError
from repro.runner.executor import run_campaign
from repro.store.database import CampaignStore, is_store_path
from repro.store.schema import SCHEMA_VERSION, applied_version, transaction

from tests.store.conftest import deterministic_part, pair_spec


class TestSchema:
    def test_fresh_store_lands_on_current_version(self, store_path):
        with CampaignStore(store_path) as store:
            assert applied_version(store.conn) == SCHEMA_VERSION

    def test_newer_store_is_refused(self, store_path):
        with CampaignStore(store_path) as store:
            store.conn.execute(
                "INSERT INTO schema_migrations (version) VALUES (?)",
                (SCHEMA_VERSION + 1,),
            )
        with pytest.raises(ResultStoreError, match="newer"):
            CampaignStore(store_path).conn

    def test_wal_mode(self, store_path):
        with CampaignStore(store_path) as store:
            [row] = store.conn.execute("PRAGMA journal_mode").fetchall()
            assert row[0] == "wal"

    def test_failed_transaction_reraises_and_rolls_back(self, store_path):
        class BodyFailed(Exception):
            pass

        with CampaignStore(store_path) as store:
            conn = store.conn
            with pytest.raises(BodyFailed):
                with transaction(conn):
                    conn.execute("INSERT INTO campaigns (campaign_id) VALUES ('x')")
                    raise BodyFailed
            assert not conn.in_transaction
            assert store.campaign_row("x") is None

    def test_suffix_detection(self, tmp_path):
        assert is_store_path(tmp_path / "a.sqlite")
        assert is_store_path(tmp_path / "a.sqlite3")
        assert is_store_path(tmp_path / "a.db")
        assert not is_store_path(tmp_path / "a.jsonl")
        assert not is_store_path(tmp_path / "a.json")


class TestCampaignLifecycle:
    RECORD = {
        "cell_id": "abc123",
        "index": 0,
        "topology": "fig1-example",
        "scheme": "pr",
        "discriminator": "hop-count",
        "scenario": {"kind": "single-link"},
        "seed": 7,
        "payload": {"delivery_ratio": 1.0},
    }

    def test_append_and_load_round_trip(self, store_path):
        with CampaignStore(store_path) as store:
            store.ensure_campaign("c1", {"topologies": ["fig1-example"]})
            store.append_record("c1", self.RECORD)
            assert store.load_records("c1") == [self.RECORD]
            assert store.completed_cell_ids("c1") == {"abc123"}
            assert store.record_count("c1") == 1

    def test_append_requires_cell_id(self, store_path):
        with CampaignStore(store_path) as store:
            store.ensure_campaign("c1", {})
            with pytest.raises(ResultStoreError, match="cell_id"):
                store.append_record("c1", {"topology": "x"})

    def test_load_orders_by_cell_index(self, store_path):
        with CampaignStore(store_path) as store:
            store.ensure_campaign("c1", {})
            for index in (2, 0, 1):
                record = dict(self.RECORD, cell_id=f"cell{index}", index=index)
                store.append_record("c1", record)
            loaded = store.load_records("c1")
            assert [r["index"] for r in loaded] == [0, 1, 2]

    def test_begin_campaign_resets_ensure_keeps(self, store_path):
        with CampaignStore(store_path) as store:
            store.begin_campaign("c1", {})
            store.append_record("c1", self.RECORD)
            # ensure: rows survive (the resume path)
            store.ensure_campaign("c1", {})
            assert store.record_count("c1") == 1
            # begin: a fresh run wipes the previous rows
            store.begin_campaign("c1", {})
            assert store.record_count("c1") == 0

    def test_campaigns_listing_is_recency_ordered(self, store_path):
        with CampaignStore(store_path) as store:
            store.begin_campaign("first", {})
            store.begin_campaign("second", {})
            store.append_record("second", self.RECORD)
            store.finish_campaign("second", executed=1, skipped=0, elapsed_s=0.5)
            rows = store.campaigns()
            assert [row["campaign_id"] for row in rows] == ["first", "second"]
            latest = rows[-1]
            assert latest["records"] == 1
            assert latest["status"] == "done"
            # re-beginning an existing campaign moves it to most-recent
            store.begin_campaign("first", {})
            assert store.campaigns()[-1]["campaign_id"] == "first"

    def test_manifest_and_quarantine_round_trip(self, store_path):
        manifest = {"format": "repro-telemetry/v1", "run": {"cells": 4}}
        entries = [
            {"cell_id": "q1", "index": 1, "error": "boom"},
            {"cell_id": "q0", "index": 0, "error": "bang"},
        ]
        with CampaignStore(store_path) as store:
            store.ensure_campaign("c1", {})
            assert store.get_manifest("c1") is None
            store.put_manifest("c1", manifest)
            store.put_quarantine("c1", entries)
            assert store.get_manifest("c1") == manifest
            assert [e["index"] for e in store.load_quarantine("c1")] == [0, 1]

    def test_delete_campaign(self, store_path):
        with CampaignStore(store_path) as store:
            store.begin_campaign("c1", {})
            store.append_record("c1", self.RECORD)
            store.delete_campaign("c1")
            assert store.campaigns() == []
            assert store.load_records("c1") == []


class TestBackendParity:
    """The same campaign must compute identical payloads in memory and in
    the store."""

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "parallel"])
    def test_payloads_identical_across_backends(self, tmp_path, workers):
        spec = pair_spec()
        memory = run_campaign(spec, workers=workers)
        sqlite_run = run_campaign(spec, workers=workers, results=tmp_path / "c.sqlite")
        assert deterministic_part(memory.records) == deterministic_part(
            sqlite_run.records
        )
        # and what the store persisted is what the handle returned
        with CampaignStore(tmp_path / "c.sqlite") as store:
            persisted = store.load_records(spec.spec_hash())
        assert persisted == sqlite_run.records

    def test_sqlite_resume_skips_completed_cells(self, tmp_path):
        spec = pair_spec()
        fresh = run_campaign(spec, workers=1, results=tmp_path / "c.sqlite")
        assert fresh.executed == 4
        resumed = run_campaign(
            spec, workers=1, results=tmp_path / "c.sqlite", resume=True
        )
        assert resumed.executed == 0
        assert resumed.skipped == 4
        assert deterministic_part(resumed.records) == deterministic_part(fresh.records)

    def test_fresh_run_truncates_previous_campaign(self, tmp_path):
        spec = pair_spec()
        run_campaign(spec, workers=1, results=tmp_path / "c.sqlite")
        again = run_campaign(spec, workers=1, results=tmp_path / "c.sqlite")
        assert again.executed == 4
        with CampaignStore(tmp_path / "c.sqlite") as store:
            assert store.record_count(spec.spec_hash()) == 4

    def test_two_campaigns_share_one_store(self, tmp_path):
        store_path = tmp_path / "c.sqlite"
        first = run_campaign(pair_spec(), workers=1, results=store_path)
        second = run_campaign(
            pair_spec(schemes=("reconvergence",)), workers=1, results=store_path
        )
        with CampaignStore(store_path) as store:
            rows = store.campaigns()
            assert [row["campaign_id"] for row in rows] == [
                first.campaign_id,
                second.campaign_id,
            ]
            # cross-campaign query sees both; campaign:last1 only the second
            assert store.query_count("campaign:all") == 6
            assert store.query_count("campaign:last1") == 2

    def test_unmatched_campaign_prefix_errors(self, tmp_path):
        store_path = tmp_path / "c.sqlite"
        run_campaign(pair_spec(), workers=1, results=store_path)
        with CampaignStore(store_path) as store:
            with pytest.raises(ExperimentError, match="campaign"):
                store.query("campaign:no-such-prefix")

    def test_telemetry_lands_in_store_not_sidecar(self, tmp_path):
        result = run_campaign(pair_spec(), workers=1, results=tmp_path / "c.sqlite")
        assert [path.name for path in tmp_path.iterdir() if "telemetry" in path.name] == []
        with CampaignStore(tmp_path / "c.sqlite") as store:
            manifest = store.get_manifest(result.campaign_id)
        assert manifest["schema"] == "repro-telemetry/v1"
        assert manifest["campaign"]["cells"] == 4

    def test_concurrent_readers_while_writing(self, store_path):
        """WAL mode: a second connection reads while the first appends."""
        with CampaignStore(store_path) as writer:
            writer.begin_campaign("c1", {})
            writer.append_record("c1", TestCampaignLifecycle.RECORD)
            with CampaignStore(store_path) as reader:
                assert reader.record_count("c1") == 1

    def test_plain_sqlite3_can_read_the_store(self, tmp_path):
        """The schema is ordinary SQLite — external tools can query it."""
        spec = pair_spec()
        run_campaign(spec, workers=1, results=tmp_path / "c.sqlite")
        conn = sqlite3.connect(tmp_path / "c.sqlite")
        try:
            [(count,)] = conn.execute(
                "SELECT COUNT(*) FROM records JOIN cells USING (campaign_id, cell_id)"
            ).fetchall()
            assert count == 4
        finally:
            conn.close()
