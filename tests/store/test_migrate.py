"""JSONL <-> SQLite migration: round trips must be byte-identical."""

import filecmp

import pytest

from repro.errors import ExperimentError
from repro.runner import faults
from repro.runner.executor import run_campaign
from repro.runner.faults import parse_plan
from repro.runner.policy import ExecutionPolicy
from repro.store.database import CampaignStore
from repro.store.migrate import export_jsonl, import_jsonl, migrate, sidecar_paths

from tests.store.conftest import pair_spec


@pytest.fixture(autouse=True)
def clean_faults(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.reload_from_env()
    yield
    faults.reload_from_env()


def exported(tmp_path, store_path=None, **run_kwargs):
    """A JSONL campaign file (plus sidecars): a store run, exported.

    With ``store_path`` the campaign already ran into that store.
    """
    if store_path is None:
        store_path = tmp_path / "origin.sqlite"
        run_campaign(pair_spec(), results=store_path, **run_kwargs)
    results = tmp_path / "c.jsonl"
    export_jsonl(store_path, results)
    return results


def round_trip(tmp_path, jsonl_path):
    """jsonl -> sqlite -> jsonl again; return the re-exported path."""
    store_path = tmp_path / "migrated.sqlite"
    imported = import_jsonl(jsonl_path, store_path)
    back = tmp_path / "back.jsonl"
    export_jsonl(store_path, back, campaign_id=imported["campaign_id"])
    return back


class TestRoundTrips:
    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "parallel"])
    def test_fresh_campaign_round_trips_byte_identical(self, tmp_path, workers):
        results = exported(tmp_path, workers=workers)
        back = round_trip(tmp_path, results)
        assert filecmp.cmp(results, back, shallow=False)
        # the telemetry sidecar rides along, also byte-identical
        assert filecmp.cmp(
            sidecar_paths(results)[0], sidecar_paths(back)[0], shallow=False
        )

    def test_resumed_campaign_round_trips_byte_identical(self, tmp_path):
        store_path = tmp_path / "origin.sqlite"
        spec = pair_spec()
        # interrupt after two cells, then resume to completion
        faults.install(parse_plan("site=cell-body,kind=exception,skip=2"))
        policy = ExecutionPolicy(on_error="fail")
        with pytest.raises(Exception):
            run_campaign(spec, workers=1, results=store_path, policy=policy)
        faults.reload_from_env()
        resumed = run_campaign(spec, workers=1, results=store_path, resume=True)
        assert resumed.skipped == 2
        results = exported(tmp_path, store_path)
        back = round_trip(tmp_path, results)
        assert filecmp.cmp(results, back, shallow=False)

    def test_quarantined_campaign_round_trips_byte_identical(self, tmp_path):
        store_path = tmp_path / "origin.sqlite"
        spec = pair_spec()
        target = spec.cells()[0].cell_id[:12]
        faults.install(
            parse_plan(f"site=cell-body,kind=exception,cells={target}")
        )
        policy = ExecutionPolicy(
            on_error="quarantine", backoff_base_s=0.001, backoff_cap_s=0.01
        )
        result = run_campaign(spec, workers=1, results=store_path, policy=policy)
        assert len(result.quarantined) == 1
        results = exported(tmp_path, store_path)
        back = round_trip(tmp_path, results)
        assert filecmp.cmp(results, back, shallow=False)
        assert filecmp.cmp(
            sidecar_paths(results)[1], sidecar_paths(back)[1], shallow=False
        )

    def test_sqlite_origin_round_trips_byte_identical(self, tmp_path):
        """store -> jsonl -> store -> jsonl: the two exports must agree."""
        store_path = tmp_path / "c.sqlite"
        run_campaign(pair_spec(), workers=1, results=store_path)
        first = tmp_path / "out.jsonl"
        export_jsonl(store_path, first)
        second_store = tmp_path / "again.sqlite"
        import_jsonl(first, second_store)
        second = tmp_path / "out2.jsonl"
        export_jsonl(second_store, second)
        assert filecmp.cmp(first, second, shallow=False)


class TestImportExport:
    def test_import_summary(self, tmp_path):
        results = exported(tmp_path)
        summary = import_jsonl(results, tmp_path / "c.sqlite")
        assert summary["direction"] == "jsonl->sqlite"
        assert summary["records"] == 4
        assert summary["manifest"] is True
        with CampaignStore(tmp_path / "c.sqlite") as store:
            [row] = store.campaigns()
            assert row["status"] == "imported"
            assert row["campaign_id"] == summary["campaign_id"]

    def test_import_without_sidecars_derives_an_id(self, tmp_path):
        results = exported(tmp_path)
        sidecar_paths(results)[0].unlink()
        summary = import_jsonl(results, tmp_path / "c.sqlite")
        assert summary["campaign_id"].startswith("import-")
        assert summary["manifest"] is False

    def test_export_defaults_to_latest_campaign(self, tmp_path):
        store_path = tmp_path / "c.sqlite"
        run_campaign(pair_spec(), workers=1, results=store_path)
        latest = run_campaign(
            pair_spec(schemes=("reconvergence",)), workers=1, results=store_path
        )
        summary = export_jsonl(store_path, tmp_path / "out.jsonl")
        assert summary["campaign_id"] == latest.campaign_id
        assert summary["records"] == 2

    def test_export_by_unique_prefix(self, tmp_path):
        store_path = tmp_path / "c.sqlite"
        result = run_campaign(pair_spec(), workers=1, results=store_path)
        summary = export_jsonl(
            store_path, tmp_path / "out.jsonl", campaign_id=result.campaign_id[:6]
        )
        assert summary["campaign_id"] == result.campaign_id

    def test_export_unknown_campaign_errors(self, tmp_path):
        store_path = tmp_path / "c.sqlite"
        run_campaign(pair_spec(), workers=1, results=store_path)
        with pytest.raises(ExperimentError):
            export_jsonl(store_path, tmp_path / "out.jsonl", campaign_id="zzzz")


class TestDirectionDetection:
    def test_migrate_dispatches_on_suffix(self, tmp_path):
        results = exported(tmp_path)
        forward = migrate(results, tmp_path / "c.sqlite")
        assert forward["direction"] == "jsonl->sqlite"
        backward = migrate(tmp_path / "c.sqlite", tmp_path / "out.jsonl")
        assert backward["direction"] == "sqlite->jsonl"

    def test_same_kind_on_both_sides_errors(self, tmp_path):
        with pytest.raises(ExperimentError):
            migrate(tmp_path / "a.jsonl", tmp_path / "b.jsonl")
        with pytest.raises(ExperimentError):
            migrate(tmp_path / "a.sqlite", tmp_path / "b.sqlite")
