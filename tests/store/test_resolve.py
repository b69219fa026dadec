"""resolve_results: the one results-argument resolver the CLI shares."""

import json

import pytest

from repro.errors import ExperimentError
from repro.runner.executor import run_campaign
from repro.store.database import CampaignStore
from repro.store.migrate import export_jsonl, import_jsonl, sidecar_paths
from repro.store.resolve import classify_results_path, resolve_results

from tests.store.conftest import pair_spec


class TestClassification:
    @pytest.mark.parametrize("name,kind", [
        ("c.sqlite", "store"),
        ("c.sqlite3", "store"),
        ("c.db", "store"),
        ("c.jsonl", "jsonl"),
        ("c.telemetry.json", "manifest"),
        ("manifest.json", "manifest"),
        ("results.out", "jsonl"),
    ])
    def test_suffix_classification(self, name, kind):
        if kind == "jsonl":
            # JSONL is migrate-only: refused, with the command that fixes it.
            with pytest.raises(ExperimentError, match="repro migrate"):
                classify_results_path(name)
        else:
            assert classify_results_path(name) == kind

    def test_missing_file_errors_by_default(self, tmp_path):
        with pytest.raises(ExperimentError, match="no such"):
            resolve_results(tmp_path / "absent.sqlite")
        resolved = resolve_results(tmp_path / "absent.sqlite", must_exist=False)
        assert resolved.kind == "store"


class TestResolvedViews:
    def test_jsonl_records_and_manifest(self, tmp_path):
        """JSONL results are refused (existing or not) before anything is
        read; once imported, the store answers the same questions."""
        store_path = tmp_path / "c.sqlite"
        run_campaign(pair_spec(), workers=1, results=store_path)
        results = tmp_path / "c.jsonl"
        export_jsonl(store_path, results)
        for path in (results, tmp_path / "absent.jsonl"):
            with pytest.raises(ExperimentError, match="repro migrate"):
                resolve_results(path)
        imported = tmp_path / "imported.sqlite"
        import_jsonl(results, imported)
        with resolve_results(imported) as resolved:
            assert len(resolved.records()) == 4
            assert len(resolved.records("scheme=fcp")) == 2
            assert resolved.manifest()["campaign"]["cells"] == 4
            [row] = resolved.campaigns()
            assert row["records"] == 4

    def test_jsonl_manifest_rebuilt_without_sidecar(self, tmp_path):
        """A campaign imported without its manifest sidecar gets one
        re-merged from its records."""
        store_path = tmp_path / "c.sqlite"
        run_campaign(pair_spec(), workers=1, results=store_path)
        results = tmp_path / "c.jsonl"
        export_jsonl(store_path, results)
        sidecar_paths(results)[0].unlink()
        imported = tmp_path / "imported.sqlite"
        import_jsonl(results, imported)
        with resolve_results(imported) as resolved:
            # rebuilt from records: no campaign identity, but full counters
            manifest = resolved.manifest()
            assert manifest["records"]["total"] == 4
            assert manifest["counters"]["cells/executed"] == 4

    def test_store_records_and_manifest(self, tmp_path):
        store_path = tmp_path / "c.sqlite"
        result = run_campaign(pair_spec(), workers=1, results=store_path)
        with resolve_results(store_path) as resolved:
            assert resolved.kind == "store"
            assert len(resolved.records("campaign:last1")) == 4
            assert resolved.manifest()["campaign"]["spec_hash"] == result.campaign_id
            [row] = resolved.campaigns()
            assert row["campaign_id"] == result.campaign_id

    def test_manifest_file_directly(self, tmp_path):
        store_path = tmp_path / "c.sqlite"
        run_campaign(pair_spec(), workers=1, results=store_path)
        results = tmp_path / "c.jsonl"
        export_jsonl(store_path, results)
        sidecar = sidecar_paths(results)[0]
        with resolve_results(sidecar) as resolved:
            assert resolved.kind == "manifest"
            assert resolved.manifest()["campaign"]["cells"] == 4
            with pytest.raises(ExperimentError):
                resolved.records()

    def test_jsonl_store_property_refused(self, tmp_path):
        store_path = tmp_path / "c.sqlite"
        run_campaign(pair_spec(), workers=1, results=store_path)
        with CampaignStore(store_path) as store:
            manifest = store.get_manifest(pair_spec().spec_hash())
        sidecar = tmp_path / "c.telemetry.json"
        sidecar.write_text(json.dumps(manifest))
        with resolve_results(sidecar) as resolved:
            with pytest.raises(ExperimentError, match="not a SQLite"):
                resolved.store
