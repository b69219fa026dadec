"""CampaignHandle: the run_campaign return surface."""

import pytest

from repro.errors import ExperimentError
from repro.runner.executor import run_campaign
from repro.store.database import CampaignStore

from tests.store.conftest import pair_spec


class TestHandleSurface:
    def test_memory_backend(self):
        handle = run_campaign(pair_spec(), workers=1)
        assert handle.store is None
        summary = handle.summary()
        assert summary["backend"] == "memory"
        assert summary["results"] is None

    def test_jsonl_backend(self, tmp_path, monkeypatch):
        """JSONL is migrate-only: refused before any cell runs or any file
        is created, with the commands that fix it."""
        import repro.runner.executor as executor

        def must_not_run(*args, **kwargs):
            raise AssertionError("a cell ran for a refused results path")

        monkeypatch.setattr(executor, "run_cell", must_not_run)
        spec = pair_spec()
        with pytest.raises(ExperimentError) as excinfo:
            run_campaign(spec, workers=1, results=tmp_path / "c.jsonl",
                         cache_dir=tmp_path / "cache")
        message = str(excinfo.value)
        assert "repro migrate" in message
        assert f"--campaign {spec.spec_hash()}" in message
        assert list(tmp_path.iterdir()) == []

    def test_sqlite_backend_exposes_the_store(self, tmp_path):
        handle = run_campaign(pair_spec(), workers=1, results=tmp_path / "c.sqlite")
        assert isinstance(handle.store, CampaignStore)
        summary = handle.summary()
        assert summary["backend"] == "sqlite"
        assert summary["campaign_id"] == handle.spec.spec_hash()
        assert summary["records"] == 4
        assert sorted(summary["topologies"]) == ["abilene", "fig1-example"]
        assert summary["schemes"] == ["fcp", "reconvergence"]

    def test_query_filters_in_memory_on_any_backend(self, tmp_path):
        memory = run_campaign(pair_spec(), workers=1)
        stored = run_campaign(pair_spec(), workers=1, results=tmp_path / "c.sqlite")
        for handle in (memory, stored):
            assert len(handle.query("scheme=fcp")) == 2
            assert len(handle.query("topology=abilene scheme=reconvergence")) == 1
            assert handle.query("topology~zoo") == []
            assert len(handle.query(limit=3)) == 3

    def test_query_routes_campaign_selectors_through_the_store(self, tmp_path):
        store_path = tmp_path / "c.sqlite"
        run_campaign(pair_spec(schemes=("reconvergence",)), workers=1,
                     results=store_path)
        handle = run_campaign(pair_spec(), workers=1, results=store_path)
        # in-memory: only this campaign's records
        assert len(handle.query("scheme=reconvergence")) == 2
        # cross-campaign: both campaigns in the shared store
        assert len(handle.query("scheme=reconvergence campaign:all")) == 4

    def test_telemetry_view(self, tmp_path):
        handle = run_campaign(pair_spec(), workers=1, results=tmp_path / "c.sqlite")
        manifest = handle.telemetry()
        assert manifest["campaign"]["spec_hash"] == handle.campaign_id
        assert manifest["campaign"]["cells"] == 4

