"""Cell attempts run with Python's cyclic garbage collector paused."""

import gc
import os
import threading
import time

import pytest

from repro.runner import executor, faults
from repro.runner.executor import _run_cell_attempts, run_campaign
from repro.runner.policy import ExecutionPolicy, collector_paused
from repro.runner.spec import CampaignSpec, ScenarioSpec
from repro.store.serve import ServeSession

from tests.store.conftest import pair_spec, stored_records


def figure2_shaped_spec() -> CampaignSpec:
    """Figure 2e/2f in miniature: geant, multi-link failures, a few samples."""
    return CampaignSpec(
        topologies=("geant",),
        schemes=("reconvergence", "fcp"),
        scenarios=(ScenarioSpec("multi-link", failures=3, samples=4),),
    )


@pytest.fixture(autouse=True)
def collector_state():
    """Each test starts with the collector on and leaves no pause held."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    gc.enable()
    with collector_paused():
        held = gc.isenabled()
    if not was_enabled:
        gc.disable()
    assert not held, "a pause leaked out of the test: a new one did not take effect"


@pytest.fixture
def cell_probe(monkeypatch):
    """Record every collection that starts while a cell body runs.

    Returns ``(collections, states)``: the generation of each collection
    seen inside a body, and ``gc.isenabled()`` as each body saw it.
    """
    collections = []
    states = []
    inside = threading.Event()
    real_run_cell = executor.run_cell

    def probe(phase, info):
        if phase == "start" and inside.is_set():
            collections.append(info["generation"])

    def probed_run_cell(*args, **kwargs):
        states.append(gc.isenabled())
        inside.set()
        try:
            return real_run_cell(*args, **kwargs)
        finally:
            inside.clear()

    monkeypatch.setattr(executor, "run_cell", probed_run_cell)
    gc.callbacks.append(probe)
    yield collections, states
    gc.callbacks.remove(probe)


class TestCountedCollections:
    def test_figure2_shaped_cell_body_sees_no_collection(self, cell_probe):
        collections, states = cell_probe
        cell = figure2_shaped_spec().cells()[1]  # the FCP cell
        status, record, _ = _run_cell_attempts(cell, None, ExecutionPolicy())
        assert status == "ok", record
        assert states == [False]
        assert collections == []
        assert gc.isenabled()

    def test_serial_campaign_cells_see_no_collection(self, cell_probe):
        collections, states = cell_probe
        spec = figure2_shaped_spec()
        handle = run_campaign(spec, workers=1)
        assert handle.executed == spec.cell_count() >= 2
        assert states == [False] * spec.cell_count()
        assert collections == []
        assert gc.isenabled()


class TestRestoredOnEveryExit:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_raising_cell_leaves_the_collector_as_found(self, monkeypatch, enabled):
        seen = []

        def failing_cell(*args, **kwargs):
            seen.append(gc.isenabled())
            raise RuntimeError("cell body failed")

        monkeypatch.setattr(executor, "run_cell", failing_cell)
        if not enabled:
            gc.disable()
        cell = pair_spec().cells()[0]
        policy = ExecutionPolicy(max_retries=1, backoff_base_s=0.0)
        status, error, info = _run_cell_attempts(cell, None, policy)
        assert status == "error" and isinstance(error, RuntimeError)
        assert info["attempts"] == 2
        assert seen == [False, False]
        assert gc.isenabled() is enabled


class TestNesting:
    def test_nested_pause_restores_only_at_the_outermost_exit(self):
        with collector_paused():
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()


class TestDaemonJob:
    def test_job_cells_leave_the_daemon_collector_alone(self, tmp_path, monkeypatch):
        """A job's cells pause the collector and count telemetry in a pool
        worker; a request served meanwhile keeps both to the daemon."""
        # The cell holds its worker for 1.5 s before its body runs.
        monkeypatch.setenv(faults.ENV_VAR, "site=cell-body,kind=hang,seconds=1.5,max_attempt=1")
        faults.reload_from_env()
        spec = CampaignSpec(
            topologies=("teleglobe",),
            schemes=("fcp",),
            scenarios=(ScenarioSpec("multi-link", failures=2, samples=4),),
        )
        session = ServeSession(jobs_path=tmp_path / "jobs.sqlite", cache_dir=tmp_path / "cache")
        try:
            submitted = session.handle(
                {"op": "submit", "spec": spec.to_dict(), "results": str(tmp_path / "r.sqlite")}
            )
            assert submitted["ok"], submitted
            job = {"op": "job", "job_id": submitted["job_id"]}
            deadline = time.monotonic() + 30
            while session.handle(job)["job"]["state"] != "running":
                assert time.monotonic() < deadline, "the job never started"
                time.sleep(0.01)
            time.sleep(0.3)  # the pool is up and its worker holds the cell
            assert gc.isenabled()
            # A cold artifact cache: the warm request embeds GEANT and
            # stores the artifact, counting a miss and a store.
            warmed = session.handle({"op": "warm", "topology": "geant", "schemes": ["pr"]})
            assert warmed["ok"], warmed
            assert list((tmp_path / "cache").glob("*/*.json"))
            assert session.handle(job)["job"]["state"] == "running"
            assert gc.isenabled()
            done = session.handle(dict(job, wait_s=60))
            assert done["job"]["state"] == "done", done
            [record] = stored_records(tmp_path / "r.sqlite", spec)
            counters = record["meta"]["telemetry"]["counters"]
            assert record["meta"]["pid"] != os.getpid()
            assert counters["cells/executed"] == 1
            assert not [name for name in counters if name.startswith("artifact_cache/")]
            assert gc.isenabled()
        finally:
            session.close()
            faults.reload_from_env()
