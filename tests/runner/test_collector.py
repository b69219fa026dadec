"""Cell attempts run with Python's cyclic garbage collector paused."""

import gc
import threading

import pytest

from repro.errors import CellTimeoutError
from repro.runner import executor
from repro.runner.executor import _run_cell_attempts, run_campaign
from repro.runner.policy import ExecutionPolicy, collector_paused
from repro.runner.spec import CampaignSpec, ScenarioSpec
from repro.store.serve import ServeSession

from tests.store.conftest import pair_spec


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

    def test_off_main_thread_timeout_releases_the_pause(self, monkeypatch):
        release = threading.Event()
        body_done = threading.Event()

        def hanging_cell(*args, **kwargs):
            release.wait(30)
            body_done.set()

        monkeypatch.setattr(executor, "run_cell", hanging_cell)
        cell = pair_spec().cells()[0]
        policy = ExecutionPolicy(cell_timeout=0.2)
        outcome = {}

        def drive():
            outcome["envelope"] = _run_cell_attempts(cell, None, policy)
            outcome["enabled"] = gc.isenabled()

        driver = threading.Thread(target=drive)
        driver.start()
        driver.join(30)
        try:
            status, error, info = outcome["envelope"]
            assert status == "error" and isinstance(error, CellTimeoutError)
            assert info["timeouts"] == 1
            # The abandoned body is still sleeping, yet the pause is over.
            assert not body_done.is_set()
            assert outcome["enabled"] and gc.isenabled()
        finally:
            release.set()
        assert body_done.wait(30)
        assert gc.isenabled()


class TestNesting:
    def test_nested_pause_restores_only_at_the_outermost_exit(self):
        with collector_paused():
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_overlapping_threads_restore_after_both_exit(self):
        first_in = threading.Event()
        second_in = threading.Event()
        first_out = threading.Event()
        release_second = threading.Event()

        def first():
            with collector_paused():
                first_in.set()
                second_in.wait(30)
            first_out.set()

        def second():
            first_in.wait(30)
            with collector_paused():
                second_in.set()
                release_second.wait(30)

        threads = [threading.Thread(target=first), threading.Thread(target=second)]
        for thread in threads:
            thread.start()
        try:
            assert first_out.wait(30)
            # The first thread has left; the second still holds the pause.
            assert not gc.isenabled()
        finally:
            release_second.set()
            for thread in threads:
                thread.join(30)
        assert gc.isenabled()


class TestDaemonJob:
    def test_finished_job_leaves_the_collector_enabled(self, tmp_path, cell_probe):
        _, states = cell_probe
        session = ServeSession(jobs_path=tmp_path / "jobs.sqlite")
        try:
            spec = pair_spec()
            submitted = session.handle(
                {"op": "submit", "spec": spec.to_dict(), "results": str(tmp_path / "r.sqlite")}
            )
            assert submitted["ok"], submitted
            done = session.handle({"op": "job", "job_id": submitted["job_id"], "wait_s": 60})
            # The worker marks the job done only after run_campaign returned.
            assert done["job"]["state"] == "done"
            assert states == [False] * spec.cell_count()
            assert gc.isenabled()
        finally:
            session.close()
