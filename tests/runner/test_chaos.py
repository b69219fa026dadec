"""Chaos suite: injected faults must never change what a campaign computes.

Every test follows the same contract: run a campaign clean, run it again
under a deterministic fault plan, and require the surviving records to be
byte-identical (modulo timing metadata) to the clean run — retries,
timeouts, worker crashes and torn writes may cost wall-clock and show up in
the ``faults/*`` counters, but never in the science.

In-process faults are installed via :func:`repro.runner.faults.install`;
anything that crosses a process boundary (parallel workers, CLI
subprocesses) uses the ``REPRO_FAULTS`` environment variable, which is the
cross-process contract the harness is built on.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import ExperimentError, InjectedFault
from repro.runner import faults
from repro.runner.executor import run_campaign, telemetry_manifest
from repro.runner.faults import parse_plan
from repro.runner.policy import ExecutionPolicy
from repro.runner.spec import CampaignSpec, ScenarioSpec
from repro.store.database import CampaignStore

from tests.store.conftest import pair_spec as four_cell_spec
from tests.store.conftest import stored_records

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Fast-converging retry policy for tests: real backoff shape, toy delays.
QUICK_BACKOFF = dict(backoff_base_s=0.001, backoff_cap_s=0.01)


@pytest.fixture(autouse=True)
def clean_faults(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.reload_from_env()
    yield
    faults.reload_from_env()


def pair_spec():
    """Two cheap cells (no embedding stage): fig1-example x two schemes."""
    return CampaignSpec(
        topologies=("fig1-example",),
        schemes=("reconvergence", "fcp"),
        scenarios=(ScenarioSpec("single-link"),),
    )


def deterministic_part(records):
    return [{k: v for k, v in r.items() if k != "meta"} for r in records]


def target_of(spec):
    """A stable cell-id prefix to aim fault plans at."""
    return spec.cells()[0].cell_id[:12]


class TestRetries:
    def test_serial_transient_fault_is_retried_away(self):
        spec = pair_spec()
        clean = run_campaign(spec, workers=1)
        faults.install(
            parse_plan(f"site=cell-body,kind=exception,cells={target_of(spec)},max_attempt=1")
        )
        policy = ExecutionPolicy(max_retries=1, **QUICK_BACKOFF)
        result = run_campaign(spec, workers=1, policy=policy)
        assert deterministic_part(result.records) == deterministic_part(clean.records)
        assert result.fault_counters == {"faults/retries": 1}
        assert result.quarantined == []

    def test_parallel_transient_fault_is_retried_away(self, monkeypatch):
        spec = pair_spec()
        clean = run_campaign(spec, workers=1)
        monkeypatch.setenv(
            faults.ENV_VAR,
            f"site=cell-body,kind=exception,cells={target_of(spec)},max_attempt=1",
        )
        faults.reload_from_env()
        policy = ExecutionPolicy(max_retries=1, **QUICK_BACKOFF)
        result = run_campaign(spec, workers=2, policy=policy)
        assert deterministic_part(result.records) == deterministic_part(clean.records)
        assert result.fault_counters == {"faults/retries": 1}

    def test_exhausted_retries_fail_but_flush_completed_telemetry(self, tmp_path):
        """on_error=fail still re-raises — after the manifest is stored."""
        spec = pair_spec()
        path = tmp_path / "results.sqlite"
        faults.install(
            parse_plan(f"site=cell-body,kind=exception,cells={target_of(spec)}")
        )
        policy = ExecutionPolicy(max_retries=1, **QUICK_BACKOFF)
        with pytest.raises(InjectedFault):
            run_campaign(spec, workers=1, results=path, policy=policy)
        # The sibling cell's record reached the store...
        assert len(stored_records(path, spec)) == 1
        # ...and so did the telemetry manifest, retry counters included.
        with CampaignStore(path) as store:
            manifest = store.get_manifest(spec.spec_hash())
            assert store.campaign_row(spec.spec_hash())["status"] == "failed"
        assert manifest["counters"]["faults/retries"] == 1
        assert manifest["run"]["quarantined"] == 0


class TestTimeouts:
    def test_hung_cell_times_out_and_succeeds_on_retry(self):
        spec = pair_spec()
        clean = run_campaign(spec, workers=1)
        faults.install(
            parse_plan(
                f"site=cell-body,kind=hang,seconds=30,cells={target_of(spec)},max_attempt=1"
            )
        )
        policy = ExecutionPolicy(max_retries=1, cell_timeout=0.3, **QUICK_BACKOFF)
        result = run_campaign(spec, workers=1, policy=policy)
        assert deterministic_part(result.records) == deterministic_part(clean.records)
        assert result.fault_counters == {"faults/retries": 1, "faults/timeouts": 1}

    def test_permanent_hang_is_quarantined(self, tmp_path):
        spec = pair_spec()
        faults.install(
            parse_plan(f"site=cell-body,kind=hang,seconds=30,cells={target_of(spec)}")
        )
        policy = ExecutionPolicy(cell_timeout=0.3, on_error="quarantine", **QUICK_BACKOFF)
        result = run_campaign(
            spec, workers=1, results=tmp_path / "results.sqlite", policy=policy
        )
        [entry] = result.quarantined
        assert entry["cell_id"] == spec.cells()[0].cell_id
        assert entry["error_type"] == "CellTimeoutError"
        assert entry["attempts"] == 1
        assert result.fault_counters["faults/quarantined_cells"] == 1
        assert result.fault_counters["faults/timeouts"] == 1


class TestQuarantine:
    def test_quarantined_cell_is_excluded_not_poisoning(self, tmp_path):
        """The aggregate over surviving cells equals the clean run minus the
        quarantined cell — the core chaos-suite guarantee."""
        spec = pair_spec()
        clean = run_campaign(spec, workers=1)
        bad = spec.cells()[0].cell_id
        faults.install(parse_plan(f"site=cell-body,kind=exception,cells={bad[:12]}"))
        path = tmp_path / "results.sqlite"
        policy = ExecutionPolicy(max_retries=1, on_error="quarantine", **QUICK_BACKOFF)
        result = run_campaign(spec, workers=1, results=path, policy=policy)
        expected = [r for r in clean.records if r["cell_id"] != bad]
        assert deterministic_part(result.records) == deterministic_part(expected)
        with CampaignStore(path) as store:
            # Quarantined cells never enter the records table...
            assert bad not in store.completed_cell_ids(spec.spec_hash())
            # ...they live in the quarantine table, with their full context.
            [entry] = store.load_quarantine(spec.spec_hash())
        assert entry["cell_id"] == bad
        assert entry["error_type"] == "InjectedFault"
        assert entry["attempts"] == 2  # first try + one retry
        assert result.quarantined == [entry]

    def test_resume_after_quarantine_completes_the_campaign(self, tmp_path):
        """Quarantine is a parking lot, not a verdict: once the fault is
        gone, a resumed run re-attempts exactly the quarantined cells."""
        spec = pair_spec()
        clean = run_campaign(spec, workers=1)
        path = tmp_path / "results.sqlite"
        faults.install(
            parse_plan(f"site=cell-body,kind=exception,cells={target_of(spec)}")
        )
        policy = ExecutionPolicy(on_error="quarantine", **QUICK_BACKOFF)
        first = run_campaign(spec, workers=1, results=path, policy=policy)
        assert len(first.quarantined) == 1
        faults.install(None)
        resumed = run_campaign(
            spec, workers=1, results=path, resume=True, policy=policy
        )
        assert resumed.skipped == spec.cell_count() - 1
        assert resumed.executed == 1
        assert resumed.quarantined == []
        assert deterministic_part(resumed.records) == deterministic_part(clean.records)
        # The healthy resume rewrites the quarantine set empty.
        with CampaignStore(path) as store:
            assert store.load_quarantine(spec.spec_hash()) == []

    def test_zero_faults_means_zero_quarantine_and_no_counters(self, tmp_path):
        spec = pair_spec()
        path = tmp_path / "results.sqlite"
        policy = ExecutionPolicy(
            max_retries=2, cell_timeout=60.0, on_error="quarantine", **QUICK_BACKOFF
        )
        result = run_campaign(spec, workers=1, results=path, policy=policy)
        assert result.quarantined == []
        assert result.fault_counters == {}
        with CampaignStore(path) as store:
            assert store.load_quarantine(spec.spec_hash()) == []
        assert "faults/retries" not in telemetry_manifest(result)["counters"]


class TestWorkerCrashes:
    def test_crashed_worker_is_rebuilt_and_the_cell_retried(self, monkeypatch):
        spec = pair_spec()
        clean = run_campaign(spec, workers=1)
        monkeypatch.setenv(
            faults.ENV_VAR,
            f"site=cell-body,kind=crash,cells={target_of(spec)},max_attempt=1",
        )
        faults.reload_from_env()
        policy = ExecutionPolicy(max_retries=1, max_pool_rebuilds=32, **QUICK_BACKOFF)
        result = run_campaign(spec, workers=2, policy=policy)
        assert deterministic_part(result.records) == deterministic_part(clean.records)
        assert result.fault_counters["faults/pool_rebuilds"] >= 1
        assert result.fault_counters["faults/retries"] >= 1

    def test_permanently_crashing_cell_is_quarantined(self, monkeypatch, tmp_path):
        spec = pair_spec()
        bad = spec.cells()[0].cell_id
        monkeypatch.setenv(
            faults.ENV_VAR, f"site=cell-body,kind=crash,cells={bad[:12]}"
        )
        faults.reload_from_env()
        policy = ExecutionPolicy(
            on_error="quarantine", max_pool_rebuilds=32, **QUICK_BACKOFF
        )
        result = run_campaign(
            spec, workers=2, results=tmp_path / "results.sqlite", policy=policy
        )
        [entry] = result.quarantined
        assert entry["cell_id"] == bad
        assert entry["error_type"] == "WorkerCrashError"
        assert result.fault_counters["faults/pool_rebuilds"] >= 1
        # The sibling cell survived the crash storm.
        assert [r["cell_id"] for r in result.records] == [spec.cells()[1].cell_id]

    def test_chunk_envelope_crashes_are_bisected_to_completion(self, monkeypatch):
        """Crashing every first-attempt chunk envelope forces the full
        recovery machinery: drain, rebuild, bisect, solo re-dispatch."""
        spec = pair_spec()
        clean = run_campaign(spec, workers=1)
        monkeypatch.setenv(
            faults.ENV_VAR, "site=chunk-envelope,kind=crash,max_attempt=1"
        )
        faults.reload_from_env()
        policy = ExecutionPolicy(max_retries=1, max_pool_rebuilds=64, **QUICK_BACKOFF)
        result = run_campaign(spec, workers=2, policy=policy)
        assert deterministic_part(result.records) == deterministic_part(clean.records)
        assert result.fault_counters["faults/pool_rebuilds"] >= 1

    def test_exhausted_pool_rebuilds_still_finalize_the_campaign(
        self, monkeypatch, tmp_path
    ):
        """Giving up on the pool is a failure like any other: completed
        records flush and the campaign ends ``failed`` with its manifest,
        instead of staying ``running`` with nothing flushed."""
        spec = four_cell_spec()
        clean = {r["cell_id"]: r for r in run_campaign(spec, workers=1).records}
        bad = spec.cells()[1].cell_id
        monkeypatch.setenv(faults.ENV_VAR, f"site=cell-body,kind=crash,cells={bad[:12]}")
        faults.reload_from_env()
        path = tmp_path / "results.sqlite"
        policy = ExecutionPolicy(max_pool_rebuilds=0, **QUICK_BACKOFF)
        with pytest.raises(ExperimentError, match="giving up"):
            run_campaign(spec, workers=2, results=path, policy=policy)
        with CampaignStore(path) as store:
            row = store.campaign_row(spec.spec_hash())
            manifest = store.get_manifest(spec.spec_hash())
            records = store.load_records(spec.spec_hash())
        assert row["status"] == "failed"
        assert manifest["counters"]["faults/pool_rebuilds"] == 1
        assert manifest["run"]["executed"] == row["executed"] == len(records)
        assert bad not in {record["cell_id"] for record in records}
        assert deterministic_part(records) == deterministic_part(
            [clean[record["cell_id"]] for record in records]
        )


class TestDeterministicChaos:
    def test_same_plan_same_counters_same_records(self):
        spec = pair_spec()
        plan = f"site=cell-body,kind=exception,cells={target_of(spec)},max_attempt=1"
        policy = ExecutionPolicy(max_retries=1, **QUICK_BACKOFF)
        outcomes = []
        for _ in range(2):
            faults.install(parse_plan(plan))
            outcomes.append(run_campaign(spec, workers=1, policy=policy))
        first, second = outcomes
        assert deterministic_part(first.records) == deterministic_part(second.records)
        assert first.fault_counters == second.fault_counters

    def test_probabilistic_plan_is_reproducible(self):
        """p<1 plans fire on the same cells every run — seeded, not random."""
        spec = pair_spec()
        plan = "site=cell-body,kind=exception,p=0.5,seed=3,max_attempt=1"
        policy = ExecutionPolicy(max_retries=1, on_error="quarantine", **QUICK_BACKOFF)
        counters = []
        for _ in range(2):
            faults.install(parse_plan(plan))
            counters.append(run_campaign(spec, workers=1, policy=policy).fault_counters)
        assert counters[0] == counters[1]


def run_sweep_cli(results, cache_dir, *, workers=1, resume=False, inject_env=None):
    """Run ``python -m repro sweep`` as a real subprocess (crash tests SIGKILL
    the process, which must never happen to the pytest process itself).

    The sweep leads its own session, and its process group is SIGKILLed
    once the sweep has exited: pool workers orphaned by a killed parent
    stay in that group, so nothing outlives the call.  Output goes to
    files, not pipes, so a worker holding an inherited pipe end cannot
    stall the wait.
    """
    command = [
        sys.executable, "-m", "repro", "sweep",
        "--topologies", "fig1-example", "abilene",
        "--schemes", "reconvergence", "fcp",
        "--results", str(results),
        "--cache-dir", str(cache_dir),
        "--workers", str(workers),
        "--quiet",
    ]
    if resume:
        command.append("--resume")
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    env.pop(faults.ENV_VAR, None)
    if inject_env:
        env[faults.ENV_VAR] = inject_env
    log_path = Path(str(results) + ".log")
    with log_path.open("a") as log:
        process = subprocess.Popen(
            command, cwd=REPO_ROOT, env=env, stdout=log, stderr=log,
            start_new_session=True,
        )
        try:
            process.wait(timeout=300)
        finally:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    process.log = log_path.read_text()
    return process


def group_survivors(pgid, grace_s=10.0):
    """Pids of live (non-zombie) processes left in a process group."""
    deadline = time.monotonic() + grace_s
    while True:
        alive = []
        for stat in Path("/proc").glob("[0-9]*/stat"):
            try:
                state, _ppid, group = stat.read_text().rsplit(")", 1)[1].split()[:3]
            except (OSError, IndexError, ValueError):
                continue
            if int(group) == pgid and state != "Z":
                alive.append(int(stat.parent.name))
        if not alive or time.monotonic() >= deadline:
            return alive
        time.sleep(0.05)


class TestKillResume:
    """SIGKILL a sweep mid-append, resume, demand byte-identity."""

    TORN_WRITE = "site=store-append,kind=partial-write,skip=2"

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "parallel"])
    def test_sigkill_mid_store_append_then_resume(self, tmp_path, workers):
        """The kill lands with the insert transaction open: WAL rollback
        makes the third record never-happened, nothing of the sweep
        survives it, and resume completes the campaign byte-identically."""
        cache_dir = tmp_path / "cache"
        clean_path = tmp_path / "clean.sqlite"
        clean = run_sweep_cli(clean_path, cache_dir, workers=workers)
        assert clean.returncode == 0, clean.log

        killed_path = tmp_path / "killed.sqlite"
        killed = run_sweep_cli(
            killed_path, cache_dir, workers=workers, inject_env=self.TORN_WRITE
        )
        assert killed.returncode == -9, (killed.returncode, killed.log)
        assert group_survivors(killed.pid) == []
        with CampaignStore(killed_path) as store:
            [campaign] = store.campaigns()
            assert campaign["records"] == 2
            assert campaign["status"] == "running"

        resumed = run_sweep_cli(killed_path, cache_dir, workers=workers, resume=True)
        assert resumed.returncode == 0, resumed.log
        with CampaignStore(killed_path) as store:
            [campaign] = store.campaigns()
            assert campaign["status"] == "done"
            campaign_id = campaign["campaign_id"]
            survivors = store.load_records(campaign_id)
            # The resumed manifest covers the whole campaign, not the tail.
            assert store.get_manifest(campaign_id)["campaign"]["cells"] == 4
        with CampaignStore(clean_path) as store:
            expected = store.load_records(campaign_id)
        assert deterministic_part(survivors) == deterministic_part(expected)

    def test_sigkill_mid_sqlite_append_then_resume(self, tmp_path):
        """A SQLite store killed mid-append and resumed exports (via
        ``repro migrate``) to the same checksummed JSONL as a clean run:
        the rolled-back third record leaves no trace in the export."""
        from repro.store.jsonl import ResultStore
        from repro.store.migrate import migrate

        cache_dir = tmp_path / "cache"
        clean_path = tmp_path / "clean.sqlite"
        clean = run_sweep_cli(clean_path, cache_dir)
        assert clean.returncode == 0, clean.log

        killed_path = tmp_path / "killed.sqlite"
        killed = run_sweep_cli(killed_path, cache_dir, inject_env=self.TORN_WRITE)
        assert killed.returncode == -9, (killed.returncode, killed.log)
        with CampaignStore(killed_path) as store:
            [campaign] = store.campaigns()
            assert campaign["records"] == 2

        resumed = run_sweep_cli(killed_path, cache_dir, resume=True)
        assert resumed.returncode == 0, resumed.log
        exported = migrate(killed_path, tmp_path / "killed.jsonl")
        reference = migrate(clean_path, tmp_path / "clean.jsonl")
        assert exported["campaign_id"] == reference["campaign_id"]
        assert exported["records"] == 4
        survivors = ResultStore(tmp_path / "killed.jsonl")
        assert survivors.torn_records_skipped == 0
        assert deterministic_part(survivors.load()) == deterministic_part(
            ResultStore(tmp_path / "clean.jsonl").load()
        )
