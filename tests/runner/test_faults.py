"""Fault harness and execution policy: grammar, determinism, timeouts."""

import os
import threading
import time

import pytest

from repro.errors import CellTimeoutError, ExperimentError, InjectedFault
from repro.runner import faults
from repro.runner.executor import run_campaign
from repro.runner.faults import (
    FaultPlan,
    FaultSpec,
    fault_fraction,
    parse_fault,
    parse_plan,
)
from repro.runner.policy import (
    ExecutionPolicy,
    run_with_timeout,
)

from tests.store.conftest import deterministic_part, pair_spec


@pytest.fixture(autouse=True)
def clean_faults(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.reload_from_env()
    yield
    faults.reload_from_env()


class TestGrammar:
    def test_minimal_fault(self):
        spec = parse_fault("site=cell-body,kind=exception")
        assert spec.site == "cell-body"
        assert spec.kind == "exception"
        assert spec.probability == 1.0
        assert spec.cells == ()

    def test_all_fields(self):
        spec = parse_fault(
            "site=store-append,kind=partial-write,p=0.5,seed=7,"
            "cells=ab12+cd34,times=2,skip=3,max_attempt=1,seconds=2.5"
        )
        assert spec.probability == 0.5
        assert spec.seed == 7
        assert spec.cells == ("ab12", "cd34")
        assert spec.times == 2
        assert spec.skip == 3
        assert spec.max_attempt == 1
        assert spec.seconds == 2.5

    def test_multi_clause_plan(self):
        plan = parse_plan(
            "site=cell-body,kind=exception,cells=aa;site=cache-read,kind=partial-write"
        )
        assert len(plan.specs) == 2
        assert plan.specs[1].site == "cache-read"

    def test_empty_plan_is_none(self):
        assert parse_plan("") is None
        assert parse_plan(" ; ") is None

    def test_describe_round_trips(self):
        text = (
            "site=cell-body,kind=hang,p=0.25,seed=3,cells=ab,times=1,"
            "skip=2,max_attempt=4,seconds=1.5"
        )
        plan = parse_plan(text)
        assert parse_plan(plan.describe()).specs == plan.specs

    @pytest.mark.parametrize(
        "text",
        [
            "kind=exception",  # missing site
            "site=cell-body",  # missing kind
            "site=warp-core,kind=exception",  # unknown site
            "site=cell-body,kind=gamma-ray",  # unknown kind
            "site=cell-body,kind=exception,p=2.0",  # probability out of range
            "site=cell-body,kind=exception,warp=9",  # unknown field
            "site=cell-body,kind=exception,times=often",  # bad numeric
            "site=cell-body,kind=exception,broken",  # not key=value
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ExperimentError):
            parse_fault(text)


class TestDeterminism:
    def test_fault_fraction_is_stable(self):
        a = fault_fraction(1, "cell-body", "abcd", 0)
        assert a == fault_fraction(1, "cell-body", "abcd", 0)
        assert 0.0 <= a < 1.0
        assert a != fault_fraction(2, "cell-body", "abcd", 0)
        assert a != fault_fraction(1, "cell-body", "abcd", 1)

    def test_probability_trigger_is_seeded(self):
        spec = FaultSpec(site="cell-body", kind="exception", probability=0.5, seed=9)
        keys = [f"cell{i}" for i in range(64)]
        first = [spec.matches("cell-body", key, 0) for key in keys]
        second = [spec.matches("cell-body", key, 0) for key in keys]
        assert first == second
        assert any(first) and not all(first)

    def test_cells_prefix_match(self):
        spec = FaultSpec(site="cell-body", kind="exception", cells=("ab", "ff"))
        assert spec.matches("cell-body", "ab99", 0)
        assert spec.matches("cell-body", "ff00", 0)
        assert not spec.matches("cell-body", "ba99", 0)
        assert not spec.matches("cell-body", None, 0)
        assert not spec.matches("store-append", "ab99", 0)

    def test_max_attempt_gates_retried_attempts(self):
        spec = FaultSpec(site="cell-body", kind="exception", max_attempt=2)
        assert spec.matches("cell-body", "x", 0)
        assert spec.matches("cell-body", "x", 1)
        assert not spec.matches("cell-body", "x", 2)


class TestPlanAccounting:
    def test_skip_then_times(self):
        plan = FaultPlan(
            specs=(FaultSpec(site="store-append", kind="partial-write", skip=2, times=1),)
        )
        decisions = [plan.decide("store-append", f"c{i}", 0) for i in range(5)]
        assert [d is not None for d in decisions] == [False, False, True, False, False]

    def test_first_matching_spec_wins(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(site="cell-body", kind="exception", cells=("aa",)),
                FaultSpec(site="cell-body", kind="hang", seconds=0.0),
            )
        )
        assert plan.decide("cell-body", "aa11", 0).kind == "exception"
        assert plan.decide("cell-body", "bb22", 0).kind == "hang"


class TestCheckpoint:
    def test_no_plan_is_a_no_op(self):
        assert faults.checkpoint("cell-body", "anything") is None

    def test_exception_kind_raises_injected_fault(self):
        faults.install(parse_plan("site=cell-body,kind=exception"))
        with pytest.raises(InjectedFault):
            faults.checkpoint("cell-body", "abcd")
        # Other sites stay clean.
        assert faults.checkpoint("store-append", "abcd") is None

    def test_partial_write_is_returned_to_the_caller(self):
        faults.install(parse_plan("site=store-append,kind=partial-write"))
        spec = faults.checkpoint("store-append", "abcd")
        assert spec is not None and spec.kind == "partial-write"

    def test_hang_sleeps_then_continues(self):
        faults.install(parse_plan("site=cell-body,kind=hang,seconds=0.01,times=1"))
        started = time.perf_counter()
        assert faults.checkpoint("cell-body", "abcd") is None
        assert time.perf_counter() - started >= 0.01

    def test_env_is_the_cross_process_contract(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "site=cell-body,kind=exception")
        faults.reload_from_env()
        with pytest.raises(InjectedFault):
            faults.checkpoint("cell-body", "abcd")
        monkeypatch.delenv(faults.ENV_VAR)
        faults.reload_from_env()
        assert faults.checkpoint("cell-body", "abcd") is None


class TestExecutionPolicy:
    def test_defaults_are_the_legacy_semantics(self):
        policy = ExecutionPolicy()
        assert policy.max_retries == 0
        assert policy.cell_timeout is None
        assert policy.on_error == "fail"
        assert not policy.quarantines

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"cell_timeout": 0},
            {"cell_timeout": -2.0},
            {"on_error": "explode"},
            {"max_pool_rebuilds": -1},
        ],
    )
    def test_rejects_invalid_configuration(self, kwargs):
        with pytest.raises(ExperimentError):
            ExecutionPolicy(**kwargs)

    def test_backoff_is_deterministic_capped_and_growing(self):
        policy = ExecutionPolicy(backoff_base_s=0.1, backoff_cap_s=1.0)
        first = policy.backoff_seconds("cell-a", 1)
        assert first == policy.backoff_seconds("cell-a", 1)
        assert 0.1 <= first < 0.2  # base * (1 + jitter in [0, 1))
        assert policy.backoff_seconds("cell-a", 2) > first
        assert policy.backoff_seconds("cell-a", 10) == 1.0  # capped
        assert policy.backoff_seconds("cell-a", 0) == 0.0
        # Different cells jitter differently (no retry lockstep).
        assert first != policy.backoff_seconds("cell-b", 1)

    def test_quarantine_path_naming(self):
        """An exported quarantine set pairs visibly with its JSONL file."""
        from pathlib import Path

        from repro.store.migrate import sidecar_paths

        assert sidecar_paths("out/run.jsonl")[1] == Path("out/run.quarantine.jsonl")
        assert sidecar_paths("run.results")[1] == Path("run.results.quarantine.jsonl")


class TestRunWithTimeout:
    def test_fast_function_returns_value(self):
        assert run_with_timeout(lambda: 41 + 1, timeout=5.0) == 42

    def test_no_timeout_is_a_passthrough(self):
        assert run_with_timeout(lambda: "ok", timeout=None) == "ok"

    def test_main_thread_timeout_interrupts_sleep(self):
        started = time.perf_counter()
        with pytest.raises(CellTimeoutError):
            run_with_timeout(lambda: time.sleep(5), timeout=0.1, label="sleeper")
        assert time.perf_counter() - started < 2.0

    def test_exceptions_propagate_unchanged(self):
        with pytest.raises(ZeroDivisionError):
            run_with_timeout(lambda: 1 / 0, timeout=5.0)

    def test_off_main_thread_timeout_is_refused(self):
        """SIGALRM reaches only the main thread: no thread is left running."""
        box = {}

        def driver():
            try:
                run_with_timeout(lambda: box.setdefault("ran", True), timeout=1.0)
            except ExperimentError as exc:
                box["error"] = exc
            box["value"] = run_with_timeout(lambda: "done", timeout=None)

        before = set(threading.enumerate())
        worker = threading.Thread(target=driver)
        worker.start()
        worker.join(10)
        assert "main thread" in str(box["error"])
        assert "ran" not in box
        assert box["value"] == "done"
        assert set(threading.enumerate()) == before


class TestOffMainThreadCampaign:
    def test_hanging_cells_time_out_in_pool_workers(self, monkeypatch):
        """Off the main thread, timed-out cells stop in their worker: the
        campaign returns with the timeouts counted and no thread left."""
        spec = pair_spec()
        clean = run_campaign(spec, workers=1)
        monkeypatch.setenv(faults.ENV_VAR, "site=cell-body,kind=hang,seconds=5,max_attempt=1")
        faults.reload_from_env()
        policy = ExecutionPolicy(cell_timeout=0.3, max_retries=1, backoff_base_s=0.0)
        before = set(threading.enumerate())
        box = {}

        def driver():
            box["handle"] = run_campaign(spec, workers=1, policy=policy)

        started = time.perf_counter()
        worker = threading.Thread(target=driver)
        worker.start()
        worker.join(60)
        assert not worker.is_alive(), "the campaign did not return"
        assert time.perf_counter() - started < 5.0  # no 5 s hang ran out
        handle = box["handle"]
        assert deterministic_part(handle.records) == deterministic_part(clean.records)
        assert handle.fault_counters == {"faults/retries": 4, "faults/timeouts": 4}
        assert os.getpid() not in {record["meta"]["pid"] for record in handle.records}
        assert set(threading.enumerate()) == before
