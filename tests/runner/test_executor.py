"""Executor: determinism, parallel/serial parity, the store, resume."""

import json
import multiprocessing
import threading

import pytest

from repro.errors import ExperimentError, FailureScenarioError, JobCancelled
from repro.graph import spcache
from repro.graph.spcache import _ENGINES, engine_for
from repro.runner.executor import (
    _TOPOLOGY_CACHE,
    _run_cell_chunk,
    _worker_init,
    build_scheme,
    generate_scenarios,
    load_topology,
    run_campaign,
    run_cell,
)
from repro.runner import faults
from repro.runner.policy import ExecutionPolicy
from repro.runner.spec import CampaignSpec, ScenarioSpec
from repro.store.database import CampaignStore
from repro.store.jsonl import ResultStore
from repro.store.migrate import migrate
from repro.topologies.example import example_fig1

from tests.store.conftest import keep_only, pair_spec, stored_records


def completed_ids(path, spec):
    return {record["cell_id"] for record in stored_records(path, spec)}


def tiny_spec(**overrides):
    """The smallest useful campaign: 2 topologies x 2 schemes x 2 scenarios."""
    defaults = dict(
        topologies=("fig1-example", "abilene"),
        schemes=("reconvergence", "pr"),
        scenarios=(
            ScenarioSpec("single-link"),
            ScenarioSpec("multi-link", failures=2, samples=3),
        ),
        embedding_seed=0,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


def deterministic_part(records):
    """Records without the timing/pid metadata (the comparable part)."""
    return [{k: v for k, v in r.items() if k != "meta"} for r in records]


class TestCellExecution:
    def test_run_cell_record_shape(self):
        [cell] = CampaignSpec(
            topologies=("fig1-example",), schemes=("pr",), embedding_seed=0
        ).cells()
        record = run_cell(cell)
        assert record["cell_id"] == cell.cell_id
        assert record["scheme_name"] == "Packet Re-cycling"
        payload = record["payload"]
        from repro.failures.scenarios import single_link_failures

        expected = len(single_link_failures(example_fig1(), only_non_disconnecting=True))
        assert payload["scenarios"] == expected
        assert payload["delivery_ratio"] == 1.0
        assert payload["coverage"]["attempts"] == payload["n_samples"]
        assert len(payload["samples"]) == payload["n_samples"]
        assert json.dumps(record)  # records must be JSON-serialisable

    def test_run_cell_is_deterministic(self):
        [cell] = CampaignSpec(
            topologies=("abilene",),
            schemes=("pr",),
            scenarios=(ScenarioSpec("multi-link", failures=3, samples=5),),
            embedding_seed=0,
        ).cells()
        first, second = run_cell(cell), run_cell(cell)
        assert deterministic_part([first]) == deterministic_part([second])

    def test_full_coverage_mode_counts_all_reachable_pairs(self):
        [affected_cell] = CampaignSpec(
            topologies=("fig1-example",), schemes=("reconvergence",)
        ).cells()
        [full_cell] = CampaignSpec(
            topologies=("fig1-example",), schemes=("reconvergence",), coverage="full"
        ).cells()
        affected = run_cell(affected_cell)["payload"]
        full = run_cell(full_cell)["payload"]
        assert full["coverage"]["attempts"] > affected["coverage"]["attempts"]
        # The stretch conditioning (affected pairs) is identical in both modes.
        assert full["samples"] == affected["samples"]

    def test_build_scheme_rejects_unknown_key(self):
        with pytest.raises(ExperimentError):
            build_scheme("quantum-routing", example_fig1())

    def test_generate_scenarios_node_kind(self):
        graph = example_fig1()
        [cell] = CampaignSpec(
            topologies=("fig1-example",),
            schemes=("reconvergence",),
            scenarios=(ScenarioSpec(kind="node"),),
        ).cells()
        scenarios = generate_scenarios(graph, cell)
        assert len(scenarios) == graph.number_of_nodes()


def model_spec(**overrides):
    """A campaign sweeping three scenario models on two topologies."""
    defaults = dict(
        topologies=("fig1-example", "abilene"),
        schemes=("reconvergence", "fcp"),
        scenarios=(
            ScenarioSpec.for_model("srlg", samples=4),
            ScenarioSpec.for_model("regional", samples=4),
            ScenarioSpec.for_model("maintenance", samples=4),
        ),
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


class TestModelScenarioCells:
    def test_generate_scenarios_model_kind(self):
        graph = example_fig1()
        [cell] = CampaignSpec(
            topologies=("fig1-example",),
            schemes=("reconvergence",),
            scenarios=(ScenarioSpec.for_model("srlg", samples=10),),
        ).cells()
        scenarios = generate_scenarios(graph, cell)
        assert scenarios
        assert all(s.kind == "srlg" for s in scenarios)

    def test_model_record_carries_model_and_params(self):
        [cell] = CampaignSpec(
            topologies=("fig1-example",),
            schemes=("reconvergence",),
            scenarios=(ScenarioSpec.for_model("srlg", group_size=2),),
        ).cells()
        record = run_cell(cell)
        assert record["scenario"]["model"] == "srlg"
        assert record["scenario"]["params"] == {"group_size": 2}
        assert json.dumps(record)

    def test_model_sweep_parallel_equals_serial(self, tmp_path):
        spec = model_spec()
        serial = run_campaign(
            spec, workers=1, results=tmp_path / "serial.sqlite"
        )
        parallel = run_campaign(
            spec, workers=2, results=tmp_path / "parallel.sqlite"
        )
        assert deterministic_part(serial.records) == deterministic_part(parallel.records)
        serial_rows = stored_records(tmp_path / "serial.sqlite", spec)
        parallel_rows = stored_records(tmp_path / "parallel.sqlite", spec)
        assert deterministic_part(serial_rows) == deterministic_part(parallel_rows)

    def test_model_sweep_resumes_from_partial_store(self, tmp_path):
        spec = model_spec()
        path = tmp_path / "results.sqlite"
        full = run_campaign(spec, workers=1, results=path)
        keep_only(path, spec, full.records[:5])
        resumed = run_campaign(spec, workers=2, results=path, resume=True)
        assert resumed.skipped == 5
        assert resumed.executed == spec.cell_count() - 5
        assert deterministic_part(resumed.records) == deterministic_part(full.records)

    def test_params_change_the_cell_id(self):
        def only_cell(scenario):
            return CampaignSpec(
                topologies=("fig1-example",), schemes=("reconvergence",),
                scenarios=(scenario,),
            ).cells()[0]

        default = only_cell(ScenarioSpec.for_model("srlg"))
        tweaked = only_cell(ScenarioSpec.for_model("srlg", group_size=2))
        assert default.cell_id != tweaked.cell_id
        assert default.seed != tweaked.seed  # params feed the scenario seed


class TestDeterminism:
    def test_serial_runs_identical(self, tmp_path):
        spec = tiny_spec()
        first = run_campaign(spec, workers=1, cache_dir=tmp_path / "cache")
        second = run_campaign(spec, workers=1, cache_dir=tmp_path / "cache")
        assert deterministic_part(first.records) == deterministic_part(second.records)

    def test_parallel_equals_serial_including_jsonl_order(self, tmp_path):
        spec = tiny_spec()
        serial = run_campaign(
            spec,
            workers=1,
            cache_dir=tmp_path / "cache-serial",
            results=tmp_path / "serial.sqlite",
        )
        parallel = run_campaign(
            spec,
            workers=2,
            cache_dir=tmp_path / "cache-parallel",
            results=tmp_path / "parallel.sqlite",
        )
        assert deterministic_part(serial.records) == deterministic_part(parallel.records)
        # The stores are record-for-record comparable (records are appended
        # in completion order, but every store reader orders by cell index),
        # and so are their JSONL exports, line for line.
        exports = []
        for name in ("serial", "parallel"):
            migrate(tmp_path / f"{name}.sqlite", tmp_path / f"{name}.jsonl")
            exports.append(ResultStore(tmp_path / f"{name}.jsonl").load())
        assert deterministic_part(exports[0]) == deterministic_part(exports[1])

    def test_cold_equals_cached(self, tmp_path):
        spec = tiny_spec()
        cold = run_campaign(spec, workers=1, cache_dir=tmp_path / "cache")
        warm = run_campaign(spec, workers=1, cache_dir=tmp_path / "cache")
        assert cold.cache_stats()["misses"] > 0
        assert warm.cache_stats()["misses"] == 0
        assert warm.cache_stats()["hits"] > 0
        assert deterministic_part(cold.records) == deterministic_part(warm.records)


class TestChunkedDispatch:
    def test_run_cell_chunk_matches_individual_cells(self):
        cells = CampaignSpec(
            topologies=("fig1-example",), schemes=("reconvergence", "fcp")
        ).cells()
        outcomes = _run_cell_chunk(cells)
        assert [status for status, _payload, _info in outcomes] == ["ok", "ok"]
        chunk_records = [payload for _status, payload, _info in outcomes]
        individual = [run_cell(cell) for cell in cells]
        assert deterministic_part(chunk_records) == deterministic_part(individual)

    def test_failing_cell_keeps_siblings_records(self, tmp_path):
        """One failing cell must not discard completed records of its chunk.

        fig1-example has fewer than 40 links, so the multi-link cells raise
        (FailureScenarioError) inside their worker chunk; the single-link
        cells that completed first must still reach the store so a resumed
        run skips them.
        """
        spec = CampaignSpec(
            topologies=("fig1-example",),
            schemes=("reconvergence", "fcp"),
            scenarios=(
                ScenarioSpec("single-link"),
                ScenarioSpec("multi-link", failures=40, samples=2),
            ),
        )
        path = tmp_path / "results.sqlite"
        with pytest.raises(FailureScenarioError):
            run_campaign(spec, workers=2, results=path)
        completed = completed_ids(path, spec)
        single_link_ids = {
            cell.cell_id
            for cell in spec.cells()
            if cell.scenario.kind == "single-link"
        }
        assert completed == single_link_ids

    def test_failing_cell_before_completed_ones_does_not_stall_flush(
        self, tmp_path
    ):
        """A failed cell ordered before completed cells must not block them.

        With the failing multi-link scenario listed first, every completed
        cell sorts *after* the failure; their records must still reach the
        store, and a resumed run must redo only the failed cells.
        """
        spec = CampaignSpec(
            topologies=("fig1-example",),
            schemes=("reconvergence", "fcp"),
            scenarios=(
                ScenarioSpec("multi-link", failures=40, samples=2),
                ScenarioSpec("single-link"),
            ),
        )
        path = tmp_path / "results.sqlite"
        with pytest.raises(FailureScenarioError):
            run_campaign(spec, workers=2, results=path)
        completed = completed_ids(path, spec)
        single_link_ids = {
            cell.cell_id
            for cell in spec.cells()
            if cell.scenario.kind == "single-link"
        }
        assert completed == single_link_ids
        # And the resumed run only redoes the failed cells.
        with pytest.raises(FailureScenarioError):
            run_campaign(spec, workers=2, results=path, resume=True)
        assert completed_ids(path, spec) == single_link_ids

    def test_serial_failure_semantics_match_parallel(self, tmp_path):
        """Serial and parallel runs must leave identical resume state."""
        spec = CampaignSpec(
            topologies=("fig1-example",),
            schemes=("reconvergence", "fcp"),
            scenarios=(
                ScenarioSpec("multi-link", failures=40, samples=2),
                ScenarioSpec("single-link"),
            ),
        )
        serial = tmp_path / "serial.sqlite"
        with pytest.raises(FailureScenarioError):
            run_campaign(spec, workers=1, results=serial)
        parallel = tmp_path / "parallel.sqlite"
        with pytest.raises(FailureScenarioError):
            run_campaign(spec, workers=2, results=parallel)
        assert completed_ids(serial, spec) == completed_ids(parallel, spec)
        assert deterministic_part(stored_records(serial, spec)) == deterministic_part(
            stored_records(parallel, spec)
        )

    def test_out_of_order_completion_matches_serial(self, tmp_path, monkeypatch):
        """Chunks that complete out of cell order leave what a serial run leaves.

        The first cell hangs for a second, so the second chunk (the abilene
        cells) completes first and its records reach the store first.  The
        plan also retries one cell away and quarantines another, so the
        fault accounting is compared too.
        """
        spec = pair_spec()
        first, transient, _, poison = (cell.cell_id[:12] for cell in spec.cells())
        monkeypatch.setenv(
            faults.ENV_VAR,
            f"site=cell-body,kind=hang,cells={first},seconds=1"
            f";site=cell-body,kind=exception,cells={transient},max_attempt=1"
            f";site=cell-body,kind=exception,cells={poison}",
        )
        faults.reload_from_env()
        policy = ExecutionPolicy(
            max_retries=1, on_error="quarantine", backoff_base_s=0.001, backoff_cap_s=0.01
        )
        runs = {}
        for workers in (1, 2):
            path = tmp_path / f"workers{workers}.sqlite"
            calls = []
            handle = run_campaign(
                spec,
                workers=workers,
                results=path,
                policy=policy,
                progress=lambda cell, record, done, total: calls.append(
                    (cell.cell_id, record["cell_id"], done, total)
                ),
            )
            migrate(path, tmp_path / f"workers{workers}.jsonl")
            runs[workers] = (handle, calls, path)
        monkeypatch.delenv(faults.ENV_VAR)
        faults.reload_from_env()

        (serial, serial_calls, serial_path), (parallel, calls, path) = runs[1], runs[2]
        assert calls[0][0] != spec.cells()[0].cell_id, "the hung chunk completed first"
        executed = sorted(parallel.executed_cell_ids)
        assert len(executed) == 3
        assert sorted(cell_id for cell_id, _, _, _ in calls) == executed
        assert all(cell_id == record_id for cell_id, record_id, _, _ in calls)
        assert [(done, total) for _, _, done, total in calls] == [(1, 4), (2, 4), (3, 4)]
        assert len(serial_calls) == len(calls)

        expected = deterministic_part(serial.records)
        assert len(expected) == 3
        assert deterministic_part(parallel.records) == expected
        assert deterministic_part(stored_records(path, spec)) == expected
        assert deterministic_part(stored_records(serial_path, spec)) == expected
        exports = [
            ResultStore(tmp_path / f"workers{workers}.jsonl").load() for workers in (1, 2)
        ]
        assert deterministic_part(exports[1]) == deterministic_part(exports[0]) == expected

        assert parallel.quarantined == serial.quarantined
        assert [entry["cell_id"][:12] for entry in parallel.quarantined] == [poison]
        assert parallel.fault_counters == serial.fault_counters == {
            "faults/retries": 2,
            "faults/quarantined_cells": 1,
        }
        with CampaignStore(path) as store, CampaignStore(serial_path) as serial_store:
            assert store.load_quarantine(spec.spec_hash()) == serial_store.load_quarantine(
                spec.spec_hash()
            )

    def test_raising_progress_callback_shuts_the_pool_down(self):
        """A progress callback that raises (a cancelled job) stops the pool.

        The exception's traceback keeps ``run_campaign``'s frame alive, so
        the pool must be shut down before the exception leaves it.
        """
        spec = pair_spec()

        def cancel(cell, record, done, total):
            raise JobCancelled(f"cancelled after {done}/{total} cells")

        with pytest.raises(JobCancelled) as excinfo:
            run_campaign(spec, workers=2, progress=cancel)
        assert multiprocessing.active_children() == []
        assert "after 1/4" in str(excinfo.value)

    def test_pool_forks_while_another_thread_holds_the_engine_registry(self):
        """A forked worker gets its own registry lock: it never waits on a
        copy of one that a thread of the parent held at the fork."""
        spec = pair_spec()
        clean = run_campaign(spec, workers=1)
        box = {}

        def campaign():
            box["handle"] = run_campaign(spec, workers=2)

        with spcache._REGISTRY_LOCK:  # held by this thread throughout
            runner = threading.Thread(target=campaign, daemon=True)
            runner.start()
            runner.join(30)
            hung = runner.is_alive()
        if hung:
            # Free the stuck workers, or the suite would hang at exit
            # waiting for them; the rebuilt pool forks with the lock free.
            for child in multiprocessing.active_children():
                child.kill()
            runner.join(60)
        assert not hung, "pool workers hung on the registry lock"
        assert deterministic_part(box["handle"].records) == deterministic_part(clean.records)

    def test_worker_init_drops_stale_engines_keeps_active(self):
        stale = example_fig1()
        engine_for(stale)  # a leftover engine from a previous topology set
        active = load_topology("abilene")
        active_engine = engine_for(active)
        _worker_init(("abilene",))
        assert engine_for(active) is active_engine  # warm engine survived
        signatures = set(_ENGINES)
        assert all(key == active_engine.compiled.signature for key in signatures)
        # The topology memo is pruned to the active set as well.
        assert all(graph is active for graph in _TOPOLOGY_CACHE.values())

    def test_worker_init_without_topologies_clears_everything(self):
        engine_for(example_fig1())
        load_topology("abilene")
        _worker_init()
        assert not _ENGINES
        assert not _TOPOLOGY_CACHE

    def test_worker_init_survives_broken_topology_spec(self):
        _worker_init(("no-such-topology-file.graphml", "abilene"))
        assert _TOPOLOGY_CACHE  # abilene stayed loadable


class TestResultStore:
    def test_streams_one_json_line_per_cell(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "results.sqlite"
        result = run_campaign(spec, workers=1, results=path)
        with CampaignStore(path) as store:
            assert store.record_count(spec.spec_hash()) == spec.cell_count()
        assert result.executed == spec.cell_count()
        assert stored_records(path, spec) == result.records

    def test_rerun_without_resume_truncates_the_store(self, tmp_path):
        """Without resume the campaign represents this run only; keeping
        the previous run's records would double-count every cell."""
        spec = tiny_spec()
        path = tmp_path / "results.sqlite"
        run_campaign(spec, workers=1, results=path)
        run_campaign(spec, workers=1, results=path)
        with CampaignStore(path) as store:
            assert store.record_count() == spec.cell_count()

    def test_torn_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = ResultStore(path)
        store.write([{"cell_id": "aaaa", "payload": {}}])
        with path.open("a") as stream:
            stream.write('{"cell_id": "bbbb", "payl')  # killed mid-write
        assert store.load() == [{"cell_id": "aaaa", "payload": {}}]
        assert store.torn_records_skipped == 1

    def test_appended_lines_carry_a_checksum_load_strips_it(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        store.write([{"cell_id": "aaaa", "payload": {"x": 1}}])
        raw = store.path.read_text()
        assert "_checksum" in raw
        assert store.load() == [{"cell_id": "aaaa", "payload": {"x": 1}}]

    def test_checksum_mismatch_on_final_line_is_dropped(self, tmp_path):
        """Bit rot in the tail is indistinguishable from a torn write."""
        store = ResultStore(tmp_path / "results.jsonl")
        store.write([
            {"cell_id": "aaaa", "payload": {}},
            {"cell_id": "bbbb", "payload": {"v": 1}},
        ])
        lines = store.path.read_text().splitlines()
        lines[-1] = lines[-1].replace('"v": 1', '"v": 2')  # checksum now stale
        store.path.write_text("\n".join(lines) + "\n")
        assert store.load() == [{"cell_id": "aaaa", "payload": {}}]
        assert store.torn_records_skipped == 1

    def test_mid_file_corruption_reports_line_offset_and_cell(self, tmp_path):
        """Corruption before the tail is data loss, not a crash artefact —
        load() must refuse, and say exactly where and which cell."""
        store = ResultStore(tmp_path / "results.jsonl")
        store.write(
            {"cell_id": cell_id, "payload": {"v": 1}} for cell_id in ("aaaa", "bbbb", "cccc")
        )
        lines = store.path.read_text().splitlines()
        lines[1] = lines[1].replace('"v": 1', '"v": 2')  # checksum now stale
        store.path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ExperimentError) as excinfo:
            store.load()
        message = str(excinfo.value)
        assert "line 2" in message
        assert "byte offset" in message
        assert "bbbb" in message

    def test_legacy_lines_without_checksum_still_load(self, tmp_path):
        path = tmp_path / "results.jsonl"
        path.write_text('{"cell_id": "aaaa", "payload": {}}\n')
        store = ResultStore(path)
        assert store.load() == [{"cell_id": "aaaa", "payload": {}}]
        assert store.torn_records_skipped == 0


class TestResume:
    def test_completed_campaign_resumes_to_no_work(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "results.sqlite"
        first = run_campaign(spec, workers=1, results=path)
        assert first.executed == spec.cell_count()
        resumed = run_campaign(spec, workers=1, results=path, resume=True)
        assert resumed.executed == 0
        assert resumed.skipped == spec.cell_count()
        assert deterministic_part(resumed.records) == deterministic_part(first.records)

    def test_partial_campaign_resumes_remaining_cells(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "results.sqlite"
        full = run_campaign(spec, workers=1, results=path)
        # Keep only the first three records, as if the run had been killed.
        keep_only(path, spec, full.records[:3])
        resumed = run_campaign(spec, workers=1, results=path, resume=True)
        assert resumed.skipped == 3
        assert resumed.executed == spec.cell_count() - 3
        assert deterministic_part(resumed.records) == deterministic_part(full.records)

    def test_resume_over_torn_tail_reruns_that_cell_and_counts_it(self, tmp_path):
        """A legacy JSONL campaign torn by a crash imports (the torn record
        counted) and resumes from the store, re-executing only that cell."""
        spec = tiny_spec()
        full = run_campaign(spec, workers=1)
        legacy = tmp_path / "legacy.jsonl"
        ResultStore(legacy).write(full.records)
        lines = legacy.read_text().splitlines()
        torn = "\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2]
        legacy.write_text(torn)
        path = tmp_path / "results.sqlite"
        summary = migrate(legacy, path, campaign_id=spec.spec_hash())
        assert summary["torn_records_skipped"] == 1
        assert summary["records"] == spec.cell_count() - 1
        resumed = run_campaign(spec, workers=1, results=path, resume=True)
        assert resumed.skipped == spec.cell_count() - 1
        assert resumed.executed == 1
        assert resumed.executed_cell_ids == {spec.cells()[-1].cell_id}
        assert deterministic_part(resumed.records) == deterministic_part(full.records)
        # The store is whole again: a second resume finds nothing to do.
        assert completed_ids(path, spec) == {cell.cell_id for cell in spec.cells()}

    def test_spec_change_invalidates_previous_records(self, tmp_path):
        path = tmp_path / "results.sqlite"
        run_campaign(tiny_spec(), workers=1, results=path)
        changed = tiny_spec(seed=99)
        resumed = run_campaign(changed, workers=1, results=path, resume=True)
        assert resumed.skipped == 0
        assert resumed.executed == changed.cell_count()

    def test_resume_requires_results_path(self):
        with pytest.raises(ExperimentError):
            run_campaign(tiny_spec(), resume=True)

    def test_resumed_run_reports_no_cache_or_offline_work(self, tmp_path):
        """cache_stats/offline_seconds cover this invocation's cells only,
        not the work recorded by the run being resumed."""
        spec = tiny_spec()
        path = tmp_path / "results.sqlite"
        first = run_campaign(
            spec, workers=1, cache_dir=tmp_path / "cache", results=path
        )
        assert first.cache_stats()["misses"] > 0
        assert first.offline_seconds() > 0
        resumed = run_campaign(
            spec, workers=1, cache_dir=tmp_path / "cache", results=path, resume=True
        )
        assert resumed.executed == 0
        assert resumed.cache_stats() == {"hits": 0, "misses": 0}
        assert resumed.offline_seconds() == 0.0
