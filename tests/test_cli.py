"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


class TestTopologyCommand:
    def test_summary(self, capsys):
        assert main(["topology", "abilene"]) == 0
        output = capsys.readouterr().out
        assert "routers: 11" in output and "links: 14" in output

    def test_link_listing(self, capsys):
        main(["topology", "abilene", "--links"])
        output = capsys.readouterr().out
        assert "Seattle -- Sunnyvale" in output

    @pytest.mark.parametrize("command", ["topology", "coverage"])
    def test_unknown_topology_is_a_one_line_error(self, command):
        result = subprocess.run(
            [sys.executable, "-m", "repro", command, "nowhere"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            timeout=120,
        )
        assert result.returncode == 1
        assert result.stderr.startswith("unknown topology 'nowhere'; available: ")
        assert len(result.stderr.splitlines()) == 1
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("command", [["topology"], ["topologies", "show"]])
    def test_directory_topology_is_a_one_line_error(self, command, tmp_path):
        (tmp_path / "nets").mkdir()
        result = subprocess.run(
            [sys.executable, "-m", "repro", *command, "nets"],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            timeout=120,
        )
        assert result.returncode == 1
        assert result.stderr == "topology 'nets' is a directory, not a topology file\n"
        assert "Traceback" not in result.stderr

    def test_file_topology(self, tmp_path, capsys):
        path = tmp_path / "net.topo"
        path.write_text("a b 1\nb c 1\nc a 1\n")
        assert main(["topology", str(path)]) == 0
        assert "routers: 3" in capsys.readouterr().out


class TestEmbedCommand:
    def test_embed_and_write_artifact(self, tmp_path, capsys):
        output = tmp_path / "abilene.json"
        assert main(["embed", "abilene", "--output", str(output)]) == 0
        stdout = capsys.readouterr().out
        assert "genus: 0" in stdout
        assert output.exists()

    def test_embed_method_choice(self, capsys):
        assert main(["embed", "abilene", "--method", "planar"]) == 0
        assert "self-paired links: 0" in capsys.readouterr().out


class TestTablesCommand:
    def test_router_table_printed(self, capsys):
        assert main(["tables", "fig1-example", "D"]) == 0
        output = capsys.readouterr().out
        assert "Cycle following table at node D." in output
        assert "IBD | IDF | IDE" in output


class TestDeliverCommand:
    def test_delivery_without_failures(self, capsys):
        assert main(["deliver", "abilene", "Seattle", "Atlanta"]) == 0
        assert "delivered" in capsys.readouterr().out

    def test_delivery_with_named_failure(self, capsys):
        code = main([
            "deliver", "abilene", "Seattle", "Atlanta",
            "--fail", "KansasCity-Indianapolis",
        ])
        assert code == 0
        assert "Houston" in capsys.readouterr().out

    def test_compare_flag_runs_all_schemes(self, capsys):
        assert main(["deliver", "abilene", "Seattle", "Atlanta", "--compare"]) == 0
        output = capsys.readouterr().out
        assert "Failure-Carrying Packets" in output and "Re-convergence" in output

    @pytest.mark.parametrize("extra", [[], ["--compare"]])
    def test_answer_matches_the_serve_daemon(self, capsys, extra):
        """CLI and ``repro serve`` embed non-planar Teleglobe with one seed."""
        from repro.store.serve import ServeSession

        assert main(["deliver", "teleglobe", "Dallas", "HongKong", "--fail", "33"] + extra) == 0
        lines = capsys.readouterr().out.splitlines()
        block = lines.index("Packet Re-cycling: delivered")
        path = lines[block + 1].split("path: ", 1)[1].split(" -> ")
        hops, cost = lines[block + 2].split()[1::2]

        session = ServeSession()
        try:
            served = session.handle({"op": "deliver", "topology": "teleglobe", "scheme": "pr",
                                     "source": "Dallas", "destination": "HongKong",
                                     "failed": [33]})
            scheme = session.scheme_for("teleglobe", "pr")
            outcome = scheme.deliver("Dallas", "HongKong", failed_links=[33])
        finally:
            session.close()
        assert served["ok"] is True
        assert (int(hops), float(cost)) == (served["hops"], served["cost"])
        assert path == outcome.path

    def test_unknown_failure_spec_rejected(self):
        with pytest.raises(SystemExit):
            main(["deliver", "abilene", "Seattle", "Atlanta", "--fail", "Mars-Venus"])

    def test_hyphenated_router_names_split_at_the_router_boundary(self, tmp_path, capsys):
        path = tmp_path / "hy.topo"
        path.write_text("new-york b 1\nb c 1\nc new-york 1\n")
        assert main(["deliver", str(path), "new-york", "c", "--fail", "new-york-c"]) == 0
        assert "new-york -> b -> c" in capsys.readouterr().out

    def test_ambiguous_failed_link_names_both_readings(self, tmp_path):
        path = tmp_path / "amb.topo"
        path.write_text("x y-z 1\nx-y z 1\nx z 1\n")
        with pytest.raises(SystemExit) as exited:
            main(["deliver", str(path), "x", "z", "--fail", "x-y-z"])
        message = str(exited.value.code)
        assert "ambiguous" in message
        assert "'x'-'y-z'" in message and "'x-y'-'z'" in message

    def test_bad_failure_spec_hint_uses_the_cli_syntax(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "deliver", "abilene", "Seattle", "Atlanta",
             "--fail", "foo"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            timeout=120,
        )
        assert result.returncode == 1
        assert "'foo'" in result.stderr
        assert "an edge id or u-v" in result.stderr
        assert "(u, v)" not in result.stderr
        assert "Traceback" not in result.stderr


class TestExperimentCommands:
    def test_figure2_panel(self, capsys):
        assert main(["figure2", "2a", "--plot"]) == 0
        output = capsys.readouterr().out
        assert "Packet Re-cycling" in output
        assert "P(Stretch > x | path)" in output

    def test_overhead(self, capsys):
        assert main(["overhead", "abilene"]) == 0
        assert "Header bits" in capsys.readouterr().out

    def test_coverage_single_failures(self, capsys):
        assert main(["coverage", "abilene"]) == 0
        assert "100.00%" in capsys.readouterr().out

    def test_coverage_multi_failures(self, capsys):
        assert main(["coverage", "abilene", "--failures", "2", "--samples", "10"]) == 0
        assert "delivered" in capsys.readouterr().out


class TestScenariosCommand:
    def test_list_tabulates_registered_models(self, capsys):
        assert main(["scenarios", "list"]) == 0
        output = capsys.readouterr().out
        for name in ("srlg", "regional", "weighted", "maintenance", "churn"):
            assert name in output
        assert "group_size=3" in output  # declared defaults are shown

    def test_preview_prints_failure_sets(self, capsys):
        assert main([
            "scenarios", "preview", "srlg", "--topology", "abilene",
            "--samples", "3", "--seed", "1",
        ]) == 0
        output = capsys.readouterr().out
        assert "model=srlg topology=abilene" in output
        assert "risk group" in output and "--" in output

    def test_preview_param_overrides(self, capsys):
        assert main([
            "scenarios", "preview", "weighted", "--topology", "abilene",
            "--samples", "2", "--param", "failures=2", "--param", "by=length",
        ]) == 0
        assert "'by': 'length'" in capsys.readouterr().out

    def test_preview_is_deterministic(self, capsys):
        argv = ["scenarios", "preview", "churn", "--samples", "3", "--seed", "9"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first

    def test_preview_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["scenarios", "preview", "meteor-strike"])

    def test_preview_unknown_param_rejected(self):
        with pytest.raises(SystemExit):
            main(["scenarios", "preview", "srlg", "--param", "blast=2"])

    def test_preview_spec_field_name_as_param_rejected_cleanly(self):
        """A parameter spelled like a ScenarioSpec field must get the model's
        unknown-parameter error, not a TypeError from keyword splatting."""
        with pytest.raises(SystemExit, match="unknown parameters"):
            main(["scenarios", "preview", "srlg", "--param", "samples=3"])

    def test_preview_non_finite_param_rejected(self):
        with pytest.raises(SystemExit, match="expects a float"):
            main(["scenarios", "preview", "churn", "--param", "horizon=nan"])

    def test_preview_bad_param_syntax_rejected(self):
        with pytest.raises(SystemExit):
            main(["scenarios", "preview", "srlg", "--param", "group_size"])


class TestSweepModels:
    def test_sweep_with_models_prints_family_table(self, capsys, tmp_path):
        assert main([
            "sweep", "--topologies", "fig1-example",
            "--schemes", "reconvergence",
            "--model", "srlg", "--model", "maintenance:window=1",
            "--samples", "3", "--quiet",
            "--cache-dir", str(tmp_path / "cache"),
        ]) == 0
        output = capsys.readouterr().out
        assert "family" in output
        assert "srlg" in output and "maintenance" in output

    def test_sweep_bad_model_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main([
                "sweep", "--topologies", "fig1-example",
                "--model", "meteor-strike", "--quiet",
                "--cache-dir", str(tmp_path / "cache"),
            ])

    def test_sweep_bad_model_param_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main([
                "sweep", "--topologies", "fig1-example",
                "--model", "srlg:blast=2", "--quiet",
                "--cache-dir", str(tmp_path / "cache"),
            ])


class TestTopologiesCommand:
    def test_list_tabulates_families_and_sets(self, capsys):
        assert main(["topologies", "list"]) == 0
        output = capsys.readouterr().out
        assert "waxman" in output and "nsfnet1991" in output
        assert "set 'all'" in output

    def test_show_parameterized_spec(self, capsys):
        assert main(["topologies", "show", "fat-tree:k=4"]) == 0
        output = capsys.readouterr().out
        assert "spec: fat-tree:k=4" in output
        assert "routers: 20" in output

    def test_show_canonicalises_spelling(self, capsys):
        assert main(["topologies", "show", "WAXMAN:seed=3,size=20"]) == 0
        assert "spec: waxman:alpha=0.6,beta=0.4,seed=3,size=20" in capsys.readouterr().out

    def test_show_unknown_spec_rejected(self):
        with pytest.raises(SystemExit):
            main(["topologies", "show", "meteor-net"])

    def test_validate_all_passes(self, capsys):
        assert main(["topologies", "validate", "--all"]) == 0
        output = capsys.readouterr().out
        assert "topologies valid" in output
        assert "FAIL" not in output

    def test_validate_reports_failures_with_exit_code(self, tmp_path, capsys):
        path = tmp_path / "split.topo"
        path.write_text("a b 1\nc d 1\n")
        assert main(["topologies", "validate", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_validate_needs_a_target(self):
        with pytest.raises(SystemExit):
            main(["topologies", "validate"])


class TestSweepTopologySet:
    def test_corpus_sweep_prints_cross_topology_summary(self, capsys, tmp_path):
        assert main([
            "sweep", "--topologies", "nsfnet1991", "fat-tree:k=4",
            "--schemes", "reconvergence",
            "--quiet", "--cache-dir", str(tmp_path / "cache"),
        ]) == 0
        output = capsys.readouterr().out
        assert "corpus summary (2 topologies)" in output
        assert "nsfnet1991" in output and "fat-tree:k=4" in output

    def test_topology_set_expands_the_grid(self, capsys, tmp_path):
        from repro.topologies.corpus import topology_set

        assert main([
            "sweep", "--topology-set", "zoo",
            "--schemes", "reconvergence",
            "--quiet", "--cache-dir", str(tmp_path / "cache"),
        ]) == 0
        output = capsys.readouterr().out
        assert f"corpus summary ({len(topology_set('zoo'))} topologies)" in output

    def test_bad_topology_param_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main([
                "sweep", "--topologies", "ring:blast=9",
                "--schemes", "reconvergence",
                "--quiet", "--cache-dir", str(tmp_path / "cache"),
            ])


class TestReportCommand:
    def _swept(self, tmp_path, *extra):
        results = tmp_path / "run.sqlite"
        assert main([
            "sweep", "--topologies", "fig1-example",
            "--schemes", "reconvergence", "pr",
            "--quiet", "--cache-dir", str(tmp_path / "cache"),
            "--results", str(results), *extra,
        ]) == 0
        return results

    def test_sweep_prints_manifest_and_merged_counters(self, capsys, tmp_path):
        self._swept(tmp_path)
        output = capsys.readouterr().out
        assert "telemetry manifest recorded in" in output
        assert "engine counters (all workers):" in output

    def test_sweep_slowest_table(self, capsys, tmp_path):
        self._swept(tmp_path, "--slowest", "2")
        output = capsys.readouterr().out
        assert "slowest cells" in output
        assert "dominant phase" in output

    def test_report_from_results_jsonl(self, capsys, tmp_path):
        """JSONL results are refused with the migrate command; the store
        that command produces reports."""
        results = self._swept(tmp_path)
        exported = tmp_path / "run.jsonl"
        assert main(["migrate", str(results), str(exported)]) == 0
        with pytest.raises(SystemExit, match="repro migrate"):
            main(["report", str(exported)])
        imported = tmp_path / "imported.sqlite"
        assert main(["migrate", str(exported), str(imported)]) == 0
        capsys.readouterr()
        assert main(["report", str(imported)]) == 0
        output = capsys.readouterr().out
        assert "phase-time breakdown" in output
        assert "cache efficiency" in output

    def test_report_from_manifest_file(self, capsys, tmp_path):
        results = self._swept(tmp_path)
        exported = tmp_path / "run.jsonl"
        assert main(["migrate", str(results), str(exported)]) == 0
        capsys.readouterr()
        assert main(["report", str(tmp_path / "run.telemetry.json")]) == 0
        assert "campaign telemetry:" in capsys.readouterr().out

    def test_report_validate_gate(self, capsys, tmp_path):
        results = self._swept(tmp_path)
        capsys.readouterr()
        assert main(["report", str(results), "--validate"]) == 0
        assert "manifest valid" in capsys.readouterr().out
        broken = tmp_path / "broken.telemetry.json"
        broken.write_text('{"schema": "bogus"}')
        assert main(["report", str(broken), "--validate"]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_report_missing_file_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="no such"):
            main(["report", str(tmp_path / "nope.sqlite")])

    def test_sweep_no_telemetry_still_writes_manifest(self, capsys, tmp_path):
        from repro import telemetry
        from repro.store import CampaignStore

        try:
            results = self._swept(tmp_path, "--no-telemetry")
        finally:
            telemetry.set_enabled(True)
        output = capsys.readouterr().out
        assert "engine counters (all workers):" not in output
        with CampaignStore(results) as store:
            [campaign] = store.campaigns()
            manifest = store.get_manifest(campaign["campaign_id"])
        assert manifest["records"]["with_telemetry"] == 0


class TestStoreCommands:
    def _swept(self, tmp_path, name="run.sqlite"):
        results = tmp_path / name
        assert main([
            "sweep", "--topologies", "fig1-example",
            "--schemes", "reconvergence", "fcp",
            "--quiet", "--cache-dir", str(tmp_path / "cache"),
            "--results", str(results),
        ]) == 0
        return results

    def test_sweep_into_store_prints_query_hint(self, capsys, tmp_path):
        store = self._swept(tmp_path)
        output = capsys.readouterr().out
        assert "results store:" in output
        assert "repro query" in output
        assert store.exists()

    def test_query_summary_table(self, capsys, tmp_path):
        store = self._swept(tmp_path)
        capsys.readouterr()
        assert main(["query", str(store), "scheme=reconvergence"]) == 0
        output = capsys.readouterr().out
        assert "1 record" in output
        assert "fig1-example" in output

    def test_query_json_lines(self, capsys, tmp_path):
        import json

        store = self._swept(tmp_path)
        capsys.readouterr()
        assert main(["query", str(store), "--json", "--limit", "1"]) == 0
        [line] = capsys.readouterr().out.strip().splitlines()
        assert json.loads(line)["topology"] == "fig1-example"

    def test_query_campaigns_listing(self, capsys, tmp_path):
        store = self._swept(tmp_path)
        capsys.readouterr()
        assert main(["query", str(store), "--campaigns"]) == 0
        assert "campaign" in capsys.readouterr().out

    def test_query_no_match_exits_nonzero(self, capsys, tmp_path):
        store = self._swept(tmp_path)
        assert main(["query", str(store), "topology~zoo"]) == 1

    def test_query_bad_clause_exits_with_message(self, tmp_path):
        store = self._swept(tmp_path)
        with pytest.raises(SystemExit, match="field"):
            main(["query", str(store), "flavor=mint"])

    def test_query_works_on_jsonl_too(self, capsys, tmp_path):
        """Querying JSONL names the migrate command; after it, the query
        answers from the imported store."""
        exported = tmp_path / "run.jsonl"
        assert main(["migrate", str(self._swept(tmp_path)), str(exported)]) == 0
        with pytest.raises(SystemExit, match="repro migrate"):
            main(["query", str(exported), "scheme=fcp"])
        imported = tmp_path / "imported.sqlite"
        assert main(["migrate", str(exported), str(imported)]) == 0
        capsys.readouterr()
        assert main(["query", str(imported), "scheme=fcp"]) == 0
        assert "1 record" in capsys.readouterr().out

    def test_sweep_refuses_jsonl_results(self, capsys, tmp_path):
        """JSONL is not a live backend: the sweep stops before running a
        cell or creating a file, and names the migrate command."""
        with pytest.raises(SystemExit, match="repro migrate"):
            main([
                "sweep", "--topologies", "fig1-example",
                "--schemes", "reconvergence", "pr",
                "--quiet", "--cache-dir", str(tmp_path / "cache"),
                "--save-spec", str(tmp_path / "spec.json"),
                "--results", str(tmp_path / "run.jsonl"),
            ])
        assert list(tmp_path.iterdir()) == []
        assert "[1/" not in capsys.readouterr().out

    def test_migrate_round_trip_and_report(self, capsys, tmp_path):
        import filecmp

        origin = self._swept(tmp_path, name="origin.sqlite")
        results = tmp_path / "run.jsonl"
        assert main(["migrate", str(origin), str(results)]) == 0
        store = tmp_path / "run.sqlite"
        assert main(["migrate", str(results), str(store)]) == 0
        back = tmp_path / "back.jsonl"
        assert main(["migrate", str(store), str(back)]) == 0
        assert filecmp.cmp(results, back, shallow=False)
        capsys.readouterr()
        assert main(["report", str(store), "--validate"]) == 0
        assert "manifest valid" in capsys.readouterr().out

    def test_serve_answers_over_socket_until_shutdown(self, tmp_path):
        import threading

        from repro.store.serve import request

        socket_path = tmp_path / "serve.sock"
        codes = {}

        def run():
            codes["exit"] = main(["serve", "--socket", str(socket_path),
                                  "--cache-dir", str(tmp_path / "cache")])

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        for _ in range(200):
            if socket_path.exists():
                break
            thread.join(timeout=0.05)
        assert request(socket_path, {"op": "ping"})["pong"] is True
        request(socket_path, {"op": "shutdown"})
        thread.join(timeout=10)
        assert codes["exit"] == 0


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_panel_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure2", "9z"])

    def test_scenarios_needs_an_action(self):
        with pytest.raises(SystemExit):
            main(["scenarios"])
