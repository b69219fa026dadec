"""Resident serve loop: session ops, error containment, socket transport."""

import json
import random
import socket
import threading
import time

import pytest

from repro.errors import ReproError
from repro.routing.tables import RoutingTables
from repro.runner import executor, faults
from repro.runner.executor import run_campaign
from repro.runner.faults import parse_plan
from repro.store.jobs import JobQueue
from repro.store.serve import (
    MAX_LINE_BYTES,
    ServeSession,
    jobs_path_for,
    request,
    serve_forever,
    socket_alive,
    stream,
)
from repro.topologies.corpus import build_topology

from tests.store.conftest import SlowSession, deterministic_part, pair_spec, serving


@pytest.fixture
def session():
    session = ServeSession()
    yield session
    session.close()


class TestSessionOps:
    def test_ping_echoes_payload(self, session):
        response = session.handle({"op": "ping", "payload": 42})
        assert response == {"pong": True, "payload": 42, "ok": True}

    def test_unknown_op_lists_the_known_ones(self, session):
        response = session.handle({"op": "frobnicate"})
        assert response["ok"] is False
        assert "ping" in response["ops"]
        assert "query" in response["ops"]

    def test_warm_builds_engine_and_schemes(self, session):
        response = session.handle(
            {"op": "warm", "topology": "abilene", "schemes": ["reconvergence"]}
        )
        assert response["ok"] is True
        assert response["nodes"] > 0
        assert response["schemes_warm"] == 1

    def test_deliver_reports_stretch(self, session):
        baseline = session.handle({
            "op": "deliver",
            "topology": "fig1-example",
            "scheme": "reconvergence",
            "source": "A",
            "destination": "F",
        })
        assert baseline["ok"] is True
        assert baseline["delivered"] is True
        assert baseline["stretch"] == pytest.approx(1.0)

    def test_deliver_resolves_endpoint_pairs_to_edge_ids(self, session):
        response = session.handle({
            "op": "deliver",
            "topology": "fig1-example",
            "scheme": "reconvergence",
            "source": "A",
            "destination": "F",
            "failed": [["E", "F"]],
        })
        assert response["ok"] is True
        assert response["failed_links"], "the E-F link must resolve to an edge id"
        assert response["stretch"] >= 1.0

    @pytest.mark.parametrize("topology", ["abilene", "geant"])
    def test_baseline_cost_matches_routing_tables(self, session, topology):
        graph = build_topology(topology)
        tables = RoutingTables(graph)
        rng = random.Random(f"baseline:{topology}")
        nodes = graph.nodes()
        edge_ids = graph.edge_ids()
        for op, scheme in (("deliver", "reconvergence"), ("stretch", "fcp")):
            for _ in range(6):
                source, destination = rng.sample(nodes, 2)
                failed = rng.sample(edge_ids, rng.randint(0, 2))
                response = session.handle({
                    "op": op,
                    "topology": topology,
                    "scheme": scheme,
                    "source": source,
                    "destination": destination,
                    "failed": failed,
                })
                assert response["ok"] is True, response
                assert response["baseline_cost"] == tables.cost(source, destination)

    def test_unknown_source_has_no_baseline_cost(self, session):
        """An unknown source is an error answer, not a dropped packet."""
        response = session.handle({
            "op": "deliver",
            "topology": "abilene",
            "scheme": "reconvergence",
            "source": "no-such-node",
            "destination": "Seattle",
        })
        assert response["ok"] is False
        assert response["error_type"] == "NodeNotFound"
        assert "no-such-node" in response["error"]
        assert "baseline_cost" not in response

    def test_unknown_scheme_is_an_error_answer_and_builds_nothing(self, session):
        response = session.handle({
            "op": "deliver",
            "topology": "abilene",
            "scheme": "nope",
            "source": "Seattle",
            "destination": "Atlanta",
        })
        assert response["ok"] is False
        assert response["error_type"] == "ExperimentError"
        assert "unknown scheme key 'nope'" in response["error"]
        assert session._schemes == {}

    def test_errors_come_back_as_responses(self, session):
        response = session.handle({
            "op": "deliver",
            "topology": "fig1-example",
            "scheme": "reconvergence",
            "source": "a",
            "destination": "no-such-node",
        })
        assert response["ok"] is False
        assert response["error"]
        # the session survives: the next request still works
        assert session.handle({"op": "ping"})["ok"] is True

    def test_query_against_a_store(self, session, tmp_path):
        store_path = tmp_path / "c.sqlite"
        run_campaign(pair_spec(), workers=1, results=store_path)
        response = session.handle({
            "op": "query",
            "results": str(store_path),
            "filter": "scheme=fcp campaign:last1",
        })
        assert response["ok"] is True
        assert response["records"] == 2
        with_rows = session.handle({
            "op": "query",
            "results": str(store_path),
            "aggregate": "summary",
            "include_records": True,
        })
        assert len(with_rows["matched"]) == 4
        assert with_rows["summary_rows"]

    def test_query_refuses_jsonl(self, session, tmp_path):
        results = tmp_path / "c.jsonl"
        response = session.handle({"op": "query", "results": str(results)})
        assert response["ok"] is False
        assert "repro migrate" in response["error"]
        assert not results.exists()

    @pytest.mark.parametrize("directory", [False, True])
    @pytest.mark.parametrize("op", ["query", "campaigns"])
    def test_read_on_a_missing_store_is_an_error_and_creates_nothing(
        self, session, tmp_path, op, directory
    ):
        results = tmp_path / "typo.sqlite"
        if directory:
            results.mkdir()
        response = session.handle({"op": op, "results": str(results)})
        assert response["ok"] is False
        assert response["error_type"] == "ExperimentError"
        assert str(results) in response["error"]
        assert results.exists() == directory
        assert session.handle({"op": "stats"})["open_stores"] == []

    @pytest.mark.parametrize("aggregate", [True, "rows", ["summary"]])
    def test_query_aggregate_must_be_summary(self, session, tmp_path, aggregate):
        store_path = tmp_path / "c.sqlite"
        run_campaign(pair_spec(), workers=1, results=store_path)
        request = {"op": "query", "results": str(store_path)}
        assert session.handle(dict(request, aggregate=None))["records"] == 4
        response = session.handle(dict(request, aggregate=aggregate))
        assert response["ok"] is False
        assert response["error_type"] == "ExperimentError"
        assert "'aggregate'" in response["error"]

    @pytest.mark.parametrize("discriminator", [7, "nope"])
    def test_unknown_discriminator_is_a_typed_error(self, session, discriminator):
        response = session.handle({
            "op": "deliver",
            "topology": "fig1-example",
            "scheme": "pr",
            "source": "A",
            "destination": "F",
            "discriminator": discriminator,
        })
        assert response["ok"] is False
        assert response["error_type"] == "ExperimentError"
        assert repr(discriminator) in response["error"]
        assert "hop-count" in response["error"]
        assert session._schemes == {}

    def test_campaigns_listing(self, session, tmp_path):
        store_path = tmp_path / "c.sqlite"
        result = run_campaign(pair_spec(), workers=1, results=store_path)
        response = session.handle({"op": "campaigns", "results": str(store_path)})
        [row] = response["campaigns"]
        assert row["campaign_id"] == result.campaign_id

    def test_stats_reports_warm_state(self, session, tmp_path):
        store_path = tmp_path / "c.sqlite"
        run_campaign(pair_spec(), workers=1, results=store_path)
        session.handle({"op": "warm", "topology": "abilene",
                        "schemes": ["reconvergence"]})
        session.handle({"op": "query", "results": str(store_path)})
        stats = session.handle({"op": "stats"})
        assert stats["requests_served"] == 2
        assert any("abilene" in key for key in stats["warm_schemes"])
        assert str(store_path) in stats["open_stores"]


class TestSocketTransport:
    def test_request_response_over_unix_socket(self, tmp_path):
        socket_path = tmp_path / "serve.sock"
        ready = threading.Event()
        served = {}

        def run():
            served["count"] = serve_forever(socket_path, ready=ready)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert ready.wait(timeout=10)

        assert request(socket_path, {"op": "ping"})["pong"] is True
        bad = request(socket_path, {"op": "nope"})
        assert bad["ok"] is False
        shutdown = request(socket_path, {"op": "shutdown"})
        assert shutdown["shutdown"] is True
        thread.join(timeout=10)
        assert not thread.is_alive()
        # the unknown op is not counted as served — ping + shutdown only
        assert served["count"] == 2
        assert not socket_path.exists(), "socket must be unlinked on exit"


def raw_exchange(socket_path, to_send, settle_s=0.0, timeout=10.0):
    """Send raw bytes, optionally wait, and read every response line."""
    client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    client.settimeout(timeout)
    client.connect(str(socket_path))
    try:
        client.sendall(to_send)
        if settle_s:
            time.sleep(settle_s)
        client.shutdown(socket.SHUT_WR)
        buffer = b""
        while True:
            chunk = client.recv(65536)
            if not chunk:
                break
            buffer += chunk
    finally:
        client.close()
    return [json.loads(line) for line in buffer.splitlines() if line.strip()]


class TestFailedLinkValidation:
    def test_booleans_are_rejected_as_edge_ids(self, session):
        response = session.handle({
            "op": "deliver",
            "topology": "fig1-example",
            "scheme": "reconvergence",
            "source": "A",
            "destination": "F",
            "failed": [True],
        })
        assert response["ok"] is False
        assert "boolean" in response["error"]
        # an honest integer edge id still works
        good = session.handle({
            "op": "deliver",
            "topology": "fig1-example",
            "scheme": "reconvergence",
            "source": "A",
            "destination": "F",
            "failed": [0],
        })
        assert good["ok"] is True

    @pytest.mark.parametrize("failed", [3, 0, False, "3", {"3": 1}])
    def test_failed_links_must_be_a_list(self, session, failed):
        response = session.handle({
            "op": "deliver",
            "topology": "fig1-example",
            "scheme": "reconvergence",
            "source": "A",
            "destination": "F",
            "failed": failed,
        })
        assert response["ok"] is False
        assert response["error_type"] == "FailureScenarioError"
        assert "must be a list" in response["error"]


class TestHostileTransport:
    """Satellite: the loop answers or drops cleanly — it never dies."""

    @pytest.fixture
    def loop(self, tmp_path):
        with serving(tmp_path / "serve.sock") as loop:
            yield loop

    def test_oversized_line_is_rejected_and_dropped(self, loop):
        blob = b'{"op": "ping", "payload": "' + b"x" * (MAX_LINE_BYTES + 64)
        [response] = raw_exchange(loop.socket_path, blob)
        assert response["error_type"] == "LineTooLong"
        # the loop survives for the next client
        assert request(loop.socket_path, {"op": "ping"})["pong"] is True

    def test_pipelined_requests_are_answered_in_order(self, loop):
        wire = (
            b'{"op": "ping", "payload": 1}\n'
            b'{"op": "nope"}\n'
            b'{"op": "ping", "payload": 2}\n'
        )
        responses = raw_exchange(loop.socket_path, wire, settle_s=0.2)
        assert [r.get("payload") for r in responses] == [1, None, 2]
        assert responses[1]["ok"] is False

    def test_malformed_utf8_gets_an_error_response(self, loop):
        [response] = raw_exchange(loop.socket_path, b'{"op": "\xff\xfe"}\n',
                                  settle_s=0.2)
        assert response["ok"] is False
        assert response["error_type"] == "BadRequest"

    def test_non_object_json_gets_an_error_response(self, loop):
        [response] = raw_exchange(loop.socket_path, b'[1, 2, 3]\n', settle_s=0.2)
        assert response["error_type"] == "BadRequest"

    def test_mid_line_disconnect_is_dropped_quietly(self, loop):
        client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        client.connect(str(loop.socket_path))
        client.sendall(b'{"op": "ping", "pay')  # no newline, then vanish
        client.close()
        # the loop survives and still answers
        assert request(loop.socket_path, {"op": "ping"})["pong"] is True


class TestConcurrentTransport:
    def test_parallel_requests_all_succeed(self, tmp_path):
        with serving(tmp_path / "serve.sock", max_inflight=8) as loop:
            results = []

            def ask():
                results.append(request(loop.socket_path, {"op": "ping"}))

            threads = [threading.Thread(target=ask) for _ in range(12)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert len(results) == 12
            assert all(r["pong"] for r in results)

    def test_overload_sheds_with_retry_after(self, tmp_path):
        session = SlowSession()
        with serving(tmp_path / "serve.sock", session,
                     max_inflight=1, deadline_s=None) as loop:
            outcomes = []

            def slow():
                outcomes.append(
                    request(loop.socket_path, {"op": "slow", "seconds": 0.6})
                )

            first = threading.Thread(target=slow)
            first.start()
            time.sleep(0.15)  # let the slow request occupy the only slot
            shed = request(loop.socket_path, {"op": "ping"})
            first.join(timeout=10)
            assert shed["ok"] is False
            assert shed["error_type"] == "Overloaded"
            assert shed["retry_after_s"] > 0
            assert outcomes[0]["slept"] is True
            stats = request(loop.socket_path, {"op": "stats"})
            assert stats["counters"]["serve/overloaded"] == 1

    def test_deadline_bounds_a_stuck_request(self, tmp_path):
        session = SlowSession()
        with serving(tmp_path / "serve.sock", session,
                     max_inflight=4, deadline_s=0.2) as loop:
            response = request(loop.socket_path, {"op": "slow", "seconds": 5})
            assert response["ok"] is False
            assert response["error_type"] == "DeadlineExceeded"
            # the loop is still healthy afterwards
            assert request(loop.socket_path, {"op": "ping"})["pong"] is True


class TestStaleSocket:
    """Satellite: ping before unlink — never clobber a live daemon."""

    def test_stale_socket_file_is_unlinked_and_replaced(self, tmp_path):
        socket_path = tmp_path / "serve.sock"
        leftover = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        leftover.bind(str(socket_path))
        leftover.close()  # bound then closed: the file remains, nobody listens
        assert socket_path.exists()
        assert not socket_alive(socket_path)
        with serving(socket_path) as loop:
            assert request(loop.socket_path, {"op": "ping"})["pong"] is True

    def test_live_daemon_is_not_clobbered(self, tmp_path):
        socket_path = tmp_path / "serve.sock"
        with serving(socket_path) as loop:
            assert socket_alive(socket_path)
            with pytest.raises(ReproError, match="refusing to clobber"):
                serve_forever(socket_path, ServeSession())
            # the incumbent survived the attempt
            assert request(loop.socket_path, {"op": "ping"})["pong"] is True


class TestClientHelpers:
    def test_unreachable_socket_raises_repro_error(self, tmp_path):
        with pytest.raises(ReproError, match="cannot reach"):
            request(tmp_path / "nope.sock", {"op": "ping"})

    def test_retries_cover_daemon_startup(self, tmp_path):
        socket_path = tmp_path / "late.sock"
        ready = threading.Event()

        def late_start():
            time.sleep(0.3)
            serve_forever(socket_path, ready=ready)

        thread = threading.Thread(target=late_start, daemon=True)
        thread.start()
        response = request(socket_path, {"op": "ping"},
                           retries=100, retry_delay_s=0.05)
        assert response["pong"] is True
        request(socket_path, {"op": "shutdown"})
        thread.join(timeout=10)

    def test_timeout_surfaces_with_socket_path(self, tmp_path):
        socket_path = tmp_path / "mute.sock"
        server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        server.bind(str(socket_path))
        server.listen(1)
        try:
            with pytest.raises(ReproError, match="mute.sock"):
                request(socket_path, {"op": "ping"}, timeout=0.3)
        finally:
            server.close()

    def test_full_response_is_reassembled_from_tiny_chunks(self, tmp_path):
        socket_path = tmp_path / "dribble.sock"
        server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        server.bind(str(socket_path))
        server.listen(1)
        payload = (json.dumps({"ok": True, "blob": "z" * 2000}) + "\n").encode()

        def dribble():
            conn, _ = server.accept()
            conn.recv(65536)
            for i in range(0, len(payload), 7):  # 7-byte fragments
                conn.sendall(payload[i : i + 7])
            conn.close()

        thread = threading.Thread(target=dribble, daemon=True)
        thread.start()
        try:
            response = request(socket_path, {"op": "ping"}, timeout=10)
            assert response["ok"] is True
            assert len(response["blob"]) == 2000
        finally:
            server.close()
            thread.join(timeout=10)


class TestAsyncSubmit:
    """Tentpole: journaled submit, job lifecycle ops, drain, follow."""

    @pytest.fixture
    def job_session(self, tmp_path):
        session = ServeSession(jobs_path=tmp_path / "jobs.sqlite")
        yield session
        session.close()

    def test_submit_queues_and_drains_identical_records(self, tmp_path, job_session):
        spec = pair_spec()
        clean = run_campaign(spec, workers=1)
        store_path = tmp_path / "results.sqlite"
        submitted = job_session.handle({
            "op": "submit", "spec": spec.to_dict(), "results": str(store_path),
        })
        assert submitted["ok"], submitted
        assert submitted["state"] == "queued"
        done = job_session.handle({
            "op": "job", "job_id": submitted["job_id"], "wait_s": 60,
        })
        assert done["job"]["state"] == "done"
        assert done["job"]["executed"] == spec.cell_count()
        assert done["job"]["progress"]["done"] == spec.cell_count()
        queried = job_session.handle({
            "op": "query", "results": str(store_path),
            "filter": "campaign:last1", "include_records": True,
        })
        assert deterministic_part(queried["matched"]) == deterministic_part(
            clean.records
        )

    def test_async_submit_requires_a_sqlite_results_path(self, job_session):
        response = job_session.handle({
            "op": "submit", "spec": pair_spec().to_dict(),
        })
        assert response["ok"] is False
        assert "SQLite store path" in response["error"]

    def test_journal_less_submit_is_refused(self, tmp_path):
        """Without a journal, submit answers like job/jobs/cancel do — it
        never runs a campaign on the request thread."""
        session = ServeSession()
        try:
            store_path = tmp_path / "r.sqlite"
            response = session.handle({
                "op": "submit", "spec": pair_spec().to_dict(),
                "results": str(store_path),
            })
            assert response["ok"] is False
            assert response["error"] == session.handle({"op": "jobs"})["error"]
            assert "no job journal" in response["error"]
            assert not store_path.exists()
            assert session.counters.get("serve/jobs_submitted") is None
        finally:
            session.close()

    def test_bad_policy_is_rejected_before_journaling(self, tmp_path, job_session):
        response = job_session.handle({
            "op": "submit", "spec": pair_spec().to_dict(),
            "results": str(tmp_path / "r.sqlite"),
            "policy": {"max_retires": 3},  # typo'd field
        })
        assert response["ok"] is False
        assert "max_retires" in response["error"]
        listing = job_session.handle({"op": "jobs"})
        assert listing["count"] == 0, "a rejected submit must not journal"

    @pytest.mark.parametrize(
        "fields, key",
        [
            ({"spec": {"topologies": ["abilene"], "scheme": ["pr"]}}, "'scheme'"),
            ({"spec": {"schemes": ["pr"]}}, "'topologies'"),
            ({"spec": {"topologies": "abilene"}}, "'topologies'"),
            ({"spec": {"topologies": ["abilene"], "seed": "x"}}, "'seed'"),
            ({"spec": {"topologies": ["abilene"], "scenarios": [{"non_disconnecting": "false"}]}},
             "'non_disconnecting'"),
            ({"spec": ["abilene"]}, "JSON object"),
            ({"spec": pair_spec().to_dict(), "policy": {"max_retries": "2"}}, "'max_retries'"),
        ],
    )
    def test_malformed_submit_is_a_typed_error_without_a_row(
        self, tmp_path, job_session, fields, key
    ):
        response = job_session.handle(
            {"op": "submit", "results": str(tmp_path / "r.sqlite"), **fields}
        )
        assert response["ok"] is False
        assert response["error_type"] == "ExperimentError"
        assert key in response["error"]
        assert job_session.handle({"op": "jobs"})["count"] == 0

    @pytest.mark.parametrize(
        "fields, key",
        [
            ({"op": "submit", "workers": "x"}, "'workers'"),
            ({"op": "submit", "resume": "false"}, "'resume'"),
            ({"op": "query", "limit": "abc"}, "'limit'"),
            ({"op": "query", "limit": True}, "'limit'"),
            ({"op": "query", "limit": -1}, "'limit'"),
            ({"op": "query", "include_records": "yes"}, "'include_records'"),
            ({"op": "job", "job_id": "j", "wait_s": "5"}, "'wait_s'"),
            ({"op": "job", "job_id": "j", "follow": "false"}, "'follow'"),
            ({"op": "drain", "timeout_s": "5"}, "'timeout_s'"),
            ({"op": "warm", "topology": "fig1-example", "schemes": "pr"}, "'schemes'"),
            ({"op": "deliver", "topology": ["abilene"], "scheme": "pr",
              "source": "Seattle", "destination": "Atlanta"}, "'topology'"),
        ],
    )
    def test_mistyped_request_field_is_an_error_naming_it(
        self, tmp_path, job_session, fields, key
    ):
        response = job_session.handle({
            "spec": pair_spec().to_dict(), "results": str(tmp_path / "r.sqlite"), **fields,
        })
        assert response["ok"] is False
        assert response["error_type"] == "ExperimentError"
        assert key in response["error"]
        assert job_session.handle({"op": "jobs"})["count"] == 0
        assert job_session.handle({"op": "stats"})["warm_schemes"] == []

    def test_full_queue_sheds_submit(self, tmp_path):
        session = ServeSession(jobs_path=tmp_path / "jobs.sqlite",
                               max_queued_jobs=0)
        try:
            response = session.handle({
                "op": "submit", "spec": pair_spec().to_dict(),
                "results": str(tmp_path / "r.sqlite"),
            })
            assert response["ok"] is False
            assert response["error_type"] == "Overloaded"
            assert response["retry_after_s"] > 0
        finally:
            session.close()

    def test_dead_worker_is_restarted_and_counted(self, tmp_path):
        session = ServeSession(jobs_path=tmp_path / "jobs.sqlite")
        try:
            session.ensure_worker()
            dead = session._worker
            dead.stop()
            dead.join(timeout=10)
            dead.stopped = False  # as if it had died without being asked to
            session.ensure_worker()
            assert session._worker is not dead and session._worker.is_alive()
            session.ensure_worker()  # a live worker is left alone
            assert session.counters == {"serve/worker_restarts": 1}
        finally:
            session.close()

    def test_cancel_a_queued_job(self, tmp_path):
        # No worker running: handle the journal directly so the job stays
        # queued long enough to cancel deterministically.
        session = ServeSession(jobs_path=tmp_path / "jobs.sqlite")
        try:
            submitted = session.handle({
                "op": "submit", "spec": pair_spec().to_dict(),
                "results": str(tmp_path / "r.sqlite"),
            })
            assert submitted["ok"], submitted
            session._worker.stop()  # freeze the queue for the test
            session._worker.join(timeout=10)
            if session.handle({"op": "job", "job_id": submitted["job_id"]})[
                "job"
            ]["state"] == "queued":
                cancelled = session.handle({
                    "op": "cancel", "job_id": submitted["job_id"],
                })
                assert cancelled["job"]["state"] == "cancelled"
            listing = session.handle({"op": "jobs", "state": "cancelled"})
            assert listing["count"] in (0, 1)
        finally:
            session.close()

    def test_cancelled_one_worker_job_stops_within_two_cells(
        self, tmp_path, job_session, monkeypatch
    ):
        """A cancel lands when a cell's progress callback raises.  A
        one-worker pool holds two one-cell chunks at most, so the job then
        finishes only the cell queued behind the raising one: the cancel
        takes effect within two cells of the request."""
        started = tmp_path / "started.log"
        real_run_cell = executor.run_cell

        def slow_cell(cell, *args, **kwargs):
            with open(started, "a") as log:  # pool workers share the file
                log.write(f"{cell.index}\n")
            time.sleep(0.3)
            return real_run_cell(cell, *args, **kwargs)

        monkeypatch.setattr(executor, "run_cell", slow_cell)
        spec = pair_spec(schemes=("reconvergence", "fcp", "lfa", "noprotection"))
        submitted = job_session.handle({
            "op": "submit", "spec": spec.to_dict(),
            "results": str(tmp_path / "results.sqlite"),
        })
        assert submitted["ok"], submitted
        job = {"op": "job", "job_id": submitted["job_id"]}
        deadline = time.monotonic() + 30
        while job_session.handle(job)["job"]["progress"]["done"] < 1:
            assert time.monotonic() < deadline, "no cell finished"
            time.sleep(0.01)
        job_session.handle({"op": "cancel", "job_id": submitted["job_id"]})
        final = job_session.handle(dict(job, wait_s=30))["job"]
        assert final["state"] == "cancelled", final
        raised_at = int(final["last_error"].split("cancelled after ")[1].split("/")[0])
        ran = len(started.read_text().split())
        assert raised_at <= ran <= raised_at + 1 < spec.cell_count()

    def test_stopped_worker_leaves_its_job_to_recovery(self, tmp_path, monkeypatch):
        """A daemon stopping mid-job neither fails nor finishes the job: its
        row stays running for the next daemon's recovery to resume."""
        monkeypatch.setenv(faults.ENV_VAR, "site=cell-body,kind=hang,seconds=0.5")
        faults.reload_from_env()
        session = ServeSession(jobs_path=tmp_path / "jobs.sqlite")
        try:
            submitted = session.handle({
                "op": "submit", "spec": pair_spec().to_dict(),
                "results": str(tmp_path / "results.sqlite"),
            })
            assert submitted["ok"], submitted
            job = {"op": "job", "job_id": submitted["job_id"]}
            deadline = time.monotonic() + 30
            while session.handle(job)["job"]["state"] != "running":
                assert time.monotonic() < deadline, "the job never started"
                time.sleep(0.01)
            worker = session._worker
        finally:
            session.close()
            faults.reload_from_env()
        worker.join(30)
        assert not worker.is_alive()
        journal = JobQueue(tmp_path / "jobs.sqlite")
        [row] = journal.list_jobs()
        journal.close()
        assert row["state"] == "running" and row["last_error"] is None
        assert row["progress_done"] < pair_spec().cell_count()

    def test_jobs_listing_and_stats(self, tmp_path, job_session):
        store_path = tmp_path / "results.sqlite"
        submitted = job_session.handle({
            "op": "submit", "spec": pair_spec().to_dict(),
            "results": str(store_path),
        })
        job_session.handle({
            "op": "job", "job_id": submitted["job_id"], "wait_s": 60,
        })
        listing = job_session.handle({"op": "jobs"})
        assert listing["count"] == 1
        assert listing["jobs"][0]["state"] == "done"
        stats = job_session.handle({"op": "stats"})
        assert stats["jobs"]["by_state"] == {"done": 1}
        assert stats["counters"]["serve/jobs_submitted"] == 1
        assert stats["counters"]["serve/jobs_completed"] == 1

    def test_follow_streams_snapshots_over_the_socket(self, tmp_path):
        socket_path = tmp_path / "serve.sock"
        session = ServeSession(jobs_path=tmp_path / "jobs.sqlite")
        with serving(socket_path, session) as loop:
            submitted = request(loop.socket_path, {
                "op": "submit", "spec": pair_spec().to_dict(),
                "results": str(tmp_path / "results.sqlite"),
            })
            assert submitted["ok"], submitted
            snapshots = list(stream(loop.socket_path, {
                "op": "job", "job_id": submitted["job_id"], "follow": True,
            }, timeout=60))
            assert snapshots, "follow must yield at least one snapshot"
            assert snapshots[-1]["job"]["state"] == "done"
            assert snapshots[-1]["final"] is True

    def test_jobs_default_path_derives_from_socket(self):
        assert jobs_path_for(".repro-serve.sock").name == ".repro-serve.jobs.sqlite"
        assert jobs_path_for("daemon").name == "daemon.jobs.sqlite"


class TestServeFaultSites:
    """The daemon's fault checkpoints: contained, never fatal to the loop."""

    @pytest.fixture(autouse=True)
    def clean_faults(self):
        faults.install(None)
        yield
        faults.install(None)

    def test_serve_request_fault_becomes_an_error_response(self, session):
        faults.install(parse_plan("site=serve-request,kind=exception,times=1"))
        response = session.handle({"op": "ping"})
        assert response["ok"] is False
        assert response["error_type"] == "InjectedFault"
        # one-shot plan exhausted: the session keeps serving
        assert session.handle({"op": "ping"})["ok"] is True

    def test_job_journal_fault_fails_the_submit_without_a_row(self, tmp_path):
        session = ServeSession(jobs_path=tmp_path / "jobs.sqlite")
        try:
            faults.install(parse_plan("site=job-journal,kind=exception,times=1"))
            response = session.handle({
                "op": "submit", "spec": pair_spec().to_dict(),
                "results": str(tmp_path / "r.sqlite"),
            })
            assert response["ok"] is False
            assert response["error_type"] == "InjectedFault"
            assert session.handle({"op": "jobs"})["count"] == 0
        finally:
            session.close()
