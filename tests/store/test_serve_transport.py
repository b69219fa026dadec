"""Serve transport: kept-alive client connections, in-flight slots, deadlines, shutdown."""

import json
import os
import signal
import socket
import threading
import time

import pytest

from repro.errors import ReproError
from repro.runner import faults
from repro.runner.executor import run_campaign
from repro.store.serve import ServeSession, request, serve_forever

from tests.store.conftest import SlowSession, pair_spec, serving


class ThreadSession(ServeSession):
    """Reports the thread its handler runs on."""

    def _op_whoami(self, request):
        thread = threading.current_thread()
        return {"thread": thread.name, "ident": thread.ident}


def watchdogs():
    return sum(t.name == "repro-serve-watchdog" for t in threading.enumerate())


def read_lines(client, count):
    """The next ``count`` response lines of a raw client socket, decoded."""
    buffer = b""
    while buffer.count(b"\n") < count:
        chunk = client.recv(65536)
        assert chunk, "the daemon closed the connection"
        buffer += chunk
    return [json.loads(line) for line in buffer.splitlines()]


def raw_client(socket_path):
    client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    client.settimeout(10)
    client.connect(str(socket_path))
    return client


def connections(socket_path):
    """Connections the daemon has accepted so far (this request's included)."""
    return request(socket_path, {"op": "stats"})["counters"]["serve/connections"]


class TestKeptAliveClient:
    def test_sequential_requests_share_one_connection(self, tmp_path):
        with serving(tmp_path / "serve.sock") as loop:
            for payload in range(5):
                assert request(loop.socket_path, {"op": "ping", "payload": payload})[
                    "payload"
                ] == payload
            assert connections(loop.socket_path) == 1

    def test_each_thread_holds_its_own_connection(self, tmp_path):
        with serving(tmp_path / "serve.sock") as loop:
            request(loop.socket_path, {"op": "ping"})
            other = threading.Thread(
                target=lambda: [request(loop.socket_path, {"op": "ping"}) for _ in range(3)]
            )
            other.start()
            other.join(timeout=10)
            assert not other.is_alive()
            assert connections(loop.socket_path) == 2

    def test_switching_socket_paths_reconnects(self, tmp_path):
        with serving(tmp_path / "a.sock") as a, serving(tmp_path / "b.sock") as b:
            request(a.socket_path, {"op": "ping"})
            request(b.socket_path, {"op": "ping"})
            request(a.socket_path, {"op": "ping"})
            assert connections(a.socket_path) == 2
            assert connections(b.socket_path) == 2

    def test_restarted_daemon_is_reached_transparently(self, tmp_path):
        socket_path = tmp_path / "serve.sock"
        first = serving(socket_path).__enter__()
        assert request(socket_path, {"op": "ping"})["pong"] is True
        # Stopped from another thread: this thread's connection goes stale.
        stopper = threading.Thread(target=lambda: request(socket_path, {"op": "shutdown"}))
        stopper.start()
        stopper.join(timeout=10)
        assert not stopper.is_alive()
        first.thread.join(timeout=10)
        assert not first.thread.is_alive()
        with serving(socket_path):
            assert request(socket_path, {"op": "ping", "payload": 2})["payload"] == 2
            assert connections(socket_path) == 1

    def test_late_answer_is_never_read_as_the_next_response(self, tmp_path):
        with serving(tmp_path / "serve.sock", SlowSession(), deadline_s=None) as loop:
            with pytest.raises(ReproError, match="timed out"):
                request(loop.socket_path, {"op": "slow", "seconds": 0.5}, timeout=0.1)
            time.sleep(0.6)  # the slow answer is now written (to a closed socket)
            response = request(loop.socket_path, {"op": "ping", "payload": "next"})
            assert response["payload"] == "next"
            assert "slept" not in response
            assert connections(loop.socket_path) == 2

    def test_forked_child_opens_its_own_connection(self, tmp_path):
        with serving(tmp_path / "serve.sock") as loop:
            request(loop.socket_path, {"op": "ping"})
            pid = os.fork()
            if pid == 0:  # child: must not touch the parent's socket
                code = 1
                try:
                    response = request(loop.socket_path, {"op": "ping", "payload": "child"})
                    code = 0 if response["payload"] == "child" else 1
                finally:
                    os._exit(code)
            deadline = time.monotonic() + 10
            while True:
                done, status = os.waitpid(pid, os.WNOHANG)
                if done:
                    break
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    pytest.fail("forked child never finished its request")
                time.sleep(0.01)
            assert os.waitstatus_to_exitcode(status) == 0
            # The parent's connection survived the child and is still reused.
            assert request(loop.socket_path, {"op": "ping", "payload": 3})["payload"] == 3
            assert connections(loop.socket_path) == 2


class TestRequestPool:
    def test_abandoned_handler_keeps_its_slot_until_it_returns(self, tmp_path):
        with serving(tmp_path / "serve.sock", SlowSession(),
                     max_inflight=1, deadline_s=0.2) as loop:
            sent = time.monotonic()
            stuck = request(loop.socket_path, {"op": "slow", "seconds": 1.0})
            assert stuck["error_type"] == "DeadlineExceeded"
            assert time.monotonic() - sent < 0.9
            shed = request(loop.socket_path, {"op": "ping"})
            assert shed["error_type"] == "Overloaded"
            time.sleep(max(0.0, sent + 1.3 - time.monotonic()))
            assert request(loop.socket_path, {"op": "ping"})["pong"] is True
            counters = request(loop.socket_path, {"op": "stats"})["counters"]
            assert counters["serve/abandoned"] == 1
            assert counters["serve/deadline_exceeded"] == 1
            assert counters["serve/overloaded"] == 1

    def test_shutdown_is_admitted_while_every_slot_is_stuck(self, tmp_path):
        socket_path = tmp_path / "serve.sock"
        ready = threading.Event()
        loop = threading.Thread(
            target=serve_forever,
            args=(socket_path, SlowSession(), ready),
            kwargs={"max_inflight": 1, "deadline_s": 0.1},
            daemon=True,
        )
        loop.start()
        assert ready.wait(timeout=10)
        assert request(socket_path, {"op": "slow", "seconds": 2.0})[
            "error_type"
        ] == "DeadlineExceeded"
        assert request(socket_path, {"op": "shutdown"})["shutdown"] is True
        loop.join(timeout=1.0)
        assert not loop.is_alive()


class TestInlineHandlers:
    def test_handler_runs_on_its_connections_thread(self, tmp_path):
        with serving(tmp_path / "serve.sock", ThreadSession()) as loop:
            first = request(loop.socket_path, {"op": "whoami"})
            again = request(loop.socket_path, {"op": "whoami"})
            assert first["thread"] == "repro-serve-conn"
            assert again["ident"] == first["ident"]
            other = []
            thread = threading.Thread(
                target=lambda: other.append(request(loop.socket_path, {"op": "whoami"}))
            )
            thread.start()
            thread.join(timeout=10)
            [theirs] = other
            assert theirs["thread"] == "repro-serve-conn"
            assert theirs["ident"] != first["ident"]

    def test_pipelined_requests_behind_a_stuck_one_are_answered_in_order(self, tmp_path):
        with serving(tmp_path / "serve.sock", SlowSession(),
                     max_inflight=4, deadline_s=0.2) as loop:
            client = raw_client(loop.socket_path)
            try:
                sent = time.monotonic()
                client.sendall(
                    b'{"op": "slow", "seconds": 1.5}\n'
                    b'{"op": "ping", "payload": 1}\n'
                    b'{"op": "ping", "payload": 2}\n'
                )
                stuck, first, second = read_lines(client, 3)
                assert time.monotonic() - sent < 1.2
            finally:
                client.close()
            assert stuck["error_type"] == "DeadlineExceeded"
            assert (first["payload"], second["payload"]) == (1, 2)

    def test_abandoned_handlers_answer_is_never_written(self, tmp_path):
        with serving(tmp_path / "serve.sock", SlowSession(), deadline_s=0.1) as loop:
            client = raw_client(loop.socket_path)
            try:
                client.sendall(b'{"op": "slow", "seconds": 0.4}\n')
                [stuck] = read_lines(client, 1)
                assert stuck["error_type"] == "DeadlineExceeded"
                time.sleep(0.6)  # the handler has returned by now
                client.settimeout(0.2)
                with pytest.raises(socket.timeout):
                    client.recv(65536)
                client.settimeout(10)
                client.sendall(b'{"op": "ping", "payload": "after"}\n')
                [answer] = read_lines(client, 1)
            finally:
                client.close()
            assert answer["payload"] == "after"
            counters = request(loop.socket_path, {"op": "stats"})["counters"]
            assert counters["serve/abandoned"] == 1

    def test_no_deadline_starts_no_watchdog(self, tmp_path):
        before = watchdogs()
        with serving(tmp_path / "a.sock", deadline_s=None) as loop:
            assert request(loop.socket_path, {"op": "ping"})["pong"] is True
            assert watchdogs() == before
        with serving(tmp_path / "b.sock", deadline_s=5.0):
            assert watchdogs() == before + 1
        assert watchdogs() == before

    def test_shutdown_is_prompt_with_every_slot_abandoned(self, tmp_path):
        socket_path = tmp_path / "serve.sock"
        ready = threading.Event()
        loop = threading.Thread(
            target=serve_forever,
            args=(socket_path, SlowSession(), ready),
            kwargs={"max_inflight": 2, "deadline_s": 0.1},
            daemon=True,
        )
        loop.start()
        assert ready.wait(timeout=10)
        for _ in range(2):
            assert request(socket_path, {"op": "slow", "seconds": 3.0})[
                "error_type"
            ] == "DeadlineExceeded"
        assert request(socket_path, {"op": "ping"})["error_type"] == "Overloaded"
        started = time.monotonic()
        assert request(socket_path, {"op": "shutdown"})["shutdown"] is True
        loop.join(timeout=1.0)
        assert not loop.is_alive()
        assert time.monotonic() - started < 1.0


class TestShutdown:
    def test_idle_connections_do_not_delay_shutdown(self, tmp_path):
        socket_path = tmp_path / "serve.sock"
        ready = threading.Event()
        loop = threading.Thread(
            target=serve_forever, args=(socket_path, None, ready), daemon=True
        )
        loop.start()
        assert ready.wait(timeout=10)
        idle = []
        try:
            for _ in range(4):
                client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                client.settimeout(10)
                client.connect(str(socket_path))
                client.sendall(b'{"op": "ping"}\n')
                assert client.recv(65536).endswith(b"\n")  # handler now idle in recv
                idle.append(client)
            started = time.monotonic()
            assert request(socket_path, {"op": "shutdown"})["shutdown"] is True
            loop.join(timeout=10)
            assert not loop.is_alive()
            assert time.monotonic() - started < 1.0
            # the daemon closed the idle connections
            assert all(client.recv(65536) == b"" for client in idle)
        finally:
            for client in idle:
                client.close()


class TestNoHeadOfLineBlocking:
    @pytest.fixture(autouse=True)
    def clean_faults(self):
        faults.install(None)
        yield
        faults.install(None)

    def test_query_is_answered_while_a_job_runs(self, tmp_path, monkeypatch):
        fixture = tmp_path / "fixture.sqlite"
        run_campaign(pair_spec(), results=fixture).store.close()
        session = ServeSession(jobs_path=tmp_path / "jobs.sqlite")
        # The job's first cell hangs, so the job stays running for seconds.
        # Its cells run in a pool worker, which reads the plan from the
        # environment.
        monkeypatch.setenv(faults.ENV_VAR, "site=cell-body,kind=hang,seconds=1,times=1")
        faults.reload_from_env()
        with serving(tmp_path / "serve.sock", session) as loop:
            submitted = request(loop.socket_path, {
                "op": "submit",
                "spec": pair_spec(schemes=("reconvergence",)).to_dict(),
                "results": str(tmp_path / "results.sqlite"),
            })
            assert submitted["ok"], submitted
            job = {"op": "job", "job_id": submitted["job_id"]}
            deadline = time.monotonic() + 10
            while request(loop.socket_path, job)["job"]["state"] != "running":
                assert time.monotonic() < deadline, "the job never started"
                time.sleep(0.01)
            answer = request(loop.socket_path, {
                "op": "query", "results": str(fixture), "filter": "scheme=fcp",
            })
            assert answer["records"] == 2
            assert request(loop.socket_path, job)["job"]["state"] == "running"
            done = request(loop.socket_path, dict(job, wait_s=30), timeout=60)
            assert done["job"]["state"] == "done"
            # submit, the polls, query and wait all rode one connection
            assert connections(loop.socket_path) == 1
