"""One forwarding-query contract across the library, the CLI and the daemon.

A query naming a router or link the topology does not have, or a packet
addressed to its own source, is an error everywhere: the library raises a
typed :class:`~repro.errors.ReproError`, the daemon answers ``ok: false``
with that exception's name, and the CLI exits non-zero with a one-line
message naming the culprit.  None of them reports a dropped packet.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import FailureScenarioError, ForwardingError, NodeNotFound
from repro.forwarding.scheme import ForwardingScheme
from repro.runner.spec import SCHEME_NAMES
from repro.store.serve import ServeSession

SRC = Path(__file__).resolve().parent.parent / "src"

#: case -> (source, destination, failed links, expected error, culprit).
CASES = {
    "unknown-source": ("Nowhere", "Seattle", [], NodeNotFound, "Nowhere"),
    "unknown-destination": ("Seattle", "Nowhere", [], NodeNotFound, "Nowhere"),
    "unknown-link-id": ("Seattle", "Atlanta", [999], FailureScenarioError, "999"),
    "source-is-destination": ("Seattle", "Seattle", [], ForwardingError, "Seattle"),
}


@pytest.fixture(scope="module")
def session():
    served = ServeSession()
    yield served
    served.close()


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("scheme_key", sorted(SCHEME_NAMES))
def test_library_and_daemon_agree(session, scheme_key, case):
    source, destination, failed, error, culprit = CASES[case]
    scheme = session.scheme_for("abilene", scheme_key)
    entry_points = {
        "deliver": lambda: scheme.deliver(source, destination, failed_links=failed),
        "deliver_many": lambda: scheme.deliver_many(
            [("Denver", "Atlanta"), (source, destination)], failed_links=failed
        ),
        "engine deliver_many": lambda: ForwardingScheme.deliver_many(
            scheme, [(source, destination)], failed_links=failed
        ),
    }
    for call in entry_points.values():
        with pytest.raises(error, match=culprit):
            call()
    for op in ("deliver", "stretch"):
        response = session.handle({
            "op": op,
            "topology": "abilene",
            "scheme": scheme_key,
            "source": source,
            "destination": destination,
            "failed": failed,
        })
        assert response["ok"] is False, (op, response)
        assert response["error_type"] == error.__name__, (op, response)
        assert culprit in response["error"], (op, response)


@pytest.mark.parametrize("compare", [[], ["--compare"]])
@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_exits_with_one_line(case, compare):
    source, destination, failed, _error, culprit = CASES[case]
    argv = ["deliver", "abilene", source, destination] + compare
    for link in failed:
        argv += ["--fail", str(link)]
    with pytest.raises(SystemExit) as exited:
        main(argv)
    message = exited.value.code
    # A string code is printed to stderr as the whole output, exit status 1.
    assert isinstance(message, str) and "\n" not in message, message
    assert culprit in message


def test_cli_process_prints_no_traceback():
    result = subprocess.run(
        [sys.executable, "-m", "repro", "deliver", "abilene", "Seattle", "Nowhere"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert result.returncode == 1
    assert result.stderr.strip() == "node 'Nowhere' is not in the graph"
    assert "Traceback" not in result.stderr
    assert "LOST" not in result.stdout
