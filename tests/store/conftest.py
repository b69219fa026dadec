"""Shared fixtures for the results-store suite."""

import threading
import time

import pytest

from repro.errors import ReproError
from repro.runner.spec import CampaignSpec, ScenarioSpec
from repro.store.database import CampaignStore
from repro.store.serve import ServeSession, request, serve_forever


def pair_spec(**overrides):
    """Four cheap cells (no embedding stage): two topologies x two schemes."""
    defaults = dict(
        topologies=("fig1-example", "abilene"),
        schemes=("reconvergence", "fcp"),
        scenarios=(ScenarioSpec("single-link"),),
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


def deterministic_part(records):
    """Records without the timing/pid metadata (the comparable part)."""
    return [{k: v for k, v in r.items() if k != "meta"} for r in records]


@pytest.fixture
def store_path(tmp_path):
    return tmp_path / "campaign.sqlite"


def stored_records(path, spec):
    """The records a campaign left in its store, in cell order."""
    with CampaignStore(path) as store:
        return store.load_records(spec.spec_hash())


def keep_only(path, spec, records):
    """Leave exactly ``records`` in the campaign, as if the run had died."""
    campaign_id = spec.spec_hash()
    with CampaignStore(path) as store:
        store.begin_campaign(campaign_id)
        for record in records:
            store.append_record(campaign_id, record)


class SlowSession(ServeSession):
    """A session with a deliberately slow op, for deadline/backpressure tests."""

    def _op_slow(self, request):
        time.sleep(float(request.get("seconds", 0.5)))
        return {"slept": True}


class serving:
    """Context manager running ``serve_forever`` on a background thread."""

    def __init__(self, socket_path, session=None, **kwargs):
        self.socket_path = socket_path
        self.session = session
        self.kwargs = kwargs
        self.thread = None

    def __enter__(self):
        ready = threading.Event()
        self.thread = threading.Thread(
            target=serve_forever,
            args=(self.socket_path, self.session, ready),
            kwargs=self.kwargs,
            daemon=True,
        )
        self.thread.start()
        assert ready.wait(timeout=10), "serve loop never came up"
        return self

    def __exit__(self, *exc):
        try:
            request(self.socket_path, {"op": "shutdown"}, timeout=10)
        except ReproError:
            pass  # already down
        self.thread.join(timeout=10)
        assert not self.thread.is_alive(), "serve loop failed to stop"
