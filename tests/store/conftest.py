"""Shared fixtures for the results-store suite."""

import pytest

from repro.runner.spec import CampaignSpec, ScenarioSpec
from repro.store.database import CampaignStore


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
