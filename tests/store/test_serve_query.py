"""Daemon ``query`` answers equal library answers over the filter grammar."""

import json

import pytest

from repro.errors import ExperimentError
from repro.runner import aggregate
from repro.runner.executor import run_campaign
from repro.runner.spec import ScenarioSpec
from repro.store.database import CampaignStore
from repro.store.serve import request

from tests.store.conftest import pair_spec, serving

FILTERS = (
    "",
    "scheme=fcp",
    "scheme!=fcp",
    "topology~ABI",
    "topology=fig1-example scheme!=reconvergence",
    "family=single-link",
    "family=2-link",
    "family=nope",
    "seed=1",
    "campaign:all",
    "campaign:last1",
    "campaign:last2 scheme=reconvergence",
    "campaign:last9 topology~e",
)

LIMITS = (None, 0, 1, 3, 1000)


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    """Three campaigns over two scenario families."""
    path = tmp_path_factory.mktemp("serve-query") / "results.sqlite"
    specs = [
        pair_spec(),
        pair_spec(schemes=("fcp",), seed=2),
        pair_spec(
            topologies=("abilene",),
            scenarios=(ScenarioSpec("multi-link", failures=2, samples=3),),
            record_samples=False,
        ),
    ]
    for spec in specs:
        run_campaign(spec, results=path).store.close()
    return path


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    with serving(tmp_path_factory.mktemp("serve-query-sock") / "serve.sock") as loop:
        yield loop.socket_path


@pytest.fixture(scope="module")
def library(store_path):
    with CampaignStore(store_path) as store:
        yield store


def campaign_id_filters(library):
    ids = [row["campaign_id"] for row in library.campaigns()]
    return [f"campaign:{ids[0]}", f"campaign:{ids[1][:8]} scheme=fcp"]


def ask(daemon, store_path, expression, **fields):
    response = request(daemon, {
        "op": "query", "results": str(store_path), "filter": expression, **fields,
    })
    assert response["ok"], response
    return response


class TestDaemonMatchesLibrary:
    def test_counts_over_the_filter_grammar(self, daemon, store_path, library):
        for expression in FILTERS + tuple(campaign_id_filters(library)):
            for limit in LIMITS:
                records = library.query(expression, limit=limit)
                response = ask(daemon, store_path, expression, limit=limit)
                assert response["records"] == len(records), (expression, limit)
                assert library.query(expression, limit=limit, count=True) == len(records)
            assert library.query_count(expression) == len(library.query(expression))

    def test_the_grammar_matches_something(self, library):
        # Guards the differential against comparing empty answers only.
        assert library.query_count("scheme=fcp") > 0
        assert library.query_count("scheme!=fcp") > 0
        assert library.query_count("topology~ABI") > 0
        assert library.query_count("family=2-link") > 0
        assert library.query_count("campaign:last1") < library.query_count("campaign:all")

    def test_include_records_and_summary(self, daemon, store_path, library):
        for expression in FILTERS + tuple(campaign_id_filters(library)):
            for limit in LIMITS:
                records = library.query(expression, limit=limit)
                response = ask(daemon, store_path, expression, limit=limit,
                               include_records=True, aggregate="summary")
                assert response["records"] == len(records)
                assert response["matched"] == records
                expected_rows = json.loads(json.dumps(aggregate.topology_summary_rows(records)))
                assert response["summary_rows"] == expected_rows

    def test_summary_alone_matches(self, daemon, store_path, library):
        records = library.query("scheme=fcp", limit=3)
        response = ask(daemon, store_path, "scheme=fcp", limit=3, aggregate="summary")
        assert response["records"] == 3
        assert "matched" not in response
        assert response["summary_rows"] == json.loads(
            json.dumps(aggregate.topology_summary_rows(records))
        )

    @pytest.mark.parametrize("limit", [-1, True, "3", 2.0])
    def test_bad_limit_error_text_is_identical(self, daemon, store_path, library, limit):
        handle = run_campaign(pair_spec(), workers=1)
        with pytest.raises(ExperimentError, match="'limit'") as raised:
            library.query("scheme=fcp", limit=limit)
        with pytest.raises(ExperimentError) as in_memory:
            handle.query("scheme=fcp", limit=limit)
        response = request(daemon, {
            "op": "query", "results": str(store_path), "filter": "scheme=fcp", "limit": limit,
        })
        assert response["ok"] is False
        assert response["error_type"] == "ExperimentError"
        assert response["error"] == str(raised.value) == str(in_memory.value)

    def test_unknown_campaign_id_error_text_is_identical(self, daemon, store_path, library):
        expression = "campaign:ffffffffdead scheme=pr"
        with pytest.raises(ExperimentError) as raised:
            library.query(expression)
        with pytest.raises(ExperimentError) as counted:
            library.query(expression, count=True)
        response = request(daemon, {
            "op": "query", "results": str(store_path), "filter": expression,
        })
        assert response["ok"] is False
        assert response["error_type"] == "ExperimentError"
        assert response["error"] == str(raised.value) == str(counted.value)
