"""Campaign specification: grid expansion, seeds, hashing, persistence."""

import pytest

from repro.errors import ExperimentError
from repro.runner.policy import ExecutionPolicy
from repro.runner.spec import (
    CampaignSpec,
    ScenarioSpec,
    available_schemes,
    chunk_cells,
    figure2_campaign_spec,
    node_failure_campaign_spec,
    scenario_model_campaign_spec,
)
from repro.scenarios import available_scenario_models


def small_spec(**overrides):
    defaults = dict(
        topologies=("fig1-example", "abilene"),
        schemes=("reconvergence", "pr"),
        scenarios=(
            ScenarioSpec("single-link"),
            ScenarioSpec("multi-link", failures=2, samples=5),
        ),
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


class TestValidation:
    def test_unknown_scheme_rejected(self):
        with pytest.raises(ExperimentError):
            CampaignSpec(topologies=("abilene",), schemes=("not-a-scheme",))

    def test_unknown_discriminator_rejected(self):
        with pytest.raises(ExperimentError):
            CampaignSpec(topologies=("abilene",), discriminators=("parity",))

    def test_unknown_scenario_kind_rejected(self):
        with pytest.raises(ExperimentError):
            ScenarioSpec(kind="meteor-strike")

    def test_multi_link_needs_two_failures(self):
        with pytest.raises(ExperimentError):
            ScenarioSpec(kind="multi-link", failures=1)

    def test_empty_grid_axes_rejected(self):
        with pytest.raises(ExperimentError):
            CampaignSpec(topologies=())
        with pytest.raises(ExperimentError):
            CampaignSpec(topologies=("abilene",), schemes=())

    def test_bad_coverage_mode_rejected(self):
        with pytest.raises(ExperimentError):
            CampaignSpec(topologies=("abilene",), coverage="everything")


class TestGridExpansion:
    def test_cell_count_is_full_product(self):
        spec = small_spec()
        cells = spec.cells()
        assert len(cells) == spec.cell_count() == 2 * 2 * 1 * 2
        assert [cell.index for cell in cells] == list(range(len(cells)))

    def test_cell_ids_unique(self):
        cells = small_spec().cells()
        assert len({cell.cell_id for cell in cells}) == len(cells)

    def test_scenario_seed_shared_across_schemes(self):
        """Every scheme must face the identical failure scenarios."""
        cells = small_spec().cells()
        by_coord = {}
        for cell in cells:
            by_coord.setdefault((cell.topology, cell.scenario.key()), set()).add(cell.seed)
        for seeds in by_coord.values():
            assert len(seeds) == 1

    def test_scenario_seeds_differ_across_topologies(self):
        cells = small_spec().cells()
        seeds = {cell.seed for cell in cells}
        assert len(seeds) == 4  # 2 topologies x 2 scenario specs

    def test_adding_a_scheme_does_not_move_existing_cells(self):
        """Growing the scheme axis must not invalidate prior cell results."""
        base = {cell.cell_id for cell in small_spec().cells()}
        grown = {
            cell.cell_id
            for cell in small_spec(schemes=("reconvergence", "pr", "fcp")).cells()
        }
        assert base <= grown

    def test_cells_are_deterministic(self):
        assert small_spec().cells() == small_spec().cells()

    def test_duplicate_axis_entries_collapse(self):
        """Duplicate grid entries would double-count results and collide
        cell ids, so the axes behave as ordered sets."""
        spec = small_spec(
            topologies=("abilene", "abilene", "fig1-example"),
            schemes=("pr", "pr"),
        )
        assert spec.topologies == ("abilene", "fig1-example")
        assert spec.schemes == ("pr",)
        cells = spec.cells()
        assert len({cell.cell_id for cell in cells}) == len(cells)


class TestModelScenarioSpecs:
    def test_for_model_canonicalises_params(self):
        explicit = ScenarioSpec.for_model("srlg", group_size=3)
        implicit = ScenarioSpec.for_model("srlg")
        assert explicit == implicit
        assert dict(implicit.params) == {"group_size": 3}

    def test_param_spelling_order_irrelevant(self):
        first = ScenarioSpec.for_model("churn", process="weibull", shape=2.0)
        second = ScenarioSpec(
            kind="model", model="churn",
            params=(("shape", 2.0), ("process", "weibull")),
        )
        assert first == second
        assert first.key() == second.key()

    def test_unknown_model_rejected(self):
        with pytest.raises(ExperimentError, match="unknown scenario model"):
            ScenarioSpec.for_model("meteor-strike")

    def test_unknown_param_rejected(self):
        with pytest.raises(ExperimentError, match="unknown parameters"):
            ScenarioSpec.for_model("srlg", blast_radius=2)

    def test_model_name_required(self):
        with pytest.raises(ExperimentError, match="model name"):
            ScenarioSpec(kind="model")

    def test_model_fields_rejected_on_legacy_kinds(self):
        with pytest.raises(ExperimentError, match='use kind="model"'):
            ScenarioSpec(kind="single-link", model="srlg")

    def test_label_and_family(self):
        spec = ScenarioSpec.for_model("regional", radius=2)
        assert spec.label == "regional"
        assert spec.family == "regional"

    def test_multi_link_families_stay_per_severity(self):
        """2-link and 4-link regimes must not pool into one family row."""
        assert ScenarioSpec("multi-link", failures=4).family == "4-link"
        assert ScenarioSpec("multi-link", failures=2).family == "2-link"
        assert ScenarioSpec("single-link").family == "single-link"
        assert ScenarioSpec(kind="node").family == "node"

    def test_failures_rejected_on_model_kind(self):
        """failures= would feed cell ids without the model reading it,
        splitting identical regimes into distinct cells."""
        with pytest.raises(ExperimentError, match="model params"):
            ScenarioSpec(kind="model", model="srlg", failures=3)

    def test_legacy_keys_unchanged_by_model_fields(self):
        """Adding the model axis must not move existing cell ids."""
        assert ScenarioSpec("multi-link", failures=4, samples=9).key() == (
            "multi-link", 4, 9, True,
        )

    def test_round_trip_every_registered_model(self):
        for name in available_scenario_models():
            spec = ScenarioSpec.for_model(name, samples=7)
            assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_legacy_to_dict_has_no_model_keys(self):
        payload = ScenarioSpec("single-link").to_dict()
        assert "model" not in payload and "params" not in payload

    def test_from_dict_rejects_unknown_keys(self):
        """Stale campaign JSON must fail loudly, not be silently reinterpreted."""
        with pytest.raises(ExperimentError, match="unknown scenario spec keys"):
            ScenarioSpec.from_dict({"kind": "single-link", "flavour": "spicy"})

    def test_from_dict_rejects_non_mapping_params(self):
        with pytest.raises(ExperimentError, match="must be a mapping"):
            ScenarioSpec.from_dict(
                {"kind": "model", "model": "srlg", "params": ["group_size", 3]}
            )

    def test_model_specs_dedupe_in_campaign_axes(self):
        spec = CampaignSpec(
            topologies=("abilene",),
            scenarios=(
                ScenarioSpec.for_model("srlg"),
                ScenarioSpec.for_model("srlg", group_size=3),
                ScenarioSpec.for_model("srlg", group_size=4),
            ),
        )
        assert len(spec.scenarios) == 2

    def test_scenario_model_campaign_spec(self):
        spec = scenario_model_campaign_spec(
            ["abilene", "geant"], ["srlg", "regional", "churn"], samples=6
        )
        assert [s.model for s in spec.scenarios] == ["srlg", "regional", "churn"]
        assert all(s.samples == 6 for s in spec.scenarios)
        assert spec.cell_count() == 2 * 3 * 1 * 3


class TestPersistence:
    def test_json_round_trip(self, tmp_path):
        spec = small_spec(seed=42, coverage="full", embedding_method="greedy")
        path = spec.save(tmp_path / "spec.json")
        loaded = CampaignSpec.load(path)
        assert loaded == spec
        assert loaded.spec_hash() == spec.spec_hash()

    def test_spec_hash_sensitive_to_grid(self):
        assert small_spec().spec_hash() != small_spec(seed=2).spec_hash()
        assert (
            small_spec().spec_hash()
            != small_spec(schemes=("reconvergence",)).spec_hash()
        )

    def test_from_dict_defaults(self):
        spec = CampaignSpec.from_dict({"topologies": ["abilene"]})
        assert spec.schemes == ("reconvergence", "fcp", "pr")
        assert spec.scenarios == (ScenarioSpec(),)


class TestDictErrors:
    """Spec and policy dictionaries fail with an error naming the key."""

    def test_unknown_spec_key_is_rejected(self):
        with pytest.raises(ExperimentError, match="'scheme'"):
            CampaignSpec.from_dict({"topologies": ["abilene"], "scheme": ["pr"]})

    def test_spec_without_topologies_is_rejected(self):
        with pytest.raises(ExperimentError, match="'topologies'"):
            CampaignSpec.from_dict({"schemes": ["pr"]})

    @pytest.mark.parametrize(
        "payload",
        [{"max_retries": "2"}, {"cell_timeout": "1"}, {"max_pool_rebuilds": 1.5},
         {"backoff_base_s": True}],
    )
    def test_mistyped_policy_field_is_rejected(self, payload):
        [name] = payload
        with pytest.raises(ExperimentError, match=repr(name)):
            ExecutionPolicy.from_dict(payload)

    @pytest.mark.parametrize(
        "payload, key",
        [
            ({"topologies": "abilene"}, "'topologies'"),
            ({"topologies": ["abilene"], "schemes": "pr"}, "'schemes'"),
            ({"topologies": ["abilene"], "scenarios": {"kind": "node"}}, "'scenarios'"),
            ({"topologies": ["abilene"], "seed": "x"}, "'seed'"),
            ({"topologies": ["abilene"], "scenarios": [{"kind": "multi-link", "failures": 2.7}]},
             "'failures'"),
            ({"topologies": ["abilene"], "scenarios": [{"samples": True}]}, "'samples'"),
            ({"topologies": ["abilene"], "scenarios": [{"non_disconnecting": "false"}]},
             "'non_disconnecting'"),
            ({"topologies": ["abilene"], "record_samples": "false"}, "'record_samples'"),
            ({"topologies": ["abilene"], "embedding_method": 5}, "'embedding_method'"),
            ({"topologies": ["abilene"], "scenarios": ["node"]}, "scenario spec must be a JSON object"),
        ],
    )
    def test_mistyped_spec_field_is_rejected(self, payload, key):
        with pytest.raises(ExperimentError, match=key):
            CampaignSpec.from_dict(payload)

    def test_mistyped_python_construction_fails_like_json(self):
        with pytest.raises(ExperimentError) as built:
            CampaignSpec(topologies="abilene")
        with pytest.raises(ExperimentError) as decoded:
            CampaignSpec.from_dict({"topologies": "abilene"})
        assert str(built.value) == str(decoded.value)
        assert "'topologies'" in str(built.value)

    def test_non_object_policy_is_rejected(self):
        with pytest.raises(ExperimentError, match="execution policy must be a JSON object"):
            ExecutionPolicy.from_dict([])

    def test_float_fields_keep_the_number_given(self):
        policy = ExecutionPolicy.from_dict({"cell_timeout": 2, "backoff_base_s": 0.5})
        assert type(policy.cell_timeout) is int and policy.backoff_base_s == 0.5

    @pytest.mark.parametrize(
        "text, reason",
        [('{"topologies": ["abilene"]', "not valid JSON"),
         ('["abilene"]', "must be a JSON object"),
         ('{"topologies": "abilene"}', "'topologies'")],
    )
    def test_bad_spec_file_is_one_error_naming_the_file(self, tmp_path, text, reason):
        path = tmp_path / "spec.json"
        path.write_text(text)
        with pytest.raises(ExperimentError, match=reason) as raised:
            CampaignSpec.load(path)
        assert str(path) in str(raised.value) and "\n" not in str(raised.value)

    def test_missing_spec_file_names_the_file(self, tmp_path):
        with pytest.raises(ExperimentError, match="nope.json"):
            CampaignSpec.load(tmp_path / "nope.json")

    def test_policy_dict_round_trips(self):
        policy = ExecutionPolicy(max_retries=2, cell_timeout=1, on_error="quarantine")
        assert ExecutionPolicy.from_dict(policy.to_dict()) == policy

    @pytest.mark.parametrize(
        "spec",
        [
            small_spec(seed=42, coverage="full", record_samples=False),
            figure2_campaign_spec("2f", samples=20),
            node_failure_campaign_spec(["abilene", "geant"]),
            scenario_model_campaign_spec(["abilene"], ["srlg", "churn"], samples=4),
        ],
    )
    def test_every_written_dict_parses_to_an_equal_spec(self, spec):
        assert CampaignSpec.from_dict(spec.to_dict()) == spec


class TestCannedSpecs:
    def test_figure2_single_panel(self):
        spec = figure2_campaign_spec("2a")
        assert spec.topologies == ("abilene",)
        assert spec.scenarios[0].kind == "single-link"

    def test_figure2_multi_panel(self):
        spec = figure2_campaign_spec("2f", samples=20)
        assert spec.topologies == ("geant",)
        scenario = spec.scenarios[0]
        assert scenario.kind == "multi-link"
        assert scenario.failures == 16
        assert scenario.samples == 20

    def test_figure2_unknown_panel(self):
        with pytest.raises(ExperimentError):
            figure2_campaign_spec("9z")

    def test_node_failure_spec(self):
        spec = node_failure_campaign_spec(["abilene", "geant"])
        assert spec.scenarios == (ScenarioSpec(kind="node"),)

    def test_available_schemes_cover_paper_trio(self):
        names = available_schemes()
        for key in ("reconvergence", "fcp", "pr"):
            assert key in names


class TestChunkCells:
    def _cells(self, topologies, schemes):
        return CampaignSpec(topologies=topologies, schemes=schemes).cells()

    def test_chunks_partition_cells_in_order(self):
        cells = self._cells(("abilene", "geant", "teleglobe"), ("reconvergence", "fcp"))
        chunks = chunk_cells(cells, workers=2)
        flattened = [cell for chunk in chunks for cell in chunk]
        assert flattened == cells  # a partition, order preserved
        assert all(chunks)  # no empty chunks

    def test_chunks_prefer_topology_boundaries(self):
        cells = self._cells(
            ("abilene", "geant"), ("reconvergence", "fcp", "pr")
        )
        chunks = chunk_cells(cells, workers=2)
        # 6 cells over 2 workers: one chunk per topology, so a worker builds
        # each topology's engine exactly once.
        assert [sorted({c.topology for c in chunk}) for chunk in chunks] == [
            ["abilene"],
            ["geant"],
        ]

    def test_oversized_topology_group_is_split(self):
        cells = self._cells(
            ("abilene",),
            ("reconvergence", "fcp", "pr", "pr-1bit", "lfa", "noprotection"),
        )
        chunks = chunk_cells(cells, workers=3, chunks_per_worker=2)
        assert len(chunks) > 1
        assert [cell for chunk in chunks for cell in chunk] == cells

    def test_one_worker_gets_one_cell_per_chunk(self):
        cells = self._cells(("abilene", "geant"), ("reconvergence", "fcp", "pr"))
        assert chunk_cells(cells, workers=1) == [[cell] for cell in cells]

    def test_empty_and_single_cell(self):
        assert chunk_cells([], workers=4) == []
        [cell] = self._cells(("abilene",), ("reconvergence",))
        assert chunk_cells([cell], workers=4) == [[cell]]
