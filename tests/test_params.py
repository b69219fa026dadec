"""The declared-parameter grammar and its contract over both registries.

Every topology family and every scenario model declares its parameters
through :mod:`repro.params`; these tests hold each registered owner to the
same contract: the canonical spelling of a parameter re-parses to an equal
spec, and a bad value or an unknown name raises the owner's error type
naming the parameter.
"""

import math

import pytest

from repro.errors import ExperimentError, ReproError, TopologyError
from repro.params import Param, format_value, parse_assignments, parse_spec, resolve_params
from repro.runner.spec import ScenarioSpec
from repro.scenarios import registered_models
from repro.topologies.corpus import parse_topology_spec, registered_families

FAMILIES = registered_families()
MODELS = registered_models()

FAMILY_PARAMS = [
    pytest.param(family.name, param, id=f"{family.name}.{param.name}")
    for family in FAMILIES
    for param in family.params
]
MODEL_PARAMS = [
    pytest.param(model.name, param, id=f"{model.name}.{param.name}")
    for model in MODELS
    for param in model.params
]


def typed(cases):
    """The cases whose parameter type rejects some value (every type but str)."""
    return [case for case in cases if not isinstance(case.values[1].default, str)]


def model_spec(text: str) -> ScenarioSpec:
    name, overrides = parse_spec(text, ExperimentError)
    return ScenarioSpec(kind="model", model=name, params=overrides)


class TestParam:
    def test_bool_accepts_bools_and_their_strings(self):
        param = Param("flag", False)
        assert param.coerce(True) is True
        assert param.coerce("TRUE") is True
        assert param.coerce("false") is False
        with pytest.raises(ValueError, match="'flag' expects a bool"):
            param.coerce(1)

    def test_int_accepts_digit_strings_and_integral_floats(self):
        param = Param("size", 4)
        assert param.coerce("12") == 12
        assert param.coerce(12.0) == 12 and isinstance(param.coerce(12.0), int)
        for bad in (12.5, True, "twelve", None):
            with pytest.raises(ValueError, match="'size' expects a int"):
                param.coerce(bad)

    def test_float_accepts_ints_and_rejects_non_finite(self):
        param = Param("alpha", 0.5)
        assert param.coerce(2) == 2.0 and isinstance(param.coerce(2), float)
        for bad in (math.nan, math.inf, "-inf", False, "half"):
            with pytest.raises(ValueError, match="'alpha' expects a float"):
                param.coerce(bad)

    def test_str_accepts_anything(self):
        assert Param("by", "length").coerce(3) == "3"

    def test_resolve_labels_messages_with_the_owner(self):
        params = (Param("size", 4),)
        assert resolve_params(params, {}, "thing 'x'", TopologyError) == {"size": 4}
        with pytest.raises(TopologyError, match="^thing 'x' parameter 'size' expects a int"):
            resolve_params(params, {"size": "big"}, "thing 'x'", TopologyError)
        with pytest.raises(ExperimentError, match="unknown parameters \\['sise'\\] for thing"):
            resolve_params(params, {"sise": 4}, "thing 'x'", ExperimentError)
        with pytest.raises(ExperimentError, match="^thing 'y' takes no parameters"):
            resolve_params((), {"size": 4}, "thing 'y'", ExperimentError)


class TestParsing:
    def test_values_are_json_scalars_else_strings(self):
        parsed = parse_assignments(["a=3", " b = 2.5 ", "c=true", "d=weibull", "e="], ReproError)
        assert parsed == {"a": 3, "b": 2.5, "c": True, "d": "weibull", "e": ""}

    def test_missing_equals_is_the_owners_error(self):
        with pytest.raises(TopologyError, match="'size'; use name=value"):
            parse_assignments(["size"], TopologyError)

    def test_spec_splits_name_and_overrides(self):
        assert parse_spec(" waxman : size=40,seed=3", ReproError) == (
            "waxman",
            {"size": 40, "seed": 3},
        )
        assert parse_spec("abilene", ReproError) == ("abilene", {})
        assert parse_spec("abilene: ", ReproError) == ("abilene", {})

    @pytest.mark.parametrize("value", [True, False, 3, 0.12, 200.0, "gilbert-elliott"])
    def test_format_value_round_trips(self, value):
        (parsed,) = parse_assignments([f"v={format_value(value)}"], ReproError).values()
        assert parsed == value and type(parsed) is type(value)


class TestTopologyFamilies:
    @pytest.mark.parametrize("family, param", FAMILY_PARAMS)
    def test_canonical_spelling_reparses_equal(self, family, param):
        spelled = parse_topology_spec(f"{family}:{param.name}={format_value(param.default)}")
        assert spelled == parse_topology_spec(family)
        assert parse_topology_spec(spelled.canonical) == spelled

    @pytest.mark.parametrize("family, param", typed(FAMILY_PARAMS))
    def test_bad_value_names_the_parameter(self, family, param):
        with pytest.raises(TopologyError, match=f"'{param.name}' expects a"):
            parse_topology_spec(f"{family}:{param.name}=not-a-value")

    @pytest.mark.parametrize("family", [family.name for family in FAMILIES])
    def test_unknown_name_is_rejected(self, family):
        with pytest.raises(TopologyError, match="'nope'"):
            parse_topology_spec(f"{family}:nope=1")


class TestScenarioModels:
    @pytest.mark.parametrize("model, param", MODEL_PARAMS)
    def test_canonical_spelling_reparses_equal(self, model, param):
        spelled = model_spec(f"{model}:{param.name}={format_value(param.default)}")
        assert spelled == ScenarioSpec.for_model(model)
        canonical = ",".join(f"{name}={format_value(value)}" for name, value in spelled.params)
        assert model_spec(f"{model}:{canonical}") == spelled
        assert ScenarioSpec.from_dict(spelled.to_dict()) == spelled

    @pytest.mark.parametrize("model, param", typed(MODEL_PARAMS))
    def test_bad_value_names_the_parameter(self, model, param):
        with pytest.raises(ExperimentError, match=f"'{param.name}' expects a"):
            model_spec(f"{model}:{param.name}=not-a-value")

    @pytest.mark.parametrize("model", [model.name for model in MODELS])
    def test_unknown_name_is_rejected(self, model):
        with pytest.raises(ExperimentError, match="'nope'"):
            model_spec(f"{model}:nope=1")
