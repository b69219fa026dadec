"""Identity pins for the parameterised registries.

Topology canonical strings, scenario-spec keys and campaign spec hashes feed
cell ids, artifact-cache keys and store records.  The literals below were
recorded from the code and must never move: a change that alters any of them
silently orphans every stored result addressed by the old identity.
"""

import hashlib
import json

from repro.runner.spec import CampaignSpec, ScenarioSpec
from repro.scenarios import registered_models
from repro.topologies.corpus import (
    parse_topology_spec,
    registered_families,
    topology_set,
)

#: The canonical string of every registered family built with its defaults.
FAMILY_DEFAULTS = {
    "aarnet2001": "aarnet2001",
    "abilene": "abilene",
    "ans1997": "ans1997",
    "arpanet196912": "arpanet196912",
    "barabasi-albert": "barabasi-albert:m=2,seed=0,size=24",
    "barbell": "barbell:bell=4,path=2",
    "cesnet2001": "cesnet2001",
    "complete": "complete:size=8",
    "er-giant": "er-giant:probability=0.12,seed=0,size=30",
    "fat-tree": "fat-tree:k=4",
    "fig1-example": "fig1-example",
    "garr1999": "garr1999",
    "geant": "geant",
    "gnp": "gnp:probability=0.25,seed=0,size=16",
    "grid": "grid:cols=5,rows=4",
    "janet2004": "janet2004",
    "ladder": "ladder:rungs=8",
    "nordu2005": "nordu2005",
    "nsfnet1991": "nsfnet1991",
    "petersen": "petersen",
    "random-connected": "random-connected:extra=10,seed=0,size=20",
    "random-planar": "random-planar:cols=5,diagonals=4,rows=4,seed=0",
    "renater2001": "renater2001",
    "ring": "ring:size=16",
    "switch2003": "switch2003",
    "teleglobe": "teleglobe",
    "torus": "torus:cols=5,rows=4",
    "waxman": "waxman:alpha=0.6,beta=0.4,seed=0,size=24",
    "wheel": "wheel:spokes=10",
}

#: ``topology_set("all")`` in order.
ALL_SET = [
    "aarnet2001",
    "ans1997",
    "arpanet196912",
    "cesnet2001",
    "garr1999",
    "janet2004",
    "nordu2005",
    "nsfnet1991",
    "renater2001",
    "switch2003",
    "ring:size=16",
    "grid:cols=5,rows=4",
    "torus:cols=5,rows=4",
    "fat-tree:k=4",
    "waxman:alpha=0.6,beta=0.4,seed=7,size=24",
    "barabasi-albert:m=2,seed=3,size=24",
    "er-giant:probability=0.12,seed=5,size=30",
    "random-connected:extra=10,seed=11,size=20",
]

#: ``repr(key())`` and ``to_dict()`` as sorted JSON of every model's default
#: spec.  The reprs pin value types too (``200.0`` is not ``200``).
MODEL_SPECS = {
    "churn": (
        "('model', 1, 50, True, 'churn', (('horizon', 200.0), ('mean_down', 5.0), ('mean_up', 50.0), ('process', 'gilbert-elliott'), ('shape', 1.5), ('step', 1.0)))",
        '{"failures": 1, "kind": "model", "model": "churn", "non_disconnecting": true, "params": {"horizon": 200.0, "mean_down": 5.0, "mean_up": 50.0, "process": "gilbert-elliott", "shape": 1.5, "step": 1.0}, "samples": 50}',
    ),
    "maintenance": (
        "('model', 1, 50, True, 'maintenance', (('stride', 1), ('window', 2)))",
        '{"failures": 1, "kind": "model", "model": "maintenance", "non_disconnecting": true, "params": {"stride": 1, "window": 2}, "samples": 50}',
    ),
    "regional": (
        "('model', 1, 50, True, 'regional', (('radius', 1),))",
        '{"failures": 1, "kind": "model", "model": "regional", "non_disconnecting": true, "params": {"radius": 1}, "samples": 50}',
    ),
    "srlg": (
        "('model', 1, 50, True, 'srlg', (('group_size', 3),))",
        '{"failures": 1, "kind": "model", "model": "srlg", "non_disconnecting": true, "params": {"group_size": 3}, "samples": 50}',
    ),
    "weighted": (
        "('model', 1, 50, True, 'weighted', (('attempts', 200), ('by', 'betweenness'), ('failures', 1)))",
        '{"failures": 1, "kind": "model", "model": "weighted", "non_disconnecting": true, "params": {"attempts": 200, "by": "betweenness", "failures": 1}, "samples": 50}',
    ),
}


def spanning_campaign() -> CampaignSpec:
    """One campaign over every family default, every set member and model."""
    topologies = tuple(dict.fromkeys(list(FAMILY_DEFAULTS.values()) + ALL_SET))
    scenarios = (ScenarioSpec(),) + tuple(
        ScenarioSpec.for_model(name) for name in sorted(MODEL_SPECS)
    )
    return CampaignSpec(
        topologies=topologies,
        schemes=("reconvergence", "pr"),
        scenarios=scenarios,
    )


def test_family_default_canonicals():
    families = {f.name: parse_topology_spec(f.name).canonical for f in registered_families()}
    assert families == FAMILY_DEFAULTS


def test_topology_set_all():
    assert topology_set("all") == ALL_SET


def test_model_spec_keys_and_dicts():
    specs = {
        model.name: (
            repr(ScenarioSpec.for_model(model.name).key()),
            json.dumps(ScenarioSpec.for_model(model.name).to_dict(), sort_keys=True),
        )
        for model in registered_models()
    }
    assert specs == MODEL_SPECS


def test_spanning_campaign_hash_and_cell_ids():
    spec = spanning_campaign()
    cells = spec.cells()
    cell_digest = hashlib.sha256("\n".join(c.cell_id for c in cells).encode()).hexdigest()
    assert spec.spec_hash() == "acc47ed5b3430eba"
    assert len(cells) == 396
    assert cell_digest[:16] == "d520c1c3cb58a4c8"
