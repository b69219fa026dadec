"""Tests for the topology corpus: families, specs, sets and validation."""

import hashlib
import os
import re
import subprocess
import sys

import pytest

from repro.errors import TopologyError
from repro.runner import CampaignSpec, load_topology
from repro.topologies import corpus


def edge_list_digest(graph) -> str:
    payload = repr((graph.nodes(), graph.to_edge_list()))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class TestSpecParsing:
    def test_bare_name_canonicalises_to_itself(self):
        assert corpus.parse_topology_spec("abilene").canonical == "abilene"

    def test_params_resolve_sort_and_round_trip(self):
        spec = corpus.parse_topology_spec("WAXMAN:seed=3,size=40")
        assert spec.canonical == "waxman:alpha=0.6,beta=0.4,seed=3,size=40"
        assert corpus.parse_topology_spec(spec.canonical) == spec

    def test_default_spelled_out_matches_implicit(self):
        implicit = corpus.parse_topology_spec("fat-tree")
        explicit = corpus.parse_topology_spec("fat-tree:k=4")
        assert implicit == explicit

    def test_unknown_family_reports_attempted_name(self):
        with pytest.raises(TopologyError, match="'meteor-net'"):
            corpus.parse_topology_spec("meteor-net:size=3")

    def test_unknown_param_rejected(self):
        with pytest.raises(TopologyError, match="blast"):
            corpus.parse_topology_spec("ring:blast=4")

    def test_param_on_parameterless_family_rejected(self):
        with pytest.raises(TopologyError, match="takes no parameters"):
            corpus.parse_topology_spec("abilene:size=4")

    def test_uncoercible_value_rejected(self):
        with pytest.raises(TopologyError, match="expects a int"):
            corpus.parse_topology_spec("ring:size=many")

    def test_malformed_pair_rejected(self):
        with pytest.raises(TopologyError, match="use name=value"):
            corpus.parse_topology_spec("ring:size")

    def test_try_parse_passes_paths_through(self):
        assert corpus.try_parse_spec("some/where/net.topo") is None
        assert corpus.canonical_topology("some/where/net.topo") == "some/where/net.topo"

    def test_try_parse_still_raises_for_known_family_bad_params(self):
        with pytest.raises(TopologyError):
            corpus.try_parse_spec("ring:blast=4")


class TestBuilding:
    def test_graph_named_by_canonical_spec(self):
        graph = corpus.build_topology("ring:size=5")
        assert graph.name == "ring:size=5"
        assert graph.number_of_nodes() == 5

    def test_legacy_names_build_unchanged(self):
        graph = corpus.build_topology("abilene")
        assert graph.name == "abilene"
        assert graph.number_of_nodes() == 11
        assert graph.number_of_edges() == 14

    def test_zoo_snapshot_builds_connected(self):
        graph = corpus.build_topology("nsfnet1991")
        assert graph.name == "nsfnet1991"
        assert graph.number_of_nodes() == 14
        assert graph.number_of_edges() == 21

    def test_zoo_weights_flow_through_graphml(self):
        graph = corpus.build_topology("switch2003")
        weights = {edge.weight for edge in graph.edges()}
        assert 5.0 in weights

    def test_same_spec_same_content(self):
        one = corpus.build_topology("barabasi-albert:size=20,seed=9")
        two = corpus.build_topology("barabasi-albert:seed=9,size=20")
        assert edge_list_digest(one) == edge_list_digest(two)

    def test_different_seed_different_content(self):
        one = corpus.build_topology("waxman:size=20,seed=1")
        two = corpus.build_topology("waxman:size=20,seed=2")
        assert edge_list_digest(one) != edge_list_digest(two)


class TestRegistration:
    def test_colliding_family_name_rejected(self):
        with pytest.raises(TopologyError, match="already registered"):
            corpus.register_family(
                corpus.TopologyFamily(
                    name="abilene",
                    kind="zoo",
                    summary="shadowing attempt",
                    build=lambda: None,
                )
            )

    def test_uppercase_family_name_rejected(self):
        with pytest.raises(TopologyError, match="lowercase"):
            corpus.register_family(
                corpus.TopologyFamily(
                    name="Camel", kind="synthetic", summary="", build=lambda: None
                )
            )


class TestSets:
    def test_zoo_set_matches_committed_snapshots(self):
        zoo = corpus.topology_set("zoo")
        assert len(zoo) >= 8
        assert "nsfnet1991" in zoo and "arpanet196912" in zoo

    def test_all_set_spans_at_least_twelve(self):
        combined = corpus.topology_set("all")
        assert len(combined) >= 12
        assert len(set(combined)) == len(combined)

    def test_synthetic_members_are_canonical(self):
        for member in corpus.topology_set("synthetic"):
            assert corpus.canonical_topology(member) == member

    def test_unknown_set_rejected(self):
        with pytest.raises(TopologyError, match="unknown topology set"):
            corpus.topology_set("galactic")


class TestValidation:
    def test_whole_corpus_validates(self):
        for spec in corpus.topology_set("all"):
            report = corpus.validate_topology(spec)
            assert report.ok, report.describe()
            assert report.nodes >= 3

    def test_unbuildable_spec_fails_validation(self):
        report = corpus.validate_topology("no/such/file.topo")
        assert not report.ok
        assert report.problems

    def test_disconnected_file_fails_validation(self, tmp_path):
        path = tmp_path / "split.topo"
        path.write_text("a b 1\nc d 1\n")
        report = corpus.validate_topology(str(path))
        assert not report.ok
        assert any("disconnected" in problem for problem in report.problems)


class TestFamilyLookup:
    def test_family_names_include_the_paper_topologies(self):
        assert {"abilene", "teleglobe", "geant"} <= set(corpus.family_names())

    def test_family_names_is_a_sorted_fresh_copy(self):
        names = corpus.family_names()
        assert names == sorted(names)
        assert corpus.family_names() is not names
        names.append("mutation")
        assert "mutation" not in corpus.family_names()

    def test_build_topology_is_case_insensitive(self):
        for spelling in ("Abilene", "ABILENE"):
            graph = corpus.build_topology(spelling)
            assert graph.number_of_nodes() == 11
            assert graph.name == "abilene"

    def test_unknown_family_rejected_with_attempted_spelling(self):
        with pytest.raises(TopologyError, match="'Arpanet-1969'"):
            corpus.get_family("Arpanet-1969")
        with pytest.raises(TopologyError, match="'Arpanet-1969'"):
            corpus.parse_topology_spec("Arpanet-1969")

    @pytest.mark.parametrize("load", [corpus.build_topology, load_topology])
    def test_unknown_name_is_a_typed_error_listing_the_families(self, load):
        listing = r"unknown topology 'nowhere'; available: .*abilene"
        with pytest.raises(TopologyError, match=listing):
            load("nowhere")

    @pytest.mark.parametrize("load", [corpus.build_topology, load_topology])
    @pytest.mark.parametrize("missing", ["nowhere.graphml", "some/dir/net"])
    def test_missing_file_is_a_typed_error_naming_the_path(self, load, missing):
        with pytest.raises(TopologyError, match=f"topology file '{missing}' does not exist"):
            load(missing)

    @pytest.mark.parametrize("load", [corpus.build_topology, load_topology])
    def test_directory_is_a_typed_error_naming_it(self, load, tmp_path):
        directory = str(tmp_path / "nets")
        os.mkdir(directory)
        message = f"topology '{directory}' is a directory, not a topology file"
        with pytest.raises(TopologyError, match=re.escape(message)):
            load(directory)

    def test_build_topology_builds_parameterized_family_defaults(self):
        graph = corpus.build_topology("fat-tree")
        assert graph.number_of_nodes() == 20
        assert graph.name == "fat-tree:k=4"


class TestCampaignCanonicalisation:
    def test_spellings_collapse_to_one_grid_entry(self):
        spec = CampaignSpec(
            topologies=("WAXMAN:seed=3,size=40", "waxman:size=40,seed=3"),
            schemes=("reconvergence",),
        )
        assert spec.topologies == ("waxman:alpha=0.6,beta=0.4,seed=3,size=40",)

    def test_legacy_names_keep_their_cell_ids(self):
        legacy = CampaignSpec(topologies=("abilene",), schemes=("reconvergence",))
        mixed = CampaignSpec(topologies=("Abilene",), schemes=("reconvergence",))
        [a], [b] = legacy.cells(), mixed.cells()
        assert legacy.topologies == ("abilene",)
        assert a.cell_id == b.cell_id

    def test_bad_params_fail_at_spec_construction(self):
        with pytest.raises(TopologyError):
            CampaignSpec(topologies=("ring:blast=9",), schemes=("reconvergence",))


class TestCrossProcessDeterminism:
    #: Parameterized synthetic instances must hash identically in a fresh
    #: interpreter: campaign workers build topologies independently and any
    #: process-dependent state (hash randomisation, import order) leaking
    #: into generation would silently shear the grid.
    SPECS = (
        "waxman:size=20,seed=5",
        "barabasi-albert:m=2,seed=5,size=20",
        "er-giant:probability=0.15,seed=5,size=24",
        "random-connected:extra=8,seed=5,size=16",
    )

    def test_fresh_interpreter_builds_identical_graphs(self):
        script = (
            "import hashlib\n"
            "from repro.topologies import corpus\n"
            f"for spec in {self.SPECS!r}:\n"
            "    graph = corpus.build_topology(spec)\n"
            "    payload = repr((graph.nodes(), graph.to_edge_list()))\n"
            "    print(hashlib.sha256(payload.encode('utf-8')).hexdigest())\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
        )
        remote = completed.stdout.split()
        local = [edge_list_digest(corpus.build_topology(spec)) for spec in self.SPECS]
        assert remote == local
