"""Integration tests exercising the whole pipeline the way a user would."""

import pytest

from repro.api import build_packet_recycling
from repro.baselines.fcp import FailureCarryingPackets
from repro.baselines.reconvergence import Reconvergence
from repro.core.scheme import PacketRecycling
from repro.embedding.serialization import load_embedding, save_embedding
from repro.experiments.stretch import run_stretch_experiment
from repro.failures.sampling import sample_multi_link_failures
from repro.failures.scenarios import single_link_failures
from repro.forwarding.headers import DscpCodec
from repro.topologies.parser import save_graph, load_graph
from repro.topologies.corpus import build_topology


class TestOfflinePipeline:
    """Topology file -> embedding file -> forwarding plane, as deployed."""

    def test_full_offline_then_online_flow(self, tmp_path):
        # 1. Operator exports the topology.
        topology_path = save_graph(build_topology("abilene"), tmp_path / "abilene.topo")
        graph = load_graph(topology_path)

        # 2. The offline server computes and stores the embedding.
        pr = build_packet_recycling(graph)
        embedding_path = save_embedding(pr.embedding, tmp_path / "abilene.embedding.json")

        # 3. Routers load the published embedding and build their tables.
        loaded = load_embedding(embedding_path)
        deployed = PacketRecycling(loaded.graph, embedding=loaded)

        # 4. Failure-time behaviour matches the instance built directly.
        failed = loaded.graph.edge_ids_between("Denver", "KansasCity")
        original = pr.deliver("Seattle", "KansasCity", failed_links=failed)
        redeployed = deployed.deliver("Seattle", "KansasCity", failed_links=failed)
        assert original.delivered and redeployed.delivered
        assert original.path == redeployed.path

    def test_header_fields_fit_in_dscp_pool2_on_abilene(self, abilene_pr):
        codec = DscpCodec()
        worst_dd = max(
            abilene_pr.routing.discriminator(node, destination)
            for node in abilene_pr.graph.nodes()
            for destination in abilene_pr.graph.nodes()
            if node != destination
        )
        encoded = codec.encode(True, worst_dd)
        assert codec.decode(encoded) == (True, int(worst_dd))


class TestCrossSchemeConsistency:
    def test_identical_workload_identical_baseline_costs(self, abilene_graph, abilene_pr):
        schemes = [Reconvergence(abilene_graph), FailureCarryingPackets(abilene_graph), abilene_pr]
        scenarios = single_link_failures(abilene_graph)[:5]
        result = run_stretch_experiment(abilene_graph, scenarios, schemes)
        baselines = {
            name: sorted(sample.baseline_cost for sample in samples)
            for name, samples in result.samples.items()
        }
        values = list(baselines.values())
        assert values[0] == values[1] == values[2]

    def test_multi_failure_experiment_on_geant(self, geant_graph):
        pr = PacketRecycling(geant_graph, embedding_seed=0)
        scenarios = sample_multi_link_failures(geant_graph, failures=16, samples=3, seed=5)
        result = run_stretch_experiment(geant_graph, scenarios, schemes=[pr])
        assert result.delivery_ratio["Packet Re-cycling"] == 1.0

    def test_failure_free_costs_identical_across_schemes(self, abilene_graph, abilene_pr):
        fcp = FailureCarryingPackets(abilene_graph)
        for source, destination in [("Seattle", "NewYork"), ("Houston", "Chicago")]:
            assert abilene_pr.deliver(source, destination).cost == pytest.approx(
                fcp.deliver(source, destination).cost
            )
