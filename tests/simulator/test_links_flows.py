"""Tests for link models and traffic flows."""

import pytest

from repro.errors import SimulationError
from repro.simulator.flows import TrafficFlow
from repro.simulator.links import OC192, LinkModel


class TestLinkModel:
    def test_serialization_delay(self):
        link = LinkModel(capacity_bps=8000.0)
        assert link.serialization_delay(1000) == pytest.approx(1.0)

    def test_fixed_propagation_delay(self):
        link = LinkModel(propagation_delay_s=0.01)
        assert link.propagation_delay(1234.0) == 0.01

    def test_distance_based_propagation(self):
        link = LinkModel(delay_per_km_s=5e-6)
        assert link.propagation_delay(1000.0) == pytest.approx(0.005)

    def test_oc192_constants(self):
        assert OC192.capacity_bps == pytest.approx(9.95328e9)
        # A 1 kB packet takes under a microsecond to serialise on OC-192.
        assert OC192.serialization_delay(1000) < 1e-6


class TestTrafficFlow:
    def test_packet_count_and_interval(self):
        flow = TrafficFlow("a", "b", rate_pps=100.0, start=0.0, end=2.0)
        assert flow.total_packets == 200
        assert flow.interval == pytest.approx(0.01)

    @pytest.mark.parametrize("rate_pps, end, packets", [(1.0, 1.5, 2), (7.0, 0.2, 2)])
    def test_packet_count_matches_emissions(self, rate_pps, end, packets):
        # A window that is not a whole number of intervals still emits at
        # its start and at every later interval before the end.
        flow = TrafficFlow("a", "b", rate_pps=rate_pps, start=0.0, end=end)
        assert flow.total_packets == packets
        assert flow.emission_times()[0] == 0.0
        assert flow.emission_times()[-1] < end

    def test_rate_bps(self):
        flow = TrafficFlow("a", "b", rate_pps=1000.0, packet_size_bytes=1000)
        assert flow.rate_bps == pytest.approx(8_000_000.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(SimulationError):
            TrafficFlow("a", "b", rate_pps=0.0)
        with pytest.raises(SimulationError):
            TrafficFlow("a", "b", rate_pps=10.0, start=1.0, end=1.0)
        with pytest.raises(SimulationError):
            TrafficFlow("a", "b", rate_pps=10.0, packet_size_bytes=0)
