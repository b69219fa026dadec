"""Traffic flows for the discrete-event simulator."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.errors import SimulationError


@dataclass(frozen=True)
class TrafficFlow:
    """A constant-bit-rate packet flow.

    Attributes
    ----------
    source, destination:
        Endpoints of the flow (router names).
    rate_pps:
        Packets emitted per second, evenly spaced.
    packet_size_bytes:
        Size of every packet (the paper's motivating example uses 1 kB).
    start, end:
        Emission window in simulation seconds.
    """

    source: str
    destination: str
    rate_pps: float
    packet_size_bytes: int = 1000
    start: float = 0.0
    end: float = 1.0

    def __post_init__(self) -> None:
        if self.rate_pps <= 0:
            raise SimulationError("flow rate must be positive")
        if self.end <= self.start:
            raise SimulationError("flow end time must be after its start time")
        if self.packet_size_bytes <= 0:
            raise SimulationError("packet size must be positive")

    @property
    def interval(self) -> float:
        """Seconds between consecutive packet emissions."""
        return 1.0 / self.rate_pps

    def emission_times(self) -> List[float]:
        """Every emission instant: ``start + k * interval`` while before ``end``."""
        times = []
        emission = self.start
        while emission < self.end:
            times.append(emission)
            emission = self.start + len(times) * self.interval
        return times

    @property
    def total_packets(self) -> int:
        """Number of packets emitted over the whole window."""
        return len(self.emission_times())

    @property
    def rate_bps(self) -> float:
        """Offered load in bits per second."""
        return self.rate_pps * self.packet_size_bytes * 8.0
