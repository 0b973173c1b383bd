"""Two-level fat-tree switch fabric with optional oversubscription.

The flat network model prices a message as TX pipe → wire latency → RX
pipe, which assumes full bisection bandwidth.  Real clusters (the
paper's included) hang nodes off leaf switches whose uplinks may be
oversubscribed; when many pods talk at once the uplinks, not the NICs,
become the bottleneck.

Model
-----
* nodes are grouped into *pods* of ``pod_size`` under one leaf switch;
* intra-pod messages hop through the leaf only (``leaf_latency``);
* inter-pod messages additionally cross the pod's **uplink pipes**
  (one up, one down) and a spine hop; the uplink's aggregate
  bandwidth is ``pod_size / oversubscription × link bandwidth`` — at
  ``oversubscription=1`` the fabric is non-blocking and behaves like
  the flat model plus switch latencies.

Probes (per-pod byte counters) let tests and ablations attribute
congestion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..sim import RateLimiter, Simulator
from .params import MachineParams


@dataclass(frozen=True)
class FabricParams:
    """Fat-tree shape and cost knobs."""

    pod_size: int = 16
    oversubscription: float = 1.0
    leaf_latency: float = 2.0e-7
    spine_latency: float = 3.0e-7

    def __post_init__(self) -> None:
        if self.pod_size < 1:
            raise ValueError(f"pod_size must be >= 1, got {self.pod_size}")
        if self.oversubscription < 1.0:
            raise ValueError(
                f"oversubscription must be >= 1 (1 = non-blocking), "
                f"got {self.oversubscription}"
            )
        for name in ("leaf_latency", "spine_latency"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


class PodUplink:
    """One pod's up/down pipes to the spine."""

    __slots__ = ("up", "down", "bytes_up", "bytes_down")

    def __init__(self, sim: Simulator) -> None:
        self.up = RateLimiter(sim)
        self.down = RateLimiter(sim)
        self.bytes_up = 0
        self.bytes_down = 0


class Fabric:
    """Live fabric state for one cluster."""

    def __init__(self, sim: Simulator, params: MachineParams,
                 fabric: FabricParams) -> None:
        self.sim = sim
        self.params = params
        self.fp = fabric
        n_pods = -(-params.nodes // fabric.pod_size)
        self.uplinks: List[PodUplink] = [PodUplink(sim) for _ in range(n_pods)]
        # Effective per-byte time on an uplink: the uplink carries the
        # whole pod's inter-pod traffic at pod_size/oversub × link rate.
        per_pod_capacity = fabric.pod_size / fabric.oversubscription
        self.uplink_byte_gap = params.nic.byte_gap / per_pod_capacity
        self.uplink_msg_gap = params.nic.msg_gap / per_pod_capacity

    @property
    def n_pods(self) -> int:
        """Number of leaf switches."""
        return len(self.uplinks)

    def pod_of(self, node: int) -> int:
        """Pod (leaf switch) hosting ``node``."""
        return node // self.fp.pod_size

    def same_pod(self, a: int, b: int) -> bool:
        """True when two nodes share a leaf switch."""
        return self.pod_of(a) == self.pod_of(b)

    def uplink_time(self, nbytes: int) -> float:
        """Service time of one message on an uplink pipe."""
        return max(self.uplink_msg_gap, nbytes * self.uplink_byte_gap)

    def total_interpod_bytes(self) -> int:
        """Bytes that crossed any uplink (congestion probe)."""
        return sum(u.bytes_up for u in self.uplinks)
