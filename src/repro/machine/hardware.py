"""Live hardware objects: per-node NIC pipes and memory buses.

These wrap :class:`~repro.sim.resources.RateLimiter` instances so that
concurrent simulated ranks contend for the *shared* facilities of their
node — the NIC's injection/extraction pipelines and the aggregate
memory-copy bandwidth — while per-core costs are paid inline by each
rank coroutine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from ..sim import Event, RateLimiter, Simulator
from .params import MachineParams

if TYPE_CHECKING:  # pragma: no cover - typing only
    pass


class NodeHardware:
    """The shared facilities of one node."""

    __slots__ = ("sim", "params", "node_id", "tx", "rx", "membus",
                 "tx_messages", "rx_messages",
                 "_copy_latency", "_copy_byte", "_bus_byte")

    def __init__(self, sim: Simulator, params: MachineParams, node_id: int) -> None:
        self.sim = sim
        self.params = params
        self.node_id = node_id
        #: NIC injection pipeline (bounded by msg_gap / byte_gap).
        self.tx = RateLimiter(sim)
        #: NIC extraction pipeline.
        self.rx = RateLimiter(sim)
        #: Aggregate intra-node copy bandwidth.
        self.membus = RateLimiter(sim)
        self.tx_messages = 0
        self.rx_messages = 0
        # Copy-cost coefficients, hoisted out of the per-message path.
        self._copy_latency = params.memory.copy_latency
        self._copy_byte = params.memory.copy_byte_time
        self._bus_byte = params.memory.bus_byte_time

    # -- NIC --------------------------------------------------------
    def inject(self, nbytes: int) -> Event:
        """Queue ``nbytes`` on the TX pipe; event fires when on the wire."""
        self.tx_messages += 1
        return self.tx.occupy(self.params.nic.wire_time(nbytes))

    def extract(self, nbytes: int) -> Event:
        """Queue ``nbytes`` on the RX pipe; event fires when drained."""
        self.rx_messages += 1
        return self.rx.occupy(self.params.nic.wire_time(nbytes))

    # -- memory -----------------------------------------------------
    def copy_cost(self, nbytes: int) -> float:
        """Charge one memcpy of ``nbytes``; returns its duration.

        The duration is ``max(single-core time, bus-queue completion)``:
        the calling rank is blocked for the core copy time, and the
        copy's bus share is *reserved* so that many concurrent copies
        slow each other down — but because the bus is a FIFO pipe, the
        completion time is known immediately, so callers need only one
        scheduled event.  This method mutates bus state: call it
        exactly once per modeled copy, at the simulated instant the
        copy starts.
        """
        now = self.sim.now
        core_done = now + self._copy_latency + nbytes * self._copy_byte
        bus_done = self.membus.reserve(nbytes * self._bus_byte)
        return (core_done if core_done > bus_done else bus_done) - now

    def mem_copy(self, nbytes: int):
        """Generator: one user-space memcpy of ``nbytes`` on this node.

        Usage: ``yield from node.mem_copy(n)`` — blocks the calling
        rank for :meth:`copy_cost`.
        """
        yield self.sim.timeout(self.copy_cost(nbytes))


class ClusterHardware:
    """All nodes of the simulated cluster."""

    def __init__(self, sim: Simulator, params: MachineParams) -> None:
        self.sim = sim
        self.params = params
        self.nodes: List[NodeHardware] = [
            NodeHardware(sim, params, node_id) for node_id in range(params.nodes)
        ]

    def __getitem__(self, node_id: int) -> NodeHardware:
        return self.nodes[node_id]

    def __len__(self) -> int:
        return len(self.nodes)
