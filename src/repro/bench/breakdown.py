"""Collective profiling: where the simulated time goes.

:func:`profile_collective` runs one collective under a
:class:`~repro.obs.SpanRecorder` and reduces the derived metrics plus
hardware counters into an attribution report: message counts and bytes
per transport, NIC/bus busy time, and the headline latency.  The CLI
exposes it as ``python -m repro profile``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Union

from ..machine import MachineParams
from ..mpilibs import MpiLibrary, make_library
from ..obs import SpanRecorder
from .harness import _buffers, _invoke


@dataclass
class CollectiveProfile:
    """Attribution report for one collective execution."""

    library: str
    collective: str
    nbytes: int
    latency_us: float
    messages_by_transport: Dict[str, int] = field(default_factory=dict)
    bytes_by_transport: Dict[str, int] = field(default_factory=dict)
    nic_tx_busy_us: float = 0.0
    membus_busy_us: float = 0.0
    sim_events: int = 0

    @property
    def total_messages(self) -> int:
        """Messages that crossed any transport (self-sends excluded)."""
        return sum(self.messages_by_transport.values())

    @property
    def total_bytes(self) -> int:
        """Payload bytes moved through transports."""
        return sum(self.bytes_by_transport.values())

    def format(self) -> str:
        """Human-readable report."""
        lines = [
            f"{self.library} {self.collective} {self.nbytes} B: "
            f"{self.latency_us:.2f} us",
            f"  messages: {self.total_messages}  "
            f"payload: {self.total_bytes} B  events: {self.sim_events}",
        ]
        for name in sorted(self.messages_by_transport):
            lines.append(
                f"    {name:14s} {self.messages_by_transport[name]:6d} msgs"
                f"  {self.bytes_by_transport[name]:10d} B"
            )
        lines.append(
            f"  NIC tx busy {self.nic_tx_busy_us:.2f} us, "
            f"membus busy {self.membus_busy_us:.2f} us"
        )
        return "\n".join(lines)


def profile_collective(
    library: Union[str, MpiLibrary],
    collective: str,
    nbytes: int,
    params: MachineParams,
    root: int = 0,
) -> CollectiveProfile:
    """Run one (warm) collective invocation under a span recorder."""
    lib = make_library(library) if isinstance(library, str) else library
    recorder = SpanRecorder()
    world = lib.make_world(params, functional=False, obs=recorder)
    size = world.comm_world.size
    algo = lib.wrapped(collective, nbytes, size)

    def program(ctx):
        bufs = _buffers(ctx, collective, nbytes, size, root)
        lats = []
        for it in range(2):  # warmup + measured
            yield from ctx.hard_sync()
            if it == 1 and ctx.rank == 0:
                # All ranks are aligned and every warmup delivery has
                # been recorded; wipe the warmup exactly once (closed
                # spans + metrics; in-flight spans survive).
                recorder.reset()
            t0 = ctx.now
            yield from _invoke(algo, ctx, bufs, collective, root)
            lats.append(ctx.now - t0)
        return lats[-1]

    per_rank = world.run(program)
    world.assert_quiescent()
    profile = CollectiveProfile(
        library=lib.profile.name,
        collective=collective,
        nbytes=nbytes,
        latency_us=max(per_rank) * 1e6,
    )
    metrics = recorder.metrics
    profile.messages_by_transport = {
        k: int(v) for k, v in
        metrics.by_label("messages_total", "transport").items()}
    profile.bytes_by_transport = {
        k: int(v) for k, v in
        metrics.by_label("bytes_total", "transport").items()}
    stats = world.stats()
    profile.nic_tx_busy_us = stats["tx_busy_s"] * 1e6
    profile.membus_busy_us = stats["membus_busy_s"] * 1e6
    profile.sim_events = stats["sim_events"]
    return profile


def measure_attribution(
    library: Union[str, MpiLibrary],
    collective: str,
    nbytes: int,
    params: MachineParams,
    functional: bool = False,
    root: int = 0,
):
    """LogGP attribution of one (warm) collective invocation.

    Same pattern as :func:`profile_collective` — fresh world, span
    recorder, one warmup call, recorder wiped at a hard-sync point,
    one measured call — then
    :func:`repro.obs.attribution.attribute` decomposes the measured
    window along its critical path.  Returns the
    :class:`~repro.obs.attribution.Attribution` (components sum to the
    measured window exactly; ``.check()`` asserts it).
    """
    from ..obs import attribute

    lib = make_library(library) if isinstance(library, str) else library
    recorder = SpanRecorder()
    world = lib.make_world(params, functional=functional, obs=recorder)
    size = world.comm_world.size
    algo = lib.wrapped(collective, nbytes, size)

    def program(ctx):
        bufs = _buffers(ctx, collective, nbytes, size, root)
        for it in range(2):  # warmup + measured
            yield from ctx.hard_sync()
            if it == 1 and ctx.rank == 0:
                recorder.reset()
            yield from _invoke(algo, ctx, bufs, collective, root)

    world.run(program)
    world.assert_quiescent()
    att = attribute(recorder.tree(), collective, params)
    att.check()
    return att
