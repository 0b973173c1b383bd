"""The World: wires machine, PiP substrate, transports and ranks together."""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Union

from ..machine import Cluster, ClusterHardware, MachineParams
from ..pip import NodeBarrier, spawn_tasks
from ..machine.params import MemoryParams
from ..sim import Simulator
from ..sim.spec import EngineSpec, resolve_engine
from ..machine.fabric import FabricParams
from ..transport import NetworkTransport, Transport, make_transport
from .buffer import BaseBuffer, alloc
from .communicator import Communicator
from .context import RankContext
from .matching import MatchingEngine

#: a rank program: ``program(ctx, *args)`` yielding simulation events
RankProgram = Callable[..., Any]


class _LoopbackTransport(Transport):
    """Self-sends: free and instant (they never leave the rank)."""

    name = "loopback"

    def sender_flat_time(self, node, desc):
        return 0.0

    def receiver_flat_time(self, node, desc):
        return 0.0


class World:
    """One simulated MPI job.

    Parameters
    ----------
    params:
        The machine (see :mod:`repro.machine.presets`).
    intra:
        Intra-node transport — a registry name
        (``"posix_shmem" | "cma" | "xpmem" | "pip" | "pip_sizesync"``)
        or a :class:`Transport` instance.
    functional:
        When True (default) buffers are numpy-backed and every byte
        really moves; when False buffers are size-only (full-scale
        timing runs).
    pip_enabled:
        Whether node address spaces are shared.  Defaults to the
        transport's capability; passing an explicit value lets tests
        build deliberately broken configurations.
    faults:
        A :class:`~repro.faults.FaultPlan` (or a fresh
        :class:`~repro.faults.FaultInjector`) to bind to this world.
        ``None`` (default) keeps the zero-overhead perfect-wire path.
    reliable:
        Use :class:`~repro.transport.ReliableNetworkTransport`
        (ack/timeout/retransmit) for inter-node eager traffic, so
        wire-layer faults are recovered (at a time cost) instead of
        being permanent losses.
    obs:
        A :class:`~repro.obs.SpanRecorder` to bind to this world: it
        takes this world's clock and records spans at every
        instrumentation site (collectives, rounds, messages, sync
        waits, retransmit backoffs).  ``None`` (default) keeps every
        instrumentation site a single attribute check.
    engine:
        ``"calendar"`` (default) — calendar queue plus the macro-event
        fast path: blocking pt2pt calls run fused generators (no
        request objects, no Timeout events, batched message
        completion) that reproduce the reference path's timestamps
        *exactly*; the fast path disarms itself whenever faults or a
        span recorder are attached (those need the full
        choreography).  ``"reference"`` — heap queue, reference
        path; the differential tests run both and assert identical
        results.  A resolved :class:`~repro.sim.spec.EngineSpec` is
        accepted too.  The outcome of
        :func:`~repro.sim.spec.resolve_engine` is queryable as
        ``world.engine``.  See ``docs/ENGINE.md``.
    resources:
        Attach a :class:`~repro.obs.resources.ResourceMonitor`
        recording per-resource busy/queue timelines.  Unlike ``obs``,
        this does *not* disarm the fast path — the hooks sit in the
        pipe reservation funnel shared by both engine paths, so the
        recorded telemetry is identical either way.
    ft:
        Attach the ULFM-style fault-tolerance layer
        (:class:`~repro.ft.FTRuntime`): ``True`` with default
        :class:`~repro.ft.FtParams`, or an ``FtParams`` instance.  The
        layer *arms* only when a fault injector is also bound — with
        ``faults=None`` every collective takes the plain path and the
        run is bit- and timestamp-identical to ``ft=False``.
    """

    def __init__(
        self,
        params: MachineParams,
        intra: Union[str, Transport] = "posix_shmem",
        functional: bool = True,
        pip_enabled: Optional[bool] = None,
        fabric: Optional["FabricParams"] = None,
        faults: Optional[Any] = None,
        reliable: bool = False,
        obs: Optional[Any] = None,
        resources: bool = False,
        ft: Union[bool, Any] = False,
        engine: Union[str, EngineSpec, None] = None,
    ) -> None:
        self.params = params
        #: the resolved :class:`~repro.sim.spec.EngineSpec` — the one
        #: place engine selection and auto-downgrade rules are applied
        self.engine = resolve_engine(
            engine,
            faults=faults is not None,
            obs=obs is not None,
        )
        self.sim = Simulator(queue=self.engine.queue)
        self.cluster = Cluster(params.nodes, params.ppn)
        self.hw = ClusterHardware(self.sim, params)
        self.intra = make_transport(intra) if isinstance(intra, str) else intra
        #: bound FaultInjector, or None (the default, zero-overhead)
        self.faults = None
        if faults is not None:
            from ..faults import FaultInjector, FaultPlan

            injector = FaultInjector(faults) if isinstance(faults, FaultPlan) \
                else faults
            injector.bind(self)
            self.faults = injector
        if fabric is not None:
            if reliable:
                raise ValueError(
                    "reliable delivery is modeled on the flat network only; "
                    "pass fabric=None (fat-tree links model their own "
                    "link-level retry)"
                )
            from ..machine.fabric import Fabric
            from ..transport.fabric_network import FabricNetworkTransport

            #: live fat-tree state (None for the flat full-bisection model)
            self.fabric = Fabric(self.sim, params, fabric)
            self.network = FabricNetworkTransport(self.fabric)
        elif reliable:
            from ..transport import ReliableNetworkTransport

            self.fabric = None
            self.network = ReliableNetworkTransport(injector=self.faults)
        else:
            self.fabric = None
            self.network = NetworkTransport()
        #: bound SpanRecorder, or None.  The network transport gets it
        #: too, so its retransmit path can annotate backoff windows.
        self.obs = obs
        if obs is not None:
            obs.bind(self.sim)
            self.network.obs = obs
        self.loopback = _LoopbackTransport()
        self.functional = functional
        if pip_enabled is None:
            pip_enabled = self.intra.supports_peer_views
        self.pip_enabled = pip_enabled
        self.tasks = spawn_tasks(self.cluster, pip_enabled)
        self.matching: List[MatchingEngine] = [
            MatchingEngine() for _ in range(self.cluster.world_size)
        ]
        # Communicators: world, one per node, and the leaders' comm.
        self.comm_world = Communicator(0, range(self.cluster.world_size), "world")
        self.node_comms: List[Communicator] = [
            Communicator(1 + node, self.cluster.ranks_on_node(node), f"node{node}")
            for node in range(self.cluster.nodes)
        ]
        self.leader_comm = Communicator(
            1 + self.cluster.nodes, self.cluster.leaders(), "leaders"
        )
        self.node_barriers: List[NodeBarrier] = [
            NodeBarrier(self.sim, params.memory, params.ppn)
            for _ in range(self.cluster.nodes)
        ]
        # Zero-cost alignment barrier for harness timing.
        self.hard_sync_barrier = NodeBarrier(
            self.sim,
            MemoryParams(flag_latency=0.0),
            self.cluster.world_size,
        )
        self._interned_comms: dict = {}
        self._next_comm_id = 2 + self.cluster.nodes
        #: comm_id → Communicator for every communicator this world
        #: knows about (built-ins, interned splits, FT control comms):
        #: how pending-receive patterns resolve back to world ranks.
        self.comms_by_id: dict = {self.comm_world.comm_id: self.comm_world}
        for comm in self.node_comms:
            self.comms_by_id[comm.comm_id] = comm
        self.comms_by_id[self.leader_comm.comm_id] = self.leader_comm
        #: macro-event fast path armed?  Anything that must observe the
        #: full per-message choreography (faults, obs) clears it —
        #: resolved once by :func:`~repro.sim.spec.resolve_engine`.
        self._fast = self.engine.fastpath
        self.contexts: List[RankContext] = [
            RankContext(self, rank) for rank in range(self.cluster.world_size)
        ]
        #: bound ResourceMonitor, or None — fast-path safe (see above)
        self.resources = None
        if resources:
            self.attach_resources()
        #: bound FTRuntime, or None (the default, zero-overhead)
        self.ft = None
        if ft:
            from ..ft import FtParams
            from ..ft.runtime import FTRuntime

            fparams = FtParams() if ft is True else ft
            self.ft = FTRuntime(self, fparams)

    def attach_resources(self):
        """Attach (or return the existing) resource-utilization monitor.

        Safe under the fast path: the recording hooks live in
        :meth:`~repro.sim.resources.RateLimiter.reserve`, which both
        engine paths hit with identical timestamps.
        """
        if self.resources is None:
            from ..obs.resources import ResourceMonitor

            self.resources = ResourceMonitor(self)
        return self.resources

    def node_of(self) -> dict:
        """rank → node id mapping (Perfetto process grouping)."""
        return {rank: self.cluster.node_of(rank)
                for rank in range(self.cluster.world_size)}

    def intern_comm(self, world_ranks) -> Communicator:
        """The shared :class:`Communicator` for an ordered rank tuple.

        Every rank of a ``comm_split`` group computes the same member
        list; interning guarantees they all use the *same* object (and
        therefore the same matching context), like a real communicator
        id agreement.
        """
        key = tuple(world_ranks)
        comm = self._interned_comms.get(key)
        if comm is None:
            comm = Communicator(self._next_comm_id, key, f"split{self._next_comm_id}")
            self._next_comm_id += 1
            self._interned_comms[key] = comm
            self.comms_by_id[comm.comm_id] = comm
        return comm

    # -- allocation ---------------------------------------------------------
    def alloc(self, nbytes: int) -> BaseBuffer:
        """A buffer in this world's functional mode."""
        return alloc(nbytes, functional=self.functional)

    # -- delivery -------------------------------------------------------------
    def deliver(self, desc) -> None:
        """Hand an arrived message to its destination's matching engine.

        The single funnel every transport's completion goes through —
        which is where a bound :class:`~repro.faults.FaultInjector`
        gets to sabotage delivery.  Without one this is a plain
        forward (no extra events, so the perf budgets hold).
        """
        engine = self.matching[desc.dst_world]
        if self.faults is not None:
            self.faults.deliver_hook(desc, engine)
        else:
            engine.deliver(desc)

    # -- execution ------------------------------------------------------------
    def run(
        self,
        program: RankProgram,
        args: Sequence[Any] = (),
        per_rank_args: Optional[Sequence[Sequence[Any]]] = None,
        allow_unfinished: bool = False,
        watchdog: Optional[float] = None,
    ) -> List[Any]:
        """Run ``program(ctx, *args)`` on every rank to completion.

        ``per_rank_args`` (one tuple per rank) overrides ``args`` when
        ranks need distinct inputs.  Returns each rank's return value,
        indexed by world rank.  May be called repeatedly on the same
        world; simulated time keeps advancing.

        If the event queue drains while some ranks are still blocked —
        a deadlock (e.g. an unmatched receive) — a
        :class:`~repro.runtime.errors.MpiError` names the stuck ranks,
        with a per-rank report of what each is blocked on.  Pass
        ``allow_unfinished=True`` to get ``None`` for them instead
        (fault-injection tests use this).

        ``watchdog`` (simulated seconds, measured from the current
        clock) bounds the run: if ranks are still busy past the
        deadline a :class:`~repro.runtime.errors.TimeoutError` carries
        the same blocked report — the escape hatch for livelocks and
        runaway retransmission storms.
        """
        if per_rank_args is not None and len(per_rank_args) != self.cluster.world_size:
            raise ValueError(
                f"per_rank_args has {len(per_rank_args)} entries for "
                f"{self.cluster.world_size} ranks"
            )
        procs = []
        for rank, ctx in enumerate(self.contexts):
            rank_args = per_rank_args[rank] if per_rank_args is not None else args
            procs.append(self.sim.process(program(ctx, *rank_args), name=f"rank{rank}"))
        if watchdog is not None:
            deadline = self.sim.now + watchdog
            self.sim.run(until=deadline)
            unfinished = [r for r, p in enumerate(procs) if not p.triggered]
            if unfinished and self.sim.peek() != float("inf"):
                from .errors import TimeoutError

                raise TimeoutError(
                    f"watchdog: {watchdog:g}s of simulated time expired with "
                    f"ranks {unfinished} still running\n"
                    + self.blocked_report(unfinished)
                )
        else:
            self.sim.run()
        stuck = [rank for rank, proc in enumerate(procs) if not proc.triggered]
        if stuck and not allow_unfinished:
            from .errors import MpiError

            shown = ", ".join(map(str, stuck))
            raise MpiError(
                f"deadlock: ranks [{shown}] never finished — "
                "likely an unmatched send/recv or a barrier someone skipped\n"
                + self.blocked_report(stuck)
            )
        return [proc.value if proc.triggered else None for proc in procs]

    def blocked_report(self, ranks: Sequence[int],
                       max_lines: int = 32) -> str:
        """Per-rank diagnosis of what each blocked rank is waiting on.

        Combines the matching engines' pending receive patterns, each
        context's last point-to-point operation, and (with faults
        bound) crash knowledge into one readable report.  Ranks blocked
        on a crashed peer only *transitively* (waiting on a live rank
        that is itself waiting on the corpse) get the root cause named
        too — the line a hang report is actually read for.
        """
        causes = self._root_causes() if self.faults is not None else {}
        excluded = self.ft.excluded if self.ft is not None else ()
        lines = []
        for rank in list(ranks)[:max_lines]:
            engine = self.matching[rank]
            ctx = self.contexts[rank]
            if self.faults is not None and self.faults.is_crashed(rank, self.sim.now):
                lines.append(f"  rank {rank}: crashed (fail-stop at "
                             f"t={self.faults.crash_time(rank):g}s)")
                continue
            if rank in excluded:
                lines.append(f"  rank {rank}: excluded by the "
                             "fault-tolerance layer (agreed out of the "
                             "membership; frozen by design)")
                continue
            cause = causes.get(rank)
            suffix = ""
            if cause is not None:
                suffix = (f" [root cause: rank {cause} crashed "
                          f"(fail-stop at "
                          f"t={self.faults.crash_time(cause):g}s)]")
            pending = engine.pending_patterns()
            if pending:
                shown = ", ".join(
                    f"recv(src={'ANY' if src == -1 else src}, "
                    f"tag={'ANY' if tag == -1 else tag})"
                    for src, tag in pending[:4]
                )
                more = f" (+{len(pending) - 4} more)" if len(pending) > 4 else ""
                lines.append(f"  rank {rank}: blocked on {shown}{more}{suffix}")
            elif ctx.last_op is not None:
                op, peer, tag = ctx.last_op
                lines.append(f"  rank {rank}: last op was "
                             f"{op}(peer={peer}, tag={tag}) — "
                             f"waiting on its completion{suffix}")
            else:
                lines.append(f"  rank {rank}: no pending receives — "
                             f"blocked in a barrier/flag wait{suffix}")
            if engine.unexpected_messages:
                lines.append(f"           ({engine.unexpected_messages} "
                             "unexpected messages queued but unmatched)")
        if len(ranks) > max_lines:
            lines.append(f"  ... +{len(ranks) - max_lines} more ranks")
        return "\n".join(lines)

    def _waits_on(self, rank: int) -> set:
        """World ranks ``rank`` is currently waiting to hear from.

        Derived from the matching engine's pending receive patterns
        (comm ranks resolved through :attr:`comms_by_id`) plus the
        context's last dispatched op when nothing is posted (a send
        whose completion never came).  Wildcard sources contribute
        nothing — they cannot name a peer.
        """
        peers = set()
        pending = self.matching[rank].pending_details()
        for comm_id, src, _tag in pending:
            if src == -1:
                continue
            comm = self.comms_by_id.get(comm_id)
            if comm is not None:
                peers.add(comm.to_world(src))
        if not pending:
            last = self.contexts[rank].last_op
            if last is not None and last[1] is not None and last[1] >= 0:
                peers.add(last[1])
        return peers

    def _root_causes(self) -> dict:
        """rank → crashed rank it is (transitively) blocked on.

        BFS over the wait-for graph from each stuck rank; the first
        crashed rank reached (lowest rank number on ties) is the root
        cause.  Only meaningful with a fault injector bound.
        """
        now = self.sim.now
        faults = self.faults
        crashed = {r for r in range(self.cluster.world_size)
                   if faults.is_crashed(r, now)}
        if not crashed:
            return {}
        causes = {}
        for rank in range(self.cluster.world_size):
            if rank in crashed:
                continue
            seen = {rank}
            frontier = [rank]
            found = None
            while frontier and found is None:
                nxt = []
                for r in frontier:
                    for peer in sorted(self._waits_on(r)):
                        if peer in crashed:
                            found = peer
                            break
                        if peer not in seen:
                            seen.add(peer)
                            nxt.append(peer)
                    if found is not None:
                        break
                frontier = nxt
            if found is not None:
                causes[rank] = found
        return causes

    # -- diagnostics -------------------------------------------------------------
    def stats(self) -> dict:
        """Hardware utilisation counters (probe for tests/reports).

        Returns per-run totals: messages injected/extracted by NICs,
        NIC pipe busy times, memory-bus busy time, and (when a fabric
        is attached) inter-pod bytes.
        """
        out = {
            "tx_messages": sum(n.tx_messages for n in self.hw.nodes),
            "rx_messages": sum(n.rx_messages for n in self.hw.nodes),
            "tx_busy_s": sum(n.tx.busy_time for n in self.hw.nodes),
            "rx_busy_s": sum(n.rx.busy_time for n in self.hw.nodes),
            "membus_busy_s": sum(n.membus.busy_time for n in self.hw.nodes),
            "sim_events": self.sim.event_count,
            "sim_time_s": self.sim.now,
            "inject_msgs": sum(c.nic_msgs for c in self.contexts),
            "inject_bytes": sum(c.nic_bytes for c in self.contexts),
        }
        if self.fabric is not None:
            out["interpod_bytes"] = self.fabric.total_interpod_bytes()
        retransmits = getattr(self.network, "retransmits", None)
        if retransmits is not None:
            out["retransmits"] = retransmits
            out["acks"] = self.network.acks
        if self.faults is not None:
            out["faults_injected"] = len(self.faults.events)
        return out

    def assert_quiescent(self) -> None:
        """Raise if any matching engine still holds messages/receives.

        Called by tests after collectives to prove no message leaks.
        Ranks that fail-stopped (their engines keep their last posted
        receives forever) and ranks the fault-tolerance layer agreed
        out of the membership are exempt — nothing will ever run on
        them again, so their leftover state is not a leak.
        """
        excluded = set(self.ft.excluded) if self.ft is not None else set()
        if self.faults is not None:
            now = self.sim.now
            excluded |= {r for r in range(self.cluster.world_size)
                         if self.faults.is_crashed(r, now)}
        for rank, engine in enumerate(self.matching):
            if rank in excluded:
                continue
            if engine.unexpected_messages:
                raise AssertionError(
                    f"rank {rank}: {engine.unexpected_messages} unexpected "
                    "messages left behind"
                )
            if engine.pending_receives:
                raise AssertionError(
                    f"rank {rank}: {engine.pending_receives} receives never matched"
                )
