"""Per-rank API: what a simulated MPI rank can do.

A rank program is a generator taking a :class:`RankContext` and using
``yield from`` on its methods, e.g.::

    def program(ctx):
        buf = ctx.alloc(64)
        if ctx.rank == 0:
            yield from ctx.send(buf.view(), dst=1, tag=7)
        elif ctx.rank == 1:
            yield from ctx.recv(buf.view(), src=0, tag=7)

All rank arguments are communicator ranks (default communicator:
``COMM_WORLD``).  The context also exposes the PiP-only direct-access
primitives (:meth:`expose` / :meth:`peer_buffer` / :meth:`direct_copy`)
that PiP-MColl's collectives are built from; these raise
:class:`~repro.pip.errors.AddressSpaceViolation` under non-PiP
libraries, so tests can prove the baselines aren't cheating.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, List, Optional, Sequence

from ..obs.spans import NULL_SPAN
from ..pip.errors import AddressSpaceViolation
from ..sim import ParkSlot
from ..transport.base import Transport, WireDescriptor
from .buffer import BaseBuffer, BufferView, alloc
from .communicator import Communicator
from .errors import TruncationError
from .message import ANY_SOURCE, Envelope, MessageDescriptor, Status
from .request import OperationRequest, RecvRequest, Request, SendRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .world import World

#: routing kinds (see :class:`Route`)
_LOOP, _INTRA, _NET = 0, 1, 2


def _net_handoff(arg):
    """Queue action: run the network handoff at its instant without
    resuming the sender's generator (the action is pushed in the same
    queue position the resume would occupy, so pipe-reservation order
    is unchanged)."""
    transport, src_hw, dst_hw, desc, world = arg
    transport.schedule_delivery_fast(src_hw, dst_hw, desc, world)


def _intra_handoff(arg):
    """Queue action for the intra-node flag delay."""
    world, flag, desc = arg
    world.sim.call_in(flag, world.deliver, desc)


class Route:
    """How a message travels from one rank's node to a destination.

    Re-deriving the transport, the destination hardware and fast-path
    eligibility on *every* message dominates at paper scale (2304
    ranks × thousands of messages each).  A route depends only on the
    (source node, destination node) pair, so :attr:`World.routes
    <repro.runtime.world.World.routes>` holds one per pair, built on
    first use and shared by every rank of the source node; self-sends
    share the world's ``loop_route``.  Both engine paths route this way.
    """

    __slots__ = ("kind", "transport", "dst_hw", "flag_delay",
                 "eager_limit", "fast")

    def __init__(self, kind: int, transport: Transport, dst_hw=None,
                 fast: bool = True, flag_delay: float = 0.0,
                 eager_limit: Optional[int] = None) -> None:
        self.kind = kind
        self.transport = transport
        self.dst_hw = dst_hw
        #: fused pt2pt path usable (eager messages only, on the network)
        self.fast = fast
        #: intra-node delivery delay (flag visibility)
        self.flag_delay = flag_delay
        #: network eager limit; None for routes without one
        self.eager_limit = eager_limit

    @classmethod
    def between(cls, world: "World", src_node: int, dst_node: int) -> "Route":
        """The route from ``src_node`` to ``dst_node`` (distinct ranks)."""
        dst_hw = world.hw[dst_node]
        if src_node == dst_node:
            transport = world.intra
            delay = transport.delivery_flat_delay(world.hw[src_node]) \
                if transport.fast_pt2pt else None
            return cls(_INTRA, transport, dst_hw, fast=delay is not None,
                       flag_delay=delay if delay is not None else 0.0)
        transport = world.network
        return cls(_NET, transport, dst_hw, fast=transport.fast_pt2pt,
                   eager_limit=world.params.nic.eager_limit)


class RankContext:
    """The face of the runtime, bound to one rank."""

    def __init__(self, world: "World", rank: int) -> None:
        self.world = world
        self.rank = rank
        self.sim = world.sim
        self.cluster = world.cluster
        self.params = world.params
        # Block layout (Cluster): ``rank`` comes from the world's range.
        self.node_id, self.local_rank = divmod(rank, world.cluster.ppn)
        self.node_hw = world.hw[self.node_id]
        self.task = world.tasks[rank]
        self.matching = world.matching[rank]
        self.comm_world = world.comm_world
        self.node_comm = world.node_comms[self.node_id]
        self.leader_comm = world.leader_comm
        self._node_barrier = world.node_barriers[self.node_id]
        self._hard_sync = world.hard_sync_barrier
        #: dispatch-overhead rebate applied by persistent-request starts
        self._dispatch_discount = 0.0
        #: last pt2pt op dispatched: ("send"|"recv", peer, tag) — feeds
        #: the deadlock/watchdog blocked report
        self.last_op = None
        #: inter-node messages/bytes this rank injected — the per-rank
        #: injection-engine probe (repro.obs.resources).  Plain ints,
        #: always on, incremented identically by both engine paths.
        self.nic_msgs = 0
        self.nic_bytes = 0
        # -- routing and envelopes ----------------------------------------
        self._ppn = world.cluster.ppn
        #: this node's route table (dst node → Route), shared by its ranks
        self._routes = world.routes[self.node_id]
        self._loop_route = world.loop_route
        #: world-shared interned envelopes, keyed (comm_id, src, tag)
        self._envelopes = world.envelopes
        #: (comm_id, tag) → this rank's send envelope
        self._send_envs: dict = {}
        self._base_dispatch = world.params.cpu.dispatch_overhead
        self._functional = world.functional

    # -- introspection ----------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self.sim.now

    @property
    def size(self) -> int:
        """World size."""
        return self.comm_world.size

    @property
    def is_leader(self) -> bool:
        """True for the node's local rank 0 (the paper's local root)."""
        return self.local_rank == 0

    @property
    def intra_transport(self) -> Transport:
        """The library's intra-node transport."""
        return self.world.intra

    def alloc(self, nbytes: int) -> BaseBuffer:
        """Allocate a buffer honouring the world's functional mode."""
        return alloc(nbytes, functional=self.world.functional)

    # -- observability -----------------------------------------------------
    def span(self, name: str, cat: str = "phase", **attrs):
        """A ``with``-able span on this rank's timeline.

        Algorithms annotate their phases with::

            with ctx.span("round", cat="round", idx=k):
                yield from ctx.sendrecv(...)

        With no recorder attached (the default) this returns a shared
        no-op handle — one attribute check, no allocation.
        """
        obs = self.world.obs
        if obs is None:
            return NULL_SPAN
        return obs.span(self.rank, name, cat, **attrs)

    # -- routing -----------------------------------------------------------
    def _route(self, dst_world: int) -> Route:
        """The route to world rank ``dst_world`` (already range-checked)."""
        if dst_world == self.rank:
            return self._loop_route
        dst_node = dst_world // self._ppn
        route = self._routes.get(dst_node)
        if route is None:
            route = Route.between(self.world, self.node_id, dst_node)
            self._routes[dst_node] = route
        return route

    # -- point-to-point -----------------------------------------------------
    def isend(self, view: BufferView, dst: int, tag: int = 0,
              comm: Optional[Communicator] = None):
        """Nonblocking send (generator; returns a :class:`SendRequest`).

        The sender-side CPU work (protocol entry, injection overhead,
        staging copies) is paid inline — which is precisely why a
        single leader rank saturates: it pays this serially per message.
        """
        if tag < 0:
            raise ValueError(f"send tag must be >= 0, got {tag}")
        comm = comm or self.comm_world
        my_cr = comm.to_comm(self.rank)
        dst_world = comm.to_world(dst)
        faults = self.world.faults
        if faults is not None:
            gate = faults.crash_gate(self.rank)
            if gate is not None:
                yield gate  # fail-stop: never resumes
        self.last_op = ("send", dst_world, tag)
        route = self._route(dst_world)
        transport = route.transport
        if transport.inter_node:
            self.nic_msgs += 1
            self.nic_bytes += view.nbytes
        wire = WireDescriptor(
            src=self.rank, dst=dst_world, nbytes=view.nbytes, buf_key=view.key
        )
        if faults is not None:
            wire.meta["tag"] = tag
        desc = MessageDescriptor(
            envelope=Envelope(comm.comm_id, my_cr, tag),
            nbytes=view.nbytes,
            payload=view.read(),
            wire=wire,
            transport=transport,
            src_world=self.rank,
            dst_world=dst_world,
        )
        # Message span: send-post → delivery (self-sends never leave
        # the rank and stay invisible).
        obs = self.world.obs
        msg_sid = None
        if obs is not None and dst_world != self.rank:
            msg_sid = obs.open_message(
                self.rank, dst_world, view.nbytes, transport.name, tag)
        # Sender-side CPU: one scheduled event when the transport has a
        # closed form, else the full choreography.
        dispatch = self.params.cpu.dispatch_overhead - self._dispatch_discount
        flat = transport.sender_flat_time(self.node_hw, wire)
        if flat is not None:
            yield self.sim.timeout(dispatch + flat)
        else:
            yield self.sim.timeout(dispatch)
            yield from transport.sender_steps(self.node_hw, wire)
        if dst_world == self.rank:
            self.world.deliver(desc)
            return SendRequest(done_event=None)
        dst_hw = route.dst_hw
        world = self.world
        def _on_delivered(world=world, desc=desc, obs=obs, msg_sid=msg_sid):
            if msg_sid is not None:
                obs.close(msg_sid)
            world.deliver(desc)

        done = transport.schedule_delivery(self.node_hw, dst_hw, wire, _on_delivered)
        if done is None:
            def _delivery(desc=desc, wire=wire, src_hw=self.node_hw,
                          dst_hw=dst_hw, transport=transport):
                yield from transport.delivery_steps(src_hw, dst_hw, wire)
                _on_delivered()

            done = self.sim.process(
                _delivery(), name=f"deliver:{self.rank}->{dst_world}"
            )
        rendezvous = (
            transport is self.world.network
            and view.nbytes > self.params.nic.eager_limit
        )
        return SendRequest(done_event=done if rendezvous else None)

    def irecv(self, view: BufferView, src: int = ANY_SOURCE, tag: int = -1,
              comm: Optional[Communicator] = None):
        """Nonblocking receive (generator; returns a :class:`RecvRequest`).

        ``src`` / ``tag`` default to wildcards (ANY_SOURCE / ANY_TAG).
        """
        comm = comm or self.comm_world
        comm.to_comm(self.rank)  # membership check
        if src != ANY_SOURCE:
            comm.to_world(src)  # range check
        faults = self.world.faults
        if faults is not None:
            gate = faults.crash_gate(self.rank)
            if gate is not None:
                yield gate  # fail-stop: never resumes
        self.last_op = ("recv", src, tag)
        yield self.sim.timeout(
            self.params.cpu.dispatch_overhead - self._dispatch_discount)
        pattern = Envelope(comm.comm_id, src, tag)
        desc = self.matching.claim(pattern)
        if desc is not None:
            return RecvRequest(view, desc=desc)
        ev = self.sim.event()
        self.matching.post(pattern, ev)
        return RecvRequest(view, event=ev)

    def wait(self, request: Request):
        """Block until ``request`` completes; returns its status."""
        result = yield from request._complete(self)
        return result

    def waitall(self, requests: Sequence[Request]) -> "object":
        """Complete every request; returns the list of statuses."""
        statuses: List[Optional[Status]] = []
        for req in requests:
            status = yield from req._complete(self)
            statuses.append(status)
        return statuses

    def waitany(self, requests: Sequence[Request]):
        """MPI_Waitany (generator): complete ONE request; returns
        ``(index, result)``.

        Completes the lowest-indexed ready *active* request if any;
        otherwise blocks until one becomes ready.  Already-completed
        requests are inactive (as in MPI); if every request is
        inactive the result is ``(None, None)`` (MPI_UNDEFINED).
        """
        if not requests:
            raise ValueError("waitany needs at least one request")
        if all(req.completed for req in requests):
            return (None, None)
        while True:
            for idx, req in enumerate(requests):
                if req.ready and not req.completed:
                    result = yield from req._complete(self)
                    return (idx, result)
            pending = []
            for req in requests:
                if req.completed:
                    continue
                signal = req._signal()
                if signal is not None and not signal.processed:
                    pending.append(signal)
            yield self.sim.any_of(pending)

    # -- envelopes -----------------------------------------------------------
    def _send_env(self, comm: Communicator, tag: int) -> Envelope:
        key = (comm.comm_id, tag)
        env = self._send_envs.get(key)
        if env is None:
            env = self._envelope(comm.comm_id, comm.to_comm(self.rank), tag)
            self._send_envs[key] = env
        return env

    def _recv_pattern(self, comm: Communicator, src: int, tag: int) -> Envelope:
        comm.to_comm(self.rank)  # membership check
        if src != ANY_SOURCE:
            comm.to_world(src)  # range check
        return self._envelope(comm.comm_id, src, tag)

    def _envelope(self, comm_id: int, src: int, tag: int) -> Envelope:
        """The world's interned ``Envelope(comm_id, src, tag)``: one
        rank's send envelope is every peer's receive pattern for it."""
        key = (comm_id, src, tag)
        env = self._envelopes.get(key)
        if env is None:
            env = self._envelopes[key] = Envelope(comm_id, src, tag)
        return env

    # -- blocking pt2pt ----------------------------------------------------
    # send/recv/sendrecv are plain functions returning the appropriate
    # generator (callers ``yield from`` them either way): the reference
    # composition over isend/irecv, or — when the world's macro-event
    # fast path is on and the route supports it — a fused generator
    # that reproduces the reference timestamps with a fraction of the
    # allocations (no Timeouts, no request objects, no sub-generators).

    def send(self, view: BufferView, dst: int, tag: int = 0,
             comm: Optional[Communicator] = None):
        """Blocking send."""
        comm = comm or self.comm_world
        if self.world._fast:
            dst_world = comm.to_world(dst)
            route = self._route(dst_world)
            if route.fast and (route.eager_limit is None
                               or view.nbytes <= route.eager_limit):
                if tag < 0:
                    raise ValueError(f"send tag must be >= 0, got {tag}")
                return self._send_fast(route, dst_world, view, tag, comm)
        return self._send_slow(view, dst, tag, comm)

    def _send_slow(self, view, dst, tag, comm):
        req = yield from self.isend(view, dst, tag, comm)
        yield from self.wait(req)

    def _send_fast(self, route: Route, dst_world: int, view: BufferView,
                   tag: int, comm: Communicator):
        # Mirrors isend + wait for an eager message: the sender-side
        # flat time (which may reserve membus bandwidth) is computed at
        # the call instant, exactly as the reference isend body does.
        world = self.world
        sim = self.sim
        transport = route.transport
        self.last_op = ("send", dst_world, tag)
        nbytes = view.nbytes
        wire = WireDescriptor(self.rank, dst_world, nbytes, view.key)
        desc = MessageDescriptor(
            self._send_env(comm, tag), nbytes,
            view.read() if self._functional else None, wire,
            transport, self.rank, dst_world,
        )
        sflat = transport.sender_flat_time(self.node_hw, wire)
        yield self._base_dispatch - self._dispatch_discount + sflat
        kind = route.kind
        if kind == _NET:
            self.nic_msgs += 1
            self.nic_bytes += nbytes
            transport.schedule_delivery_fast(self.node_hw, route.dst_hw,
                                             desc, world)
        elif kind == _INTRA:
            sim.call_at(sim.now + route.flag_delay, world.deliver, desc)
        else:
            world.deliver(desc)
        # Eager: the buffer is reusable now, waiting is free.

    def recv(self, view: BufferView, src: int = ANY_SOURCE, tag: int = -1,
             comm: Optional[Communicator] = None):
        """Blocking receive; returns a :class:`Status`."""
        comm = comm or self.comm_world
        if self.world._fast:
            return self._recv_fast(view, src, tag, comm)
        return self._recv_slow(view, src, tag, comm)

    def _recv_slow(self, view, src, tag, comm):
        req = yield from self.irecv(view, src, tag, comm)
        status = yield from self.wait(req)
        return status

    def _recv_fast(self, view: BufferView, src: int, tag: int,
                   comm: Communicator):
        # Mirrors irecv + wait; works for any delivering transport
        # (completion costs come from the descriptor).
        pattern = self._recv_pattern(comm, src, tag)
        self.last_op = ("recv", src, tag)
        yield self._base_dispatch - self._dispatch_discount
        matching = self.matching
        desc = matching.claim(pattern)
        if desc is None:
            slot = ParkSlot()
            matching.post(pattern, slot)
            desc = yield slot
        if desc.nbytes > view.nbytes:
            raise TruncationError(
                f"rank {self.rank}: message of {desc.nbytes} B arrived for a "
                f"{view.nbytes} B receive buffer "
                f"(src={desc.envelope.src}, tag={desc.envelope.tag})"
            )
        transport = desc.transport
        rflat = transport.receiver_flat_time(self.node_hw, desc.wire)
        if rflat is None:
            yield from transport.receiver_steps(self.node_hw, desc.wire)
        elif rflat > 0.0:
            yield rflat
        payload = desc.payload
        if payload is not None:
            if desc.nbytes == view.nbytes:
                view.write(payload)
            else:
                view.sub(0, desc.nbytes).write(payload)
        env = desc.envelope
        return Status(env.src, env.tag, desc.nbytes)

    def sendrecv(self, send_view: BufferView, dst: int, send_tag: int,
                 recv_view: BufferView, src: int, recv_tag: int,
                 comm: Optional[Communicator] = None):
        """Paired exchange (deadlock-free); returns the receive status."""
        comm = comm or self.comm_world
        if self.world._fast:
            dst_world = comm.to_world(dst)
            route = self._route(dst_world)
            if route.fast and (route.eager_limit is None
                               or send_view.nbytes <= route.eager_limit):
                if send_tag < 0:
                    raise ValueError(f"send tag must be >= 0, got {send_tag}")
                return self._sendrecv_fast(route, dst_world, send_view,
                                           send_tag, recv_view, src,
                                           recv_tag, comm)
        return self._sendrecv_slow(send_view, dst, send_tag,
                                   recv_view, src, recv_tag, comm)

    def _sendrecv_slow(self, send_view, dst, send_tag, recv_view, src,
                       recv_tag, comm):
        rreq = yield from self.irecv(recv_view, src, recv_tag, comm)
        sreq = yield from self.isend(send_view, dst, send_tag, comm)
        yield from self.wait(sreq)
        status = yield from self.wait(rreq)
        return status

    def _sendrecv_fast(self, route: Route, dst_world: int,
                       send_view: BufferView, send_tag: int,
                       recv_view: BufferView, src: int, recv_tag: int,
                       comm: Communicator):
        # One fused generator reproducing the reference choreography's
        # timestamps and same-instant ordering exactly:
        #   t        : recv dispatch starts
        #   t+d      : receive posted; send body runs inline (its flat
        #              time — possibly a membus reservation — computed
        #              in the same pop, as the reference path does)
        #   t+2d+flat: message handed to the wire (pipe reservations)
        #   match    : receiver-side flat, payload landing, Status
        sim = self.sim
        world = self.world
        pattern = self._recv_pattern(comm, src, recv_tag)
        self.last_op = ("recv", src, recv_tag)
        yield self._base_dispatch - self._dispatch_discount
        matching = self.matching
        desc_r = matching.claim(pattern)
        slot = None
        if desc_r is None:
            slot = ParkSlot()
            matching.post(pattern, slot)
        # -- send side (inline, same pop) --
        transport = route.transport
        self.last_op = ("send", dst_world, send_tag)
        nbytes = send_view.nbytes
        wire = WireDescriptor(self.rank, dst_world, nbytes, send_view.key)
        desc_s = MessageDescriptor(
            self._send_env(comm, send_tag), nbytes,
            send_view.read() if self._functional else None, wire,
            transport, self.rank, dst_world,
        )
        sflat = transport.sender_flat_time(self.node_hw, wire)
        delay = self._base_dispatch - self._dispatch_discount + sflat
        kind = route.kind
        if kind == _NET:
            self.nic_msgs += 1
            self.nic_bytes += nbytes
        if desc_r is not None:
            # Claimed: the message is already here — stay inline.
            yield delay
            if kind == _NET:
                transport.schedule_delivery_fast(self.node_hw, route.dst_hw,
                                                 desc_s, world)
            elif kind == _INTRA:
                sim.call_in(route.flag_delay, world.deliver, desc_s)
            else:
                world.deliver(desc_s)
        else:
            # Posted: hand the send off as a bare scheduled action and
            # park until the match, skipping one generator resume per
            # exchange.  The action occupies the queue position the
            # dispatch-resume would have (last push of this pop), so
            # same-instant reservation order — and hence every
            # timestamp — is unchanged.
            if kind == _NET:
                sim.call_in(delay, _net_handoff,
                            (transport, self.node_hw, route.dst_hw,
                             desc_s, world))
            elif kind == _INTRA:
                sim.call_in(delay, _intra_handoff,
                            (world, route.flag_delay, desc_s))
            else:
                sim.call_in(delay, world.deliver, desc_s)
            handoff_at = sim.now + delay
            # -- recv completion (the reference wait(rreq)) --
            desc_r = yield slot
            if sim.now < handoff_at:
                # Early arrival: the rank is still busy dispatching its
                # own send until ``handoff_at``.
                yield handoff_at - sim.now
        if desc_r.nbytes > recv_view.nbytes:
            raise TruncationError(
                f"rank {self.rank}: message of {desc_r.nbytes} B arrived for "
                f"a {recv_view.nbytes} B receive buffer "
                f"(src={desc_r.envelope.src}, tag={desc_r.envelope.tag})"
            )
        r_transport = desc_r.transport
        rflat = r_transport.receiver_flat_time(self.node_hw, desc_r.wire)
        if rflat is None:
            yield from r_transport.receiver_steps(self.node_hw, desc_r.wire)
        elif rflat > 0.0:
            yield rflat
        payload = desc_r.payload
        if payload is not None:
            if desc_r.nbytes == recv_view.nbytes:
                recv_view.write(payload)
            else:
                recv_view.sub(0, desc_r.nbytes).write(payload)
        env = desc_r.envelope
        return Status(env.src, env.tag, desc_r.nbytes)

    def test(self, request: Request):
        """MPI_Test (generator): ``(flag, result)``.

        If the request could complete without blocking, completes it
        (paying completion-side costs) and returns ``(True, result)``;
        otherwise returns ``(False, None)`` immediately.
        """
        if not request.ready:
            return (False, None)
        result = yield from request._complete(self)
        return (True, result)

    def iprobe(self, src: int = ANY_SOURCE, tag: int = -1,
               comm: Optional[Communicator] = None) -> Optional[Status]:
        """MPI_Iprobe: a matching unexpected message's status, or None.

        Non-consuming and instantaneous (no generator): probing reads
        the already-delivered unexpected queue.
        """
        comm = comm or self.comm_world
        desc = self.matching.peek(Envelope(comm.comm_id, src, tag))
        if desc is None:
            return None
        return Status(desc.envelope.src, desc.envelope.tag, desc.nbytes)

    def probe(self, src: int = ANY_SOURCE, tag: int = -1,
              comm: Optional[Communicator] = None):
        """MPI_Probe (generator): block until a matching message is
        queued; returns its :class:`Status` without consuming it."""
        while True:
            status = self.iprobe(src, tag, comm)
            if status is not None:
                return status
            yield self.sim.timeout(self.params.cpu.progress_poll)

    # -- persistent requests -----------------------------------------------------
    def send_init(self, view: BufferView, dst: int, tag: int = 0,
                  comm: Optional[Communicator] = None):
        """MPI_Send_init: a reusable frozen send (see
        :mod:`repro.runtime.persistent`)."""
        from .persistent import send_init

        return send_init(self, view, dst, tag, comm)

    def recv_init(self, view: BufferView, src: int, tag: int = -1,
                  comm: Optional[Communicator] = None):
        """MPI_Recv_init: a reusable frozen receive."""
        from .persistent import recv_init

        return recv_init(self, view, src, tag, comm)

    def start_all(self, ops):
        """MPI_Startall (generator): returns the live requests."""
        from .persistent import start_all

        live = yield from start_all(self, ops)
        return live

    # -- nonblocking operations ------------------------------------------------
    def start(self, operation) -> OperationRequest:
        """Launch a generator (e.g. a collective) as a nonblocking
        operation; complete with :meth:`wait`.

        This is how nonblocking collectives (``MPI_Iallgather`` etc.)
        are expressed::

            req = ctx.start(allgather_bruck(ctx, send, recv))
            ...overlapped work...
            yield from ctx.wait(req)

        The operation runs concurrently with the rank's own progress;
        the caller must not reuse the operation's buffers or issue
        matching-conflicting traffic until completion, as in MPI.
        """
        proc = self.sim.process(operation, name=f"op@rank{self.rank}")
        return OperationRequest(proc)

    # -- communicator management ------------------------------------------------
    def comm_split(self, color: Optional[int], key: int = 0,
                   comm: Optional[Communicator] = None):
        """Collective split, MPI_Comm_split semantics (generator).

        Ranks passing the same ``color`` form a new communicator,
        ordered by ``(key, old rank)``; ``color=None`` (MPI_UNDEFINED)
        yields ``None``.  All members of ``comm`` must call this.

        The exchange itself is modeled: a flat gather of (color, key)
        pairs to comm rank 0 and a broadcast back — control-plane
        traffic priced like any other messages.
        """
        import numpy as np

        from .buffer import ArrayBuffer

        comm = comm or self.comm_world
        my_cr = comm.to_comm(self.rank)
        entry = np.array(
            [-1 if color is None else color, key, self.rank], dtype=np.int64
        )
        # Gather the (color, key, world rank) table to comm rank 0.
        mine = ArrayBuffer.from_array(entry)
        split_tag = 0xC000
        if my_cr == 0:
            gathered = ArrayBuffer.zeros(24 * comm.size)
            gathered.view(0, 24).copy_from(mine.view())
            reqs = []
            for src in range(1, comm.size):
                req = yield from self.irecv(gathered.view(24 * src, 24),
                                            src=src, tag=split_tag, comm=comm)
                reqs.append(req)
            yield from self.waitall(reqs)
            # Broadcast the full table back (flat — control plane).
            for dst in range(1, comm.size):
                yield from self.send(gathered.view(), dst=dst,
                                     tag=split_tag + 1, comm=comm)
        else:
            yield from self.send(mine.view(), dst=0, tag=split_tag, comm=comm)
            gathered = ArrayBuffer.zeros(24 * comm.size)
            yield from self.recv(gathered.view(), src=0, tag=split_tag + 1,
                                 comm=comm)
        table = gathered.bytes_view.view(np.int64).reshape(comm.size, 3)
        if color is None:
            return None
        members = sorted(
            (int(k), int(wr)) for c, k, wr in table if c == color
        )
        return self.world.intern_comm(tuple(wr for _k, wr in members))

    # -- PiP direct access ---------------------------------------------------
    def expose(self, key: Hashable, buffer: BaseBuffer) -> None:
        """Publish a buffer for same-node direct access (free with PiP)."""
        self.task.space.expose(self.rank, key, buffer)

    def withdraw(self, key: Hashable) -> None:
        """Remove a published buffer."""
        self.task.space.withdraw(self.rank, key)

    def peer_buffer(self, owner: int, key: Hashable) -> BaseBuffer:
        """Direct reference to a same-node peer's exposed buffer.

        Only legal when the library's intra-node transport is PiP;
        others get :class:`AddressSpaceViolation` — there is no way to
        dereference another process's pointer without shared address
        spaces.
        """
        if not self.world.intra.supports_peer_views:
            raise AddressSpaceViolation(
                f"intra-node transport {self.world.intra.name!r} does not "
                "support direct peer access (PiP only)"
            )
        return self.task.space.peer_view(self.rank, owner, key)

    def direct_copy(self, src: BufferView, dst: BufferView):
        """One user-space memcpy between directly addressable buffers.

        Functional copy plus the modeled single-copy cost.  The caller
        is responsible for synchronisation (flags / node barriers), as
        PiP code would be.
        """
        if src.nbytes != dst.nbytes:
            raise ValueError(f"size mismatch: {src.nbytes} != {dst.nbytes}")
        dst.write(src.read())
        yield from self.node_hw.mem_copy(dst.nbytes)

    # -- synchronisation -------------------------------------------------------
    def node_barrier(self):
        """Barrier across this node's ranks (flag-cost model)."""
        obs = self.world.obs
        if obs is None:
            yield self._node_barrier.arrive()
            return
        # Sync span: how long this rank idled waiting for its node —
        # the "sync waits" series in the metrics registry.
        with obs.span(self.rank, "node_barrier", cat="sync"):
            yield self._node_barrier.arrive()

    def hard_sync(self):
        """Zero-cost world alignment for benchmark iteration boundaries.

        Not an MPI call: the harness uses it to start every rank's
        timed region at the same instant, like OSU's pre-iteration
        ``MPI_Barrier`` but without polluting the measurement.
        """
        yield self._hard_sync.arrive()

    def compute(self, seconds: float):
        """Charge ``seconds`` of local CPU work (for app examples)."""
        yield self.sim.timeout(seconds)
