"""Inter-node network transport (LogGP over the NIC pipes).

Eager protocol (``nbytes <= eager_limit``): the sender copies the
payload into a pre-registered bounce buffer (one copy), pays its
injection overhead ``o``, and the message transits TX pipe → wire → RX
pipe; the receiver pays ``o_r`` plus the copy out of the landing zone.

Rendezvous protocol (large messages): an RTS/CTS handshake (priced as
``rendezvous_overhead`` plus one extra wire round trip) precedes a
zero-copy RDMA of the payload.

The NIC pipes are :class:`~repro.sim.resources.RateLimiter` instances
shared by every rank on the node, so *aggregate* injection is bounded
by the adapter's message rate — while each rank's *own* injection rate
is bounded by its core paying ``o`` per message.  The gap between
those two bounds is exactly the headroom the paper's multi-object
design exploits.
"""

from __future__ import annotations

from ..machine.hardware import NodeHardware
from .base import Transport, WireDescriptor


def _eager_arrive(arg):
    """Fast-path arrival: reserve the RX pipe, schedule the completion.

    Runs as a bare ``(fn, arg)`` queue item at the instant the message
    reaches the destination NIC — the same instant the reference path's
    ``on_wire`` event fires — so the RX reservation order (and with it
    every downstream timestamp) is identical to the slow path.
    """
    dst_node, wire, desc, world = arg
    dst_node.rx_messages += 1
    finish = dst_node.rx.reserve(wire)
    world.sim.call_at(finish, (world.deliver, desc))


class NetworkTransport(Transport):
    """LogGP-style inter-node messaging."""

    name = "network"
    supports_peer_views = False
    inter_node = True
    fast_pt2pt = True

    def _is_eager(self, node: NodeHardware, desc: WireDescriptor) -> bool:
        return desc.nbytes <= node.params.nic.eager_limit

    def sender_steps(self, node: NodeHardware, desc: WireDescriptor):
        """Post the send: injection overhead + eager bounce copy."""
        nic = node.params.nic
        yield node.sim.timeout(nic.inject_overhead)
        if self._is_eager(node, desc):
            yield from node.mem_copy(desc.nbytes)

    def delivery_steps(self, src_node: NodeHardware, dst_node: NodeHardware,
                       desc: WireDescriptor):
        """TX pipe → wire latency → RX pipe (plus rendezvous handshake)."""
        sim = src_node.sim
        nic = src_node.params.nic
        if not self._is_eager(src_node, desc):
            # RTS → CTS round trip before the payload moves.
            yield sim.timeout(nic.rendezvous_overhead + 2.0 * nic.latency)
        yield src_node.inject(desc.nbytes)
        yield sim.timeout(nic.latency)
        yield dst_node.extract(desc.nbytes)

    def receiver_steps(self, node: NodeHardware, desc: WireDescriptor):
        """Drain the completion + eager copy-out of the landing zone."""
        nic = node.params.nic
        yield node.sim.timeout(nic.recv_overhead)
        if self._is_eager(node, desc):
            yield from node.mem_copy(desc.nbytes)

    def sender_flat_time(self, node, desc):
        nic = node.params.nic
        if not self._is_eager(node, desc):
            return nic.inject_overhead
        return nic.inject_overhead + node.copy_cost(desc.nbytes)

    def receiver_flat_time(self, node, desc):
        nic = node.params.nic
        if not self._is_eager(node, desc):
            return nic.recv_overhead
        return nic.recv_overhead + node.copy_cost(desc.nbytes)

    def schedule_delivery(self, src_node, dst_node, desc, on_delivered):
        nic = src_node.params.nic
        lead = 0.0
        if not self._is_eager(src_node, desc):
            lead = nic.rendezvous_overhead + 2.0 * nic.latency
        wire = nic.wire_time(desc.nbytes)
        src_node.tx_messages += 1
        on_wire = src_node.tx.occupy(wire, lead_delay=lead, tail_delay=nic.latency)

        def _arrived(_ev, dst_node=dst_node, wire=wire):
            dst_node.rx_messages += 1
            done = dst_node.rx.occupy(wire)
            done.callbacks.append(lambda _e: on_delivered())
            # Re-point the completion chain: the returned event is
            # `on_wire`; rendezvous completion only needs "payload left
            # the send buffer", which for RDMA is when it is on the
            # wire, so `on_wire` is the right completion event.

        on_wire.callbacks.append(_arrived)
        return on_wire

    def schedule_delivery_fast(self, src_node, dst_node, desc, world) -> bool:
        """Batched eager completion: two bare queue items per message.

        The whole TX-pipe → wire → RX-pipe → matchable pipeline of one
        eager message costs one ``_eager_arrive`` item (at NIC arrival)
        plus one ``world.deliver`` item (at RX drain) — no Events, no
        callback lists, no closures.  Rendezvous messages keep the
        reference choreography (their completion event is the send
        request's completion).
        """
        wire_desc = desc.wire
        nic = src_node.params.nic
        if wire_desc.nbytes > nic.eager_limit:
            return False
        src_node.tx_messages += 1
        wire = nic.wire_time(wire_desc.nbytes)
        arrival = src_node.tx.reserve(wire) + nic.latency
        world.sim.call_at(arrival,
                          (_eager_arrive, (dst_node, wire, desc, world)))
        return True

    def describe(self) -> str:
        return "network: LogGP eager/rendezvous over shared NIC pipes"


class ReliableNetworkTransport(NetworkTransport):
    """Eager delivery with per-message ack / timeout / retransmit.

    The plain transport assumes a perfect wire; this one runs a stop-
    and-wait reliability protocol per eager message, which is what
    makes chaos sweeps meaningful: a dropped or corrupted transmission
    costs a retransmission timeout (exponential backoff over an RTT
    estimate) and another trip through the NIC pipes, all accrued in
    simulated time.  After ``max_retries`` retransmissions the flow
    gives up and raises
    :class:`~repro.runtime.errors.DeliveryFailedError` naming the
    src/dst ranks — a diagnosis instead of a silent deadlock.

    Protocol costs on the success path: the receiver returns an ack
    (one ``msg_gap`` through its TX pipe plus wire latency); the sender
    frees its bounce buffer on ack receipt, but eager completion does
    not block on it — matching MPI eager semantics.

    Retransmission could reorder messages of one (src, dst) flow, so
    deliveries are chained per flow: a retransmitted message must be
    delivered before any later message of the same flow becomes
    matchable (go-back-N-style in-order delivery), preserving MPI's
    non-overtaking guarantee that the collectives rely on.

    Rendezvous messages keep the base-class path: RDMA is modeled as
    hardware-reliable (link-level retry), as on real fabrics.

    Faults come from the bound
    :class:`~repro.faults.FaultInjector` (``injector``), which also
    supplies per-node NIC degradation factors; without an injector the
    protocol still runs (acks and all) over a perfect wire.
    """

    name = "reliable_network"
    #: the ack/retransmit protocol needs its full process choreography
    fast_pt2pt = False

    def __init__(self, injector=None, max_retries: int = 8,
                 backoff: float = 2.0) -> None:
        #: the world's FaultInjector (None = perfect wire)
        self.injector = injector
        #: retransmissions allowed before DeliveryFailedError
        self.max_retries = max_retries
        #: RTO multiplier per consecutive loss
        self.backoff = backoff
        #: protocol counters (stats/report probes)
        self.retransmits = 0
        self.acks = 0
        #: per-(src, dst) tail of the in-order delivery chain
        self._flow_tail = {}
        #: give-up hook: called with the structured DeliveryFailedError
        #: instead of raising it.  The fault-tolerance layer sets this
        #: so an exhausted flow becomes a recovery trigger (the message
        #: is abandoned, the flow chain is released) rather than a
        #: simulator abort no rank can catch.
        self.on_give_up = None

    def rto(self, nic, wire_t: float, attempt: int) -> float:
        """Retransmission timeout for the ``attempt``-th transmission."""
        rtt = 2.0 * nic.latency + wire_t + nic.msg_gap
        return (rtt + 1e-6) * (self.backoff ** (attempt - 1))

    def schedule_delivery(self, src_node, dst_node, desc, on_delivered):
        if not self._is_eager(src_node, desc):
            return super().schedule_delivery(src_node, dst_node, desc,
                                             on_delivered)
        desc.meta["reliable"] = True
        sim = src_node.sim
        flow = (desc.src, desc.dst)
        prev = self._flow_tail.get(flow)
        arrival = sim.event()
        self._flow_tail[flow] = arrival
        return sim.process(
            self._send_eager(src_node, dst_node, desc, on_delivered,
                             prev, arrival),
            name=f"rsend:{desc.src}->{desc.dst}",
        )

    def _send_eager(self, src_node, dst_node, desc, on_delivered,
                    prev, arrival):
        sim = src_node.sim
        nic = src_node.params.nic
        injector = self.injector
        src_f = injector.rate_factor(src_node.node_id) if injector else 1.0
        dst_f = injector.rate_factor(dst_node.node_id) if injector else 1.0
        wire_t = nic.wire_time(desc.nbytes)
        t_first = sim.now
        attempt = 0
        while True:
            attempt += 1
            fault = injector.wire_fault(desc, attempt) if injector else None
            extra = fault.extra_delay if fault is not None else 0.0
            src_node.tx_messages += 1
            yield src_node.tx.occupy(wire_t * src_f, lead_delay=extra,
                                     tail_delay=nic.latency)
            if fault is None or not fault.lost:
                dst_node.rx_messages += 1
                if fault is not None and fault.duplicate:
                    # The duplicate copy transits the RX pipe too, but
                    # the sequence number dedups it before matching.
                    dst_node.rx.occupy(wire_t * dst_f)
                yield dst_node.rx.occupy(wire_t * dst_f)
                if prev is not None and not prev.processed:
                    yield prev  # in-order delivery within the flow
                on_delivered()
                arrival.succeed()
                self.acks += 1
                yield dst_node.tx.occupy(nic.msg_gap, tail_delay=nic.latency)
                return
            if fault.corrupt and not fault.drop:
                # Junk bytes still transit the RX pipe; the checksum
                # discards them there, so no ack comes back.
                dst_node.rx_messages += 1
                dst_node.rx.occupy(wire_t * dst_f)
            if attempt > self.max_retries:
                from ..runtime.errors import DeliveryFailedError

                collective = rnd = None
                if self.obs is not None:
                    collective, rnd = self.obs.current_context(desc.src)
                err = DeliveryFailedError(
                    f"delivery failed: rank {desc.src} -> rank {desc.dst} "
                    f"({desc.nbytes} B, tag={desc.meta.get('tag')}) gave up "
                    f"after {attempt} transmissions "
                    f"({self.max_retries} retries)",
                    src=desc.src, dst=desc.dst, nbytes=desc.nbytes,
                    tag=desc.meta.get("tag"), attempts=attempt,
                    elapsed_s=sim.now - t_first,
                    collective=collective, round=rnd,
                )
                if self.on_give_up is not None:
                    # Recovery mode: report the dead flow and release
                    # the in-order chain so later messages of this
                    # flow stay deliverable.
                    self.on_give_up(err)
                    arrival.succeed()
                    return
                raise err
            self.retransmits += 1
            if injector is not None:
                injector.note("retransmit", desc.src, desc.dst, desc.nbytes,
                              attempt=attempt)
            if self.obs is not None:
                # Span covering the RTO backoff window before the next
                # transmission — what a chaos timeline is made of.
                rto_sid = self.obs.open(
                    desc.src, f"retransmit→{desc.dst}", cat="retransmit",
                    on_stack=False, src=desc.src, dst=desc.dst,
                    nbytes=desc.nbytes, attempt=attempt,
                )
                yield sim.timeout(self.rto(nic, wire_t, attempt))
                self.obs.close(rto_sid)
            else:
                yield sim.timeout(self.rto(nic, wire_t, attempt))

    def describe(self) -> str:
        return ("reliable network: LogGP eager with ack/timeout/retransmit "
                f"(<= {self.max_retries} retries, x{self.backoff:g} backoff)")
