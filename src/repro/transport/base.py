"""Transport interface: how bytes move and what it costs.

Every transport — the four intra-node mechanisms the paper contrasts
(POSIX-SHMEM, CMA, XPMEM, PiP) and the inter-node network — implements
the same three-phase choreography used by the pt2pt engine:

``sender_steps``
    run *inline by the sending rank's coroutine* (it blocks the sender:
    this is where single-leader designs lose — one core pays every
    message's overhead serially);
``delivery_steps``
    run by a detached delivery process; models the time between the
    sender finishing its part and the message becoming matchable at the
    destination (flag visibility intra-node; NIC pipes + wire latency
    inter-node);
``receiver_steps``
    run inline by the receiving rank's coroutine once the message is
    matched (copy-out, syscalls, attach costs...).

All three are generators over simulation events, so transports can use
node hardware resources (memory bus, NIC pipes) and not just constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable

from ..machine.hardware import NodeHardware


@dataclass(slots=True)
class WireDescriptor:
    """What the pt2pt engine hands to a transport for one message."""

    src: int  # world rank of sender
    dst: int  # world rank of receiver
    nbytes: int
    #: identity of the *send* buffer; transports with attach caches
    #: (XPMEM) key their caches on it.
    buf_key: Hashable = None
    #: free-form per-transport scratch (e.g. rendezvous state)
    meta: dict = field(default_factory=dict)


class Transport:
    """Base transport. Subclasses override the three phases.

    The defaults are all free/no-op so trivial transports (e.g. a
    self-send shortcut) stay trivial.
    """

    #: Human-readable name used in reports and library descriptions.
    name: str = "null"
    #: True only for PiP: collectives may take direct peer views.
    supports_peer_views: bool = False
    #: True for transports that cross the fabric — the only place
    #: wire-layer faults (drop/corrupt/...) can physically occur.
    inter_node: bool = False
    #: bound :class:`~repro.obs.SpanRecorder` (set by
    #: ``World(obs=...)``), or None — transports with interesting
    #: internal phases (retransmits) annotate them through this.
    obs = None
    #: True when this transport supports the macro-event pt2pt fast
    #: path: its flat times are always available and its delivery can
    #: be scheduled without Events (``delivery_flat_delay`` for a
    #: constant-delay delivery, or ``schedule_delivery_fast`` for
    #: pipe-based transit).  Timing must be identical to the reference
    #: choreography — the differential suite asserts it.
    fast_pt2pt: bool = False

    def sender_steps(self, node: NodeHardware, desc: WireDescriptor):
        """Sender-side CPU work (generator)."""
        return
        yield  # pragma: no cover - makes this a generator

    def delivery_steps(self, src_node: NodeHardware, dst_node: NodeHardware,
                       desc: WireDescriptor):
        """Transit time until the message is matchable (generator)."""
        return
        yield  # pragma: no cover - makes this a generator

    def receiver_steps(self, node: NodeHardware, desc: WireDescriptor):
        """Receiver-side CPU work after matching (generator)."""
        return
        yield  # pragma: no cover - makes this a generator

    # -- flat fast paths (optional) ----------------------------------
    # The generator phases above are the reference choreography; the
    # methods below let the pt2pt engine collapse a phase into a single
    # scheduled event when no shared resource is contended.  Returning
    # None means "no fast path — run the generator".  Timing must be
    # identical either way (asserted by the transport test suite).

    def sender_flat_time(self, node: NodeHardware,
                         desc: WireDescriptor) -> "float | None":
        """Closed-form sender-side time, or None."""
        return None

    def receiver_flat_time(self, node: NodeHardware,
                           desc: WireDescriptor) -> "float | None":
        """Closed-form receiver-side time, or None.

        Called exactly once per completed receive, so stateful
        transports (XPMEM's attach cache) may mutate state here.
        """
        return None

    def schedule_delivery(self, src_node: NodeHardware, dst_node: NodeHardware,
                          desc: WireDescriptor, on_delivered) -> "Any | None":
        """Schedule delivery without a process, or return None.

        Implementations arrange for ``on_delivered()`` to run at the
        moment the message becomes matchable and return an event that
        fires then (used as the rendezvous completion).
        """
        return None

    # -- macro-event fast path (optional) ----------------------------
    def delivery_flat_delay(self, src_node: NodeHardware) -> "float | None":
        """Constant delivery delay (flag visibility), or None.

        Intra-node transports deliver after one flag-latency hop with
        no contended resource in between; returning that constant lets
        the pt2pt fast path schedule delivery as a single bare queue
        item instead of a Timeout + callback chain.
        """
        return None

    def schedule_delivery_fast(self, src_node: NodeHardware,
                               dst_node: NodeHardware, desc,
                               world) -> bool:
        """Schedule delivery of ``desc`` using bare queue items.

        Returns True when handled; False falls the message back to the
        reference choreography (e.g. rendezvous-size messages).  Only
        called when :attr:`fast_pt2pt` is True and no faults/tracing
        are attached; the scheduled items must reproduce the reference
        path's timestamps and same-instant ordering exactly.
        """
        return False

    def describe(self) -> str:
        """One-line cost-structure summary for reports."""
        return self.name

