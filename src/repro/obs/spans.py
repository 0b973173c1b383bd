"""Hierarchical span recording over the simulation clock.

A :class:`Span` is a named interval of simulated time on one rank's
timeline (``run > collective > round > message``); a
:class:`SpanRecorder` maintains a per-rank open-span stack so nesting
falls out of call structure, exactly like any tracing SDK — except the
clock is the :class:`~repro.sim.engine.Simulator`'s virtual clock, so
spans are deterministic and free of wall-time noise.

Two kinds of spans exist:

* **stack spans** (``run``/``collective``/``round``/``sync``): opened
  and closed by the same rank's coroutine, properly nested — use
  :meth:`SpanRecorder.span` as a ``with`` block around ``yield from``;
* **async spans** (``message``/``retransmit``): opened by one rank and
  closed by a completion callback arbitrarily later; they take their
  parent from the opener's stack but never sit on it.

When no recorder is attached (``world.obs is None``) every
instrumentation site short-circuits on one attribute check, keeping
the traced-off hot path identical to before the subsystem existed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .metrics import Metrics


@dataclass
class Span:
    """One named interval on a rank's timeline."""

    sid: int
    parent: Optional[int]
    rank: int
    name: str
    cat: str
    t0: float
    t1: Optional[float] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def closed(self) -> bool:
        return self.t1 is not None

    @property
    def duration(self) -> float:
        """Span length in simulated seconds (0 while open)."""
        return (self.t1 - self.t0) if self.t1 is not None else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        end = f"{self.t1:.3e}" if self.t1 is not None else "open"
        return (f"<Span {self.sid} {self.cat}:{self.name} rank={self.rank} "
                f"[{self.t0:.3e}, {end}]>")


class _NullSpan:
    """``with``-compatible no-op used when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


#: the shared no-op handle (one instance, zero allocation per use)
NULL_SPAN = _NullSpan()


class _SpanHandle:
    """Closes its span on ``with``-block exit."""

    __slots__ = ("recorder", "sid")

    def __init__(self, recorder: "SpanRecorder", sid: int) -> None:
        self.recorder = recorder
        self.sid = sid

    def __enter__(self) -> "_SpanHandle":
        return self

    def __exit__(self, *exc: Any) -> bool:
        self.recorder.close(self.sid)
        return False


class SpanRecorder:
    """Collects spans and derives metrics from them.

    Bind to a simulator before recording (``World(obs=...)`` does
    this); ``metrics`` may be shared with other recorders.
    """

    def __init__(self, metrics: Optional[Metrics] = None) -> None:
        self.metrics = metrics if metrics is not None else Metrics()
        self._sim = None
        #: closed spans, in close order
        self.spans: List[Span] = []
        self._open: Dict[int, Span] = {}
        self._stacks: Dict[int, List[int]] = {}
        self._next_sid = 0

    def bind(self, sim) -> None:
        """Use ``sim``'s clock for span timestamps."""
        self._sim = sim

    @property
    def now(self) -> float:
        return self._sim.now if self._sim is not None else 0.0

    # -- recording -------------------------------------------------------
    def open(self, rank: int, name: str, cat: str = "phase",
             on_stack: bool = True, **attrs: Any) -> int:
        """Open a span on ``rank``; returns its id for :meth:`close`.

        The parent is the rank's innermost open stack span.  Async
        spans (``on_stack=False``) still parent under the opener's
        stack but are closed by callbacks, not block exit.
        """
        stack = self._stacks.setdefault(rank, [])
        parent = stack[-1] if stack else None
        sid = self._next_sid
        self._next_sid += 1
        span = Span(sid, parent, rank, name, cat, self.now, None, attrs)
        self._open[sid] = span
        if on_stack:
            stack.append(sid)
        return sid

    def close(self, sid: int, **attrs: Any) -> Span:
        """Close a span (idempotence is a bug: close exactly once)."""
        span = self._open.pop(sid)
        span.t1 = self.now
        if attrs:
            span.attrs.update(attrs)
        stack = self._stacks.get(span.rank)
        if stack and sid in stack:
            stack.remove(sid)
        self.spans.append(span)
        self._derive_metrics(span)
        return span

    def span(self, rank: int, name: str, cat: str = "phase",
             **attrs: Any) -> _SpanHandle:
        """Open a stack span, closed on ``with``-block exit."""
        return _SpanHandle(self, self.open(rank, name, cat, **attrs))

    def open_message(self, src: int, dst: int, nbytes: int,
                     transport: str, tag: int) -> int:
        """Open the async span covering send-post → delivery."""
        return self.open(
            src, f"msg→{dst}", cat="message", on_stack=False,
            src=src, dst=dst, nbytes=nbytes, transport=transport, tag=tag,
        )

    def _derive_metrics(self, span: Span) -> None:
        m = self.metrics
        if span.cat == "message":
            transport = span.attrs.get("transport", "?")
            m.inc("messages_total", transport=transport)
            m.inc("bytes_total", span.attrs.get("nbytes", 0),
                  transport=transport)
            m.observe("message_seconds", span.duration, transport=transport)
        elif span.cat == "retransmit":
            m.inc("retransmits_total")
            m.observe("retransmit_backoff_seconds", span.duration)
        elif span.cat == "sync":
            m.inc("sync_waits_total", kind=span.name)
            m.observe("sync_wait_seconds", span.duration, kind=span.name)
        elif span.cat == "collective":
            m.inc("collectives_total", collective=span.name)
        elif span.cat == "recovery":
            m.inc("recoveries_total", collective=span.attrs.get("collective", "?"))
            m.observe("recovery_seconds", span.duration,
                      collective=span.attrs.get("collective", "?"))
        elif span.cat == "detect":
            m.observe("detection_seconds", span.duration)

    def current_context(self, rank: int):
        """(collective name, round idx) of ``rank``'s innermost open
        collective/round spans, or ``(None, None)`` outside one.

        The reliable transport uses this to stamp a
        :class:`~repro.runtime.errors.DeliveryFailedError` with the
        collective call the dead flow belonged to.
        """
        collective = rnd = None
        for sid in reversed(self._stacks.get(rank, ())):
            span = self._open.get(sid)
            if span is None:
                continue
            if rnd is None and span.cat == "round":
                rnd = span.attrs.get("idx")
            if span.cat == "collective":
                collective = span.name
                break
        return collective, rnd

    # -- lifecycle -------------------------------------------------------
    def reset(self) -> None:
        """Wipe closed spans and metrics; in-flight spans survive.

        Benchmark warmup wipes call this at a hard-sync point so the
        measured iteration starts from a clean slate.
        """
        self.spans.clear()
        self.metrics.reset()

    def finalize(self, world) -> None:
        """Fold end-of-run hardware/protocol state into the metrics.

        Hardware busy times use the same canonical
        ``resource_busy_seconds{resource=...}`` series a
        :class:`~repro.obs.resources.ResourceMonitor` registers, so a
        world with both never double-names the counters.
        """
        stats = world.stats()
        m = self.metrics
        m.set_gauge("resource_busy_seconds", stats["tx_busy_s"],
                    resource="nic_tx")
        m.set_gauge("resource_busy_seconds", stats["rx_busy_s"],
                    resource="nic_rx")
        m.set_gauge("resource_busy_seconds", stats["membus_busy_s"],
                    resource="membus")
        m.set_gauge("sim_events", stats["sim_events"])
        m.set_gauge("sim_time_seconds", stats["sim_time_s"])
        if "retransmits" in stats:
            m.set_gauge("transport_retransmits", stats["retransmits"])
            m.set_gauge("transport_acks", stats["acks"])
        if world.resources is not None:
            world.resources.register_gauges(m)

    def tree(self) -> "TraceTree":
        """Snapshot the closed spans as a queryable timeline."""
        from .timeline import TraceTree

        return TraceTree(list(self.spans))

    @property
    def open_spans(self) -> List[Span]:
        """Spans opened but not yet closed (diagnostics)."""
        return list(self._open.values())
