"""repro.obs.host — wall-clock telemetry for the *host* runtime.

Everything else in :mod:`repro.obs` measures **simulated** time: spans
on the virtual clock, resource timelines, LogGP attribution.  This
module measures the other clock — the wall-clock cost of running the
simulator itself — and answers the questions the sim-time layer
cannot: what is the live cache hit ratio?  Which bench cell is slow?
How long does one tuner candidate really take?

Design constraints (see docs/OBSERVABILITY.md):

* **off by default, byte-identical when off** — every instrumentation
  point is one ``tracer is None`` check; host telemetry never touches
  simulation state, so enabled runs produce byte-identical *results*
  too (the differential suite asserts both);
* **fork-safe, exactly-once** — the sweep queue
  (:mod:`repro.service.queue`) forks workers that inherit the active
  tracer *and its buffered events*.  Buffers are keyed by PID: the
  first write after a fork discards the inherited copy, so a child's
  :meth:`~HostTracer.drain` ships only events the child itself
  emitted, and the parent's :meth:`~HostTracer.absorb` merges them
  exactly once;
* **bounded** — per-event detail is capped (``max_events``); every
  span *always* folds into per-``(name, track)`` aggregates
  (count/total/max), so summaries stay exact when traces truncate.

Exports: :meth:`HostReport.to_perfetto` (cache/queue/bench/tuner as
tracks, forked workers as processes, validated by the same
:func:`~repro.obs.perfetto.validate_chrome_trace` schema checker CI
runs on sim traces), :meth:`HostReport.metrics` (the
:class:`~repro.obs.metrics.Metrics` registry → snapshot JSON), and
:func:`jsonl_event_writer` (the live JSONL progress stream
``python -m repro serve --events`` and ``sweep --progress`` emit).
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, TextIO, Tuple

from .metrics import Metrics

#: span-detail cap per tracer buffer; aggregates are never capped
MAX_EVENTS = 200_000

#: event kinds a buffer holds ("X" = span, "i" = instant — the Trace
#: Event Format phases they export as)
_SPAN, _INSTANT = "X", "i"


class _Buf:
    """One PID's worth of telemetry state."""

    __slots__ = ("pid", "events", "agg", "counters", "dropped")

    def __init__(self, pid: int) -> None:
        self.pid = pid
        #: capped detail: (kind, name, cat, track, t0, t1, pid, args)
        self.events: List[tuple] = []
        #: (name, track) -> [count, total_s, max_s] — always exact
        self.agg: Dict[Tuple[str, str], List[float]] = {}
        #: (name, sorted label items) -> value
        self.counters: Dict[Tuple[str, tuple], float] = {}
        self.dropped = 0


class HostTracer:
    """Fork-safe wall-clock span/counter recorder.

    One tracer is shared by the whole process tree of a run: activate
    it in the parent (:func:`tracing`), fork freely, and ship each
    child's :meth:`drain` payload home over whatever pipe the worker
    protocol already has — :meth:`absorb` merges it into the parent's
    buffer.  All times come from ``clock`` (default
    :func:`time.perf_counter` — on Linux a system-wide monotonic
    clock, so parent and child timestamps interleave correctly).
    """

    def __init__(self, max_events: int = MAX_EVENTS,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.max_events = max_events
        self._buf = _Buf(os.getpid())

    # -- buffer access (the fork guard) --------------------------------
    def _mine(self) -> _Buf:
        """This PID's buffer — a fresh one on first touch after a fork,
        so inherited parent events are never re-shipped."""
        buf = self._buf
        if buf.pid != os.getpid():
            buf = self._buf = _Buf(os.getpid())
        return buf

    # -- writes --------------------------------------------------------
    def span_at(self, name: str, t0: float, t1: float, track: str = "main",
                cat: str = "host", **args: Any) -> None:
        """Record one completed wall-clock span ``[t0, t1]``."""
        buf = self._mine()
        dur = t1 - t0
        agg = buf.agg.get((name, track))
        if agg is None:
            buf.agg[(name, track)] = [1, dur, dur]
        else:
            agg[0] += 1
            agg[1] += dur
            if dur > agg[2]:
                agg[2] = dur
        if len(buf.events) < self.max_events:
            buf.events.append((_SPAN, name, cat, track, t0, t1, buf.pid,
                               args or None))
        else:
            buf.dropped += 1

    @contextmanager
    def span(self, name: str, track: str = "main", cat: str = "host",
             **args: Any) -> Iterator[None]:
        """``with tracer.span("cache.get"): ...`` convenience wrapper."""
        t0 = self.clock()
        try:
            yield
        finally:
            self.span_at(name, t0, self.clock(), track=track, cat=cat,
                         **args)

    def instant(self, name: str, track: str = "main", cat: str = "host",
                **args: Any) -> None:
        """Record a zero-duration marker at the current instant."""
        buf = self._mine()
        if len(buf.events) < self.max_events:
            now = self.clock()
            buf.events.append((_INSTANT, name, cat, track, now, now,
                               buf.pid, args or None))
        else:
            buf.dropped += 1

    def count(self, name: str, value: float = 1.0, **labels: Any) -> None:
        """Add ``value`` to a labelled counter."""
        buf = self._mine()
        key = (name, tuple(sorted(labels.items())))
        buf.counters[key] = buf.counters.get(key, 0.0) + value

    # -- cross-process shipping ----------------------------------------
    def drain(self) -> Dict[str, Any]:
        """Detach and return this PID's buffer as a picklable payload.

        Called in a forked worker just before it ships results home;
        the buffer is cleared, so a second drain ships nothing twice.
        """
        buf = self._mine()
        self._buf = _Buf(buf.pid)
        return {
            "pid": buf.pid,
            "events": buf.events,
            "agg": {k: list(v) for k, v in buf.agg.items()},
            "counters": dict(buf.counters),
            "dropped": buf.dropped,
        }

    def absorb(self, payload: Optional[Dict[str, Any]]) -> None:
        """Merge a child's :meth:`drain` payload into this buffer."""
        if not payload:
            return
        buf = self._mine()
        room = self.max_events - len(buf.events)
        events = payload["events"]
        buf.events.extend(events[:room])
        buf.dropped += payload["dropped"] + max(0, len(events) - room)
        for key, (count, total, peak) in payload["agg"].items():
            key = tuple(key)
            agg = buf.agg.get(key)
            if agg is None:
                buf.agg[key] = [count, total, peak]
            else:
                agg[0] += count
                agg[1] += total
                if peak > agg[2]:
                    agg[2] = peak
        for key, value in payload["counters"].items():
            key = (key[0], tuple(tuple(i) for i in key[1]))
            buf.counters[key] = buf.counters.get(key, 0.0) + value

    # -- reads ---------------------------------------------------------
    def events(self) -> List[tuple]:
        """All buffered events, merged in wall-timestamp order."""
        return sorted(self._mine().events, key=lambda e: (e[4], e[5]))

    def aggregates(self) -> Dict[Tuple[str, str], List[float]]:
        """(name, track) → [count, total_s, max_s], exact (uncapped)."""
        return {k: list(v) for k, v in self._mine().agg.items()}

    def counters(self) -> Dict[Tuple[str, tuple], float]:
        return dict(self._mine().counters)

    @property
    def dropped(self) -> int:
        return self._mine().dropped


# -- activation ---------------------------------------------------------
#: the process-wide active tracer (inherited across fork); None = off
_ACTIVE: Optional[HostTracer] = None


def active() -> Optional[HostTracer]:
    """The active tracer, or None when host telemetry is off (default).

    Every instrumentation point in the host runtime calls this and
    does nothing when it returns None — the disabled path is one
    global read per instrumented operation.
    """
    return _ACTIVE


def enable(tracer: Optional[HostTracer] = None) -> HostTracer:
    """Turn host telemetry on process-wide; returns the tracer."""
    global _ACTIVE
    _ACTIVE = tracer if tracer is not None else HostTracer()
    return _ACTIVE


def disable() -> None:
    """Turn host telemetry off."""
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def tracing(tracer: Optional[HostTracer] = None) -> Iterator[HostTracer]:
    """Scope host telemetry to a ``with`` block (restores the previous
    tracer on exit, so nesting and tests compose)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer if tracer is not None else HostTracer()
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous


def jsonl_event_writer(stream: TextIO, **extra: Any) -> Callable[[Dict], None]:
    """A progress callback that writes one JSON line per event.

    The live stream ``python -m repro serve --events`` interleaves
    into its stdout and ``sweep --progress`` emits on stderr: each
    queue lifecycle event (hit/dedup/miss/start/done) becomes
    ``{"event": "progress", ...}``.
    """
    def write(event: Dict[str, Any]) -> None:
        print(json.dumps({"event": "progress", **extra, **event},
                         sort_keys=True), file=stream, flush=True)
    return write


# -- reporting ----------------------------------------------------------
class HostReport:
    """Summaries, exports and the CLI text for one tracer's telemetry."""

    #: bump on any incompatible change to :meth:`as_dict`
    SCHEMA = 2

    def __init__(self, tracer: HostTracer) -> None:
        self.tracer = tracer

    # -- service -------------------------------------------------------
    def _counter_by(self, name: str, label: str) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for (n, items), value in self.tracer.counters().items():
            if n != name:
                continue
            labels = dict(items)
            if label in labels:
                key = str(labels[label])
                out[key] = out.get(key, 0.0) + value
        return out

    def cache_summary(self) -> Dict[str, Any]:
        """Cache op counts by outcome + wall cost of the op spans."""
        by_outcome = self._counter_by("cache_ops_total", "outcome")
        agg = self.tracer.aggregates()
        gets = agg.get(("cache.get", "cache"), [0, 0.0, 0.0])
        puts = agg.get(("cache.put", "cache"), [0, 0.0, 0.0])
        hits = by_outcome.get("hit", 0.0)
        reads = sum(v for k, v in by_outcome.items() if k != "write")
        return {
            "ops": {k: int(v) for k, v in sorted(by_outcome.items())},
            "hit_ratio": hits / reads if reads else None,
            "get_wall_s": gets[1],
            "put_wall_s": puts[1],
        }

    def queue_summary(self) -> Dict[str, Any]:
        """Sweep-queue lifecycle counts (submit→dedup→start→done)."""
        phases = self._counter_by("queue_cells_total", "phase")
        return {k: int(v) for k, v in sorted(phases.items())}

    def bench_summary(self) -> Dict[str, Any]:
        cells = self.tracer.aggregates().get(("bench.cell", "bench"))
        if not cells:
            return {"cells": 0, "wall_s": 0.0, "max_s": 0.0}
        return {"cells": cells[0], "wall_s": cells[1], "max_s": cells[2]}

    def tuner_summary(self) -> Dict[str, Any]:
        agg = self.tracer.aggregates()
        cand = agg.get(("tuner.candidate", "tuner"), [0, 0.0, 0.0])
        batch = agg.get(("tuner.batch", "tuner"), [0, 0.0, 0.0])
        return {"candidates": cand[0], "candidate_wall_s": cand[1],
                "max_candidate_s": cand[2],
                "batches": batch[0], "batch_wall_s": batch[1]}

    # -- exports -------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe summary (the ``host_telemetry.json`` artifact the
        report's host section ingests)."""
        return {
            "schema": self.SCHEMA,
            "clock": "wall",
            "cache": self.cache_summary(),
            "queue": self.queue_summary(),
            "bench": self.bench_summary(),
            "tuner": self.tuner_summary(),
            "events": len(self.tracer.events()),
            "dropped": self.tracer.dropped,
        }

    def metrics(self) -> Metrics:
        """The telemetry folded into a Metrics registry.

        Span aggregates become ``host_span_seconds_total`` /
        ``host_span_count`` counters and ``host_span_max_seconds``
        gauges labelled by span name and track; host counters carry
        over under their own names.  ``registry.snapshot()`` is the
        metrics-snapshot JSON export.
        """
        m = Metrics()
        for (name, track), (count, total, peak) in sorted(
                self.tracer.aggregates().items()):
            m.inc("host_span_count", count, span=name, track=track)
            m.inc("host_span_seconds_total", total, span=name, track=track)
            m.set_gauge("host_span_max_seconds", peak, span=name,
                        track=track)
        for (name, items), value in sorted(self.tracer.counters().items()):
            m.inc(name, value, **dict(items))
        return m

    def to_perfetto(self) -> Dict[str, Any]:
        """The host trace as a Trace Event Format object.

        One Perfetto *process* row per OS process (parent first), one
        *thread* row per telemetry track (cache, queue, bench, tuner),
        spans as ``"X"`` and markers as ``"i"`` events.  Validates against
        :func:`~repro.obs.perfetto.validate_chrome_trace` — the same
        schema checker the sim-time traces go through.
        """
        events = self.tracer.events()
        out: List[Dict[str, Any]] = []
        pids: Dict[int, int] = {}
        tids: Dict[Tuple[int, str], int] = {}
        # Parent (this process) is always process row 0.
        pids[os.getpid()] = 0
        for ev in events:
            pids.setdefault(ev[6], len(pids))
        for os_pid, row in sorted(pids.items(), key=lambda kv: kv[1]):
            role = "host" if row == 0 else f"forked worker pid {os_pid}"
            out.append({"name": "process_name", "ph": "M", "pid": row,
                        "tid": 0, "args": {"name": role}})
        t_zero = events[0][4] if events else 0.0
        for kind, name, cat, track, t0, t1, os_pid, args in events:
            pid = pids[os_pid]
            tid = tids.setdefault(
                (pid, track),
                sum(1 for key in tids if key[0] == pid))
            ev: Dict[str, Any] = {
                "name": name, "cat": cat, "ph": kind,
                "ts": max(0.0, (t0 - t_zero) * 1e6),
                "pid": pid, "tid": tid,
            }
            if kind == _SPAN:
                ev["dur"] = max(0.0, (t1 - t0) * 1e6)
            if args:
                ev["args"] = dict(args)
            out.append(ev)
        for (pid, track), tid in sorted(tids.items()):
            out.append({"name": "thread_name", "ph": "M", "pid": pid,
                        "tid": tid, "args": {"name": track}})
            out.append({"name": "thread_sort_index", "ph": "M", "pid": pid,
                        "tid": tid, "args": {"sort_index": tid}})
        return {"traceEvents": out, "displayTimeUnit": "ns"}

    def to_jsonl(self) -> str:
        """Every buffered event as one JSON line (the offline form of
        the live stream)."""
        lines = []
        for kind, name, cat, track, t0, t1, pid, args in \
                self.tracer.events():
            lines.append(json.dumps({
                "event": "span" if kind == _SPAN else "instant",
                "name": name, "cat": cat, "track": track,
                "t0": t0, "t1": t1, "pid": pid, "args": args or {},
            }, sort_keys=True))
        return "\n".join(lines)

    # -- CLI text ------------------------------------------------------
    def format(self) -> str:
        """The ``python -m repro telemetry`` summary."""
        lines = ["host telemetry (wall clock):"]
        cache = self.cache_summary()
        if cache["ops"]:
            ratio = (f", hit ratio {cache['hit_ratio']:.1%}"
                     if cache["hit_ratio"] is not None else "")
            ops = ", ".join(f"{k}={v}" for k, v in cache["ops"].items())
            lines.append(f"  cache: {ops}{ratio} "
                         f"(get {cache['get_wall_s'] * 1e3:.1f} ms, "
                         f"put {cache['put_wall_s'] * 1e3:.1f} ms)")
        queue = self.queue_summary()
        if queue:
            lines.append("  queue: " + ", ".join(
                f"{k}={v}" for k, v in queue.items()))
        bench = self.bench_summary()
        if bench["cells"]:
            lines.append(
                f"  bench: {bench['cells']} cells in "
                f"{bench['wall_s']:.2f} s wall "
                f"(slowest {bench['max_s']:.2f} s)")
        tuner = self.tuner_summary()
        if tuner["candidates"] or tuner["batches"]:
            lines.append(
                f"  tuner: {tuner['candidates']} candidates in "
                f"{tuner['candidate_wall_s']:.2f} s"
                + (f", {tuner['batches']} pooled batches in "
                   f"{tuner['batch_wall_s']:.2f} s" if tuner["batches"]
                   else ""))
        if self.tracer.dropped:
            lines.append(f"  (detail cap hit: {self.tracer.dropped} "
                         "events dropped; aggregates stay exact)")
        if len(lines) == 1:
            lines.append("  (no events recorded)")
        return "\n".join(lines)
