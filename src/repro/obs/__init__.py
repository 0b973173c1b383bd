"""repro.obs — span-based observability for simulated runs.

This subsystem records **hierarchical spans** (``run > collective >
round > message``) on every rank's timeline, derives a **metrics
registry** from them (bytes by transport, retransmits, sync waits, NIC
busy), exports **Chrome/Perfetto JSON** loadable in
``ui.perfetto.dev``, and extracts the **critical path** over the
message-dependency graph — which rank, round and transport actually
bound a collective.

Attach via the high-level API (:class:`repro.api.Session` with
tracing on) or directly::

    from repro.obs import SpanRecorder
    from repro.runtime import World
    recorder = SpanRecorder()
    world = World(params, obs=recorder)
    ... run ...
    tree = recorder.tree()
    trace_json = to_perfetto(tree)
    path = critical_path(tree, collective="allgather")

With no recorder attached every instrumentation point is a single
``is None`` check — the traced-off hot path stays as fast as before
this subsystem existed.
"""

from . import host
from .attribution import COMPONENTS, Attribution, RoundAttribution, attribute
from .critical_path import CriticalPath, Hop, critical_path
from .host import HostReport, HostTracer, jsonl_event_writer
from .metrics import CardinalityError, Histogram, Metrics
from .perfetto import (counter_events, to_perfetto, validate_chrome_trace,
                       write_perfetto, write_trace)
from .resources import ResourceMonitor, ResourceTimeline
from .spans import NULL_SPAN, Span, SpanRecorder
from .timeline import TraceTree

__all__ = [
    "Attribution",
    "COMPONENTS",
    "CardinalityError",
    "CriticalPath",
    "Histogram",
    "Hop",
    "HostReport",
    "HostTracer",
    "Metrics",
    "NULL_SPAN",
    "ResourceMonitor",
    "ResourceTimeline",
    "RoundAttribution",
    "Span",
    "SpanRecorder",
    "TraceTree",
    "attribute",
    "counter_events",
    "critical_path",
    "host",
    "jsonl_event_writer",
    "to_perfetto",
    "validate_chrome_trace",
    "write_perfetto",
    "write_trace",
]
