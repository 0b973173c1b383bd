"""Layer instruments for the traced run, applied from outside ``src/``.

:class:`Instruments` times calls into each layer's public entry points
by wrapping them on their classes for the duration of a ``with`` block:

* ``World.run`` — the whole discrete-event loop (``runtime.world_run_s``);
* ``MpiLibrary.make_world`` — world construction (``bench.make_world_s``);
* ``World.assert_quiescent`` — the post-run leak check
  (``runtime.quiesce_s``);
* ``SpanRecorder.finalize`` and ``SpanRecorder.tree`` — span
  post-processing (``obs.finalize_s``).

It also counts garbage collections through ``gc.callbacks`` and, with
``profile=True``, runs ``cProfile`` inside ``World.run`` /
``Session.run`` and inside every shim rank thread.  No single call
separates sim, runtime, transport and collectives — the event loop
interleaves them — so :func:`layer_shares` splits profiled self time by
the ``repro.<module>`` that owns each function.
"""

from __future__ import annotations

import cProfile
import gc
import pstats
import threading
import time
from collections import defaultdict
from pathlib import PurePath
from typing import Callable, Dict, List, Optional, Tuple

from repro.api import Session
from repro.mpilibs.base import MpiLibrary
from repro.obs.spans import SpanRecorder
from repro.runtime.world import World
from repro.shim.bridge import RankBridge

#: profile buckets, by ``repro.<module>``; ``collectives`` and ``core``
#: share one bucket (schedules and their building blocks)
LAYERS = ("sim", "runtime", "transport", "machine", "collectives_core",
          "mpilibs", "pip", "bench", "obs", "shim", "api")
#: the program's own code: the shim apps and the example they load
APP_DIRS = ("perfbench", "examples")


def layer_of(filename: str) -> Optional[str]:
    """The bucket owning code in ``filename``; None for library code
    (stdlib, numpy, builtins) whose time belongs to its caller."""
    parts = PurePath(filename).parts
    if "repro" in parts:
        rest = parts[len(parts) - parts[::-1].index("repro"):]
        head = rest[0][:-3] if rest[0].endswith(".py") else rest[0]
        if head in ("collectives", "core"):
            return "collectives_core"
        return head if head in LAYERS else "repro_other"
    if len(parts) > 1 and parts[-2] in APP_DIRS:
        return "app"
    return None


def layer_shares(stats: pstats.Stats) -> Dict[str, float]:
    """Share of profiled self time per bucket.

    Self time of functions outside every bucket (builtins, stdlib,
    numpy) is charged to the buckets of their callers, split by the
    time each caller accounted for; time with no bucketed caller at
    all lands in ``other``.
    """
    raw = stats.stats
    owners: Dict[tuple, Dict[str, float]] = {}

    def owner_of(func, seen: frozenset) -> Dict[str, float]:
        if func in owners:
            return owners[func]
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        callers = raw[func][4] if func in raw else {}
        total = sum(v[3] for v in callers.values())
        if not callers or total <= 0 or func in seen:
            result = {"other": 1.0}
        else:
            result = defaultdict(float)
            for caller, v in callers.items():
                for name, w in owner_of(caller, seen | {func}).items():
                    result[name] += w * v[3] / total
        owners[func] = dict(result)
        return owners[func]

    shares: Dict[str, float] = defaultdict(float)
    for func, (_cc, _nc, tt, _ct, callers) in raw.items():
        if tt <= 0:
            continue
        layer = layer_of(func[0])
        if layer is not None:
            shares[layer] += tt
            continue
        total = sum(v[2] for v in callers.values())
        if total <= 0:
            shares["other"] += tt
            continue
        for caller, v in callers.items():
            for name, w in owner_of(caller, frozenset({func})).items():
                shares[name] += tt * w * v[2] / total
    grand = sum(shares.values())
    return {k: v / grand for k, v in shares.items()} if grand else {}


class Instruments:
    """Entry-point wrappers, GC accounting and (optionally) cProfile."""

    def __init__(self, profile: bool = False) -> None:
        self.profile = profile
        #: seconds spent inside each wrapped entry point
        self.seconds: Dict[str, float] = defaultdict(float)
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self.gc_between_ops_s = 0.0
        self._forcing = False
        self._gc_t0 = 0.0
        self._patches: List[Tuple[type, str, Callable]] = []
        self._main: Optional[cProfile.Profile] = None
        self._threads: List[cProfile.Profile] = []
        self._depth = threading.local()

    # -- wrapping ----------------------------------------------------------
    def _timed(self, cls: type, attr: str, metric: str) -> None:
        orig = getattr(cls, attr)
        seconds = self.seconds

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                seconds[metric] += time.perf_counter() - t0

        self._patch(cls, attr, wrapper)

    def _profiled(self, cls: type, attr: str) -> None:
        """Profile the main thread while inside ``cls.attr`` (outermost
        entry only, so nested entry points do not restart it)."""
        orig = getattr(cls, attr)
        depth = self._depth
        prof = self._main

        def wrapper(*args, **kwargs):
            level = getattr(depth, "n", 0)
            depth.n = level + 1
            if level == 0:
                prof.enable()
            try:
                return orig(*args, **kwargs)
            finally:
                depth.n = level
                if level == 0:
                    prof.disable()

        self._patch(cls, attr, wrapper)

    def _profiled_rank_threads(self) -> None:
        orig = RankBridge._user_main
        threads = self._threads

        def user_main(bridge):
            prof = cProfile.Profile(time.thread_time)
            threads.append(prof)
            prof.enable()
            try:
                orig(bridge)
            finally:
                prof.disable()

        self._patch(RankBridge, "_user_main", user_main)

    def _patch(self, cls: type, attr: str, new: Callable) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, new)

    # -- GC accounting -----------------------------------------------------
    def _gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = time.perf_counter()
            return
        dt = time.perf_counter() - self._gc_t0
        if self._forcing:
            self.gc_between_ops_s += dt
        else:
            self.gc_pause_s += dt
            self.gc_collections += 1

    def collect_between_ops(self) -> float:
        """A full collection outside any op; returns its seconds."""
        self._forcing = True
        t0 = time.perf_counter()
        try:
            gc.collect()
        finally:
            self._forcing = False
        return time.perf_counter() - t0

    # -- context -----------------------------------------------------------
    def __enter__(self) -> "Instruments":
        if self.profile:
            # CPU time per thread: shim rank threads blocked on their
            # bridge queues cost nothing, as they cost the host nothing.
            self._main = cProfile.Profile(time.thread_time)
            self._profiled(Session, "run")
            self._profiled(World, "run")
            self._profiled_rank_threads()
        self._timed(World, "run", "runtime.world_run_s")
        self._timed(MpiLibrary, "make_world", "bench.make_world_s")
        self._timed(World, "assert_quiescent", "runtime.quiesce_s")
        self._timed(SpanRecorder, "finalize", "obs.finalize_s")
        self._timed(SpanRecorder, "tree", "obs.finalize_s")
        gc.callbacks.append(self._gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._gc)
        for cls, attr, orig in reversed(self._patches):
            setattr(cls, attr, orig)
        self._patches.clear()

    def shares(self) -> Dict[str, float]:
        """Profiled self-time share per bucket (empty unless profiling)."""
        if self._main is None:
            return {}
        stats = pstats.Stats(self._main)
        for prof in self._threads:
            stats.add(prof)
        return layer_shares(stats)
