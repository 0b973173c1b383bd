"""Deduplicating, batching sweep-cell job queue.

:class:`SweepJobQueue` turns a list of :class:`SweepRequest` cells
into :class:`~repro.bench.harness.BenchPoint` results, in request
order, through three stages:

1. **cache probe** — every content-addressable cell is looked up in
   the :class:`~repro.service.cache.ResultCache` first; hits cost one
   file read;
2. **dedup window** — remaining cells are deduplicated by cache key
   within the submission, so a grid that names the same cell twice
   simulates it once (uncacheable cells have no key and are never
   deduplicated — there is nothing sound to dedup *on*);
3. **batched execution** — unique misses run through
   ``bench_collective``, either inline or fanned out across forked
   worker processes (``os.fork`` + ``Pipe``, each worker running
   whole worlds and shipping results home).  Workers stream per-cell
   completions, so progress events arrive as cells finish, and results
   are keyed by task index — completion order never leaks into output
   order.  Fresh results are written back to the cache atomically.

Progress streaming: pass ``on_event`` and the queue emits dicts —
``{"phase": "hit"|"dedup"|"miss"|"start"|"done", "index": i,
"total": n, "key": <key or None>, "cell": "<human label>"}`` — one
``hit``/``dedup``/``miss`` per request during the probe, then
``start``/``done`` per executed cell (``start`` is only emitted for
inline execution; forked workers report completions).

Determinism: the simulator is deterministic, records are
schema-validated on both cache boundaries, and a cache hit rebuilds
the exact BenchPoint a fresh run would produce — the differential
suite (``tests/service/test_differential_cache.py``) asserts
byte-identical records across cold/warm/mixed paths on both the
calendar and reference engines.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from multiprocessing import Pipe
from multiprocessing.connection import wait as _conn_wait
from typing import Any, Callable, Dict, List, Optional, Union

from ..bench import harness as _harness
from ..machine import MachineParams
from ..obs import host
from ..sim.spec import EngineSpec
from .cache import ResultCache, as_cache, point_from_record
from .keys import CacheKeyError, cell_key


@dataclass
class SweepRequest:
    """One sweep cell: everything ``bench_collective`` needs."""

    library: Any  # name, spec string, or MpiLibrary instance
    collective: str
    nbytes: int
    params: MachineParams
    warmup: int = 1
    iters: int = 3
    functional: bool = False
    root: int = 0
    engine: Union[str, EngineSpec, None] = None
    resources: bool = False
    attribution: bool = False
    #: overrides/extends the content-address (see service.keys)
    library_id: Optional[Dict[str, Any]] = None
    extra: Any = None

    def cache_key(self) -> Optional[str]:
        """The cell's content address, or None when unaddressable."""
        try:
            return cell_key(
                self.library, self.collective, self.nbytes, self.params,
                warmup=self.warmup, iters=self.iters,
                functional=self.functional, root=self.root,
                engine=self.engine, resources=self.resources,
                attribution=self.attribution,
                library_id=self.library_id, extra=self.extra,
            )
        except CacheKeyError:
            return None

    def label(self) -> str:
        """Human-readable cell name for progress events and errors."""
        lib = (self.library if isinstance(self.library, str)
               else self.library.profile.name)
        return (f"{lib}/{self.collective}/{self.nbytes}B"
                f"@{self.params.nodes}x{self.params.ppn}")

    def run(self) -> "_harness.BenchPoint":
        """Measure this cell directly (no cache involvement)."""
        # Late module-attribute lookup so tests can monkeypatch
        # bench_collective and count real simulations.
        return _harness.bench_collective(
            self.library, self.collective, self.nbytes, self.params,
            warmup=self.warmup, iters=self.iters,
            functional=self.functional, root=self.root,
            engine=self.engine, resources=self.resources,
            attribution=self.attribution,
        )


@dataclass
class QueueStats:
    """What one :meth:`SweepJobQueue.run` submission did."""

    requested: int = 0
    hits: int = 0
    deduped: int = 0
    computed: int = 0
    #: cache keys of executed cells, in execution-plan order (None for
    #: uncacheable cells); the stress suite audits dedup with this
    computed_keys: List[Optional[str]] = field(default_factory=list)

    def describe(self) -> str:
        return (f"{self.requested} cells: {self.hits} cached, "
                f"{self.deduped} deduped, {self.computed} simulated")


class SweepJobQueue:
    """Batch executor for sweep cells over one shared result cache."""

    def __init__(self, cache: Union[None, str, "os.PathLike", ResultCache] = None,
                 workers: int = 1,
                 on_event: Optional[Callable[[Dict[str, Any]], None]] = None):
        self.cache = as_cache(cache)
        self.workers = max(1, int(workers))
        self.on_event = on_event
        self.stats = QueueStats()

    def _emit(self, phase: str, index: int, total: int,
              key: Optional[str], cell: str) -> None:
        tracer = host.active()
        if tracer is not None:
            tracer.instant(f"queue.{phase}", track="queue", cat="service",
                           index=index, total=total, cell=cell)
            tracer.count("queue_cells_total", phase=phase)
        if self.on_event is not None:
            self.on_event({"phase": phase, "index": index, "total": total,
                           "key": key, "cell": cell})

    def run(self, requests: List[SweepRequest]) -> List["_harness.BenchPoint"]:
        """Resolve every request; returns points in request order."""
        total = len(requests)
        self.stats = QueueStats(requested=total)
        keys = [req.cache_key() for req in requests]
        points: List[Optional[_harness.BenchPoint]] = [None] * total

        # -- probe + dedup window --------------------------------------
        first_of: Dict[str, int] = {}
        followers: Dict[int, List[int]] = {}
        plan: List[int] = []  # representative indices to execute
        for i, (req, key) in enumerate(zip(requests, keys)):
            if key is not None and self.cache is not None:
                record = self.cache.get(key)
                if record is not None:
                    points[i] = point_from_record(record)
                    self.stats.hits += 1
                    self._emit("hit", i, total, key, req.label())
                    continue
            if key is not None and key in first_of:
                followers[first_of[key]].append(i)
                self.stats.deduped += 1
                self._emit("dedup", i, total, key, req.label())
                continue
            if key is not None:
                first_of[key] = i
            followers[i] = []
            plan.append(i)
            self._emit("miss", i, total, key, req.label())

        # -- batched execution -----------------------------------------
        if plan:
            computed = self._execute([requests[i] for i in plan],
                                     [keys[i] for i in plan], total)
            for i, point in zip(plan, computed):
                points[i] = point
                if keys[i] is not None and self.cache is not None:
                    self.cache.put_point(keys[i], point)
                for j in followers[i]:
                    points[j] = point
            self.stats.computed = len(plan)
            self.stats.computed_keys = [keys[i] for i in plan]
        return points  # type: ignore[return-value]

    # -- execution backends --------------------------------------------
    def _execute(self, todo: List[SweepRequest],
                 todo_keys: List[Optional[str]],
                 total: int) -> List["_harness.BenchPoint"]:
        if self.workers <= 1 or len(todo) <= 1:
            tracer = host.active()
            out = []
            for i, req in enumerate(todo):
                self._emit("start", i, total, todo_keys[i], req.label())
                if tracer is None:
                    point = req.run()
                else:
                    t0 = tracer.clock()
                    point = req.run()
                    tracer.span_at("cell.run", t0, tracer.clock(),
                                   track="queue", cat="service",
                                   cell=req.label())
                out.append(point)
                self._emit("done", i, total, todo_keys[i], req.label())
            return out
        return self._execute_forked(todo, todo_keys, total)

    def _execute_forked(self, todo: List[SweepRequest],
                        todo_keys: List[Optional[str]],
                        total: int) -> List["_harness.BenchPoint"]:
        """Fan cells out across forked workers (contiguous blocks,
        results keyed by task index — see module docstring)."""
        nworkers = min(self.workers, len(todo))
        owned_by = [[i for i in range(len(todo)) if i % nworkers == w]
                    for w in range(nworkers)]
        conns = []
        pids = []
        for w in range(nworkers):
            parent_conn, child_conn = Pipe()
            pid = os.fork()
            if pid == 0:
                # Child: drop the parent ends (ours and earlier workers').
                parent_conn.close()
                for other in conns:
                    other.close()
                code = 0
                try:
                    tracer = host.active()
                    for i in owned_by[w]:
                        if tracer is None:
                            point = todo[i].run()
                        else:
                            t0 = tracer.clock()
                            point = todo[i].run()
                            tracer.span_at("cell.run", t0, tracer.clock(),
                                           track="queue", cat="service",
                                           cell=todo[i].label())
                        child_conn.send(("done", i, point))
                    # Telemetry rides the final message home (fork-safe:
                    # drain() holds only this child's events).
                    child_conn.send(("final",
                                     tracer.drain() if tracer is not None
                                     else None))
                except BaseException:  # pragma: no cover - shipped home
                    import traceback

                    code = 1
                    try:
                        child_conn.send(("error", todo[i].label(),
                                         traceback.format_exc()))
                    except Exception:
                        pass
                finally:
                    child_conn.close()
                    os._exit(code)
            child_conn.close()
            conns.append(parent_conn)
            pids.append(pid)

        results: List[Optional[_harness.BenchPoint]] = [None] * len(todo)
        try:
            pending = set(conns)
            while pending:
                for conn in _conn_wait(list(pending)):
                    try:
                        msg = conn.recv()
                    except EOFError:
                        raise RuntimeError(
                            "sweep worker exited without reporting; "
                            "its cells are lost"
                        ) from None
                    if msg[0] == "done":
                        _tag, i, point = msg
                        results[i] = point
                        self._emit("done", i, total, todo_keys[i],
                                   todo[i].label())
                    elif msg[0] == "final":
                        tracer = host.active()
                        if tracer is not None and len(msg) > 1:
                            tracer.absorb(msg[1])
                        pending.discard(conn)
                    else:
                        raise RuntimeError(
                            f"sweep worker failed on {msg[1]}:\n{msg[2]}"
                        )
        finally:
            for conn in conns:
                conn.close()
            for pid in pids:
                os.waitpid(pid, 0)
        return results  # type: ignore[return-value]


def cached_bench_collective(
    library: Any,
    collective: str,
    nbytes: int,
    params: MachineParams,
    *,
    cache: Union[str, "os.PathLike", ResultCache],
    warmup: int = 1,
    iters: int = 3,
    functional: bool = False,
    root: int = 0,
    engine: Union[str, EngineSpec, None] = None,
    resources: bool = False,
    attribution: bool = False,
    library_id: Optional[Dict[str, Any]] = None,
    extra: Any = None,
) -> "_harness.BenchPoint":
    """One cell through the cache: probe, else measure and store.

    Raises :class:`~repro.service.keys.CacheKeyError` when the cell is
    not content-addressable — callers decide whether to fall back to a
    direct measurement.
    """
    store = as_cache(cache)
    key = cell_key(library, collective, nbytes, params,
                   warmup=warmup, iters=iters, functional=functional,
                   root=root, engine=engine, resources=resources,
                   attribution=attribution, library_id=library_id,
                   extra=extra)
    record = store.get(key)
    if record is not None:
        return point_from_record(record)
    point = _harness.bench_collective(
        library, collective, nbytes, params, warmup=warmup, iters=iters,
        functional=functional, root=root, engine=engine,
        resources=resources, attribution=attribution,
    )
    store.put_point(key, point)
    return point
