"""OSU-microbenchmark-style latency harness.

For one (library, collective, message size, machine) point the harness
builds a fresh world, allocates per-rank buffers once (so attach
caches amortise exactly as they would in OSU's loop), then runs
``warmup + iters`` iterations, each preceded by a zero-cost hard sync
so all ranks start together.  The reported latency of an iteration is
the **max across ranks** (OSU's convention for collectives), and the
point's latency is the mean over measured iterations.

Full-scale runs (2304 ranks) default to timing-only buffers; the same
code path with functional buffers is what the correctness suite runs
at small scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..machine import MachineParams
from ..mpilibs import MpiLibrary, make_library
from ..obs import host
from ..runtime.datatypes import FLOAT64
from ..runtime.ops import SUM

#: collectives needing (dtype, op) arguments
_REDUCING = {"allreduce", "reduce", "reduce_scatter"}
#: collectives with a root argument
_ROOTED = {"bcast", "gather", "scatter", "reduce"}


@dataclass(frozen=True)
class BenchPoint:
    """One measured (library, collective, size) point."""

    library: str
    collective: str
    nbytes: int
    latency_us: float  # mean over iterations of max-across-ranks
    min_us: float
    max_us: float
    iterations: Tuple[float, ...]  # per-iteration max-across-ranks (µs)
    #: the world's post-run hardware/protocol counters (retransmits,
    #: injected faults, ...); chaos sweeps read these
    stats: Optional[dict] = None
    #: machine geometry of the run (record keys need it)
    nodes: int = 0
    ppn: int = 0
    #: ResourceMonitor.summary() over the measured window (resources=True)
    resources: Optional[dict] = None
    #: Attribution.as_dict() of a profiled call (attribution=True)
    attribution: Optional[dict] = None

    def to_record(self, **meta):
        """This point as a schema'd :class:`~repro.bench.record.BenchRecord`."""
        from .record import BenchRecord

        return BenchRecord(
            library=self.library,
            collective=self.collective,
            nbytes=self.nbytes,
            nodes=self.nodes,
            ppn=self.ppn,
            latency_us=self.latency_us,
            min_us=self.min_us,
            max_us=self.max_us,
            iterations_us=list(self.iterations),
            stats=self.stats,
            resources=self.resources,
            attribution=self.attribution,
            meta=dict(meta),
        )


def _buffers(ctx, collective: str, nbytes: int, size: int, root: int):
    """Allocate the per-rank buffers a collective needs (once)."""
    if collective == "bcast":
        return {"view": ctx.alloc(nbytes).view()}
    if collective == "scatter":
        send = ctx.alloc(nbytes * size) if ctx.comm_world.to_comm(ctx.rank) == root else None
        return {"send": send.view() if send else None, "recv": ctx.alloc(nbytes).view()}
    if collective == "gather":
        recv = ctx.alloc(nbytes * size) if ctx.comm_world.to_comm(ctx.rank) == root else None
        return {"send": ctx.alloc(nbytes).view(), "recv": recv.view() if recv else None}
    if collective == "allgather":
        return {"send": ctx.alloc(nbytes).view(), "recv": ctx.alloc(nbytes * size).view()}
    if collective == "allreduce":
        return {"send": ctx.alloc(nbytes).view(), "recv": ctx.alloc(nbytes).view()}
    if collective == "reduce":
        recv = ctx.alloc(nbytes) if ctx.comm_world.to_comm(ctx.rank) == root else None
        return {"send": ctx.alloc(nbytes).view(), "recv": recv.view() if recv else None}
    if collective == "alltoall":
        return {"send": ctx.alloc(nbytes * size).view(),
                "recv": ctx.alloc(nbytes * size).view()}
    if collective == "reduce_scatter":
        return {"send": ctx.alloc(nbytes * size).view(), "recv": ctx.alloc(nbytes).view()}
    if collective == "barrier":
        return {}
    raise KeyError(f"unknown collective {collective!r}")


def _invoke(algo, ctx, bufs, collective: str, root: int):
    """One collective call with family-appropriate arguments.

    Returns the collective's generator (callers ``yield from`` it)
    rather than wrapping it in one more: every resume of a rank passes
    through each generator frame on its stack.
    """
    if collective == "bcast":
        return algo(ctx, bufs["view"], root=root)
    if collective in ("scatter", "gather"):
        return algo(ctx, bufs["send"], bufs["recv"], root=root)
    if collective in ("allgather", "alltoall"):
        return algo(ctx, bufs["send"], bufs["recv"])
    if collective in ("allreduce", "reduce_scatter"):
        return algo(ctx, bufs["send"], bufs["recv"], FLOAT64, SUM)
    if collective == "reduce":
        return algo(ctx, bufs["send"], bufs["recv"], FLOAT64, SUM, root=root)
    if collective == "barrier":
        return algo(ctx)
    raise KeyError(collective)  # pragma: no cover - guarded by _buffers


def bench_collective(
    library: Union[str, MpiLibrary],
    collective: str,
    nbytes: int,
    params: MachineParams,
    warmup: int = 1,
    iters: int = 3,
    functional: bool = False,
    root: int = 0,
    faults=None,
    reliable: bool = False,
    resources: bool = False,
    attribution: bool = False,
    engine=None,
    cache=None,
) -> BenchPoint:
    """Measure one point (see module docstring).

    ``faults`` (a :class:`~repro.faults.FaultPlan`) and ``reliable``
    turn the measurement into a chaos point: same harness, same
    timing convention, lossy wire underneath.  ``engine`` selects the
    simulation engine — ``"calendar"`` (default), ``"reference"`` or
    an :class:`~repro.sim.EngineSpec`; see ``docs/ENGINE.md``.

    ``resources=True`` attaches a
    :class:`~repro.obs.resources.ResourceMonitor` (fast-path safe) and
    fills ``point.resources`` with its summary over the measured
    iterations (warmup excluded).  ``attribution=True`` additionally
    profiles one span-traced call in a fresh world
    (:func:`repro.bench.breakdown.measure_attribution`) and fills
    ``point.attribution`` — the timing numbers still come from the
    untraced run.

    ``cache`` (a directory path or :class:`~repro.service.ResultCache`)
    routes the point through the content-addressed result cache: a
    warm cell costs one file read and returns a byte-identical point.
    Chaos points (``faults``/``reliable``) and non-content-addressable
    libraries bypass the cache and measure directly — the cache only
    ever holds clean, reconstructable measurements (see
    ``docs/SERVICE.md``).
    """
    if cache is not None and faults is None and not reliable:
        from ..service import CacheKeyError, cached_bench_collective

        try:
            return cached_bench_collective(
                library, collective, nbytes, params,
                cache=cache, warmup=warmup, iters=iters,
                functional=functional, root=root, engine=engine,
                resources=resources, attribution=attribution,
            )
        except CacheKeyError:
            pass  # unaddressable cell → fall through to direct measure
    tracer = host.active()
    t_cell = tracer.clock() if tracer is not None else 0.0
    lib = make_library(library) if isinstance(library, str) else library
    if warmup < 0 or iters < 1:
        raise ValueError("need warmup >= 0 and iters >= 1")
    world = lib.make_world(params, functional=functional,
                           faults=faults, reliable=reliable,
                           resources=resources, engine=engine)
    size = world.comm_world.size
    algo = lib.wrapped(collective, nbytes, size)
    monitor = world.resources

    def program(ctx):
        bufs = _buffers(ctx, collective, nbytes, size, root)
        lats: List[float] = []
        for i in range(warmup + iters):
            yield from ctx.hard_sync()
            if i == warmup and ctx.rank == 0 and monitor is not None:
                # All ranks sit at the same hard-sync instant and every
                # cost is paid strictly later, so wiping here scopes
                # the telemetry window to the measured iterations.
                monitor.reset()
            t0 = ctx.now
            yield from _invoke(algo, ctx, bufs, collective, root)
            lats.append(ctx.now - t0)
        return lats[warmup:]

    per_rank = world.run(program)
    world.assert_quiescent()
    # Iteration latency = max across ranks (OSU collective convention).
    per_iter_us = tuple(
        max(per_rank[r][i] for r in range(size)) * 1e6 for i in range(iters)
    )
    attr = None
    if attribution:
        from .breakdown import measure_attribution

        attr = measure_attribution(lib, collective, nbytes, params,
                                   functional=functional, root=root).as_dict()
    point = BenchPoint(
        library=lib.profile.name,
        collective=collective,
        nbytes=nbytes,
        latency_us=sum(per_iter_us) / len(per_iter_us),
        min_us=min(per_iter_us),
        max_us=max(per_iter_us),
        iterations=per_iter_us,
        stats=world.stats(),
        nodes=params.nodes,
        ppn=params.ppn,
        resources=monitor.summary() if monitor is not None else None,
        attribution=attr,
    )
    if tracer is not None:
        tracer.span_at(
            "bench.cell", t_cell, tracer.clock(), track="bench",
            cat="bench",
            cell=f"{point.library}/{collective}/{nbytes}B"
                 f"@{params.nodes}x{params.ppn}")
    return point


def single_leader_allgather(
    nbytes: int,
    params: MachineParams,
    warmup: int = 1,
    iters: int = 3,
    functional: bool = False,
    resources: bool = False,
) -> BenchPoint:
    """The single-object Fig. 2 baseline as a benchable point.

    Every lineup library at small sizes selects a *flat* allgather, so
    the paper's "single-leader idles P−1 NICs per node" foil has to be
    timed explicitly: ``hier_allgather`` (node gather → leader Bruck →
    node bcast) over the same PiP transport PiP-MColl uses.  Reported
    under the synthetic library name ``"SingleLeader"`` — it is a
    schedule arm, not a registry library, so library-enumeration tests
    stay untouched.
    """
    from ..collectives import hier_allgather
    from ..runtime import World

    if warmup < 0 or iters < 1:
        raise ValueError("need warmup >= 0 and iters >= 1")
    world = World(params, intra="pip", functional=functional,
                  resources=resources)
    size = world.comm_world.size
    monitor = world.resources

    def program(ctx):
        send = ctx.alloc(nbytes)
        recv = ctx.alloc(nbytes * size)
        lats: List[float] = []
        for i in range(warmup + iters):
            yield from ctx.hard_sync()
            if i == warmup and ctx.rank == 0 and monitor is not None:
                monitor.reset()
            t0 = ctx.now
            yield from hier_allgather(ctx, send.view(), recv.view())
            lats.append(ctx.now - t0)
        return lats[warmup:]

    per_rank = world.run(program)
    world.assert_quiescent()
    per_iter_us = tuple(
        max(per_rank[r][i] for r in range(size)) * 1e6 for i in range(iters)
    )
    return BenchPoint(
        library="SingleLeader",
        collective="allgather",
        nbytes=nbytes,
        latency_us=sum(per_iter_us) / len(per_iter_us),
        min_us=min(per_iter_us),
        max_us=max(per_iter_us),
        iterations=per_iter_us,
        stats=world.stats(),
        nodes=params.nodes,
        ppn=params.ppn,
        resources=monitor.summary() if monitor is not None else None,
    )


@dataclass
class Sweep:
    """A (collective × libraries × sizes) result grid."""

    collective: str
    params_name: str
    sizes: List[int]
    libraries: List[str]
    points: Dict[Tuple[str, int], BenchPoint] = field(default_factory=dict)

    def latency(self, library: str, nbytes: int) -> float:
        """Latency (µs) of one grid point."""
        return self.points[(library, nbytes)].latency_us

    def best_other(self, target: str, nbytes: int) -> Tuple[str, float]:
        """(name, µs) of the fastest non-``target`` library at a size."""
        candidates = [
            (self.latency(lib, nbytes), lib)
            for lib in self.libraries
            if lib != target
        ]
        lat, lib = min(candidates)
        return lib, lat

    def speedup(self, target: str, nbytes: int) -> float:
        """fastest-other / target at one size (>1 means target wins)."""
        _, other = self.best_other(target, nbytes)
        return other / self.latency(target, nbytes)

    def best_speedup(self, target: str) -> Tuple[int, float]:
        """(size, factor) where the target's advantage peaks."""
        best = max(self.sizes, key=lambda s: self.speedup(target, s))
        return best, self.speedup(target, best)


def run_sweep(
    collective: str,
    sizes: List[int],
    params: MachineParams,
    libraries: Optional[List[str]] = None,
    warmup: int = 1,
    iters: int = 3,
    functional: bool = False,
    root: int = 0,
    resources: bool = False,
    attribution: bool = False,
    engine: "Union[str, EngineSpec, None]" = None,
    cache=None,
    workers: int = 1,
    progress=None,
) -> Sweep:
    """Benchmark ``collective`` across libraries × sizes.

    ``libraries`` entries may be names, ``tuned:<db>`` specs, or
    :class:`MpiLibrary` instances; the sweep's grid is keyed by each
    library's profile name either way.  ``engine`` selects the
    simulation engine for every point (see :mod:`repro.sim.spec`).

    ``cache`` (directory path or :class:`~repro.service.ResultCache`)
    and ``workers`` route the grid through the sweep service's
    :class:`~repro.service.SweepJobQueue`: cells are deduplicated,
    warm cells are cache hits, cold cells are batched across forked
    worker processes, and ``progress`` (a callable) streams per-cell
    events.  Grid contents are byte-identical either way.
    """
    from ..mpilibs import PAPER_LINEUP

    entries = list(libraries) if libraries is not None else list(PAPER_LINEUP)
    resolved = [make_library(lib) for lib in entries]
    libs = [lib.profile.name for lib in resolved]
    sweep = Sweep(collective, params.name, list(sizes), libs)
    if cache is not None or workers > 1 or progress is not None:
        from ..service import SweepJobQueue, SweepRequest

        requests = [
            SweepRequest(library=lib, collective=collective, nbytes=nbytes,
                         params=params, warmup=warmup, iters=iters,
                         functional=functional, root=root, engine=engine,
                         resources=resources, attribution=attribution)
            for lib in resolved for nbytes in sizes
        ]
        queue = SweepJobQueue(cache=cache, workers=workers,
                              on_event=progress)
        points = queue.run(requests)
        it = iter(points)
        for name in libs:
            for nbytes in sizes:
                sweep.points[(name, nbytes)] = next(it)
        return sweep
    for name, lib in zip(libs, resolved):
        for nbytes in sizes:
            sweep.points[(name, nbytes)] = bench_collective(
                lib, collective, nbytes, params,
                warmup=warmup, iters=iters, functional=functional, root=root,
                resources=resources, attribution=attribution, engine=engine,
            )
    return sweep
