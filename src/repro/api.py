"""mpi4py-flavoured facade over the virtual runtime.

For users who think in ``comm.Bcast(buf, root=0)`` rather than in
algorithm functions, :class:`VComm` wraps a :class:`RankContext` with
upper-case, numpy-first methods following mpi4py's buffer-protocol
conventions (``Send``/``Recv``/``Bcast``/``Scatter``/…).  The
collective implementations are whatever the chosen MPI library model
would select for the call's message size — so application code written
against :class:`VComm` can be re-run under every library in the paper
by changing one string.

The entry point is :class:`Session`: configure the library and machine
once, then ``session.run(app)`` executes the app on every rank and
returns a :class:`RunResult` carrying the per-rank values *and* the
run's observability artifacts — span timeline, derived metrics, a
Perfetto exporter and critical-path extraction (see
:mod:`repro.obs`)::

    from repro.api import Session
    import numpy as np

    def app(comm):
        data = np.full(4, comm.rank, dtype=np.float64)
        total = np.empty_like(data)
        yield from comm.Allreduce(data, total)
        return total.sum()

    result = Session(library="PiP-MColl", nodes=4, ppn=4).run(app)
    result.values          # per-rank return values
    result.elapsed         # simulated seconds
    result.write_perfetto("trace.json")   # → ui.perfetto.dev
    print(result.critical_path("allreduce").describe())

Rank programs remain generators (``yield from`` every communication),
matching the cooperative simulation underneath.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Union

import numpy as np

from .ft.heal import invoke as _invoke
from .machine import MachineParams, broadwell_opa
from .mpilibs import MpiLibrary, make_library
from .obs import CriticalPath, Metrics, SpanRecorder, TraceTree
from .obs import critical_path as _critical_path
from .obs import to_perfetto as _to_perfetto
from .obs import write_perfetto as _write_perfetto
from .runtime import ArrayBuffer, World
from .runtime.communicator import Communicator
from .runtime.context import RankContext
from .runtime.datatypes import from_numpy
from .runtime.ops import ReduceOp, SUM
from .sim.spec import EngineSpec


def _as_buffer(array: np.ndarray) -> ArrayBuffer:
    """Wrap (a contiguous snapshot of) a numpy array for sending."""
    return ArrayBuffer(np.ascontiguousarray(array))


class VComm:
    """An mpi4py-style communicator bound to one simulated rank.

    Bound either to COMM_WORLD (the default) or — after
    :meth:`Split` — to a sub-communicator.  On a sub-communicator the
    library falls back to its geometry-agnostic algorithm table
    (:meth:`~repro.mpilibs.MpiLibrary.subcomm_algorithm`), exactly as
    real libraries abandon their topology-aware paths off COMM_WORLD.
    """

    def __init__(self, ctx: RankContext, library: MpiLibrary,
                 comm: Optional[Communicator] = None) -> None:
        self._ctx = ctx
        self._lib = library
        self._comm = comm  # None → COMM_WORLD

    # -- introspection -------------------------------------------------
    @property
    def _is_sub(self) -> bool:
        return (self._comm is not None
                and self._comm is not self._ctx.comm_world)

    @property
    def rank(self) -> int:
        """This rank, in this communicator's numbering."""
        if self._is_sub:
            return self._comm.to_comm(self._ctx.rank)
        return self._ctx.rank

    @property
    def size(self) -> int:
        """Number of ranks in this communicator."""
        if self._is_sub:
            return self._comm.size
        return self._ctx.size

    @property
    def node(self) -> int:
        """Node id hosting this rank."""
        return self._ctx.node_id

    @property
    def now(self) -> float:
        """Simulated time (seconds)."""
        return self._ctx.now

    @property
    def ctx(self) -> RankContext:
        """Escape hatch to the low-level context."""
        return self._ctx

    def _algo(self, collective: str, nbytes: int):
        if self._is_sub:
            return self._lib.wrapped(collective, nbytes, self._comm.size,
                                     subcomm=True)
        return self._lib.wrapped(collective, nbytes, self.size)

    def _run(self, collective: str, nbytes: int, spec: dict):
        """Route one collective call: fault-tolerant supervision when
        the world is armed (``ft=True`` plus a bound fault injector),
        the library's plain algorithm otherwise.

        Split communicators always take the plain path — ULFM scopes
        revocation/shrink to the communicator the failure was observed
        on, and this layer implements it for COMM_WORLD, where the
        paper's collectives run.
        """
        ft = self._ctx.world.ft
        if ft is not None and ft.armed and not self._is_sub:
            yield from ft.run_collective(
                self._ctx, self._lib, collective, nbytes, spec,
                self._comm if self._comm is not None
                else self._ctx.comm_world)
        else:
            yield from _invoke(self._ctx, self._algo(collective, nbytes),
                               collective, spec, self._comm)

    # -- fault-tolerance operations (ULFM analogues) -----------------------
    def Revoke(self):
        """MPI_Comm_revoke (generator): notify every member that this
        communicator is revoked; the next collective re-establishes a
        consistent membership before running.  No-op when the session
        is not fault-armed."""
        ft = self._ctx.world.ft
        if ft is None or self._is_sub:
            return
        yield from ft.revoke(self._ctx)

    def Shrink(self):
        """MPI_Comm_shrink (generator): agree on the surviving
        membership; returns the list of surviving world ranks."""
        ft = self._ctx.world.ft
        if ft is None or self._is_sub:
            return list(range(self.size))
        members = yield from ft.shrink(self._ctx)
        return members

    def Agree(self, flag: bool = True):
        """MPI_Comm_agree (generator): crash-tolerant AND of ``flag``
        over the surviving members."""
        ft = self._ctx.world.ft
        if ft is None or self._is_sub:
            return bool(flag)
        result = yield from ft.agree(self._ctx, flag)
        return result

    # -- communicator management -----------------------------------------
    def Split(self, color: Optional[int], key: int = 0):
        """MPI_Comm_split (generator): ranks with equal ``color`` form a
        new communicator ordered by ``(key, old rank)``.

        Returns a new :class:`VComm` over the sub-communicator, or
        ``None`` for ``color=None`` (MPI_UNDEFINED).  Collective over
        this communicator — every rank must call it.
        """
        new_comm = yield from self._ctx.comm_split(color, key,
                                                   comm=self._comm)
        if new_comm is None:
            return None
        return VComm(self._ctx, self._lib, new_comm)

    # -- point-to-point --------------------------------------------------
    def Send(self, array: np.ndarray, dest: int, tag: int = 0):
        """Blocking send of a contiguous numpy array."""
        buf = _as_buffer(array)
        yield from self._ctx.send(buf.view(), dst=dest, tag=tag,
                                  comm=self._comm)

    def Recv(self, array: np.ndarray, source: int, tag: int = -1):
        """Blocking receive into a contiguous numpy array."""
        buf = ArrayBuffer(np.ascontiguousarray(array))
        status = yield from self._ctx.recv(buf.view(), src=source, tag=tag,
                                           comm=self._comm)
        array.reshape(-1).view(np.uint8)[:] = buf.bytes_view
        return status

    def Sendrecv(self, send_array: np.ndarray, dest: int, sendtag: int,
                 recv_array: np.ndarray, source: int, recvtag: int):
        """Paired exchange."""
        sbuf = _as_buffer(send_array)
        rbuf = ArrayBuffer(np.ascontiguousarray(recv_array))
        status = yield from self._ctx.sendrecv(
            sbuf.view(), dest, sendtag, rbuf.view(), source, recvtag,
            comm=self._comm)
        recv_array.reshape(-1).view(np.uint8)[:] = rbuf.bytes_view
        return status

    # -- collectives ---------------------------------------------------------
    def Barrier(self):
        """Barrier over this communicator."""
        yield from self._run("barrier", 0, {})

    def Bcast(self, array: np.ndarray, root: int = 0):
        """Broadcast ``array`` from ``root`` (in place everywhere)."""
        buf = ArrayBuffer(np.ascontiguousarray(array))
        yield from self._run("bcast", buf.nbytes,
                             {"view": buf.view(), "root": root})
        array.reshape(-1).view(np.uint8)[:] = buf.bytes_view

    def Scatter(self, send_array: Optional[np.ndarray],
                recv_array: np.ndarray, root: int = 0):
        """Scatter equal blocks of ``send_array`` (root) to everyone."""
        rbuf = ArrayBuffer(np.ascontiguousarray(recv_array))
        sbuf = _as_buffer(send_array) if send_array is not None else None
        yield from self._run("scatter", rbuf.nbytes,
                             {"send": sbuf.view() if sbuf else None,
                              "recv": rbuf.view(), "root": root})
        recv_array.reshape(-1).view(np.uint8)[:] = rbuf.bytes_view

    def Gather(self, send_array: np.ndarray,
               recv_array: Optional[np.ndarray], root: int = 0):
        """Gather equal blocks to ``root``."""
        sbuf = _as_buffer(send_array)
        rbuf = ArrayBuffer(np.ascontiguousarray(recv_array)) if recv_array is not None else None
        yield from self._run("gather", sbuf.nbytes,
                             {"send": sbuf.view(),
                              "recv": rbuf.view() if rbuf else None,
                              "root": root})
        if recv_array is not None:
            recv_array.reshape(-1).view(np.uint8)[:] = rbuf.bytes_view

    def Allgather(self, send_array: np.ndarray, recv_array: np.ndarray):
        """Allgather equal blocks."""
        sbuf = _as_buffer(send_array)
        rbuf = ArrayBuffer(np.ascontiguousarray(recv_array))
        yield from self._run("allgather", sbuf.nbytes,
                             {"send": sbuf.view(), "recv": rbuf.view()})
        recv_array.reshape(-1).view(np.uint8)[:] = rbuf.bytes_view

    def Allreduce(self, send_array: np.ndarray, recv_array: np.ndarray,
                  op: ReduceOp = SUM):
        """Elementwise allreduce (dtype inferred from the arrays)."""
        if send_array.dtype != recv_array.dtype:
            raise ValueError("Allreduce arrays must share a dtype")
        dtype = from_numpy(send_array.dtype)
        sbuf = _as_buffer(send_array)
        rbuf = ArrayBuffer(np.ascontiguousarray(recv_array))
        yield from self._run("allreduce", sbuf.nbytes,
                             {"send": sbuf.view(), "recv": rbuf.view(),
                              "dtype": dtype, "op": op})
        recv_array.reshape(-1).view(np.uint8)[:] = rbuf.bytes_view

    def Reduce(self, send_array: np.ndarray,
               recv_array: Optional[np.ndarray], op: ReduceOp = SUM,
               root: int = 0):
        """Elementwise reduce to ``root``."""
        dtype = from_numpy(send_array.dtype)
        sbuf = _as_buffer(send_array)
        rbuf = ArrayBuffer(np.ascontiguousarray(recv_array)) if recv_array is not None else None
        yield from self._run("reduce", sbuf.nbytes,
                             {"send": sbuf.view(),
                              "recv": rbuf.view() if rbuf else None,
                              "dtype": dtype, "op": op, "root": root})
        if recv_array is not None:
            recv_array.reshape(-1).view(np.uint8)[:] = rbuf.bytes_view

    def Alltoall(self, send_array: np.ndarray, recv_array: np.ndarray):
        """All-to-all of equal blocks."""
        sbuf = _as_buffer(send_array)
        rbuf = ArrayBuffer(np.ascontiguousarray(recv_array))
        yield from self._run("alltoall", sbuf.nbytes // self.size,
                             {"send": sbuf.view(), "recv": rbuf.view()})
        recv_array.reshape(-1).view(np.uint8)[:] = rbuf.bytes_view

    def Reduce_scatter(self, send_array: np.ndarray,
                       recv_array: np.ndarray, recvcounts=None,
                       op: ReduceOp = SUM):
        """Reduce-scatter: elementwise reduce ``send_array`` across the
        communicator, block ``i`` lands on rank ``i``.

        Only the block-regular case is modeled (uniform
        ``recvcounts``); that is also all the paper's benchmark surface
        exercises.  ``recvcounts=None`` infers the uniform block from
        ``recv_array``.
        """
        if recvcounts is not None and len(set(recvcounts)) > 1:
            raise NotImplementedError(
                "Reduce_scatter models uniform recvcounts only "
                "(block-regular reduce-scatter)"
            )
        if send_array.dtype != recv_array.dtype:
            raise ValueError("Reduce_scatter arrays must share a dtype")
        dtype = from_numpy(send_array.dtype)
        sbuf = _as_buffer(send_array)
        rbuf = ArrayBuffer(np.ascontiguousarray(recv_array))
        yield from self._run("reduce_scatter", rbuf.nbytes,
                             {"send": sbuf.view(), "recv": rbuf.view(),
                              "dtype": dtype, "op": op})
        recv_array.reshape(-1).view(np.uint8)[:] = rbuf.bytes_view

    def Reduce_scatter_block(self, send_array: np.ndarray,
                             recv_array: np.ndarray, op: ReduceOp = SUM):
        """MPI_Reduce_scatter_block — alias of the uniform case."""
        yield from self.Reduce_scatter(send_array, recv_array, op=op)

    def Scan(self, send_array: np.ndarray, recv_array: np.ndarray,
             op: ReduceOp = SUM):
        """Inclusive prefix reduction: rank ``i`` gets ranks ``0..i``."""
        if send_array.dtype != recv_array.dtype:
            raise ValueError("Scan arrays must share a dtype")
        dtype = from_numpy(send_array.dtype)
        sbuf = _as_buffer(send_array)
        rbuf = ArrayBuffer(np.ascontiguousarray(recv_array))
        yield from self._run("scan", sbuf.nbytes,
                             {"send": sbuf.view(), "recv": rbuf.view(),
                              "dtype": dtype, "op": op})
        recv_array.reshape(-1).view(np.uint8)[:] = rbuf.bytes_view

    def Exscan(self, send_array: np.ndarray, recv_array: np.ndarray,
               op: ReduceOp = SUM):
        """Exclusive prefix reduction: rank ``i`` gets ranks ``0..i-1``
        (rank 0's receive buffer is left untouched, as in MPI)."""
        if send_array.dtype != recv_array.dtype:
            raise ValueError("Exscan arrays must share a dtype")
        dtype = from_numpy(send_array.dtype)
        sbuf = _as_buffer(send_array)
        rbuf = ArrayBuffer(np.ascontiguousarray(recv_array))
        yield from self._run("exscan", sbuf.nbytes,
                             {"send": sbuf.view(), "recv": rbuf.view(),
                              "dtype": dtype, "op": op})
        recv_array.reshape(-1).view(np.uint8)[:] = rbuf.bytes_view

    # -- vector collectives (counts in elements, mpi4py-style) -----------
    def Allgatherv(self, send_array: np.ndarray, recv_array: np.ndarray,
                   counts) -> "object":
        """Allgatherv; ``counts`` are per-rank element counts."""
        itemsize = recv_array.dtype.itemsize
        byte_counts = [c * itemsize for c in counts]
        sbuf = _as_buffer(send_array)
        rbuf = ArrayBuffer(np.ascontiguousarray(recv_array))
        yield from self._run("allgatherv", sbuf.nbytes,
                             {"send": sbuf.view(), "recv": rbuf.view(),
                              "counts": byte_counts})
        recv_array.reshape(-1).view(np.uint8)[:] = rbuf.bytes_view

    def Gatherv(self, send_array: np.ndarray,
                recv_array: Optional[np.ndarray], counts=None,
                root: int = 0):
        """Gatherv; root passes per-rank element ``counts``."""
        sbuf = _as_buffer(send_array)
        rbuf = (ArrayBuffer(np.ascontiguousarray(recv_array))
                if recv_array is not None else None)
        byte_counts = None
        if counts is not None:
            itemsize = (recv_array if recv_array is not None
                        else send_array).dtype.itemsize
            byte_counts = [c * itemsize for c in counts]
        yield from self._run("gatherv", sbuf.nbytes,
                             {"send": sbuf.view(),
                              "recv": rbuf.view() if rbuf else None,
                              "counts": byte_counts, "root": root})
        if recv_array is not None:
            recv_array.reshape(-1).view(np.uint8)[:] = rbuf.bytes_view

    def Scatterv(self, send_array: Optional[np.ndarray], counts,
                 recv_array: np.ndarray, root: int = 0):
        """Scatterv; root passes per-rank element ``counts``."""
        rbuf = ArrayBuffer(np.ascontiguousarray(recv_array))
        sbuf = _as_buffer(send_array) if send_array is not None else None
        byte_counts = None
        if counts is not None:
            byte_counts = [c * recv_array.dtype.itemsize for c in counts]
        yield from self._run("scatterv", rbuf.nbytes,
                             {"send": sbuf.view() if sbuf else None,
                              "counts": byte_counts, "recv": rbuf.view(),
                              "root": root})
        recv_array.reshape(-1).view(np.uint8)[:] = rbuf.bytes_view

    def Alltoallv(self, send_array: np.ndarray, sendcounts: Sequence[int],
                  recv_array: np.ndarray, recvcounts: Sequence[int]):
        """Alltoallv; per-destination / per-source element counts,
        blocks packed contiguously (displacements = running sums)."""
        itemsize = send_array.dtype.itemsize
        send_bytes = [c * itemsize for c in sendcounts]
        recv_bytes = [c * recv_array.dtype.itemsize for c in recvcounts]
        sbuf = _as_buffer(send_array)
        rbuf = ArrayBuffer(np.ascontiguousarray(recv_array))
        yield from self._run("alltoallv", max(send_bytes, default=0),
                             {"send": sbuf.view(), "send_counts": send_bytes,
                              "recv": rbuf.view(),
                              "recv_counts": recv_bytes})
        recv_array.reshape(-1).view(np.uint8)[:] = rbuf.bytes_view

    # -- nonblocking -----------------------------------------------------
    def Ibcast(self, array: np.ndarray, root: int = 0):
        """Nonblocking broadcast; returns a request for :meth:`Wait`."""
        return self._ctx.start(self.Bcast(array, root=root))

    def Iallgather(self, send_array: np.ndarray, recv_array: np.ndarray):
        """Nonblocking allgather; returns a request for :meth:`Wait`."""
        return self._ctx.start(self.Allgather(send_array, recv_array))

    def Iallreduce(self, send_array: np.ndarray, recv_array: np.ndarray,
                   op: ReduceOp = SUM):
        """Nonblocking allreduce; returns a request for :meth:`Wait`."""
        return self._ctx.start(self.Allreduce(send_array, recv_array, op=op))

    def Ibarrier(self):
        """Nonblocking barrier; returns a request for :meth:`Wait`."""
        return self._ctx.start(self.Barrier())

    def Wait(self, request):
        """Complete a request from a nonblocking operation."""
        result = yield from self._ctx.wait(request)
        return result


class RunResult:
    """Everything one :meth:`Session.run` produced.

    Sequence protocol delegates to :attr:`values`: ``result[0]``,
    ``len(result)`` and iteration address the per-rank values.
    """

    def __init__(self, values: List[Any], elapsed: float,
                 trace: Optional[TraceTree], metrics: Optional[Metrics],
                 stats: dict, library: str, world: World,
                 resources: "Optional[Any]" = None) -> None:
        #: per-rank app return values, indexed by world rank
        self.values = values
        #: the resolved :class:`~repro.sim.spec.EngineSpec` the run
        #: executed on (including any auto-downgrades that fired)
        self.engine = world.engine
        #: simulated wall-clock of the whole run (seconds)
        self.elapsed = elapsed
        #: span timeline (:class:`~repro.obs.TraceTree`), or None when
        #: the session ran with ``trace=False``
        self.trace = trace
        #: derived :class:`~repro.obs.Metrics`, or None untraced
        self.metrics = metrics
        #: end-of-run hardware counters (``World.stats()``)
        self.stats = stats
        #: library model name the session ran under
        self.library = library
        #: the simulated world (hardware state, cluster geometry)
        self.world = world
        #: :class:`~repro.obs.ResourceMonitor` with per-facility busy
        #: timelines, or None when the session ran ``resources=False``
        self.resources = resources

    # -- sequence protocol over the per-rank values -----------------------
    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, idx):
        return self.values[idx]

    def __iter__(self):
        return iter(self.values)

    def _require_trace(self) -> TraceTree:
        if self.trace is None:
            raise RuntimeError(
                "this run was not traced; construct the Session with "
                "trace=True (the default) to record spans"
            )
        return self.trace

    # -- observability exports -------------------------------------------
    def to_perfetto(self) -> dict:
        """The run as a Chrome trace-event object (ui.perfetto.dev).

        When the session ran with ``resources=True``, per-facility
        busy/queue counter tracks ride along with the spans.
        """
        return _to_perfetto(self._require_trace(),
                            node_of=self.world.node_of(),
                            resources=self.resources)

    def write_perfetto(self, path) -> None:
        """Write :meth:`to_perfetto` as JSON to ``path``."""
        _write_perfetto(self._require_trace(), path,
                        node_of=self.world.node_of(),
                        resources=self.resources)

    def critical_path(self, collective: Optional[str] = None) -> CriticalPath:
        """Critical path through the message-dependency graph (of one
        ``collective`` span by name, or of the whole run)."""
        return _critical_path(self._require_trace(), collective=collective)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        traced = "traced" if self.trace is not None else "untraced"
        return (f"<RunResult {self.library} ranks={len(self.values)} "
                f"elapsed={self.elapsed:.3e}s {traced}>")


class Session:
    """Configured entry point: library + machine + observability.

    A session is reusable — every :meth:`run` builds a fresh
    :class:`World` so runs never share simulator or hardware state.
    """

    def __init__(self, library: str = "PiP-MColl", nodes: int = 4,
                 ppn: int = 4, params: Optional[MachineParams] = None,
                 trace: bool = True, resources: bool = False,
                 engine: "Union[str, EngineSpec, None]" = None,
                 **world_kwargs) -> None:
        # Accepts a name, a registered-instance name, a ``tuned:<db>``
        # spec, or an MpiLibrary instance (see mpilibs.registry).
        self._lib = make_library(library)
        self.library = self._lib.profile.name
        self.machine = (params if params is not None
                        else broadwell_opa(nodes=nodes, ppn=ppn))
        #: record spans + metrics during runs (adds zero simulated time)
        self.trace = trace
        #: record per-resource busy/queue timelines during runs
        self.resources = resources
        #: requested engine — name (``"reference"``), resolved
        #: :class:`~repro.sim.spec.EngineSpec`, or None (default).
        #: The *resolved* spec of each run is on ``RunResult.engine``.
        self.engine = engine
        self._world_kwargs = world_kwargs

    def run(self, app: Callable[[VComm], Any]) -> RunResult:
        """Run an mpi4py-style generator app on every rank."""
        # The recorder rides through the World constructor, so engine
        # resolution sees it and records the fast-path downgrade.
        recorder = SpanRecorder() if self.trace else None
        world: World = self._lib.make_world(self.machine,
                                            resources=self.resources,
                                            engine=self.engine,
                                            obs=recorder,
                                            **self._world_kwargs)
        lib = self._lib

        armed = world.ft is not None and world.ft.armed

        def program(ctx):
            comm = VComm(ctx, lib)
            if recorder is None:
                result = yield from app(comm)
            else:
                with recorder.span(ctx.rank, "run", cat="run",
                                   library=lib.profile.name):
                    result = yield from app(comm)
            if armed:
                # Crashed ranks never reach this; excluded ranks return
                # early inside — only clean survivors drain and retire
                # their responders.
                yield from world.ft.rank_shutdown(ctx)
            return result

        values = world.run(program, allow_unfinished=armed)
        elapsed = world.sim.now
        trace = None
        metrics = None
        if recorder is not None:
            recorder.finalize(world)
            trace = recorder.tree()
            metrics = recorder.metrics
        return RunResult(values=values, elapsed=elapsed, trace=trace,
                         metrics=metrics, stats=world.stats(),
                         library=self.library, world=world,
                         resources=world.resources)

    def sweep(self, collective: str, sizes: Sequence[int], *,
              libraries: Optional[Sequence] = None, warmup: int = 1,
              iters: int = 3, cache=None, workers: int = 1,
              progress=None):
        """Benchmark ``collective`` across ``sizes`` on this session's
        machine and engine (default: just this session's library).

        ``cache`` (a directory or :class:`~repro.service.ResultCache`)
        and ``workers`` route the grid through the sweep service —
        warm cells are file reads, cold cells batch across forked
        workers, and ``progress`` streams per-cell events.  Returns
        the :class:`~repro.bench.harness.Sweep`.
        """
        from .bench import run_sweep

        libs = list(libraries) if libraries is not None else [self._lib]
        return run_sweep(collective, list(sizes), self.machine,
                         libraries=libs, warmup=warmup, iters=iters,
                         engine=self.engine, cache=cache, workers=workers,
                         progress=progress)
