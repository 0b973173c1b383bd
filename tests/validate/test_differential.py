"""Differential + property harness: every collective, every library,
calendar engine vs reference engine vs the numpy oracle.

Three-way agreement is checked for each sampled case:

* the default ``calendar`` engine (calendar queue, macro-event fast
  path) and the ``reference`` engine (heap queue, reference event
  path) must produce **byte-identical per-rank results, the exact same
  simulated time, and byte-identical resource telemetry** — the fast
  path is an engine optimisation, never a model change;
* both must match :mod:`repro.validate.reference`, the pure-numpy
  oracle, byte-for-byte — a correct-looking latency can never hide a
  wrong permutation.

Two layers:

* a **pinned matrix** running every collective × every library on a
  fixed geometry (deterministic, exhaustive over the API surface,
  including the nonblocking I* forms);
* **hypothesis sweeps** drawing random (nodes, ppn, counts, dtype,
  op, root, library) per collective family.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.machine import broadwell_opa
from repro.mpilibs import PAPER_LINEUP, register_library
from repro.runtime.ops import BXOR, MAX, MIN, SUM
from repro.tuner import CellResult, Trial, TuneDB, compile_db
from repro.validate import reference

# Exact (order-insensitive) ops on integer dtypes: every algorithm may
# reduce in a different association order, so the oracle comparison
# must be bitwise-independent of that order.
OPS = {"SUM": SUM, "MAX": MAX, "MIN": MIN, "BXOR": BXOR}
DTYPES = {"int32": np.int32, "int64": np.int64}

#: sentinel byte for buffers MPI leaves undefined (Exscan rank 0)
_SENTINEL = 0xA5


def _input_bytes(seed: int, rank: int, nbytes: int) -> np.ndarray:
    rng = np.random.default_rng((seed, rank))
    return rng.integers(0, 256, nbytes, dtype=np.uint8)


def _typed_input(seed: int, rank: int, count: int, dtype) -> np.ndarray:
    itemsize = np.dtype(dtype).itemsize
    return _input_bytes(seed, rank, count * itemsize).view(dtype)


class Case:
    """One drawn differential case (geometry + data shape)."""

    def __init__(self, collective: str, library: str, nodes: int, ppn: int,
                 count: int, dtype_name: str, op_name: str, root: int,
                 seed: int) -> None:
        self.collective = collective
        self.library = library
        self.nodes = nodes
        self.ppn = ppn
        self.size = nodes * ppn
        self.count = count
        self.dtype = DTYPES[dtype_name]
        self.op = OPS[op_name]
        # Hierarchical algorithms model the common library restriction
        # that the root is a node leader; the harness (like the paper's
        # benchmarks) roots everything at 0.
        self.root = root
        self.seed = seed

    def __repr__(self) -> str:  # shown by hypothesis on failure
        return (f"Case({self.collective}, {self.library}, "
                f"{self.nodes}x{self.ppn}, count={self.count}, "
                f"dtype={np.dtype(self.dtype).name}, op={self.op.name}, "
                f"root={self.root}, seed={self.seed})")


def _app_and_oracle(case: Case):
    """Build (app generator fn, expected per-rank output bytes)."""
    c, size, root = case, case.size, case.root
    itemsize = np.dtype(c.dtype).itemsize
    nbytes = c.count * itemsize
    ins_typed = [_typed_input(c.seed, r, c.count, c.dtype)
                 for r in range(size)]
    ins_bytes = [a.view(np.uint8) for a in ins_typed]
    dt = np.dtype(c.dtype)

    def out(app, expected):
        return app, [np.asarray(e).reshape(-1).view(np.uint8)
                     for e in expected]

    if c.collective == "barrier":
        def app(comm):
            yield from comm.Barrier()
            return b""
        return app, [np.empty(0, np.uint8)] * size

    if c.collective == "ibarrier":
        def app(comm):
            req = comm.Ibarrier()
            result = yield from comm.Wait(req)
            assert result is None or result == []  # no payload
            return b""
        return app, [np.empty(0, np.uint8)] * size

    if c.collective in ("bcast", "ibcast"):
        nonblocking = c.collective.startswith("i")

        def app(comm):
            buf = ins_bytes[comm.rank].copy()
            if nonblocking:
                req = comm.Ibcast(buf, root=root)
                yield from comm.Wait(req)
            else:
                yield from comm.Bcast(buf, root=root)
            return buf.tobytes()
        return out(app, reference.bcast(ins_bytes, root=root))

    if c.collective == "scatter":
        root_data = np.concatenate(ins_bytes)

        def app(comm):
            send = root_data.copy() if comm.rank == root else None
            recv = np.full(nbytes, _SENTINEL, np.uint8)
            yield from comm.Scatter(send, recv, root=root)
            return recv.tobytes()
        return out(app, reference.scatter(root_data, size, root=root))

    if c.collective == "gather":
        def app(comm):
            recv = (np.full(nbytes * size, _SENTINEL, np.uint8)
                    if comm.rank == root else None)
            yield from comm.Gather(ins_bytes[comm.rank].copy(), recv,
                                   root=root)
            return recv.tobytes() if recv is not None else b""
        return out(app, reference.gather(ins_bytes, root=root))

    if c.collective in ("allgather", "iallgather"):
        nonblocking = c.collective.startswith("i")

        def app(comm):
            recv = np.full(nbytes * size, _SENTINEL, np.uint8)
            send = ins_bytes[comm.rank].copy()
            if nonblocking:
                req = comm.Iallgather(send, recv)
                yield from comm.Wait(req)
            else:
                yield from comm.Allgather(send, recv)
            return recv.tobytes()
        return out(app, reference.allgather(ins_bytes))

    if c.collective in ("allreduce", "iallreduce"):
        nonblocking = c.collective.startswith("i")

        def app(comm):
            recv = np.zeros(c.count, c.dtype)
            send = ins_typed[comm.rank].copy()
            if nonblocking:
                req = comm.Iallreduce(send, recv, op=c.op)
                yield from comm.Wait(req)
            else:
                yield from comm.Allreduce(send, recv, op=c.op)
            return recv.tobytes()
        return out(app, reference.allreduce(ins_bytes, c.op, dt))

    if c.collective == "reduce":
        def app(comm):
            recv = (np.zeros(c.count, c.dtype)
                    if comm.rank == root else None)
            yield from comm.Reduce(ins_typed[comm.rank].copy(), recv,
                                   op=c.op, root=root)
            return recv.tobytes() if recv is not None else b""
        return out(app, reference.reduce(ins_bytes, c.op, dt, root=root))

    if c.collective == "alltoall":
        full = [_input_bytes(c.seed, r, nbytes * size) for r in range(size)]

        def app(comm):
            recv = np.full(nbytes * size, _SENTINEL, np.uint8)
            yield from comm.Alltoall(full[comm.rank].copy(), recv)
            return recv.tobytes()
        return out(app, reference.alltoall(full))

    if c.collective in ("reduce_scatter", "reduce_scatter_block"):
        full = [_typed_input(c.seed, r, c.count * size, c.dtype)
                for r in range(size)]
        block = c.collective == "reduce_scatter_block"

        def app(comm):
            recv = np.zeros(c.count, c.dtype)
            send = full[comm.rank].copy()
            if block:
                yield from comm.Reduce_scatter_block(send, recv, op=c.op)
            else:
                yield from comm.Reduce_scatter(send, recv, op=c.op)
            return recv.tobytes()
        return out(app, reference.reduce_scatter_block(
            [a.view(np.uint8) for a in full], c.op, dt))

    if c.collective == "scan":
        def app(comm):
            recv = np.zeros(c.count, c.dtype)
            yield from comm.Scan(ins_typed[comm.rank].copy(), recv, op=c.op)
            return recv.tobytes()
        return out(app, reference.scan(ins_bytes, c.op, dt))

    if c.collective == "exscan":
        expected = reference.exscan(ins_bytes, c.op, dt)
        # Rank 0's buffer is undefined in MPI → ours must be untouched.
        sentinel = np.full(nbytes, _SENTINEL, np.uint8)
        expected = [sentinel] + list(expected[1:])

        def app(comm):
            recv = np.full(nbytes, _SENTINEL, np.uint8).view(c.dtype)
            yield from comm.Exscan(ins_typed[comm.rank].copy(), recv,
                                   op=c.op)
            return recv.tobytes()
        return out(app, expected)

    if c.collective == "allgatherv":
        counts = [((c.seed + r) % c.count) + 1 for r in range(size)]
        var_ins = [_input_bytes(c.seed, r, counts[r]) for r in range(size)]
        total = sum(counts)

        def app(comm):
            recv = np.full(total, _SENTINEL, np.uint8)
            yield from comm.Allgatherv(var_ins[comm.rank].copy(), recv,
                                       counts)
            return recv.tobytes()
        return out(app, reference.allgatherv(var_ins))

    if c.collective == "alltoallv":
        matrix = [[((c.seed + i * size + j) % c.count) + 1
                   for j in range(size)] for i in range(size)]
        var_ins = [_input_bytes(c.seed, i, sum(matrix[i]))
                   for i in range(size)]

        def app(comm):
            i = comm.rank
            recvcounts = [matrix[j][i] for j in range(size)]
            recv = np.full(sum(recvcounts), _SENTINEL, np.uint8)
            yield from comm.Alltoallv(var_ins[i].copy(), matrix[i],
                                      recv, recvcounts)
            return recv.tobytes()
        return out(app, reference.alltoallv(var_ins, matrix))

    raise KeyError(f"unknown collective {c.collective!r}")


def _run(case: Case, app, engine: str):
    session = Session(library=case.library,
                      params=broadwell_opa(nodes=case.nodes, ppn=case.ppn),
                      trace=False, functional=True, engine=engine,
                      resources=True)
    result = session.run(app)
    telemetry = json.dumps(result.resources.as_dict(), sort_keys=True)
    result.resources.validate()
    return result.elapsed, list(result.values), telemetry


def check_case(case: Case) -> None:
    """Run one case on both engine paths and diff against the oracle."""
    app, expected = _app_and_oracle(case)
    fast_t, fast_out, fast_tl = _run(case, app, "calendar")
    slow_t, slow_out, slow_tl = _run(case, app, "reference")
    assert fast_t == slow_t, \
        f"{case}: fast path moved simulated time {fast_t} != {slow_t}"
    assert fast_out == slow_out, f"{case}: fast path changed rank results"
    # Resource telemetry rides the same FIFO funnels on both paths, so
    # the recorded timelines must be byte-identical too.
    assert fast_tl == slow_tl, \
        f"{case}: fast path changed resource telemetry"
    for rank, (got, want) in enumerate(zip(fast_out, expected)):
        assert got == want.tobytes(), \
            f"{case}: rank {rank} result differs from the numpy oracle"


# ---------------------------------------------------------------------------
# The tuned library column: a handcrafted tuning DB whose winners are
# *deliberately flipped* away from PiP-MColl's own picks (single-lane
# Bruck, an odd pipeline segment, flat pow2 algorithms), compiled and
# registered so ``Session(library=TUNED_LIBRARY)`` resolves it like any
# stock model.  Covered cells are at 2×2 (the pinned geometry); every
# other geometry falls back to the base library — both paths must stay
# byte-exact against the oracle.
# ---------------------------------------------------------------------------
def _tuned_column():
    flips = {
        "allgather": {"algorithm": "mcoll_bruck", "senders": 1},
        "bcast": {"algorithm": "ring_pipeline", "segment": 7},
        "allreduce": {"algorithm": "recursive_doubling"},
        "reduce_scatter": {"algorithm": "recursive_halving"},
        "alltoall": {"algorithm": "bruck"},
        "gather": {"algorithm": "linear"},
        "scatter": {"algorithm": "linear"},
        "reduce": {"algorithm": "binomial"},
        "barrier": {"algorithm": "dissemination"},
    }
    cells = {}
    for collective, best in flips.items():
        result = CellResult(
            collective=collective, nbytes=0, nodes=2, ppn=2,
            best=best, best_latency_us=1.0, runner_up=None,
            margin_us=None, baseline_us=None,
            trials=[Trial(config=best, latency_us=1.0)],
        )
        cells[result.cell.key()] = result
    db = TuneDB(
        base_library="PiP-MColl", preset="small_test",
        provenance={"machine_hash": "differential-fixture", "git": "test",
                    "seed": 0, "strategy": "exhaustive"},
        cells=cells,
    )
    return compile_db(db, name="Tuned[diff]")


TUNED_LIBRARY = register_library(_tuned_column(), name="Tuned[diff]")
DIFF_LINEUP = PAPER_LINEUP + (TUNED_LIBRARY,)

#: every collective the differential harness covers (API surface)
ALL_COLLECTIVES = (
    "barrier", "bcast", "scatter", "gather", "allgather", "allreduce",
    "reduce", "alltoall", "reduce_scatter", "reduce_scatter_block",
    "scan", "exscan", "allgatherv", "alltoallv",
    "ibarrier", "ibcast", "iallgather", "iallreduce",
)

#: reduction-shaped collectives (draw dtype and op)
_REDUCING = {"allreduce", "iallreduce", "reduce", "reduce_scatter",
             "reduce_scatter_block", "scan", "exscan"}


# ---------------------------------------------------------------------------
# Layer 1: pinned matrix — every collective × every library (the paper
# lineup plus the compiled tuned column), fixed geometry.
# Deterministic and exhaustive over the API surface.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("library", DIFF_LINEUP)
@pytest.mark.parametrize("collective", ALL_COLLECTIVES)
def test_pinned_matrix(collective, library):
    check_case(Case(collective, library, nodes=2, ppn=2, count=3,
                    dtype_name="int64", op_name="SUM", root=0, seed=7))


# ---------------------------------------------------------------------------
# Engine column: the calendar engine must match the reference engine's
# hardware counters (``World.stats()``) on the same matrix, on top of
# the time/bytes/telemetry agreement ``check_case`` asserts.
# ``sim_events`` is excluded — the fast path legitimately processes
# fewer scheduler entries; every *physical* counter must match.
# ---------------------------------------------------------------------------
def _run_engine(case: Case, app, engine):
    session = Session(library=case.library,
                      params=broadwell_opa(nodes=case.nodes, ppn=case.ppn),
                      trace=False, functional=True, engine=engine)
    result = session.run(app)
    stats = dict(result.stats)
    stats.pop("sim_events")
    return result.elapsed, list(result.values), stats, result


@pytest.mark.parametrize("library", DIFF_LINEUP)
@pytest.mark.parametrize("collective", ALL_COLLECTIVES)
def test_pinned_matrix_engines(collective, library):
    case = Case(collective, library, nodes=2, ppn=2, count=3,
                dtype_name="int64", op_name="SUM", root=0, seed=7)
    app, expected = _app_and_oracle(case)
    ref_t, ref_out, ref_stats, _ = _run_engine(case, app, "reference")
    for rank, (got, want) in enumerate(zip(ref_out, expected)):
        assert got == want.tobytes(), \
            f"{case}: rank {rank} reference result differs from the oracle"
    t, out, stats, result = _run_engine(case, app, "calendar")
    assert result.engine.name == "calendar" and result.engine.fastpath
    assert t == ref_t, \
        f"{case}: calendar moved simulated time {t} != {ref_t}"
    assert out == ref_out, f"{case}: calendar changed rank results"
    assert stats == ref_stats, \
        f"{case}: calendar changed hardware counters"


def _paper_geometry_point(library, engine):
    from repro.bench import bench_collective

    point = bench_collective(library, "allgather", 64,
                             broadwell_opa(nodes=32, ppn=18),
                             warmup=1, iters=1, engine=engine)
    record = point.to_record().as_dict()
    record["stats"].pop("sim_events")
    return json.dumps(record, sort_keys=True)


@pytest.mark.parametrize("library", ("MPICH", "PiP-MColl"))
def test_paper_geometry_engines_agree(library):
    # Fig. 2's geometry (32 x 18 = 576 ranks, ppn > 1): records and
    # World.stats() counters must be byte-equal across the two engines.
    assert _paper_geometry_point(library, "calendar") == \
        _paper_geometry_point(library, "reference")


def test_pinned_ulp_telemetry_case():
    # Regression: the reference path used to schedule pipe completions
    # via a relative timeout (now + (finish + tail - now)), landing a
    # ULP away from the fast path's absolute-time arrival and breaking
    # byte-identical telemetry at exactly this geometry
    # (RateLimiter.occupy now uses Simulator.event_at).
    check_case(Case("scatter", "IntelMPI", nodes=3, ppn=4, count=5,
                    dtype_name="int64", op_name="SUM", root=0, seed=0))


# ---------------------------------------------------------------------------
# Layer 2: hypothesis sweeps — random geometry / counts / dtype / op.
# ---------------------------------------------------------------------------
def _cases(collective):
    ops = st.sampled_from(sorted(OPS)) if collective in _REDUCING \
        else st.just("SUM")
    dtypes = st.sampled_from(sorted(DTYPES)) if collective in _REDUCING \
        else st.just("int64")
    return st.builds(
        Case,
        collective=st.just(collective),
        library=st.sampled_from(list(DIFF_LINEUP)),
        nodes=st.integers(1, 4),
        ppn=st.integers(1, 4),
        count=st.integers(1, 8),
        dtype_name=dtypes,
        op_name=ops,
        root=st.just(0),
        seed=st.integers(0, 2**16),
    )


@pytest.mark.parametrize("collective", ALL_COLLECTIVES)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_differential_sweep(collective, data):
    check_case(data.draw(_cases(collective)))


# ---------------------------------------------------------------------------
# Host telemetry is observation-only: enabling the wall-clock tracer
# must not move a single byte of any result, on either engine.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("engine", [None, "reference"])
def test_host_telemetry_is_byte_identical(engine):
    from repro.bench import bench_collective
    from repro.obs import host

    def grid():
        records = {}
        for library in ("MPICH", "PiP-MColl"):
            for nbytes in (16, 64):
                point = bench_collective(
                    library, "allgather", nbytes,
                    broadwell_opa(nodes=2, ppn=2), engine=engine)
                records[(library, nbytes)] = json.dumps(
                    point.to_record().as_dict(), sort_keys=True)
        return records

    assert host.active() is None  # off by default
    plain = grid()
    with host.tracing() as tracer:
        traced = grid()
    assert host.active() is None  # scope restored
    assert traced == plain, \
        f"engine={engine}: host telemetry changed result records"
    assert tracer.events(), "tracer recorded nothing"
