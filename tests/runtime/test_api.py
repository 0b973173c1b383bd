"""Tests for the mpi4py-style facade (repro.api)."""

import numpy as np
import pytest

from repro.api import Session
from repro.mpilibs import PAPER_LINEUP
from repro.runtime.ops import MAX


def test_send_recv_roundtrip():
    def app(comm):
        data = np.arange(10, dtype=np.float64)
        if comm.rank == 0:
            yield from comm.Send(data * 2, dest=1, tag=3)
            return None
        if comm.rank == 1:
            out = np.empty(10, dtype=np.float64)
            status = yield from comm.Recv(out, source=0, tag=3)
            return (status.source, out.tolist())
        return None

    results = Session(nodes=1, ppn=2, trace=False).run(app).values
    assert results[1] == (0, (np.arange(10) * 2.0).tolist())


def test_sendrecv_ring():
    def app(comm):
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        mine = np.array([comm.rank], dtype=np.int64)
        got = np.empty(1, dtype=np.int64)
        yield from comm.Sendrecv(mine, right, 0, got, left, 0)
        return int(got[0])

    assert Session(nodes=2, ppn=2, trace=False).run(app).values == [3, 0, 1, 2]


def test_bcast_in_place():
    def app(comm):
        data = (np.arange(6, dtype=np.int32) + 5 if comm.rank == 2
                else np.zeros(6, dtype=np.int32))
        yield from comm.Bcast(data, root=2)
        return data.tolist()

    results = Session(nodes=2, ppn=2, trace=False).run(app).values
    assert all(r == list(range(5, 11)) for r in results)


def test_scatter_gather_roundtrip():
    def app(comm):
        send = (np.arange(comm.size * 3, dtype=np.float64)
                if comm.rank == 0 else None)
        block = np.empty(3, dtype=np.float64)
        yield from comm.Scatter(send, block, root=0)
        block += 100.0
        out = np.empty(comm.size * 3, dtype=np.float64) if comm.rank == 0 else None
        yield from comm.Gather(block, out, root=0)
        return out.tolist() if comm.rank == 0 else block.tolist()

    results = Session(nodes=2, ppn=2, trace=False).run(app).values
    assert results[0] == (np.arange(12) + 100.0).tolist()
    assert results[1] == [103.0, 104.0, 105.0]


def test_allgather():
    def app(comm):
        mine = np.full(2, comm.rank, dtype=np.int64)
        out = np.empty(2 * comm.size, dtype=np.int64)
        yield from comm.Allgather(mine, out)
        return out.tolist()

    results = Session(nodes=2, ppn=2, trace=False).run(app).values
    assert all(r == [0, 0, 1, 1, 2, 2, 3, 3] for r in results)


@pytest.mark.parametrize("library", PAPER_LINEUP)
def test_allreduce_same_answer_under_every_library(library):
    def app(comm):
        data = np.arange(4, dtype=np.float64) * (comm.rank + 1)
        total = np.empty_like(data)
        yield from comm.Allreduce(data, total)
        return total.tolist()

    results = Session(library=library, nodes=2, ppn=2,
                      trace=False).run(app).values
    want = (np.arange(4) * (1 + 2 + 3 + 4)).astype(float).tolist()
    assert all(r == want for r in results)


def test_allreduce_max_and_dtype_mismatch():
    def app(comm):
        data = np.array([comm.rank * 1.5], dtype=np.float64)
        out = np.empty(1, dtype=np.float64)
        yield from comm.Allreduce(data, out, op=MAX)
        return float(out[0])

    results = Session(nodes=1, ppn=3, trace=False).run(app).values
    assert results == [3.0, 3.0, 3.0]

    def bad(comm):
        yield from comm.Allreduce(np.zeros(2, np.float64), np.zeros(2, np.float32))

    with pytest.raises(ValueError, match="share a dtype"):
        Session(nodes=1, ppn=2, trace=False).run(bad).values


def test_reduce_to_root():
    def app(comm):
        data = np.full(3, comm.rank + 1, dtype=np.int64)
        out = np.empty(3, dtype=np.int64) if comm.rank == 1 else None
        yield from comm.Reduce(data, out, root=1)
        return out.tolist() if comm.rank == 1 else None

    results = Session(nodes=1, ppn=4, trace=False).run(app).values
    assert results[1] == [10, 10, 10]


def test_alltoall():
    def app(comm):
        send = np.array([comm.rank * 10 + j for j in range(comm.size)],
                        dtype=np.int64)
        recv = np.empty(comm.size, dtype=np.int64)
        yield from comm.Alltoall(send, recv)
        return recv.tolist()

    results = Session(nodes=2, ppn=2, trace=False).run(app).values
    for i, row in enumerate(results):
        assert row == [j * 10 + i for j in range(4)]


def test_barrier_and_properties():
    def app(comm):
        assert comm.size == 4
        assert comm.ctx.rank == comm.rank
        yield from comm.Barrier()
        return (comm.rank, comm.node, comm.now > 0)

    results = Session(nodes=2, ppn=2, trace=False).run(app).values
    assert [r[0] for r in results] == [0, 1, 2, 3]
    assert [r[1] for r in results] == [0, 0, 1, 1]
    assert all(r[2] for r in results)


def test_custom_params():
    from repro.machine import skylake_ib

    def app(comm):
        yield from comm.Barrier()
        return comm.size

    session = Session(params=skylake_ib(nodes=2, ppn=3), trace=False)
    assert session.run(app).values == [6] * 6


def test_allgatherv_facade():
    def app(comm):
        counts = [r + 1 for r in range(comm.size)]
        mine = np.full(counts[comm.rank], comm.rank, dtype=np.int64)
        out = np.empty(sum(counts), dtype=np.int64)
        yield from comm.Allgatherv(mine, out, counts)
        return out.tolist()

    results = Session(nodes=2, ppn=2, trace=False).run(app).values
    want = [0, 1, 1, 2, 2, 2, 3, 3, 3, 3]
    assert all(r == want for r in results)


def test_gatherv_scatterv_facade_roundtrip():
    def app(comm):
        counts = [2 * (r + 1) for r in range(comm.size)]
        total = sum(counts)
        send = (np.arange(total, dtype=np.float64)
                if comm.rank == 0 else None)
        block = np.empty(counts[comm.rank], dtype=np.float64)
        yield from comm.Scatterv(send, counts if comm.rank == 0 else None,
                                 block, root=0)
        block *= -1.0
        out = np.empty(total, dtype=np.float64) if comm.rank == 0 else None
        yield from comm.Gatherv(block, out,
                                counts=counts if comm.rank == 0 else None,
                                root=0)
        return out.tolist() if comm.rank == 0 else block.tolist()

    results = Session(nodes=1, ppn=3, trace=False).run(app).values
    total = sum(2 * (r + 1) for r in range(3))
    assert results[0] == (-np.arange(total, dtype=float)).tolist()


def test_iallgather_wait_overlap():
    def app(comm):
        mine = np.full(4, comm.rank, dtype=np.int64)
        out = np.empty(4 * comm.size, dtype=np.int64)
        req = comm.Iallgather(mine, out)
        yield from comm.ctx.compute(1e-6)
        yield from comm.Wait(req)
        return out[::4].tolist()

    results = Session(nodes=2, ppn=2, trace=False).run(app).values
    assert all(r == [0, 1, 2, 3] for r in results)


def test_istart_is_gone():
    # Removed in the entry-point migration: the generic
    # Istart(generator) form is replaced by the I-prefixed collectives.
    def app(comm):
        assert not hasattr(comm, "Istart")
        yield from comm.Barrier()

    Session(nodes=1, ppn=2, trace=False).run(app).values


# -- Session / RunResult ---------------------------------------------------


def test_session_returns_run_result():
    from repro.api import RunResult

    def app(comm):
        yield from comm.Barrier()
        return comm.rank * 10

    session = Session(library="PiP-MColl", nodes=2, ppn=2)
    result = session.run(app)
    assert isinstance(result, RunResult)
    assert result.values == [0, 10, 20, 30]
    # sequence protocol over the per-rank values
    assert len(result) == 4 and result[2] == 20
    assert list(result) == result.values
    assert result.elapsed > 0
    assert result.library == "PiP-MColl"
    assert result.trace is not None and len(result.trace.spans) > 0
    assert result.metrics is not None
    assert result.stats["sim_events"] > 0


def test_session_is_reusable():
    def app(comm):
        yield from comm.Barrier()
        return comm.now

    session = Session(library="MPICH", nodes=1, ppn=2)
    a, b = session.run(app), session.run(app)
    assert a.values == b.values  # fresh world each run — deterministic
    assert a.world is not b.world


def test_session_untraced_has_no_artifacts():
    def app(comm):
        yield from comm.Barrier()
        return comm.rank

    result = Session(nodes=1, ppn=2, trace=False).run(app)
    assert result.trace is None and result.metrics is None
    with pytest.raises(RuntimeError, match="not traced"):
        result.to_perfetto()


def test_session_accepts_engine():
    from repro.sim.spec import EngineSpec

    def app(comm):
        mine = np.full(2, comm.rank, dtype=np.int64)
        out = np.empty(2 * comm.size, dtype=np.int64)
        yield from comm.Allgather(mine, out)
        return out[::2].tolist()

    ref = Session(nodes=2, ppn=2, trace=False, engine="reference").run(app)
    cal = Session(nodes=2, ppn=2, trace=False, engine="calendar").run(app)
    assert ref.values == cal.values
    assert isinstance(ref.engine, EngineSpec)
    assert ref.engine.name == "reference"
    assert cal.engine.name == "calendar"


def test_session_traced_downgrade_is_visible():
    # trace=True attaches a span recorder, which the engine resolution
    # must see: the calendar engine's fast path turns off, on record.
    def app(comm):
        yield from comm.Barrier()
        return comm.rank

    result = Session(nodes=2, ppn=2, trace=True, engine="calendar").run(app)
    assert result.values == [0, 1, 2, 3]
    assert result.engine.name == "calendar" and not result.engine.fastpath
    assert any("span recorder" in d for d in result.engine.downgrades)
    assert result.trace is not None


# -- Split -----------------------------------------------------------------


def test_split_subcommunicator():
    def app(comm):
        sub = yield from comm.Split(comm.rank % 2, key=comm.rank)
        assert sub.size == comm.size // 2
        mine = np.full(1, comm.rank, dtype=np.int64)
        out = np.empty(sub.size, dtype=np.int64)
        yield from sub.Allgather(mine, out)
        return (sub.rank, out.tolist())

    results = Session(nodes=2, ppn=2, trace=False).run(app).values
    assert results[0] == (0, [0, 2])
    assert results[1] == (0, [1, 3])
    assert results[2] == (1, [0, 2])
    assert results[3] == (1, [1, 3])


@pytest.mark.parametrize("library", ["PiP-MColl", "MPICH"])
def test_split_collectives_work_under_any_library(library):
    """PiP-MColl's COMM_WORLD-only algorithms must not leak onto split
    communicators — the library falls back to flat algorithms there."""

    def app(comm):
        sub = yield from comm.Split(comm.node)
        data = np.full(2, comm.rank + 1, dtype=np.float64)
        total = np.empty_like(data)
        yield from sub.Allreduce(data, total)
        yield from sub.Barrier()
        return total[0]

    results = Session(library=library, nodes=2, ppn=2,
                      trace=False).run(app).values
    assert results == [3.0, 3.0, 7.0, 7.0]


def test_split_undefined_color():
    def app(comm):
        sub = yield from comm.Split(None if comm.rank == 0 else 1)
        if comm.rank == 0:
            return sub
        return sub.size

    results = Session(nodes=1, ppn=3, trace=False).run(app).values
    assert results == [None, 2, 2]


# -- first-class nonblocking collectives -----------------------------------


def test_iallgather_wait():
    def app(comm):
        mine = np.full(4, comm.rank, dtype=np.int64)
        out = np.empty(4 * comm.size, dtype=np.int64)
        req = comm.Iallgather(mine, out)
        yield from comm.ctx.compute(1e-6)
        yield from comm.Wait(req)
        return out[::4].tolist()

    results = Session(nodes=2, ppn=2, trace=False).run(app).values
    assert all(r == [0, 1, 2, 3] for r in results)


def test_ibcast_and_iallreduce():
    def app(comm):
        data = np.full(3, comm.rank, dtype=np.float64)
        req = comm.Ibcast(data, root=1)
        yield from comm.Wait(req)
        total = np.empty(3, dtype=np.float64)
        req = comm.Iallreduce(np.full(3, comm.rank, dtype=np.float64), total)
        yield from comm.Wait(req)
        return (data[0], total[0])

    results = Session(nodes=1, ppn=4, trace=False).run(app).values
    assert all(r == (1.0, 6.0) for r in results)


def test_ibarrier():
    def app(comm):
        req = comm.Ibarrier()
        yield from comm.Wait(req)
        return comm.now > 0

    assert all(Session(nodes=1, ppn=2, trace=False).run(app).values)


# -- new collective surface ------------------------------------------------


def test_reduce_scatter_facade():
    def app(comm):
        send = np.arange(comm.size * 2, dtype=np.float64)
        recv = np.empty(2, dtype=np.float64)
        yield from comm.Reduce_scatter(send, recv)
        return recv.tolist()

    results = Session(nodes=2, ppn=2, trace=False).run(app).values
    for rank, got in enumerate(results):
        assert got == [4.0 * (2 * rank), 4.0 * (2 * rank + 1)]


def test_reduce_scatter_rejects_ragged_counts():
    def app(comm):
        send = np.arange(comm.size, dtype=np.float64)
        recv = np.empty(1, dtype=np.float64)
        yield from comm.Reduce_scatter(send, recv, recvcounts=[1, 3])

    with pytest.raises(NotImplementedError, match="uniform"):
        Session(nodes=1, ppn=2, trace=False).run(app).values


def test_scan_exscan_facade():
    def app(comm):
        mine = np.full(1, comm.rank + 1, dtype=np.int64)
        inc = np.empty(1, dtype=np.int64)
        yield from comm.Scan(mine, inc)
        exc = np.zeros(1, dtype=np.int64)
        yield from comm.Exscan(mine, exc)
        return (int(inc[0]), int(exc[0]))

    results = Session(nodes=1, ppn=4, trace=False).run(app).values
    assert [r[0] for r in results] == [1, 3, 6, 10]
    assert [r[1] for r in results][1:] == [1, 3, 6]  # rank 0 undefined


def test_alltoallv_facade():
    def app(comm):
        n = comm.size
        send = np.full(n, comm.rank, dtype=np.float64)
        recv = np.empty(n, dtype=np.float64)
        yield from comm.Alltoallv(send, [1] * n, recv, [1] * n)
        return recv.tolist()

    results = Session(nodes=2, ppn=2, trace=False).run(app).values
    assert all(r == [0.0, 1.0, 2.0, 3.0] for r in results)
