"""Acceptance: shim-run collectives are *timestamp-identical* to the
same sequence issued through the native :class:`~repro.api.VComm`.

Simulated time only advances inside the delegated operation
generators, so a pinned mixed sequence must produce byte-identical
buffers, the same per-call completion times and the same total elapsed
whether it is driven synchronously through the shim's thread bridge or
natively as a generator app — on both the calendar and reference
engines.
"""

import numpy as np
import pytest

from repro import shim
from repro.api import Session
from repro.shim import MPI

NODES, PPN = 4, 2


def native_app(comm):
    """The pinned sequence, native generator idiom."""
    rank, size = comm.rank, comm.size
    laps = []
    red_in = np.full(64, float(rank))
    red_out = np.empty_like(red_in)
    yield from comm.Allreduce(red_in, red_out)
    laps.append(comm.now)

    part = np.full(16, float(rank))
    table = np.empty(16 * size)
    yield from comm.Allgather(part, table)
    laps.append(comm.now)

    blob = np.arange(32.0) if rank == 0 else np.zeros(32)
    yield from comm.Bcast(blob, root=0)
    laps.append(comm.now)

    ring_out = np.full(8, float(rank))
    ring_in = np.empty(8)
    yield from comm.Sendrecv(ring_out, (rank + 1) % size, 3,
                             ring_in, (rank - 1) % size, 3)
    laps.append(comm.now)

    yield from comm.Barrier()
    laps.append(comm.now)
    return laps, red_out.sum(), table.sum(), blob.sum(), ring_in.sum()


def shim_app():
    """The same pinned sequence, synchronous mpi4py idiom."""
    comm = MPI.COMM_WORLD
    rank, size = comm.Get_rank(), comm.Get_size()
    laps = []
    red_in = np.full(64, float(rank))
    red_out = np.empty_like(red_in)
    comm.Allreduce(red_in, red_out)
    laps.append(MPI.Wtime())

    part = np.full(16, float(rank))
    table = np.empty(16 * size)
    comm.Allgather(part, table)
    laps.append(MPI.Wtime())

    blob = np.arange(32.0) if rank == 0 else np.zeros(32)
    comm.Bcast(blob, root=0)
    laps.append(MPI.Wtime())

    ring_out = np.full(8, float(rank))
    ring_in = np.empty(8)
    comm.Sendrecv(ring_out, (rank + 1) % size, 3,
                  ring_in, (rank - 1) % size, 3)
    laps.append(MPI.Wtime())

    comm.Barrier()
    laps.append(MPI.Wtime())
    return laps, red_out.sum(), table.sum(), blob.sum(), ring_in.sum()


@pytest.mark.parametrize("engine", ["calendar", "reference"])
@pytest.mark.parametrize("library", ["MPICH", "PiP-MColl"])
def test_shim_matches_native_timestamps(engine, library):
    native = Session(library=library, nodes=NODES, ppn=PPN, trace=False,
                     engine=engine).run(native_app)
    shimmed = shim.run(shim_app, nodes=NODES, ppn=PPN, trace=False,
                       library=library, engine=engine)

    assert shimmed.elapsed == native.elapsed
    for rank, (nat, shm) in enumerate(zip(native.values, shimmed.values)):
        # per-call completion instants, exactly equal
        assert shm[0] == nat[0], f"rank {rank} lap times diverged"
        # byte-identical payload checksums
        assert shm[1:] == nat[1:]


def test_traced_shim_matches_traced_native():
    """With the span recorder attached both sides take the same
    downgrade (fast path off) and must still agree exactly."""
    native = Session(library="PiP-MColl", nodes=NODES, ppn=PPN,
                     trace=True).run(native_app)
    shimmed = shim.run(shim_app, nodes=NODES, ppn=PPN, trace=True,
                       library="PiP-MColl")
    assert shimmed.elapsed == native.elapsed
    assert [v[0] for v in shimmed.values] == [v[0] for v in native.values]
