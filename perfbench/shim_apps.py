"""The ``shim_apps`` program mix: plain mpi4py idioms, run through the shim.

Every app is a synchronous mpi4py-style function ``app(comm)`` that runs
on every simulated rank and returns that rank's result.  ``comm`` is
``MPI.COMM_WORLD`` behind :class:`TimedComm`, a forwarding wrapper that
times each MPI call on one fixed rank; the per-rank threads belong to
the program, the benchmark only reads the clock around calls.

* ``kmeans`` — ``examples/mpi4py_kmeans.kmeans``, loaded unmodified;
* ``halo`` — a 2-D Jacobi ``Sendrecv``/``Allreduce`` loop on a process
  mesh sized to the world, in the idiom of
  ``examples/mpi4py_halo_exchange.py``;
* ``regrid_bcast`` — the regrid-wrapper ``Comm`` class of SNIPPETS.md
  broadcasting a config ``dict`` with ``Comm.bcast``;
* ``embasi_bcast`` — EmbASI's ``mpi_bcast_matrix_storage`` /
  ``mpi_bcast_integer`` from SNIPPETS.md: ``Bcast`` of an int16 shape,
  the int16 key table, one float64 matrix per key, then one integer;
* ``objects`` — pickle-protocol ``allreduce`` and ``allgather`` of
  Python objects.
"""

from __future__ import annotations

import importlib.util
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import shim
from repro.shim import MPI

#: the mpi4py calls that count as ops (anything else is forwarded untimed)
TIMED_CALLS = frozenset({
    "Allreduce", "Bcast", "Sendrecv",
    "allreduce", "allgather", "bcast", "barrier",
})


class TimedComm:
    """Forwards every attribute to ``comm``; on the timed rank each MPI
    call in :data:`TIMED_CALLS` appends ``(name, seconds)`` to ``sink``."""

    def __init__(self, comm, sink: Optional[List[Tuple[str, float]]]):
        self._comm = comm
        self._sink = sink

    def __getattr__(self, name: str):
        attr = getattr(self._comm, name)
        sink = self._sink
        if sink is None or name not in TIMED_CALLS:
            return attr

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            out = attr(*args, **kwargs)
            sink.append((name, time.perf_counter() - t0))
            return out

        return timed


def load_kmeans(repo: Path) -> Callable:
    """``kmeans`` from ``examples/mpi4py_kmeans.py``, imported with
    ``mpi4py`` aliased to the shim so its own import line resolves."""
    path = repo / "examples" / "mpi4py_kmeans.py"
    spec = importlib.util.spec_from_file_location("_perfbench_kmeans", path)
    module = importlib.util.module_from_spec(spec)
    saved = {name: sys.modules.get(name) for name in ("mpi4py", "mpi4py.MPI")}
    sys.modules["mpi4py"] = shim
    sys.modules["mpi4py.MPI"] = MPI
    try:
        spec.loader.exec_module(module)
    finally:
        for name, mod in saved.items():
            if mod is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = mod
    return module.kmeans


# -- halo: Jacobi on a mesh sized to the world --------------------------------
HALO_LOCAL = 16
HALO_STEPS = 6
HALO_CHECK_EVERY = 3


def mesh_shape(size: int) -> Tuple[int, int]:
    """The most square rows x cols factorisation of ``size``."""
    rows = max(r for r in range(1, int(size ** 0.5) + 1) if size % r == 0)
    return rows, size // rows


def halo(comm) -> List[float]:
    """One rank of a 2-D Jacobi solve; returns the residual history."""
    rank, size = comm.Get_rank(), comm.Get_size()
    rows, cols = mesh_shape(size)
    ry, rx = divmod(rank, cols)
    neighbours = {
        "N": rank - cols if ry > 0 else MPI.PROC_NULL,
        "S": rank + cols if ry < rows - 1 else MPI.PROC_NULL,
        "W": rank - 1 if rx > 0 else MPI.PROC_NULL,
        "E": rank + 1 if rx < cols - 1 else MPI.PROC_NULL,
    }
    opposite = {"N": "S", "S": "N", "E": "W", "W": "E"}
    tile = np.zeros((HALO_LOCAL + 2, HALO_LOCAL + 2))
    if rx == 0:
        tile[:, 0] = 100.0
    edge = {"N": (1, slice(1, -1)), "S": (-2, slice(1, -1)),
            "W": (slice(1, -1), 1), "E": (slice(1, -1), -2)}
    ghost = {"N": (0, slice(1, -1)), "S": (-1, slice(1, -1)),
             "W": (slice(1, -1), 0), "E": (slice(1, -1), -1)}
    send = np.zeros(HALO_LOCAL)
    recv = np.zeros(HALO_LOCAL)
    red_in, red_out = np.zeros(1), np.zeros(1)
    residuals = []
    for step in range(HALO_STEPS):
        for i, d in enumerate("NSEW"):
            nb = neighbours[d]
            if nb == MPI.PROC_NULL:
                continue
            send[:] = tile[edge[d]]
            comm.Sendrecv(send, nb, 100 + i,
                          recv, nb, 100 + "NSEW".index(opposite[d]))
            tile[ghost[d]] = recv
        inner = 0.25 * (tile[:-2, 1:-1] + tile[2:, 1:-1]
                        + tile[1:-1, :-2] + tile[1:-1, 2:])
        red_in[0] = np.abs(inner - tile[1:-1, 1:-1]).max()
        tile[1:-1, 1:-1] = inner
        if rx == 0:
            tile[1:-1, 0] = 100.0
        if (step + 1) % HALO_CHECK_EVERY == 0:
            comm.Allreduce(red_in, red_out, op=MPI.MAX)
            residuals.append(float(red_out[0]))
    return residuals


# -- regrid-wrapper: Comm.bcast of a config dict ------------------------------
REGRID_ROUNDS = 6


class RegridComm:
    """The regrid-wrapper ``Comm`` class of SNIPPETS.md, over ``comm``."""

    def __init__(self, comm):
        self._comm = comm

    @property
    def rank(self) -> int:
        return self._comm.Get_rank()

    @property
    def size(self) -> int:
        return self._comm.Get_size()

    def barrier(self) -> None:
        self._comm.barrier()

    def bcast(self, value: dict, root: int = 0) -> Any:
        return self._comm.bcast(value, root=root)


def regrid_config(step: int) -> dict:
    """The config dict rank 0 broadcasts in round ``step``."""
    return {"step": step, "grid": [step, step + 1, 2 * step],
            "method": "conservative", "weights": f"w{step:03d}.nc"}


def regrid_bcast(comm) -> List[dict]:
    """Every rank receives rank 0's config dict, one round at a time."""
    c = RegridComm(comm)
    got = [c.bcast(regrid_config(step) if c.rank == 0 else None, root=0)
           for step in range(REGRID_ROUNDS)]
    c.barrier()
    return got


# -- EmbASI: Bcast of int16 shape, keys, then one matrix per key --------------
EMBASI_SHAPE = (12, 10)
EMBASI_KEYS = ((0, 0), (1, 2), (3, 1), (2, 2))
EMBASI_INTEGER = 4242


def embasi_matrix(key: Tuple[int, int]) -> np.ndarray:
    """The float64 matrix rank 0 holds under ``key``."""
    nrows, ncols = EMBASI_SHAPE
    return (np.arange(nrows * ncols, dtype=np.float64).reshape(nrows, ncols)
            * (1 + key[0]) + key[1])


def embasi_bcast(comm) -> Tuple[List[List[int]], float, int]:
    """EmbASI's ``mpi_bcast_matrix_storage`` then ``mpi_bcast_integer``;
    returns (keys, checksum of every matrix, the integer)."""
    rank = comm.Get_rank()
    nrows, ncols = EMBASI_SHAPE
    data_dict = ({k: embasi_matrix(k) for k in EMBASI_KEYS}
                 if rank == 0 else {})
    if rank == 0:
        data = np.array(list(data_dict), dtype=np.int16)
        data_shape = np.array(data.shape, dtype=np.int16)
    else:
        data_shape = np.array([0, 0], dtype=np.int16)
    comm.Bcast([data_shape, MPI.INT16_T], root=0)
    if rank != 0:
        data = np.zeros(tuple(data_shape), dtype=np.int16)
    comm.Bcast([data, MPI.INT16_T], root=0)
    for data_key in data:
        if rank == 0:
            data_buf = data_dict[tuple(data_key)]
        else:
            data_buf = np.zeros((nrows, ncols), dtype=np.float64)
        comm.Bcast([data_buf, MPI.DOUBLE], root=0)
        if rank != 0:
            data_dict[tuple(int(x) for x in data_key)] = data_buf.copy()
    int_buf = np.full(1, EMBASI_INTEGER if rank == 0 else 0, dtype=int)
    comm.Bcast(int_buf)
    checksum = float(sum(m.sum() for m in data_dict.values()))
    return data.tolist(), checksum, int(int_buf[0])


# -- pickle-protocol object collectives ---------------------------------------
OBJECT_ROUNDS = 3


def objects(comm) -> List[Tuple[int, List[int]]]:
    """Object ``allreduce`` of ints and ``allgather`` of dicts."""
    rank = comm.Get_rank()
    out = []
    for i in range(OBJECT_ROUNDS):
        total = comm.allreduce(rank * (i + 1), op=MPI.SUM)
        table = comm.allgather({"rank": rank, "round": i})
        out.append((total, [d["rank"] * (d["round"] + 1) for d in table]))
    return out


def truth(app: str, size: int) -> Any:
    """What every rank must return from ``app`` on ``size`` ranks, where
    the answer follows from the inputs alone (None when it does not)."""
    if app == "regrid_bcast":
        return [regrid_config(step) for step in range(REGRID_ROUNDS)]
    if app == "embasi_bcast":
        checksum = float(sum(embasi_matrix(k).sum() for k in EMBASI_KEYS))
        return [list(k) for k in EMBASI_KEYS], checksum, EMBASI_INTEGER
    if app == "objects":
        return [((i + 1) * size * (size - 1) // 2,
                 [r * (i + 1) for r in range(size)])
                for i in range(OBJECT_ROUNDS)]
    return None


def rank_main(app: Callable, sink: List[Tuple[str, float]]) -> Any:
    """The per-rank program: ``app`` on COMM_WORLD, timed on the highest
    rank (a non-root on every rooted call, so it waits for the data)."""
    comm = MPI.COMM_WORLD
    timed = comm.Get_rank() == comm.Get_size() - 1
    return app(TimedComm(comm, sink if timed else None))


APPS: Dict[str, Callable] = {
    "halo": halo,
    "regrid_bcast": regrid_bcast,
    "embasi_bcast": embasi_bcast,
    "objects": objects,
}
