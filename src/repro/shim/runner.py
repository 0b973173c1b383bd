"""Entry points: run an unmodified mpi4py program on simulated ranks.

:func:`run` is the library API — point it at a Python function and it
executes one copy per simulated rank (each on its own thread, bridged
to a coroutine-backed rank; see :mod:`repro.shim.bridge`) and returns
the session's full :class:`~repro.api.RunResult`: per-rank return
values, simulated latency, span timeline, Perfetto export, LogGP
attribution via the existing observability stack.

:func:`run_script` is the CLI's engine (``python -m repro shim run
script.py``): it executes a script file as ``__main__`` on every rank,
with ``mpi4py`` aliased to :mod:`repro.shim` in ``sys.modules`` so the
script's own ``from mpi4py import MPI`` resolves to the shim without
editing the file.
"""

from __future__ import annotations

import contextlib
import os
import runpy
import sys
from typing import Any, Callable, Optional, Tuple

from ..api import RunResult, Session
from ..machine import MachineParams
from .bridge import RankBridge


def _geometry(nranks: Optional[int], nodes: Optional[int],
              ppn: Optional[int]) -> Tuple[int, int]:
    """Resolve a cluster shape from whichever of ``nranks``/``nodes``/
    ``ppn`` the caller pinned (mpi4py users think in ``-n <ranks>``;
    the machine model thinks in nodes × ppn)."""
    if nranks is None:
        return nodes or 4, ppn or 4
    if nranks < 1:
        raise ValueError(f"nranks must be >= 1, got {nranks}")
    if nodes is not None and ppn is not None:
        if nodes * ppn != nranks:
            raise ValueError(
                f"nranks={nranks} inconsistent with nodes={nodes} x "
                f"ppn={ppn}")
        return nodes, ppn
    if ppn is not None:
        if nranks % ppn:
            raise ValueError(f"nranks={nranks} not divisible by ppn={ppn}")
        return nranks // ppn, ppn
    if nodes is not None:
        if nranks % nodes:
            raise ValueError(
                f"nranks={nranks} not divisible by nodes={nodes}")
        return nodes, nranks // nodes
    # Prefer a multi-node shape (collectives differ materially across
    # the node boundary): largest ppn <= 8 that leaves >= 2 nodes.
    for ppn_try in range(min(8, nranks), 0, -1):
        if nranks % ppn_try == 0 and nranks // ppn_try >= 2:
            return nranks // ppn_try, ppn_try
    return 1, nranks


def run(fn: Callable[..., Any], *, nranks: Optional[int] = None,
        library: str = "PiP-MColl", nodes: Optional[int] = None,
        ppn: Optional[int] = None, params: Optional[MachineParams] = None,
        engine=None, trace: bool = True, resources: bool = False,
        args: Tuple = (), **world_kwargs) -> RunResult:
    """Execute ``fn(*args)`` as an unmodified mpi4py program on every
    simulated rank; returns the :class:`~repro.api.RunResult`.

    ``fn`` runs on one thread per rank and may call anything in
    :mod:`repro.shim.mpi` (``MPI.COMM_WORLD``, ``MPI.Wtime``, …).
    Geometry comes from ``nranks`` (mpi4py's ``mpiexec -n``) or an
    explicit ``nodes``/``ppn``/``params``; ``library``/``engine``/
    ``trace``/``resources`` and extra ``world_kwargs`` mean exactly
    what they do on :class:`~repro.api.Session`.  Per-rank return
    values land in ``result.values``.
    """
    if params is not None:
        if nranks is not None and nranks != params.world_size:
            raise ValueError(
                f"nranks={nranks} inconsistent with params "
                f"({params.nodes} nodes x {params.ppn} ppn)")
        session = Session(library=library, params=params, trace=trace,
                          resources=resources, engine=engine,
                          **world_kwargs)
    else:
        nodes, ppn = _geometry(nranks, nodes, ppn)
        session = Session(library=library, nodes=nodes, ppn=ppn,
                          trace=trace, resources=resources, engine=engine,
                          **world_kwargs)

    bridges = []

    def app(vcomm):
        bridge = RankBridge(vcomm, fn, args)
        bridges.append(bridge)
        value = yield from bridge.pump()
        return value

    try:
        result = session.run(app)
    finally:
        # Wake anything still blocked in an MPI call (a sibling rank
        # raised, or the world deadlocked) and reap the rank threads.
        for bridge in bridges:
            bridge.abort()
        for bridge in bridges:
            bridge.join()
    return result


@contextlib.contextmanager
def _script_environment(script: str, argv: Tuple[str, ...]):
    """Make ``from mpi4py import MPI`` resolve to the shim and give the
    script its own ``sys.argv``, restoring both on exit."""
    from .. import shim as shim_pkg
    from . import mpi as shim_mpi

    saved_modules = {name: sys.modules.get(name)
                     for name in ("mpi4py", "mpi4py.MPI")}
    saved_argv = sys.argv
    sys.modules["mpi4py"] = shim_pkg
    sys.modules["mpi4py.MPI"] = shim_mpi
    sys.argv = [script, *argv]
    try:
        yield
    finally:
        sys.argv = saved_argv
        for name, module in saved_modules.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


def run_script(path, *, argv: Tuple[str, ...] = (),
               **run_kwargs) -> RunResult:
    """Run a script file as ``__main__`` on every simulated rank.

    The file is untouched: ``mpi4py`` is aliased to the shim for the
    duration of the run, so real-world MPI scripts execute as-is.
    Keyword arguments are :func:`run`'s.
    """
    script = os.fspath(path)
    if not os.path.exists(script):
        raise FileNotFoundError(script)

    def rank_main():
        runpy.run_path(script, run_name="__main__")

    with _script_environment(script, tuple(argv)):
        return run(rank_main, **run_kwargs)
