"""Runner mechanics: geometry, teardown, the CLI."""

import threading
import time

import numpy as np
import pytest

from repro import shim
from repro.cli import main as cli_main
from repro.machine import preset
from repro.runtime.errors import MpiError
from repro.shim import MPI
from repro.shim.runner import _geometry


def _shim_threads():
    return [t for t in threading.enumerate()
            if t.name.startswith("shim-rank") and t.is_alive()]


def _await_no_shim_threads(timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not _shim_threads():
            return
        time.sleep(0.01)
    raise AssertionError(f"leaked rank threads: {_shim_threads()}")


# -- geometry ----------------------------------------------------------
def test_geometry_resolution():
    assert _geometry(None, None, None) == (4, 4)
    assert _geometry(None, 2, 8) == (2, 8)
    assert _geometry(16, None, None) == (2, 8)
    assert _geometry(32, None, None) == (4, 8)
    assert _geometry(4, None, None) == (2, 2)
    assert _geometry(2, None, None) == (2, 1)
    assert _geometry(1, None, None) == (1, 1)
    assert _geometry(7, None, None) == (7, 1)
    assert _geometry(12, None, 4) == (3, 4)
    assert _geometry(12, 3, None) == (3, 4)
    assert _geometry(12, 3, 4) == (3, 4)
    with pytest.raises(ValueError):
        _geometry(12, 5, None)
    with pytest.raises(ValueError):
        _geometry(12, 3, 5)
    with pytest.raises(ValueError):
        _geometry(0, None, None)


def test_params_geometry_consistency():
    params = preset("broadwell_opa", nodes=2, ppn=4)

    def app():
        return MPI.COMM_WORLD.Get_size()

    result = shim.run(app, params=params, nranks=8, trace=False)
    assert result.values == [8] * 8
    with pytest.raises(ValueError, match="inconsistent"):
        shim.run(app, params=params, nranks=4, trace=False)


# -- teardown ----------------------------------------------------------
def test_user_exception_propagates_and_threads_are_reaped():
    def app():
        comm = MPI.COMM_WORLD
        if comm.Get_rank() == 2:
            raise RuntimeError("rank 2 exploded")
        # Everyone else blocks in a collective that can never complete.
        comm.barrier()
        return "unreachable"

    with pytest.raises(RuntimeError, match="rank 2 exploded"):
        shim.run(app, nodes=2, ppn=2, trace=False)
    _await_no_shim_threads()


def test_deadlock_is_detected_and_threads_are_reaped():
    def app():
        comm = MPI.COMM_WORLD
        buf = np.empty(1)
        comm.Recv(buf, source=(comm.Get_rank() + 1) % comm.Get_size())
        return "unreachable"

    with pytest.raises(MpiError):
        shim.run(app, nodes=2, ppn=2, trace=False)
    _await_no_shim_threads()


def test_per_rank_return_values():
    def app():
        return MPI.COMM_WORLD.Get_rank() * 10

    result = shim.run(app, nodes=2, ppn=2, trace=False)
    assert result.values == [0, 10, 20, 30]


def test_run_passes_args_through():
    def app(base, scale):
        return base + scale * MPI.COMM_WORLD.Get_rank()

    result = shim.run(app, nodes=2, ppn=2, trace=False, args=(100, 2))
    assert result.values == [100, 102, 104, 106]


# -- run_script + CLI --------------------------------------------------
SCRIPT = """\
import sys
import numpy as np
from mpi4py import MPI

comm = MPI.COMM_WORLD
rank = comm.Get_rank()
n = int(sys.argv[1]) if len(sys.argv) > 1 else 2
total = np.empty(n)
comm.Allreduce(np.full(n, float(rank)), total)
if rank == 0:
    print(f"RESULT {int(total[0])} ranks={comm.Get_size()} argv={sys.argv[1:]}")
"""


def test_run_script_aliases_mpi4py(tmp_path, capsys):
    script = tmp_path / "app.py"
    script.write_text(SCRIPT)
    result = shim.run_script(script, argv=("3",), nranks=8, trace=False)
    assert result.elapsed > 0
    out = capsys.readouterr().out
    assert "RESULT 28 ranks=8 argv=['3']" in out
    # The alias is scoped to the run: mpi4py is gone again afterwards.
    with pytest.raises(ImportError):
        import mpi4py  # noqa: F401


def test_run_script_missing_file():
    with pytest.raises(FileNotFoundError):
        shim.run_script("/nonexistent/app.py")


def test_cli_shim_run(tmp_path, capsys):
    script = tmp_path / "app.py"
    script.write_text(SCRIPT)
    trace_out = tmp_path / "trace.json"
    rc = cli_main(["shim", "run", "--nranks", "4", "--library", "MPICH",
                   "--trace", str(trace_out), "--validate",
                   str(script), "--", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "RESULT 6 ranks=4 argv=['2']" in out
    assert "simulated" in out and "schema OK" in out
    assert trace_out.is_file()


def test_cli_shim_run_no_trace(tmp_path, capsys):
    script = tmp_path / "app.py"
    script.write_text(SCRIPT)
    rc = cli_main(["shim", "run", "--nodes", "2", "--ppn", "2",
                   "--engine", "reference", "--no-trace", str(script)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "RESULT 6 ranks=4" in out
    assert "engine reference" in out
