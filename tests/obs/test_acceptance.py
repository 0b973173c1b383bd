"""Cross-checks between Session metrics and the profiler, plus the
engine-determinism acceptance suite (byte-identical traces, fast path
== reference path)."""

import numpy as np
import pytest

from repro.api import Session
from repro.bench import bench_collective
from repro.bench.breakdown import profile_collective
from repro.machine import broadwell_opa, small_test


def _allgather_app(nbytes):
    def app(comm):
        mine = np.zeros(nbytes, dtype=np.uint8)
        out = np.empty(nbytes * comm.size, dtype=np.uint8)
        yield from comm.Allgather(mine, out)
        return comm.now

    return app


def test_session_metrics_reproduce_profiler_bytes_by_transport():
    """Acceptance: one traced Session invocation counts exactly the
    bytes/messages per transport that profile_collective attributes to
    its measured iteration."""
    params = small_test(nodes=2, ppn=2)
    for library in ("MPICH", "PiP-MColl"):
        profile = profile_collective(library, "allgather", 64, params)
        result = Session(library=library, params=params).run(_allgather_app(64))
        assert result.metrics.by_label("bytes_total", "transport") == \
            profile.bytes_by_transport, library
        assert result.metrics.by_label("messages_total", "transport") == \
            profile.messages_by_transport, library


@pytest.mark.parametrize("library", ["MPICH", "OpenMPI", "PiP-MColl"])
def test_traced_run_simulated_time_equals_untraced(library):
    """Spans must add zero simulated time — the latency acceptance
    budget is trivially met because the clock cannot move.

    Attaching a recorder also forces the reference event path, so this
    doubles as a fast-path exactness check: the untraced run takes the
    macro-event fast path and must land on the same simulated time.
    """
    params = small_test(nodes=2, ppn=2)
    traced = Session(library=library, params=params, trace=True)
    untraced = Session(library=library, params=params, trace=False)
    app = _allgather_app(256)
    assert traced.run(app).elapsed == untraced.run(app).elapsed


def test_same_run_produces_byte_identical_perfetto_trace(tmp_path):
    """Determinism end-to-end: two runs of the same configured app
    must export byte-identical Perfetto files — same events, same
    timestamps, same ordering, no wall-clock or id leakage."""
    paths = []
    for i in range(2):
        session = Session(library="PiP-MColl",
                          params=small_test(nodes=2, ppn=2))
        result = session.run(_allgather_app(128))
        path = tmp_path / f"trace{i}.json"
        result.write_perfetto(path)
        paths.append(path)
    a, b = (p.read_bytes() for p in paths)
    assert a == b, "trace export is not deterministic"


#: the pinned timing matrix: timing-only mode (no payloads) over every
#: transport regime — intra-only, multi-node eager, and a rooted tree
_PINNED_MATRIX = [
    ("MPICH", "allgather", 64, 4, 4),
    ("MPICH", "alltoall", 32, 2, 4),
    ("OpenMPI", "allreduce", 64, 4, 2),
    ("IntelMPI", "bcast", 256, 4, 4),
    ("MVAPICH2", "scatter", 128, 2, 4),
    ("PiP-MColl", "allgather", 64, 4, 4),
    ("PiP-MColl", "barrier", 0, 2, 4),
    ("PiP-MPICH", "allreduce", 64, 1, 4),
]


@pytest.mark.parametrize("library,collective,nbytes,nodes,ppn",
                         _PINNED_MATRIX)
def test_fast_path_matches_reference_time(library, collective, nbytes,
                                          nodes, ppn):
    """The macro-event fast path must reproduce the reference event
    path's latencies exactly (not within tolerance: the fast path is
    an engine optimisation, never a model change).  Timing-only mode,
    so this covers the payload-free descriptor path the paper-scale
    benchmarks use."""
    params = broadwell_opa(nodes=nodes, ppn=ppn)
    fast = bench_collective(library, collective, nbytes, params,
                            warmup=1, iters=2, engine="calendar")
    slow = bench_collective(library, collective, nbytes, params,
                            warmup=1, iters=2, engine="reference")
    assert fast.iterations == slow.iterations, \
        f"{library}/{collective}: fast path changed simulated time"


def test_no_spans_leak_open_after_a_run():
    from repro.obs import SpanRecorder

    # run through Session, then assert via the world's recorder
    session = Session(library="PiP-MColl", params=small_test(nodes=2, ppn=2))
    result = session.run(_allgather_app(64))
    recorder = result.world.obs
    assert isinstance(recorder, SpanRecorder)
    assert recorder.open_spans == []
