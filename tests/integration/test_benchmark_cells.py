"""Two Fig. 2 benchmark cells, pinned exactly in tier 1.

``perfbench/expected.json`` pins the simulated latency and the world
counters of every benchmark cell, ``sim_events`` included, and the
benchmark fails every op whose counters drift.  This test re-runs the
MPICH and PiP-MColl allgather 64 B cells at 32×18 the way the benchmark
does (one call on a fresh world) and compares them with that file,
which it only reads — so a kernel change that moves the event stream
fails here, not first in a benchmark run.
"""

import json
from pathlib import Path

import pytest

from repro.bench import bench_collective
from repro.machine import broadwell_opa

EXPECTED = Path(__file__).resolve().parents[2] / "perfbench" / "expected.json"

#: the world counters every benchmark cell records (``World.stats()`` keys)
STAT_KEYS = ("sim_events", "inject_msgs", "inject_bytes", "tx_busy_s",
             "membus_busy_s")


@pytest.mark.parametrize("library", ["MPICH", "PiP-MColl"])
def test_fig2_cell_matches_the_benchmark_expectation(library):
    want = json.loads(EXPECTED.read_text())["cells"][
        f"{library}/allgather/64B@32x18"]["counters"]
    point = bench_collective(library, "allgather", 64,
                             broadwell_opa(nodes=32, ppn=18),
                             warmup=0, iters=1)
    got = {"latency_us": point.latency_us}
    got.update((key, point.stats[key]) for key in STAT_KEYS)
    assert got == {key: want[key] for key in got}
