"""The benchmark's three workloads, one cell at a time.

A *cell* is the unit a pass shuffles: one Fig. 1/Fig. 2 point, or one
shim program.  :meth:`Workload.run_cell` runs a cell and returns its
ops (one ``(name, seconds)`` pair per call a user makes and waits for),
its deterministic counters and any output mismatch.  Every cell is
checked against ``expected.json``; the simulator is deterministic, so
the comparison is exact.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro import shim
from repro.bench.harness import bench_collective
from repro.bench.regression import PAPER_GRID
from repro.machine import broadwell_opa

import shim_apps

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
EXPECTED_PATH = HERE / "expected.json"
GOLDEN_PATH = REPO / "benchmarks" / "golden.json"

#: the six libraries of the paper's lineup, in PAPER_GRID order
LIBRARIES = tuple(entry[4] for entry in PAPER_GRID)

#: one collective call per op, on a fresh world: ``bench_collective``'s
#: own default of one warm-up plus three timed calls costs four calls
#: per op, and too few ops would then fit in a run to rest a p90 on
WARMUP, ITERS = 0, 1

#: world counters every cell reports (``World.stats()`` keys)
STAT_KEYS = ("sim_events", "inject_msgs", "inject_bytes", "tx_busy_s",
             "membus_busy_s")

#: EXPERIMENTS.md, Fig. 1 table at 128x18, rounded to 0.01 us there
FIG1_TABLE_US = {
    "IntelMPI/scatter/64B@128x18": 71.59,
    "PiP-MColl/scatter/64B@128x18": 14.94,
    "PiP-MPICH/scatter/256B@128x18": 202.07,
    "PiP-MColl/scatter/256B@128x18": 51.22,
}
#: the paper's best Fig. 1 scatter speedup (at 256 B)
PAPER_FIG1_SPEEDUP = 1.65

#: benchmarks/golden.json compares fresh runs within this tolerance
GOLDEN_TOLERANCE = 0.01


def cell_key(lib: str, coll: str, nbytes: int, nodes: int, ppn: int) -> str:
    """A cell's name, in ``benchmarks/golden.json``'s key format."""
    return f"{lib}/{coll}/{nbytes}B@{nodes}x{ppn}"


@dataclass
class CellResult:
    """What one cell produced."""

    ops: List[Tuple[str, float]]
    counters: Dict[str, Any]
    problems: List[str] = field(default_factory=list)
    output: Any = None


def load_expected() -> Dict[str, Dict[str, Any]]:
    """The expected-values file (empty while it is being generated)."""
    if not EXPECTED_PATH.exists():
        return {}
    return json.loads(EXPECTED_PATH.read_text())["cells"]


def cross_check(expected: Dict[str, Dict[str, Any]]) -> List[str]:
    """Disagreements between ``expected.json`` and the repo's recorded
    results: ``benchmarks/golden.json`` where keys overlap, and the
    Fig. 1 rows of EXPERIMENTS.md."""
    problems = []
    golden = json.loads(GOLDEN_PATH.read_text())
    for key, cell in expected.items():
        lat = cell["counters"].get("latency_us")
        if key in golden and abs(lat / golden[key] - 1.0) > GOLDEN_TOLERANCE:
            problems.append(f"{key}: expected {lat} us, golden {golden[key]}")
        if key in FIG1_TABLE_US and round(lat, 2) != FIG1_TABLE_US[key]:
            problems.append(f"{key}: expected {lat} us, EXPERIMENTS.md "
                            f"{FIG1_TABLE_US[key]}")
    return problems


class Workload:
    """A named set of cells; subclasses say how one cell runs."""

    name = ""
    cells: Tuple[str, ...] = ()

    def __init__(self) -> None:
        self.expected = load_expected()

    def warmup(self) -> None:
        """One untimed op, part of set-up."""
        raise NotImplementedError

    def execute(self, key: str) -> CellResult:
        """Run ``key`` and time its ops (no checks)."""
        raise NotImplementedError

    def run_cell(self, key: str) -> CellResult:
        """Run one cell and check it against ``expected.json``."""
        result = self.execute(key)
        want = self.expected.get(key)
        if want is None:
            result.problems.append(f"{key}: no expected values")
            return result
        if result.counters != want["counters"]:
            drift = sorted(k for k in set(want["counters"]) | set(result.counters)
                           if want["counters"].get(k) != result.counters.get(k))
            result.problems.append(f"{key}: counters differ: {drift}")
        if "output" in want and jsonable(result.output) != want["output"]:
            result.problems.append(f"{key}: rank output differs")
        return result

    def summary(self, results: Dict[str, CellResult]) -> List[str]:
        """Lines printed after a run (model-vs-paper remarks)."""
        return []


def jsonable(value: Any) -> Any:
    """``value`` as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(value))


class SweepWorkload(Workload):
    """A Fig. 1/Fig. 2 grid: one ``bench_collective`` call per op."""

    collective = ""
    sizes: Tuple[int, ...] = ()
    nodes = ppn = 0
    warmup_cell = ("MPICH", 64)

    def __init__(self) -> None:
        super().__init__()
        self.params = broadwell_opa(nodes=self.nodes, ppn=self.ppn)
        self.grid = {cell_key(lib, self.collective, n, self.nodes, self.ppn):
                     (lib, n) for lib in LIBRARIES for n in self.sizes}
        self.cells = tuple(self.grid)

    def _bench(self, lib: str, nbytes: int):
        return bench_collective(lib, self.collective, nbytes, self.params,
                                warmup=WARMUP, iters=ITERS)

    def warmup(self) -> None:
        self._bench(*self.warmup_cell)

    def execute(self, key: str) -> CellResult:
        lib, nbytes = self.grid[key]
        t0 = time.perf_counter()
        point = self._bench(lib, nbytes)
        dt = time.perf_counter() - t0
        counters = {"latency_us": point.latency_us,
                    "ranks": self.nodes * self.ppn,
                    "iterations": WARMUP + ITERS}
        counters.update((k, point.stats[k]) for k in STAT_KEYS)
        return CellResult(ops=[(key, dt)], counters=counters)


class Fig2Allgather(SweepWorkload):
    """Paper Fig. 2 at 32x18: message-path heavy (DES kernel, pt2pt)."""

    name = "fig2_allgather"
    collective = "allgather"
    sizes = (16, 64, 512)
    nodes, ppn = 32, 18


class Fig1Scatter(SweepWorkload):
    """Paper Fig. 1 at the paper's 128x18: per-rank costs dominate."""

    name = "fig1_scatter"
    collective = "scatter"
    sizes = (64, 256, 4096, 65536)
    nodes, ppn = 128, 18

    def summary(self, results: Dict[str, CellResult]) -> List[str]:
        lat = {k: r.counters["latency_us"] for k, r in results.items()}
        ours = lat[cell_key("PiP-MColl", "scatter", 256, 128, 18)]
        others = [lat[cell_key(lib, "scatter", 256, 128, 18)]
                  for lib in LIBRARIES if lib != "PiP-MColl"]
        model = min(others) / ours
        return [f"fig1 256 B speedup: model {model:.2f}x, paper "
                f"{PAPER_FIG1_SPEEDUP:.2f}x (model error "
                f"{model / PAPER_FIG1_SPEEDUP - 1.0:+.0%})"]


class ShimApps(Workload):
    """mpi4py programs through ``shim.run`` at 8x18 with user defaults
    (``trace=True``, PiP-MColl); one MPI call on the timed rank is one op."""

    name = "shim_apps"
    cells = ("kmeans", "halo", "regrid_bcast", "embasi_bcast", "objects")
    nodes, ppn = 8, 18

    def __init__(self) -> None:
        super().__init__()
        self.apps = dict(shim_apps.APPS, kmeans=shim_apps.load_kmeans(REPO))

    def _run(self, app, sink):
        return shim.run(shim_apps.rank_main, nodes=self.nodes, ppn=self.ppn,
                        args=(app, sink))

    def warmup(self) -> None:
        self._run(shim_apps.embasi_bcast, [])

    def execute(self, key: str) -> CellResult:
        sink: List[Tuple[str, float]] = []
        result = self._run(self.apps[key], sink)
        size = self.nodes * self.ppn
        counters = {"elapsed_s": result.elapsed, "ranks": size,
                    # MPI calls on the timed rank stand in for iterations
                    "iterations": len(sink), "spans": len(result.trace)}
        counters.update((k, result.stats[k]) for k in STAT_KEYS)
        values = result.values
        if key == "kmeans":
            values = [v[0] for v in values]  # the centroid history
        problems = []
        if len(values) != size:
            problems.append(f"{key}: {len(values)} rank values, want {size}")
        elif any(v != values[0] for v in values):
            problems.append(f"{key}: ranks disagree")
        want = shim_apps.truth(key, size)
        if want is not None and jsonable(values[-1]) != jsonable(want):
            problems.append(f"{key}: wrong result on the timed rank")
        if not sink:
            problems.append(f"{key}: no MPI call was timed")
        return CellResult(ops=sink, counters=counters, problems=problems,
                          output=values[-1])


WORKLOADS = {cls.name: cls for cls in (Fig2Allgather, Fig1Scatter, ShimApps)}
