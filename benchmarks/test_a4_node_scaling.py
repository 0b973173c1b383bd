"""A4 — Scaling: PiP-MColl's allgather advantage grows with node count.

The radix-(P+1) Bruck needs ``ceil(log_{P+1} N)`` rounds vs the
baseline's ``ceil(log2(N·P))``, and a node transmits ~``N·P·C_b``
bytes once instead of every *rank* transmitting that much — so the
*absolute* time saved grows with node count.  The speedup *ratio*
saturates (both designs share the Θ(N) result-distribution term), so
the honest scaling claim is: the gap widens monotonically and the
ratio stays large at every point, making the paper's 128-node
endpoint credible rather than cherry-picked.

Shape asserted at 64 B, N ∈ {8, 32, 128}, ppn 18: PiP-MColl wins
≥ 2.5× everywhere, and the absolute saving (µs) grows strictly.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.bench import bench_collective
from repro.machine import broadwell_opa

from conftest import RESULTS_DIR, save_records, save_result

NODE_COUNTS = [8, 32, 128]


def _run():
    points = {}
    for nodes in NODE_COUNTS:
        params = broadwell_opa(nodes=nodes, ppn=18)
        base = bench_collective("MPICH", "allgather", 64, params,
                                warmup=1, iters=1, resources=True)
        ours = bench_collective("PiP-MColl", "allgather", 64, params,
                                warmup=1, iters=1, resources=True)
        points[nodes] = (base, ours)
    return points


@pytest.mark.benchmark(group="a4")
def test_a4_node_scaling(benchmark):
    points = benchmark.pedantic(_run, rounds=1, iterations=1)
    lines = ["A4 node scaling: allgather 64 B, ppn=18 (us)"]
    ratios, gaps = [], []
    for nodes in NODE_COUNTS:
        base, ours = (pt.latency_us for pt in points[nodes])
        ratios.append(base / ours)
        gaps.append(base - ours)
        lines.append(
            f"  N={nodes:4d}: MPICH {base:9.2f}, PiP-MColl {ours:9.2f}"
            f"  ->  {base / ours:5.2f}x  (saves {base - ours:8.2f} us)"
        )
    save_result("a4_node_scaling", "\n".join(lines))
    save_records("a4_node_scaling",
                 [pt.to_record(experiment="a4")
                  for pair in points.values() for pt in pair])

    assert all(r > 2.5 for r in ratios), f"ratio collapsed: {ratios}"
    for lo, hi in zip(gaps, gaps[1:]):
        assert hi > lo, f"absolute saving shrank with scale: {gaps}"


# ---------------------------------------------------------------------------
# A4b — engine fast path at scale.
# ---------------------------------------------------------------------------
def _measure_engine(nodes: int, engine: str):
    """Wall-clock one MPICH 64 B allgather point at ``nodes`` × 18."""
    params = broadwell_opa(nodes=nodes, ppn=18)
    t0 = time.perf_counter()
    point = bench_collective("MPICH", "allgather", 64, params,
                             warmup=1, iters=2, engine=engine)
    return time.perf_counter() - t0, point


@pytest.mark.benchmark(group="a4")
def test_a4_engine_fast_path_speedup(benchmark):
    """The macro-event fast path must (a) reproduce the reference
    event path's simulated latencies *exactly*, and (b) beat it on
    wall-clock at 64+ nodes, where per-message bookkeeping dominates.

    The wall-clock floor is deliberately conservative (shared CI
    runners): locally the fused pt2pt path runs ~1.3–1.5× the
    reference path, and ~1.7× the pre-PR event loop end-to-end (the
    engine rewrite — one inlined heap scheduler, tuple-dispatched
    wakes, slotted events, bucketed matching — also sped the reference
    path up).
    Both sides run in this process, so the ratio is noise-robust.
    """
    def run():
        out = {}
        for nodes in (64, 128):
            fast_wall, fast_pt = _measure_engine(nodes, "calendar")
            slow_wall, slow_pt = _measure_engine(nodes, "reference")
            out[nodes] = (fast_wall, slow_wall, fast_pt, slow_pt)
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = ["A4b engine fast path: MPICH allgather 64 B, ppn=18"]
    report = {}
    for nodes, (fast_wall, slow_wall, fast_pt, slow_pt) in results.items():
        lines.append(
            f"  N={nodes:4d}: fast {fast_wall:6.2f}s, reference "
            f"{slow_wall:6.2f}s  ->  {slow_wall / fast_wall:4.2f}x wall "
            f"(simulated {fast_pt.latency_us:.2f} us both paths)"
        )
        report[str(nodes)] = {
            "fast_wall_s": fast_wall, "reference_wall_s": slow_wall,
            "latency_us": fast_pt.latency_us,
        }
    save_result("a4_engine_fast_path", "\n".join(lines))
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "a4_engine_fast_path.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")

    for nodes, (fast_wall, slow_wall, fast_pt, slow_pt) in results.items():
        # (a) exactness: the fast path is an engine optimisation, not
        # a model change — per-iteration simulated times are identical.
        assert fast_pt.iterations == slow_pt.iterations, \
            f"N={nodes}: fast path changed simulated time"
        # (b) speed: strictly faster, with headroom for runner noise.
        assert slow_wall / fast_wall >= 1.15, \
            f"N={nodes}: fast path only {slow_wall / fast_wall:.2f}x"
