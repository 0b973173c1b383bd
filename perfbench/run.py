"""The repository benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload fig2_allgather --seed 1 --seconds 30 --trace 0

Run from the repository root; the simulator is imported from ``src/``.
One process, one thread issuing ops in a closed loop (one client).  A
run repeats *passes* — every cell of the workload once, in an order the
seed permutes — until ``--seconds`` is spent and enough ops were timed
to rest a p90 on ten samples.  A full garbage collection runs between
ops, outside the op timer but inside the pass wall.  Every op's output
is checked; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` is the
traced run: one plain pass, one pass with the layer instruments and one
profiled pass, reporting the per-layer metrics (README.md lists them).

Other modes:

* ``--steadiness`` repeats each workload in fresh processes and reports
  median, quartiles and quartile spread of every end-to-end metric
  against its bound in BENCHMARK.json, for two sets of runs, and
  whether the two sets agree within the bounds;
* ``--regen-expected`` rewrites ``expected.json`` from the current code.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path[:0] = [str(REPO / "src"), str(HERE)]

from hostspeed import SpeedMeter  # noqa: E402
from stats import (Tally, nearest_rank, pass_orders, spread,  # noqa: E402
                   tail_ready)

#: child processes that each repeat the set-up, for a median
SETUP_CHILDREN = 4
#: host probes per pass, at least
PASS_PROBES = 15
#: the tail percentile reported as op_p90_ms
TAIL_Q = 0.9


def warm_start(name: str):
    """Imports plus one untimed warm-up op: the set-up a user pays."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    workload.warmup()
    return workload


def setup_seconds(name: str, own: float) -> float:
    """Median set-up time over this process and :data:`SETUP_CHILDREN`
    fresh ones.  Not scaled by host speed: imports read files, which
    the probe does not model, and scaling made it noisier."""
    samples = [own]
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-child",
             name], cwd=REPO, capture_output=True, text=True, timeout=150,
            check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


class PassResult:
    """The ops, wall and per-cell results of one pass.

    ``wall`` sums the ops and the collections between them; the host
    probes taken between cells are not part of it.  ``scale`` converts
    this pass's host seconds to reference seconds (1.0 when unprobed).
    """

    def __init__(self) -> None:
        self.ops: List[tuple] = []
        self.cells: Dict[str, object] = {}
        self.wall = 0.0
        self.scale = 1.0


def run_pass(workload, order, tally: Tally, instruments=None,
             probe: bool = False) -> PassResult:
    """Every cell once in ``order``; failures are counted, not raised."""
    out = PassResult()
    meter = SpeedMeter()
    # enough probes that each pass's median rests on >= PASS_PROBES
    per_cell = -(-PASS_PROBES // len(order)) if probe else 0
    for key in order:
        for _ in range(per_cell):
            meter.sample()
        t0 = time.perf_counter()
        if instruments is not None:
            instruments.collect_between_ops()
        else:
            gc.collect()
        try:
            result = workload.run_cell(key)
        except Exception as exc:  # a crashed cell is a failed op
            tally.record(1, False, f"{key}: {exc!r}")
            continue
        finally:
            out.wall += time.perf_counter() - t0
        tally.record(max(len(result.ops), 1), not result.problems,
                     "; ".join(result.problems))
        out.ops.extend(result.ops)
        out.cells[key] = result
    if meter.samples:
        out.scale = meter.scale()
    return out


def measure(workload, seed: int, seconds: float,
            tally: Tally) -> List[PassResult]:
    """Probed passes until ``seconds`` are spent and the p90 has its
    tail."""
    passes: List[PassResult] = []
    t_begin = time.perf_counter()
    n_ops = 0
    for order in pass_orders(workload.cells, seed):
        t_pass = time.perf_counter()
        passes.append(run_pass(workload, order, tally, probe=True))
        n_ops += len(passes[-1].ops)
        if not passes[-1].ops:  # nothing ran: do not loop forever
            return passes
        left = seconds - (time.perf_counter() - t_begin)
        if tail_ready(n_ops, TAIL_Q) and left < time.perf_counter() - t_pass:
            return passes


def end_to_end(passes: List[PassResult], setup_s: float) -> Dict[str, dict]:
    """The end-to-end metrics; host times at the reference speed."""
    ops = [dt * p.scale for p in passes for _, dt in p.ops]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "wall_s": {"value": statistics.median(p.wall * p.scale
                                              for p in passes), "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_p50_ms": {"value": statistics.median(ops) * 1e3, "unit": "ms"},
        "op_p90_ms": {"value": nearest_rank(ops, TAIL_Q)[0] * 1e3,
                      "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MiB"},
    }


def per_layer(workload, plain: PassResult, wrapped: PassResult,
              profiled: PassResult, inst, prof) -> Dict[str, dict]:
    """The traced run's metrics: counters from the plain pass, host
    times from the instrumented pass, shares from the profiled pass."""
    from layers import LAYERS
    from shim_apps import TIMED_CALLS

    def total(key):
        return sum(r.counters.get(key, 0) for r in plain.cells.values())

    events, msgs = total("sim_events"), total("inject_msgs")
    rank_iters = sum(r.counters["ranks"] * r.counters["iterations"]
                     for r in plain.cells.values())
    world_run_s = inst.seconds["runtime.world_run_s"]
    m = {
        "sim.events": (events, "count"),
        "runtime.nic_msgs": (msgs, "count"),
        "runtime.nic_bytes": (total("inject_bytes"), "B"),
        "sim.events_per_msg": (events / msgs if msgs else 0.0, "1"),
        "sim.events_per_rank": (events / rank_iters, "1"),
        "transport.tx_busy_s": (total("tx_busy_s"), "s"),
        "machine.membus_busy_s": (total("membus_busy_s"), "s"),
        "runtime.world_run_s": (world_run_s, "s"),
        "sim.host_us_per_event": (world_run_s / events * 1e6, "us"),
        "bench.make_world_s": (inst.seconds["bench.make_world_s"], "s"),
        "runtime.quiesce_s": (inst.seconds["runtime.quiesce_s"], "s"),
        "obs.spans": (total("spans"), "count"),
        "obs.finalize_s": (inst.seconds["obs.finalize_s"], "s"),
        "shim.calls": (len(wrapped.ops) if workload.name == "shim_apps"
                       else 0, "count"),
        "py.gc_pause_s": (inst.gc_pause_s, "s"),
        "py.gc_collections": (inst.gc_collections, "count"),
        "py.gc_between_ops_s": (inst.gc_between_ops_s, "s"),
        "trace.overhead": (wrapped.wall / plain.wall, "x"),
        "profile.overhead": (profiled.wall / plain.wall, "x"),
    }
    for call in sorted(TIMED_CALLS):
        times = [dt for name, dt in wrapped.ops if name == call]
        label = call if call[0].isupper() else f"pickle_{call}"
        m[f"shim.{label}_p50_ms"] = (
            statistics.median(times) * 1e3 if times else 0.0, "ms")
    shares = prof.shares()
    for layer in LAYERS + ("repro_other", "app", "other"):
        m[f"{layer}.self_share"] = (shares.get(layer, 0.0), "1")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def traced(workload, seed: int, tally: Tally, problems: List[str]):
    """The three traced passes; returns (metrics, plain pass cells)."""
    from layers import Instruments

    orders = pass_orders(workload.cells, seed)
    plain = run_pass(workload, next(orders), tally)
    with Instruments() as inst:
        wrapped = run_pass(workload, next(orders), tally, inst)
    with Instruments(profile=True) as prof:
        profiled = run_pass(workload, next(orders), tally, prof)
    for key, base in plain.cells.items():
        for other in (wrapped, profiled):
            got = other.cells.get(key)
            if got is not None and got.counters != base.counters:
                problems.append(f"{key}: counters differ between the "
                                "plain and the traced passes")
    return (per_layer(workload, plain, wrapped, profiled, inst, prof),
            plain.cells)


def run_workload(args) -> int:
    from workloads import WORKLOADS, cross_check

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = warm_start(args.workload)
    own_setup = time.perf_counter() - T_START
    tally, problems = Tally(), cross_check(workload.expected)
    if args.trace:
        metrics, last = traced(workload, args.seed, tally, problems)
    else:
        setup_s = setup_seconds(args.workload, own_setup)
        passes = measure(workload, args.seed, args.seconds, tally)
        metrics = end_to_end(passes, setup_s)
        last = passes[-1].cells
        n_ops = sum(len(p.ops) for p in passes)
        raw = statistics.median(dt for p in passes for _, dt in p.ops)
        print(f"{workload.name}: {len(passes)} passes, {n_ops} ops timed; "
              f"host speed scale {statistics.median(p.scale for p in passes):.3f}"
              f" (unscaled op p50 {raw * 1e3:.1f} ms)")
    if len(last) == len(workload.cells):
        for line in workload.summary(last):
            print(line)
    for problem in problems + tally.reasons:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({"correct": tally.correct and not problems,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


def setup_child(name: str) -> int:
    warm_start(name)
    print(time.perf_counter() - T_START)
    return 0


def regen_expected() -> int:
    from workloads import (EXPECTED_PATH, ITERS, WARMUP, WORKLOADS,
                           jsonable, cross_check)

    cells = {}
    for name, cls in WORKLOADS.items():
        workload = cls()
        workload.warmup()
        for key in workload.cells:
            result = workload.execute(key)
            if result.problems:
                print("\n".join(result.problems), file=sys.stderr)
                return 1
            cells[key] = {"workload": name, "counters": result.counters}
            if result.output is not None:
                cells[key]["output"] = jsonable(result.output)
    problems = cross_check(cells)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    EXPECTED_PATH.write_text(json.dumps(
        {"generated_by": "python3 perfbench/run.py --regen-expected",
         "bench_collective": {"warmup": WARMUP, "iters": ITERS},
         "cells": cells}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(cells)} cells to {EXPECTED_PATH.name}")
    return 0


def _one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], cwd=REPO, capture_output=True, text=True,
        timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def steadiness(args) -> int:
    """Two sets of runs per workload: spread within a third of each
    bound (setup_s exempt), and set medians agreeing within the bound."""
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    names = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in spec["workloads"]]
    ok = True
    report = {}
    for name in names:
        sets = []
        for s in range(args.sets):
            runs = [_one_run(name, s * args.runs + i + 1, seconds)
                    for i in range(args.runs)]
            if not all(r["correct"] and r["failed"] == 0 for r in runs):
                print(f"{name}: set {s + 1} has incorrect runs")
                ok = False
            values = {k: [r["metrics"][k]["value"] for r in runs]
                      for k in bounds}
            sets.append({k: dict(spread(v), values=v)
                         for k, v in values.items()})
        report[name] = sets
        for metric, b in bounds.items():
            row = [f"{name:15s} {metric:12s} bound {b['bound']:.2f}"]
            for st in (one[metric] for one in sets):
                exempt = metric == "setup_s"
                flag = "" if exempt or st["spread"] <= b["bound"] / 3 \
                    else " (!)"
                ok &= exempt or st["spread"] <= b["bound"]
                row.append(f"med {st['median']:.4g} q1 {st['q1']:.4g} "
                           f"q3 {st['q3']:.4g} spread {st['spread']:.3f}"
                           f"{flag}")
            if len(sets) > 1:
                first = sets[0][metric]["median"]
                worse = (sets[-1][metric]["median"] - first) / first
                if b["better"] == "higher":
                    worse = -worse
                ok &= worse <= b["bound"]
                row.append(f"set2 vs set1 {worse:+.3f}")
            print(" | ".join(row), flush=True)
    print(json.dumps({"ok": ok, "report": report}))
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", metavar="WORKLOAD",
                        help=argparse.SUPPRESS)
    parser.add_argument("--regen-expected", action="store_true")
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", help="comma list (steadiness)")
    args = parser.parse_args(argv)
    if args.setup_child:
        return setup_child(args.setup_child)
    if args.regen_expected:
        return regen_expected()
    if args.steadiness:
        return steadiness(args)
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
