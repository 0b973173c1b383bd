"""A14 — Host-telemetry perf gate: ≤ 5% wall overhead, bit-exact.

Host telemetry (``repro.obs.host``) only earns its place if turning it
on is close to free and turning it off is invisible.  This experiment
pins both on the A10 grid (Fig. 2's allgather sweep over the paper
lineup) run on the default engine:

* **overhead gate** — the sweep runs with telemetry disabled and
  inside ``host.tracing()``, rounds interleaved off/on so machine
  drift lands on both sides equally; min-of-``ROUNDS`` enabled wall
  must stay within ``MAX_OVERHEAD`` of the disabled wall;
* **bit-exact** — both runs must produce byte-identical BenchRecord
  grids: tracing observes the simulator, it never perturbs it;
* **trace validity** — the captured host trace must pass
  ``validate_chrome_trace``, the same schema checker CI runs on
  sim-time Perfetto exports, and carry one ``bench.cell`` span per
  cell.

Scale: ``REPRO_BENCH_SCALE=small`` drops to 16 × 6 so the experiment
smoke-runs anywhere; CI's perf-gate job runs it at the paper's
128 × 18.  Results land in ``benchmarks/results/
a14_telemetry_overhead.json`` plus the records and the validated host
trace (``a14_host_trace.json``).
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.bench import run_sweep
from repro.machine import broadwell_opa
from repro.obs import host
from repro.obs.host import HostReport
from repro.obs.perfetto import validate_chrome_trace

from conftest import RESULTS_DIR, bench_scale, save_result, save_records

#: Fig. 2's x-axis (per-process bytes)
SIZES = [16, 32, 64, 128, 256, 512]

#: fractional wall overhead the enabled run must stay within
#: (override with REPRO_A14_MAX_OVERHEAD)
MAX_OVERHEAD = float(os.environ.get("REPRO_A14_MAX_OVERHEAD", "0.05"))

#: walls are min-of-ROUNDS, rounds interleaved off/on, to shed
#: scheduler noise (the true per-event cost is microseconds)
ROUNDS = int(os.environ.get("REPRO_A14_ROUNDS", "3"))

COLLECTIVE = "allgather"


def _params():
    if bench_scale() == "small":
        return broadwell_opa(nodes=16, ppn=6)
    return broadwell_opa()  # the paper's 128 x 18 = 2304 ranks


def _grid_records(sweep):
    return {f"{lib}/{n}": json.dumps(p.to_record().as_dict(),
                                     sort_keys=True)
            for (lib, n), p in sweep.points.items()}


def _timed_sweep(params):
    t0 = time.perf_counter()
    sweep = run_sweep(COLLECTIVE, SIZES, params)
    return sweep, time.perf_counter() - t0


@pytest.mark.benchmark(group="a14")
def test_a14_telemetry_overhead(benchmark):
    params = _params()

    def _measure():
        # Interleave off/on rounds: slow drift (thermal, co-tenants)
        # then biases both minima the same way instead of whichever
        # side happened to run second.
        off = (float("inf"), None)
        on = (float("inf"), None, None)
        for _ in range(ROUNDS):
            assert host.active() is None  # disabled is the default
            s, wall = _timed_sweep(params)
            if wall < off[0]:
                off = (wall, s)
            with host.tracing() as t:
                s, wall = _timed_sweep(params)
            if wall < on[0]:
                on = (wall, s, t)
        assert host.active() is None  # scope restored
        return off, on

    (off_s, sweep_off), (on_s, sweep_on, tracer) = \
        benchmark.pedantic(_measure, rounds=1, iterations=1)

    # -- bit-exact: tracing observes, never perturbs -------------------
    records = _grid_records(sweep_on)
    assert records == _grid_records(sweep_off)
    cells = len(records)

    # -- overhead gate -------------------------------------------------
    overhead = on_s / off_s - 1.0
    assert overhead <= MAX_OVERHEAD, (
        f"host telemetry costs {overhead:+.1%} wall "
        f"({on_s:.2f}s vs {off_s:.2f}s; gate: <= {MAX_OVERHEAD:.0%})")

    # -- the trace is real and valid -----------------------------------
    report = HostReport(tracer)
    trace = report.to_perfetto()
    n_events = validate_chrome_trace(trace)
    assert report.bench_summary()["cells"] == cells

    # -- artifacts ------------------------------------------------------
    out = {
        "scale": bench_scale(),
        "nodes": params.nodes,
        "ppn": params.ppn,
        "cells": cells,
        "disabled_s": off_s,
        "enabled_s": on_s,
        "overhead": overhead,
        "max_overhead": MAX_OVERHEAD,
        "rounds": ROUNDS,
        "bit_exact": True,
        "trace_events": n_events,
        "host": report.as_dict(),
    }
    lines = [f"A14 telemetry overhead: {COLLECTIVE} Fig.2 sweep, "
             f"{params.nodes}x{params.ppn}, {cells} cells",
             f"  disabled  {off_s:8.2f}s  (min of {ROUNDS})",
             f"  enabled   {on_s:8.2f}s  (min of {ROUNDS}, bit-exact)",
             f"  overhead  {overhead:+8.1%}  (gate: <= {MAX_OVERHEAD:.0%})",
             f"  trace     {n_events} events, schema-valid"]
    save_result("a14_telemetry_overhead", "\n".join(lines))
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "a14_telemetry_overhead.json").write_text(
        json.dumps(out, indent=2, sort_keys=True) + "\n")
    (RESULTS_DIR / "a14_host_trace.json").write_text(
        json.dumps(trace, sort_keys=True) + "\n")
    save_records("a14_telemetry_overhead", [
        point.to_record(run="a14_telemetry_overhead", scale=bench_scale(),
                        source="telemetry-enabled")
        for point in sweep_on.points.values()
    ])
