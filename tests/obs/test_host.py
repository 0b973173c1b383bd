"""repro.obs.host — fork-safe wall-clock telemetry.

The contracts under test:

* off by default, activation is scoped, and the disabled path is
  invisible (``host.active() is None``);
* per-event detail caps without losing aggregate exactness;
* **fork safety** — events emitted in forked workers arrive in the
  parent exactly once, merged in wall-timestamp order, through both
  raw drain/absorb and the real sweep-queue worker protocol;
* the exports hold their schemas: the Perfetto host trace passes the
  same ``validate_chrome_trace`` checker CI runs on sim traces, and
  the metrics snapshot and summary dict are JSON-safe.
"""

import json
import os
from multiprocessing import Pipe

import pytest

from repro.bench import bench_collective, run_sweep
from repro.machine import broadwell_opa, small_test
from repro.obs import host
from repro.obs.host import HostReport, HostTracer, jsonl_event_writer
from repro.obs.perfetto import validate_chrome_trace
from repro.service import ResultCache, SweepJobQueue, SweepRequest


# -- tracer basics ------------------------------------------------------

def test_off_by_default_and_scoped():
    assert host.active() is None
    with host.tracing() as tracer:
        assert host.active() is tracer
        with host.tracing() as inner:
            assert host.active() is inner
        assert host.active() is tracer  # nesting restores
    assert host.active() is None


def test_span_and_counter_aggregation():
    tracer = HostTracer()
    tracer.span_at("op", 1.0, 3.0, track="t")
    tracer.span_at("op", 5.0, 6.0, track="t")
    tracer.count("hits_total", 2, kind="a")
    tracer.count("hits_total", kind="a")
    (count, total, peak) = tracer.aggregates()[("op", "t")]
    assert (count, total, peak) == (2, 3.0, 2.0)
    assert tracer.counters()[("hits_total", (("kind", "a"),))] == 3.0


def test_event_cap_keeps_aggregates_exact():
    tracer = HostTracer(max_events=10)
    for i in range(25):
        tracer.span_at("op", float(i), float(i) + 1.0)
    assert len(tracer.events()) == 10
    assert tracer.dropped == 15
    count, total, _peak = tracer.aggregates()[("op", "main")]
    assert count == 25 and total == 25.0  # exact despite the cap
    report = HostReport(tracer)
    assert "dropped" in report.format()


def test_events_merge_in_timestamp_order():
    tracer = HostTracer()
    tracer.span_at("late", 5.0, 6.0)
    tracer.span_at("early", 1.0, 2.0)
    tracer.instant("mid")  # real clock, far later than the pinned spans
    names = [e[1] for e in tracer.events()]
    assert names[:2] == ["early", "late"]


# -- fork safety --------------------------------------------------------

def test_fork_drain_absorb_exactly_once():
    tracer = HostTracer()
    tracer.span_at("parent.before", 1.0, 2.0)
    parent_conn, child_conn = Pipe()
    pid = os.fork()
    if pid == 0:
        code = 0
        try:
            # The inherited buffer must reset in the child: drain ships
            # ONLY child-emitted events, never a copy of the parent's.
            tracer.span_at("child.work", 3.0, 4.0)
            child_conn.send(tracer.drain())
            child_conn.send(tracer.drain()["events"])  # second drain: empty
        except BaseException:
            code = 1
        finally:
            os._exit(code)
    payload = parent_conn.recv()
    second = parent_conn.recv()
    _pid, status = os.waitpid(pid, 0)
    assert status == 0
    assert [e[1] for e in payload["events"]] == ["child.work"]
    assert second == []  # drained buffers don't re-ship
    tracer.absorb(payload)
    names = [e[1] for e in tracer.events()]
    assert names == ["parent.before", "child.work"]  # once, in ts order
    pids = {e[6] for e in tracer.events()}
    assert len(pids) == 2  # provenance survives the merge
    count, total, _ = tracer.aggregates()[("child.work", "main")]
    assert (count, total) == (1, 1.0)


def test_absorb_respects_cap():
    tracer = HostTracer(max_events=2)
    tracer.span_at("a", 0.0, 1.0)
    donor = HostTracer()
    donor.span_at("b", 1.0, 2.0)
    donor.span_at("c", 2.0, 3.0)
    tracer.absorb(donor.drain())
    assert len(tracer.events()) == 2
    assert tracer.dropped == 1
    assert len(tracer.aggregates()) == 3  # aggregates never capped


# -- service instrumentation -------------------------------------------

def _cells(params, sizes=(16, 64)):
    return [SweepRequest(library=lib, collective="allgather",
                         nbytes=nbytes, params=params)
            for lib in ("MPICH", "PiP-MColl") for nbytes in sizes]


def test_cache_outcome_spans(tmp_path):
    params = broadwell_opa(nodes=2, ppn=2)
    cache = ResultCache(tmp_path / "c")
    with host.tracing() as tracer:
        SweepJobQueue(cache=cache).run(_cells(params))   # cold: misses
        SweepJobQueue(cache=cache).run(_cells(params))   # warm: hits
        victim = next(iter(cache.keys()))
        path = cache.path_for(victim)
        path.write_text(path.read_text()[:40])           # torn entry
        SweepJobQueue(cache=cache).run(_cells(params))   # heals
    by_outcome = HostReport(tracer).cache_summary()["ops"]
    assert by_outcome["miss"] == 4
    assert by_outcome["corrupt"] == 1
    assert by_outcome["hit"] == 4 + 3
    assert by_outcome["write"] == 4 + 1
    ratio = HostReport(tracer).cache_summary()["hit_ratio"]
    assert ratio == pytest.approx(7 / 12)


def test_queue_lifecycle_counters(tmp_path):
    params = broadwell_opa(nodes=2, ppn=2)
    cache = ResultCache(tmp_path / "c")
    reqs = _cells(params) + _cells(params)  # second half dedups
    with host.tracing() as tracer:
        SweepJobQueue(cache=cache).run(reqs)
    phases = HostReport(tracer).queue_summary()
    assert phases["miss"] == 4
    assert phases["dedup"] == 4
    assert phases["start"] == 4 and phases["done"] == 4


def test_queue_forked_workers_cell_spans_exactly_once(tmp_path):
    params = broadwell_opa(nodes=2, ppn=2)
    with host.tracing() as tracer:
        queue = SweepJobQueue(cache=ResultCache(tmp_path / "c"), workers=2)
        points = queue.run(_cells(params))
    assert len(points) == 4 and queue.stats.computed == 4
    count, total, _ = tracer.aggregates()[("cell.run", "queue")]
    assert count == 4  # one span per executed cell, shipped home once
    assert total > 0.0
    # bench.cell spans from inside the forked workers came home too.
    assert tracer.aggregates()[("bench.cell", "bench")][0] == 4
    assert HostReport(tracer).queue_summary()["done"] == 4


# -- reports and exports -----------------------------------------------

def test_perfetto_export_validates_and_tracks(tmp_path):
    with host.tracing() as tracer:
        SweepJobQueue(cache=ResultCache(tmp_path / "c"), workers=2).run(
            _cells(small_test()))
    obj = HostReport(tracer).to_perfetto()
    assert validate_chrome_trace(obj) == len(obj["traceEvents"])
    names = {e["args"]["name"] for e in obj["traceEvents"]
             if e["ph"] == "M" and e["name"] == "process_name"}
    assert "host" in names
    assert any(n.startswith("forked worker") for n in names)
    threads = {e["args"]["name"] for e in obj["traceEvents"]
               if e["ph"] == "M" and e["name"] == "thread_name"}
    assert {"queue", "bench"} <= threads
    assert all(e.get("ts", 0) >= 0 for e in obj["traceEvents"])


def test_metrics_snapshot_json_safe():
    with host.tracing() as tracer:
        bench_collective("MPICH", "allgather", 16,
                         broadwell_opa(nodes=2, ppn=2))
    snap = HostReport(tracer).metrics().snapshot()
    json.dumps(snap)  # must be serialisable as-is
    assert any(k.startswith("host_span_count") and "bench.cell" in k
               for k in snap["counters"])


def test_report_format_and_dict_round_trip(tmp_path):
    params = broadwell_opa(nodes=2, ppn=2)
    with host.tracing() as tracer:
        run_sweep("allgather", [16], params, libraries=["MPICH"],
                  cache=ResultCache(tmp_path / "c"))
    report = HostReport(tracer)
    text = report.format()
    assert "cache:" in text and "queue:" in text and "bench:" in text
    d = json.loads(json.dumps(report.as_dict()))
    assert d["schema"] == HostReport.SCHEMA
    assert d["bench"]["cells"] == 1
    assert d["cache"]["ops"]["write"] == 1


def test_jsonl_event_writer(capsys):
    import sys

    write = jsonl_event_writer(sys.stdout, id="r9")
    write({"phase": "done", "index": 0, "total": 1, "cell": "x"})
    line = json.loads(capsys.readouterr().out)
    assert line == {"event": "progress", "id": "r9", "phase": "done",
                    "index": 0, "total": 1, "cell": "x"}


def test_to_jsonl_offline_stream():
    tracer = HostTracer()
    tracer.span_at("op", 1.0, 2.0, track="t")
    tracer.instant("mark", track="t")
    lines = [json.loads(l) for l in
             HostReport(tracer).to_jsonl().splitlines()]
    assert [l["event"] for l in lines] == ["span", "instant"]
    assert lines[0]["name"] == "op" and lines[0]["track"] == "t"


def test_tuner_candidate_spans():
    from repro.tuner import make_cells, search

    cells = make_cells("allgather", [16], 2, 2, preset="small_test")
    with host.tracing() as tracer:
        search(cells, strategy="exhaustive", seed=0)
    tuner = HostReport(tracer).tuner_summary()
    assert tuner["candidates"] > 0  # inline path: one span per candidate
    assert tuner["candidate_wall_s"] > 0.0
