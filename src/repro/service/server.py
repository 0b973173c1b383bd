"""Line-oriented sweep service: ``python -m repro serve``.

A deliberately transport-agnostic front end: requests are JSON
objects, one per line, on stdin (or a file); responses are JSON
objects, one per line, on stdout; progress streams to stderr.  That
makes the service scriptable (``echo '{...}' | python -m repro
serve --cache dir``), pipeable into any real transport later, and —
because every response is built from cache-validated BenchRecords —
byte-reproducible across invocations.

Request schema (one object per line; unknown fields rejected)::

    {"id": <any>,                     # echoed back, optional
     "collective": "allgather",       # required
     "sizes": [16, 64],               # required, per-process bytes
     "libraries": ["MPICH", ...],     # default: the paper lineup
     "preset": "broadwell_opa",       # default shown
     "nodes": 16, "ppn": 6,           # default shown
     "warmup": 1, "iters": 3,         # default shown
     "engine": "reference"}           # default: calendar

Response line::

    {"id": ..., "schema": 1, "ok": true,
     "records": [ {BenchRecord}, ... ],     # request order
     "cache": {"hits": h, "misses": m, "writes": w, ...}}

Failures are data: a malformed request yields ``{"id": ..., "ok":
false, "error": "..."}`` and the loop continues — one bad line must
not take down a shared service.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Optional, TextIO

from ..machine import available_presets, preset
from ..mpilibs import COLLECTIVES, PAPER_LINEUP
from ..obs.host import jsonl_event_writer
from .cache import ResultCache, as_cache
from .queue import SweepJobQueue, SweepRequest

#: bump on any incompatible response-shape change
RESPONSE_SCHEMA = 1

_ALLOWED = {"id", "collective", "sizes", "libraries", "preset",
            "nodes", "ppn", "warmup", "iters", "engine"}


class RequestError(ValueError):
    """A request line the service cannot honour."""


def parse_request(obj: Any) -> Dict[str, Any]:
    """Validate one request object; returns normalised fields."""
    if not isinstance(obj, dict):
        raise RequestError(f"request must be an object, got "
                           f"{type(obj).__name__}")
    unknown = set(obj) - _ALLOWED
    if unknown:
        raise RequestError(f"unknown request fields {sorted(unknown)}")
    for name in ("collective", "sizes"):
        if name not in obj:
            raise RequestError(f"request missing required field {name!r}")
    if obj["collective"] not in COLLECTIVES:
        raise RequestError(f"unknown collective {obj['collective']!r}; "
                           f"available: {', '.join(COLLECTIVES)}")
    sizes = obj["sizes"]
    if (not isinstance(sizes, list) or not sizes
            or not all(isinstance(s, int) and not isinstance(s, bool)
                       and s >= 0 for s in sizes)):
        raise RequestError("'sizes' must be a non-empty list of ints >= 0")
    preset_name = obj.get("preset", "broadwell_opa")
    if preset_name not in available_presets():
        raise RequestError(f"unknown preset {preset_name!r}; "
                           f"available: {available_presets()}")
    libraries = obj.get("libraries") or list(PAPER_LINEUP)
    if not isinstance(libraries, list) or not all(
            isinstance(name, str) for name in libraries):
        raise RequestError("'libraries' must be a list of spec strings")
    return {
        "id": obj.get("id"),
        "collective": obj["collective"],
        "sizes": list(sizes),
        "libraries": libraries,
        "preset": preset_name,
        "nodes": int(obj.get("nodes", 16)),
        "ppn": int(obj.get("ppn", 6)),
        "warmup": int(obj.get("warmup", 1)),
        "iters": int(obj.get("iters", 3)),
        "engine": obj.get("engine"),
    }


def handle_request(obj: Any, cache: Optional[ResultCache],
                   workers: int = 1,
                   on_event=None) -> Dict[str, Any]:
    """One request → one response dict (never raises on bad input)."""
    req_id = obj.get("id") if isinstance(obj, dict) else None
    try:
        req = parse_request(obj)
        params = preset(req["preset"], nodes=req["nodes"], ppn=req["ppn"]) \
            if req["preset"] != "single_node" \
            else preset(req["preset"], ppn=req["ppn"])
        cells = [
            SweepRequest(library=lib, collective=req["collective"],
                         nbytes=nbytes, params=params,
                         warmup=req["warmup"], iters=req["iters"],
                         engine=req["engine"])
            for lib in req["libraries"] for nbytes in req["sizes"]
        ]
        queue = SweepJobQueue(cache=cache, workers=workers,
                              on_event=on_event)
        points = queue.run(cells)
        records = [p.to_record().as_dict() for p in points]
        response: Dict[str, Any] = {
            "id": req["id"],
            "schema": RESPONSE_SCHEMA,
            "ok": True,
            "records": records,
            "queue": queue.stats.describe(),
        }
        if cache is not None:
            response["cache"] = cache.stats.as_dict()
        return response
    except Exception as exc:  # noqa: BLE001 - failures are data here
        return {"id": req_id, "schema": RESPONSE_SCHEMA, "ok": False,
                "error": f"{type(exc).__name__}: {exc}"}


def serve(in_stream: TextIO, out_stream: TextIO,
          cache: Optional[ResultCache] = None, workers: int = 1,
          err_stream: Optional[TextIO] = None,
          events: bool = False) -> int:
    """Serve JSONL requests until EOF; returns a process exit code.

    Exit code 0 when every request succeeded, 1 when any failed —
    either way the loop drains the whole stream.

    ``events=True`` interleaves the queue's per-cell lifecycle events
    (hit/dedup/miss/start/done) into ``out_stream`` as JSONL progress
    lines — ``{"event": "progress", "id": <request id>, "phase": ...}``
    — ahead of each request's ``{"event": "response", ...}`` line, so
    a streaming client watches cells resolve live.  Off by default:
    the plain protocol stays one response line per request.
    """
    cache = as_cache(cache)
    failures = 0

    def printer(event: Dict[str, Any]) -> None:
        print(f"[serve] {event['phase']:5s} "
              f"{event['index'] + 1}/{event['total']} {event['cell']}",
              file=err_stream, flush=True)

    for line in in_stream:
        line = line.strip()
        if not line:
            continue
        try:
            obj: Any = json.loads(line)
        except ValueError as exc:
            obj = None
            response = {"id": None, "schema": RESPONSE_SCHEMA, "ok": False,
                        "error": f"bad JSON: {exc}"}
        else:
            callbacks = []
            if events:
                req_id = obj.get("id") if isinstance(obj, dict) else None
                callbacks.append(jsonl_event_writer(out_stream, id=req_id))
            if err_stream is not None:
                callbacks.append(printer)
            on_event = ((lambda e: [cb(e) for cb in callbacks])
                        if callbacks else None)
            response = handle_request(obj, cache, workers=workers,
                                      on_event=on_event)
        if not response["ok"]:
            failures += 1
        if events:
            response = {"event": "response", **response}
        print(json.dumps(response, sort_keys=True), file=out_stream,
              flush=True)
    if err_stream is not None and cache is not None:
        print(f"[serve] cache: {cache.stats.describe()}", file=err_stream)
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover
    """Standalone entry (the CLI's ``serve`` command wraps this)."""
    import argparse

    parser = argparse.ArgumentParser(prog="repro-serve")
    parser.add_argument("--cache", default=None)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--requests", default="-")
    args = parser.parse_args(argv)
    cache = ResultCache(args.cache) if args.cache else None
    if args.requests == "-":
        return serve(sys.stdin, sys.stdout, cache, args.workers,
                     err_stream=sys.stderr)
    with open(args.requests) as fh:
        return serve(fh, sys.stdout, cache, args.workers,
                     err_stream=sys.stderr)
