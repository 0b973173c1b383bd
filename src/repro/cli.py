"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``bench``
    One (library, collective, size) latency point.
``sweep``
    A libraries × sizes grid with the paper-style table (and
    optionally the ASCII figure).  ``--cache``/``--workers`` route the
    grid through the sweep service: warm cells are file reads, cold
    cells batch across forked workers.
``serve``
    Line-oriented sweep service: JSON requests on stdin (or a file),
    BenchRecord responses on stdout, all measurements deduplicated
    through one content-addressed result cache (docs/SERVICE.md).
``figures``
    Regenerate Figure 1 and Figure 2 (optionally at reduced scale).
``info``
    List presets, libraries, transports and their cost structure.
``faults``
    Seeded chaos sweep: latency vs drop rate under reliable delivery,
    printed as a resilience report.
``ft``
    Crash-recovery benchmark under the fault-tolerant runtime:
    time-to-detect, time-to-recover, and post-shrink slowdown for a
    seeded crash plan, per library.
``trace``
    Run one collective under span tracing, export a Perfetto/Chrome
    trace JSON, and print the critical path plus derived metrics
    (``--resources`` adds per-facility counter tracks).
``report``
    Ingest ``benchmarks/results/*.records.json`` and write the
    Fig. 2–7-style comparison report (CSV + JSON + self-contained
    HTML) plus the repo-root ``BENCH_summary.json``.
``shim run``
    Execute an *unmodified* mpi4py script on simulated ranks
    (``mpi4py`` is aliased to :mod:`repro.shim` for the run) against
    any modeled library/machine/engine; ``--trace`` exports the
    Perfetto timeline (docs/SHIM.md).
``telemetry``
    Run a sweep under *host* (wall-clock) tracing and summarize cache
    and queue efficiency and per-cell wall cost;
    ``--trace``/``--metrics``/``--json`` export a validated Perfetto
    host trace, a metrics snapshot, and the summary the
    report's host section ingests (docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .bench import bench_collective, format_paper_table, run_sweep, summarize_speedups
from .bench.plot import ascii_figure
from .machine import available_presets, preset
from .mpilibs import COLLECTIVES, PAPER_LINEUP, available_libraries, make_library
from .transport import available_transports, make_transport


def _parse_sizes(text: str) -> List[int]:
    sizes = []
    for part in text.split(","):
        part = part.strip().lower()
        factor = 1
        if part.endswith("k"):
            factor, part = 1024, part[:-1]
        sizes.append(int(part) * factor)
    if not sizes or any(s < 0 for s in sizes):
        raise argparse.ArgumentTypeError(f"bad size list {text!r}")
    return sizes


def _library_spec(text: str):
    """A --library value: built-in name, registered instance name, or
    ``tuned:<db>`` spec (validated at parse time, like choices=)."""
    from .mpilibs import validate_library_spec

    try:
        return validate_library_spec(text)
    except KeyError as err:
        raise argparse.ArgumentTypeError(str(err.args[0])) from None


def _engine_spec(text: str):
    """An --engine value: an engine name (validated at parse time; the
    downgrade rule applies at world build)."""
    from .sim.spec import resolve_engine

    try:
        resolve_engine(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None
    return text


def _machine(args) -> "object":
    return preset(args.preset, nodes=args.nodes, ppn=args.ppn)


def _add_machine_args(p: argparse.ArgumentParser, nodes: int, ppn: int) -> None:
    p.add_argument("--preset", default="broadwell_opa", choices=available_presets())
    p.add_argument("--nodes", type=int, default=nodes)
    p.add_argument("--ppn", type=int, default=ppn)


def cmd_bench(args) -> int:
    point = bench_collective(
        args.library, args.collective, args.size, _machine(args),
        warmup=args.warmup, iters=args.iters, engine=args.engine,
    )
    print(f"{point.library} {point.collective} {point.nbytes} B: "
          f"{point.latency_us:.2f} us "
          f"(min {point.min_us:.2f}, max {point.max_us:.2f}, "
          f"{len(point.iterations)} iters)")
    return 0


def cmd_sweep(args) -> int:
    libs = args.libraries.split(",") if args.libraries else list(PAPER_LINEUP)
    cache = None
    if args.cache:
        from .service import ResultCache

        cache = ResultCache(args.cache)
    progress = None
    if args.progress:
        # The same live JSONL stream `serve --events` interleaves:
        # {"event": "progress", "phase": ..., "cell": ...} per line.
        from .obs.host import jsonl_event_writer

        progress = jsonl_event_writer(sys.stderr)
    sweep = run_sweep(args.collective, args.sizes, _machine(args),
                      libraries=libs, warmup=args.warmup, iters=args.iters,
                      engine=args.engine, cache=cache, workers=args.workers,
                      progress=progress)
    print(format_paper_table(sweep, exclude_factor=None))
    print()
    if "PiP-MColl" in libs:
        print(summarize_speedups(sweep))
    if args.plot:
        print()
        print(ascii_figure(sweep, title=f"{args.collective} on {sweep.params_name}"))
    if cache is not None:
        print()
        ratio = cache.stats.hit_ratio
        print(f"cache {args.cache}: {cache.stats.describe()}"
              + (f" ({ratio:.0%} hit ratio)" if ratio is not None else ""))
    return 0


def cmd_serve(args) -> int:
    from .service import ResultCache, serve

    cache = ResultCache(args.cache) if args.cache else None
    err = sys.stderr if args.progress else None
    if args.requests == "-":
        return serve(sys.stdin, sys.stdout, cache, args.workers,
                     err_stream=err, events=args.events)
    with open(args.requests) as fh:
        return serve(fh, sys.stdout, cache, args.workers, err_stream=err,
                     events=args.events)


def cmd_figures(args) -> int:
    for name, collective, sizes in (
        ("Figure 1 (MPI_Scatter)", "scatter", [16, 32, 64, 128, 256, 512, 1024]),
        ("Figure 2 (MPI_Allgather)", "allgather", [16, 32, 64, 128, 256, 512]),
    ):
        sweep = run_sweep(collective, sizes, _machine(args), warmup=1, iters=1)
        print(f"=== {name} — {sweep.params_name} ===")
        print(format_paper_table(sweep, exclude_factor=4.0))
        print()
        print(ascii_figure(sweep, title=name))
        print()
        print(summarize_speedups(sweep))
        print()
    return 0


def cmd_profile(args) -> int:
    from .bench.breakdown import profile_collective

    for name in (args.libraries.split(",") if args.libraries
                 else ["MPICH", "PiP-MColl"]):
        profile = profile_collective(name, args.collective, args.size,
                                     _machine(args))
        print(profile.format())
        print()
    return 0


def cmd_tables(args) -> int:
    from .collectives.tuning import format_selection_tables

    for name in (args.libraries.split(",") if args.libraries
                 else available_libraries()):
        print(format_selection_tables(name, args.ranks))
        print()
    return 0


def _parse_rates(text: str) -> List[float]:
    try:
        rates = [float(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad drop-rate list {text!r}")
    if not rates or any(not 0.0 <= r <= 1.0 for r in rates):
        raise argparse.ArgumentTypeError("drop rates must be in [0, 1]")
    return rates


def cmd_faults(args) -> int:
    from .faults import chaos_sweep, resilience_report

    libs = args.libraries.split(",") if args.libraries else ["MPICH", "PiP-MColl"]
    points = chaos_sweep(
        args.collective, args.size, _machine(args),
        drop_rates=args.drop_rates, libraries=libs,
        seed=args.seed, iters=args.iters,
    )
    print(resilience_report(points))
    if any(not p.completed for p in points):
        print("\nsome points did not complete — the error names above "
              "(DeliveryFailedError etc.) are the diagnosis, not a crash")
    return 0


def _parse_ranks(text: str) -> List[int]:
    try:
        ranks = [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad rank list {text!r}")
    if not ranks or any(r < 0 for r in ranks):
        raise argparse.ArgumentTypeError("crash ranks must be >= 0")
    return ranks


def cmd_ft(args) -> int:
    from .ft.bench import HARNESS_COLLECTIVES, recovery_point, recovery_report

    params = _machine(args)
    size = params.nodes * params.ppn
    bad = [r for r in args.crash_ranks if r >= size]
    if bad:
        print(f"crash ranks {bad} outside the {size}-rank world",
              file=sys.stderr)
        return 2
    libs = args.libraries.split(",") if args.libraries else ["MPICH", "PiP-MColl"]
    points = [
        recovery_point(lib, args.collective, args.size, params,
                       crash_ranks=args.crash_ranks, crash_at=args.crash_at,
                       rounds=args.rounds, seed=args.seed)
        for lib in libs
    ]
    print(recovery_report(points))
    notes = {n for p in points for n in p.notes}
    for n in sorted(notes):
        print(f"note: {n}")
    return 0 if all(p.completed for p in points) else 1


def cmd_trace(args) -> int:
    from .api import Session
    from .bench.harness import _buffers, _invoke
    from .obs import validate_chrome_trace

    session = Session(library=args.library, params=_machine(args), trace=True,
                      resources=args.resources)
    lib = session._lib
    size = session.machine.nodes * session.machine.ppn
    algo = lib.wrapped(args.collective, args.size, size)

    def app(comm):
        ctx = comm.ctx
        bufs = _buffers(ctx, args.collective, args.size, size, 0)
        yield from _invoke(algo, ctx, bufs, args.collective, 0)
        return ctx.now

    result = session.run(app)
    result.write_perfetto(args.out)
    events = None
    if args.validate:
        events = validate_chrome_trace(result.to_perfetto())
    print(f"{args.library} {args.collective} {args.size} B on "
          f"{session.machine.nodes}x{session.machine.ppn} ranks: "
          f"{result.elapsed * 1e6:.2f} us simulated")
    suffix = f" ({events} events, schema OK)" if events is not None else ""
    print(f"wrote {args.out}{suffix} — load it at ui.perfetto.dev")
    print()
    print(result.critical_path(args.collective).describe())
    print()
    print(result.metrics.format())
    if result.resources is not None:
        inj = result.resources.injection_summary()
        occ = result.resources.occupancy_by_kind()
        print()
        print("resource occupancy: " + "  ".join(
            f"{kind}={val:.4f}" for kind, val in sorted(occ.items())))
        print(f"injection engines: {inj['active_ranks']} active "
              f"({inj['engine_utilization']:.0%}), aggregate occupancy "
              f"{inj['aggregate_occupancy']:.4f}, "
              f"{inj['total_msgs']} msgs / {inj['total_bytes']} B")
    return 0


def cmd_shim_run(args) -> int:
    """Run an unmodified mpi4py script on the simulated runtime."""
    from .obs import validate_chrome_trace
    from .shim import run_script

    kwargs = {}
    if args.preset:
        geo = {}
        if args.nodes is not None:
            geo["nodes"] = args.nodes
        if args.ppn is not None:
            geo["ppn"] = args.ppn
        kwargs["params"] = preset(args.preset, **geo)
    else:
        kwargs.update(nranks=args.nranks, nodes=args.nodes, ppn=args.ppn)
    script_args = args.script_args
    if script_args and script_args[0] == "--":
        script_args = script_args[1:]
    result = run_script(args.script, argv=tuple(script_args),
                        library=args.library, engine=args.engine,
                        trace=bool(args.trace) or not args.no_trace,
                        **kwargs)
    machine = result.world.params
    print(f"{args.script} on {machine.nodes}x{machine.ppn} simulated ranks "
          f"({result.library}, engine {result.engine.name}): "
          f"{result.elapsed * 1e6:.2f} us simulated")
    for note in result.engine.downgrades:
        print(f"engine: {note}")
    if args.trace:
        result.write_perfetto(args.trace)
        suffix = ""
        if args.validate:
            events = validate_chrome_trace(result.to_perfetto())
            suffix = f" ({events} events, schema OK)"
        print(f"wrote {args.trace}{suffix} — load it at ui.perfetto.dev")
    if result.metrics is not None and args.metrics:
        print()
        print(result.metrics.format())
    return 0


def cmd_report(args) -> int:
    import json
    from pathlib import Path

    from .report import build_report, render_html, write_summary

    golden = args.golden if args.golden and Path(args.golden).exists() else None
    report = build_report(args.results, golden=golden,
                          tolerance=args.tolerance)
    if not report.records:
        print(f"no *.records.json under {args.results} — run the "
              "benchmarks first (PYTHONPATH=src python -m pytest benchmarks)")
        return 1
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(
        json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n")
    for name, text in report.to_csv().items():
        (out / name).write_text(text)
    # A host-telemetry summary next to the records (written by
    # `repro telemetry --json`) becomes the wall-clock section.
    host_summary = None
    host_path = Path(args.results) / "host_telemetry.json"
    if host_path.is_file():
        try:
            host_summary = json.loads(host_path.read_text())
        except ValueError:
            host_summary = None
    (out / "report.html").write_text(render_html(report, host=host_summary))
    if args.summary:
        write_summary(args.summary, report)
    print(report.format())
    print()
    wrote = sorted(p.name for p in out.iterdir())
    print(f"wrote {out}/: {', '.join(wrote)}"
          + (f" and {args.summary}" if args.summary else ""))
    if args.strict and report.drifted:
        print(f"FAIL: {len(report.drifted)} benchmark(s) drifted beyond "
              f"±{report.tolerance:.0%} of golden")
        return 1
    return 0


def cmd_tune_search(args) -> int:
    from .tuner import format_db, make_cells, search

    cells = make_cells(args.collective, args.sizes, args.nodes, args.ppn,
                       preset=args.preset)
    eager = ([None] + args.eager_limits) if args.eager_limits else None
    db = search(
        cells,
        base_library=args.base,
        strategy=args.strategy,
        seed=args.seed,
        workers=args.workers,
        timeout_s=args.timeout,
        checkpoint=args.checkpoint,
        eager_choices=eager,
        cache=args.cache,
    )
    out = args.out or (
        f"tune_{args.collective}_{args.nodes}x{args.ppn}.tunedb.json")
    db.save(out)
    print(format_db(db))
    print(f"\nwrote {out}")
    return 0


def cmd_tune_show(args) -> int:
    from .tuner import format_db, load_db

    print(format_db(load_db(args.db)))
    return 0


def cmd_tune_diff(args) -> int:
    from .tuner import diff, format_diff, load_db

    entries = diff(load_db(args.old), load_db(args.new))
    print(format_diff(entries))
    return 1 if entries and args.strict else 0


def cmd_tune_merge(args) -> int:
    from .tuner import load_db, merge

    merged = load_db(args.dbs[0])
    for path in args.dbs[1:]:
        merged = merge(merged, load_db(path))
    merged.save(args.out)
    print(f"merged {len(args.dbs)} databases ({len(merged.cells)} cells) "
          f"into {args.out}")
    return 0


def cmd_tune_compile(args) -> int:
    from .collectives.tuning import compare_tables, format_compare_tables
    from .tuner import compile_db

    lib = compile_db(args.db)
    print(f"compiled {args.db} → {lib.profile.name} "
          f"(base {lib.base.profile.name}, {len(lib.coverage())} cells)")
    for key in lib.coverage():
        print(f"  {key}")
    if args.compare:
        world = args.ranks or max(
            r.nodes * r.ppn for r in lib.db.cells.values())
        print(f"\nflipped cells vs {lib.base.profile.name} "
              f"at {world} ranks:")
        print(format_compare_tables(
            compare_tables(lib.base, lib, world)))
    return 0


def cmd_telemetry(args) -> int:
    """Run a sweep under host tracing and summarize the wall clock."""
    import json
    from pathlib import Path

    from .obs import host
    from .obs.host import HostReport, jsonl_event_writer
    from .obs.perfetto import validate_chrome_trace, write_trace

    libs = args.libraries.split(",") if args.libraries else list(PAPER_LINEUP)
    cache = None
    if args.cache:
        from .service import ResultCache

        cache = ResultCache(args.cache)
    progress = jsonl_event_writer(sys.stderr) if args.progress else None
    with host.tracing() as tracer:
        run_sweep(args.collective, args.sizes, _machine(args),
                  libraries=libs, warmup=args.warmup, iters=args.iters,
                  engine=args.engine, cache=cache, workers=args.workers,
                  progress=progress)
    report = HostReport(tracer)
    print(report.format())
    wrote = []
    if args.trace:
        obj = report.to_perfetto()
        validate_chrome_trace(obj)
        write_trace(obj, args.trace)
        wrote.append(f"{args.trace} (validated Perfetto host trace)")
    if args.metrics:
        Path(args.metrics).write_text(json.dumps(
            report.metrics().snapshot(), indent=2, sort_keys=True) + "\n")
        wrote.append(f"{args.metrics} (metrics snapshot)")
    if args.json:
        Path(args.json).write_text(json.dumps(
            report.as_dict(), indent=2, sort_keys=True) + "\n")
        wrote.append(f"{args.json} (host telemetry summary)")
    for line in wrote:
        print(f"wrote {line}")
    return 0


def cmd_info(args) -> int:
    print("machine presets:")
    for name in available_presets():
        print(f"  {name}: {preset(name).describe()}")
    print("\nMPI library models:")
    for name in available_libraries():
        profile = make_library(name).profile
        print(f"  {profile.name:10s} intra={profile.intra:13s} "
              f"call={profile.call_overhead * 1e9:5.0f} ns  {profile.description}")
    print("\ntransports:")
    for name in available_transports():
        print(f"  {name:13s} {make_transport(name).describe()}")
    print(f"\ncollectives: {', '.join(COLLECTIVES)}")
    from .sim.spec import ENGINE_NAMES, resolve_engine

    print("\nengines (see docs/ENGINE.md for the downgrade rule):")
    for name in ENGINE_NAMES:
        spec = resolve_engine(name)
        print(f"  {name:10s} {spec.describe()}")
    if getattr(args, "cache", None):
        from .service import CACHE_LAYOUT_VERSION, ResultCache

        cache = ResultCache(args.cache)
        entries = list(cache.keys())
        nbytes = sum(cache.path_for(k).stat().st_size for k in entries)
        print(f"\nresult cache {args.cache}:")
        print(f"  layout   v{CACHE_LAYOUT_VERSION}")
        print(f"  entries  {len(entries)}")
        print(f"  size     {nbytes / 1024:.1f} KiB")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PiP-MColl reproduction (HPDC '23) — simulated MPI collectives",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bench", help="one latency point")
    p.add_argument("--library", default="PiP-MColl", type=_library_spec,
                   help=f"one of {available_libraries()} or 'tuned:<db>'")
    p.add_argument("--collective", default="allgather", choices=COLLECTIVES)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--warmup", type=int, default=1)
    p.add_argument("--iters", type=int, default=3)
    p.add_argument("--engine", type=_engine_spec, default=None,
                   help="simulation engine: calendar (default) or "
                        "reference")
    _add_machine_args(p, nodes=16, ppn=6)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("sweep", help="libraries × sizes grid")
    p.add_argument("--collective", default="allgather", choices=COLLECTIVES)
    p.add_argument("--sizes", type=_parse_sizes, default=[16, 64, 256])
    p.add_argument("--libraries", default="",
                   help="comma-separated (default: the paper lineup)")
    p.add_argument("--warmup", type=int, default=1)
    p.add_argument("--iters", type=int, default=2)
    p.add_argument("--plot", action="store_true", help="ASCII figure too")
    p.add_argument("--engine", type=_engine_spec, default=None,
                   help="simulation engine: calendar (default) or "
                        "reference")
    p.add_argument("--cache", default=None,
                   help="content-addressed result cache directory "
                        "(warm cells are file reads — see docs/SERVICE.md)")
    p.add_argument("--workers", type=int, default=1,
                   help="forked worker processes for cold cells")
    p.add_argument("--progress", action="store_true",
                   help="stream per-cell progress events to stderr")
    _add_machine_args(p, nodes=16, ppn=6)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser(
        "serve", help="JSONL sweep service over a shared result cache")
    p.add_argument("--cache", default=None,
                   help="result cache directory (omit to run uncached)")
    p.add_argument("--workers", type=int, default=1,
                   help="forked worker processes per request")
    p.add_argument("--requests", default="-",
                   help="request file, one JSON object per line ('-': stdin)")
    p.add_argument("--progress", action="store_true",
                   help="stream per-cell progress events to stderr")
    p.add_argument("--events", action="store_true",
                   help="interleave JSONL progress events into stdout "
                        "ahead of each response line (streaming clients)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "telemetry",
        help="host wall-clock telemetry for a sweep (docs/OBSERVABILITY.md)")
    p.add_argument("--collective", default="allgather", choices=COLLECTIVES)
    p.add_argument("--sizes", type=_parse_sizes, default=[16, 64, 256])
    p.add_argument("--libraries", default="",
                   help="comma-separated (default: the paper lineup)")
    p.add_argument("--warmup", type=int, default=1)
    p.add_argument("--iters", type=int, default=2)
    p.add_argument("--engine", type=_engine_spec, default=None,
                   help="simulation engine: calendar (default) or "
                        "reference")
    p.add_argument("--cache", default=None,
                   help="route the sweep through a result cache directory")
    p.add_argument("--workers", type=int, default=1,
                   help="forked worker processes for cold cells")
    p.add_argument("--trace", default=None,
                   help="write a validated Perfetto host trace JSON here")
    p.add_argument("--metrics", default=None,
                   help="write a metrics snapshot JSON here")
    p.add_argument("--json", default=None,
                   help="write the telemetry summary JSON here (the "
                        "report's host section ingests this)")
    p.add_argument("--progress", action="store_true",
                   help="stream JSONL progress events to stderr")
    _add_machine_args(p, nodes=16, ppn=6)
    p.set_defaults(fn=cmd_telemetry)

    p = sub.add_parser("figures", help="regenerate Figures 1 and 2")
    _add_machine_args(p, nodes=128, ppn=18)
    p.set_defaults(fn=cmd_figures)

    p = sub.add_parser("profile", help="where a collective's time goes")
    p.add_argument("--collective", default="allgather", choices=COLLECTIVES)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--libraries", default="",
                   help="comma-separated (default: MPICH,PiP-MColl)")
    _add_machine_args(p, nodes=16, ppn=6)
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("tables", help="algorithm selection tables")
    p.add_argument("--ranks", type=int, default=2304)
    p.add_argument("--libraries", default="",
                   help="comma-separated (default: all)")
    p.set_defaults(fn=cmd_tables)

    p = sub.add_parser("faults", help="seeded chaos sweep (resilience report)")
    p.add_argument("--collective", default="allgather", choices=COLLECTIVES)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--drop-rates", type=_parse_rates,
                   default=[0.0, 0.05, 0.1, 0.2],
                   help="comma-separated drop probabilities in [0, 1]")
    p.add_argument("--libraries", default="",
                   help="comma-separated (default: MPICH,PiP-MColl)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iters", type=int, default=1)
    _add_machine_args(p, nodes=4, ppn=4)
    p.set_defaults(fn=cmd_faults)

    p = sub.add_parser(
        "ft", help="crash-recovery benchmark (detect/recover/slowdown)")
    from .ft.bench import HARNESS_COLLECTIVES as _FT_COLLECTIVES

    p.add_argument("--collective", default="allreduce",
                   choices=_FT_COLLECTIVES)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--crash-ranks", type=_parse_ranks, default=[1],
                   help="comma-separated world ranks to crash")
    p.add_argument("--crash-at", type=float, default=2e-6,
                   help="crash instant on the simulated clock (seconds)")
    p.add_argument("--rounds", type=int, default=6)
    p.add_argument("--libraries", default="",
                   help="comma-separated (default: MPICH,PiP-MColl)")
    p.add_argument("--seed", type=int, default=0)
    _add_machine_args(p, nodes=4, ppn=4)
    p.set_defaults(fn=cmd_ft)

    p = sub.add_parser("trace", help="span-trace one collective (Perfetto JSON)")
    p.add_argument("--library", default="PiP-MColl", type=_library_spec,
                   help=f"one of {available_libraries()} or 'tuned:<db>'")
    p.add_argument("--collective", default="allgather", choices=COLLECTIVES)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--out", default="trace.json")
    p.add_argument("--validate", action="store_true",
                   help="check the export against the Chrome trace-event schema")
    p.add_argument("--resources", action="store_true",
                   help="record per-resource busy/queue timelines and "
                        "export them as Perfetto counter tracks")
    _add_machine_args(p, nodes=4, ppn=4)
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser(
        "shim", help="run unmodified mpi4py programs (docs/SHIM.md)")
    shim_sub = p.add_subparsers(dest="shim_command", required=True)

    s = shim_sub.add_parser(
        "run", help="execute a real mpi4py script on simulated ranks")
    s.add_argument("script", help="path to an unmodified mpi4py script")
    s.add_argument("script_args", nargs=argparse.REMAINDER,
                   help="arguments passed to the script's sys.argv "
                        "(everything after the script path; put repro "
                        "options before it)")
    s.add_argument("--nranks", "-n", type=int, default=None,
                   help="world size (mpiexec -n); geometry picked to "
                        "prefer multi-node shapes")
    s.add_argument("--nodes", type=int, default=None)
    s.add_argument("--ppn", type=int, default=None)
    s.add_argument("--preset", default=None, choices=available_presets(),
                   help="machine preset (default broadwell_opa timings)")
    s.add_argument("--library", default="PiP-MColl", type=_library_spec,
                   help=f"one of {available_libraries()} or 'tuned:<db>'")
    s.add_argument("--engine", type=_engine_spec, default=None,
                   help="simulation engine: calendar (default) or "
                        "reference")
    s.add_argument("--trace", default=None,
                   help="write the run's Perfetto trace JSON here")
    s.add_argument("--validate", action="store_true",
                   help="check the trace export against the Chrome "
                        "trace-event schema")
    s.add_argument("--no-trace", action="store_true",
                   help="disable span recording entirely (faster; "
                        "incompatible with --trace)")
    s.add_argument("--metrics", action="store_true",
                   help="print derived span metrics after the run")
    s.set_defaults(fn=cmd_shim_run)

    p = sub.add_parser("report", help="benchmark records → paper-figure report")
    p.add_argument("--results", default="benchmarks/results",
                   help="directory of *.records.json (or one file)")
    p.add_argument("--out", default="benchmarks/results/report",
                   help="output directory for CSV/JSON/HTML")
    p.add_argument("--summary", default="BENCH_summary.json",
                   help="trajectory summary path ('' to skip)")
    p.add_argument("--golden", default="benchmarks/golden.json",
                   help="golden latency baseline for drift flags")
    p.add_argument("--tolerance", type=float, default=0.10,
                   help="drift tolerance vs golden (fraction)")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero when any benchmark drifted")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("tune", help="empirical autotuner (see docs/TUNING.md)")
    tune_sub = p.add_subparsers(dest="tune_command", required=True)

    t = tune_sub.add_parser("search", help="search the schedule space → .tunedb.json")
    t.add_argument("--collective", default="allgather", choices=COLLECTIVES)
    t.add_argument("--sizes", type=_parse_sizes, default=[16, 64, 256, 1024, 4096])
    t.add_argument("--base", default="PiP-MColl",
                   help="base library the tuned tables fall back to")
    t.add_argument("--strategy", default="exhaustive",
                   choices=("exhaustive", "halving", "hill"))
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--workers", type=int, default=1,
                   help="worker processes for candidate evaluation")
    t.add_argument("--timeout", type=float, default=None,
                   help="per-candidate wall-clock budget (seconds)")
    t.add_argument("--eager-limits", type=_parse_sizes, default=None,
                   help="eager→rendezvous overrides to search (bytes)")
    t.add_argument("--checkpoint", default=None,
                   help="JSON eval cache; re-running resumes from it")
    t.add_argument("--cache", default=None,
                   help="sweep-service result cache directory, shared "
                        "across searches and sweeps (docs/SERVICE.md)")
    t.add_argument("--out", default=None,
                   help="output path (default tune_<coll>_<NxP>.tunedb.json)")
    _add_machine_args(t, nodes=16, ppn=18)
    t.set_defaults(fn=cmd_tune_search)

    t = tune_sub.add_parser("show", help="print a tuning DB as a table")
    t.add_argument("db")
    t.set_defaults(fn=cmd_tune_show)

    t = tune_sub.add_parser("diff", help="cell-by-cell DB comparison")
    t.add_argument("old")
    t.add_argument("new")
    t.add_argument("--strict", action="store_true",
                   help="exit nonzero when the DBs differ")
    t.set_defaults(fn=cmd_tune_diff)

    t = tune_sub.add_parser("merge", help="union several DBs (best wins)")
    t.add_argument("dbs", nargs="+")
    t.add_argument("--out", required=True)
    t.set_defaults(fn=cmd_tune_merge)

    t = tune_sub.add_parser("compile",
                            help="DB → TunedLibrary (verifies + lists coverage)")
    t.add_argument("db")
    t.add_argument("--compare", action="store_true",
                   help="also print flipped cells vs the base library")
    t.add_argument("--ranks", type=int, default=None,
                   help="world size for --compare (default: largest tuned)")
    t.set_defaults(fn=cmd_tune_compile)

    p = sub.add_parser("info", help="presets, libraries, transports")
    p.add_argument("--cache", default=None,
                   help="also describe this result cache directory")
    p.set_defaults(fn=cmd_info)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
