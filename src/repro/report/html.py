"""Self-contained HTML rendering of a :class:`~repro.report.tables.Report`.

One file, zero external assets: inline CSS, speedup grids, a
per-transport occupancy heatmap (cell colour = busy fraction), LogGP
attribution stacks as proportional bars, and the regression flag list.
Open it in any browser; CI uploads it as the ``report`` artifact.
"""

from __future__ import annotations

from html import escape
from typing import Any, Dict, List, Optional

from ..obs.attribution import COMPONENTS
from .tables import BASELINE_LIBRARY, GroupTable, Report

_CSS = """
body { font: 14px/1.5 -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2em auto; max-width: 72em; color: #1a1a2e; }
h1 { font-size: 1.5em; } h2 { font-size: 1.2em; margin-top: 2em; }
table { border-collapse: collapse; margin: 1em 0; }
th, td { border: 1px solid #d0d0e0; padding: 0.3em 0.7em; text-align: right; }
th { background: #f0f0f8; }
td.name, th.name { text-align: left; }
.win { font-weight: 600; color: #0a7a2f; }
.drift { font-weight: 600; color: #b00020; }
.ok { color: #0a7a2f; }
.stack { display: flex; height: 1.2em; width: 24em; border: 1px solid #aaa; }
.stack div { height: 100%; }
.legend span { display: inline-block; margin-right: 1em; }
.legend i { display: inline-block; width: 0.9em; height: 0.9em;
            margin-right: 0.3em; vertical-align: -0.1em; }
small { color: #667; }
"""

#: component → stack colour (stable across reports)
_COLORS = {
    "L": "#4c72b0", "o": "#dd8452", "gG": "#55a868", "copy": "#c44e52",
    "sync": "#8172b3", "compute": "#937860", "queue": "#b0b0b8",
}


def _heat(value: Optional[float]) -> str:
    """Background colour for an occupancy cell (0 → white, 1 → deep red)."""
    if value is None:
        return ""
    v = max(0.0, min(1.0, value))
    # white → orange-red ramp
    g = int(245 - 160 * v)
    b = int(240 - 220 * v)
    return f' style="background: rgb(250,{g},{b})"'


def _speedup_table(group: GroupTable) -> List[str]:
    parts = [f"<h2>{escape(group.title)}</h2>", "<table>"]
    parts.append(
        "<tr><th class=name>bytes</th>"
        + "".join(f"<th>{escape(lib)} (µs)</th>" for lib in group.libraries)
        + "".join(f"<th>{escape(lib)} ×</th>"
                  for lib in group.libraries if lib != BASELINE_LIBRARY)
        + "</tr>"
    )
    for nbytes in group.sizes:
        cells = [f"<td class=name>{nbytes}</td>"]
        best = min((group.latency[(lib, nbytes)], lib)
                   for lib in group.libraries
                   if (lib, nbytes) in group.latency)[1]
        for lib in group.libraries:
            lat = group.latency.get((lib, nbytes))
            mark = " class=win" if lib == best else ""
            cells.append(f"<td{mark}>{lat:.2f}</td>" if lat is not None
                         else "<td>–</td>")
        for lib in group.libraries:
            if lib == BASELINE_LIBRARY:
                continue
            spd = group.speedup(lib, nbytes)
            cells.append(f"<td>{spd:.2f}</td>" if spd is not None
                         else "<td>–</td>")
        parts.append("<tr>" + "".join(cells) + "</tr>")
    parts.append("</table>")
    parts.append(f"<small>speedup baseline: {escape(BASELINE_LIBRARY)}; "
                 "bold = fastest library at that size</small>")
    return parts


def _occupancy_section(report: Report) -> List[str]:
    if not report.occupancy:
        return []
    parts = ["<h2>Resource occupancy per transport</h2>", "<table>"]
    kinds = ("nic_tx", "nic_rx", "membus", "uplink")
    parts.append(
        "<tr><th class=name>point</th>"
        + "".join(f"<th>{k}</th>" for k in kinds)
        + "<th>injection</th><th>active ranks</th></tr>"
    )
    for row in report.occupancy:
        cells = [f"<td class=name>{escape(row['key'])}</td>"]
        for kind in kinds:
            v = row.get(kind)
            cells.append(f"<td{_heat(v)}>{v:.3f}</td>" if v is not None
                         else "<td>–</td>")
        inj = row.get("injection_occupancy")
        cells.append(f"<td{_heat(inj)}>{inj:.4f}</td>" if inj is not None
                     else "<td>–</td>")
        active = row.get("active_ranks")
        cells.append(f"<td>{active}</td>" if active is not None
                     else "<td>–</td>")
        parts.append("<tr>" + "".join(cells) + "</tr>")
    parts.append("</table>")
    parts.append("<small>cell colour = busy fraction of the measured "
                 "window; injection = Σ msgs·o / (elapsed · nranks)</small>")
    if report.ratios:
        parts.append("<h2>NIC injection engines: multi-object vs "
                     "single-leader</h2><table>")
        parts.append("<tr><th class=name>point</th>"
                     "<th>engines (MColl)</th><th>engines (leader)</th>"
                     "<th>engine ratio</th><th>bar</th><th>verdict</th>"
                     "<th>time-occupancy ratio</th></tr>")
        for row in report.ratios:
            verdict = ("<td class=ok>PASS</td>" if row["clears_bar"]
                       else "<td class=drift>FAIL</td>")
            eng = (f"{row['engine_ratio']:.1f}×"
                   if row["engine_ratio"] is not None else "–")
            occ = (f"{row['occupancy_ratio']:.1f}×"
                   if row["occupancy_ratio"] is not None else "–")
            parts.append(
                f"<tr><td class=name>{escape(row['collective'])} "
                f"{row['nbytes']} B @ {row['nodes']}x{row['ppn']}</td>"
                f"<td>{row['PiP-MColl_engines']}</td>"
                f"<td>{row['SingleLeader_engines']}</td>"
                f"<td>{eng}</td><td>{row['bar']:.0f}×</td>{verdict}"
                f"<td>{occ}</td></tr>"
            )
        parts.append("</table>")
        parts.append("<small>engine ratio = NIC injection engines the "
                     "schedule engages (the paper's \"all P busy vs P−1 "
                     "idle\" claim, bar = P = ppn); time-occupancy ratio "
                     "= Σ msgs·o / (elapsed · nranks) quotient</small>")
    return parts


def _attribution_section(report: Report) -> List[str]:
    if not report.attribution:
        return []
    parts = ["<h2>LogGP attribution</h2>"]
    parts.append("<p class=legend>" + "".join(
        f"<span><i style='background:{_COLORS[c]}'></i>{c}</span>"
        for c in COMPONENTS) + "</p>")
    parts.append("<table>")
    parts.append("<tr><th class=name>point</th><th>measured (µs)</th>"
                 "<th>dominant</th><th class=name>stack</th></tr>")
    for row in report.attribution:
        total = sum(row["terms_us"].values()) or 1.0
        stack = "".join(
            f"<div style='width:{100.0 * row['terms_us'][c] / total:.2f}%;"
            f"background:{_COLORS[c]}' title='{c}: "
            f"{row['terms_us'][c]:.2f}µs'></div>"
            for c in COMPONENTS if row["terms_us"].get(c, 0.0) > 0.0
        )
        parts.append(
            f"<tr><td class=name>{escape(row['key'])}</td>"
            f"<td>{row['measured_us']:.2f}</td>"
            f"<td>{escape(row['dominant'])} "
            f"({escape(str(row['dominant_resource']))})</td>"
            f"<td class=name><div class=stack>{stack}</div></td></tr>"
        )
    parts.append("</table>")
    return parts


def _regression_section(report: Report) -> List[str]:
    if not report.flags:
        return []
    parts = [f"<h2>Regression vs golden (±{report.tolerance:.0%})</h2>",
             "<table>",
             "<tr><th class=name>key</th><th>golden (µs)</th>"
             "<th>fresh (µs)</th><th>drift</th></tr>"]
    for flag in report.flags:
        cls = " class=drift" if flag["drifted"] else " class=ok"
        parts.append(
            f"<tr><td class=name>{escape(flag['key'])}</td>"
            f"<td>{flag['golden_us']:.2f}</td>"
            f"<td>{flag['fresh_us']:.2f}</td>"
            f"<td{cls}>{flag['drift']:+.1%}</td></tr>"
        )
    parts.append("</table>")
    return parts


def _host_section(host: Dict[str, Any]) -> List[str]:
    """Host wall-clock telemetry (``repro telemetry --json`` output).

    Everything above this section is on the *simulated* clock; this
    table is the cost of running the simulator itself — bench cell
    wall time and cache/queue efficiency (see docs/OBSERVABILITY.md,
    host-time telemetry).
    """
    if not host:
        return []
    parts = ["<h2>Host telemetry (wall clock)</h2>"]
    bench = host.get("bench") or {}
    if bench.get("cells"):
        parts.append(f"<p><small>{bench['cells']} cells in "
                     f"{bench['wall_s']:.2f}s wall</small></p>")
    cache = host.get("cache") or {}
    queue = host.get("queue") or {}
    if cache.get("ops") or queue:
        parts.append("<h2>Cache / queue efficiency</h2><table>")
        parts.append("<tr><th class=name>counter</th><th>value</th></tr>")
        for name, value in sorted((cache.get("ops") or {}).items()):
            parts.append(f"<tr><td class=name>cache {escape(name)}</td>"
                         f"<td>{value}</td></tr>")
        if cache.get("hit_ratio") is not None:
            parts.append(f"<tr><td class=name>cache hit ratio</td>"
                         f"<td>{cache['hit_ratio']:.1%}</td></tr>")
        for name, value in sorted(queue.items()):
            parts.append(f"<tr><td class=name>queue {escape(name)}</td>"
                         f"<td>{value}</td></tr>")
        parts.append("</table>")
    return parts


def render_html(report: Report, title: str = "repro benchmark report",
                host: Optional[Dict[str, Any]] = None) -> str:
    """The whole report as one self-contained HTML page.

    ``host`` is an optional host-telemetry summary
    (:meth:`repro.obs.host.HostReport.as_dict`, usually loaded from
    ``host_telemetry.json`` next to the records) rendered as its own
    wall-clock section after the sim-time tables.
    """
    parts: List[str] = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        f"<title>{escape(title)}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>{escape(title)}</h1>",
        f"<p><small>{len(report.records)} records · "
        f"{len(report.groups)} grids · "
        f"{len(report.drifted)} regression flags</small></p>",
    ]
    for group in report.groups:
        parts.extend(_speedup_table(group))
    parts.extend(_occupancy_section(report))
    parts.extend(_attribution_section(report))
    parts.extend(_regression_section(report))
    parts.extend(_host_section(host or {}))
    parts.append("</body></html>")
    return "\n".join(parts)
