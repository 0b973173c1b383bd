"""ASCII line charts for figure reproduction.

The paper's Figures 1–2 are log-x latency plots over message size with
one series per MPI library.  `ascii_figure` renders a `Sweep` the same
way in plain text, so the benchmark suite can regenerate something the
eye can compare against the paper without a plotting stack.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from .harness import Sweep

#: series markers, assigned to libraries in plot order
MARKERS = "ox+*#@%&"


def ascii_figure(sweep: Sweep, width: int = 72, height: int = 22,
                 log_y: bool = True, title: Optional[str] = None) -> str:
    """Render a sweep as an ASCII chart (log-x sizes, log-y latency)."""
    sizes = sweep.sizes
    libs = sweep.libraries
    if not sizes or not libs:
        raise ValueError("nothing to plot")
    values: Dict[str, List[float]] = {
        lib: [sweep.latency(lib, s) for s in sizes] for lib in libs
    }
    all_vals = [v for series in values.values() for v in series]
    lo, hi = min(all_vals), max(all_vals)
    if log_y:
        lo_t, hi_t = math.log10(lo), math.log10(hi)
    else:
        lo_t, hi_t = lo, hi
    if hi_t == lo_t:
        hi_t = lo_t + 1.0

    def y_of(v: float) -> int:
        t = math.log10(v) if log_y else v
        frac = (t - lo_t) / (hi_t - lo_t)
        return (height - 1) - round(frac * (height - 1))

    def x_of(idx: int) -> int:
        if len(sizes) == 1:
            return width // 2
        return round(idx * (width - 1) / (len(sizes) - 1))

    grid = [[" "] * width for _ in range(height)]
    # Draw series (later series overwrite earlier at collisions; the
    # legend disambiguates).
    for li, lib in enumerate(libs):
        marker = MARKERS[li % len(MARKERS)]
        pts: List[Tuple[int, int]] = [
            (x_of(i), y_of(v)) for i, v in enumerate(values[lib])
        ]
        # connect with simple interpolation
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            steps = max(abs(x1 - x0), 1)
            for s in range(steps + 1):
                x = x0 + round((x1 - x0) * s / steps)
                y = y0 + round((y1 - y0) * s / steps)
                if grid[y][x] == " ":
                    grid[y][x] = "."
        for x, y in pts:
            grid[y][x] = marker

    # Compose with axis labels.
    lines = []
    if title:
        lines.append(title)
    label_w = 11
    for row in range(height):
        frac = 1.0 - row / (height - 1)
        t = lo_t + frac * (hi_t - lo_t)
        v = 10 ** t if log_y else t
        label = f"{v:9.1f} |" if row % 4 == 0 or row == height - 1 else " " * 10 + "|"
        lines.append(label.rjust(label_w) + "".join(grid[row]))
    lines.append(" " * (label_w - 1) + "+" + "-" * width)
    sizes_row = [" "] * width
    for i, s in enumerate(sizes):
        text = f"{s}B" if s < 1024 else f"{s // 1024}K"
        x = min(x_of(i), width - len(text))
        for j, ch in enumerate(text):
            sizes_row[x + j] = ch
    lines.append(" " * label_w + "".join(sizes_row))
    legend = "   ".join(
        f"{MARKERS[i % len(MARKERS)]}={lib}" for i, lib in enumerate(libs)
    )
    lines.append(f"latency (us, log) vs message size — {legend}")
    return "\n".join(lines)
