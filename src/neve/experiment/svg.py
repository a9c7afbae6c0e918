"""Dependency-free SVG line charts for run diagnostics.

Deliberately small: polyline series on a framed plot area with tick
labels, an optional legend and optional vertical markers (used for the
stop epoch). Output is deterministic for identical inputs.
"""

from __future__ import annotations

import math

from ..errors import ConfigError

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

WIDTH, HEIGHT = 760, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 34, 46


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """About five round-numbered ticks spanning [lo, hi]."""
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / 5
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


class _Scale:
    def __init__(self, lo, hi, out_lo, out_hi, log=False):
        self.log = log
        if log:
            lo, hi = math.log10(lo), math.log10(hi)
        if hi <= lo:
            hi = lo + 1.0
        self.lo, self.hi = lo, hi
        self.out_lo, self.out_hi = out_lo, out_hi

    def __call__(self, v: float) -> float:
        if self.log:
            v = math.log10(v)
        frac = (v - self.lo) / (self.hi - self.lo)
        return self.out_lo + frac * (self.out_hi - self.out_lo)

    def ticks(self) -> list[float]:
        if self.log:
            lo_d, hi_d = math.floor(self.lo), math.ceil(self.hi)
            return [10.0 ** d for d in range(int(lo_d), int(hi_d) + 1)]
        return _nice_ticks(self.lo, self.hi)


def line_chart(path, series, *, title: str = "", xlabel: str = "", ylabel: str = "",
               vlines=(), log_x: bool = False, log_y: bool = False) -> bool:
    """Write a ``WIDTH`` x ``HEIGHT`` line chart; return whether it was written.

    ``series`` is a list of (label, xs, ys); ``vlines`` a list of
    (x, label) vertical markers annotated near the top of the plot.
    Non-finite points (a variant whose every run failed) and, on a log
    axis, non-positive ones (a velocity of exactly 0) are left out, and
    when no point is left no file is written.
    """
    series = [(label, list(zip(xs, ys))) for label, xs, ys in series]
    if not any(points for _, points in series):
        raise ConfigError("line_chart needs at least one data point")
    series = [(label, [(x, y) for x, y in points if math.isfinite(x) and math.isfinite(y)
                       and (x > 0 or not log_x) and (y > 0 or not log_y)])
              for label, points in series]
    pts = [p for _, points in series for p in points]
    if not pts:
        return False
    xs_all = [p[0] for p in pts] + [v for v, _ in vlines if v > 0 or not log_x]
    ys_all = [p[1] for p in pts]
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if not log_y:
        pad = 0.05 * (y1 - y0 or abs(y1) or 1.0)
        y0, y1 = y0 - pad, y1 + pad
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B
    sx = _Scale(x0, x1, MARGIN_L, MARGIN_L + plot_w, log=log_x)
    sy = _Scale(y0, y1, MARGIN_T + plot_h, MARGIN_T, log=log_y)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333"/>',
    ]
    if title:
        out.append(f'<text x="{WIDTH / 2:.1f}" y="20" text-anchor="middle" '
                   f'font-size="14">{title}</text>')
    for t in sx.ticks():
        px = sx(t)
        if px < MARGIN_L - 0.5 or px > MARGIN_L + plot_w + 0.5:
            continue
        out.append(f'<line x1="{px:.1f}" y1="{MARGIN_T + plot_h}" x2="{px:.1f}" '
                   f'y2="{MARGIN_T + plot_h + 5}" stroke="#333"/>')
        out.append(f'<text x="{px:.1f}" y="{MARGIN_T + plot_h + 18}" '
                   f'text-anchor="middle">{t:g}</text>')
    for t in sy.ticks():
        py = sy(t)
        if py < MARGIN_T - 0.5 or py > MARGIN_T + plot_h + 0.5:
            continue
        out.append(f'<line x1="{MARGIN_L - 5}" y1="{py:.1f}" x2="{MARGIN_L}" '
                   f'y2="{py:.1f}" stroke="#333"/>')
        out.append(f'<text x="{MARGIN_L - 8}" y="{py + 4:.1f}" '
                   f'text-anchor="end">{t:g}</text>')
    if xlabel:
        out.append(f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 8}" '
                   f'text-anchor="middle">{xlabel}</text>')
    if ylabel:
        cy = MARGIN_T + plot_h / 2
        out.append(f'<text x="16" y="{cy:.1f}" text-anchor="middle" '
                   f'transform="rotate(-90 16 {cy:.1f})">{ylabel}</text>')

    for i, (label, points) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        coords = [(sx(x), sy(y)) for x, y in points]
        if not coords:
            continue
        points = " ".join(f"{px:.2f},{py:.2f}" for px, py in coords)
        out.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"/>')
        if len(coords) == 1:
            px, py = coords[0]
            out.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3" fill="{color}"/>')

    for x, label in vlines:
        px = sx(x)
        out.append(f'<line x1="{px:.1f}" y1="{MARGIN_T}" x2="{px:.1f}" '
                   f'y2="{MARGIN_T + plot_h}" stroke="#888" stroke-width="1.2" '
                   f'stroke-dasharray="5,4"/>')
        out.append(f'<text x="{px + 4:.1f}" y="{MARGIN_T + 14}" fill="#555">'
                   f'{label}</text>')

    legend_y = MARGIN_T + 10
    for i, (label, _) in enumerate(series):
        if not label:
            continue
        color = PALETTE[i % len(PALETTE)]
        lx = MARGIN_L + plot_w - 150
        out.append(f'<line x1="{lx}" y1="{legend_y}" x2="{lx + 22}" y2="{legend_y}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{lx + 28}" y="{legend_y + 4}">{label}</text>')
        legend_y += 16

    out.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(out) + "\n")
    return True
