"""Hand-rolled standalone SVG line charts.

Just enough for the suite reports: log-log scatter/line plots with decade
ticks, a legend, and an optional fitted-line annotation. The output is a
single self-contained SVG document; nothing external renders it.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

_WIDTH, _HEIGHT = 640, 440
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 30, 46, 58
_COLORS = ("#1f6fb2", "#c44e52", "#55a868", "#8172b2", "#b8860b", "#4c72b0")


def fit_loglog(xs: Sequence[float], ys: Sequence[float]) -> dict:
    """Least-squares line through (log10 x, log10 y).

    Returns slope, intercept, r2, and a normal-approximation 95% interval
    for the slope. Every y must be positive; callers filter zeros first.
    """
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two points to fit")
    lx = [math.log10(x) for x in xs]
    ly = []
    for y in ys:
        if y <= 0:
            raise ValueError(f"log-log fit needs positive values, got {y}")
        ly.append(math.log10(y))
    k = len(lx)
    mx = sum(lx) / k
    my = sum(ly) / k
    sxx = sum((x - mx) ** 2 for x in lx)
    if sxx == 0:
        raise ValueError("x values are all equal")
    sxy = sum((x - mx) * (y - my) for x, y in zip(lx, ly))
    slope = sxy / sxx
    intercept = my - slope * mx
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(lx, ly))
    ss_tot = sum((y - my) ** 2 for y in ly)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    if k > 2:
        se = math.sqrt(ss_res / (k - 2) / sxx)
    else:
        se = 0.0
    return {
        "slope": slope,
        "intercept": intercept,
        "r2": r2,
        "slope_ci": (slope - 1.96 * se, slope + 1.96 * se),
    }


def _ticks_log(lo: float, hi: float) -> list:
    first = math.floor(math.log10(lo))
    last = math.ceil(math.log10(hi))
    return [10.0**e for e in range(first, last + 1)]


def _ticks_linear(lo: float, hi: float, count: int = 5) -> list:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _fmt(x: float) -> str:
    if x == 0:
        return "0"
    if abs(x) >= 1e4 or abs(x) < 1e-3:
        return f"{x:.0e}"
    return f"{x:g}"


class _Scale:
    def __init__(self, lo, hi, pix_lo, pix_hi, log):
        self.log = log
        if log:
            lo, hi = math.log10(lo), math.log10(hi)
        if hi == lo:
            hi = lo + 1.0
        self.lo, self.hi = lo, hi
        self.pix_lo, self.pix_hi = pix_lo, pix_hi

    def __call__(self, x):
        v = math.log10(x) if self.log else x
        frac = (v - self.lo) / (self.hi - self.lo)
        return self.pix_lo + frac * (self.pix_hi - self.pix_lo)


def line_plot(
    path: str,
    series: Sequence[dict],
    title: str,
    xlabel: str,
    ylabel: str,
    loglog: bool = True,
    annotation: Optional[str] = None,
) -> None:
    """Write one SVG chart. Each series is {"label", "xs", "ys"}.

    Nonpositive values are dropped from log axes instead of erroring, so
    suites can plot medians that happen to hit zero.
    """
    pts = []
    for s in series:
        if extra := s.keys() - {"label", "xs", "ys"}:
            raise ValueError(f"a series holds label, xs and ys only, not {sorted(extra)}")
        for x, y in zip(s["xs"], s["ys"]):
            if not loglog or (x > 0 and y > 0):
                pts.append((x, y))
    if not pts:
        raise ValueError("nothing to plot")
    xs_all = [p[0] for p in pts]
    ys_all = [p[1] for p in pts]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if loglog:
        x_lo, x_hi = x_lo / 1.3, x_hi * 1.3
        y_lo, y_hi = y_lo / 1.3, y_hi * 1.3
    else:
        pad_x = 0.05 * (x_hi - x_lo or 1.0)
        pad_y = 0.05 * (y_hi - y_lo or 1.0)
        x_lo, x_hi = x_lo - pad_x, x_hi + pad_x
        y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

    sx = _Scale(x_lo, x_hi, _MARGIN_L, _WIDTH - _MARGIN_R, loglog)
    sy = _Scale(y_lo, y_hi, _HEIGHT - _MARGIN_B, _MARGIN_T, loglog)

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="Helvetica, Arial, sans-serif">'
    )
    out.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')
    out.append(
        f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" font-size="15">{title}</text>'
    )

    x_ticks = _ticks_log(x_lo, x_hi) if loglog else _ticks_linear(x_lo, x_hi)
    y_ticks = _ticks_log(y_lo, y_hi) if loglog else _ticks_linear(y_lo, y_hi)
    plot_b, plot_t = _HEIGHT - _MARGIN_B, _MARGIN_T
    plot_l, plot_r = _MARGIN_L, _WIDTH - _MARGIN_R
    for t in x_ticks:
        if not (x_lo <= t <= x_hi):
            continue
        px = sx(t)
        out.append(
            f'<line x1="{px:.1f}" y1="{plot_t}" x2="{px:.1f}" y2="{plot_b}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{px:.1f}" y="{plot_b + 18}" text-anchor="middle" font-size="11">{_fmt(t)}</text>'
        )
    for t in y_ticks:
        if not (y_lo <= t <= y_hi):
            continue
        py = sy(t)
        out.append(
            f'<line x1="{plot_l}" y1="{py:.1f}" x2="{plot_r}" y2="{py:.1f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{plot_l - 6}" y="{py + 4:.1f}" text-anchor="end" font-size="11">{_fmt(t)}</text>'
        )
    out.append(
        f'<rect x="{plot_l}" y="{plot_t}" width="{plot_r - plot_l}" '
        f'height="{plot_b - plot_t}" fill="none" stroke="#333333"/>'
    )
    out.append(
        f'<text x="{(plot_l + plot_r) / 2:.1f}" y="{_HEIGHT - 14}" text-anchor="middle" '
        f'font-size="13">{xlabel}</text>'
    )
    out.append(
        f'<text x="18" y="{(plot_t + plot_b) / 2:.1f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 18 {(plot_t + plot_b) / 2:.1f})">{ylabel}</text>'
    )

    for idx, s in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        coords = [
            (sx(x), sy(y))
            for x, y in zip(s["xs"], s["ys"])
            if not loglog or (x > 0 and y > 0)
        ]
        if not coords:
            continue
        if len(coords) > 1:
            path_d = " ".join(f"{px:.1f},{py:.1f}" for px, py in coords)
            out.append(
                f'<polyline points="{path_d}" fill="none" stroke="{color}" stroke-width="1.8"/>'
            )
        for px, py in coords:
            out.append(f'<circle cx="{px:.1f}" cy="{py:.1f}" r="3" fill="{color}"/>')
        label = s.get("label")
        if label:
            ly = _MARGIN_T + 16 + 16 * idx
            lx = plot_r - 150
            out.append(
                f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                f'stroke="{color}" stroke-width="2"/>'
            )
            out.append(f'<text x="{lx + 28}" y="{ly}" font-size="12">{label}</text>')

    if annotation:
        out.append(
            f'<text x="{plot_l + 8}" y="{plot_t + 18}" font-size="12" fill="#333333">'
            f"{annotation}</text>"
        )
    out.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out))
        fh.write("\n")
