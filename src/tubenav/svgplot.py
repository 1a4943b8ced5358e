"""Static SVG rendering of runs: swarm snapshots and metric time series.

SVG is written directly (no plotting library) so output is deterministic
text that tests can parse back: robot discs carry their id and the root
element carries the world-to-pixel transform, making the drawing
machine-invertible.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .geometry import narrow_intervals


def _f(x):
    return repr(round(float(x), 9))


class WorldTransform:
    """Affine map from world coordinates (y up) to SVG pixels (y down)."""

    def __init__(self, xmin, xmax, ymin, ymax, scale, pad):
        self.xmin = xmin
        self.ymax = ymax
        self.scale = scale
        self.pad = pad
        self.width = (xmax - xmin + 2 * pad) * scale
        self.height = (ymax - ymin + 2 * pad) * scale

    def to_svg(self, x, y):
        return (
            (x - self.xmin + self.pad) * self.scale,
            (self.ymax + self.pad - y) * self.scale,
        )

    def root_attrs(self):
        return (
            f'data-scale="{_f(self.scale)}" data-xmin="{_f(self.xmin)}" '
            f'data-ymax="{_f(self.ymax)}" data-pad="{_f(self.pad)}"'
        )


def _svg_document(transform, body):
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{_f(transform.width)}" height="{_f(transform.height)}" '
        f'viewBox="0 0 {_f(transform.width)} {_f(transform.height)}" '
        f"{transform.root_attrs()}>\n" + body + "</svg>\n"
    )


def _polyline(points, transform, stroke, width=1.5, cls=None):
    coords = " ".join(
        "{},{}".format(_f(sx), _f(sy))
        for sx, sy in (transform.to_svg(x, y) for x, y in points)
    )
    cls_attr = f' class="{cls}"' if cls else ""
    return (
        f'<polyline{cls_attr} points="{coords}" fill="none" '
        f'stroke="{stroke}" stroke-width="{_f(width)}"/>\n'
    )


def _polygon(points, transform, fill, opacity=1.0):
    coords = " ".join(
        "{},{}".format(_f(sx), _f(sy))
        for sx, sy in (transform.to_svg(x, y) for x, y in points)
    )
    return f'<polygon points="{coords}" fill="{fill}" opacity="{_f(opacity)}" stroke="none"/>\n'


def render_snapshot(positions, velocities, active, tube, r_s, path, time=None):
    """One frame: tube outline, narrow-band shading, robot safety discs and
    velocity arrows."""
    lower, upper = tube.section_ends(np.linspace(0.0, tube.length, 600))
    all_pts = np.concatenate([lower, upper])
    xmin, ymin = all_pts.min(axis=0) - r_s
    xmax, ymax = all_pts.max(axis=0) + r_s
    span = max(xmax - xmin, ymax - ymin)
    scale = 720.0 / span
    tf = WorldTransform(xmin, xmax, ymin, ymax, scale, pad=0.05 * span)

    body = ""
    # shade sections that fit at most one robot
    for lo, hi in narrow_intervals(tube, r_s):
        band_ls = np.linspace(lo, hi, max(int((hi - lo) / 0.1), 2))
        low_b, up_b = tube.section_ends(band_ls)
        poly = list(map(tuple, low_b)) + list(map(tuple, up_b[::-1]))
        body += _polygon(poly, tf, fill="#bcd9f0", opacity=0.6)
    body += _polyline(list(map(tuple, lower)), tf, stroke="#222222", width=2.0, cls="wall")
    body += _polyline(list(map(tuple, upper)), tf, stroke="#222222", width=2.0, cls="wall")
    if not tube.closed:
        for a, b in tube.terminal_sections():
            body += _polyline([tuple(a), tuple(b)], tf, stroke="#888888", width=1.0, cls="terminal")

    for i in range(len(positions)):
        if not active[i]:
            continue
        cx, cy = tf.to_svg(positions[i, 0], positions[i, 1])
        body += (
            f'<circle class="robot" data-robot-id="{i}" cx="{_f(cx)}" cy="{_f(cy)}" '
            f'r="{_f(r_s * scale)}" fill="#e05252" fill-opacity="0.55" '
            f'stroke="#a02020" stroke-width="1"/>\n'
        )
        v = velocities[i]
        if np.hypot(v[0], v[1]) > 1e-12:
            tip = positions[i] + v
            body += _polyline(
                [tuple(positions[i]), tuple(tip)], tf, stroke="#2b5dd7", width=1.2, cls="vel"
            )
    if time is not None:
        body += (
            f'<text x="10" y="20" font-family="monospace" font-size="14">'
            f"t = {_f(time)} s</text>\n"
        )
    Path(path).write_text(_svg_document(tf, body))
    return Path(path)


# ---------------------------------------------------------------------------
# line charts
# ---------------------------------------------------------------------------

_SERIES_COLORS = ["#2b5dd7", "#e05252", "#2f9e44", "#b8860b", "#7048a8"]


def _ticks(lo, hi):
    if not math.isfinite(lo) or not math.isfinite(hi) or hi <= lo:
        return [lo]
    return [lo + (hi - lo) * k / 4 for k in range(5)]


def render_series(series, path, ylabel="", title="", hlines=()):
    """Minimal deterministic line chart.

    ``series`` is an ordered dict name -> (t array, y array); NaN samples
    are dropped per series.  ``hlines`` draws labeled reference levels.
    """
    width, height = 720.0, 420.0
    ml, mr, mt, mb = 64.0, 16.0, 28.0, 40.0
    plot_w, plot_h = width - ml - mr, height - mt - mb

    finite = []
    for name, (ts, ys) in series.items():
        ts = np.asarray(ts, dtype=float)
        ys = np.asarray(ys, dtype=float)
        ok = np.isfinite(ys)
        finite.append((name, ts[ok], ys[ok]))
    t_all = np.concatenate([ts for _, ts, _ in finite if len(ts)]) if finite else np.array([0.0])
    y_all = np.concatenate([ys for _, _, ys in finite if len(ys)]) if finite else np.array([0.0])
    y_all = np.concatenate([y_all, np.asarray([h for h, _ in hlines], dtype=float)]) if hlines else y_all
    if len(t_all) == 0:
        t_all = np.array([0.0])
    if len(y_all) == 0:
        y_all = np.array([0.0])
    t0, t1 = float(np.min(t_all)), float(np.max(t_all))
    y0, y1 = float(np.min(y_all)), float(np.max(y_all))
    if t1 <= t0:
        t1 = t0 + 1.0
    if y1 <= y0:
        y1 = y0 + 1.0
    y_pad = 0.06 * (y1 - y0)
    y0, y1 = y0 - y_pad, y1 + y_pad

    def sx(t):
        return ml + (t - t0) / (t1 - t0) * plot_w

    def sy(y):
        return mt + (y1 - y) / (y1 - y0) * plot_h

    body = (
        f'<rect x="{_f(ml)}" y="{_f(mt)}" width="{_f(plot_w)}" height="{_f(plot_h)}" '
        f'fill="none" stroke="#222222" stroke-width="1"/>\n'
    )
    for tick in _ticks(t0, t1):
        x = sx(tick)
        body += (
            f'<line x1="{_f(x)}" y1="{_f(mt + plot_h)}" x2="{_f(x)}" '
            f'y2="{_f(mt + plot_h + 5)}" stroke="#222222" stroke-width="1"/>\n'
            f'<text x="{_f(x)}" y="{_f(mt + plot_h + 18)}" text-anchor="middle" '
            f'font-family="monospace" font-size="11">{round(tick, 6):g}</text>\n'
        )
    for tick in _ticks(y0, y1):
        y = sy(tick)
        body += (
            f'<line x1="{_f(ml - 5)}" y1="{_f(y)}" x2="{_f(ml)}" y2="{_f(y)}" '
            f'stroke="#222222" stroke-width="1"/>\n'
            f'<text x="{_f(ml - 8)}" y="{_f(y + 4)}" text-anchor="end" '
            f'font-family="monospace" font-size="11">{round(tick, 6):g}</text>\n'
        )
    for level, label in hlines:
        y = sy(level)
        body += (
            f'<line class="refline" x1="{_f(ml)}" y1="{_f(y)}" x2="{_f(ml + plot_w)}" '
            f'y2="{_f(y)}" stroke="#999999" stroke-width="1" stroke-dasharray="6,4"/>\n'
            f'<text x="{_f(ml + plot_w - 4)}" y="{_f(y - 4)}" text-anchor="end" '
            f'font-family="monospace" font-size="11" fill="#666666">{label}</text>\n'
        )
    for k, (name, ts, ys) in enumerate(finite):
        if len(ts) == 0:
            continue
        color = _SERIES_COLORS[k % len(_SERIES_COLORS)]
        pts = " ".join(f"{_f(sx(t))},{_f(sy(y))}" for t, y in zip(ts, ys))
        body += (
            f'<polyline class="series" data-name="{name}" points="{pts}" fill="none" '
            f'stroke="{color}" stroke-width="1.6"/>\n'
        )
        body += (
            f'<text x="{_f(ml + 10)}" y="{_f(mt + 16 + 15 * k)}" font-family="monospace" '
            f'font-size="12" fill="{color}">{name}</text>\n'
        )
    if title:
        body += (
            f'<text x="{_f(width / 2)}" y="18" text-anchor="middle" '
            f'font-family="monospace" font-size="13">{title}</text>\n'
        )
    if ylabel:
        body += (
            f'<text x="14" y="{_f(mt + plot_h / 2)}" font-family="monospace" font-size="12" '
            f'transform="rotate(-90 14 {_f(mt + plot_h / 2)})" text-anchor="middle">{ylabel}</text>\n'
        )
    doc = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_f(width)}" height="{_f(height)}" '
        f'viewBox="0 0 {_f(width)} {_f(height)}">\n' + body + "</svg>\n"
    )
    Path(path).write_text(doc)
    return Path(path)


# ---------------------------------------------------------------------------
# top-level rendering
# ---------------------------------------------------------------------------

def render_frames(frames, columns, outdir, tube, r_s):
    """Standard plot set of a run: snapshots of up to five frames, evenly
    spread over the run, plus the distance and density-error series.

    ``frames`` are the run's records in time order (StepRecord views or read-back
    TraceFrames: anything with time, positions, velocities and active);
    ``columns`` maps metrics.csv column names to per-record arrays, or is
    None for no series.  Returns the written paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    last = len(frames) - 1
    written = []
    for idx in sorted({0, last // 4, last // 2, (3 * last) // 4, last}):
        fr = frames[idx]
        written.append(
            render_snapshot(
                fr.positions, fr.velocities, fr.active, tube, r_s,
                outdir / f"snapshot_t{fr.time:g}.svg", time=fr.time,
            )
        )
    if columns is not None and len(columns["t"]) > 1:
        ts = columns["t"]
        written.append(
            render_series(
                {
                    "min pairwise distance": (ts, columns["min_pair_dist"]),
                    "min boundary distance": (ts, columns["min_bound_dist"]),
                },
                outdir / "distances.svg",
                ylabel="distance (m)",
                title="safety margins",
                hlines=[(2 * r_s, "2 r_s"), (r_s, "r_s")],
            )
        )
        written.append(
            render_series(
                {"tracking error": (ts, columns["density_err_l2"])},
                outdir / "density_error.svg",
                ylabel="L2 density error (1/m)",
                title="density tracking error",
            )
        )
    return written


def render_plots(log, outdir, tube, params):
    """render_frames on a run's log, its series read from the log's arrays."""
    columns = {
        "t": log.time,
        "min_pair_dist": log.metrics["min_pairwise_distance"],
        "min_bound_dist": log.metrics["min_boundary_distance"],
        "density_err_l2": log.metrics["density_error_l2"],
    }
    return render_frames(log.records, columns, outdir, tube, params.r_s)


def render_amd_comparison(log_full, log_baseline, path):
    return render_series(
        {
            "with distribution regulation": (log_full.time, log_full.metrics["amd"]),
            "safe navigation only": (log_baseline.time, log_baseline.metrics["amd"]),
        },
        path,
        ylabel="AMD (m)",
        title="average minimum distance",
    )


def render_throughput_comparison(log_full, log_baseline, path):
    return render_series(
        {
            "with distribution regulation": (log_full.time, log_full.metrics["exited_count"]),
            "safe navigation only": (log_baseline.time, log_baseline.metrics["exited_count"]),
        },
        path,
        ylabel="robots exited",
        title="throughput",
    )
