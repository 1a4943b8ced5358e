"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of the tubenav modules from outside the
package: nothing under ``src/`` knows about it.  Every wrapped call leaves
one span (layer key, start, end, parent span, work count) in compact
in-memory arrays; ``GeneratingCurve.eval_scalar`` is only counted, because
a span per Newton iteration would cost more than the iteration.  ``install``
restores the original functions on exit, so untraced runs measure
unpatched code.

Functions that ``engine`` and ``scenario`` import by name are patched in
those modules' namespaces, since that is where the callers look them up.
A target the package no longer defines, or a work count that can no longer
be computed, is added to ``Tracer.problems``: the runner then marks the
traced run as failed instead of reporting zeros.

The work counts are problem sizes computed from the call's arguments
(robots x boundary segments, robot pairs, grid points x robots), not work
done inside the call: a change that skips part of the work leaves them
unchanged and shows only in the time metrics.
"""

from __future__ import annotations

import functools
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from tubenav import density, engine, geometry, reports, scenario, svgplot

COUNT_ONLY = "count-only"


def _boundary_pairs(tube, pts, *args, **kwargs):
    # robots x lateral-boundary polyline segments: the brute-force scan size
    return len(pts) * len(tube._seg_ax)


def _kde_pairs(view, pts, *args, **kwargs):
    return len(np.atleast_2d(pts)) * view.n


def _error_grid_evals(view, dd, tube, region, resolution=(200, 40), *args, **kwargs):
    return resolution[0] * resolution[1] * view.n


def _avoidance_pairs(params, positions, *args, **kwargs):
    m = len(positions)
    return m * (m - 1) // 2


# (owner, attribute, layer key, work function or COUNT_ONLY or None)
TARGETS = [
    (scenario, "scenario_from_dict", "scenario.load", None),
    (scenario, "validate_initial", "engine.validate_initial", None),
    (geometry.VirtualTube, "__init__", "geometry.tube_build", None),
    (geometry.VirtualTube, "check_regularity", "geometry.check_regularity", None),
    (geometry.VirtualTube, "boundary_distance_many", "geometry.boundary_distance", _boundary_pairs),
    (geometry.GeneratingCurve, "project_many", "geometry.project_many", None),
    (geometry.GeneratingCurve, "project", "geometry.project", None),
    (geometry.GeneratingCurve, "eval_scalar", "geometry.eval_scalar", COUNT_ONLY),
    (density.DensityView, "estimate_and_gradient_many", "density.kde", _kde_pairs),
    (density.DesiredDensity, "__init__", "density.target_build", None),
    (density.DesiredDensity, "gradient_many", "density.target_gradient", None),
    (engine, "occupied_region_from_arclengths", "density.region", None),
    (engine, "density_error_l2_from_view", "density.error_grid", _error_grid_evals),
    (engine, "avoidance_batch", "control.avoidance", _avoidance_pairs),
    (engine, "compose_velocity", "control.compose", None),
    (engine, "min_pairwise_from_positions", "metrics.pairwise", None),
    (engine, "amd_from_positions", "metrics.pairwise", None),
    (engine, "run", "engine.run", None),
    (reports, "write_trace_csv", "reports.trace_write", None),
    (reports, "write_metrics_csv", "reports.metrics_write", None),
    (svgplot, "render_plots", "svgplot.render", None),
]


@dataclass
class LayerStat:
    """Totals of one layer key within one phase of a traced run."""

    incl_s: float = 0.0  # time inside outermost calls of this key
    self_s: float = 0.0  # the same minus time in wrapped calls of other keys
    calls: int = 0
    work: int = 0


class Tracer:
    """In-memory span store.  A span's parent is the innermost wrapped call
    open when it started; its root (scenario.load, engine.run or artifacts)
    names the phase."""

    def __init__(self):
        self.keys: list[str] = []
        self._key_ids: dict[str, int] = {}
        self.key = array("i")
        self.parent = array("i")
        self.root = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.counts: dict[tuple[int, int], int] = {}
        self.problems: list[str] = []
        self._stack: list[int] = []

    def key_id(self, key):
        if key not in self._key_ids:
            self._key_ids[key] = len(self.keys)
            self.keys.append(key)
        return self._key_ids[key]

    def _open(self, kid, work):
        idx = len(self.start)
        stack = self._stack
        self.key.append(kid)
        self.parent.append(stack[-1] if stack else -1)
        self.root.append(stack[0] if stack else idx)
        self.work.append(work)
        self.end.append(0.0)
        self.start.append(0.0)
        stack.append(idx)
        self.start[idx] = perf_counter()
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, key):
        """A span around code of the benchmark itself (e.g. the artifact phase)."""
        idx = self._open(self.key_id(key), 0.0)
        try:
            yield
        finally:
            self._close(idx)

    def problem(self, message):
        if message not in self.problems:
            self.problems.append(message)

    def _work(self, key, work, args, kwargs):
        try:
            return float(work(*args, **kwargs))
        except Exception as exc:  # the count must not change the traced call
            self.problem(f"{key}: work count failed: {exc!r}")
            return 0.0

    def wrap(self, key, fn, work=None):
        kid = self.key_id(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(kid, self._work(key, work, args, kwargs) if work else 0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def count(self, key, fn):
        kid = self.key_id(key)
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            slot = (self._stack[0] if self._stack else -1, kid)
            counts[slot] = counts.get(slot, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def _arrays(self):
        # copies, so the arrays can keep growing afterwards
        ints = [np.array(a, dtype=np.int64) for a in (self.key, self.parent, self.root)]
        floats = [np.array(a, dtype=float) for a in (self.start, self.end, self.work)]
        return (*ints, *floats)

    def phases(self):
        """{root key: {layer key: LayerStat}} summed over roots with the same key.

        Within a phase the self times of all keys add up to the root spans'
        durations, because every non-root span has its parent in the phase.
        """
        key, parent, root, start, end, work = self._arrays()
        n = len(key)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_t = dur - child
        parent_key = np.where(has_parent, key[np.maximum(parent, 0)], -1)
        out: dict[str, dict[str, LayerStat]] = {}
        for r in np.flatnonzero(root == np.arange(n)):
            phase = out.setdefault(self.keys[key[r]], {})
            in_phase = root == r
            for kid in np.unique(key[in_phase]):
                mine = in_phase & (key == kid)
                stat = phase.setdefault(self.keys[kid], LayerStat())
                stat.incl_s += float(dur[mine & (parent_key != kid)].sum())
                stat.self_s += float(self_t[mine].sum())
                stat.calls += int(mine.sum())
                stat.work += int(work[mine].sum())
        for (r, kid), c in self.counts.items():
            if r < 0:
                continue
            stat = out.setdefault(self.keys[key[r]], {}).setdefault(self.keys[kid], LayerStat())
            stat.calls += c
        return out

    def save(self, path):
        """Write every span (key, start, end, parent, root, work) as .npz."""
        key, parent, root, start, end, work = self._arrays()
        t0 = float(start.min()) if len(start) else 0.0
        np.savez_compressed(
            Path(path), keys=np.array(self.keys), key=key, parent=parent, root=root,
            start_s=start - t0, end_s=end - t0, work=work,
        )


def _current(owner, attr):
    # a class's own attribute, so that a method is restored as the plain function
    return owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)


@contextmanager
def install(tracer: Tracer):
    """Patch every target with a wrapper feeding ``tracer``; restore on exit."""
    originals = []
    try:
        for owner, attr, key, work in TARGETS:
            fn = _current(owner, attr)
            if fn is None:
                tracer.problem(f"{key}: {owner.__name__}.{attr} is gone, so it is not traced")
                continue
            originals.append((owner, attr, fn))
            wrapper = tracer.count(key, fn) if work == COUNT_ONLY else tracer.wrap(key, fn, work)
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)


def installed_targets():
    """The functions currently reachable at every target (for restore checks)."""
    return [_current(owner, attr) for owner, attr, _, _ in TARGETS]
