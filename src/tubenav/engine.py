"""Fixed-step swarm simulation engine.

Explicit Euler on the single-integrator model: every robot's command is
evaluated on the same pre-step snapshot (synchronous update), positions
advance by dt times the command, and robots whose arc-length coordinate
reaches the tube end exit and stop interacting.  The state is the run
log's row (positions, active flags), every snapshot's commands come from
one batched call, and containment (here) and the safety margins (in
compose_velocity) are asserted on every snapshot, the initial one
included; a violation aborts the run loudly with a partial log rather
than being silently corrected.

Runs are deterministic: identical scenario inputs produce bit-identical
logs.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

# avoidance_batch, density_error_l2_from_view, min_pairwise_from_positions
# and amd_from_positions are not called here; they stay importable from this
# module because bench/tracing.py looks the layers up by name here
from .blocks import row_blocks
from .control import ControllerParams, avoidance_batch, compose_velocity  # noqa: F401
from .density import (  # noqa: F401
    DensityView,
    DesiredDensity,
    density_error_l2_from_view,
    density_errors_l2,
    occupied_region_from_arclengths,
    silverman_bandwidth,
)
from .errors import SafetyViolation
from .geometry import VirtualTube
from .metrics import COND23_TOL, METRIC_DTYPE, MetricsRecord, PairList, neighbours
from .metrics import amd_from_positions, min_pairwise_from_positions  # noqa: F401

_EXIT_TOL = 1e-12
# The skin of a run's Verlet lists, in steps at full speed: K v_max dt.  No
# robot moves farther than v_max dt between records, so the wall list
# lasts at least K records and the pair list K / 2.  Chosen by a sweep
# (see CHANGES.md).
SKIN_STEPS = 10


def _row(name, doc):
    return property(lambda self: getattr(self._log, name)[self._k], doc=doc)


class StepRecord:
    """Record k of a log, as views of row k of the log's arrays: writing
    into one of them writes the log."""

    __slots__ = ("_log", "_k")

    def __init__(self, log, k):
        self._log = log
        self._k = k

    @property
    def time(self):
        return self._log.time[self._k].item()

    positions = _row("positions", "(N, 2), inactive robots hold their last position")
    velocities = _row("velocities", "(N, 2), zero for inactive robots")
    u1 = _row("u1", "(N, 2)")
    u2 = _row("u2", "(N, 2)")
    u3 = _row("u3", "(N, 2)")
    u4 = _row("u4", "(N, 2)")
    kappa = _row("kappa", "(N,)")
    active = _row("active", "(N,) bool")

    @property
    def metrics(self):
        return MetricsRecord(self._log, self._k)


class Records(Sequence):
    """A log's records, a read-only sequence of StepRecord views."""

    __slots__ = ("_log",)

    def __init__(self, log):
        self._log = log

    def __len__(self):
        return len(self._log.time)

    def __getitem__(self, k):
        rows = range(len(self))[k]
        if isinstance(rows, range):
            return [StepRecord(self._log, i) for i in rows]
        return StepRecord(self._log, rows)


# the log's arrays, each with a row per record
_ROW_FIELDS = ("time", "positions", "velocities", "u1", "u2", "u3", "u4", "kappa", "active",
               "metrics")


@dataclass(eq=False, slots=True)
class SimulationLog:
    """A run's log: one array per logged field, with a row per record.

    ``time`` is (R,); ``positions``, ``velocities`` and ``u1``..``u4`` are
    (R, N, 2), ``kappa`` (R, N) and ``active`` (R, N) bool; ``metrics`` is
    (R,) of METRIC_DTYPE, a field per metric.  ``records`` views the same
    rows one record at a time.
    """

    fingerprint: str
    scenario: dict
    time: np.ndarray
    positions: np.ndarray   # inactive robots hold their last position
    velocities: np.ndarray  # zero for inactive robots
    u1: np.ndarray
    u2: np.ndarray
    u3: np.ndarray
    u4: np.ndarray
    kappa: np.ndarray
    active: np.ndarray
    metrics: np.ndarray
    termination: str = "time-limit"  # all-exited | time-limit | fault
    fault: dict | None = None

    @classmethod
    def allocate(cls, fingerprint, scenario, n_robots, capacity):
        """A log with room for ``capacity`` records of ``n_robots``, every
        row zero: the arrays are allocated zeroed, so the rows a run never
        writes are never made resident."""
        vector = (capacity, n_robots, 2)
        return cls(
            fingerprint, scenario, np.zeros(capacity),
            *(np.zeros(vector) for _ in range(6)),
            np.zeros((capacity, n_robots)), np.zeros((capacity, n_robots), dtype=bool),
            np.zeros(capacity, METRIC_DTYPE),
        )

    def head(self, count):
        """The log of its first ``count`` records, as views; the log itself
        when it holds no more."""
        if count == len(self.time):
            return self
        return replace(self, **{name: getattr(self, name)[:count] for name in _ROW_FIELDS})

    @property
    def records(self):
        return Records(self)

    @property
    def exit_times(self):
        """Exit time of each exited robot: its first inactive record's time."""
        gone = ~self.active
        robots = np.flatnonzero(gone.any(axis=0))
        return dict(zip(robots.tolist(), self.time[gone.argmax(axis=0)[robots]].tolist()))

    @property
    def step_count(self):
        return len(self.time) - 1

    def final_metrics(self):
        return MetricsRecord(self, len(self.time) - 1) if len(self.time) else None


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _point_segment_distances(pts, a, b):
    """Distance from each of pts (M, 2) to the closed segment [a, b]."""
    ab = b - a
    denom = float(ab @ ab)
    t = np.zeros(len(pts)) if denom == 0 else np.clip((pts - a) @ ab / denom, 0.0, 1.0)
    return np.linalg.norm(pts - (a + t[:, None] * ab), axis=1)


def validate_initial(pts, tube: VirtualTube, params: ControllerParams):
    """Initial-condition checks of pts (N, 2): strictly collision-free,
    strictly clear of the full boundary (terminal sections included), all
    inside the tube.  Returns a list of violation descriptions; empty means ok."""
    problems = []
    pairs = neighbours(pts, params.avoidance_reach)
    close = np.flatnonzero((pairs.i < pairs.j) & (pairs.d <= 2.0 * params.r_s))
    close = close[np.lexsort((pairs.j[close], pairs.i[close]))]
    for i, j, d in zip(pairs.i[close], pairs.j[close], pairs.d[close]):
        problems.append(f"robots {i} and {j} at distance {d:.4f} <= 2 r_s = {2 * params.r_s}")
    _, inside = tube.locate(pts)
    for i in np.flatnonzero(~inside):
        problems.append(f"robot {i} at {tuple(pts[i].tolist())} is outside the tube")
    ids = np.flatnonzero(inside)
    d_lat, _ = tube.boundary_distance_many(pts[ids])
    close = d_lat <= params.r_s
    for i, di in zip(ids[close], d_lat[close]):
        problems.append(f"robot {i} boundary distance {di:.4f} <= r_s = {params.r_s}")
    for a, b in tube.terminal_sections():
        d_end = _point_segment_distances(pts[ids], a, b)
        close = d_end <= params.r_s
        for i, di in zip(ids[close], d_end[close]):
            problems.append(f"robot {i} terminal-section distance {di:.4f} <= r_s = {params.r_s}")
    return problems


# ---------------------------------------------------------------------------
# exit rule
# ---------------------------------------------------------------------------

def apply_exit_rule(active, tube: VirtualTube, projections):
    """Deactivate robots whose arc-length coordinate has reached the tube
    end; they stop affecting neighbors and density from the next evaluation.
    ``projections`` projects the robots flagged in ``active``, in index
    order.  Closed tubes never exit.  Clears the exited robots' flags and
    returns the mask, over the flagged robots, of those still active."""
    if tube.closed:
        return np.ones(len(projections.l), dtype=bool)
    out = (projections.l >= tube.length - _EXIT_TOL) | projections.beyond_end
    if out.any():
        active[np.flatnonzero(active)[out]] = False
    return ~out


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

class _Snapshot:
    """Everything derived from one state and shared by all robots: rows over
    the robots still active after the exit rule."""

    def __init__(self, time, positions, active, tube, params, mode, previous, wall_list,
                 pair_list):
        """``positions`` and ``active``: a log row, whose flags the exit
        rule clears.  ``previous``: the previous snapshot, or None at the
        first.  Its robots are the ones active now, and its projection seeds
        this one's: its arc lengths start the Newton iterations and its
        spine frames stand in for their first evaluation.  The first
        snapshot's projections start from the seed polyline.  ``wall_list``
        and ``pair_list``: the run's skin lists, passed the active positions.
        The density estimate and both gradients feed only the regulation
        term, which the baseline mode drops, so there they are None."""
        self.time = time
        if previous is None:
            before = np.flatnonzero(active)
            prs, inside = tube.locate(positions[before])
        else:
            before = previous.ids
            prs, inside = tube.locate(positions[before], previous.l, previous.frames)
        stay = apply_exit_rule(active, tube, prs)
        keep = slice(None) if stay.all() else stay  # views while no robot exits
        self.ids = before[keep]
        self.l, self.r, self.curvature = prs.l[keep], prs.r[keep], prs.curvature[keep]
        self.frames = tuple(part[keep] for part in prs.frames)
        self.tangent = self.frames[1]
        # no kept row lies beyond the end, so this is the tube membership
        self.inside = inside[keep]
        self.positions = positions[self.ids]
        self.boundary_d, self.boundary_dir = tube.boundary_distance_many(
            self.positions, wall_list)
        m = len(self.ids)
        # the one pair structure of the snapshot: the record's metrics and
        # the avoidance term, with its safety check, both read it
        self.pairs = neighbours(self.positions, params.avoidance_reach, pair_list)
        self.min_pair = float(self.pairs.nearest.min()) if m >= 2 else math.nan

        self.view = self.region = self.dd = None
        if not m:
            self.rho_hat, self.grad_hat, self.grad_d = np.zeros(0), np.zeros((0, 2)), np.zeros((0, 2))
            return
        # built in both modes: the baseline arm ignores the density for
        # control but still reports the tracking-error metric
        bandwidth = (
            params.h if params.h is not None else silverman_bandwidth(self.positions, params.r_s)
        )
        delta_l = max(bandwidth, params.r_s)
        self.region = occupied_region_from_arclengths(self.l, tube, min_halfwidth=delta_l)
        self.view = DensityView(self.positions, bandwidth)
        if mode == "baseline":
            self.dd = DesiredDensity(tube, self.region, delta_l=delta_l)
            self.rho_hat = self.grad_hat = self.grad_d = None
        else:
            self.dd = DesiredDensity(tube, self.region, delta_l=delta_l,
                                     at=(self.l, self.r, self.tangent, self.curvature))
            self.rho_hat, self.grad_hat = self.view.estimate_and_gradient_many(self.positions)
            # the error metric's pending list keeps the target, not its gradient
            self.grad_d, self.dd.gradient = self.dd.gradient, None

    def containment_check(self):
        if not self.inside.all():
            k = int(np.argmin(self.inside))
            i, l, r = int(self.ids[k]), float(self.l[k]), float(self.r[k])
            raise SafetyViolation(
                f"robot {i} left the tube (l={l:.4f}, r={r:.4f})",
                kind="containment",
                details={"robot": i, "l": l, "r": r, "time": self.time},
            )


def _record(log, k, snapshot, commands):
    """Write the rest of row k of the log, whose state run wrote: the time,
    the commands and the metrics, with the density error NaN: run fills it
    in later, with the rest of its chunk (see _fill_density_errors).
    ``commands`` is compose_velocity's result over the snapshot's active
    robots, or None after a fault, whose record keeps zero commands and kappa 1."""
    ids = snapshot.ids
    n_active = len(ids)
    log.time[k] = snapshot.time
    log.kappa[k] = 1.0
    cond_ok, max_norm = True, math.nan
    if commands is not None:
        u1, u2, u3, u4, v, kappa = commands
        for column, value in zip((log.u1, log.u2, log.u3, log.u4, log.velocities), commands):
            column[k, ids] = value
        log.kappa[k, ids] = kappa
        if n_active:
            # |u1 + u2 + u3|, |u4| and |v| in one pass of numpy.linalg.norm's
            # arithmetic: the sum of the squares of each row, then sqrt
            norms = np.array([u1 + u2 + u3, u4, v])
            n123, n4, nv = np.sqrt(np.add.reduce(norms * norms, axis=2))
            cond_ok = not (n4 > n123 + COND23_TOL).any()
            max_norm = float(nv.max())
    # the active robots are the snapshot's, so the rest have exited
    log.metrics[k] = (  # in METRIC_DTYPE's order, the density error NaN
        snapshot.min_pair,
        snapshot.boundary_d.min() if n_active else math.nan,
        np.add.reduce(snapshot.pairs.nearest) / n_active if n_active >= 2 else math.nan,
        log.active.shape[1] - n_active,
        math.nan,
        cond_ok,
        max_norm,
    )


def _fill_density_errors(pending, log, tube, density_grid):
    """Write the density-error metric of every pending record, a (row,
    view, target, region) tuple each, from one density_errors_l2 pass over
    their grids, and empty the list."""
    if pending:
        rows, views, targets, regions = zip(*pending)
        log.metrics["density_error_l2"][list(rows)] = density_errors_l2(
            views, targets, tube, regions, density_grid)
        pending.clear()


def run(scenario) -> SimulationLog:
    """Run a validated scenario to completion and return the full log.

    The scenario supplies tube, params, mode, dt, t_end, density grid and
    initial positions; see tubenav.scenario.  Every record's snapshot passes
    the containment check, and compose_velocity's safety checks while it
    composes the commands; a violation ends the log with a fault record
    that carries no commands.

    The log is allocated for the n_steps + 1 records the run can write.
    Its row k is the state at record k, and the Euler update writes row
    k + 1 only when the run goes on; a run that stops early returns views
    of the rows it wrote.

    No command reads the density-error metric, so it is left out of the
    step: the records with a density wait in a list, and one array pass
    fills in their errors when the list holds a chunk of them and when the
    run ends.  A chunk holds as many records as row_blocks fits of one
    grid each, so the pass's arrays stay within one block.

    The wall query and the neighbour pass keep their candidates across
    records in two skin lists of the active robots (see
    geometry.SegmentList and metrics.PairList), with a skin of SKIN_STEPS
    v_max dt.  Both rebuild after a skin of motion and when the active set
    changes: robots only leave it, so it changes with its size.  Their
    answers equal the use-once queries bit for bit.
    """
    tube = scenario.tube
    params = scenario.params
    dt = scenario.dt
    grid = scenario.density_grid
    n_steps = 0 if scenario.t_end <= 0 else int(math.ceil(scenario.t_end / dt - 1e-9))
    log = SimulationLog.allocate(scenario.fingerprint, scenario.resolved,
                                 len(scenario.positions), n_steps + 1)
    positions, active = log.positions, log.active
    positions[0] = scenario.positions
    active[0] = True
    chunk, _ = row_blocks(n_steps + 1, grid[0] * grid[1])
    pending = []
    skin = SKIN_STEPS * params.v_max * dt
    wall_list, pair_list = tube.wall_list(skin), PairList(skin)

    k = 0
    snap = None
    while True:
        snap = _Snapshot(k * dt, positions[k], active[k], tube, params, scenario.mode, snap,
                         wall_list, pair_list)
        try:
            snap.containment_check()
            commands = compose_velocity(
                params, scenario.mode, snap.pairs, snap.tangent, snap.boundary_d,
                snap.boundary_dir, snap.rho_hat, snap.grad_hat, snap.grad_d, snap.ids,
                snap.time,
            )
        except SafetyViolation as exc:
            commands = None
            log.termination = "fault"
            log.fault = {"kind": exc.kind, "message": str(exc), **exc.details}
        _record(log, k, snap, commands)
        if snap.view is not None:
            pending.append((k, snap.view, snap.dd, snap.region))
        if commands is None or not len(snap.ids) or k >= n_steps:
            break
        if len(pending) == chunk:
            _fill_density_errors(pending, log, tube, grid)
        positions[k + 1] = positions[k]
        positions[k + 1, snap.ids] = snap.positions + dt * commands[4]
        active[k + 1] = active[k]
        k += 1
    if commands is not None:
        log.termination = "time-limit" if len(snap.ids) else "all-exited"
    _fill_density_errors(pending, log, tube, grid)
    return log.head(k + 1)
