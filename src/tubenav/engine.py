"""Fixed-step swarm simulation engine.

Explicit Euler on the single-integrator model: every robot's command is
evaluated on the same pre-step snapshot (synchronous update), positions
advance by dt times the command, and robots whose arc-length coordinate
reaches the tube end exit and stop interacting.  The state is held as
arrays (see tubenav.state), every snapshot's commands come from one
batched call, and containment and safety margins are asserted on every
snapshot, the initial one included; a violation aborts the run loudly with
a partial log rather than being silently corrected.

Runs are deterministic: identical scenario inputs produce bit-identical
logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
from .metrics import COND23_TOL, MetricsRecord, PairList, neighbours
from .metrics import amd_from_positions, min_pairwise_from_positions  # noqa: F401
from .state import SwarmState

_EXIT_TOL = 1e-12
# The skin of a run's Verlet lists, in steps at full speed: K v_max dt.  No
# robot moves farther than v_max dt between records, so the wall list
# lasts at least K records and the pair list K / 2.  Chosen by a sweep
# (see CHANGES.md).
SKIN_STEPS = 10


@dataclass
class StepRecord:
    """Snapshot of one simulation state plus the commands computed on it."""

    time: float
    positions: np.ndarray   # (N, 2), inactive robots hold their last position
    velocities: np.ndarray  # (N, 2), zero for inactive robots
    u1: np.ndarray
    u2: np.ndarray
    u3: np.ndarray
    u4: np.ndarray
    kappa: np.ndarray       # (N,)
    active: np.ndarray      # (N,) bool
    metrics: MetricsRecord


@dataclass
class SimulationLog:
    fingerprint: str
    scenario: dict
    records: list[StepRecord] = field(default_factory=list)
    termination: str = "time-limit"  # all-exited | time-limit | fault
    fault: dict | None = None
    exit_times: dict[int, float] = field(default_factory=dict)

    @property
    def step_count(self):
        return len(self.records) - 1

    def final_metrics(self):
        return self.records[-1].metrics if self.records else None


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _point_segment_distances(pts, a, b):
    """Distance from each of pts (M, 2) to the closed segment [a, b]."""
    ab = b - a
    denom = float(ab @ ab)
    t = np.zeros(len(pts)) if denom == 0 else np.clip((pts - a) @ ab / denom, 0.0, 1.0)
    return np.linalg.norm(pts - (a + t[:, None] * ab), axis=1)


def validate_initial(swarm: SwarmState, tube: VirtualTube, params: ControllerParams):
    """Initial-condition checks: strictly collision-free, strictly clear of
    the full boundary (terminal sections included), all inside the tube.
    Returns a list of violation descriptions; empty means ok."""
    problems = []
    pts = swarm.active_positions()
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

def apply_exit_rule(swarm: SwarmState, tube: VirtualTube, projections):
    """Deactivate robots whose arc-length coordinate has reached the tube
    end; they stop affecting neighbors and density from the next evaluation.
    ``projections`` is the array projection of the active robots, in index
    order.  Closed tubes never exit.  Mutates the swarm and returns the mask,
    over the robots that were active, of those still active."""
    if tube.closed:
        return np.ones(len(projections.l), dtype=bool)
    out = (projections.l >= tube.length - _EXIT_TOL) | projections.beyond_end
    gone = np.flatnonzero(swarm.active)[out]
    swarm.active[gone] = False
    swarm.exit_time[gone] = swarm.time
    swarm.velocities[gone] = 0.0
    return ~out


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

class Proximity:
    """The skin lists of one run: the wall candidates and the robot pairs of
    the active robots, kept across records (see geometry.SegmentList and
    metrics.PairList), with a skin of SKIN_STEPS v_max dt.  Both rebuild
    after a skin of motion and when the active set changes: robots only
    leave it, so it changes with its size.  Their answers equal the
    use-once queries bit for bit."""

    def __init__(self, tube, params, dt):
        skin = SKIN_STEPS * params.v_max * dt
        self.walls = tube.wall_list(skin)
        self.pairs = PairList(skin)


class _Snapshot:
    """Everything derived from one state and shared by all robots: rows over
    the robots still active after the exit rule."""

    def __init__(self, swarm, tube, params, seeds, proximity):
        """``seeds``: every robot's arc length at the previous snapshot, or
        None at the first, whose projections start from the seed polyline.
        ``proximity``: the run's skin lists, passed the active positions."""
        self.time = swarm.time
        before = np.flatnonzero(swarm.active)
        prs, inside = tube.locate(
            swarm.positions[before], seeds=None if seeds is None else seeds[before]
        )
        stay = apply_exit_rule(swarm, tube, prs)
        self.exited = before[~stay]
        self.ids = before[stay]
        self.l = prs.l[stay]
        self.r = prs.r[stay]
        self.tangent = prs.tangent[stay]
        self.curvature = prs.curvature[stay]
        # no kept row lies beyond the end, so this is the tube membership
        self.inside = inside[stay]
        self.positions = swarm.positions[self.ids]
        self.boundary_d, self.boundary_dir = tube.boundary_distance_many(
            self.positions, proximity.walls)
        m = len(self.ids)
        # the one pair structure of the snapshot: the safety check, the
        # record's metrics and the avoidance term all read it
        self.pairs = neighbours(self.positions, params.avoidance_reach, proximity.pairs)
        self.min_pair = float(np.min(self.pairs.nearest)) if m >= 2 else math.nan

        self.view = None
        self.region = None
        self.dd = None
        self.rho_hat = np.zeros(m)
        self.grad_hat = np.zeros((m, 2))
        self.grad_d = np.zeros((m, 2))
        if m:
            # built in both modes: the baseline arm ignores the density for
            # control but still reports the tracking-error metric
            bandwidth = (
                params.h if params.h is not None else silverman_bandwidth(self.positions, params.r_s)
            )
            delta_l = max(bandwidth, params.r_s)
            self.region = occupied_region_from_arclengths(self.l, tube, min_halfwidth=delta_l)
            self.view = DensityView(self.positions, bandwidth)
            self.dd = DesiredDensity(tube, self.region, delta_l=delta_l)
            self.rho_hat, self.grad_hat = self.view.estimate_and_gradient_many(self.positions)
            self.grad_d = self.dd.gradient_many(self.l, self.r, self.tangent, self.curvature)

    def containment_check(self):
        if not self.inside.all():
            k = int(np.argmin(self.inside))
            i, l, r = int(self.ids[k]), float(self.l[k]), float(self.r[k])
            raise SafetyViolation(
                f"robot {i} left the tube (l={l:.4f}, r={r:.4f})",
                kind="containment",
                details={"robot": i, "l": l, "r": r, "time": self.time},
            )

    def safety_check(self, params):
        if self.min_pair <= 2.0 * params.r_s:
            a, b, d = self.pairs.closest_pair()
            i, j = int(self.ids[a]), int(self.ids[b])
            raise SafetyViolation(
                f"robots {i} and {j} at min pairwise distance {d:.6f} <= 2 r_s = {2 * params.r_s}",
                kind="robot-robot",
                details={"i": i, "j": j, "distance": d, "time": self.time},
            )
        if len(self.ids):
            k = int(np.argmin(self.boundary_d))
            i, b = int(self.ids[k]), float(self.boundary_d[k])
            if b <= params.r_s:
                raise SafetyViolation(
                    f"robot {i} at min boundary distance {b:.6f} <= r_s = {params.r_s}",
                    kind="boundary",
                    details={"robot": i, "distance": b, "time": self.time},
                )


def _metrics(snapshot, swarm, commands):
    """The record's metrics, with the density error NaN: run fills it in
    later, with the rest of its chunk (see _fill_density_errors)."""
    pts = snapshot.positions
    n_active = len(pts)
    amd_val = float(np.mean(snapshot.pairs.nearest)) if n_active >= 2 else math.nan
    min_bound = float(np.min(snapshot.boundary_d)) if n_active >= 1 else math.nan
    cond_ok, max_norm = True, math.nan
    if commands is not None and n_active:
        u1, u2, u3, u4, v, _ = commands
        n123 = np.linalg.norm(u1 + u2 + u3, axis=1)
        cond_ok = not np.any(np.linalg.norm(u4, axis=1) > n123 + COND23_TOL)
        max_norm = float(np.max(np.linalg.norm(v, axis=1)))
    return MetricsRecord(
        time=swarm.time,
        min_pairwise_distance=snapshot.min_pair,
        min_boundary_distance=min_bound,
        amd=amd_val,
        exited_count=int(np.count_nonzero(~swarm.active)),
        density_error_l2=math.nan,
        condition23_ok=cond_ok,
        max_command_norm=max_norm,
    )


def _record(snapshot, swarm, commands):
    """The record of one snapshot; ``commands`` is compose_velocity's
    result over the snapshot's active robots, or None after a fault."""
    n = len(swarm.positions)
    terms = np.zeros((5, n, 2))
    kappa = np.ones(n)
    if commands is not None:
        terms[:, snapshot.ids] = commands[:5]
        kappa[snapshot.ids] = commands[5]
    u1, u2, u3, u4, velocities = terms
    return StepRecord(
        time=swarm.time,
        positions=swarm.positions.copy(),
        velocities=velocities,
        u1=u1,
        u2=u2,
        u3=u3,
        u4=u4,
        kappa=kappa,
        active=swarm.active.copy(),
        metrics=_metrics(snapshot, swarm, commands),
    )


def _fill_density_errors(pending, tube, density_grid):
    """Write the density-error metric of every pending record, a (metrics,
    view, target, region) row each, from one density_errors_l2 pass over
    their grids, and empty the list."""
    if pending:
        metrics, views, targets, regions = zip(*pending)
        errors = density_errors_l2(views, targets, tube, regions, density_grid)
        for m, err in zip(metrics, errors.tolist()):
            m.density_error_l2 = err
        pending.clear()


def run(scenario) -> SimulationLog:
    """Run a validated scenario to completion and return the full log.

    The scenario supplies tube, params, mode, dt, t_end, density grid and
    the initial state; see tubenav.scenario.  Every record's snapshot passes
    the containment and safety checks before its commands are composed; a
    violation ends the log with a fault record that carries no commands.

    No command reads the density-error metric, so it is left out of the
    step: the records with a density wait in a list, and one array pass
    fills in their errors when the list holds a chunk of them and when the
    run ends.  A chunk holds as many records as row_blocks fits of one
    grid each, so the pass's arrays stay within one block.

    The wall query and the neighbour pass keep their candidates across
    records in the run's Proximity lists.
    """
    tube = scenario.tube
    params = scenario.params
    dt = scenario.dt
    grid = scenario.density_grid
    log = SimulationLog(fingerprint=scenario.fingerprint, scenario=scenario.resolved)

    state = scenario.initial_state()
    n_steps = 0 if scenario.t_end <= 0 else int(math.ceil(scenario.t_end / dt - 1e-9))
    arc = np.full(len(state.positions), np.nan)  # previous snapshot's arc lengths
    chunk, _ = row_blocks(n_steps + 1, grid[0] * grid[1])
    pending = []
    proximity = Proximity(tube, params, dt)

    k = 0
    while True:
        state.time = k * dt
        snap = _Snapshot(state, tube, params, arc if k else None, proximity)
        log.exit_times.update(dict.fromkeys(snap.exited.tolist(), snap.time))
        try:
            snap.containment_check()
            snap.safety_check(params)
            commands = compose_velocity(
                tube, params, scenario.mode, snap.pairs, snap.l, snap.tangent,
                snap.boundary_d, snap.boundary_dir, snap.rho_hat, snap.grad_hat,
                snap.grad_d, snap.ids, snap.time,
            )
        except SafetyViolation as exc:
            commands = None
            log.termination = "fault"
            log.fault = {"kind": exc.kind, "message": str(exc), **exc.details}
        rec = _record(snap, state, commands)
        log.records.append(rec)
        if snap.view is not None:
            pending.append((rec.metrics, snap.view, snap.dd, snap.region))
        if commands is None or not len(snap.ids) or k >= n_steps:
            break
        if len(pending) == chunk:
            _fill_density_errors(pending, tube, grid)
        v = commands[4]
        state.velocities[snap.ids] = v
        state.positions[snap.ids] = state.positions[snap.ids] + dt * v
        arc[snap.ids] = snap.l
        k += 1
    if commands is not None:
        log.termination = "time-limit" if len(snap.ids) else "all-exited"
    _fill_density_errors(pending, tube, grid)
    return log
