"""Fixed-step swarm simulation engine.

Explicit Euler on the single-integrator model: every robot's command is
evaluated on the same pre-step snapshot (synchronous update), positions
advance by dt times the command, and robots whose arc-length coordinate
reaches the tube end exit and stop interacting.  Safety margins are asserted
after every step; a violation aborts the run loudly with a partial log
rather than being silently corrected.

Runs are deterministic: identical scenario inputs produce bit-identical
logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .control import ControllerParams, avoidance_batch, compose_velocity
from .density import (
    DensityView,
    DesiredDensity,
    density_error_l2_from_view,
    occupied_region_from_arclengths,
    silverman_bandwidth,
)
from .errors import SafetyViolation
from .geometry import CurvilinearCoord, VirtualTube
from .metrics import COND23_TOL, MetricsRecord, amd_from_positions, min_pairwise_from_positions
from .state import SwarmState

_EXIT_TOL = 1e-12


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
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    for i, j in zip(*np.nonzero(np.triu(d <= 2.0 * params.r_s, k=1))):
        problems.append(
            f"robots {i} and {j} at distance {d[i, j]:.4f} <= 2 r_s = {2 * params.r_s}"
        )
    inside = np.array([tube.locate(p)[1] for p in pts], dtype=bool)
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

def apply_exit_rule(swarm: SwarmState, tube: VirtualTube, projections=None):
    """Deactivate robots whose arc-length coordinate has reached the tube
    end; they stop affecting neighbors and density from the next evaluation.
    Closed tubes never exit.  Mutates and returns the swarm."""
    if tube.closed:
        return swarm
    L = tube.length
    for i, robot in enumerate(swarm.robots):
        if not robot.active:
            continue
        pr = projections[i] if projections is not None else tube.curve.project(robot.position)
        if pr.l >= L - _EXIT_TOL or pr.beyond_end:
            robot.active = False
            robot.exit_time = swarm.time
            robot.velocity = np.zeros(2)
    return swarm


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

class _Snapshot:
    """Everything derived from one state and shared by all robots."""

    def __init__(self, swarm, tube, params, seeds=None, with_density=True):
        self.swarm = swarm
        n = len(swarm.robots)
        self.projections = [None] * n
        active = [i for i in range(n) if swarm.robots[i].active]
        if active:
            pts = np.array([swarm.robots[i].position for i in active])
            seed_arr = None
            if seeds is not None:
                seed_arr = np.array([seeds[i] if seeds[i] is not None else np.nan for i in active])
                if np.isnan(seed_arr).any():
                    seed_arr = None
            prs = tube.curve.project_many(pts, seeds=seed_arr)
            for k, i in enumerate(active):
                self.projections[i] = prs[k]
        apply_exit_rule(swarm, tube, projections=self.projections)

        self.active = [i for i in range(n) if swarm.robots[i].active]
        self.positions = (
            np.array([swarm.robots[i].position for i in self.active])
            if self.active
            else np.zeros((0, 2))
        )
        if len(self.active):
            self.boundary_d, self.boundary_dir = tube.boundary_distance_many(self.positions)
        else:
            self.boundary_d = np.zeros(0)
            self.boundary_dir = np.zeros((0, 2))
        # shared by the safety check and the record's metrics
        self.min_pair = (
            min_pairwise_from_positions(self.positions) if len(self.active) >= 2 else math.nan
        )

        self.view = None
        self.region = None
        self.dd = None
        self.bandwidth = None
        self.rho_hat = None
        self.grad_hat = None
        self.grad_d = None
        if with_density and self.active:
            self.bandwidth = (
                params.h
                if params.h is not None
                else silverman_bandwidth(self.positions, params.r_s)
            )
            delta_l = max(self.bandwidth, params.r_s)
            ls = [self.projections[i].l for i in self.active]
            rs = [self.projections[i].r for i in self.active]
            self.region = occupied_region_from_arclengths(ls, tube, min_halfwidth=delta_l)
            self.view = DensityView(self.positions, self.bandwidth, params.rho_floor)
            self.dd = DesiredDensity(tube, self.region, delta_l=delta_l)
            # one batch per step for every robot's regulation ingredients
            self.rho_hat, self.grad_hat = self.view.estimate_and_gradient_many(self.positions)
            self.grad_d = self.dd.gradient_many(ls, rs)

    def containment_check(self, tube):
        for k, i in enumerate(self.active):
            pr = self.projections[i]
            r_d = float(tube.widths.r_d(pr.l))
            r_u = float(tube.widths.r_u(pr.l))
            if pr.beyond_start or not (-r_d - 1e-9 <= pr.r <= r_u + 1e-9):
                raise SafetyViolation(
                    f"robot {i} left the tube (l={pr.l:.4f}, r={pr.r:.4f})",
                    kind="containment",
                    details={"robot": i, "l": pr.l, "r": pr.r, "time": self.swarm.time},
                )

    def safety_check(self, params):
        pts = self.positions
        if len(pts) >= 2:
            d = self.min_pair
            if d <= 2.0 * params.r_s:
                raise SafetyViolation(
                    f"min pairwise distance {d:.6f} <= 2 r_s = {2 * params.r_s}",
                    kind="robot-robot",
                    details={"distance": d, "time": self.swarm.time},
                )
        if len(pts) >= 1:
            b = float(np.min(self.boundary_d))
            if b <= params.r_s:
                raise SafetyViolation(
                    f"min boundary distance {b:.6f} <= r_s = {params.r_s}",
                    kind="boundary",
                    details={"distance": b, "time": self.swarm.time},
                )


def _commands(snapshot, tube, params, mode):
    u2_all = avoidance_batch(
        params, snapshot.positions, ids=snapshot.active, time=snapshot.swarm.time
    )
    cmds = {}
    for k, i in enumerate(snapshot.active):
        pr = snapshot.projections[i]
        coord = CurvilinearCoord(l=pr.l, r=pr.r)
        boundary = (float(snapshot.boundary_d[k]), snapshot.boundary_dir[k])
        parts = None
        if mode == "full" and snapshot.rho_hat is not None:
            parts = (snapshot.rho_hat[k], snapshot.grad_hat[k], snapshot.grad_d[k])
        cmds[i] = compose_velocity(
            tube,
            params,
            i,
            snapshot.swarm,
            snapshot.view,
            snapshot.dd,
            mode=mode,
            coord=coord,
            boundary=boundary,
            density_parts=parts,
            u2=u2_all[k],
        )
    return cmds


def _metrics(snapshot, tube, params, cmds, density_grid):
    pts = snapshot.positions
    n_active = len(pts)
    swarm = snapshot.swarm
    exited = sum(1 for r in swarm.robots if not r.active)
    amd_val = amd_from_positions(pts) if n_active >= 2 else math.nan
    min_bound = float(np.min(snapshot.boundary_d)) if n_active >= 1 else math.nan
    if snapshot.view is not None:
        err = density_error_l2_from_view(
            snapshot.view, snapshot.dd, tube, snapshot.region, density_grid
        )
    else:
        err = math.nan
    cond_ok = True
    max_norm = 0.0 if cmds else math.nan
    for cmd in cmds.values():
        if np.linalg.norm(cmd.u4) > np.linalg.norm(cmd.u123()) + COND23_TOL:
            cond_ok = False
        max_norm = max(max_norm, float(np.linalg.norm(cmd.v)))
    return MetricsRecord(
        time=swarm.time,
        min_pairwise_distance=snapshot.min_pair,
        min_boundary_distance=min_bound,
        amd=amd_val,
        exited_count=exited,
        density_error_l2=err,
        condition23_ok=cond_ok,
        max_command_norm=max_norm,
    )


def _record(snapshot, cmds, metrics_rec):
    swarm = snapshot.swarm
    n = len(swarm.robots)
    positions = swarm.positions()
    velocities = np.zeros((n, 2))
    u1 = np.zeros((n, 2))
    u2 = np.zeros((n, 2))
    u3 = np.zeros((n, 2))
    u4 = np.zeros((n, 2))
    kappa = np.ones(n)
    active = np.array([r.active for r in swarm.robots], dtype=bool)
    for i, cmd in cmds.items():
        velocities[i] = cmd.v
        u1[i] = cmd.u1
        u2[i] = cmd.u2
        u3[i] = cmd.u3
        u4[i] = cmd.u4
        kappa[i] = cmd.kappa_m
    return StepRecord(
        time=swarm.time,
        positions=positions,
        velocities=velocities,
        u1=u1,
        u2=u2,
        u3=u3,
        u4=u4,
        kappa=kappa,
        active=active,
        metrics=metrics_rec,
    )


def step(swarm: SwarmState, tube: VirtualTube, params: ControllerParams,
         mode="full", dt=0.01, density_grid=(200, 40)) -> SwarmState:
    """Advance one Euler step from a copy of the given state.

    Commands are evaluated on the pre-step snapshot; dt = 0 degenerates to
    the exit-rule application alone.
    """
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    state = swarm.copy()
    snap = _Snapshot(state, tube, params, with_density=(mode == "full"))
    snap.containment_check(tube)
    snap.safety_check(params)
    cmds = _commands(snap, tube, params, mode)
    for i, cmd in cmds.items():
        robot = state.robots[i]
        robot.velocity = cmd.v
        robot.position = robot.position + dt * cmd.v
    state.time += dt
    prs = [tube.curve.project(r.position) if r.active else None for r in state.robots]
    apply_exit_rule(state, tube, projections=prs)
    return state


def run(scenario) -> SimulationLog:
    """Run a validated scenario to completion and return the full log.

    The scenario supplies tube, params, mode, dt, t_end, density grid and
    the initial state; see tubenav.scenario.
    """
    tube = scenario.tube
    params = scenario.params
    dt = scenario.dt
    mode = scenario.mode
    grid = scenario.density_grid
    log = SimulationLog(fingerprint=scenario.fingerprint, scenario=scenario.resolved)

    state = scenario.initial_state()
    n_steps = 0 if scenario.t_end <= 0 else int(math.ceil(scenario.t_end / dt - 1e-9))
    seeds = [None] * len(state.robots)

    k = 0
    while True:
        state.time = k * dt
        # density artifacts are built in both modes: the baseline arm ignores
        # them for control but still reports the tracking-error metric
        snap = _Snapshot(state, tube, params, seeds=seeds, with_density=True)
        for i, r in enumerate(state.robots):
            if not r.active and r.id not in log.exit_times:
                log.exit_times[r.id] = r.exit_time if r.exit_time is not None else state.time
        try:
            if k > 0:
                snap.containment_check(tube)
                snap.safety_check(params)
            cmds = _commands(snap, tube, params, mode)
        except SafetyViolation as exc:
            log.records.append(_record(snap, {}, _metrics(snap, tube, params, {}, grid)))
            log.termination = "fault"
            log.fault = {"kind": exc.kind, "message": str(exc), **exc.details}
            return log
        log.records.append(_record(snap, cmds, _metrics(snap, tube, params, cmds, grid)))
        if not snap.active:
            log.termination = "all-exited"
            return log
        if k >= n_steps:
            log.termination = "time-limit"
            return log
        for i, cmd in cmds.items():
            robot = state.robots[i]
            robot.velocity = cmd.v
            robot.position = robot.position + dt * cmd.v
            seeds[i] = snap.projections[i].l
        k += 1
