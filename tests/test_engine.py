import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from tubenav import engine
from tubenav.control import ControllerParams, compose_velocity
from tubenav.density import DensityView, DesiredDensity, occupied_region_from_arclengths
from tubenav.engine import apply_exit_rule, run, step, validate_initial
from tubenav.geometry import (
    ArcSegment,
    GeneratingCurve,
    LineSegment,
    VirtualTube,
    WidthProfile,
)
from tubenav.scenario import bundled_scenario_path, load_scenario
from tubenav.state import make_swarm


def straight_tube(length=20.0, half_width=2.0):
    curve = GeneratingCurve([LineSegment((0.0, 0.0), (length, 0.0))])
    widths = WidthProfile([(0.0, half_width, half_width), (length, half_width, half_width)])
    return VirtualTube(curve, widths)


def ring_tube(radius=2.0, half_width=0.4):
    curve = GeneratingCurve([ArcSegment((0.0, 0.0), radius, 0.0, 2 * math.pi)], closed=True)
    return VirtualTube(curve, WidthProfile([(0.0, half_width, half_width)]), topology="closed")


def params(**over):
    base = dict(k1=1.0, k2=0.02, k3=0.02, v_max=2.0, r_s=0.5, r_a=0.8, r_t=0.3,
                alpha0=1.0, h=0.8)
    base.update(over)
    return ControllerParams(**base).validate()


def scenario_stub(tube, prm, positions, dt=0.01, t_end=1.0, mode="full",
                  grid=(60, 12)):
    pts = np.asarray(positions, dtype=float)
    return SimpleNamespace(
        tube=tube,
        params=prm,
        dt=dt,
        t_end=t_end,
        mode=mode,
        density_grid=grid,
        fingerprint="test",
        resolved={"name": "stub"},
        initial_state=lambda: make_swarm(pts),
    )


def loop_validate_initial(swarm, tube, prm):
    """Pair-by-pair, robot-by-robot validation: the oracle for the array
    version, which must emit the same messages in the same order."""
    problems = []
    pts = swarm.active_positions()
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            d = float(np.linalg.norm(pts[i] - pts[j]))
            if d <= 2.0 * prm.r_s:
                problems.append(f"robots {i} and {j} at distance {d:.4f} <= 2 r_s = {2 * prm.r_s}")
    inside = np.ones(n, dtype=bool)
    for i in range(n):
        _, ok = tube.locate(pts[i])
        if not ok:
            inside[i] = False
            problems.append(f"robot {i} at {tuple(pts[i].tolist())} is outside the tube")
    if n and inside.any():
        d_lat, _ = tube.boundary_distance_many(pts[inside])
        for k, i in enumerate(np.flatnonzero(inside)):
            if d_lat[k] <= prm.r_s:
                problems.append(f"robot {i} boundary distance {d_lat[k]:.4f} <= r_s = {prm.r_s}")
    for a, b in tube.terminal_sections():
        for i in range(n):
            if not inside[i]:
                continue
            ab = b - a
            t = float(np.clip((pts[i] - a) @ ab / float(ab @ ab), 0.0, 1.0))
            d = float(np.linalg.norm(pts[i] - (a + t * ab)))
            if d <= prm.r_s:
                problems.append(
                    f"robot {i} terminal-section distance {d:.4f} <= r_s = {prm.r_s}"
                )
    return problems


class TestValidateInitial:
    def test_messages_match_the_loop_version(self):
        tube = straight_tube()
        prm = params()
        bad = make_swarm([
            (0.3, 0.0),    # entry section, and a pair with the next robot
            (0.9, 0.1),
            (5.0, 1.7),    # lateral wall, and a pair with robot 4
            (5.0, 3.0),    # outside
            (5.8, 1.7),
            (19.6, -1.6),  # exit section and lateral wall
            (10.0, 0.0),   # clear
            (10.5, 0.3),   # pair with the previous robot
        ])
        probs = validate_initial(bad, tube, prm)
        assert probs == loop_validate_initial(bad, tube, prm)
        for kind in ("robots 0 and 1", "robots 2 and 4", "robots 6 and 7", "outside",
                     "robot 2 boundary", "robot 5 boundary", "robot 0 terminal",
                     "robot 5 terminal"):
            assert any(kind in p for p in probs), kind
        assert "robot 3 at (5.0, 3.0) is outside the tube" in probs
        assert not any("np.float64" in p for p in probs)
        ring = ring_tube()
        on_ring = make_swarm([(2.0, 0.0), (2.0, 0.5), (0.0, 2.35), (-2.0, 0.0), (0.0, -3.0)])
        ring_probs = validate_initial(on_ring, ring, prm)
        assert ring_probs and ring_probs == loop_validate_initial(on_ring, ring, prm)
        assert validate_initial(make_swarm(np.zeros((0, 2))), tube, prm) == []

    def test_exact_touching_is_a_violation(self):
        tube = straight_tube()
        prm = params()
        swarm = make_swarm([(3.0, 0.0), (4.0, 0.0)])  # distance exactly 2 r_s
        assert validate_initial(swarm, tube, prm)

    def test_clearance_passes(self):
        tube = straight_tube()
        prm = params()
        swarm = make_swarm([(3.0, 0.0), (4.01, 0.0)])
        probs = validate_initial(swarm, tube, prm)
        assert not any("robots 0 and 1" in p for p in probs)

    def test_boundary_margin(self):
        tube = straight_tube(half_width=2.0)
        prm = params()
        ok = make_swarm([(5.0, 2.0 - 0.51)])
        assert validate_initial(ok, tube, prm) == []
        bad = make_swarm([(5.0, 2.0 - 0.5)])
        assert validate_initial(bad, tube, prm)

    def test_terminal_section_margin(self):
        tube = straight_tube()
        prm = params()
        bad = make_swarm([(0.4, 0.0)])  # 0.4 from the entry section
        assert validate_initial(bad, tube, prm)

    def test_grid_formation_passes(self):
        # 5 x 5 block, spacing 1.2 m > 2 r_s, inside a wide straight tube
        tube = straight_tube(length=30.0, half_width=3.0)
        prm = params()
        xs = 0.7 + 1.2 * np.arange(5)
        ys = -2.4 + 1.2 * np.arange(5)
        pts = [(x, y) for x in xs for y in ys]
        assert validate_initial(make_swarm(pts), tube, prm) == []


class TestStep:
    def test_single_robot_advances_at_approach_speed(self):
        tube = straight_tube()
        prm = params()
        state = make_swarm([(5.0, 0.0)])
        for _ in range(10):
            state = step(state, tube, prm, mode="baseline", dt=0.01)
        assert abs(state.robots[0].position[0] - (5.0 + 10 * 0.01 * prm.k1)) < 1e-12
        assert abs(state.robots[0].position[1]) < 1e-12
        assert abs(state.time - 0.1) < 1e-12

    def test_dt_zero_is_identity(self):
        tube = straight_tube()
        prm = params()
        state = make_swarm([(5.0, 0.3), (8.0, -0.4)])
        after = step(state, tube, prm, mode="full", dt=0.0)
        assert np.array_equal(after.positions(), state.positions())
        assert after.time == 0.0

    def test_step_halving_first_order_convergence(self):
        # Euler discretization error: halving dt roughly halves the final
        # position difference
        tube = straight_tube(length=30.0, half_width=3.0)
        prm = params()
        pts = [(1.0 + 1.2 * i, -1.2 + 1.2 * j) for i in range(3) for j in range(3)]

        def final_positions(dt, t_end=0.5):
            sc = scenario_stub(tube, prm, pts, dt=dt, t_end=t_end, mode="full")
            log = run(sc)
            return log.records[-1].positions

        p1 = final_positions(0.02)
        p2 = final_positions(0.01)
        p3 = final_positions(0.005)
        e1 = float(np.max(np.linalg.norm(p1 - p2, axis=1)))
        e2 = float(np.max(np.linalg.norm(p2 - p3, axis=1)))
        assert e1 > 0 and e2 > 0
        assert 1.5 < e1 / e2 < 2.6


class TestExitRule:
    def test_exactly_at_end_exits(self):
        tube = straight_tube(length=20.0)
        swarm = make_swarm([(20.0, 0.0)])
        swarm.time = 3.5
        apply_exit_rule(swarm, tube)
        assert not swarm.robots[0].active
        assert swarm.robots[0].exit_time == 3.5

    def test_just_before_end_stays(self):
        tube = straight_tube(length=20.0)
        swarm = make_swarm([(20.0 - 1e-6, 0.0)])
        apply_exit_rule(swarm, tube)
        assert swarm.robots[0].active

    def test_closed_tube_never_exits(self):
        tube = ring_tube()
        prm = params(k1=0.3, v_max=0.6, r_s=0.1, r_a=0.16, r_t=0.06, h=0.3)
        angles = [0.0, 1.2, 2.4, 3.6]
        pts = [(2.0 * math.cos(a), 2.0 * math.sin(a)) for a in angles]
        sc = scenario_stub(tube, prm, pts, dt=0.01, t_end=1.0, mode="full", grid=(40, 8))
        log = run(sc)
        assert log.termination == "time-limit"
        assert all(rec.active.all() for rec in log.records)
        assert log.exit_times == {}


class TestRun:
    def test_zero_horizon_single_record(self):
        tube = straight_tube()
        prm = params()
        sc = scenario_stub(tube, prm, [(5.0, 0.0), (7.0, 0.5)], t_end=0.0)
        log = run(sc)
        assert len(log.records) == 1
        assert log.records[0].time == 0.0

    def test_record_count(self):
        tube = straight_tube()
        prm = params()
        sc = scenario_stub(tube, prm, [(5.0, 0.0), (7.0, 0.5)], dt=0.01, t_end=0.5)
        log = run(sc)
        assert len(log.records) == 51  # t = 0 .. 0.5 inclusive
        assert abs(log.records[-1].time - 0.5) < 1e-12

    def test_determinism_bit_identical(self):
        tube = straight_tube()
        prm = params()
        pts = [(3.0, 0.4), (4.2, -0.6), (5.6, 0.1)]
        sc1 = scenario_stub(tube, prm, pts, dt=0.01, t_end=0.5)
        sc2 = scenario_stub(tube, prm, pts, dt=0.01, t_end=0.5)
        log1, log2 = run(sc1), run(sc2)
        for r1, r2 in zip(log1.records, log2.records):
            assert np.array_equal(r1.positions, r2.positions)
            assert np.array_equal(r1.velocities, r2.velocities)
            assert np.array_equal(r1.u4, r2.u4)

    def test_synchronous_update_order_independent(self):
        # commands are pure functions of the snapshot: evaluating them in any
        # robot order gives identical results
        tube = straight_tube()
        prm = params()
        swarm = make_swarm([(3.0, 0.4), (3.9, -0.5), (5.0, 0.1)])
        view = DensityView(swarm.active_positions(), bandwidth=prm.h)
        region = occupied_region_from_arclengths([3.0, 3.9, 5.0], tube, min_halfwidth=0.8)
        dd = DesiredDensity(tube, region, delta_l=0.8)
        forward = [compose_velocity(tube, prm, i, swarm, view, dd) for i in (0, 1, 2)]
        backward = [compose_velocity(tube, prm, i, swarm, view, dd) for i in (2, 1, 0)]
        for i, cmd in enumerate(forward):
            assert np.array_equal(cmd.v, backward[2 - i].v)

    def test_all_exit_termination(self):
        tube = straight_tube(length=20.0)
        prm = params()
        sc = scenario_stub(tube, prm, [(19.3, 0.0)], dt=0.01, t_end=5.0, mode="baseline")
        log = run(sc)
        assert log.termination == "all-exited"
        assert 0 in log.exit_times
        # exit near t = 0.7 / k1; final record shows zero active robots
        assert not log.records[-1].active.any()

    def test_exit_monotone_and_permanent(self):
        tube = straight_tube(length=20.0)
        prm = params()
        pts = [(19.0, 0.0), (17.5, 0.3)]
        sc = scenario_stub(tube, prm, pts, dt=0.01, t_end=5.0, mode="baseline")
        log = run(sc)
        seen_inactive = set()
        for rec in log.records:
            for i in range(len(rec.active)):
                if i in seen_inactive:
                    assert not rec.active[i]
                if not rec.active[i]:
                    seen_inactive.add(i)
        assert log.exit_times[0] <= log.exit_times[1]

    def test_safety_margins_hold_throughout(self):
        tube = straight_tube(length=30.0, half_width=3.0)
        prm = params()
        pts = [(1.0 + 1.2 * i, -1.2 + 1.2 * j) for i in range(3) for j in range(3)]
        sc = scenario_stub(tube, prm, pts, dt=0.01, t_end=1.5, mode="full")
        log = run(sc)
        assert log.termination == "time-limit"
        for rec in log.records:
            assert rec.metrics.min_pairwise_distance > 2 * prm.r_s
            assert rec.metrics.min_boundary_distance > prm.r_s
            assert rec.metrics.condition23_ok

    def test_fault_on_engineered_overlap(self):
        # two robots placed legally but aimed to collide by a huge approach
        # speed with tiny avoidance gain would violate in continuous time
        # too; instead force the fault by starting inside the overlap zone
        tube = straight_tube()
        prm = params()
        sc = scenario_stub(tube, prm, [(5.0, 0.4), (5.9, 0.4)], dt=0.01, t_end=1.0)
        log = run(sc)
        assert log.termination == "fault"
        assert log.fault["kind"] == "robot-robot"
        assert log.records  # partial log retained


def point_grid_error_l2(view, dd, tube, region, resolution):
    """The density-error metric with the KDE evaluated at every grid point's
    Cartesian position: the oracle for the per-column evaluation."""
    n_l, n_r = resolution
    dl = region.span / n_l
    ls = region.l_b + (np.arange(n_l) + 0.5) * dl
    ls_eval = np.mod(ls, tube.length) if tube.closed else ls
    r_d = tube.widths.r_d(ls_eval)
    dr = (r_d + tube.widths.r_u(ls_eval)) / n_r
    offsets = -r_d[:, None] + (np.arange(n_r)[None, :] + 0.5) * dr[:, None]
    pts = tube.section_points(ls_eval, offsets)
    rho_hat = view.estimate_many(pts.reshape(-1, 2)).reshape(n_l, n_r)
    rho_d = dd.profile_many(ls)[:, None]
    return float(np.sqrt(np.sum((rho_hat - rho_d) ** 2 * (dr[:, None] * dl))))


class TestDensityErrorMetric:
    def test_bundled_narrow_run_matches_the_point_grid(self, monkeypatch):
        sc = replace(load_scenario(bundled_scenario_path("narrow_s_tube")), t_end=1.0)
        log = run(sc)
        with monkeypatch.context() as m:
            m.setattr(engine, "density_error_l2_from_view", point_grid_error_l2)
            ref = run(sc)
        assert len(log.records) == len(ref.records) == 101
        got = np.array([r.metrics.density_error_l2 for r in log.records])
        want = np.array([r.metrics.density_error_l2 for r in ref.records])
        assert np.all(want > 0.0)
        assert np.allclose(got, want, rtol=1e-12, atol=0)
        for a, b in zip(log.records, ref.records):
            assert np.array_equal(a.positions, b.positions)
            assert np.array_equal(a.velocities, b.velocities)
