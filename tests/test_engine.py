import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubenav import blocks, density, engine
from tubenav.control import ControllerParams, compose_velocity
from tubenav.density import (
    DensityView,
    DesiredDensity,
    density_error_l2_from_view,
    occupied_region_from_arclengths,
)
from tubenav.engine import apply_exit_rule, run, validate_initial
from tubenav.errors import SafetyViolation
from tubenav.geometry import (
    ArcSegment,
    GeneratingCurve,
    LineSegment,
    SegmentList,
    VirtualTube,
    WidthProfile,
)
from tubenav.metrics import PairList, neighbours
from tubenav.reports import write_metrics_csv, write_trace_csv
from tubenav.scenario import (
    bundled_scenario_path,
    load_scenario,
    read_scenario_file,
    scenario_from_dict,
)

from scalar_tube import section_points


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
    return SimpleNamespace(
        tube=tube,
        params=prm,
        dt=dt,
        t_end=t_end,
        mode=mode,
        density_grid=grid,
        fingerprint="test",
        resolved={"name": "stub"},
        positions=np.asarray(positions, dtype=float),
    )


def loop_validate_initial(pts, tube, prm):
    """Pair-by-pair, robot-by-robot validation: the oracle for the array
    version, which must emit the same messages in the same order."""
    problems = []
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
        bad = np.array([
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
        on_ring = np.array([(2.0, 0.0), (2.0, 0.5), (0.0, 2.35), (-2.0, 0.0), (0.0, -3.0)])
        ring_probs = validate_initial(on_ring, ring, prm)
        assert ring_probs and ring_probs == loop_validate_initial(on_ring, ring, prm)
        assert validate_initial(np.zeros((0, 2)), tube, prm) == []

    def test_exact_touching_is_a_violation(self):
        tube = straight_tube()
        prm = params()
        pts = np.array([(3.0, 0.0), (4.0, 0.0)])  # distance exactly 2 r_s
        assert validate_initial(pts, tube, prm)

    def test_clearance_passes(self):
        tube = straight_tube()
        prm = params()
        probs = validate_initial(np.array([(3.0, 0.0), (4.01, 0.0)]), tube, prm)
        assert not any("robots 0 and 1" in p for p in probs)

    def test_boundary_margin(self):
        tube = straight_tube(half_width=2.0)
        prm = params()
        assert validate_initial(np.array([(5.0, 2.0 - 0.51)]), tube, prm) == []
        assert validate_initial(np.array([(5.0, 2.0 - 0.5)]), tube, prm)

    def test_terminal_section_margin(self):
        tube = straight_tube()
        prm = params()
        bad = np.array([(0.4, 0.0)])  # 0.4 from the entry section
        assert validate_initial(bad, tube, prm)

    def test_grid_formation_passes(self):
        # 5 x 5 block, spacing 1.2 m > 2 r_s, inside a wide straight tube
        tube = straight_tube(length=30.0, half_width=3.0)
        prm = params()
        xs = 0.7 + 1.2 * np.arange(5)
        ys = -2.4 + 1.2 * np.arange(5)
        pts = np.array([(x, y) for x in xs for y in ys])
        assert validate_initial(pts, tube, prm) == []


class TestStep:
    def test_single_robot_advances_at_approach_speed(self):
        tube = straight_tube()
        prm = params()
        sc = scenario_stub(tube, prm, [(5.0, 0.0)], dt=0.01, t_end=0.1, mode="baseline")
        rec = run(sc).records[-1]
        assert abs(rec.positions[0, 0] - (5.0 + 10 * 0.01 * prm.k1)) < 1e-12
        assert abs(rec.positions[0, 1]) < 1e-12
        assert abs(rec.time - 0.1) < 1e-12

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


def exit_rule_on(pts, tube):
    """The exit rule on robots at pts, all of them active: the flags it
    leaves and the mask it returns."""
    active = np.ones(len(pts), dtype=bool)
    stay = apply_exit_rule(active, tube, tube.curve.project_many(np.asarray(pts, dtype=float)))
    return active, stay


class TestExitRule:
    def test_exactly_at_end_exits(self):
        active, stay = exit_rule_on([(20.0, 0.0)], straight_tube(length=20.0))
        assert not stay.any() and not active[0]

    def test_just_before_end_stays(self):
        active, stay = exit_rule_on([(20.0 - 1e-6, 0.0)], straight_tube(length=20.0))
        assert stay.all() and active[0]

    def test_clears_the_flags_of_the_robots_it_was_given(self):
        # the projection covers the active robots only, in index order
        tube = straight_tube(length=20.0)
        pts = np.array([(20.0, 0.0), (10.0, 0.0), (20.5, 0.3), (19.0, 0.0)])
        active = np.array([False, True, True, True])
        stay = apply_exit_rule(active, tube, tube.curve.project_many(pts[active]))
        assert stay.tolist() == [True, False, True]
        assert active.tolist() == [False, True, False, True]

    def test_closed_tube_never_exits(self):
        tube = ring_tube()
        prm = params(k1=0.3, v_max=0.6, r_s=0.1, r_a=0.16, r_t=0.06, h=0.3)
        angles = [0.0, 1.2, 2.4, 3.6]
        pts = [(2.0 * math.cos(a), 2.0 * math.sin(a)) for a in angles]
        sc = scenario_stub(tube, prm, pts, dt=0.01, t_end=1.0, mode="full", grid=(40, 8))
        log = run(sc)
        assert log.termination == "time-limit"
        assert all(rec.active.all() for rec in log.records)
        assert log.exit_times == first_inactive_times(log) == {}


def first_inactive_times(log):
    """Robot -> the time of the first record in which it is inactive, record
    by record: the oracle for SimulationLog.exit_times."""
    times = {}
    for rec in log.records:
        for i in np.flatnonzero(~rec.active).tolist():
            times.setdefault(i, rec.time)
    return times


class TestExitTimes:
    def test_run_with_exits(self):
        log = run(exit_case())
        assert log.exit_times == first_inactive_times(log) == {0: 2.4000000000000004, 1: 0.8}
        # an exited robot's logged velocity is zero from its exit record on
        for i, t in log.exit_times.items():
            for rec in log.records:
                assert rec.velocities[i].any() == (rec.time < t)

    def test_log_cut_with_head(self):
        log = run(exit_case())
        for count in range(1, len(log.records) + 1):
            cut = log.head(count)
            assert cut.exit_times == first_inactive_times(cut)
        assert log.head(9).exit_times == {1: 0.8} and log.head(8).exit_times == {}

    def test_robot_exits_on_the_fault_record(self):
        # robot 2 crosses the end in the step that drives the pair into
        # each other (see fault_case)
        sc = fault_case()
        sc.positions = np.vstack([sc.positions, (19.95, 0.0)])
        log = run(sc)
        assert log.termination == "fault" and len(log.records) == 2
        assert log.records[-1].active.tolist() == [True, True, False]
        assert log.exit_times == first_inactive_times(log) == {2: 0.1}


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
        # commands are pure functions of the snapshot: permuting the input
        # robots permutes every output row, bit for bit
        tube = straight_tube()
        prm = params()
        pts = np.array([(3.0, 0.4), (3.9, -0.5), (5.0, 0.1)])
        view = DensityView(pts, bandwidth=prm.h)
        region = occupied_region_from_arclengths([3.0, 3.9, 5.0], tube, min_halfwidth=0.8)
        dd = DesiredDensity(tube, region, delta_l=0.8)
        prs = tube.curve.project_many(pts)
        bd, bdir = tube.boundary_distance_many(pts)
        rho, grad = view.estimate_and_gradient_many(pts)
        grad_d = dd.gradient_many(prs.l, prs.r, prs.tangent, prs.curvature)
        inputs = [prs.tangent, bd, bdir, rho, grad, grad_d, np.arange(3)]
        reach = prm.avoidance_reach
        for mode in ("full", "baseline"):
            forward = compose_velocity(prm, mode, neighbours(pts, reach), *inputs, 0.0)
            for perm in ([2, 1, 0], [1, 2, 0], [0, 2, 1]):
                permuted = compose_velocity(prm, mode, neighbours(pts[perm], reach),
                                            *(a[perm] for a in inputs), 0.0)
                for want, got in zip(forward, permuted):
                    assert np.array_equal(got, want[perm])

    def test_all_exit_termination(self):
        tube = straight_tube(length=20.0)
        prm = params()
        sc = scenario_stub(tube, prm, [(19.3, 0.0)], dt=0.01, t_end=5.0, mode="baseline")
        log = run(sc)
        assert log.termination == "all-exited"
        # stamped with the time of the first record without the robot
        assert log.exit_times[0] == next(rec.time for rec in log.records if not rec.active[0])
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
        # two robots placed 0.9 m apart, inside the forbidden 2 r_s: the
        # safety check of the first snapshot faults before any step
        tube = straight_tube()
        prm = params()
        for mode in ("full", "baseline"):
            sc = scenario_stub(tube, prm, [(5.0, 0.4), (5.9, 0.4)], dt=0.01, t_end=1.0, mode=mode)
            log = run(sc)
            assert log.termination == "fault"
            assert log.fault["kind"] == "robot-robot"
            assert len(log.records) == 1 and log.records[0].time == 0.0  # partial log retained
            assert not log.records[0].velocities.any()

    def test_fault_names_the_pair_it_was_driven_into(self):
        # side by side in the tube-keeping band of a 2.2 m tube: a strong
        # u3 and a weak u2 push the pair together, and one 0.1 s step
        # carries them inside 2 r_s
        tube = straight_tube(half_width=1.1)
        prm = params(k2=1e-6, k3=10.0)
        log = run(scenario_stub(tube, prm, [(5.0, 0.55), (5.0, -0.55)], dt=0.1, t_end=1.0))
        assert log.termination == "fault" and len(log.records) == 2
        assert log.fault["kind"] == "robot-robot"
        assert (log.fault["i"], log.fault["j"]) == (0, 1)
        assert log.fault["message"].startswith("robots 0 and 1 at min pairwise distance")
        assert log.fault["distance"] == log.records[1].metrics.min_pairwise_distance < 1.0

    def test_boundary_fault_names_the_robot_driven_into_the_wall(self):
        # robot 1 runs straight on at k1 while the tube narrows ahead of it:
        # one 1 s step carries it from 1.1 m to 0.42 m off the sloping wall,
        # and robot 0 on the spine stays clear
        curve = GeneratingCurve([LineSegment((0.0, 0.0), (20.0, 0.0))])
        widths = WidthProfile([(0.0, 2.0, 2.0), (5.5, 2.0, 2.0), (6.5, 1.0, 1.0),
                               (20.0, 1.0, 1.0)])
        tube = VirtualTube(curve, widths)
        log = run(scenario_stub(tube, params(), [(3.0, 0.0), (5.0, 0.9)], dt=1.0, t_end=2.0,
                                mode="baseline"))
        assert log.termination == "fault" and len(log.records) == 2
        assert log.fault["kind"] == "boundary" and log.fault["robot"] == 1
        assert log.fault["message"].startswith("robot 1 at min boundary distance")
        assert log.fault["distance"] == log.records[1].metrics.min_boundary_distance < 0.5

    # the bundled narrow tube with a step past its barriers' band, and with
    # a weak u3 at double speed: kind, message, robots, distance and time
    # of each fault pinned exactly
    @pytest.mark.parametrize("dt, gains, records, fault", [
        (0.1, {}, 12, {
            "kind": "robot-robot",
            "message": "robots 5 and 10 at min pairwise distance 0.993739 <= 2 r_s = 1.0",
            "i": 5, "j": 10, "distance": 0.9937390469386277, "time": 1.1,
        }),
        (0.05, {"k3": 1e-4, "k1_mps": 2.0, "v_max_mps": 4.0}, 18, {
            "kind": "boundary",
            "message": "robot 24 at min boundary distance 0.427232 <= r_s = 0.5",
            "robot": 24, "distance": 0.42723210392872213, "time": 0.8500000000000001,
        }),
    ])
    def test_pinned_faults_of_the_bundled_narrow_tube(self, dt, gains, records, fault):
        raw = read_scenario_file(bundled_scenario_path("narrow_s_tube"))
        raw["dt_s"] = dt
        raw["params"].update(gains)
        log = run(scenario_from_dict(raw))
        assert log.termination == "fault"
        assert log.fault == fault
        assert len(log.records) == records

    @pytest.mark.parametrize("positions, kind, named", [
        ([(3.0, 0.0), (3.9, 0.0)], "robot-robot", {"i": 0, "j": 1}),
        ([(3.0, 1.6), (8.0, 1.8)], "boundary", {"robot": 1}),  # the nearer of two
        ([(3.0, 1.6), (3.9, 1.6), (8.0, 1.8)], "robot-robot", {"i": 0, "j": 1}),
    ])
    def test_run_reports_compose_velocitys_fault(self, positions, kind, named):
        tube = straight_tube(half_width=2.0)
        prm = params()
        log = run(scenario_stub(tube, prm, positions, t_end=0.1))
        pts = np.array(positions)
        prs = tube.curve.project_many(pts)
        d, dirs = tube.boundary_distance_many(pts)
        zeros = np.zeros_like(pts)
        with pytest.raises(SafetyViolation) as exc:
            compose_velocity(prm, "full", neighbours(pts, prm.avoidance_reach), prs.tangent,
                             d, dirs, np.ones(len(pts)), zeros, zeros, np.arange(len(pts)), 0.0)
        assert log.fault == {"kind": exc.value.kind, "message": str(exc.value),
                             **exc.value.details}
        assert log.fault["kind"] == kind
        assert named.items() <= log.fault.items()

    @pytest.mark.parametrize("n", [1, 25, 400])
    def test_one_neighbour_pass_per_record(self, n, monkeypatch):
        calls = []

        def counted(positions, reach, *lists):
            calls.append(len(positions))
            return neighbours(positions, reach, *lists)

        monkeypatch.setattr(engine, "neighbours", counted)
        rows = min(10, math.isqrt(n))
        cols = n // rows
        pts = [(0.8 + 1.2 * c, 1.2 * r - 0.6 * (rows - 1)) for c in range(cols) for r in range(rows)]
        tube = straight_tube(length=10.0 + 1.2 * cols, half_width=7.0)
        log = run(scenario_stub(tube, params(), pts, dt=0.01, t_end=0.03))
        assert log.termination == "time-limit"
        assert calls == [n] * len(log.records)


@pytest.mark.parametrize("mode", ["full", "baseline"])
class TestDegenerateSwarms:
    def test_one_robot(self, mode):
        tube = straight_tube()
        sc = scenario_stub(tube, params(), [(5.0, 0.3)], t_end=0.5, mode=mode)
        log = run(sc)
        assert log.termination == "time-limit"
        for rec in log.records:
            m = rec.metrics
            assert math.isnan(m.min_pairwise_distance) and math.isnan(m.amd)
            # the KDE of one sample is a single Gaussian bump
            assert math.isfinite(m.density_error_l2) and m.density_error_l2 > 0.0
            assert m.condition23_ok and m.max_command_norm > 0.0

    def test_two_robots_exit_one_after_the_other(self, mode):
        # alpha0 = 0.1: at the default gain the capped regulation term of a
        # lone robot at the front edge of its occupied region cancels u1,
        # and it stalls short of the exit in full mode
        tube = straight_tube(length=20.0)
        sc = scenario_stub(tube, params(alpha0=0.1), [(18.0, 0.0), (19.4, 0.3)], t_end=5.0,
                           mode=mode)
        log = run(sc)
        if mode == "full":
            assert any(rec.u4.any() for rec in log.records)
        counts = [int(rec.active.sum()) for rec in log.records]
        assert counts[0] == 2 and counts[-1] == 0
        assert all(b <= a for a, b in zip(counts, counts[1:]))
        assert {1} <= set(counts)
        assert log.exit_times[1] < log.exit_times[0]
        assert log.termination == "all-exited"
        last = log.records[-1].metrics
        assert math.isnan(last.min_boundary_distance) and math.isnan(last.density_error_l2)
        assert last.exited_count == 2

    def test_full_ring_occupancy(self, mode):
        sc = load_scenario(bundled_scenario_path("annular"))
        radius = 0.8
        angles = 2.0 * math.pi * np.arange(16) / 16
        ring = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        assert validate_initial(ring, sc.tube, sc.params) == []
        stub = scenario_stub(sc.tube, sc.params, ring, dt=sc.dt, t_end=2.0, mode=mode,
                             grid=sc.density_grid)
        log = run(stub)
        assert log.termination == "time-limit" and log.fault is None
        assert len(log.records) == 201
        assert all(rec.active.all() and rec.metrics.condition23_ok for rec in log.records)


def skin_cases():
    """(name, scenario) pairs for the runs of degenerate swarms."""
    ring = load_scenario(bundled_scenario_path("annular"))
    angles = 2.0 * math.pi * np.arange(16) / 16
    full_ring = 0.8 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return [
        ("no robot", scenario_stub(straight_tube(), params(), np.zeros((0, 2)), t_end=0.5)),
        ("one robot", scenario_stub(straight_tube(), params(), [(5.0, 0.3)], t_end=0.5)),
        ("two robots", scenario_stub(straight_tube(), params(), [(5.0, 0.3), (5.9, -0.2)],
                                     t_end=0.5)),
        # alpha0 = 0.1, so that the front robot does not stall (see
        # TestDegenerateSwarms): both exit, one after the other
        ("two robots exit", scenario_stub(straight_tube(), params(alpha0=0.1),
                                          [(18.0, 0.0), (19.4, 0.3)], t_end=5.0)),
        # one robot exits while the other two stay within reach
        ("one of three exits", scenario_stub(straight_tube(), params(alpha0=0.1),
                                             [(19.0, 0.0), (14.0, 0.6), (14.0, -0.6)],
                                             t_end=2.0)),
        ("full ring", scenario_stub(ring.tube, ring.params, full_ring, dt=ring.dt, t_end=2.0,
                                    grid=ring.density_grid)),
    ]


def log_list_queries(monkeypatch, tube):
    """Patch both skin lists to log each query as (rows, rebuilt), the wall
    list only on ``tube``'s walls (the projection's seed search is one too);
    returns the two logs, walls and pairs."""
    logs = {"walls": [], "pairs": []}

    def logged(cls, name, key):
        query = getattr(cls, name)

        def wrapper(self, positions, *args):
            before = self.builds
            out = query(self, positions, *args)
            if key == "pairs" or self.search is tube._walls:
                logs[key].append((len(positions), self.builds > before))
            return out

        monkeypatch.setattr(cls, name, wrapper)

    logged(SegmentList, "nearest", "walls")
    logged(PairList, "neighbours", "pairs")
    return logs


class TestSkinLists:
    """Runs with the skin lists write the same files, byte for byte, as runs
    whose lists rebuild on every record (a skin of 0)."""

    @staticmethod
    def run_files(sc, tmp_path, tag):
        log = run(sc)
        trace = write_trace_csv(log, tmp_path / f"{tag}_trace.csv")
        metrics = write_metrics_csv(log, tmp_path / f"{tag}_metrics.csv")
        return log, trace.read_bytes(), metrics.read_bytes()

    @pytest.mark.parametrize("case", range(6), ids=[name for name, _ in skin_cases()])
    def test_degenerate_swarms_match_a_rebuild_on_every_record(self, case, tmp_path,
                                                               monkeypatch):
        sc = skin_cases()[case][1]
        logs = log_list_queries(monkeypatch, sc.tube)
        log, trace, metrics = self.run_files(sc, tmp_path, "skin")
        kept = {key: list(queries) for key, queries in logs.items()}
        monkeypatch.setattr(engine, "SKIN_STEPS", 0)
        assert self.run_files(sc, tmp_path, "rebuild")[1:] == (trace, metrics)
        n = len(sc.positions)
        assert len(kept["walls"]) == len(kept["pairs"]) == len(log.records)
        for key, queries in kept.items():
            builds = [k for k, (_, built) in enumerate(queries) if built]
            # a list lasts several records, and the first query builds it
            assert n < (2 if key == "pairs" else 1) or 0 in builds
            assert len(builds) <= len(queries) // 2 + 1

    def test_an_exit_in_the_middle_of_a_list_s_life_rebuilds_it(self, tmp_path, monkeypatch):
        sc = skin_cases()[4][1]
        logs = log_list_queries(monkeypatch, sc.tube)
        log = run(sc)
        counts = [int(rec.active.sum()) for rec in log.records]
        assert counts[0] == 3 and counts[-1] == 2
        exit_k = counts.index(2)
        for queries in logs.values():
            assert [rows for rows, _ in queries] == counts
            # the list built before the exit was in use on the record before
            # it, and the exit rebuilt it
            assert not queries[exit_k - 1][1] and queries[exit_k][1]


ARRAY_FIELDS = ("positions", "velocities", "u1", "u2", "u3", "u4", "kappa", "active")


class TestArrayRecords:
    def test_euler_update_is_exact_and_records_do_not_alias(self):
        sc = replace(load_scenario(bundled_scenario_path("narrow_s_tube")), t_end=1.0)
        recs = run(sc).records
        assert len(recs) == 101
        for a, b in zip(recs, recs[1:]):
            on = a.active
            assert np.array_equal(b.positions[on], a.positions[on] + sc.dt * a.velocities[on])
        nxt = recs[51]
        kept = [np.copy(getattr(nxt, f)) for f in ARRAY_FIELDS]
        for f in ARRAY_FIELDS:
            getattr(recs[50], f)[...] = 0
        for f, want in zip(ARRAY_FIELDS, kept):
            assert np.array_equal(getattr(nxt, f), want), f


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
    pts = section_points(tube, ls_eval, offsets)
    rho_hat = view.estimate_and_gradient_many(pts.reshape(-1, 2))[0].reshape(n_l, n_r)
    rho_d = dd.profile_many(ls)[:, None]
    return float(np.sqrt(np.sum((rho_hat - rho_d) ** 2 * (dr[:, None] * dl))))


def point_grid_errors_l2(views, targets, tube, regions, resolution):
    """The density-error pass with the point-grid oracle per record."""
    return np.array([point_grid_error_l2(view, dd, tube, region, resolution)
                     for view, dd, region in zip(views, targets, regions)])


def per_record_errors_l2(views, targets, tube, regions, resolution):
    """The density-error pass as one density_error_l2_from_view per record."""
    return np.array([density_error_l2_from_view(view, dd, tube, region, resolution)
                     for view, dd, region in zip(views, targets, regions)])


def with_density_records(log):
    return [rec for rec in log.records if rec.active.any()]


class TestDensityErrorMetric:
    def test_bundled_narrow_run_matches_the_point_grid(self, monkeypatch):
        sc = replace(load_scenario(bundled_scenario_path("narrow_s_tube")), t_end=1.0)
        log = run(sc)
        oracle_records = []

        def oracle(views, *args):
            oracle_records.append(len(views))
            return point_grid_errors_l2(views, *args)

        with monkeypatch.context() as m:
            m.setattr(engine, "density_errors_l2", oracle)
            ref = run(sc)
        assert len(log.records) == len(ref.records) == 101
        assert sum(oracle_records) == len(with_density_records(ref)) == 101
        got = np.array([r.metrics.density_error_l2 for r in log.records])
        want = np.array([r.metrics.density_error_l2 for r in ref.records])
        assert np.all(want > 0.0)
        assert np.allclose(got, want, rtol=1e-12, atol=0)
        for a, b in zip(log.records, ref.records):
            assert np.array_equal(a.positions, b.positions)
            assert np.array_equal(a.velocities, b.velocities)


GRID = (12, 4)


def exit_case(records=None):
    """Two robots that exit a 20 m tube one after the other, at 0.8 s and
    2.4 s: an all-exited run of 25 records, or its first ``records``."""
    t_end = 5.0 if records is None else 0.1 * (records - 1)
    return scenario_stub(straight_tube(length=20.0), params(alpha0=0.1),
                         [(18.0, 0.0), (19.4, 0.3)], dt=0.1, t_end=t_end, grid=GRID)


def ring_case():
    """Two robots across a ring of circumference 1.57 m, under the 1.6 m
    that the 0.8 m mollification width widens their region to: every
    record's region is the full ring."""
    prm = params(k1=0.2, v_max=0.4, r_s=0.03, r_a=0.05, r_t=0.02)
    return scenario_stub(ring_tube(radius=0.25, half_width=0.12), prm,
                         [(0.25, 0.0), (-0.25, 0.0)], dt=0.01, t_end=0.2, grid=GRID)


def fault_case():
    """Two robots pushed together: the second record faults."""
    return scenario_stub(straight_tube(half_width=1.1), params(k2=1e-6, k3=10.0),
                         [(5.0, 0.55), (5.0, -0.55)], dt=0.1, t_end=1.0, grid=GRID)


CASES = {"exit": exit_case, "ring": ring_case, "fault": fault_case}


def run_against_per_record(sc, chunk):
    """Run sc with chunks of ``chunk`` records; return the log, the pass's
    batch sizes, and each record's error by density_error_l2_from_view,
    computed on the views the pass received."""
    batches, want, targets = [], [], []
    library = engine.density_errors_l2

    def checked(views, dds, tube, regions, resolution):
        batches.append(len(views))
        targets.extend(dds)
        want.extend(per_record_errors_l2(views, dds, tube, regions, resolution).tolist())
        return library(views, dds, tube, regions, resolution)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(blocks, "BLOCK_ELEMENTS", chunk * sc.density_grid[0] * sc.density_grid[1])
        mp.setattr(engine, "density_errors_l2", checked)
        log = run(sc)
    return log, batches, want, targets


def assert_errors_equal(log, want):
    got = [rec.metrics.density_error_l2 for rec in with_density_records(log)]
    assert np.array(got).tobytes() == np.array(want).tobytes()
    for rec in log.records:
        if not rec.active.any():
            assert math.isnan(rec.metrics.density_error_l2)


class TestDensityErrorPass:
    """run fills the density-error metric in one pass per chunk of records:
    bit for bit the per-record density_error_l2_from_view, and never more
    than one chunk of views held."""

    @settings(max_examples=24, deadline=None, derandomize=True)
    @given(chunk=st.integers(1, 6), records=st.sampled_from(["one", "c-1", "c", "c+1"]))
    def test_property_chunk_edges(self, chunk, records):
        n = {"one": 1, "c-1": max(chunk - 1, 1), "c": chunk, "c+1": chunk + 1}[records]
        log, batches, want, _ = run_against_per_record(exit_case(n), chunk)
        assert log.termination == "time-limit" and len(log.records) == n
        assert_errors_equal(log, want)
        held = min(chunk, n)
        assert batches == [held] * (n // held) + ([n % held] if n % held else [])

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(case=st.sampled_from(sorted(CASES)), chunk=st.integers(1, 30))
    def test_property_cases(self, case, chunk):
        log, batches, want, targets = run_against_per_record(CASES[case](), chunk)
        assert_errors_equal(log, want)
        # the memory bound: no batch holds more than one chunk of views,
        # and every record with a density is in exactly one batch
        held = min(chunk, len(log.records))
        assert all(0 < b <= held for b in batches)
        assert all(b == held for b in batches[:-1])
        assert sum(batches) == len(with_density_records(log)) == len(want)
        if case == "exit":
            counts = [int(rec.active.sum()) for rec in log.records]
            assert log.termination == "all-exited" and counts[-1] == 0
            assert math.isnan(log.records[-1].metrics.density_error_l2)
            assert {2, 1, 0} <= set(counts)
        elif case == "ring":
            assert log.termination == "time-limit"
            assert all(dd.full_ring for dd in targets) and len(targets) == len(log.records)
        else:
            assert log.termination == "fault" and len(log.records) == 2
            assert math.isfinite(log.records[-1].metrics.density_error_l2)

    def test_robots_exit_mid_chunk(self):
        log, batches, want, _ = run_against_per_record(exit_case(), 5)
        assert_errors_equal(log, want)
        changes = [k for k, (a, b) in enumerate(zip(log.records, log.records[1:]), 1)
                   if a.active.sum() != b.active.sum()]
        assert changes == [8, 24]  # the first exit is mid-chunk
        assert batches == [5] * 4 + [4]

    @pytest.mark.parametrize("name, t_end", [("narrow_s_tube", 1.0), ("annular", 2.0)])
    def test_run_files_equal_the_per_record_path(self, name, t_end, tmp_path, monkeypatch):
        sc = replace(load_scenario(bundled_scenario_path(name)), t_end=t_end)

        def run_files(tag):
            log = run(sc)
            trace = write_trace_csv(log, tmp_path / f"{tag}_trace.csv")
            metrics = write_metrics_csv(log, tmp_path / f"{tag}_metrics.csv")
            return trace.read_bytes(), metrics.read_bytes()

        chunked = run_files("chunked")
        calls = []

        def per_record(views, *args):
            calls.append(len(views))
            return per_record_errors_l2(views, *args)

        monkeypatch.setattr(engine, "density_errors_l2", per_record)
        assert run_files("per_record") == chunked
        records = int(round(t_end / sc.dt)) + 1
        chunk, _ = blocks.row_blocks(records, sc.density_grid[0] * sc.density_grid[1])
        assert sum(calls) == records and max(calls) == chunk < records


class TestBatchIndependence:
    """A record's density error depends on that record alone: it is the
    same bit for bit in a batch of its own, in the chunk the run put it in,
    and in one batch of the whole run, across both exits."""

    # the exit case's 12 x 4 grid, its 4 cells split 2 by 2: 288 live
    # elements a record at two robots, 192 at one; 1008 puts a whole record
    # in each block, in chunks of 21 records; 144 puts 6 or 9 columns in a
    # block, so every record is summed culled, in chunks of 3.  The tilted
    # copy runs
    # along (0.6, 0.8), where no frame component is 0 or 1, so that every
    # rounding of the kernel sums shows
    @pytest.mark.parametrize("block_elements", [1008, 144])
    @pytest.mark.parametrize("tilted", [False, True])
    def test_alone_in_its_chunk_and_in_the_whole_run(self, block_elements, tilted):
        batches = []
        library = engine.density_errors_l2

        def captured(views, targets, tube, regions, resolution):
            batches.append((views, targets, regions))
            return library(views, targets, tube, regions, resolution)

        sc = exit_case()
        if tilted:
            turn = np.array([[0.6, 0.8], [-0.8, 0.6]])
            curve = GeneratingCurve([LineSegment((0.0, 0.0), (12.0, 16.0))])
            sc = scenario_stub(VirtualTube(curve, sc.tube.widths), sc.params,
                               sc.positions @ turn, dt=sc.dt, t_end=sc.t_end, grid=GRID)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(blocks, "BLOCK_ELEMENTS", block_elements)
            mp.setattr(engine, "density_errors_l2", captured)
            log = run(sc)
            views, targets, regions = (sum((list(b[i]) for b in batches), []) for i in range(3))
            whole = library(views, targets, sc.tube, regions, sc.density_grid)
            alone = [library([v], [t], sc.tube, [r], sc.density_grid)[0]
                     for v, t, r in zip(views, targets, regions)]
        in_chunks = [rec.metrics.density_error_l2 for rec in with_density_records(log)]
        counts = [[view.n for view in b[0]] for b in batches]
        assert any(len(set(c)) > 1 for c in counts)
        assert sorted(set(sum(counts, []))) == [1, 2]
        assert np.array(in_chunks).tobytes() == whole.tobytes() == np.array(alone).tobytes()

    @pytest.mark.parametrize("block_elements", [None, 600])
    def test_records_with_different_splits(self, block_elements):
        # a chunk on a bent tube 2 m wide with a 40 x 24 grid, whose records'
        # bandwidths, 0.5 m down to 1.2 cm, split the 24 cells k = A p + m
        # with A = 4, 3, 2 and 1 (section_estimates' rule, restated here),
        # in two runs of equal robot count; with 600 elements a block every
        # record is summed a few columns at a time, culled
        tube = VirtualTube(GeneratingCurve([ArcSegment((0.0, 0.0), 10.0, 0.0, 1.5)]),
                           WidthProfile([(0.0, 1.0, 1.0)]))
        resolution = (40, 24)
        rng = np.random.default_rng(5)
        views, targets, regions = [], [], []
        for n, h in zip([3, 3, 3, 3, 2, 2, 2], [0.5, 0.03, 0.021, 0.012, 0.012, 0.5, 0.03]):
            ls, rs = rng.uniform(2.0, 12.0, n), rng.uniform(-0.9, 0.9, n)
            views.append(DensityView(section_points(tube, ls, rs), h))
            regions.append(occupied_region_from_arclengths(ls, tube, min_halfwidth=0.5))
            targets.append(DesiredDensity(tube, regions[-1], delta_l=0.5))

        def split(view, region):
            *_, dr = density._region_grids(tube, [region], resolution)
            step = dr / view.bandwidth
            e = float((step * ((resolution[1] - 1) * step + density._CLAMP)).max())
            return max(a for a in range(1, 5) if (a - 1) * e <= density._FACTOR_LIMIT)

        assert [split(v, r) for v, r in zip(views, regions)] == [4, 3, 2, 1, 1, 4, 3]
        library = engine.density_errors_l2
        with pytest.MonkeyPatch.context() as mp:
            if block_elements is not None:
                mp.setattr(blocks, "BLOCK_ELEMENTS", block_elements)
            whole = library(views, targets, tube, regions, resolution)
            alone = [library([v], [t], tube, [r], resolution)[0]
                     for v, t, r in zip(views, targets, regions)]
            parts = [library(views[a:b], targets[a:b], tube, regions[a:b], resolution)
                     for a, b in ((0, 2), (2, 5), (5, 7))]
        assert np.all(np.isfinite(whole))
        assert whole.tobytes() == np.array(alone).tobytes() == np.concatenate(parts).tobytes()


class TestSmallSwarmStep:
    """The step's per-record work on the bundled narrow run: the projection
    reuses the last record's spine frames, and the target's normalization
    and gradient share one mask pass."""

    def test_evaluations_and_mask_passes_per_record(self, monkeypatch):
        sc = replace(load_scenario(bundled_scenario_path("narrow_s_tube")), t_end=1.0)
        assert sc.mode == "full"
        evaluations, slopes = [], []
        evaluate = GeneratingCurve.eval_many
        monkeypatch.setattr(GeneratingCurve, "eval_many",
                            lambda curve, ls, clip=False: evaluations.append(len(ls)) or
                            evaluate(curve, ls, clip))
        mask = density._mask
        monkeypatch.setattr(density, "_mask", lambda ls, *args, slope=False:
                            slopes.append(slope) or mask(ls, *args, slope=slope))
        log = run(sc)
        records = len(log.records)
        assert records == 101 and log.termination == "time-limit"
        # two Newton evaluations and the final one per record, less the
        # first, which the last record's final evaluation stands in for
        assert len(evaluations) <= 2.1 * records
        # one target pass per record, with the mask's slope for the
        # gradient; the others are the error metric's, one per chunk
        chunks = len(blocks.row_blocks(records, sc.density_grid[0] * sc.density_grid[1])[1])
        assert slopes.count(True) == records
        assert slopes.count(False) == chunks

    def test_baseline_builds_no_density_gradient(self, monkeypatch):
        # u4 is zero in the baseline, so the run skips the KDE gradient and
        # the target's; the view and the target stay for the error metric
        sc = replace(load_scenario(bundled_scenario_path("narrow_s_tube")), t_end=0.5,
                     mode="baseline")
        called = []
        for owner, name in ((DensityView, "estimate_and_gradient_many"),
                            (DesiredDensity, "gradient_many"),
                            (DesiredDensity, "profile_slope_many")):
            monkeypatch.setattr(owner, name, lambda *args, name=name: called.append(name))
        log = run(sc)
        assert called == []
        assert np.all(np.isfinite(log.metrics["density_error_l2"]))
        assert not np.any(log.u4)
