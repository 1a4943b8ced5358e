import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import event, given, settings

from tubenav.control import ControllerParams
from tubenav.engine import run
from tubenav.geometry import GeneratingCurve, LineSegment, VirtualTube, WidthProfile
from tubenav.metrics import (
    amd,
    amd_from_positions,
    audit_condition23,
    evacuation_time,
    min_boundary_distance,
    min_pairwise_distance,
    min_pairwise_from_positions,
    neighbours,
    throughput,
)
from tubenav.reports import write_summary_json
from tubenav.state import make_swarm

from clouds import clouds, dense_distances


def straight_tube(length=20.0, half_width=2.0):
    curve = GeneratingCurve([LineSegment((0.0, 0.0), (length, 0.0))])
    widths = WidthProfile([(0.0, half_width, half_width), (length, half_width, half_width)])
    return VirtualTube(curve, widths)


def params(**over):
    base = dict(k1=1.0, k2=0.02, k3=0.02, v_max=2.0, r_s=0.5, r_a=0.8, r_t=0.3,
                alpha0=1.0, h=0.8)
    base.update(over)
    return ControllerParams(**base).validate()


def scenario_stub(tube, prm, positions, dt=0.01, t_end=1.0, mode="full"):
    pts = np.asarray(positions, dtype=float)
    return SimpleNamespace(
        tube=tube, params=prm, dt=dt, t_end=t_end, mode=mode,
        density_grid=(40, 8), fingerprint="test", resolved={"name": "stub"},
        initial_state=lambda: make_swarm(pts),
    )


def brute_force_amd(pts):
    n = len(pts)
    total = 0.0
    for i in range(n):
        best = math.inf
        for j in range(n):
            if i == j:
                continue
            best = min(best, math.dist(pts[i], pts[j]))
        total += best
    return total / n


def brute_force_min_pair(pts):
    best = math.inf
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            best = min(best, math.dist(pts[i], pts[j]))
    return best


class TestAmd:
    def test_two_robots(self):
        assert abs(amd(make_swarm([(0.0, 0.0), (1.7, 0.0)])) - 1.7) < 1e-15

    def test_three_collinear(self):
        swarm = make_swarm([(0.0, 0.0), (2.0, 0.0), (4.0, 0.0)])
        assert abs(amd(swarm) - 2.0) < 1e-15

    def test_against_brute_force(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(0, 10, size=(25, 2))
        assert abs(amd(make_swarm(pts)) - brute_force_amd(pts)) < 1e-12

    def test_needs_two_active(self):
        with pytest.raises(ValueError):
            amd(make_swarm([(0.0, 0.0)]))

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(10)
        pts = rng.uniform(0, 5, size=(12, 2))
        theta = 0.83
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        moved = pts @ rot.T + np.array([3.0, -7.0])
        assert abs(amd(make_swarm(pts)) - amd(make_swarm(moved))) < 1e-12
        perm = pts[rng.permutation(len(pts))]
        assert abs(amd(make_swarm(pts)) - amd(make_swarm(perm))) < 1e-12

    def test_amd_at_least_min_pairwise(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            pts = rng.uniform(0, 8, size=(10, 2))
            swarm = make_swarm(pts)
            assert amd(swarm) >= min_pairwise_distance(swarm) - 1e-15


class TestNeighbours:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(case=clouds())
    def test_matches_the_dense_pass(self, case):
        pts, reach, family = case
        event(family)
        m = len(pts)
        got = neighbours(pts, reach)
        dx, dy, d = dense_distances(pts)
        pairs = list(zip(got.i.tolist(), got.j.tolist()))
        assert set(pairs) == set(zip(*np.nonzero(d < reach)))
        assert len(pairs) == len(set(pairs)) and np.all(np.diff(got.i) >= 0)
        assert np.array_equal(got.dx, dx[got.i, got.j])
        assert np.array_equal(got.dy, dy[got.i, got.j])
        assert np.array_equal(got.d, d[got.i, got.j])
        if m < 2:
            assert np.all(got.nearest == np.inf) and np.all(got.partner == -1)
            return
        assert np.array_equal(got.nearest, d.min(axis=1))
        assert np.array_equal(got.partner, d.argmin(axis=1))
        assert got.closest_pair() == (*np.unravel_index(int(np.argmin(d)), d.shape), np.min(d))
        assert min_pairwise_from_positions(pts) == float(np.min(d))
        assert amd_from_positions(pts) == float(np.mean(d.min(axis=1)))

    @pytest.mark.parametrize("bad", [(np.nan, 0.0), (np.inf, 0.0), (2e6, 0.0)])
    def test_out_of_range_positions_are_refused(self, bad):
        with pytest.raises(ValueError, match="finite positions"):
            neighbours([(0.0, 0.0), bad], 1.3)


class TestMinDistances:
    def test_pairwise_values(self):
        assert abs(min_pairwise_distance(make_swarm([(0, 0), (1.3, 0.0)])) - 1.3) < 1e-15
        tri = make_swarm([(0, 0), (2.0, 0), (1.0, math.sqrt(3))])
        assert abs(min_pairwise_distance(tri) - 2.0) < 1e-12

    def test_pairwise_brute_force(self):
        rng = np.random.default_rng(12)
        pts = rng.uniform(0, 10, size=(25, 2))
        assert abs(min_pairwise_distance(make_swarm(pts)) - brute_force_min_pair(pts)) < 1e-12

    def test_boundary_distance_values(self):
        tube = straight_tube(half_width=1.0)
        assert abs(min_boundary_distance(make_swarm([(5.0, 0.0)]), tube) - 1.0) < 1e-9
        assert abs(min_boundary_distance(make_swarm([(5.0, 0.6)]), tube) - 0.4) < 1e-9

    def test_boundary_distance_dense_sampling_oracle(self):
        tube = straight_tube(half_width=2.0)
        rng = np.random.default_rng(14)
        pts = np.stack([rng.uniform(1, 19, 10), rng.uniform(-1.4, 1.4, 10)], axis=1)
        swarm = make_swarm(pts)
        got = min_boundary_distance(swarm, tube)
        ls = np.linspace(0, tube.length, 100_000)
        boundary = np.concatenate([
            np.stack([ls, np.full_like(ls, 2.0)], axis=1),
            np.stack([ls, np.full_like(ls, -2.0)], axis=1),
        ])
        brute = min(
            float(np.min(np.linalg.norm(boundary - p, axis=1))) for p in pts
        )
        assert abs(got - brute) < 1e-4

    def test_only_active_robots_count(self):
        tube = straight_tube(half_width=2.0)
        swarm = make_swarm([(5.0, 1.9), (10.0, 0.0)])
        swarm.active[0] = False
        assert abs(min_boundary_distance(swarm, tube) - 2.0) < 1e-9


class TestThroughput:
    def _log(self):
        tube = straight_tube(length=20.0)
        prm = params()
        sc = scenario_stub(tube, prm, [(19.2, 0.0), (17.8, 0.4)], dt=0.01,
                           t_end=4.0, mode="baseline")
        return run(sc)

    def test_counts(self):
        log = self._log()
        assert throughput(log, 0.0) == 0
        t_end = log.records[-1].time
        assert throughput(log, t_end) == 2
        first_exit = min(log.exit_times.values())
        assert throughput(log, first_exit - 0.02) == 0
        assert throughput(log, first_exit) == 1

    def test_evacuation_time(self, tmp_path):
        log = self._log()
        assert log.termination == "all-exited"
        assert evacuation_time(log) == max(log.exit_times.values()) > 0.0
        write_summary_json(log, tmp_path / "summary.json")
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["evacuated_s"] == evacuation_time(log)
        # one robot is still in the tube at 0.5 s
        log.records = [r for r in log.records if r.time <= 0.5]
        assert log.exit_times and evacuation_time(log) is None

    def test_out_of_range(self):
        log = self._log()
        with pytest.raises(ValueError):
            throughput(log, -1.0)
        with pytest.raises(ValueError):
            throughput(log, log.records[-1].time + 1.0)


class TestAuditCondition23:
    def test_full_mode_clean(self):
        tube = straight_tube(length=30.0, half_width=3.0)
        prm = params()
        pts = [(1.0 + 1.2 * i, -1.2 + 1.2 * j) for i in range(3) for j in range(3)]
        log = run(scenario_stub(tube, prm, pts, dt=0.01, t_end=0.5, mode="full"))
        report = audit_condition23(log)
        assert report.ok and report.violations == []

    def test_corrupted_record_flagged(self):
        tube = straight_tube(length=30.0, half_width=3.0)
        prm = params()
        pts = [(1.0 + 1.2 * i, -1.2 + 1.2 * j) for i in range(3) for j in range(3)]
        log = run(scenario_stub(tube, prm, pts, dt=0.01, t_end=0.2, mode="full"))
        log.records[3].u4[0] = log.records[3].u1[0] * 50.0 + np.array([1.0, 0.0])
        report = audit_condition23(log)
        assert not report.ok
        assert any(rid == 0 for _, rid, _, _ in report.violations)

    def test_baseline_vacuous(self):
        tube = straight_tube(length=30.0, half_width=3.0)
        prm = params()
        pts = [(1.0 + 1.2 * i, -1.2 + 1.2 * j) for i in range(3) for j in range(3)]
        log = run(scenario_stub(tube, prm, pts, dt=0.01, t_end=0.2, mode="baseline"))
        report = audit_condition23(log)
        assert report.ok
