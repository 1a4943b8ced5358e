import json
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from tubenav import blocks
from tubenav.control import ControllerParams
from tubenav.engine import SimulationLog, run
from tubenav.geometry import GeneratingCurve, LineSegment, VirtualTube, WidthProfile
from tubenav.metrics import (
    amd_from_positions,
    audit_condition23,
    evacuation_time,
    min_pairwise_from_positions,
    PairList,
    neighbours,
    stalled_counts,
    throughput,
)
from tubenav.reports import write_summary_json

from clouds import clouds, dense_distances, skin_walk
from log_oracles import loop_audit_condition23


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
    return SimpleNamespace(
        tube=tube, params=prm, dt=dt, t_end=t_end, mode=mode,
        density_grid=(40, 8), fingerprint="test",
        resolved={"name": "stub", "params": {"k1_mps": prm.k1}},
        positions=np.asarray(positions, dtype=float),
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


def amd(pts):
    """The dispersion measure as the engine reads it: the mean of the
    nearest-neighbour distances (any reach; 1 m only sizes the cells)."""
    return float(np.mean(neighbours(pts, 1.0).nearest))


def min_pair(pts):
    return float(np.min(neighbours(pts, 1.0).nearest))


def min_boundary(pts, tube):
    d, _ = tube.boundary_distance_many(np.asarray(pts, dtype=float))
    return float(np.min(d))


class TestAmd:
    def test_two_robots(self):
        assert abs(amd([(0.0, 0.0), (1.7, 0.0)]) - 1.7) < 1e-15

    def test_three_collinear(self):
        assert abs(amd([(0.0, 0.0), (2.0, 0.0), (4.0, 0.0)]) - 2.0) < 1e-15

    def test_against_brute_force(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(0, 10, size=(25, 2))
        assert abs(amd(pts) - brute_force_amd(pts)) < 1e-12

    def test_needs_two_active(self):
        # a lone robot has no nearest neighbour: its distance is inf, no partner
        lone = neighbours([(0.0, 0.0)], 1.0)
        assert lone.nearest.tolist() == [math.inf] and lone.partner.tolist() == [-1]

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(10)
        pts = rng.uniform(0, 5, size=(12, 2))
        theta = 0.83
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        moved = pts @ rot.T + np.array([3.0, -7.0])
        assert abs(amd(pts) - amd(moved)) < 1e-12
        perm = pts[rng.permutation(len(pts))]
        assert abs(amd(pts) - amd(perm)) < 1e-12

    def test_amd_at_least_min_pairwise(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            pts = rng.uniform(0, 8, size=(10, 2))
            assert amd(pts) >= min_pair(pts) - 1e-15


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


def assert_same_neighbours(got, want):
    for name in ("i", "j", "dx", "dy", "d", "nearest", "partner"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


class TestPairList:
    """A pair list kept across records equals the use-once neighbour pass
    bit for bit, pair order included, while the robots move and exit."""

    @staticmethod
    def walk_matches_use_once(walk, reach, skin):
        pairs = PairList(skin)
        for pts in walk:
            assert_same_neighbours(neighbours(pts, reach, pairs), neighbours(pts, reach))
        return pairs.builds

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=clouds(), skin=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_property_random_walks(self, case, skin, seed):
        pts, reach, family = case
        event(family)
        skin *= reach
        walk = skin_walk(np.random.default_rng(seed), pts, 0.5 * skin, 10)
        self.walk_matches_use_once(walk, reach, skin)

    def test_long_walk_of_a_crowd(self):
        # a dense lattice, so that robots change cell between builds and
        # every record has pairs to put back in the cell list's order
        rng = np.random.default_rng(3)
        pts = np.stack(np.meshgrid(np.arange(8.0), np.arange(5.0)), axis=-1).reshape(-1, 2)
        pts = 0.9 * pts + rng.uniform(-0.05, 0.05, pts.shape)
        for skin in (0.0, 0.2, 1.0):
            walk = skin_walk(rng, pts, 0.5 * skin, 60, exit_rate=0.005)
            builds = self.walk_matches_use_once(walk, 1.3, skin)
            # a skin of 0 moves nothing: the list rebuilds at the exits alone
            assert 1 < builds < len(walk)

    def test_a_robot_changing_cell_reorders_the_pairs(self):
        # robot 0's partners swap cells within half a skin: 1 moves up into
        # the cell of 2, and 2 down into the cell below, so 2 now comes first
        reach, skin = 1.0, 0.25
        pairs = PairList(skin)
        before = np.array([[0.5, 0.5], [0.3, 0.99], [0.7, 1.05]])
        after = before + [[0.0, 0.0], [0.0, 0.02], [0.0, -0.06]]
        for pts, partners in [(before, [1, 2]), (after, [2, 1])]:
            got = neighbours(pts, reach, pairs)
            assert got.j[got.i == 0].tolist() == partners
            assert_same_neighbours(got, neighbours(pts, reach))
        assert pairs.builds == 1

    def test_more_than_half_a_skin_of_motion_rebuilds(self):
        pairs = PairList(0.5)
        pts = np.array([[0.0, 0.0], [0.75, 0.0], [3.0, 0.0]])
        for step, builds in [(0.0, 1), (0.125, 1), (0.125, 2), (0.0, 2)]:
            pts = pts + [[step, 0.0], [0.0, 0.0], [0.0, 0.0]]
            assert_same_neighbours(neighbours(pts, 1.0, pairs), neighbours(pts, 1.0))
            assert pairs.builds == builds
        neighbours(pts[1:], 1.0, pairs)  # an exit
        neighbours(pts[1:], 1.25, pairs)  # another reach
        assert pairs.builds == 4

    @pytest.mark.parametrize("bad", [(np.nan, 0.0), (np.inf, 0.0), (2e6, 0.0)])
    def test_bad_positions_are_refused_on_every_record(self, bad):
        pairs = PairList(0.5)
        pts = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.6]])
        neighbours(pts, 1.3, pairs)
        pts[1] = bad
        with pytest.raises(ValueError, match="finite positions"):
            neighbours(pts, 1.3, pairs)
        assert pairs.builds == 1
        pts[1] = [0.5, 0.0]
        assert_same_neighbours(neighbours(pts, 1.3, pairs), neighbours(pts, 1.3))

    @pytest.mark.parametrize("skin", [-0.1, np.nan])
    def test_bad_skin_is_refused(self, skin):
        with pytest.raises(ValueError, match="skin"):
            PairList(skin)


class TestIsolatedRobots:
    """Robots with no other robot within reach take their nearest distance
    from a dense pass over their rows, a row block at a time."""

    @staticmethod
    def isolated_lattice(n, spacing):
        side = math.isqrt(n)
        grid = np.stack(np.meshgrid(np.arange(side), np.arange(n // side)), axis=-1)
        return spacing * grid.reshape(-1, 2).astype(float)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=clouds(), rows_per_block=st.integers(1, 5))
    def test_property_any_block_size(self, case, rows_per_block):
        pts, reach, family = case
        event(family)
        want = neighbours(pts, reach)
        with pytest.MonkeyPatch.context() as mp:
            # live values per row are 5 M, so this many rows fit a block
            mp.setattr(blocks, "BLOCK_ELEMENTS", rows_per_block * 5 * max(len(pts), 1))
            assert_same_neighbours(neighbours(pts, reach), want)

    def test_traced_peak_stays_within_the_blocks(self):
        # 2,000 robots 5 m apart, none within the reach: every row is alone
        pts = self.isolated_lattice(2000, 5.0)
        bound = 1.5 * 8 * blocks.BLOCK_ELEMENTS
        # without the blocks, the (A, M, 2) offsets alone are 61 MiB
        assert 8 * 2 * len(pts) ** 2 > 30 * bound
        pairs = neighbours(pts, 1.3)  # warm
        tracemalloc.start()
        try:
            got = neighbours(pts, 1.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound
        assert_same_neighbours(got, pairs)
        assert np.all(got.nearest == 5.0)


class TestMinDistances:
    def test_pairwise_values(self):
        assert abs(min_pair([(0, 0), (1.3, 0.0)]) - 1.3) < 1e-15
        assert abs(min_pair([(0, 0), (2.0, 0), (1.0, math.sqrt(3))]) - 2.0) < 1e-12

    def test_pairwise_brute_force(self):
        rng = np.random.default_rng(12)
        pts = rng.uniform(0, 10, size=(25, 2))
        assert abs(min_pair(pts) - brute_force_min_pair(pts)) < 1e-12

    def test_boundary_distance_values(self):
        tube = straight_tube(half_width=1.0)
        assert abs(min_boundary([(5.0, 0.0)], tube) - 1.0) < 1e-9
        assert abs(min_boundary([(5.0, 0.6)], tube) - 0.4) < 1e-9

    def test_boundary_distance_dense_sampling_oracle(self):
        tube = straight_tube(half_width=2.0)
        rng = np.random.default_rng(14)
        pts = np.stack([rng.uniform(1, 19, 10), rng.uniform(-1.4, 1.4, 10)], axis=1)
        got = min_boundary(pts, tube)
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
        pts = np.array([(5.0, 1.9), (10.0, 0.0)])
        active = np.array([False, True])
        assert abs(min_boundary(pts[active], tube) - 2.0) < 1e-9


class TestThroughput:
    def _log(self, t_end=4.0):
        tube = straight_tube(length=20.0)
        prm = params()
        sc = scenario_stub(tube, prm, [(19.2, 0.0), (17.8, 0.4)], dt=0.01,
                           t_end=t_end, mode="baseline")
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
        # cut at 1 s, robot 0 has exited (at 0.8 s) and robot 1 has not
        log = self._log(t_end=1.0)
        assert log.records[-1].time == 1.0 and log.records[-1].active.tolist() == [False, True]
        assert log.exit_times and evacuation_time(log) is None

    def test_summary_counts_stalled_robots(self, tmp_path):
        log = self._log()
        write_summary_json(log, tmp_path / "summary.json")
        summary = json.loads((tmp_path / "summary.json").read_text())
        counts = stalled_counts(log, 1.0)
        assert len(counts) == len(log.records)
        # the last record of an all-exited run has no active robot
        assert summary["stalled_final"] == counts[-1] == 0
        assert summary["stalled_max"] == counts.max()

    def test_out_of_range(self):
        log = self._log()
        with pytest.raises(ValueError):
            throughput(log, -1.0)
        with pytest.raises(ValueError):
            throughput(log, log.records[-1].time + 1.0)


def stall_log(velocities, active, termination="time-limit"):
    """A log of the records' (N, 2) velocities and (N,) active flags."""
    active = np.asarray(active, dtype=bool)
    log = SimulationLog.allocate("stall", {}, active.shape[1], len(active))
    log.velocities[:] = velocities
    log.active[:] = active
    log.termination = termination
    return log


class TestStalledCounts:
    def test_counts_active_robots_below_the_threshold(self):
        k1 = 2.0
        slow = 1e-3 * k1
        log = stall_log([
            [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
            # exactly at the threshold is not stalled; just below is
            [[slow, 0.0], [0.0, np.nextafter(slow, 0.0)], [0.8 * slow, 0.8 * slow]],
            [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        ], [[True, True, False], [True, True, True], [False, False, False]])
        assert stalled_counts(log, k1).tolist() == [1, 1, 0]

    def test_fault_record_counts_none(self):
        still = ([[0.0, 0.0], [0.0, 0.0]], [True, True])
        log = stall_log(*zip(still, still), termination="fault")
        assert stalled_counts(log, 1.0).tolist() == [2, 0]
        log.termination = "time-limit"
        assert stalled_counts(log, 1.0).tolist() == [2, 2]

    def test_empty_log(self):
        log = stall_log(np.zeros((0, 3, 2)), np.zeros((0, 3), dtype=bool))
        assert stalled_counts(log, 1.0).tolist() == []


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
        assert report.violations == loop_audit_condition23(log)

    def test_baseline_vacuous(self):
        tube = straight_tube(length=30.0, half_width=3.0)
        prm = params()
        pts = [(1.0 + 1.2 * i, -1.2 + 1.2 * j) for i in range(3) for j in range(3)]
        log = run(scenario_stub(tube, prm, pts, dt=0.01, t_end=0.2, mode="baseline"))
        report = audit_condition23(log)
        assert report.ok
