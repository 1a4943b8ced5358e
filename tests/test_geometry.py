import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubenav import geometry
from tubenav.errors import OutsideTubeError, TubeDomainError
from tubenav.geometry import (
    ArcSegment,
    CatmullRomSegment,
    CurvilinearCoord,
    GeneratingCurve,
    LineSegment,
    VirtualTube,
    WidthProfile,
    narrow_intervals,
)


def straight_tube(length=10.0, r_d=1.0, r_u=1.0):
    curve = GeneratingCurve([LineSegment((0.0, 0.0), (length, 0.0))])
    widths = WidthProfile([(0.0, r_d, r_u), (length, r_d, r_u)])
    return VirtualTube(curve, widths)


def arc_tube(radius=5.0, sweep=2.0, r_d=0.5, r_u=0.5):
    # gamma(l) = (R cos(l/R), R sin(l/R)): starts at (R, 0), turns CCW
    curve = GeneratingCurve([ArcSegment((0.0, 0.0), radius, 0.0, sweep)])
    widths = WidthProfile([(0.0, r_d, r_u)])
    return VirtualTube(curve, widths)


def s_spline_tube():
    pts = [(0.0, 0.0), (2.0, 0.5), (4.0, -0.3), (6.0, 0.8), (8.0, 0.2)]
    curve = GeneratingCurve([CatmullRomSegment(pts)])
    widths = WidthProfile([(0.0, 1.2, 1.2)])
    return VirtualTube(curve, widths)


# ---------------------------------------------------------------------------
# curve_frame
# ---------------------------------------------------------------------------

class TestCurveFrame:
    def test_straight_tube_frame(self):
        tube = straight_tube()
        p, t, n = tube.curve_frame(3.0)
        assert np.allclose(p, [3.0, 0.0])
        assert np.allclose(t, [1.0, 0.0])
        assert np.allclose(n, [0.0, 1.0])

    def test_arc_frame_analytic(self):
        tube = arc_tube()
        p, t, n = tube.curve_frame(0.0)
        assert np.allclose(p, [5.0, 0.0], atol=1e-12)
        assert np.allclose(t, [0.0, 1.0], atol=1e-12)
        assert np.allclose(n, [-1.0, 0.0], atol=1e-12)

    def test_spline_tangent_matches_finite_difference(self):
        # independent oracle: central difference of the position evaluation
        tube = s_spline_tube()
        L = tube.length
        h = 1e-5
        for l in np.linspace(2 * h, L - 2 * h, 25):
            _, t, _ = tube.curve_frame(l)
            p_plus, _, _ = tube.curve_frame(l + h)
            p_minus, _, _ = tube.curve_frame(l - h)
            fd = (p_plus - p_minus) / (2 * h)
            assert np.linalg.norm(t - fd) < 1e-6

    def test_out_of_range_open_tube(self):
        tube = straight_tube()
        with pytest.raises(TubeDomainError):
            tube.curve_frame(11.0)
        with pytest.raises(TubeDomainError):
            tube.curve_frame(-0.5)

    def test_closed_tube_wraps(self):
        curve = GeneratingCurve(
            [ArcSegment((0.0, 0.0), 2.0, 0.0, 2 * math.pi)], closed=True
        )
        tube = VirtualTube(curve, WidthProfile([(0.0, 0.4, 0.4)]), topology="closed")
        p1, _, _ = tube.curve_frame(1.0)
        p2, _, _ = tube.curve_frame(1.0 + tube.length)
        assert np.allclose(p1, p2, atol=1e-12)

    def test_unit_tangent_and_orthonormal_frame(self):
        for tube in (straight_tube(), arc_tube(), s_spline_tube()):
            for l in np.linspace(0.0, tube.length, 50):
                _, t, n = tube.curve_frame(l)
                assert abs(np.linalg.norm(t) - 1.0) < 1e-9
                assert abs(np.linalg.norm(n) - 1.0) < 1e-12
                assert abs(float(t @ n)) < 1e-12
                # counterclockwise convention
                assert np.allclose(n, [-t[1], t[0]], atol=0)


def two_call_frames(seg, s):
    """The spline's former point_many + tangent_many pair, which inverted
    every arc length twice: the oracle for frames_many."""
    pts = np.empty((len(s), 2))
    tans = np.empty((len(s), 2))
    for k, sk in enumerate(s):
        i, u = seg._invert(float(sk))
        pts[k] = seg._piece_point(i, u)
    for k, sk in enumerate(s):
        i, u = seg._invert(float(sk))
        d1 = seg._piece_d1(i, u)
        tans[k] = d1 / math.hypot(d1[0], d1[1])
    return pts, tans


class TestSegmentFrames:
    def test_spline_frames_equal_the_two_call_result(self):
        seg = s_spline_tube().curve.segments[0]
        s = np.concatenate([[0.0, seg.length], np.linspace(0.0, seg.length, 121)[1:-1]])
        pts, tans = seg.frames_many(s)
        want_pts, want_tans = two_call_frames(seg, s)
        assert np.array_equal(pts, want_pts)
        assert np.array_equal(tans, want_tans)

    def test_spline_frames_invert_once_per_arc_length(self, monkeypatch):
        tube = s_spline_tube()
        seg = tube.curve.segments[0]
        calls = []
        invert = seg._invert
        monkeypatch.setattr(seg, "_invert", lambda sk: calls.append(sk) or invert(sk))
        ls = np.linspace(0.0, tube.length, 120)
        tube.curve.frames(ls)
        assert len(calls) == len(ls)

    def test_projection_carries_the_frame_tangent(self):
        for tube in (straight_tube(), arc_tube(), s_spline_tube()):
            pts = tube.section_points(np.linspace(0.1, tube.length - 0.1, 9), np.full(9, 0.3))
            prs = tube.curve.project_many(pts)
            assert prs.tangent.shape == (9, 2)
            for k in range(9):
                one = tube.curve.project(pts[k])
                _, _, tx, ty, cx, cy = tube.curve.eval_scalar(one.l)
                assert one.tangent == (tx, ty)
                assert one.curvature == ty * -cx + tx * cy  # c . n
                assert (prs.l[k], prs.r[k]) == (one.l, one.r)
                assert tuple(prs.tangent[k]) == one.tangent
                assert prs.curvature[k] == one.curvature
        # signed: positive on a counterclockwise arc, zero on a line
        assert np.allclose(arc_tube(radius=5.0).curve.project_many([(4.0, 2.0)]).curvature,
                           0.2, rtol=1e-12, atol=0)
        assert straight_tube().curve.project((3.0, 0.2)).curvature == 0.0


def scalar_gauss_len(seg, i, ua, ub):
    """The spline's former length sum: 16 scalar speed evaluations."""
    mid, half = 0.5 * (ua + ub), 0.5 * (ub - ua)
    total = 0.0
    for xk, wk in zip(*np.polynomial.legendre.leggauss(16)):
        total += wk * seg._speed(i, mid + half * xk)
    return total * half


class TestSplineLength:
    def test_array_gauss_sum_matches_the_scalar_sum(self):
        seg = s_spline_tube().curve.segments[0]
        us = np.linspace(0.0, 1.0, 33)
        for i in range(seg._n_pieces):
            for ua, ub in [(0.0, 1.0), (0.0, 0.37), (0.5, 0.53), *zip(us[:-1], us[1:])]:
                want = scalar_gauss_len(seg, i, ua, ub)
                assert abs(seg._gauss_len(i, ua, ub) - want) <= 1e-15 * want
        assert seg._gauss_len(0, 0.4, 0.4) == 0.0
        total = sum(scalar_gauss_len(seg, i, a, b) for i in range(seg._n_pieces)
                    for a, b in zip(us[:-1], us[1:]))
        assert abs(seg.length - total) <= 1e-14 * total


class TestProjectionConvergence:
    def test_unconverged_projection_raises_with_its_context(self, monkeypatch):
        tube = arc_tube()
        ok = tube.curve.project((4.0, 2.0), seed_l=1.0)
        monkeypatch.setattr(geometry, "_PROJ_MAX_NEWTON", 1)
        with pytest.raises(TubeDomainError, match=r"projection of \(4\.0, 2\.0\) did not "
                           r"converge in 1 Newton steps from seed l=1\.0: last step") as exc:
            tube.curve.project((4.0, 2.0), seed_l=1.0)
        step = float(str(exc.value).split("last step ")[1].split(",")[0])
        assert step != 0.0 and abs(1.0 + step - ok.l) < 0.1  # the first Newton step
        with pytest.raises(TubeDomainError, match="did not converge"):
            tube.locate((4.0, 2.0), seed_l=1.0)
        with pytest.raises(TubeDomainError, match="did not converge"):
            tube.curve.project_many([(4.0, 2.0)], seeds=[1.0])

    def test_converged_at_the_seed_needs_one_step(self, monkeypatch):
        # a step below the tolerance on the first iteration is convergence
        tube = straight_tube()
        monkeypatch.setattr(geometry, "_PROJ_MAX_NEWTON", 1)
        assert tube.curve.project((3.0, 0.2), seed_l=3.0).l == 3.0


# ---------------------------------------------------------------------------
# cross_section_endpoints
# ---------------------------------------------------------------------------

class TestCrossSection:
    def test_straight_symmetric(self):
        tube = straight_tube()
        p_d, p_u = tube.cross_section_endpoints(3.0)
        assert np.allclose(p_d, [3.0, -1.0])
        assert np.allclose(p_u, [3.0, 1.0])

    def test_asymmetric_widths(self):
        curve = GeneratingCurve([LineSegment((0.0, 0.0), (10.0, 0.0))])
        tube = VirtualTube(curve, WidthProfile([(0.0, 0.5, 2.0), (10.0, 0.5, 2.0)]))
        p_d, p_u = tube.cross_section_endpoints(0.0)
        assert np.allclose(p_d, [0.0, -0.5])
        assert np.allclose(p_u, [0.0, 2.0])

    def test_endpoint_distance_on_arc(self):
        tube = arc_tube(r_d=0.3, r_u=0.7)
        rng = np.random.default_rng(7)
        for l in rng.uniform(0.0, tube.length, 100):
            p, _, _ = tube.curve_frame(l)
            p_d, p_u = tube.cross_section_endpoints(l)
            assert abs(np.linalg.norm(p_u - p) - 0.7) < 1e-12
            assert abs(np.linalg.norm(p_d - p) - 0.3) < 1e-12


# ---------------------------------------------------------------------------
# to_curvilinear / to_cartesian
# ---------------------------------------------------------------------------

class TestCurvilinearMap:
    def test_straight_positive_offset(self):
        tube = straight_tube()
        c = tube.to_curvilinear((3.0, 0.4))
        assert abs(c.l - 3.0) < 1e-12 and abs(c.r - 0.4) < 1e-12

    def test_straight_negative_offset(self):
        tube = straight_tube()
        c = tube.to_curvilinear((3.0, -0.4))
        assert abs(c.l - 3.0) < 1e-12 and abs(c.r + 0.4) < 1e-12

    def test_arc_projection_against_dense_search(self):
        # oracle: exhaustive nearest-point search over 10^6 curve samples
        tube = arc_tube()
        ls_dense = np.linspace(0.0, tube.length, 1_000_000)
        pts_dense, _, _ = tube.curve.frames(ls_dense)
        for theta in (0.05, 0.13, 0.25, 0.37):
            p = np.array([5.5 * math.cos(theta), 5.5 * math.sin(theta)])
            c = tube.to_curvilinear(p)
            d2 = np.sum((pts_dense - p) ** 2, axis=1)
            l_brute = ls_dense[int(np.argmin(d2))]
            assert abs(c.l - 5.0 * theta) < 1e-9
            assert abs(c.l - l_brute) < 1e-5  # limited by oracle sampling
            assert abs(c.r + 0.5) < 1e-9  # outward side of the inward normal

    def test_to_cartesian_trivials(self):
        tube = straight_tube()
        p = tube.to_cartesian(CurvilinearCoord(3.0, 0.4))
        assert np.allclose(p, [3.0, 0.4])
        for l in (0.0, 2.5, 10.0):
            p0 = tube.to_cartesian(CurvilinearCoord(l, 0.0))
            g, _, _ = tube.curve_frame(l)
            assert np.allclose(p0, g)

    def test_round_trip_random_points(self):
        tube = arc_tube(r_d=0.4, r_u=0.6)
        rng = np.random.default_rng(42)
        ls = rng.uniform(0.0, tube.length, 1000)
        rs = rng.uniform(-0.4, 0.6, 1000)
        for l, r in zip(ls, rs):
            p = tube.to_cartesian(CurvilinearCoord(float(l), float(r)))
            c = tube.to_curvilinear(p)
            p2 = tube.to_cartesian(c)
            assert np.linalg.norm(p2 - p) < 1e-6

    def test_outside_point_raises_with_best_coord(self):
        tube = straight_tube()
        with pytest.raises(OutsideTubeError) as exc:
            tube.to_curvilinear((3.0, 1.5))
        best = exc.value.best_coord
        assert abs(best.l - 3.0) < 1e-9
        assert abs(best.r - 1.5) < 1e-9

    def test_beyond_terminal_is_outside(self):
        tube = straight_tube()
        with pytest.raises(OutsideTubeError):
            tube.to_curvilinear((10.5, 0.0))
        with pytest.raises(OutsideTubeError):
            tube.to_curvilinear((-0.5, 0.0))

    def test_to_cartesian_bounds(self):
        tube = straight_tube()
        with pytest.raises(TubeDomainError):
            tube.to_cartesian(CurvilinearCoord(3.0, 1.2))
        with pytest.raises(TubeDomainError):
            tube.to_cartesian(CurvilinearCoord(12.0, 0.0))


# ---------------------------------------------------------------------------
# tube_area
# ---------------------------------------------------------------------------

class TestTubeArea:
    def test_straight_constant(self):
        assert abs(straight_tube().tube_area() - 20.0) < 1e-12

    def test_linear_taper(self):
        curve = GeneratingCurve([LineSegment((0.0, 0.0), (10.0, 0.0))])
        tube = VirtualTube(curve, WidthProfile([(0.0, 1.0, 1.0), (10.0, 0.6, 0.6)]))
        assert abs(tube.tube_area() - 16.0) < 1e-12

    def test_arc_constant_width_uses_arc_length(self):
        tube = arc_tube(radius=5.0, sweep=2.0, r_d=0.5, r_u=0.5)
        # area convention integrates along arc length, not Lebesgue measure
        assert abs(tube.tube_area() - 1.0 * tube.length) < 1e-10


# ---------------------------------------------------------------------------
# flow_capacity / is_narrow
# ---------------------------------------------------------------------------

class TestFlowCapacity:
    def test_values(self):
        tube = straight_tube()
        assert abs(tube.flow_capacity(5.0) - 1.0) < 1e-15
        curve = GeneratingCurve([LineSegment((0.0, 0.0), (10.0, 0.0))])
        tube2 = VirtualTube(curve, WidthProfile([(0.0, 0.5, 1.0), (10.0, 0.5, 1.0)]))
        assert abs(tube2.flow_capacity(2.0) - 0.75) < 1e-15

    def test_continuity_by_sampling(self):
        curve = GeneratingCurve([LineSegment((0.0, 0.0), (10.0, 0.0))])
        tube = VirtualTube(
            curve, WidthProfile([(0.0, 2.0, 2.0), (5.0, 0.8, 0.8), (10.0, 1.5, 1.5)])
        )
        for delta in (1e-3, 1e-6, 1e-9):
            for l in (2.0, 5.0, 7.5):
                jump = abs(tube.flow_capacity(l + delta) - tube.flow_capacity(l))
                assert jump < 1.0 * delta + 1e-12

    def test_is_narrow(self):
        curve = GeneratingCurve([LineSegment((0.0, 0.0), (10.0, 0.0))])
        tube = VirtualTube(curve, WidthProfile([(0.0, 0.75, 0.75), (10.0, 0.75, 0.75)]))
        assert tube.is_narrow(5.0, 0.5) is True  # 0.5 < 0.75 <= 1.0
        tube_wide = straight_tube(r_d=1.2, r_u=1.2)
        assert tube_wide.is_narrow(5.0, 0.5) is False
        tube_tight = straight_tube(r_d=0.4, r_u=0.4)
        assert tube_tight.is_narrow(5.0, 0.5) is False  # robot cannot fit at all

    def test_capacity_is_half_endpoint_separation(self):
        tube = arc_tube(r_d=0.3, r_u=0.7)
        rng = np.random.default_rng(3)
        for l in rng.uniform(0.0, tube.length, 50):
            p_d, p_u = tube.cross_section_endpoints(l)
            assert abs(tube.flow_capacity(l) - 0.5 * np.linalg.norm(p_u - p_d)) < 1e-12


# ---------------------------------------------------------------------------
# check_regularity
# ---------------------------------------------------------------------------

class TestRegularity:
    def test_straight_tube_regular_any_width(self):
        for w in (0.5, 2.0, 10.0):
            rep = straight_tube(r_d=w, r_u=w).check_regularity()
            assert rep.ok and rep.intersections == []

    def test_overwide_arc_reports_intersections(self):
        # inner width exceeds the curvature radius: inner endpoints cross.
        # gamma(l) = 2(cos(l/2), sin(l/2)), inward side is -n; width on the
        # inward side r_d... here normal points inward, so r_u crosses center.
        tube = arc_tube(radius=2.0, sweep=2.5, r_d=0.2, r_u=2.5)
        rep = tube.check_regularity()
        assert not rep.ok
        assert len(rep.intersections) > 0

    def test_full_circle_seam(self):
        # closed ring: as an open tube the terminal sections coincide and the
        # seam pair is reported; closed topology excludes it by cyclic distance
        seg = ArcSegment((0.0, 0.0), 2.0, 0.0, 2 * math.pi)
        open_curve = GeneratingCurve([seg])
        open_tube = VirtualTube(open_curve, WidthProfile([(0.0, 0.4, 0.4)]))
        rep_open = open_tube.check_regularity()
        assert not rep_open.ok

        closed_curve = GeneratingCurve(
            [ArcSegment((0.0, 0.0), 2.0, 0.0, 2 * math.pi)], closed=True
        )
        closed_tube = VirtualTube(
            closed_curve, WidthProfile([(0.0, 0.4, 0.4)]), topology="closed"
        )
        rep_closed = closed_tube.check_regularity()
        assert rep_closed.ok

    def test_symmetric_in_pair_order(self):
        tube = arc_tube(radius=2.0, sweep=2.5, r_d=0.2, r_u=2.5)
        rep = tube.check_regularity()
        for l1, l2 in rep.intersections:
            assert l1 < l2  # canonical order; pair (l2, l1) is the same report


# ---------------------------------------------------------------------------
# boundary_distance
# ---------------------------------------------------------------------------

class TestBoundaryDistance:
    def test_centerline(self):
        tube = straight_tube()
        d, _ = tube.boundary_distance((3.0, 0.0))
        assert abs(d - 1.0) < 1e-9

    def test_near_upper_wall(self):
        tube = straight_tube()
        d, direction = tube.boundary_distance((3.0, 0.6))
        assert abs(d - 0.4) < 1e-9
        assert np.allclose(direction, [0.0, -1.0], atol=1e-9)

    def test_arc_against_dense_sampling(self):
        # oracle: brute force over a very dense boundary polyline
        tube = arc_tube(r_d=0.4, r_u=0.6)
        ls = np.linspace(0.0, tube.length, 200_000)
        pts, _, normals = tube.curve.frames(ls)
        lower = pts - tube.widths.r_d(ls)[:, None] * normals
        upper = pts + tube.widths.r_u(ls)[:, None] * normals
        rng = np.random.default_rng(11)
        for _ in range(20):
            l = float(rng.uniform(0.3, tube.length - 0.3))
            r = float(rng.uniform(-0.35, 0.55))
            p = tube.to_cartesian(CurvilinearCoord(l, r))
            d, _ = tube.boundary_distance(p)
            brute = min(
                float(np.min(np.linalg.norm(lower - p, axis=1))),
                float(np.min(np.linalg.norm(upper - p, axis=1))),
            )
            assert abs(d - brute) < 1e-4

    def test_outside_raises(self):
        tube = straight_tube()
        with pytest.raises(OutsideTubeError):
            tube.boundary_distance((3.0, 2.0))


def brute_force_boundary(tube, pts):
    """Scan of every boundary polyline segment for every point: the oracle
    for the chunk-culled query, with the same per-segment arithmetic."""
    pts = np.asarray(pts, dtype=float)
    m = len(pts)
    apx = pts[:, 0][:, None] - tube._seg_ax[None, :]
    apy = pts[:, 1][:, None] - tube._seg_ay[None, :]
    t = (apx * tube._seg_dx[None, :] + apy * tube._seg_dy[None, :]) / tube._seg_len2[None, :]
    np.clip(t, 0.0, 1.0, out=t)
    ex = apx - t * tube._seg_dx[None, :]
    ey = apy - t * tube._seg_dy[None, :]
    d2 = ex * ex + ey * ey
    idx = np.argmin(d2, axis=1)
    rows = np.arange(m)
    dist = np.sqrt(d2[rows, idx])
    dirs = np.stack([ex[rows, idx], ey[rows, idx]], axis=1)
    norms = np.where(dist > 0, dist, 1.0)
    return dist, dirs / norms[:, None]


def ring_tube(radius=2.0, r_d=0.4, r_u=0.3):
    curve = GeneratingCurve([ArcSegment((0.0, 0.0), radius, 0.0, 2 * math.pi)], closed=True)
    return VirtualTube(curve, WidthProfile([(0.0, r_d, r_u)]), topology="closed")


def long_tapered_tube():
    # many chunks per side, a width change and an odd segment count
    curve = GeneratingCurve([LineSegment((0.0, 0.0), (61.37, 0.0))])
    return VirtualTube(curve, WidthProfile([(0.0, 3.0, 2.0), (20.0, 3.0, 2.0), (25.0, 1.0, 1.5)]))


ORACLE_TUBES = {
    "line": long_tapered_tube(),
    "arc": arc_tube(r_d=0.4, r_u=0.6),
    "spline": s_spline_tube(),
    "closed": ring_tube(),
}


def _assert_matches_oracle(tube, pts):
    d, dirs = tube.boundary_distance_many(pts)
    d_ref, dirs_ref = brute_force_boundary(tube, pts)
    assert np.array_equal(d, d_ref)
    assert np.array_equal(dirs, dirs_ref)


class TestBoundaryDistanceCulling:
    """The chunk-culled query equals the full scan bit for bit."""

    @pytest.mark.parametrize("kind", sorted(ORACLE_TUBES))
    def test_random_points_inside_and_around(self, kind):
        tube = ORACLE_TUBES[kind]
        rng = np.random.default_rng(5)
        ls = rng.uniform(0.0, tube.length, 3000)
        rs = rng.uniform(-1.2, 1.2, 3000) * tube.widths.r_c(ls)
        pts = tube.section_points(ls, rs)
        lo, hi = pts.min(axis=0) - 5.0, pts.max(axis=0) + 5.0
        far = rng.uniform(lo, hi, size=(500, 2))
        _assert_matches_oracle(tube, np.concatenate([pts, far]))

    @pytest.mark.parametrize("kind", sorted(ORACLE_TUBES))
    def test_polyline_vertices(self, kind):
        tube = ORACLE_TUBES[kind]
        vertices = np.stack([tube._seg_ax, tube._seg_ay], axis=1)
        ends = vertices + np.stack([tube._seg_dx, tube._seg_dy], axis=1)
        _assert_matches_oracle(tube, np.concatenate([vertices, ends]))

    def test_equidistant_points_take_the_lowest_segment(self):
        # centreline of a symmetric straight tube: every point is as far
        # from the lower wall as from the upper one, and a point across from
        # a polyline vertex is as far from both segments that share it
        tube = straight_tube()
        xs = np.concatenate([tube._seg_ax[:40], np.linspace(0.0, 10.0, 333)])
        for y in (0.0, 0.3, -0.3):
            pts = np.stack([xs, np.full_like(xs, y)], axis=1)
            _assert_matches_oracle(tube, pts)
        d, dirs = tube.boundary_distance_many([[5.0, 0.0]])
        assert d[0] == 1.0
        assert np.array_equal(dirs[0], [0.0, 1.0])  # the lower wall comes first

    def test_single_point_and_none(self):
        for tube in ORACLE_TUBES.values():
            _assert_matches_oracle(tube, tube.section_points([0.37 * tube.length], [0.1]))
        d, dirs = straight_tube().boundary_distance_many(np.zeros((0, 2)))
        assert d.shape == (0,) and dirs.shape == (0, 2)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(sorted(ORACLE_TUBES)),
        fracs=st.lists(
            st.tuples(st.floats(0.0, 1.0), st.floats(-1.5, 1.5)), min_size=1, max_size=12
        ),
    )
    def test_property_matches_full_scan(self, kind, fracs):
        tube = ORACLE_TUBES[kind]
        f = np.array(fracs)
        ls = f[:, 0] * tube.length
        pts = tube.section_points(ls, f[:, 1] * tube.widths.r_c(ls))
        _assert_matches_oracle(tube, pts)


# ---------------------------------------------------------------------------
# module invariants
# ---------------------------------------------------------------------------

class TestInvariants:
    def test_bijectivity_bulk(self):
        tube = arc_tube(radius=5.0, sweep=2.0, r_d=0.4, r_u=0.6)
        rng = np.random.default_rng(0)
        n = 10_000
        ls = rng.uniform(0.0, tube.length, n)
        rs = rng.uniform(-0.4, 0.6, n)
        pts = tube.section_points(ls, rs)
        prs = tube.curve.project_many(pts)
        for k in range(n):
            assert abs(prs.l[k] - ls[k]) < 1e-6
            assert abs(prs.r[k] - rs[k]) < 1e-6
        # distinct points -> distinct coordinates (by injectivity of the inverse)
        coords = np.stack([prs.l, prs.r], axis=1)
        d = np.linalg.norm(coords[1:] - coords[:-1], axis=1)
        p_d = np.linalg.norm(pts[1:] - pts[:-1], axis=1)
        assert np.all(d[p_d > 1e-9] > 0)

    def test_monotone_traversal_coordinate(self):
        tube = s_spline_tube()
        rng = np.random.default_rng(5)
        for _ in range(50):
            l = float(rng.uniform(0.5, tube.length - 0.5))
            r = float(rng.uniform(-0.5, 0.5))
            p = tube.to_cartesian(CurvilinearCoord(l, r))
            _, t, _ = tube.curve_frame(l)
            c0 = tube.to_curvilinear(p)
            c1 = tube.to_curvilinear(p + 1e-3 * t)
            assert c1.l > c0.l

    def test_area_additivity_under_split(self):
        full_curve = GeneratingCurve([LineSegment((0.0, 0.0), (10.0, 0.0))])
        knots = [(0.0, 2.0, 2.0), (10.0, 0.5, 0.5)]
        full = VirtualTube(full_curve, WidthProfile(knots))
        left = VirtualTube(
            GeneratingCurve([LineSegment((0.0, 0.0), (5.0, 0.0))]),
            WidthProfile([(0.0, 2.0, 2.0), (5.0, 1.25, 1.25)]),
        )
        right = VirtualTube(
            GeneratingCurve([LineSegment((5.0, 0.0), (10.0, 0.0))]),
            WidthProfile([(0.0, 1.25, 1.25), (5.0, 0.5, 0.5)]),
        )
        total = left.tube_area() + right.tube_area()
        assert abs(total - full.tube_area()) / full.tube_area() < 1e-9

    def test_multi_segment_joint_continuity(self):
        # line -> arc -> line S-shape assembled with exact tangency
        segs = [
            LineSegment((0.0, 0.0), (4.0, 0.0)),
            ArcSegment((4.0, 3.0), 3.0, -math.pi / 2, 1.0),
        ]
        ends, tans = segs[1].frames_many(np.array([segs[1].length]))
        end, tan = ends[0], tans[0]
        segs.append(LineSegment(end, end + 5.0 * tan))
        curve = GeneratingCurve(segs)
        tube = VirtualTube(curve, WidthProfile([(0.0, 1.0, 1.0)]))
        # frame is continuous across joints
        for l_joint in (4.0, 4.0 + segs[1].length):
            p0, t0, _ = tube.curve_frame(l_joint - 1e-9)
            p1, t1, _ = tube.curve_frame(l_joint + 1e-9)
            assert np.linalg.norm(p1 - p0) < 1e-7
            assert np.linalg.norm(t1 - t0) < 1e-6

    def test_kinked_joint_rejected(self):
        with pytest.raises(ValueError):
            GeneratingCurve(
                [
                    LineSegment((0.0, 0.0), (4.0, 0.0)),
                    LineSegment((4.0, 0.0), (8.0, 1.0)),
                ]
            )


class TestNarrowIntervals:
    def test_wide_tube_has_none(self):
        assert narrow_intervals(straight_tube(r_d=1.2, r_u=1.2), 0.5) == []

    def test_taper_crossings(self):
        curve = GeneratingCurve([LineSegment((0.0, 0.0), (30.0, 0.0))])
        tube = VirtualTube(
            curve,
            WidthProfile(
                [
                    (0.0, 3.0, 3.0),
                    (6.0, 3.0, 3.0),
                    (19.0, 0.75, 0.75),
                    (23.0, 0.75, 0.75),
                    (30.0, 2.0, 2.0),
                ]
            ),
        )
        bands = narrow_intervals(tube, 0.5)
        assert len(bands) == 1
        lo, hi = bands[0]
        # sigma crosses 1.0 inside the taper and the widening ramp
        assert abs(lo - (6.0 + 13.0 * 2.0 / 2.25)) < 1e-9
        assert abs(hi - (23.0 + 7.0 * 0.25 / 1.25)) < 1e-9
