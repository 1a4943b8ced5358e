import bisect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubenav import blocks, geometry
from tubenav.errors import OutsideTubeError, TubeDomainError
from tubenav.geometry import (
    ArcSegment,
    CatmullRomSegment,
    GeneratingCurve,
    LineSegment,
    VirtualTube,
    WidthProfile,
    narrow_intervals,
)
from tubenav.scenario import bundled_scenario_path, load_scenario

from broadcast_kernels import scan_segments
from clouds import skin_walk
from scalar_tube import (
    CurvilinearCoord,
    boundary_distance,
    cross_section_endpoints,
    curve_frame,
    regularity_loop,
    segments_intersect,
    to_cartesian,
    to_curvilinear,
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
        p, t, n = curve_frame(tube, 3.0)
        assert np.allclose(p, [3.0, 0.0])
        assert np.allclose(t, [1.0, 0.0])
        assert np.allclose(n, [0.0, 1.0])

    def test_arc_frame_analytic(self):
        tube = arc_tube()
        p, t, n = curve_frame(tube, 0.0)
        assert np.allclose(p, [5.0, 0.0], atol=1e-12)
        assert np.allclose(t, [0.0, 1.0], atol=1e-12)
        assert np.allclose(n, [-1.0, 0.0], atol=1e-12)

    def test_spline_tangent_matches_finite_difference(self):
        # independent oracle: central difference of the position evaluation
        tube = s_spline_tube()
        L = tube.length
        h = 1e-5
        for l in np.linspace(2 * h, L - 2 * h, 25):
            _, t, _ = curve_frame(tube, l)
            p_plus, _, _ = curve_frame(tube, l + h)
            p_minus, _, _ = curve_frame(tube, l - h)
            fd = (p_plus - p_minus) / (2 * h)
            assert np.linalg.norm(t - fd) < 1e-6

    def test_out_of_range_open_tube(self):
        tube = straight_tube()
        with pytest.raises(TubeDomainError):
            curve_frame(tube, 11.0)
        with pytest.raises(TubeDomainError):
            curve_frame(tube, -0.5)

    def test_closed_tube_wraps(self):
        curve = GeneratingCurve(
            [ArcSegment((0.0, 0.0), 2.0, 0.0, 2 * math.pi)], closed=True
        )
        tube = VirtualTube(curve, WidthProfile([(0.0, 0.4, 0.4)]), topology="closed")
        p1, _, _ = curve_frame(tube, 1.0)
        p2, _, _ = curve_frame(tube, 1.0 + tube.length)
        assert np.allclose(p1, p2, atol=1e-12)

    def test_unit_tangent_and_orthonormal_frame(self):
        for tube in (straight_tube(), arc_tube(), s_spline_tube()):
            for l in np.linspace(0.0, tube.length, 50):
                _, t, n = curve_frame(tube, l)
                assert abs(np.linalg.norm(t) - 1.0) < 1e-9
                assert abs(np.linalg.norm(n) - 1.0) < 1e-12
                assert abs(float(t @ n)) < 1e-12
                # counterclockwise convention
                assert np.allclose(n, [-t[1], t[0]], atol=0)


# ---------------------------------------------------------------------------
# scalar oracle: the former per-point segment evaluation and Newton projection
# ---------------------------------------------------------------------------

class OracleSpline:
    """The former scalar Catmull-Rom evaluation: Hermite basis, a length
    table from 16-node Gauss sums of scalar speeds, and a scalar Newton
    inversion per arc length."""

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        tang = np.zeros_like(pts)
        if len(pts) == 2:
            tang[0] = tang[1] = pts[1] - pts[0]
        else:
            tang[0] = pts[1] - pts[0]
            tang[-1] = pts[-1] - pts[-2]
            tang[1:-1] = 0.5 * (pts[2:] - pts[:-2])
        self._p0, self._p1, self._m0, self._m1 = pts[:-1], pts[1:], tang[:-1], tang[1:]
        self.n_pieces = len(pts) - 1
        self.u_nodes = np.linspace(0.0, 1.0, 33)
        self.tables = []
        for i in range(self.n_pieces):
            s = np.zeros(33)
            for j in range(32):
                s[j + 1] = s[j] + self.gauss_len(i, self.u_nodes[j], self.u_nodes[j + 1])
            self.tables.append(s)
        self.cum = np.concatenate([[0.0], np.cumsum([t[-1] for t in self.tables])])
        self.length = float(self.cum[-1])

    def _basis(self, i, h):
        return h[0] * self._p0[i] + h[1] * self._m0[i] + h[2] * self._p1[i] + h[3] * self._m1[i]

    def point(self, i, u):
        return self._basis(i, (2 * u**3 - 3 * u**2 + 1, u**3 - 2 * u**2 + u,
                               -2 * u**3 + 3 * u**2, u**3 - u**2))

    def d1(self, i, u):
        return self._basis(i, (6 * u * u - 6 * u, 3 * u * u - 4 * u + 1,
                               -6 * u * u + 6 * u, 3 * u * u - 2 * u))

    def d2(self, i, u):
        return self._basis(i, (12 * u - 6, 6 * u - 4, -12 * u + 6, 6 * u - 2))

    def speed(self, i, u):
        d = self.d1(i, u)
        return math.hypot(d[0], d[1])

    def gauss_len(self, i, ua, ub):
        if ub <= ua:
            return 0.0
        mid, half = 0.5 * (ua + ub), 0.5 * (ub - ua)
        total = 0.0
        for xk, wk in zip(*np.polynomial.legendre.leggauss(16)):
            total += wk * self.speed(i, mid + half * xk)
        return total * half

    def invert(self, s):
        s = min(max(s, 0.0), self.length)
        i = min(max(int(np.searchsorted(self.cum, s, side="right")) - 1, 0), self.n_pieces - 1)
        sl = s - self.cum[i]
        table = self.tables[i]
        j = min(max(int(np.searchsorted(table, sl, side="right")) - 1, 0), len(table) - 2)
        u0, u1 = self.u_nodes[j], self.u_nodes[j + 1]
        u = u0 + (sl - table[j]) / max(table[j + 1] - table[j], 1e-300) * (u1 - u0)
        for _ in range(6):
            resid = table[j] + self.gauss_len(i, u0, u) - sl
            sp = self.speed(i, u)
            if sp <= 0.0:
                break
            du = -resid / sp
            u = min(max(u + du, 0.0), 1.0)
            if abs(du) < 1e-15:
                break
        return i, u

    def eval_scalar(self, s):
        i, u = self.invert(s)
        d1, d2, p = self.d1(i, u), self.d2(i, u), self.point(i, u)
        sp2 = d1[0] * d1[0] + d1[1] * d1[1]
        sp = math.sqrt(sp2)
        dot = d1[0] * d2[0] + d1[1] * d2[1]
        return (p[0], p[1], d1[0] / sp, d1[1] / sp,
                d2[0] / sp2 - d1[0] * dot / (sp2 * sp2), d2[1] / sp2 - d1[1] * dot / (sp2 * sp2))


def oracle_segment_eval(seg):
    """The former eval_scalar of a segment: s -> (px, py, tx, ty, cx, cy)."""
    if isinstance(seg, LineSegment):
        sx, sy = float(seg.start[0]), float(seg.start[1])
        chord = seg.end - seg.start
        ux, uy = (float(v) for v in chord / seg.length)
        return lambda s: (sx + s * ux, sy + s * uy, ux, uy, 0.0, 0.0)
    if isinstance(seg, ArcSegment):
        cx, cy, rad, sign = float(seg.center[0]), float(seg.center[1]), seg.radius, seg.sign

        def arc(s):
            th = seg.start_angle + sign * s / rad
            c, sn = math.cos(th), math.sin(th)
            return (cx + rad * c, cy + rad * sn, -sign * sn, sign * c, -c / rad, -sn / rad)
        return arc
    return OracleSpline(seg.points).eval_scalar


class OracleCurve:
    """The former scalar GeneratingCurve queries: eval_scalar per arc
    length and the per-point Newton projection, seeded by a scalar scan of
    every chord of the seed polyline, with one change: on a closed curve a
    step across the seam counts by its wrapped length (before, a point on
    the seam could flip between l = 0 and l = L until the step limit)."""

    def __init__(self, curve):
        self.curve = curve
        self.evals = [oracle_segment_eval(seg) for seg in curve.segments]
        self.cum = [0.0]
        for seg in curve.segments:
            self.cum.append(self.cum[-1] + seg.length)
        self.L = self.cum[-1]

    def eval_scalar(self, l):
        i = min(max(bisect.bisect_right(self.cum, l) - 1, 0), len(self.evals) - 1)
        return self.evals[i](l - self.cum[i])

    def seed_l(self, p):
        """The seed of p: a scalar scan of every chord of the seed polyline
        for the nearest point (ties to the lowest chord), with l interpolated
        along that chord."""
        px, py = float(p[0]), float(p[1])
        ls, (xs, ys) = self.curve.vertex_ls.tolist(), self.curve.vertex_points.T.tolist()
        best = None
        for k in range(len(ls) - 1):
            dx, dy = xs[k + 1] - xs[k], ys[k + 1] - ys[k]
            apx, apy = px - xs[k], py - ys[k]
            t = min(max((apx * dx + apy * dy) / (dx * dx + dy * dy), 0.0), 1.0)
            ex, ey = apx - t * dx, apy - t * dy
            d2 = ex * ex + ey * ey
            if best is None or d2 < best[0]:
                best = (d2, ls[k] + t * (ls[k + 1] - ls[k]))
        return best[1]

    def project(self, p, seed_l=None, max_newton=20):
        """(l, r, tx, ty, kappa, residual, beyond_start, beyond_end, steps)."""
        px, py = float(p[0]), float(p[1])
        L, closed = self.L, self.curve.closed
        if seed_l is None:
            l = self.seed_l(p)
        else:
            l = float(seed_l) % L if closed else min(max(float(seed_l), 0.0), L)
        for n in range(1, max_newton + 1):
            x, y, tx, ty, cx, cy = self.eval_scalar(l)
            dx, dy = px - x, py - y
            g = dx * tx + dy * ty
            gp = dx * cx + dy * cy - 1.0
            if abs(gp) < 1e-9:
                gp = -1.0
            ln = l - g / gp
            ln = ln % L if closed else min(max(ln, 0.0), L)
            moved = abs(ln - l)
            if closed:
                moved = min(moved, L - moved)
            moved = moved >= 1e-13 * (1.0 + L)
            l = ln
            if not moved:
                break
        else:
            raise TubeDomainError("oracle projection did not converge")
        x, y, tx, ty, cx, cy = self.eval_scalar(l)
        dx, dy = px - x, py - y
        g = dx * tx + dy * ty
        return (l, -dx * ty + dy * tx, tx, ty, ty * -cx + tx * cy, g,
                (not closed) and l <= 0.0 and g < -1e-9, (not closed) and l >= L and g > 1e-9, n)


def projection_rows(pr):
    return np.column_stack([pr.l, pr.r, pr.tangent, pr.curvature, pr.residual,
                            pr.beyond_start, pr.beyond_end])


class TestSegmentFrames:
    def test_spline_eval_matches_the_scalar_oracle(self):
        seg = s_spline_tube().curve.segments[0]
        oracle = OracleSpline(seg.points)
        assert abs(seg.length - oracle.length) <= 1e-14 * oracle.length
        s = np.concatenate([[0.0, seg.length, -0.1, seg.length + 0.1],
                            np.linspace(0.0, seg.length, 121)[1:-1]])
        got = np.concatenate(seg.eval_many(s), axis=1)
        want = np.array([oracle.eval_scalar(float(sk)) for sk in s])
        assert np.max(np.abs(got[:, :4] - want[:, :4])) < 1e-12
        assert np.max(np.abs(got[:, 4:] - want[:, 4:])) < 1e-9

    def test_spline_frames_invert_in_one_call(self, monkeypatch):
        tube = s_spline_tube()
        calls = []
        invert = CatmullRomSegment._invert
        monkeypatch.setattr(CatmullRomSegment, "_invert",
                            lambda seg, s, k: calls.append(len(s)) or invert(seg, s, k))
        tube.curve.frames(np.linspace(0.0, tube.length, 120))
        assert calls == [120]

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


class TestSplineLength:
    def test_array_gauss_sum_matches_the_scalar_sum(self):
        seg = s_spline_tube().curve.segments[0]
        oracle = OracleSpline(seg.points)
        us = np.linspace(0.0, 1.0, 33)
        for i in range(seg._n_pieces):
            bounds = np.array([(0.0, 1.0), (0.0, 0.37), (0.5, 0.53), *zip(us[:-1], us[1:])])
            got = seg._gauss_len(np.full(len(bounds), i), bounds[:, 0], bounds[:, 1])
            want = np.array([oracle.gauss_len(i, a, b) for a, b in bounds])
            assert np.all(np.abs(got - want) <= 1e-15 * want)
        assert seg._gauss_len(np.array([0]), np.array([0.4]), np.array([0.4]))[0] == 0.0
        total = sum(oracle.gauss_len(i, a, b) for i in range(seg._n_pieces)
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
            tube.locate([(4.0, 2.0)], seeds=[1.0])
        with pytest.raises(TubeDomainError, match="did not converge"):
            tube.curve.project_many([(4.0, 2.0)], seeds=[1.0])

    def test_seeded_row_recovers_from_its_table_seed(self, monkeypatch):
        # from l = 8 the oracle needs 5 Newton steps, from the table seed 3
        tube = arc_tube()
        oracle = OracleCurve(tube.curve)
        pts = [(4.0, 2.0), (5.2, 1.0)]
        assert oracle.project(pts[0], seed_l=8.0)[-1] == 5
        assert oracle.project(pts[0])[-1] == 3
        unseeded = projection_rows(tube.curve.project_many(pts))
        monkeypatch.setattr(geometry, "_PROJ_MAX_NEWTON", 3)
        got = projection_rows(tube.curve.project_many(pts, seeds=[8.0, 0.2]))
        assert np.array_equal(got, unseeded)

    def test_row_that_fails_from_both_seeds_raises_naming_both(self, monkeypatch):
        tube = arc_tube()
        monkeypatch.setattr(geometry, "_PROJ_MAX_NEWTON", 2)
        with pytest.raises(TubeDomainError) as exc:
            tube.curve.project_many([(5.2, 1.0), (4.0, 2.0)], seeds=[0.2, 8.0])
        msg = str(exc.value)
        assert msg.startswith("projection of (4.0, 2.0) did not converge in 2 Newton steps"
                              " from seed l=8.0: last step ")
        table = float(tube.curve.table_seeds([(4.0, 2.0)])[0])
        assert f"; retried from the table seed l={table!r}: last step " in msg
        assert msg.count("now at l=") == 2

    def test_point_on_the_seam_of_a_closed_curve_converges(self):
        # at the seam l + step rounds to L and wraps to 0, then back: the
        # move counts by its wrapped length, not as a jump of L
        curve = GeneratingCurve(_stadium(1.0, 1.0, 0.0, 0.0), closed=True)
        L = curve.total_length
        p = curve.frames([L])[0]
        assert p[0, 0] != 0.0 and abs(p[0, 0]) < 1e-15  # just short of gamma(0)
        # the seed polyline's last chord ends at L: the seam seeds at 0 or L
        assert curve.vertex_ls[0] == 0.0 and curve.vertex_ls[-1] == L
        seed = curve.table_seeds(p)[0]
        assert seed == OracleCurve(curve).seed_l(p[0]) and min(seed, L - seed) < 1e-12
        for seeds in (None, [0.0], [L]):
            l = curve.project_many(p, seeds).l[0]
            assert min(l, L - l) < 1e-12

    def test_converged_at_the_seed_needs_one_step(self, monkeypatch):
        # a step below the tolerance on the first iteration is convergence
        tube = straight_tube()
        monkeypatch.setattr(geometry, "_PROJ_MAX_NEWTON", 1)
        assert tube.curve.project((3.0, 0.2), seed_l=3.0).l == 3.0


def _heading(h):
    return np.array([math.cos(h), math.sin(h)])


def _chain(pieces, start=(0.0, 0.0), heading=0.0):
    """Tangent-continuous segments from (kind, a, b, ...) piece specs: a line
    of length a, an arc of radius a and sweep b, or a spline whose inner
    waypoints sit at (along, across) offsets from its start heading."""
    p, h = np.asarray(start, dtype=float), heading
    segs = []
    for kind, a, b, *inner in pieces:
        if kind == "line":
            seg = LineSegment(p, p + a * _heading(h))
        elif kind == "arc":
            sign = 1.0 if b > 0 else -1.0
            center = p + a * _heading(h + sign * math.pi / 2)
            seg = ArcSegment(center, a, h - sign * math.pi / 2, b)
        else:
            t, n = _heading(h), _heading(h + math.pi / 2)
            way = [p, p + a * t] + [p + along * t + across * n for along, across in inner]
            end_dir = _heading(h + b)
            way += [way[-1] + 0.5 * a * end_dir]
            seg = CatmullRomSegment(way)
        pts, tans, _ = seg.eval_many([seg.length])
        p, h = pts[0], math.atan2(tans[0][1], tans[0][0])
        segs.append(seg)
    return segs


def _stadium(straight, radius, spline_bump, heading):
    """Closed chain: two straights (the first optionally a spline with a
    lateral bump and straight ends) joined by two half circles."""
    t, n = _heading(heading), _heading(heading + math.pi / 2)
    p0 = np.zeros(2)
    if spline_bump:
        way = [p0, p0 + 0.25 * straight * t, p0 + 0.5 * straight * t + spline_bump * n,
               p0 + 0.75 * straight * t, p0 + straight * t]
        first = CatmullRomSegment(way)
    else:
        first = LineSegment(p0, p0 + straight * t)
    segs = [first,
            ArcSegment(p0 + straight * t + radius * n, radius, heading - math.pi / 2, math.pi),
            LineSegment(p0 + straight * t + 2 * radius * n, p0 + 2 * radius * n),
            ArcSegment(p0 + radius * n, radius, heading + math.pi / 2, math.pi)]
    return segs


piece_st = st.one_of(
    st.tuples(st.just("line"), st.floats(0.3, 5.0), st.just(0.0)),
    st.tuples(st.just("arc"), st.floats(0.8, 8.0),
              st.sampled_from([-1.0, 1.0]).flatmap(lambda s: st.floats(0.1, 2.0).map(lambda v: s * v))),
    st.tuples(st.just("spline"), st.floats(0.5, 2.0), st.floats(-0.6, 0.6),
              st.tuples(st.floats(1.5, 2.5), st.floats(-0.4, 0.4)),
              st.tuples(st.floats(3.0, 4.0), st.floats(-0.4, 0.4))),
)

curve_st = st.one_of(
    st.tuples(st.just("open"), st.lists(piece_st, min_size=1, max_size=4),
              st.floats(-math.pi, math.pi)),
    st.tuples(st.just("closed"), st.floats(1.0, 6.0), st.floats(1.0, 4.0),
              st.sampled_from([0.0, 0.0, 0.3, -0.4]), st.floats(-math.pi, math.pi)),
)


def _build_curve(spec):
    if spec[0] == "open":
        _, pieces, heading = spec
        return GeneratingCurve(_chain(pieces, heading=heading))
    _, straight, radius, bump, heading = spec
    return GeneratingCurve(_stadium(straight, radius, bump, heading), closed=True)


def _query_points(curve, fracs):
    """Points near the curve (within a fifth of its tightest radius of the
    spine) and a few past its ends."""
    ls = np.array([f for f, _ in fracs]) * curve.total_length
    kappa = max(max(seg.max_curvature() for seg in curve.segments), 1e-3)
    rs = np.array([r for _, r in fracs]) * min(0.2 / kappa, 1.0)
    pts, _, normals = curve.frames(ls)
    return pts + rs[:, None] * normals, ls


class TestProjectionAgainstOracle:
    """project_many against the former scalar projection on random chains
    of lines, arcs and splines, open and closed."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(spec=curve_st,
           fracs=st.lists(st.tuples(st.floats(-0.05, 1.05), st.floats(-1.0, 1.0)),
                          min_size=1, max_size=12),
           shift=st.floats(-0.3, 0.3))
    def test_property_matches_the_scalar_projection(self, spec, fracs, shift):
        curve = _build_curve(spec)
        oracle = OracleCurve(curve)
        pts, ls = _query_points(curve, fracs)
        spline = any(isinstance(seg, CatmullRomSegment) for seg in curve.segments)
        for seeds in (None, ls + shift):
            got = projection_rows(curve.project_many(pts, seeds))
            want = np.array([oracle.project(p, None if seeds is None else s)[:8]
                             for p, s in zip(pts, ls + shift)], dtype=float)
            if not spline:
                assert np.array_equal(got, want)
            else:
                dl = got[:, 0] - want[:, 0]
                if curve.closed:  # l and l +- L are the same spine point
                    dl = np.remainder(dl + 0.5 * curve.total_length, curve.total_length) \
                        - 0.5 * curve.total_length
                assert np.max(np.abs(dl)) < 1e-12
                assert np.max(np.abs(got[:, 1] - want[:, 1])) < 1e-12
                assert np.array_equal(got[:, 6:], want[:, 6:])

    def test_strategy_reaches_every_kind(self):
        kinds = {"open": set(), "closed": set()}
        stacked = set()  # kinds seen twice in one curve, so evaluated as a stack

        @settings(max_examples=120, deadline=None, derandomize=True)
        @given(spec=curve_st)
        def collect(spec):
            names = [seg.kind for seg in _build_curve(spec).segments]
            kinds[spec[0]].update(names)
            stacked.update(name for name in names if names.count(name) > 1)

        collect()
        assert kinds == {"open": {"line", "arc", "spline"}, "closed": {"line", "arc", "spline"}}
        assert stacked == {"line", "arc", "spline"}

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(spec=curve_st,
           pts=st.lists(st.tuples(st.floats(-12.0, 12.0), st.floats(-12.0, 12.0)),
                        min_size=1, max_size=10))
    def test_property_culled_seed_is_the_full_scan_argmin(self, spec, pts):
        curve = _build_curve(spec)
        oracle = OracleCurve(curve)
        pts = np.array(pts)
        # the vertices, where two chords tie, points off them along the
        # normal, near both chords, and the chord midpoints
        vs = curve.vertex_points
        normals = curve.frames(curve.vertex_ls)[2]
        mid = 0.5 * (vs[:-1] + vs[1:])
        pts = np.concatenate([pts, vs[::3], (vs + 0.3 * normals)[::5],
                              (vs - 0.2 * normals)[::7], mid[::7]])
        want = [oracle.seed_l(p) for p in pts]
        assert np.array_equal(curve.table_seeds(pts), want)

    def test_ties_go_to_the_lowest_sample(self):
        # a hairpin: two parallel lines 2 m apart joined by a half circle;
        # a point midway between the lines is exactly 1 m from a chord of
        # each, and the lower chord (the first line, l = x) seeds it
        curve = GeneratingCurve([LineSegment((0.0, 0.0), (10.0, 0.0)),
                                 ArcSegment((10.0, 1.0), 1.0, -0.5 * math.pi, math.pi),
                                 LineSegment((10.0, 2.0), (0.0, 2.0))])
        xs = np.linspace(0.5, 8.0, 61)
        mid = np.stack([xs, np.ones_like(xs)], axis=1)
        d2 = scan_segments(curve._chords.rows, mid)[2]
        tied = np.sum(d2 == d2.min(axis=1, keepdims=True), axis=1) > 1
        assert tied.all()
        oracle = OracleCurve(curve)
        seeds = curve.table_seeds(mid)
        assert np.array_equal(seeds, [oracle.seed_l(p) for p in mid])
        assert np.max(np.abs(seeds - xs)) < 1e-12
        # just above the midline the upper line is nearer: l = L - x
        above = curve.table_seeds(mid + [0.0, 1e-9])
        assert np.max(np.abs(above - (curve.total_length - xs))) < 1e-9

    def test_straight_spine_keeps_its_two_ends(self):
        for length in (10.0, 200.0):
            curve = straight_tube(length).curve
            assert curve.vertex_ls.tolist() == [0.0, length]
            pts = [(0.3 * length, 0.5), (-1.0, 0.2), (length + 1.0, -0.4)]
            assert np.array_equal(curve.table_seeds(pts), [0.3 * length, 0.0, length])

    def test_line_arc_line_spine_keeps_the_arc_grid_and_the_line_ends(self):
        curve = GeneratingCurve(_chain([("line", 3.0, 0.0), ("arc", 2.0, 1.2),
                                        ("line", 4.0, 0.0)]))
        L = curve.total_length
        grid = np.linspace(0.0, L, int(math.ceil(L / 0.05)) + 1)
        a, b = curve.segments[0].length, curve.segments[0].length + curve.segments[1].length
        # the last grid vertex up to the first joint, the first from the
        # second joint on, and every grid vertex between them
        lo, hi = grid[grid <= a][-1], grid[grid >= b][0]
        want = grid[(grid == 0.0) | (grid == L) | ((grid >= lo) & (grid <= hi))]
        assert np.array_equal(curve.vertex_ls, want)
        assert 2 + 2.4 / 0.05 < len(want) < 8 + 2.4 / 0.05

    @pytest.mark.parametrize("n", [1, 25, 400])
    def test_one_evaluation_per_newton_step(self, monkeypatch, n):
        tube = arc_tube(radius=5.0, sweep=2.0)
        rng = np.random.default_rng(n)
        pts = tube.section_points(rng.uniform(0.0, tube.length, n), rng.uniform(-0.4, 0.4, n))
        calls = []
        evaluate = GeneratingCurve.eval_many
        monkeypatch.setattr(GeneratingCurve, "eval_many",
                            lambda curve, ls, clip=False: calls.append(len(ls)) or
                            evaluate(curve, ls, clip))
        prs = tube.curve.project_many(pts)
        assert 2 <= len(calls) <= geometry._PROJ_MAX_NEWTON + 1
        calls.clear()
        tube.curve.project_many(pts + 0.01, seeds=prs.l)
        assert 2 <= len(calls) <= geometry._PROJ_MAX_NEWTON + 1


# ---------------------------------------------------------------------------
# cross_section_endpoints
# ---------------------------------------------------------------------------

class TestCrossSection:
    def test_straight_symmetric(self):
        tube = straight_tube()
        p_d, p_u = cross_section_endpoints(tube, 3.0)
        assert np.allclose(p_d, [3.0, -1.0])
        assert np.allclose(p_u, [3.0, 1.0])

    def test_asymmetric_widths(self):
        curve = GeneratingCurve([LineSegment((0.0, 0.0), (10.0, 0.0))])
        tube = VirtualTube(curve, WidthProfile([(0.0, 0.5, 2.0), (10.0, 0.5, 2.0)]))
        p_d, p_u = cross_section_endpoints(tube, 0.0)
        assert np.allclose(p_d, [0.0, -0.5])
        assert np.allclose(p_u, [0.0, 2.0])

    def test_endpoint_distance_on_arc(self):
        tube = arc_tube(r_d=0.3, r_u=0.7)
        rng = np.random.default_rng(7)
        for l in rng.uniform(0.0, tube.length, 100):
            p, _, _ = curve_frame(tube, l)
            p_d, p_u = cross_section_endpoints(tube, l)
            assert abs(np.linalg.norm(p_u - p) - 0.7) < 1e-12
            assert abs(np.linalg.norm(p_d - p) - 0.3) < 1e-12


# ---------------------------------------------------------------------------
# to_curvilinear / to_cartesian
# ---------------------------------------------------------------------------

class TestCurvilinearMap:
    def test_straight_positive_offset(self):
        tube = straight_tube()
        c = to_curvilinear(tube, (3.0, 0.4))
        assert abs(c.l - 3.0) < 1e-12 and abs(c.r - 0.4) < 1e-12

    def test_straight_negative_offset(self):
        tube = straight_tube()
        c = to_curvilinear(tube, (3.0, -0.4))
        assert abs(c.l - 3.0) < 1e-12 and abs(c.r + 0.4) < 1e-12

    def test_arc_projection_against_dense_search(self):
        # oracle: exhaustive nearest-point search over 10^6 curve samples
        tube = arc_tube()
        ls_dense = np.linspace(0.0, tube.length, 1_000_000)
        pts_dense, _, _ = tube.curve.frames(ls_dense)
        for theta in (0.05, 0.13, 0.25, 0.37):
            p = np.array([5.5 * math.cos(theta), 5.5 * math.sin(theta)])
            c = to_curvilinear(tube, p)
            d2 = np.sum((pts_dense - p) ** 2, axis=1)
            l_brute = ls_dense[int(np.argmin(d2))]
            assert abs(c.l - 5.0 * theta) < 1e-9
            assert abs(c.l - l_brute) < 1e-5  # limited by oracle sampling
            assert abs(c.r + 0.5) < 1e-9  # outward side of the inward normal

    def test_to_cartesian_trivials(self):
        tube = straight_tube()
        p = to_cartesian(tube, CurvilinearCoord(3.0, 0.4))
        assert np.allclose(p, [3.0, 0.4])
        for l in (0.0, 2.5, 10.0):
            p0 = to_cartesian(tube, CurvilinearCoord(l, 0.0))
            g, _, _ = curve_frame(tube, l)
            assert np.allclose(p0, g)

    def test_round_trip_random_points(self):
        tube = arc_tube(r_d=0.4, r_u=0.6)
        rng = np.random.default_rng(42)
        ls = rng.uniform(0.0, tube.length, 1000)
        rs = rng.uniform(-0.4, 0.6, 1000)
        for l, r in zip(ls, rs):
            p = to_cartesian(tube, CurvilinearCoord(float(l), float(r)))
            c = to_curvilinear(tube, p)
            p2 = to_cartesian(tube, c)
            assert np.linalg.norm(p2 - p) < 1e-6

    def test_outside_point_raises_with_best_coord(self):
        tube = straight_tube()
        with pytest.raises(OutsideTubeError) as exc:
            to_curvilinear(tube, (3.0, 1.5))
        best = exc.value.best_coord
        assert abs(best.l - 3.0) < 1e-9
        assert abs(best.r - 1.5) < 1e-9

    def test_beyond_terminal_is_outside(self):
        tube = straight_tube()
        with pytest.raises(OutsideTubeError):
            to_curvilinear(tube, (10.5, 0.0))
        with pytest.raises(OutsideTubeError):
            to_curvilinear(tube, (-0.5, 0.0))

    def test_to_cartesian_bounds(self):
        tube = straight_tube()
        with pytest.raises(TubeDomainError):
            to_cartesian(tube, CurvilinearCoord(3.0, 1.2))
        with pytest.raises(TubeDomainError):
            to_cartesian(tube, CurvilinearCoord(12.0, 0.0))


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
            p_d, p_u = cross_section_endpoints(tube, l)
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

    @pytest.mark.parametrize("spacing, cause", [
        (0.0, "must be positive"), (-1.0, "must be positive"), (math.nan, "must be positive"),
        (1e9, "leaves no pair"),
    ])
    def test_bad_spacing_raises(self, spacing, cause):
        with pytest.raises(ValueError, match=cause):
            arc_tube().check_regularity(spacing)

    @pytest.mark.parametrize("spacing", [None, 0.05, 0.01])
    def test_self_overlapping_tube_matches_the_loop(self, spacing):
        tube = arc_tube(radius=2.0, sweep=2.5, r_d=0.2, r_u=2.5)
        hits, _ = regularity_loop(tube, spacing)
        rep = tube.check_regularity(spacing)
        assert not rep.ok and len(hits) > 1000
        assert rep.intersections == hits

    def test_pairs_span_several_passes(self, monkeypatch):
        # a block smaller than one row of sections: one row per pass
        tube = arc_tube(radius=2.0, sweep=2.5, r_d=0.2, r_u=2.5)
        monkeypatch.setattr(blocks, "BLOCK_ELEMENTS", 7)
        assert tube.check_regularity(0.05).intersections == regularity_loop(tube, 0.05)[0]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(spec=curve_st, r_d=st.floats(0.05, 4.0), r_u=st.floats(0.05, 4.0),
           spacing=st.one_of(st.none(), st.floats(0.004, 0.2)))
    def test_property_matches_the_scalar_loop(self, spec, r_d, r_u, spacing):
        curve = _build_curve(spec)
        tube = VirtualTube(curve, WidthProfile([(0.0, r_d, r_u)]), topology=spec[0])
        ds = None if spacing is None else spacing * tube.length
        hits, tested = regularity_loop(tube, ds)
        if not tested:
            with pytest.raises(ValueError, match="leaves no pair"):
                tube.check_regularity(ds)
            return
        rep = tube.check_regularity(ds)
        assert rep.ok == (not hits)
        assert rep.intersections == hits

    def test_strategy_reaches_both_outcomes_on_both_topologies(self):
        seen = set()

        @settings(max_examples=60, deadline=None, derandomize=True)
        @given(spec=curve_st, r_d=st.floats(0.05, 4.0), r_u=st.floats(0.05, 4.0))
        def collect(spec, r_d, r_u):
            tube = VirtualTube(_build_curve(spec), WidthProfile([(0.0, r_d, r_u)]),
                               topology=spec[0])
            seen.add((spec[0], tube.check_regularity().ok))

        collect()
        assert seen == {("open", True), ("open", False), ("closed", True), ("closed", False)}

    @pytest.mark.parametrize("p1, p2, p3, p4", [
        ((0, 0), (2, 0), (1, -1), (1, 1)),      # proper crossing
        ((0, 0), (2, 0), (1, 0), (1, 1)),       # an end point on the other segment:
        ((0, 0), (2, 0), (1, 1), (1, 0)),       # each of the four in turn
        ((1, 0), (2, 0), (1, -1), (1, 1)),
        ((0, 0), (1, 0), (1, -1), (1, 1)),
        ((0, 0), (2, 0), (1, 0), (3, 0)),       # collinear overlap
        ((0, 0), (2, 0), (3, 0), (4, 0)),       # collinear, apart
        ((0, 0), (2, 0), (0, 1), (2, 1)),       # parallel
        ((0, 0), (2, 0), (2 + 1e-13, 0), (3, 1)),  # within the tolerance
        ((0, 0), (1, 1), (0, 1), (1, 0)),
    ])
    def test_segment_predicate_matches_the_scalar_one(self, p1, p2, p3, p4):
        want = segments_intersect(p1, p2, p3, p4)
        got = geometry._segments_intersect_many(*(np.array([p], dtype=float)
                                                  for p in (p1, p2, p3, p4)))
        assert got.tolist() == [want]


# ---------------------------------------------------------------------------
# boundary_distance
# ---------------------------------------------------------------------------

class TestBoundaryDistance:
    def test_centerline(self):
        tube = straight_tube()
        d, _ = boundary_distance(tube, (3.0, 0.0))
        assert abs(d - 1.0) < 1e-9

    def test_near_upper_wall(self):
        tube = straight_tube()
        d, direction = boundary_distance(tube, (3.0, 0.6))
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
            p = to_cartesian(tube, CurvilinearCoord(l, r))
            d, _ = boundary_distance(tube, p)
            brute = min(
                float(np.min(np.linalg.norm(lower - p, axis=1))),
                float(np.min(np.linalg.norm(upper - p, axis=1))),
            )
            assert abs(d - brute) < 1e-4

    def test_outside_raises(self):
        tube = straight_tube()
        with pytest.raises(OutsideTubeError):
            boundary_distance(tube, (3.0, 2.0))


def brute_force_boundary(tube, pts):
    """Scan of every boundary polyline segment for every point: the oracle
    for the chunk-culled query, with the same per-segment arithmetic."""
    ex, ey, d2 = scan_segments(
        (tube._seg_ax, tube._seg_ay, tube._seg_dx, tube._seg_dy, tube._seg_len2), pts)
    idx = np.argmin(d2, axis=1)
    rows = np.arange(len(d2))
    dist = np.sqrt(d2[rows, idx])
    dirs = np.stack([ex[rows, idx], ey[rows, idx]], axis=1)
    norms = np.where(dist > 0, dist, 1.0)
    return dist, dirs / norms[:, None]


def ring_tube(radius=2.0, r_d=0.4, r_u=0.3):
    curve = GeneratingCurve([ArcSegment((0.0, 0.0), radius, 0.0, 2 * math.pi)], closed=True)
    return VirtualTube(curve, WidthProfile([(0.0, r_d, r_u)]), topology="closed")


TAPER = [(0.0, 3.0, 2.0), (20.0, 3.0, 2.0), (25.0, 1.0, 1.5)]


def long_tapered_tube():
    # a width change on a line: three segments per wall, one chunk each
    curve = GeneratingCurve([LineSegment((0.0, 0.0), (61.37, 0.0))])
    return VirtualTube(curve, WidthProfile(TAPER))


def long_tapered_arc():
    # many chunks per side, a width change and a segment count that is no
    # multiple of the chunk width: 1,230 segments per wall in 39 chunks
    curve = GeneratingCurve([ArcSegment((0.0, 0.0), 20.0, 0.0, 61.37 / 20.0)])
    return VirtualTube(curve, WidthProfile(TAPER))


def knotted_straight_tube():
    # a straight tube whose walls bend at an interior knot: a point across
    # from a knot vertex is as far from both wall segments that share it
    curve = GeneratingCurve([LineSegment((0.0, 0.0), (10.0, 0.0))])
    return VirtualTube(curve, WidthProfile([(0.0, 1.0, 1.0), (5.0, 1.0, 1.0), (10.0, 1.4, 1.4)]))


ORACLE_TUBES = {
    "line": long_tapered_tube(),
    "knotted_line": knotted_straight_tube(),
    "long_arc": long_tapered_arc(),
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
        # the knot vertex is as far from both segments that share it
        tube = knotted_straight_tube()
        xs = np.concatenate([tube._seg_ax, np.linspace(0.0, 10.0, 333)])
        for y in (0.0, 0.3, -0.3):
            pts = np.stack([xs, np.full_like(xs, y)], axis=1)
            _assert_matches_oracle(tube, pts)
        rows = (tube._seg_ax, tube._seg_ay, tube._seg_dx, tube._seg_dy, tube._seg_len2)
        d2 = scan_segments(rows, [[5.0, 0.0], [5.0, 0.3], [2.0, 0.0]])[2]
        ties = d2 == d2.min(axis=1, keepdims=True)
        assert ties.sum(axis=1).tolist() == [4, 2, 2]  # both walls, both segments at x = 5
        d, dirs = tube.boundary_distance_many([[5.0, 0.0]])
        assert d[0] == 1.0
        assert np.array_equal(dirs[0], [0.0, 1.0])  # the lower wall comes first

    def test_single_point_and_none(self):
        for tube in ORACLE_TUBES.values():
            _assert_matches_oracle(tube, tube.section_points([0.37 * tube.length], [0.1]))
        d, dirs = straight_tube().boundary_distance_many(np.zeros((0, 2)))
        assert d.shape == (0,) and dirs.shape == (0, 2)

    @pytest.mark.parametrize("size", [1, 6 * 80 * 3])
    def test_any_block_of_points(self, monkeypatch, size):
        # one point per box-pass block, then about three points per block
        # of the long arc tube's 78 chunks and a shorter last block
        monkeypatch.setattr(blocks, "BLOCK_ELEMENTS", size)
        rng = np.random.default_rng(8)
        for tube in ORACLE_TUBES.values():
            ls = rng.uniform(0.0, tube.length, 50)
            rs = rng.uniform(-1.2, 1.2, 50) * tube.widths.r_c(ls)
            _assert_matches_oracle(tube, tube.section_points(ls, rs))

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


def dense_walls(tube):
    """Every wall vertex the boundary would have without dropping any: arc
    lengths on the uniform grid plus the width knots, and the lower and
    upper wall points there."""
    n = max(math.ceil(tube.length / tube._boundary_spacing()), 8)
    ls = np.unique(np.concatenate([np.linspace(0.0, tube.length, n + 1),
                                   np.clip(tube.widths.knot_ls, 0.0, tube.length)]))
    return (ls, *tube.section_ends(ls))


def kept_vertices(tube, lower, upper):
    """Indices into the dense walls of the tube's wall vertices, found by
    matching its segments' start points; both walls keep the same ones."""
    m = len(tube._seg_ax) // 2
    where = {(x, y): i for i, (x, y) in enumerate(lower[:-1].tolist())}
    kept = np.array([where[xy] for xy in zip(tube._seg_ax[:m].tolist(),
                                             tube._seg_ay[:m].tolist())] + [len(lower) - 1])
    assert np.array_equal(tube._seg_ax[m:], upper[kept][:-1, 0])
    assert np.array_equal(tube._seg_ay[m:], upper[kept][:-1, 1])
    return kept


def interior_line_vertices(tube, ls, kept):
    """Kept vertices on a line segment of the spine other than its width
    knots and the line's first and last grid vertex: the ones that cannot
    bend a wall."""
    bad = []
    knots = set(np.clip(tube.widths.knot_ls, 0.0, tube.length).tolist())
    cum = tube.curve._cum_arr
    for seg, c0, c1 in zip(tube.curve.segments, cum[:-1], cum[1:]):
        if seg.kind == "line":
            first, last = np.searchsorted(ls, c0), np.searchsorted(ls, c1, side="right") - 1
            inner = ls[kept[(kept > first) & (kept < last)]].tolist()
            bad += [l for l in inner if l not in knots]
    return bad


def chord_gaps(kept, walls):
    """Largest distance of a dropped vertex of either wall from the chord
    that joins the kept vertices on either side of it."""
    dropped = np.setdiff1d(np.arange(len(walls[0])), kept)
    j = np.searchsorted(kept, dropped)
    gaps = [0.0]
    for wall in walls:
        p, d = wall[kept[j - 1]], wall[kept[j]] - wall[kept[j - 1]]
        e = wall[dropped] - p
        t = np.clip(np.sum(e * d, axis=1) / np.sum(d * d, axis=1), 0.0, 1.0)
        gaps += np.hypot(*(e - t[:, None] * d).T).tolist()
    return max(gaps)


def _knotted_tube(spec, knots, default):
    """A tube on the drawn curve with width knots (segment, fraction, r_d,
    r_u): each at that fraction of a segment's length, on a line segment
    where ``segment`` is odd and the curve has one.  A closed tube repeats
    its first knot's widths at L."""
    curve = _build_curve(spec)
    cum = curve._cum_arr
    lines = [k for k, seg in enumerate(curve.segments) if seg.kind == "line"]
    rows = {}
    for pick, frac, r_d, r_u in knots:
        k = lines[pick % len(lines)] if pick % 2 and lines else pick % len(curve.segments)
        rows.setdefault(float(cum[k] + frac * (cum[k + 1] - cum[k])), (r_d, r_u))
    if spec[0] == "closed":
        rows.pop(curve.total_length, None)
    rows = sorted(rows.items()) or [(0.0, default)]
    if spec[0] == "closed":
        rows.append((curve.total_length, rows[0][1]))
    widths = WidthProfile([(l, *r) for l, r in rows])
    return VirtualTube(curve, widths, topology=spec[0])


knots_st = st.lists(st.tuples(st.integers(0, 7), st.floats(0.0, 1.0),
                              st.floats(0.1, 1.0), st.floats(0.1, 1.0)), max_size=5)


class TestWallVertices:
    """The walls keep only the vertices that can bend them: a wall vertex
    strictly inside a line segment is a width knot, or the first or last
    grid vertex on that line."""

    def test_long_straight_tube_has_six_wall_segments(self):
        curve = GeneratingCurve([LineSegment((0.0, 0.0), (200.0, 0.0))])
        widths = WidthProfile([(0.0, 7.0, 7.0), (60.0, 7.0, 7.0), (70.0, 2.0, 2.0),
                               (200.0, 2.0, 2.0)])
        tube = VirtualTube(curve, widths)
        assert len(tube._seg_ax) == 6
        assert tube._walls._seg.tolist() == [[0, 1, 2], [3, 4, 5]]  # a chunk per wall
        assert tube._seg_ax.tolist() == [0.0, 60.0, 70.0, 0.0, 60.0, 70.0]
        assert tube._seg_ay.tolist() == [-7.0, -7.0, -2.0, 7.0, 7.0, 2.0]

    def test_bundled_narrow_tube_has_no_interior_line_vertex(self):
        tube = load_scenario(bundled_scenario_path("narrow_s_tube")).tube
        ls, lower, upper = dense_walls(tube)
        kept = kept_vertices(tube, lower, upper)
        assert len(ls) - 1 == 1065 and len(kept) - 1 == 325  # segments per wall
        assert interior_line_vertices(tube, ls, kept) == []
        assert chord_gaps(kept, (lower, upper)) < 1e-12

    def test_annular_walls_keep_every_vertex(self):
        tube = load_scenario(bundled_scenario_path("annular")).tube
        ls, lower, upper = dense_walls(tube)
        assert len(tube._seg_ax) == 306
        assert np.array_equal(kept_vertices(tube, lower, upper), np.arange(len(ls)))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(spec=curve_st, knots=knots_st, default=st.tuples(st.floats(0.1, 1.0),
                                                            st.floats(0.1, 1.0)),
           fracs=st.lists(st.tuples(st.floats(-0.02, 1.02), st.floats(-1.5, 1.5)),
                          min_size=1, max_size=12))
    def test_property_walls_are_the_dense_polyline(self, spec, knots, default, fracs):
        tube = _knotted_tube(spec, knots, default)
        ls, lower, upper = dense_walls(tube)
        kept = kept_vertices(tube, lower, upper)
        assert interior_line_vertices(tube, ls, kept) == []
        assert chord_gaps(kept, (lower, upper)) < 1e-12
        f = np.array(fracs)
        qls = np.clip(f[:, 0], 0.0, 1.0) * tube.length
        pts = tube.section_points(qls, f[:, 1] * tube.widths.r_c(qls))
        pts = np.concatenate([pts, lower[::17], upper[::19], 0.5 * (lower[1:] + upper[:-1])[::23]])
        _assert_matches_oracle(tube, pts)
        a = np.concatenate([lower[:-1], upper[:-1]])
        d = np.concatenate([lower[1:], upper[1:]]) - a
        len2 = np.maximum(d[:, 0] ** 2 + d[:, 1] ** 2, 1e-300)
        dense = np.sqrt(scan_segments((a[:, 0], a[:, 1], d[:, 0], d[:, 1], len2), pts)[2]
                        .min(axis=1))
        assert np.max(np.abs(tube.boundary_distance_many(pts)[0] - dense)) <= 1e-12

    def test_strategy_puts_knots_inside_lines_on_both_topologies(self):
        seen = set()

        @settings(max_examples=100, deadline=None, derandomize=True)
        @given(spec=curve_st, knots=knots_st, default=st.tuples(st.floats(0.1, 1.0),
                                                                st.floats(0.1, 1.0)))
        def collect(spec, knots, default):
            tube = _knotted_tube(spec, knots, default)
            ls, lower, upper = dense_walls(tube)
            cum = tube.curve._cum_arr
            for seg, c0, c1 in zip(tube.curve.segments, cum[:-1], cum[1:]):
                if seg.kind == "line":
                    inside = (tube.widths.knot_ls > c0) & (tube.widths.knot_ls < c1)
                    seen.add((spec[0], "knot inside a line" if inside.any() else "bare line"))
            if len(kept_vertices(tube, lower, upper)) < len(ls):
                seen.add((spec[0], "dropped"))

        collect()
        assert seen == {(top, what) for top in ("open", "closed")
                        for what in ("knot inside a line", "bare line", "dropped")}


class TestWallList:
    """A wall list kept across records answers every query as a scan of
    every boundary segment, bit for bit, while the points move and exit."""

    @staticmethod
    def walk_matches_full_scan(tube, walk, skin):
        walls = tube.wall_list(skin)
        for pts in walk:
            d, dirs = tube.boundary_distance_many(pts, walls)
            d_ref, dirs_ref = brute_force_boundary(tube, pts)
            assert np.array_equal(d, d_ref)
            assert np.array_equal(dirs, dirs_ref)
        return walls.builds

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(spec=curve_st, knots=knots_st, default=st.tuples(st.floats(0.1, 1.0),
                                                            st.floats(0.1, 1.0)),
           fracs=st.lists(st.tuples(st.floats(-0.02, 1.02), st.floats(-1.2, 1.2)),
                          min_size=1, max_size=12),
           skin=st.sampled_from([0.0, 0.01, 0.05, 0.2]), seed=st.integers(0, 2**32 - 1))
    def test_property_random_walks_on_random_tubes(self, spec, knots, default, fracs, skin,
                                                   seed):
        tube = _knotted_tube(spec, knots, default)
        f = np.array(fracs)
        ls = np.clip(f[:, 0], 0.0, 1.0) * tube.length
        pts = tube.section_points(ls, f[:, 1] * tube.widths.r_c(ls))
        walk = skin_walk(np.random.default_rng(seed), pts, skin, 12)
        self.walk_matches_full_scan(tube, walk, skin)

    @pytest.mark.parametrize("kind", sorted(ORACLE_TUBES))
    def test_walks_on_the_oracle_tubes(self, kind):
        tube = ORACLE_TUBES[kind]
        rng = np.random.default_rng(17)
        ls = rng.uniform(0.0, tube.length, 60)
        pts = tube.section_points(ls, rng.uniform(-1.1, 1.1, 60) * tube.widths.r_c(ls))
        for skin in (0.0, 0.02, 0.3):
            walk = skin_walk(rng, pts, skin, 40, exit_rate=0.01)
            builds = self.walk_matches_full_scan(tube, walk, skin)
            # a skin of 0 moves nothing: the list rebuilds at the exits alone
            assert 1 < builds < len(walk)

    def test_a_point_crossing_the_centreline_finds_the_far_wall(self):
        # kept at the build: the lower wall's box is 1.5 skin farther than
        # the upper wall, inside the 2 skin margin.  The point then moves
        # 0.99 skin down, past the centreline, without a rebuild.
        tube = knotted_straight_tube()
        skin = 0.1
        walls = tube.wall_list(skin)
        for y in (0.75 * skin, -0.24 * skin):
            pts = np.array([[2.0, y]])
            d, dirs = tube.boundary_distance_many(pts, walls)
            assert np.array_equal(d, brute_force_boundary(tube, pts)[0])
            assert dirs[0, 1] == (-1.0 if y > 0 else 1.0)
        assert walls.builds == 1

    def test_more_than_a_skin_of_motion_rebuilds(self):
        tube = knotted_straight_tube()
        walls = tube.wall_list(0.125)
        pts = np.array([[2.0, 0.0], [6.0, 0.25]])
        for step, builds in [(0.0, 1), (0.125, 1), (0.125 + 1e-9, 2), (0.0625, 2)]:
            pts = pts + [step, 0.0]
            tube.boundary_distance_many(pts, walls)
            assert walls.builds == builds
        tube.boundary_distance_many(pts[1:], walls)  # an exit
        assert walls.builds == 3

    def test_non_finite_points_rebuild(self):
        tube = knotted_straight_tube()
        walls = tube.wall_list(0.1)
        pts = np.array([[2.0, 0.0], [6.0, 0.3]])
        tube.boundary_distance_many(pts, walls)
        pts[1, 0] = np.inf
        with np.errstate(all="ignore"):
            d, dirs = tube.boundary_distance_many(pts, walls)
            d_ref, dirs_ref = tube.boundary_distance_many(pts)
        assert walls.builds == 2
        assert np.array_equal(d, d_ref, equal_nan=True)
        assert np.array_equal(dirs, dirs_ref, equal_nan=True)

    def test_a_list_serves_only_its_own_tube(self):
        walls = knotted_straight_tube().wall_list(0.1)
        with pytest.raises(ValueError, match="another tube"):
            long_tapered_tube().boundary_distance_many([[1.0, 0.0]], walls)

    @pytest.mark.parametrize("skin", [-0.1, np.nan])
    def test_bad_skin_is_refused(self, skin):
        with pytest.raises(ValueError, match="skin"):
            knotted_straight_tube().wall_list(skin)


def probed_spacing(tube):
    """The former boundary spacing: the curvature probed at 257 arc lengths."""
    kappa = max(math.hypot(*tube.curve.eval_scalar(float(l))[4:])
                for l in np.linspace(0.0, tube.length, 257))
    if kappa <= 0:
        return 0.05
    w_max = float(max(np.max(tube.widths.knot_rd), np.max(tube.widths.knot_ru)))
    kappa_b = kappa / (1.0 - min(kappa * w_max, 0.9))
    return min(max(math.sqrt(8.0 * 2e-4 / kappa_b), 0.005), 0.05)


class TestBoundarySpacing:
    @pytest.mark.parametrize("name", ["narrow_s_tube", "annular"])
    def test_bundled_tubes_keep_their_polylines(self, name):
        # their largest curvature is on arcs the former probes hit
        tube = load_scenario(bundled_scenario_path(name)).tube
        assert tube._boundary_spacing() == probed_spacing(tube)

    def test_straight_tube_takes_the_coarsest_spacing(self):
        assert straight_tube()._boundary_spacing() == 0.05 == probed_spacing(straight_tube())

    def test_tight_arc_between_the_probes_sets_the_spacing(self):
        # a 0.15 m bend of radius 0.5 m in a 100 m tube: no probe lands on it
        segs = _chain([("line", 50.2, 0.0), ("arc", 0.5, 0.3), ("line", 50.0, 0.0)])
        tube = VirtualTube(GeneratingCurve(segs), WidthProfile([(0.0, 0.2, 0.2)]))
        a, b = 50.2, 50.2 + segs[1].length
        probes = np.linspace(0.0, tube.length, 257)
        assert segs[1].length < tube.length / 256
        assert not np.any((probes >= a) & (probes <= b))
        assert probed_spacing(tube) == 0.05
        kappa_b = 2.0 / (1.0 - 2.0 * 0.2)
        assert tube._boundary_spacing() == pytest.approx(math.sqrt(8.0 * 2e-4 / kappa_b),
                                                         rel=1e-15)
        # the polyline follows the bend: from the spine on the arc, both walls
        # stay within the 2e-4 m chord sagitta of their true distance 0.2 m
        # (0.05 m chords would cut up to 8.8e-4 m into the outer wall)
        spine, _, _ = tube.curve.frames(np.linspace(a, b, 200))
        d, _ = tube.boundary_distance_many(spine)
        assert np.max(np.abs(d - 0.2)) <= 2e-4

    def test_spline_curvature_bound_covers_its_samples(self):
        seg = s_spline_tube().curve.segments[0]
        _, _, curv = seg.eval_many(np.linspace(0.0, seg.length, 4001))
        sampled = float(np.max(np.hypot(curv[:, 0], curv[:, 1])))
        assert sampled <= seg.max_curvature() * (1.0 + 1e-6)
        assert seg.max_curvature() <= sampled * 1.01


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
            p = to_cartesian(tube, CurvilinearCoord(l, r))
            _, t, _ = curve_frame(tube, l)
            c0 = to_curvilinear(tube, p)
            c1 = to_curvilinear(tube, p + 1e-3 * t)
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
        ends, tans, _ = segs[1].eval_many([segs[1].length])
        end, tan = ends[0], tans[0]
        segs.append(LineSegment(end, end + 5.0 * tan))
        curve = GeneratingCurve(segs)
        tube = VirtualTube(curve, WidthProfile([(0.0, 1.0, 1.0)]))
        # frame is continuous across joints
        for l_joint in (4.0, 4.0 + segs[1].length):
            p0, t0, _ = curve_frame(tube, l_joint - 1e-9)
            p1, t1, _ = curve_frame(tube, l_joint + 1e-9)
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
