"""Virtual tube geometry.

A virtual tube is a planar corridor swept along an arc-length-parameterized
generating curve: at arc length l the cross-section is the straight segment
through gamma(l), normal to the curve, extending r_d(l) below and r_u(l)
above (with "above" the counterclockwise normal side).  Regular tubes have
pairwise-disjoint cross-sections, which makes the Cartesian <-> curvilinear
map bijective inside the tube.

The generating curve is assembled from analytic pieces (straight lines,
circular arcs, Catmull-Rom cubics reparameterized to arc length) joined with
tangent continuity.  All queries run against this exact representation; a
dense sample table is kept only to seed nearest-point projections.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OutsideTubeError, TubeDomainError

# construction-time validation tolerances
_JOINT_POS_TOL = 1e-9     # m, positional continuity at segment joints
_JOINT_ANGLE_TOL = 1e-6   # rad, tangent continuity at segment joints
_UNIT_SPEED_TOL = 1e-9    # |d gamma / dl| - 1 at sample points

_PROJ_MAX_NEWTON = 20
_MEMBERSHIP_TOL = 1e-9    # m, slack when testing tube membership

# boundary distance queries cull whole chunks of consecutive polyline
# segments by their bounding boxes before the exact per-segment pass
_BOUNDARY_CHUNK = 32
_CULL_SLACK = 1e-9        # relative slack on squared box distances

_GL16_NODES, _GL16_WEIGHTS = np.polynomial.legendre.leggauss(16)


# ---------------------------------------------------------------------------
# curve segments
# ---------------------------------------------------------------------------

class LineSegment:
    """Straight piece, arc-length parameterized trivially."""

    kind = "line"

    def __init__(self, start, end):
        start = np.asarray(start, dtype=float)
        end = np.asarray(end, dtype=float)
        chord = end - start
        length = float(np.hypot(chord[0], chord[1]))
        if length <= 0.0:
            raise ValueError("line segment has zero length")
        self.start = start
        self.end = end
        self.length = length
        self._u = chord / length
        self._sx, self._sy = float(start[0]), float(start[1])
        self._ux, self._uy = float(self._u[0]), float(self._u[1])

    def eval_scalar(self, s):
        return (
            self._sx + s * self._ux,
            self._sy + s * self._uy,
            self._ux,
            self._uy,
            0.0,
            0.0,
        )

    def frames_many(self, s):
        """Points and unit tangents at the arc lengths s, each (K, 2)."""
        s = np.asarray(s, dtype=float)
        points = self.start[None, :] + s[:, None] * self._u[None, :]
        return points, np.broadcast_to(self._u, (len(s), 2)).copy()


class ArcSegment:
    """Circular arc; positive sweep turns counterclockwise."""

    kind = "arc"

    def __init__(self, center, radius, start_angle, sweep_angle):
        if radius <= 0.0:
            raise ValueError("arc radius must be positive")
        if sweep_angle == 0.0:
            raise ValueError("arc sweep must be nonzero")
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)
        self.start_angle = float(start_angle)
        self.sweep = float(sweep_angle)
        self.sign = 1.0 if sweep_angle > 0 else -1.0
        self.length = self.radius * abs(self.sweep)
        self._cx, self._cy = float(self.center[0]), float(self.center[1])

    def _theta(self, s):
        return self.start_angle + self.sign * s / self.radius

    def eval_scalar(self, s):
        th = self._theta(s)
        c, sn = math.cos(th), math.sin(th)
        return (
            self._cx + self.radius * c,
            self._cy + self.radius * sn,
            -self.sign * sn,
            self.sign * c,
            -c / self.radius,
            -sn / self.radius,
        )

    def frames_many(self, s):
        """Points and unit tangents at the arc lengths s, each (K, 2)."""
        th = self._theta(np.asarray(s, dtype=float))
        c, sn = np.cos(th), np.sin(th)
        points = self.center[None, :] + self.radius * np.stack([c, sn], axis=1)
        return points, self.sign * np.stack([-sn, c], axis=1)


class CatmullRomSegment:
    """Catmull-Rom cubic through waypoints, reparameterized to arc length.

    Each Hermite piece gets a cumulative-length table (Gauss quadrature
    between table nodes); arc-length queries invert the table with Newton
    steps on s(u), so evaluation error is at quadrature level rather than
    table-interpolation level.
    """

    kind = "spline"
    _TABLE_SUBDIV = 32

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 2:
            raise ValueError("spline needs at least two 2D waypoints")
        self.points = pts
        n = len(pts)
        tang = np.zeros_like(pts)
        if n == 2:
            tang[0] = tang[1] = pts[1] - pts[0]
        else:
            tang[0] = pts[1] - pts[0]
            tang[-1] = pts[-1] - pts[-2]
            tang[1:-1] = 0.5 * (pts[2:] - pts[:-2])
        self._p0 = pts[:-1]
        self._p1 = pts[1:]
        self._m0 = tang[:-1]
        self._m1 = tang[1:]
        self._n_pieces = n - 1
        self._build_tables()

    # Hermite basis on u in [0, 1]
    def _piece_point(self, i, u):
        u2, u3 = u * u, u * u * u
        h00 = 2 * u3 - 3 * u2 + 1
        h10 = u3 - 2 * u2 + u
        h01 = -2 * u3 + 3 * u2
        h11 = u3 - u2
        return (
            h00 * self._p0[i] + h10 * self._m0[i] + h01 * self._p1[i] + h11 * self._m1[i]
        )

    def _piece_d1(self, i, u):
        u2 = u * u
        h00 = 6 * u2 - 6 * u
        h10 = 3 * u2 - 4 * u + 1
        h01 = -6 * u2 + 6 * u
        h11 = 3 * u2 - 2 * u
        return (
            h00 * self._p0[i] + h10 * self._m0[i] + h01 * self._p1[i] + h11 * self._m1[i]
        )

    def _piece_d2(self, i, u):
        h00 = 12 * u - 6
        h10 = 6 * u - 4
        h01 = -12 * u + 6
        h11 = 6 * u - 2
        return (
            h00 * self._p0[i] + h10 * self._m0[i] + h01 * self._p1[i] + h11 * self._m1[i]
        )

    def _speed(self, i, u):
        d = self._piece_d1(i, u)
        return math.hypot(d[0], d[1])

    def _gauss_len(self, i, ua, ub):
        if ub <= ua:
            return 0.0
        mid = 0.5 * (ua + ub)
        half = 0.5 * (ub - ua)
        d = self._piece_d1(i, (mid + half * _GL16_NODES)[:, None])
        return float(np.hypot(d[:, 0], d[:, 1]) @ _GL16_WEIGHTS) * half

    def _build_tables(self):
        k = self._TABLE_SUBDIV
        self._u_nodes = np.linspace(0.0, 1.0, k + 1)
        self._s_nodes = []
        self._piece_len = []
        for i in range(self._n_pieces):
            s = np.zeros(k + 1)
            for j in range(k):
                s[j + 1] = s[j] + self._gauss_len(i, self._u_nodes[j], self._u_nodes[j + 1])
            self._s_nodes.append(s)
            self._piece_len.append(s[-1])
        self._cum = np.concatenate([[0.0], np.cumsum(self._piece_len)])
        self.length = float(self._cum[-1])

    def _invert(self, s):
        """Arc length within the segment -> (piece index, local parameter u)."""
        s = min(max(s, 0.0), self.length)
        i = int(np.searchsorted(self._cum, s, side="right")) - 1
        i = min(max(i, 0), self._n_pieces - 1)
        sl = s - self._cum[i]
        table = self._s_nodes[i]
        j = int(np.searchsorted(table, sl, side="right")) - 1
        j = min(max(j, 0), len(table) - 2)
        # linear seed inside the table cell, then Newton on s(u) - sl = 0
        u0, u1 = self._u_nodes[j], self._u_nodes[j + 1]
        frac = (sl - table[j]) / max(table[j + 1] - table[j], 1e-300)
        u = u0 + frac * (u1 - u0)
        for _ in range(6):
            resid = table[j] + self._gauss_len(i, u0, u) - sl
            sp = self._speed(i, u)
            if sp <= 0.0:
                break
            du = -resid / sp
            u = min(max(u + du, 0.0), 1.0)
            if abs(du) < 1e-15:
                break
        return i, u

    def eval_scalar(self, s):
        i, u = self._invert(s)
        d1 = self._piece_d1(i, u)
        d2 = self._piece_d2(i, u)
        p = self._piece_point(i, u)
        sp2 = d1[0] * d1[0] + d1[1] * d1[1]
        sp = math.sqrt(sp2)
        tx, ty = d1[0] / sp, d1[1] / sp
        dot = d1[0] * d2[0] + d1[1] * d2[1]
        # curvature vector: d/dl of the unit tangent
        cx = d2[0] / sp2 - d1[0] * dot / (sp2 * sp2)
        cy = d2[1] / sp2 - d1[1] * dot / (sp2 * sp2)
        return (p[0], p[1], tx, ty, cx, cy)

    def frames_many(self, s):
        """Points and unit tangents at the arc lengths s, each (K, 2); one
        table inversion per arc length."""
        s = np.asarray(s, dtype=float)
        points = np.empty((len(s), 2))
        tangents = np.empty((len(s), 2))
        for k, sk in enumerate(s):
            i, u = self._invert(float(sk))
            points[k] = self._piece_point(i, u)
            d1 = self._piece_d1(i, u)
            tangents[k] = d1 / math.hypot(d1[0], d1[1])
        return points, tangents


def segment_from_config(cfg: dict):
    """Build a curve segment from its scenario-file description."""
    kind = cfg.get("kind")
    if kind == "line":
        return LineSegment(cfg["start_xy_m"], cfg["end_xy_m"])
    if kind == "arc":
        return ArcSegment(
            cfg["center_xy_m"],
            cfg["radius_m"],
            cfg["start_angle_rad"],
            cfg["sweep_angle_rad"],
        )
    if kind == "spline":
        return CatmullRomSegment(cfg["points_xy_m"])
    raise ValueError(f"unknown segment kind {kind!r}")


# ---------------------------------------------------------------------------
# generating curve
# ---------------------------------------------------------------------------

@dataclass
class _Projection:
    """Nearest spine point of one point, or, from ``project_many``, of
    several: then every field is an array with one row per point."""

    l: float
    r: float
    tangent: tuple        # unit tangent (tx, ty) at l; (M, 2) from project_many
    curvature: float      # signed curvature c . n at l; (M,) from project_many
    residual: float       # tangential component of (p - gamma(l))
    beyond_start: bool
    beyond_end: bool


class GeneratingCurve:
    """Arc-length-parameterized spine of a tube.

    Provides exact frame evaluation (point, unit tangent, counterclockwise
    unit normal) and nearest-point projection seeded from a dense sample
    table (spacing min(0.01 L, 0.05 m)) and refined by Newton iteration.
    """

    def __init__(self, segments, closed=False):
        if not segments:
            raise ValueError("curve needs at least one segment")
        self.segments = list(segments)
        self.closed = bool(closed)
        self._cum = [0.0]
        for seg in self.segments:
            self._cum.append(self._cum[-1] + seg.length)
        self.total_length = self._cum[-1]
        self._cum_arr = np.array(self._cum)
        self._validate_joints()
        self._build_sample_table()
        self._validate_unit_speed()

    # -- construction checks ------------------------------------------------

    def _validate_joints(self):
        ends = []
        for seg in self.segments:
            x0, y0, tx0, ty0, _, _ = seg.eval_scalar(0.0)
            x1, y1, tx1, ty1, _, _ = seg.eval_scalar(seg.length)
            ends.append(((x0, y0, tx0, ty0), (x1, y1, tx1, ty1)))
        pairs = list(zip(ends[:-1], ends[1:]))
        if self.closed:
            pairs.append((ends[-1], ends[0]))
        for (_, (x1, y1, tx1, ty1)), ((x0, y0, tx0, ty0), _) in pairs:
            gap = math.hypot(x0 - x1, y0 - y1)
            if gap > _JOINT_POS_TOL:
                raise ValueError(f"segment joint gap {gap:.3e} m exceeds tolerance")
            cross = tx1 * ty0 - ty1 * tx0
            dot = tx1 * tx0 + ty1 * ty0
            angle = abs(math.atan2(cross, dot))
            if angle > _JOINT_ANGLE_TOL:
                raise ValueError(
                    f"tangent kink of {angle:.3e} rad at segment joint exceeds tolerance"
                )

    def _validate_unit_speed(self):
        t = self.sample_tangents
        norms = np.hypot(t[:, 0], t[:, 1])
        worst = float(np.max(np.abs(norms - 1.0)))
        if worst > _UNIT_SPEED_TOL:
            raise ValueError(f"arc-length parameterization off by {worst:.3e}")

    def _build_sample_table(self):
        L = self.total_length
        spacing = min(0.01 * L, 0.05)
        n = max(int(math.ceil(L / spacing)), 2)
        self.sample_ls = np.linspace(0.0, L, n + 1)
        self.sample_points, self.sample_tangents, self.sample_normals = self.frames(
            self.sample_ls
        )
        self.sample_spacing = L / n

    # -- evaluation -----------------------------------------------------------

    def _locate_segment(self, l):
        i = bisect.bisect_right(self._cum, l) - 1
        i = min(max(i, 0), len(self.segments) - 1)
        return i, l - self._cum[i]

    def eval_scalar(self, l):
        """(px, py, tx, ty, cx, cy) at arc length l; c is the curvature vector."""
        i, s = self._locate_segment(l)
        return self.segments[i].eval_scalar(s)

    def frame(self, l):
        """Point, unit tangent and counterclockwise unit normal at l."""
        px, py, tx, ty, _, _ = self.eval_scalar(l)
        return (
            np.array([px, py]),
            np.array([tx, ty]),
            np.array([-ty, tx]),
        )

    def frames(self, ls):
        """Vectorized frame evaluation for an array of arc lengths."""
        ls = np.asarray(ls, dtype=float)
        idx = np.searchsorted(self._cum_arr[1:], ls, side="right")
        idx = np.clip(idx, 0, len(self.segments) - 1)
        pts = np.empty((len(ls), 2))
        tans = np.empty((len(ls), 2))
        for i in np.unique(idx):
            mask = idx == i
            s_local = ls[mask] - self._cum[i]
            s_local = np.clip(s_local, 0.0, self.segments[i].length)
            pts[mask], tans[mask] = self.segments[i].frames_many(s_local)
        normals = np.stack([-tans[:, 1], tans[:, 0]], axis=1)
        return pts, tans, normals

    # -- projection -----------------------------------------------------------

    def _seed(self, px, py):
        d2 = (self.sample_points[:, 0] - px) ** 2 + (self.sample_points[:, 1] - py) ** 2
        return float(self.sample_ls[int(np.argmin(d2))])

    def project(self, p, seed_l=None) -> _Projection:
        """Nearest-point projection of p onto the curve.

        Newton iteration on the stationarity residual (p - gamma(l)) . t(l);
        open curves clamp l to [0, L] and report whether the unconstrained
        optimum lies beyond an endpoint.  Raises TubeDomainError if the
        iterates still move after _PROJ_MAX_NEWTON steps.
        """
        px, py = float(p[0]), float(p[1])
        L = self.total_length
        if seed_l is None:
            l = self._seed(px, py)
        else:
            l = float(seed_l) % L if self.closed else min(max(float(seed_l), 0.0), L)
        seed = l
        for _ in range(_PROJ_MAX_NEWTON):
            x, y, tx, ty, cx, cy = self.eval_scalar(l)
            dx, dy = px - x, py - y
            g = dx * tx + dy * ty
            gp = dx * cx + dy * cy - 1.0
            if abs(gp) < 1e-9:
                gp = -1.0
            step = -g / gp
            ln = l + step
            if self.closed:
                ln %= L
            else:
                ln = min(max(ln, 0.0), L)
            if abs(ln - l) < 1e-13 * (1.0 + L):
                l = ln
                break
            l = ln
        else:
            raise TubeDomainError(
                f"projection of ({px!r}, {py!r}) did not converge in {_PROJ_MAX_NEWTON} Newton"
                f" steps from seed l={seed!r}: last step {step:.3e}, now at l={l!r}"
            )
        x, y, tx, ty, cx, cy = self.eval_scalar(l)
        dx, dy = px - x, py - y
        g = dx * tx + dy * ty
        r = -dx * ty + dy * tx
        beyond_start = (not self.closed) and l <= 0.0 and g < -_MEMBERSHIP_TOL
        beyond_end = (not self.closed) and l >= L and g > _MEMBERSHIP_TOL
        return _Projection(l=l, r=r, tangent=(tx, ty), curvature=ty * -cx + tx * cy,
                           residual=g, beyond_start=beyond_start, beyond_end=beyond_end)

    def project_many(self, pts, seeds=None) -> _Projection:
        """Project several points into one array-valued projection; seeds
        (previous arc lengths) skip the table scan."""
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        if seeds is None:
            diff = pts[:, None, :] - self.sample_points[None, :, :]
            d2 = np.einsum("ijk,ijk->ij", diff, diff)
            seeds = self.sample_ls[np.argmin(d2, axis=1)]
        prs = [self.project(p, seed_l=float(seed)) for p, seed in zip(pts, seeds)]
        rows = np.array(
            [(pr.l, pr.r, *pr.tangent, pr.curvature, pr.residual, pr.beyond_start, pr.beyond_end)
             for pr in prs],
            dtype=float,
        ).reshape(-1, 8)
        return _Projection(l=rows[:, 0], r=rows[:, 1], tangent=rows[:, 2:4], curvature=rows[:, 4],
                           residual=rows[:, 5], beyond_start=rows[:, 6] != 0.0,
                           beyond_end=rows[:, 7] != 0.0)


# ---------------------------------------------------------------------------
# width profile
# ---------------------------------------------------------------------------

class WidthProfile:
    """Piecewise-linear lateral widths r_d(l), r_u(l) of the tube.

    Knots are shared between the two sides; evaluation extends the end
    values as constants, so a single knot describes a constant-width tube.
    """

    def __init__(self, knots):
        arr = np.asarray(knots, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 3 or len(arr) < 1:
            raise ValueError("width knots must be rows of (l, r_d, r_u)")
        if np.any(np.diff(arr[:, 0]) <= 0):
            raise ValueError("width knot arc lengths must be strictly increasing")
        if np.any(arr[:, 1] <= 0) or np.any(arr[:, 2] <= 0):
            raise ValueError("widths must be positive everywhere")
        self.knot_ls = arr[:, 0].copy()
        self.knot_rd = arr[:, 1].copy()
        self.knot_ru = arr[:, 2].copy()
        rc = 0.5 * (self.knot_rd + self.knot_ru)
        self._rc_slopes = np.concatenate([[0.0], np.diff(rc) / np.diff(self.knot_ls), [0.0]])

    def r_d(self, l):
        return np.interp(l, self.knot_ls, self.knot_rd)

    def r_u(self, l):
        return np.interp(l, self.knot_ls, self.knot_ru)

    def r_c(self, l):
        """Cross-section radius: half the total width."""
        return 0.5 * (self.r_d(l) + self.r_u(l))

    def r_c_slope(self, l):
        """d r_c / dl: the slope of the piece to the right of l (so a knot
        takes the slope of the piece it starts), zero outside the knots."""
        return self._rc_slopes[np.searchsorted(self.knot_ls, l, side="right")]

    def grid_over(self, a, b):
        """Breakpoints of the piecewise-linear profile restricted to [a, b]."""
        inner = self.knot_ls[(self.knot_ls > a) & (self.knot_ls < b)]
        return np.concatenate([[a], inner, [b]])


# ---------------------------------------------------------------------------
# virtual tube
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurvilinearCoord:
    """Tube coordinate: arc length l along the spine, signed normal offset r
    (positive on the counterclockwise-normal side)."""

    l: float
    r: float


@dataclass
class RegularityReport:
    ok: bool
    intersections: list = field(default_factory=list)  # (l1, l2) pairs
    spacing: float = 0.0

    def __bool__(self):
        return self.ok


def _orient(ax, ay, bx, by, cx, cy):
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _on_segment(ax, ay, bx, by, px, py, eps):
    return (
        min(ax, bx) - eps <= px <= max(ax, bx) + eps
        and min(ay, by) - eps <= py <= max(ay, by) + eps
    )


def _segments_intersect(p1, p2, p3, p4, eps=1e-12):
    """Closed-segment intersection test, including touching and collinear overlap."""
    ax, ay = p1
    bx, by = p2
    cx, cy = p3
    dx, dy = p4
    scale = max(abs(bx - ax), abs(by - ay), abs(dx - cx), abs(dy - cy), 1.0)
    tol = eps * scale * scale
    o1 = _orient(ax, ay, bx, by, cx, cy)
    o2 = _orient(ax, ay, bx, by, dx, dy)
    o3 = _orient(cx, cy, dx, dy, ax, ay)
    o4 = _orient(cx, cy, dx, dy, bx, by)
    if ((o1 > tol and o2 < -tol) or (o1 < -tol and o2 > tol)) and (
        (o3 > tol and o4 < -tol) or (o3 < -tol and o4 > tol)
    ):
        return True
    if abs(o1) <= tol and _on_segment(ax, ay, bx, by, cx, cy, eps * scale):
        return True
    if abs(o2) <= tol and _on_segment(ax, ay, bx, by, dx, dy, eps * scale):
        return True
    if abs(o3) <= tol and _on_segment(cx, cy, dx, dy, ax, ay, eps * scale):
        return True
    if abs(o4) <= tol and _on_segment(cx, cy, dx, dy, bx, by, eps * scale):
        return True
    return False


class VirtualTube:
    """Generating curve plus width profile, with topology.

    topology "open" tubes have terminal cross-sections at l = 0 and l = L;
    "closed" tubes are periodic in arc length (annular corridors) and have
    no terminals.  ``extension_length`` describes how far past L the spine
    conceptually continues for the constant-speed approach term; it is
    validated against controller parameters at scenario load.
    """

    BOUNDARY_RESOLUTION = 0.01  # m, lateral boundary polyline spacing

    def __init__(self, curve, widths, topology="open", extension_length=None):
        if topology not in ("open", "closed"):
            raise ValueError("topology must be 'open' or 'closed'")
        if topology == "closed" and not curve.closed:
            raise ValueError("closed topology requires a closed generating curve")
        if topology == "open" and curve.closed:
            raise ValueError("open topology given a closed generating curve")
        self.curve = curve
        self.widths = widths
        self.topology = topology
        self.length = curve.total_length
        if extension_length is not None:
            if topology == "closed":
                raise ValueError("closed tubes take no extension length")
            if extension_length < self.length:
                raise ValueError("extension length must be at least the tube length")
        self.extension_length = extension_length

        if np.any(self.widths.knot_ls < -1e-9) or np.any(
            self.widths.knot_ls > self.length + 1e-6
        ):
            raise ValueError("width knots outside [0, L]")
        if topology == "closed":
            if abs(float(self.widths.r_d(0.0)) - float(self.widths.r_d(self.length))) > 1e-9 or abs(
                float(self.widths.r_u(0.0)) - float(self.widths.r_u(self.length))
            ) > 1e-9:
                raise ValueError("closed tube widths must match at the seam")
        self._build_boundary()

    @property
    def closed(self):
        return self.topology == "closed"

    # -- frames and sections --------------------------------------------------

    def _check_l(self, l):
        l = float(l)
        if self.closed:
            return l % self.length
        if l < -_MEMBERSHIP_TOL or l > self.length + _MEMBERSHIP_TOL:
            raise TubeDomainError(f"arc length {l} outside [0, {self.length}]")
        return min(max(l, 0.0), self.length)

    def curve_frame(self, l):
        """gamma(l), unit tangent, counterclockwise unit normal."""
        return self.curve.frame(self._check_l(l))

    def cross_section_endpoints(self, l):
        """Lower and upper endpoints of the cross-section at l."""
        l = self._check_l(l)
        p, _, n = self.curve.frame(l)
        r_d = float(self.widths.r_d(l))
        r_u = float(self.widths.r_u(l))
        return p - r_d * n, p + r_u * n

    def flow_capacity(self, l):
        """Cross-section radius (r_d + r_u)/2: the per-section throughput proxy."""
        return float(self.widths.r_c(self._check_l(l)))

    def is_narrow(self, l, r_s):
        """True when the section fits at most one robot of safety radius r_s."""
        if r_s <= 0:
            raise ValueError("safety radius must be positive")
        sigma = self.flow_capacity(l)
        return r_s < sigma <= 2.0 * r_s

    def tube_area(self):
        """Integral of the total width along the spine (exact for the
        piecewise-linear profile)."""
        grid = self.widths.grid_over(0.0, self.length)
        total = self.widths.r_d(grid) + self.widths.r_u(grid)
        return float(np.trapezoid(total, grid))

    # -- curvilinear map --------------------------------------------------------

    def locate(self, p, seed_l=None):
        """Projection of p plus tube-membership flag.  An outside point is
        reported by the flag; only an unconverged projection raises
        (TubeDomainError, see GeneratingCurve.project)."""
        pr = self.curve.project(p, seed_l=seed_l)
        r_d = float(self.widths.r_d(pr.l))
        r_u = float(self.widths.r_u(pr.l))
        inside = (
            not pr.beyond_start
            and not pr.beyond_end
            and -r_d - _MEMBERSHIP_TOL <= pr.r <= r_u + _MEMBERSHIP_TOL
        )
        return pr, inside

    def to_curvilinear(self, p) -> CurvilinearCoord:
        """Map a Cartesian point inside the tube to its tube coordinate."""
        pr, inside = self.locate(p)
        coord = CurvilinearCoord(l=pr.l, r=pr.r)
        if not inside:
            raise OutsideTubeError(
                f"point {tuple(np.asarray(p, float))} is outside the tube "
                f"(nearest section l={pr.l:.6f}, offset r={pr.r:.6f})",
                best_coord=coord,
            )
        return coord

    def to_cartesian(self, coord: CurvilinearCoord):
        """Inverse map; the coordinate must be inside the width bounds."""
        l = self._check_l(coord.l)
        r = float(coord.r)
        r_d = float(self.widths.r_d(l))
        r_u = float(self.widths.r_u(l))
        if r < -r_d - _MEMBERSHIP_TOL or r > r_u + _MEMBERSHIP_TOL:
            raise TubeDomainError(
                f"offset {r} outside [-{r_d}, {r_u}] at arc length {l}"
            )
        p, _, n = self.curve.frame(l)
        return p + r * n

    def section_points(self, ls, rs):
        """Vectorized inverse map: points at arc lengths ls and offsets rs.

        ls is (K,), rs is (K,) or (K, M); no bounds checking (grid helper)."""
        ls = np.asarray(ls, dtype=float)
        if self.closed:
            ls = ls % self.length
        pts, _, normals = self.curve.frames(ls)
        rs = np.asarray(rs, dtype=float)
        if rs.ndim == 1:
            return pts + rs[:, None] * normals
        return pts[:, None, :] + rs[:, :, None] * normals[:, None, :]

    # -- boundary --------------------------------------------------------------

    def _boundary_spacing(self):
        """Sample spacing keeping the polyline within ~2e-4 of the true
        lateral boundary (chord sagitta bound from the offset-curve
        curvature)."""
        probe = np.linspace(0.0, self.length, 257)
        kappa = 0.0
        for l in probe:
            _, _, _, _, cx, cy = self.curve.eval_scalar(float(l))
            kappa = max(kappa, math.hypot(cx, cy))
        w_max = float(max(np.max(self.widths.knot_rd), np.max(self.widths.knot_ru)))
        denom = 1.0 - min(kappa * w_max, 0.9)
        kappa_b = kappa / denom if kappa > 0 else 0.0
        if kappa_b <= 0:
            return 0.05
        return min(max(math.sqrt(8.0 * 2e-4 / kappa_b), 0.005), 0.05)

    def _build_boundary(self):
        spacing = self._boundary_spacing()
        n = max(int(math.ceil(self.length / spacing)), 8)
        ls = np.unique(
            np.concatenate(
                [
                    np.linspace(0.0, self.length, n + 1),
                    np.clip(self.widths.knot_ls, 0.0, self.length),
                ]
            )
        )
        pts, _, normals = self.curve.frames(ls)
        r_d = self.widths.r_d(ls)[:, None]
        r_u = self.widths.r_u(ls)[:, None]
        lower = pts - r_d * normals
        upper = pts + r_u * normals
        # both lateral polylines in one segment list, lower side first: the
        # order in which distance ties are broken
        a = np.concatenate([lower[:-1], upper[:-1]])
        b = np.concatenate([lower[1:], upper[1:]])
        d = b - a
        len2 = d[:, 0] ** 2 + d[:, 1] ** 2
        len2[len2 == 0.0] = 1e-300
        self._seg_ax = a[:, 0].copy()
        self._seg_ay = a[:, 1].copy()
        self._seg_dx = d[:, 0].copy()
        self._seg_dy = d[:, 1].copy()
        self._seg_len2 = len2
        # Chunks of _BOUNDARY_CHUNK consecutive segments of one side, in
        # list order; a side's last chunk repeats that side's last segment,
        # so no chunk straddles the two sides.
        n_side = len(ls) - 1
        n_chunks = -(-n_side // _BOUNDARY_CHUNK)
        side = np.minimum(np.arange(n_chunks * _BOUNDARY_CHUNK), n_side - 1)
        seg = np.concatenate([side, side + n_side]).reshape(-1, _BOUNDARY_CHUNK)
        # rows ax, ay, dx, dy, len2, so that a query gathers them in one index
        rows = np.stack([self._seg_ax, self._seg_ay, self._seg_dx, self._seg_dy, len2])
        self._chunks = np.take(rows, seg, axis=1)
        # A box spans its chunk's real segments (the padding repeats one of
        # them).  Its margin covers the rounding of d = b - a and of the
        # distance arithmetic, so a box is never farther than its segments.
        pad = 1e-12 * (1.0 + float(np.max(np.abs(np.concatenate([a, b])))))
        starts = seg[:, 0]
        self._box_lo = (np.minimum.reduceat(np.minimum(a, b), starts) - pad).T.copy()
        self._box_hi = (np.maximum.reduceat(np.maximum(a, b), starts) + pad).T.copy()

    def _chunk_offsets(self, pts, rows, chunks):
        """Offsets from pts[rows] to the nearest point of every segment of
        the paired chunks, (P, _BOUNDARY_CHUNK) each, plus their squares:
        the per-segment arithmetic of a full scan, on a subset."""
        ax, ay, dx, dy, len2 = self._chunks[:, chunks]
        q = pts[rows]
        apx = q[:, :1] - ax
        apy = q[:, 1:] - ay
        t = (apx * dx + apy * dy) / len2
        np.clip(t, 0.0, 1.0, out=t)
        ex = apx - t * dx
        ey = apy - t * dy
        return ex, ey, ex * ex + ey * ey

    def boundary_distance_many(self, pts):
        """Distance and inward unit direction to the lateral boundary for
        each point; no membership check (engine fast path).

        Exact: the box of each chunk bounds its segments' distances from
        below, the nearest box's chunk bounds the answer from above, and
        only chunks whose box is within that bound are scanned.  Ties go to
        the lowest segment index, so the result equals a scan of every
        segment bit for bit."""
        pts = np.asarray(pts, dtype=float)
        m = len(pts)
        p = pts.T[:, :, None]
        gap = np.maximum(self._box_lo[:, None, :] - p, p - self._box_hi[:, None, :])
        np.maximum(gap, 0.0, out=gap)
        gap *= gap
        lower2 = gap[0] + gap[1]                     # (M, chunks)
        rows = np.arange(m)
        nearest = np.argmin(lower2, axis=1)
        upper2 = self._chunk_offsets(pts, rows, nearest)[2].min(axis=1)
        keep = lower2 <= upper2[:, None] * (1.0 + _CULL_SLACK)
        keep[rows, nearest] = True  # at least one chunk per point, for reduceat
        # row-major: grouped by point, chunks (hence segments) ascending
        who, chunks = np.nonzero(keep)
        ex, ey, d2 = self._chunk_offsets(pts, who, chunks)
        counts = np.count_nonzero(keep, axis=1)
        starts = np.cumsum(counts) - counts
        chunk_min = d2.min(axis=1)
        tied = chunk_min == np.minimum.reduceat(chunk_min, starts)[who]
        pairs = len(who)
        # each point's first pair at its minimum holds the lowest such segment
        first = np.minimum.reduceat(np.where(tied, np.arange(pairs), pairs), starts)
        col = np.argmin(d2[first], axis=1)
        dist = np.sqrt(d2[first, col])
        dirs = np.stack([ex[first, col], ey[first, col]], axis=1)
        norms = np.where(dist > 0, dist, 1.0)
        dirs = dirs / norms[:, None]
        return dist, dirs

    def boundary_distance(self, p):
        """Minimum distance from an in-tube point to the lateral boundary,
        and the unit direction from the nearest boundary point toward p."""
        self.to_curvilinear(p)  # membership check; raises if outside
        d, dirs = self.boundary_distance_many(np.asarray(p, dtype=float)[None, :])
        return float(d[0]), dirs[0]

    def terminal_sections(self):
        """Terminal cross-section segments (open tubes only)."""
        if self.closed:
            return []
        return [self.cross_section_endpoints(0.0), self.cross_section_endpoints(self.length)]

    # -- regularity --------------------------------------------------------------

    def check_regularity(self, spacing=None) -> RegularityReport:
        """Sample cross-sections and test all non-adjacent pairs for
        intersection.  Pairs closer than the sampling spacing (arc distance,
        cyclic for closed tubes) are skipped to avoid discretization false
        positives."""
        ds = spacing if spacing is not None else 0.02 * self.length
        n = max(int(math.ceil(self.length / ds)), 2)
        ls = np.linspace(0.0, self.length, n + 1)
        if self.closed:
            ls = ls[:-1]
        pts, _, normals = self.curve.frames(ls)
        r_d = self.widths.r_d(ls)[:, None]
        r_u = self.widths.r_u(ls)[:, None]
        lower = pts - r_d * normals
        upper = pts + r_u * normals
        skip = ds * (1.0 + 1e-9)
        hits = []
        for i in range(len(ls)):
            for j in range(i + 1, len(ls)):
                gap = ls[j] - ls[i]
                if self.closed:
                    gap = min(gap, self.length - gap)
                if gap <= skip:
                    continue
                if _segments_intersect(lower[i], upper[i], lower[j], upper[j]):
                    hits.append((float(ls[i]), float(ls[j])))
        return RegularityReport(ok=not hits, intersections=hits, spacing=ds)


def narrow_intervals(tube: VirtualTube, r_s: float):
    """Arc-length intervals where the flow capacity is in (r_s, 2 r_s]."""
    if r_s <= 0:
        raise ValueError("safety radius must be positive")
    grid = tube.widths.grid_over(0.0, tube.length)
    out = []
    for a, b in zip(grid[:-1], grid[1:]):
        sa = float(tube.widths.r_c(a))
        sb = float(tube.widths.r_c(b))
        lo, hi = a, b
        # clip the linear piece against sigma <= 2 r_s and sigma > r_s
        for bound, keep_below in ((2.0 * r_s, True), (r_s, False)):
            va, vb = sa, sb
            if keep_below:
                ok_a, ok_b = va <= bound, vb <= bound
            else:
                ok_a, ok_b = va > bound, vb > bound
            if ok_a and ok_b:
                continue
            if not ok_a and not ok_b:
                lo, hi = None, None
                break
            t = (bound - va) / (vb - va)
            lc = a + t * (b - a)
            if ok_a:
                hi = min(hi, lc)
            else:
                lo = max(lo, lc)
        if lo is not None and hi is not None and hi > lo + 1e-12:
            out.append((lo, hi))
    merged = []
    for lo, hi in out:
        if merged and lo <= merged[-1][1] + 1e-9:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged
