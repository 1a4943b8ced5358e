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
chord polyline through the vertices that bend it is kept only to seed
nearest-point projections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .blocks import row_blocks
from .errors import TubeDomainError

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
#
# Every segment kind has one evaluation, ``eval_many(s, k=0)``: points, unit
# tangents and curvature vectors (d/dl of the unit tangent) at the arc
# lengths s within the segment, each (K, 2).  A segment holds its
# parameters with a leading axis of length one; ``stack`` concatenates
# several segments of one kind along that axis, and ``k`` then picks each
# query's segment, so a curve evaluates all its segments of a kind at once.

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
        self._a = start[None, :]
        self._u = (chord / length)[None, :]

    @classmethod
    def stack(cls, segments):
        out = cls.__new__(cls)
        out._a = np.concatenate([seg._a for seg in segments])
        out._u = np.concatenate([seg._u for seg in segments])
        return out

    def max_curvature(self):
        return 0.0

    def eval_many(self, s, k=0):
        u = self._u[k]
        points = self._a[k] + np.asarray(s, dtype=float)[:, None] * u
        tangents = np.empty_like(points)
        tangents[:] = u
        return points, tangents, np.zeros(points.shape)


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
        self._c = self.center[None, :]
        self._r = np.array([[self.radius]])
        self._th0 = np.array([self.start_angle])
        self._sign = np.array([self.sign])
        self._tsign = np.array([[-self.sign, self.sign]])

    @classmethod
    def stack(cls, segments):
        out = cls.__new__(cls)
        for name in ("_c", "_r", "_th0", "_sign", "_tsign"):
            setattr(out, name, np.concatenate([getattr(seg, name) for seg in segments]))
        return out

    def max_curvature(self):
        return 1.0 / self.radius

    def eval_many(self, s, k=0):
        r = self._r[k]
        th = self._th0[k] + self._sign[k] * np.asarray(s, dtype=float) / r[..., 0]
        cs = np.empty((len(th), 2))
        np.cos(th, out=cs[:, 0])
        np.sin(th, out=cs[:, 1])
        # (cos, sin) gives the point's offset r (cos, sin), the tangent
        # sign (-sin, cos) and the curvature vector -(cos, sin) / r
        return self._c[k] + r * cs, cs[:, ::-1] * self._tsign[k], cs / -r


class CatmullRomSegment:
    """Catmull-Rom cubic through waypoints, reparameterized to arc length.

    Each cubic piece gets a cumulative-length table (16-node Gauss-Legendre
    between table nodes); arc-length queries invert the table with Newton
    steps on s(u), all queries at once, so evaluation error is at
    quadrature level rather than table-interpolation level.
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
        p0, p1, m0, m1 = pts[:-1], pts[1:], tang[:-1], tang[1:]
        # Hermite pieces as power series c0 + c1 u + c2 u^2 + c3 u^3, u in [0, 1]
        self._coef = np.stack(
            [p0, m0, 3.0 * (p1 - p0) - 2.0 * m0 - m1, 2.0 * (p0 - p1) + m0 + m1], axis=1
        )
        self._n_pieces = n - 1
        self._u_nodes = np.linspace(0.0, 1.0, self._TABLE_SUBDIV + 1)
        pieces = np.repeat(np.arange(self._n_pieces), self._TABLE_SUBDIV)
        cells = self._gauss_len(pieces, np.tile(self._u_nodes[:-1], self._n_pieces),
                                np.tile(self._u_nodes[1:], self._n_pieces))
        # per piece: arc length at each table node, from 0 to the piece length
        self._table = np.concatenate(
            [np.zeros((self._n_pieces, 1)),
             np.cumsum(cells.reshape(self._n_pieces, -1), axis=1)], axis=1
        )
        cum = np.concatenate([[0.0], np.cumsum(self._table[:, -1])])
        self.length = float(cum[-1])
        self._piece_s0 = cum[:-1]          # piece start within its segment
        self._key = self._piece_s0         # piece start along the stack
        self._offset = np.zeros(1)         # segment start along the stack
        self._first = np.array([0, self._n_pieces])
        self._len = np.array([self.length])

    @classmethod
    def stack(cls, segments):
        out = cls.__new__(cls)
        out._u_nodes = segments[0]._u_nodes
        for name in ("_coef", "_table", "_piece_s0", "_len"):
            setattr(out, name, np.concatenate([getattr(seg, name) for seg in segments]))
        out._offset = np.concatenate([[0.0], np.cumsum(out._len)[:-1]])
        out._first = np.concatenate([[0], np.cumsum([seg._n_pieces for seg in segments])])
        out._key = out._piece_s0 + np.repeat(out._offset, np.diff(out._first))
        return out

    def _derivs(self, i, u, order):
        """Derivative ``order`` (0, 1 or 2) of pieces i at u, (..., 2); i and
        u broadcast."""
        c = self._coef[i]
        u = np.asarray(u)[..., None]
        if order == 0:
            return c[..., 0, :] + u * (c[..., 1, :] + u * (c[..., 2, :] + u * c[..., 3, :]))
        if order == 1:
            return c[..., 1, :] + u * (2.0 * c[..., 2, :] + 3.0 * u * c[..., 3, :])
        return 2.0 * c[..., 2, :] + 6.0 * u * c[..., 3, :]

    def _gauss_len(self, i, ua, ub):
        """Arc length of pieces i from ua to ub (0 where ub <= ua), (K,):
        one (K, 16) Gauss-Legendre evaluation."""
        mid = 0.5 * (ua + ub)
        half = 0.5 * (ub - ua)
        d = self._derivs(i[:, None], mid[:, None] + half[:, None] * _GL16_NODES, 1)
        total = (np.hypot(d[..., 0], d[..., 1]) * _GL16_WEIGHTS).sum(axis=1) * half
        return np.where(ub > ua, total, 0.0)

    def _invert(self, s, k):
        """Arc lengths within the segments k -> (piece index, local parameter
        u), each (K,): a table lookup, then Newton on s(u) for every query
        at once."""
        s = np.clip(s, 0.0, self._len[k])
        first = self._first[k]
        last = self._first[np.asarray(k) + 1] - 1
        i = np.searchsorted(self._key, self._offset[k] + s, side="right") - 1
        i = np.clip(i, first, last)
        sl = s - self._piece_s0[i]
        table = self._table[i]
        j = np.count_nonzero(table <= sl[:, None], axis=1) - 1
        j = np.clip(j, 0, self._TABLE_SUBDIV - 1)
        rows = np.arange(len(s))
        t0, t1 = table[rows, j], table[rows, j + 1]
        u0, u1 = self._u_nodes[j], self._u_nodes[j + 1]
        # linear seed inside the table cell, then Newton on s(u) - sl = 0
        u = u0 + (sl - t0) / np.maximum(t1 - t0, 1e-300) * (u1 - u0)
        live = rows
        for _ in range(6):
            ul = u[live]
            resid = t0[live] + self._gauss_len(i[live], u0[live], ul) - sl[live]
            d1 = self._derivs(i[live], ul, 1)
            sp = np.hypot(d1[:, 0], d1[:, 1])
            moving = sp > 0.0
            du = -resid[moving] / sp[moving]
            live = live[moving]
            u[live] = np.clip(ul[moving] + du, 0.0, 1.0)
            live = live[np.abs(du) >= 1e-15]
            if not live.size:
                break
        return i, u

    def max_curvature(self):
        """Largest |c| over dense parameter samples of each piece."""
        u = np.linspace(0.0, 1.0, 8 * self._TABLE_SUBDIV + 1)
        i = np.arange(self._n_pieces)[:, None]
        d1, d2 = self._derivs(i, u, 1), self._derivs(i, u, 2)
        cross = d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]
        return float(np.max(np.abs(cross) / np.hypot(d1[..., 0], d1[..., 1]) ** 3))

    def eval_many(self, s, k=0):
        s = np.asarray(s, dtype=float)
        i, u = self._invert(s, np.broadcast_to(k, s.shape))
        d1, d2 = self._derivs(i, u, 1), self._derivs(i, u, 2)
        sp2 = d1[:, 0] * d1[:, 0] + d1[:, 1] * d1[:, 1]
        dot = d1[:, 0] * d2[:, 0] + d1[:, 1] * d2[:, 1]
        tangents = d1 / np.sqrt(sp2)[:, None]
        curvatures = d2 / sp2[:, None] - d1 * (dot / (sp2 * sp2))[:, None]
        return self._derivs(i, u, 0), tangents, curvatures


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
# nearest-segment search
# ---------------------------------------------------------------------------

def _offsets(rows, qx, qy):
    """Offsets from the points (qx, qy) to the nearest point of the segments
    ``rows`` (ax, ay, dx, dy, len2), broadcast against each other, plus
    their squares: the per-segment arithmetic of a full scan, on a
    subset."""
    ax, ay, dx, dy, len2 = rows
    apx = qx - ax
    apy = qy - ay
    t = (apx * dx + apy * dy) / len2
    np.clip(t, 0.0, 1.0, out=t)
    ex = apx - t * dx
    ey = apy - t * dy
    return ex, ey, ex * ex + ey * ey


class _NearestSegment:
    """Exact nearest-segment search over runs of consecutive segments (a
    polyline per run).

    Segments are grouped into chunks of _BOUNDARY_CHUNK consecutive segments
    of one run (the whole run if it is shorter), each with a bounding box.
    The box of a chunk bounds its segments' distances from below, the
    nearest box's chunk bounds the answer from above, and only chunks whose
    box is within that bound are scanned.  Ties go to the lowest segment
    index, so a query equals a scan of every segment bit for bit.  A
    SegmentList keeps the candidate segments of moving points across
    queries; ``nearest`` is its use-once case."""

    def __init__(self, a, b, runs=1):
        d = b - a
        len2 = d[:, 0] ** 2 + d[:, 1] ** 2
        len2[len2 == 0.0] = 1e-300
        # rows ax, ay, dx, dy, len2, so that a query gathers them in one index
        self.rows = np.stack([a[:, 0], a[:, 1], d[:, 0], d[:, 1], len2])
        # a run's last chunk repeats that run's last segment, so no chunk
        # straddles two runs
        n_run = len(a) // runs
        width = min(_BOUNDARY_CHUNK, n_run)
        n_chunks = -(-n_run // width)
        run = np.minimum(np.arange(n_chunks * width), n_run - 1)
        self._seg = np.concatenate([run + q * n_run for q in range(runs)]).reshape(-1, width)
        # (5, width, chunks): a query gathers whole chunks along the last
        # axis, so the per-segment pass runs along its points, not along a
        # chunk that may be only a few segments wide
        self._chunks = np.take(self.rows, self._seg.T, axis=1)
        # A box spans its chunk's real segments (the padding repeats one of
        # them).  Its margin covers the rounding of d = b - a and of the
        # distance arithmetic, so a box is never farther than its segments.
        pad = 1e-12 * (1.0 + float(np.max(np.abs(np.concatenate([a, b])))))
        starts = self._seg[:, 0]
        self._box_lo = (np.minimum.reduceat(np.minimum(a, b), starts) - pad).T.copy()
        self._box_hi = (np.maximum.reduceat(np.maximum(a, b), starts) + pad).T.copy()

    def _candidates(self, pts, margin=0.0):
        """Every (point, chunk) pair whose box is within the nearest box's
        chunk distance plus ``margin`` of the point, row-major: grouped by
        point, chunks (hence segments) ascending.  Every point has at least
        one.  The box pass runs a row block of points at a time; its two
        live (2, rows, chunks) arrays fit one block."""
        lo, hi = self._box_lo[:, None, :], self._box_hi[:, None, :]
        _, blocks = row_blocks(len(pts), 4 * lo.shape[2])
        who, chunks = [], []
        for block in blocks:
            p = pts[block].T[:, :, None]
            gap = lo - p
            np.maximum(gap, p - hi, out=gap)
            np.maximum(gap, 0.0, out=gap)
            gap *= gap
            lower2 = gap[0] + gap[1]                     # (rows, chunks)
            rows = np.arange(block.start, block.stop)
            nearest = np.argmin(lower2, axis=1)
            chunk = np.take(self._chunks, nearest, axis=2)
            upper = np.sqrt(_offsets(chunk, *pts[block].T)[2].min(axis=0))
            upper += margin
            keep = lower2 <= (upper * upper)[:, None] * (1.0 + _CULL_SLACK)
            keep[rows - block.start, nearest] = True  # at least one chunk per point
            w, c = np.nonzero(keep)
            who.append(w + block.start)
            chunks.append(c)
        return np.concatenate(who), np.concatenate(chunks)

    def nearest(self, pts):
        """Index of the nearest segment to each point, with the offset
        (ex, ey) from that segment's nearest point and its square d2."""
        return SegmentList(self, 0.0).nearest(pts)


class SegmentList:
    """A Verlet skin list (Verlet 1967) of the candidate segments of a
    _NearestSegment search for moving points.

    A build culls the chunks whose box lies farther than the point's
    nearest-box bound plus 2 skin, then keeps, of the chunks left, every
    segment within the point's nearest distance d0 plus 2 skin.  A point
    that has since moved by at most the skin is at most d0 + skin from its
    nearest segment, and more than d0 + 2 skin - skin from any segment left
    out: so its nearest segment and every segment tied with it are kept,
    and a scan of the kept segments, with the same per-segment arithmetic
    and the lowest-index tie rule, equals a scan of every segment bit for
    bit.  The list rebuilds when the number of points changes and when some
    point has moved farther than the skin since the build; with a skin of 0
    it rebuilds on any motion.  ``builds`` counts the builds.
    """

    def __init__(self, search, skin):
        if not skin >= 0.0:
            raise ValueError(f"skin must be >= 0, got {skin!r}")
        self.search = search
        self.skin = float(skin)
        self.builds = 0
        self._built = None

    def _build(self, pts):
        search = self.search
        who, chunk = search._candidates(pts, 2.0 * self.skin)
        counts = np.bincount(who, minlength=len(pts))
        d2 = _offsets(np.take(search._chunks, chunk, axis=2), *pts.take(who, axis=0).T)[2]
        bound = np.sqrt(np.minimum.reduceat(d2.min(axis=0), np.cumsum(counts) - counts))
        bound += 2.0 * self.skin
        # a segment is dropped only when it is farther than the bound, so a
        # point whose distances are not finite keeps all its chunks
        far = d2.T > ((bound * bound) * (1.0 + _CULL_SLACK))[who][:, None]
        seg = search._seg[chunk]
        far[:, 1:] |= seg[:, 1:] == seg[:, :-1]  # the padding repeats a segment
        pair, col = np.nonzero(~far)
        # grouped by point, segments ascending
        self._who = who[pair]
        self._seg = seg[pair, col]
        self._rows = np.take(search.rows, self._seg, axis=1)
        counts = np.bincount(self._who, minlength=len(pts))
        self._starts = np.cumsum(counts) - counts
        self._index = np.arange(len(self._who))
        self._built = pts.copy()
        self.builds += 1

    def _valid(self, pts):
        built = self._built
        if built is None or len(built) != len(pts):
            return False
        moved = pts - built
        # a NaN displacement fails the comparison, so it rebuilds
        return np.max(np.einsum("ij,ij->i", moved, moved), initial=0.0) <= self.skin * self.skin

    def nearest(self, pts):
        """Index of the nearest segment to each point, with the offset
        (ex, ey) from that segment's nearest point and its square d2."""
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        if not self._valid(pts):
            self._build(pts)
        who, starts = self._who, self._starts
        ex, ey, d2 = _offsets(self._rows, *pts.take(who, axis=0).T)
        tied = d2 == np.minimum.reduceat(d2, starts)[who]
        # each point's first segment at its minimum is the lowest such
        first = np.minimum.reduceat(np.where(tied, self._index, len(who)), starts)
        return self._seg[first], ex[first], ey[first], d2[first]


# ---------------------------------------------------------------------------
# generating curve
# ---------------------------------------------------------------------------

@dataclass
class _Projection:
    """Nearest spine points of several points, every field an array with one
    row per point; from ``project``, the one row as plain values."""

    l: np.ndarray
    r: np.ndarray
    tangent: np.ndarray       # unit tangent at l, (M, 2); a (tx, ty) tuple from project
    curvature: np.ndarray     # signed curvature c . n at l
    residual: np.ndarray      # tangential component of (p - gamma(l))
    beyond_start: np.ndarray
    beyond_end: np.ndarray


def _unconverged(p, tries):
    """The error of a projection that did not converge from any of its
    (seed, last step, final l) tries."""
    how = "; retried from the table ".join(
        f"seed l={float(seed)!r}: last step {float(step):.3e}, now at l={float(l)!r}"
        for seed, step, l in tries
    )
    return TubeDomainError(
        f"projection of ({float(p[0])!r}, {float(p[1])!r}) did not converge in"
        f" {_PROJ_MAX_NEWTON} Newton steps from {how}"
    )


class GeneratingCurve:
    """Arc-length-parameterized spine of a tube.

    Provides exact frame evaluation (point, unit tangent, counterclockwise
    unit normal, curvature vector) and nearest-point projection refined by
    Newton iteration, every query over arrays of arc lengths or points.  A
    projection without a previous arc length is seeded from the chord
    polyline through the spine's bending vertices: a uniform grid (spacing
    min(0.01 L, 0.05 m)) less the vertices inside a straight stretch, so an
    arc or a spline keeps every grid vertex and a line only its two ends.
    """

    def __init__(self, segments, closed=False):
        if not segments:
            raise ValueError("curve needs at least one segment")
        self.segments = list(segments)
        self.closed = bool(closed)
        self._lengths = np.array([seg.length for seg in self.segments])
        self._cum_arr = np.concatenate([[0.0], np.cumsum(self._lengths)])
        self.total_length = float(self._cum_arr[-1])
        # the segments of each kind evaluate as one stack (a lone segment is
        # its own stack); segment n is row _within[n] of stack _stack_of[n]
        kinds = list(dict.fromkeys(type(seg) for seg in self.segments))
        by_kind = [[seg for seg in self.segments if type(seg) is kind] for kind in kinds]
        self._stacks = [segs[0] if len(segs) == 1 else kind.stack(segs)
                        for kind, segs in zip(kinds, by_kind)]
        self._stack_of = np.array([kinds.index(type(seg)) for seg in self.segments])
        self._within = np.array([by_kind[q].index(seg)
                                 for q, seg in zip(self._stack_of, self.segments)])
        self._validate_joints()
        self._build_seed_polyline()

    # -- construction checks ------------------------------------------------

    def _validate_joints(self):
        ends = [seg.eval_many([0.0, seg.length])[:2] for seg in self.segments]
        joints = list(zip(ends[:-1], ends[1:])) + ([(ends[-1], ends[0])] if self.closed else [])
        for (p1, t1), (p0, t0) in joints:
            gap = math.hypot(*(p0[0] - p1[1]))
            if gap > _JOINT_POS_TOL:
                raise ValueError(f"segment joint gap {gap:.3e} m exceeds tolerance")
            (tx1, ty1), (tx0, ty0) = t1[1], t0[0]
            angle = abs(math.atan2(tx1 * ty0 - ty1 * tx0, tx1 * tx0 + ty1 * ty0))
            if angle > _JOINT_ANGLE_TOL:
                raise ValueError(
                    f"tangent kink of {angle:.3e} rad at segment joint exceeds tolerance"
                )

    def _build_seed_polyline(self):
        """The chord polyline that seeds projections: the vertices of a
        uniform grid (spacing min(0.01 L, 0.05 m)) that bend it.  The unit
        speed of the parameterization is checked at those vertices; a
        dropped vertex lies on a line, whose tangent is one constant."""
        L = self.total_length
        n = max(int(math.ceil(L / min(0.01 * L, 0.05))), 2)
        self.vertex_ls = self.bending_vertices(np.linspace(0.0, L, n + 1))
        self.vertex_points, tangents, _ = self.frames(self.vertex_ls)
        worst = float(np.max(np.abs(np.hypot(tangents[:, 0], tangents[:, 1]) - 1.0)))
        if worst > _UNIT_SPEED_TOL:
            raise ValueError(f"arc-length parameterization off by {worst:.3e}")
        self._chords = _NearestSegment(self.vertex_points[:-1], self.vertex_points[1:])

    def bending_vertices(self, ls, knots=()):
        """The ascending arc lengths ls (from 0 to L) less every vertex that
        cannot bend a polyline through the spine: one that is not in
        ``knots`` and lies, with both its neighbours, on one line segment.
        That vertex sits on the chord joining its neighbours, so dropping
        it leaves the same polyline."""
        cum = self._cum_arr
        k = np.minimum(np.searchsorted(cum, ls[:-2], side="right") - 1, len(cum) - 2)
        line = np.array([seg.kind == "line" for seg in self.segments])[k]
        keep = np.ones(len(ls), dtype=bool)
        keep[1:-1] = ~line | (ls[2:] > cum[k + 1]) | np.isin(ls[1:-1], knots)
        return ls[keep]

    # -- evaluation -----------------------------------------------------------

    def eval_many(self, ls, clip=False):
        """Points, unit tangents and curvature vectors at the arc lengths ls,
        (M, 2) each.  Each arc length is taken in the segment it falls in;
        ``clip`` clamps it to that segment's ends."""
        ls = np.asarray(ls, dtype=float)
        if len(self.segments) == 1:
            return self._stacks[0].eval_many(np.clip(ls, 0.0, self.total_length) if clip else ls)
        idx = np.minimum(np.searchsorted(self._cum_arr[1:], ls, side="right"),
                         len(self.segments) - 1)
        s = ls - self._cum_arr[idx]
        if clip:
            s = np.clip(s, 0.0, self._lengths[idx])
        k = self._within[idx]
        if len(self._stacks) == 1:
            return self._stacks[0].eval_many(s, k)
        out = np.empty((3, len(ls), 2))
        stack_of = self._stack_of[idx]
        for q, stack in enumerate(self._stacks):
            rows = np.flatnonzero(stack_of == q)
            if rows.size:
                for part, values in zip(out, stack.eval_many(s[rows], k[rows])):
                    part[rows] = values
        return out[0], out[1], out[2]

    def eval_scalar(self, l):
        """(px, py, tx, ty, cx, cy) at arc length l: one row of eval_many."""
        return tuple(np.concatenate(self.eval_many([float(l)]), axis=1)[0].tolist())

    def frames(self, ls):
        """Points, unit tangents and counterclockwise unit normals at the arc
        lengths ls, (M, 2) each; arc lengths clamped to their segments."""
        pts, tans, _ = self.eval_many(ls, clip=True)
        return pts, tans, np.stack([-tans[:, 1], tans[:, 0]], axis=1)

    # -- projection -----------------------------------------------------------

    def table_seeds(self, pts):
        """Seed arc length of each point: the nearest point of the seed
        polyline, on the chord a scan of every chord picks (ties going to
        the lowest), with l interpolated along that chord between its two
        vertices, l_a + t (l_b - l_a)."""
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        k = self._chords.nearest(pts)[0]
        ax, ay, dx, dy, len2 = self._chords.rows[:, k]
        t = ((pts[:, 0] - ax) * dx + (pts[:, 1] - ay) * dy) / len2
        np.clip(t, 0.0, 1.0, out=t)
        l_a = self.vertex_ls[k]
        return l_a + t * (self.vertex_ls[k + 1] - l_a)

    def _newton(self, px, py, l):
        """Newton iteration on the stationarity residual (p - gamma(l)) . t(l),
        every row at once; a row stops once it moves by less than the
        tolerance.  Open curves clamp l to [0, L], closed ones wrap it (and
        measure the move around the seam).  Returns each row's final l and
        last step, and the rows still moving after _PROJ_MAX_NEWTON steps."""
        L = self.total_length
        l = l.copy()
        step = np.zeros_like(l)
        live = np.arange(len(l))
        for _ in range(_PROJ_MAX_NEWTON):
            if not live.size:
                break
            lr = l[live]
            pt, tan, curv = self.eval_many(lr)
            dx, dy = px[live] - pt[:, 0], py[live] - pt[:, 1]
            g = dx * tan[:, 0] + dy * tan[:, 1]
            gp = dx * curv[:, 0] + dy * curv[:, 1] - 1.0
            gp[np.abs(gp) < 1e-9] = -1.0
            st = -g / gp
            ln = lr + st
            ln = ln % L if self.closed else np.minimum(np.maximum(ln, 0.0), L)
            l[live] = ln
            step[live] = st
            moved = np.abs(ln - lr)
            if self.closed:  # a step across the seam moves by its wrapped length
                moved = np.minimum(moved, L - moved)
            live = live[moved >= 1e-13 * (1.0 + L)]
        return l, step, live

    def project_many(self, pts, seeds=None) -> _Projection:
        """Nearest-point projection of each point onto the curve, all rows at
        once.  ``seeds`` (previous arc lengths) skip the seed polyline's
        search (table_seeds); a seeded row whose iterates still move after
        _PROJ_MAX_NEWTON steps is retried from its table seed, and
        TubeDomainError is raised only if that fails too.  Open curves clamp
        l to [0, L] and report whether the unconstrained optimum lies beyond
        an endpoint."""
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        px, py = pts[:, 0], pts[:, 1]
        L = self.total_length
        if seeds is None:
            seed = self.table_seeds(pts)
        else:
            seed = np.asarray(seeds, dtype=float).reshape(-1)
            seed = seed % L if self.closed else np.clip(seed, 0.0, L)
        l, step, live = self._newton(px, py, seed)
        if live.size and seeds is not None:
            retry = self.table_seeds(pts[live])
            l_retry, step_retry, bad = self._newton(px[live], py[live], retry)
            if bad.size:
                b, k = bad[0], live[bad[0]]
                raise _unconverged(pts[k], [(seed[k], step[k], l[k]),
                                            (retry[b], step_retry[b], l_retry[b])])
            l[live] = l_retry
        elif live.size:
            k = live[0]
            raise _unconverged(pts[k], [(seed[k], step[k], l[k])])
        pt, tan, curv = self.eval_many(l)
        dx, dy = px - pt[:, 0], py - pt[:, 1]
        tx, ty = tan[:, 0], tan[:, 1]
        g = dx * tx + dy * ty
        is_open = not self.closed
        return _Projection(
            l=l, r=-dx * ty + dy * tx, tangent=tan, curvature=ty * -curv[:, 0] + tx * curv[:, 1],
            residual=g, beyond_start=is_open & (l <= 0.0) & (g < -_MEMBERSHIP_TOL),
            beyond_end=is_open & (l >= L) & (g > _MEMBERSHIP_TOL),
        )

    def project(self, p, seed_l=None) -> _Projection:
        """Projection of one point: one row of project_many, as plain values."""
        pr = self.project_many([p], None if seed_l is None else [seed_l])
        return _Projection(**{
            key: tuple(v[0].tolist()) if key == "tangent" else v[0].item()
            for key, v in vars(pr).items()
        })


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
    return ((np.minimum(ax, bx) - eps <= px) & (px <= np.maximum(ax, bx) + eps)
            & (np.minimum(ay, by) - eps <= py) & (py <= np.maximum(ay, by) + eps))


def _segments_intersect_many(p1, p2, p3, p4, eps=1e-12):
    """Closed-segment intersection of p1[k]-p2[k] with p3[k]-p4[k], (K, 2)
    each, touching and collinear overlap included: a strict crossing, or an
    end point on the other segment within a tolerance scaled by the longest
    coordinate extent (at least 1)."""
    (ax, ay), (bx, by), (cx, cy), (dx, dy) = (np.asarray(q, dtype=float).T
                                              for q in (p1, p2, p3, p4))
    scale = np.maximum(np.maximum(np.maximum(abs(bx - ax), abs(by - ay)),
                                  np.maximum(abs(dx - cx), abs(dy - cy))), 1.0)
    tol = eps * scale * scale
    margin = eps * scale
    o1 = _orient(ax, ay, bx, by, cx, cy)
    o2 = _orient(ax, ay, bx, by, dx, dy)
    o3 = _orient(cx, cy, dx, dy, ax, ay)
    o4 = _orient(cx, cy, dx, dy, bx, by)
    crossing = ((((o1 > tol) & (o2 < -tol)) | ((o1 < -tol) & (o2 > tol)))
                & (((o3 > tol) & (o4 < -tol)) | ((o3 < -tol) & (o4 > tol))))
    return (crossing
            | ((abs(o1) <= tol) & _on_segment(ax, ay, bx, by, cx, cy, margin))
            | ((abs(o2) <= tol) & _on_segment(ax, ay, bx, by, dx, dy, margin))
            | ((abs(o3) <= tol) & _on_segment(cx, cy, dx, dy, ax, ay, margin))
            | ((abs(o4) <= tol) & _on_segment(cx, cy, dx, dy, bx, by, margin)))


class VirtualTube:
    """Generating curve plus width profile, with topology.

    topology "open" tubes have terminal cross-sections at l = 0 and l = L;
    "closed" tubes are periodic in arc length (annular corridors) and have
    no terminals.  ``extension_length`` describes how far past L the spine
    conceptually continues for the constant-speed approach term; it is
    validated against controller parameters at scenario load.
    """

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

    def section_ends(self, ls):
        """Lower and upper endpoints of the cross-sections at the arc lengths
        ls (within [0, L]), (M, 2) each."""
        pts, _, normals = self.curve.frames(ls)
        return (pts - self.widths.r_d(ls)[:, None] * normals,
                pts + self.widths.r_u(ls)[:, None] * normals)

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

    def locate(self, pts, seeds=None):
        """Projections of the points (M, 2) plus their tube-membership flags
        (M,).  An outside point is reported by its flag; only an unconverged
        projection raises (TubeDomainError, see GeneratingCurve.project_many)."""
        pr = self.curve.project_many(pts, seeds)
        inside = (
            ~pr.beyond_start
            & ~pr.beyond_end
            & (-self.widths.r_d(pr.l) - _MEMBERSHIP_TOL <= pr.r)
            & (pr.r <= self.widths.r_u(pr.l) + _MEMBERSHIP_TOL)
        )
        return pr, inside

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
        curvature, with the spine's largest curvature over all segments)."""
        kappa = max(seg.max_curvature() for seg in self.curve.segments)
        w_max = float(max(np.max(self.widths.knot_rd), np.max(self.widths.knot_ru)))
        denom = 1.0 - min(kappa * w_max, 0.9)
        kappa_b = kappa / denom if kappa > 0 else 0.0
        if kappa_b <= 0:
            return 0.05
        return min(max(math.sqrt(8.0 * 2e-4 / kappa_b), 0.005), 0.05)

    def _build_boundary(self):
        spacing = self._boundary_spacing()
        n = max(int(math.ceil(self.length / spacing)), 8)
        knots = np.clip(self.widths.knot_ls, 0.0, self.length)
        ls = np.unique(np.concatenate([np.linspace(0.0, self.length, n + 1), knots]))
        # A vertex that is no width knot and lies, with both its neighbours,
        # on one line segment is on the chord that joins them: the spine is
        # straight and both widths are linear there.  Dropping every such
        # vertex leaves the same walls.
        lower, upper = self.section_ends(self.curve.bending_vertices(ls, knots))
        # both lateral polylines in one segment list, lower side first: the
        # order in which distance ties are broken
        walls = _NearestSegment(np.concatenate([lower[:-1], upper[:-1]]),
                                np.concatenate([lower[1:], upper[1:]]), runs=2)
        self._walls = walls
        self._seg_ax, self._seg_ay, self._seg_dx, self._seg_dy, self._seg_len2 = walls.rows

    def wall_list(self, skin):
        """A skin list of this tube's walls for ``boundary_distance_many``
        (see SegmentList)."""
        return SegmentList(self._walls, skin)

    def boundary_distance_many(self, pts, walls=None):
        """Distance and inward unit direction to the lateral boundary for
        each point; no membership check (engine fast path).  ``walls`` is a
        ``wall_list`` of this tube kept across calls; without one, the call
        is its use-once case with no skin.  Exact: equal to a scan of every
        boundary segment bit for bit (see _NearestSegment)."""
        if walls is None:
            walls = self.wall_list(0.0)
        elif walls.search is not self._walls:
            raise ValueError("the wall list belongs to another tube")
        _, ex, ey, d2 = walls.nearest(pts)
        dist = np.sqrt(d2)
        norms = np.where(dist > 0, dist, 1.0)
        return dist, np.stack([ex, ey], axis=1) / norms[:, None]

    def terminal_sections(self):
        """Terminal cross-section segments (open tubes only)."""
        if self.closed:
            return []
        lower, upper = self.section_ends(np.array([0.0, self.length]))
        return list(zip(lower, upper))

    # -- regularity --------------------------------------------------------------

    def check_regularity(self, spacing=None) -> RegularityReport:
        """Sample cross-sections ``spacing`` apart (default 2% of the length)
        and test all non-adjacent pairs for intersection, in array passes
        over the pairs (i, j > i) in row-major order.  Pairs closer than the
        spacing (arc distance, cyclic for closed tubes) are skipped to avoid
        discretization false positives.  Raises ValueError for a spacing
        that is not positive or that leaves no pair to test."""
        ds = spacing if spacing is not None else 0.02 * self.length
        if not ds > 0:
            raise ValueError(f"regularity spacing must be positive, got {ds!r}")
        n = max(int(math.ceil(self.length / ds)), 2)
        ls = np.linspace(0.0, self.length, n + 1)
        if self.closed:
            ls = ls[:-1]
        lower, upper = self.section_ends(ls)
        m = len(ls)
        hits, tested = [], 0
        # a block of rows i of pairs (i, j > i) per pass, about twenty live
        # values per pair, so that a fine spacing does not hold every
        # pair's arrays at once
        for block in row_blocks(m, 20 * m)[1]:
            i, j = np.nonzero(np.arange(block.start, block.stop)[:, None] < np.arange(m))
            i += block.start
            gap = ls[j] - ls[i]
            if self.closed:
                gap = np.minimum(gap, self.length - gap)
            far = np.flatnonzero(gap > ds * (1.0 + 1e-9))
            i, j = i[far], j[far]
            tested += len(far)
            hit = _segments_intersect_many(lower[i], upper[i], lower[j], upper[j])
            hits += zip(ls[i[hit]].tolist(), ls[j[hit]].tolist())
        if not tested:
            raise ValueError(
                f"regularity spacing {ds!r} leaves no pair of sections farther apart than"
                f" the spacing on a tube of length {self.length!r}"
            )
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
