"""Per-point tube queries for the tests, written over the package's array
queries: the former scalar VirtualTube methods curve_frame,
cross_section_endpoints, to_curvilinear, to_cartesian and
boundary_distance, with the tube coordinate they used and the error they
raise for a point outside the tube, and the array
inverse map section_points that the tests build grids with.  Also the
former scalar regularity check, segments_intersect over a double loop of section
pairs, as the oracle of the array check."""

import math
from dataclasses import dataclass

import numpy as np

from tubenav.errors import TubeDomainError

_MEMBERSHIP_TOL = 1e-9  # m, slack of the width bounds


class OutsideTubeError(Exception):
    """A query point lies outside the tube.

    Carries the best-effort curvilinear coordinate of the nearest-section
    projection, for diagnostics.
    """

    def __init__(self, message, best_coord=None):
        super().__init__(message)
        self.best_coord = best_coord


@dataclass(frozen=True)
class CurvilinearCoord:
    """Tube coordinate: arc length l along the spine, signed normal offset r
    (positive on the counterclockwise-normal side)."""

    l: float
    r: float


def curve_frame(tube, l):
    """gamma(l), unit tangent, counterclockwise unit normal."""
    return tuple(a[0] for a in tube.curve.frames([tube._check_l(l)]))


def cross_section_endpoints(tube, l):
    """Lower and upper endpoints of the cross-section at l."""
    lower, upper = tube.section_ends([tube._check_l(l)])
    return lower[0], upper[0]


def section_points(tube, ls, rs):
    """Vectorized inverse map: points at arc lengths ls and offsets rs.

    ls is (K,), rs is (K,) or (K, M); no bounds checking (grid helper)."""
    ls = np.asarray(ls, dtype=float)
    if tube.closed:
        ls = ls % tube.length
    pts, _, normals = tube.curve.frames(ls)
    rs = np.asarray(rs, dtype=float)
    if rs.ndim == 1:
        return pts + rs[:, None] * normals
    return pts[:, None, :] + rs[:, :, None] * normals[:, None, :]


def to_curvilinear(tube, p):
    """Tube coordinate of a Cartesian point inside the tube; OutsideTubeError
    (carrying the nearest coordinate) for a point outside."""
    pr, inside = tube.locate([p])
    coord = CurvilinearCoord(l=float(pr.l[0]), r=float(pr.r[0]))
    if not inside[0]:
        raise OutsideTubeError(
            f"point {tuple(np.asarray(p, float))} is outside the tube "
            f"(nearest section l={coord.l:.6f}, offset r={coord.r:.6f})",
            best_coord=coord,
        )
    return coord


def to_cartesian(tube, coord):
    """Inverse map; the coordinate must be inside the width bounds."""
    l = tube._check_l(coord.l)
    r = float(coord.r)
    r_d, r_u = float(tube.widths.r_d(l)), float(tube.widths.r_u(l))
    if r < -r_d - _MEMBERSHIP_TOL or r > r_u + _MEMBERSHIP_TOL:
        raise TubeDomainError(f"offset {r} outside [-{r_d}, {r_u}] at arc length {l}")
    return section_points(tube, [l], [r])[0]


def boundary_distance(tube, p):
    """Distance from an in-tube point to the lateral boundary and the unit
    direction from the nearest boundary point toward p."""
    to_curvilinear(tube, p)  # membership check; raises if outside
    d, dirs = tube.boundary_distance_many([p])
    return float(d[0]), dirs[0]


def _orient(ax, ay, bx, by, cx, cy):
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _on_segment(ax, ay, bx, by, px, py, eps):
    return (
        min(ax, bx) - eps <= px <= max(ax, bx) + eps
        and min(ay, by) - eps <= py <= max(ay, by) + eps
    )


def segments_intersect(p1, p2, p3, p4, eps=1e-12):
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


def regularity_loop(tube, spacing=None):
    """(intersections, pairs tested) of the former double loop over the
    section pairs of VirtualTube.check_regularity."""
    ds = spacing if spacing is not None else 0.02 * tube.length
    n = max(int(math.ceil(tube.length / ds)), 2)
    ls = np.linspace(0.0, tube.length, n + 1)
    if tube.closed:
        ls = ls[:-1]
    lower, upper = tube.section_ends(ls)
    skip = ds * (1.0 + 1e-9)
    hits, tested = [], 0
    for i in range(len(ls)):
        for j in range(i + 1, len(ls)):
            gap = ls[j] - ls[i]
            if tube.closed:
                gap = min(gap, tube.length - gap)
            if gap <= skip:
                continue
            tested += 1
            if segments_intersect(lower[i], upper[i], lower[j], upper[j]):
                hits.append((float(ls[i]), float(ls[j])))
    return hits, tested
