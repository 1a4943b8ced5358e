"""Per-point tube queries for the tests, written over the package's array
queries: the former scalar VirtualTube methods curve_frame,
cross_section_endpoints, to_curvilinear, to_cartesian and
boundary_distance, with the tube coordinate they used."""

from dataclasses import dataclass

import numpy as np

from tubenav.errors import OutsideTubeError, TubeDomainError

_MEMBERSHIP_TOL = 1e-9  # m, slack of the width bounds


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
    return tube.section_points([l], [r])[0]


def boundary_distance(tube, p):
    """Distance from an in-tube point to the lateral boundary and the unit
    direction from the nearest boundary point toward p."""
    to_curvilinear(tube, p)  # membership check; raises if outside
    d, dirs = tube.boundary_distance_many([p])
    return float(d[0]), dirs[0]
