"""Evaluation quantities: dispersion, safety margins, throughput, and the
regulation-term norm audit."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import VirtualTube
from .state import SwarmState

COND23_TOL = 1e-12


@dataclass
class MetricsRecord:
    time: float
    min_pairwise_distance: float   # m; NaN with < 2 active robots
    min_boundary_distance: float   # m; NaN with no active robots
    amd: float                     # m, average nearest-neighbor distance
    exited_count: int
    density_error_l2: float        # 1/m; NaN with no active robots
    condition23_ok: bool
    max_command_norm: float        # m/s


# Cells are this much wider than the reach, so that the rounding of p / cell
# can never put a pair closer than the reach two cells apart.  The margin
# covers the rounding of coordinates up to _CELL_RANGE reaches from the
# origin; farther ones are refused.
_CELL_PAD = 1.0 + 1e-9
_CELL_RANGE = 1e6


@dataclass
class Neighbours:
    """The pair structure of one snapshot of M robots.

    Pairs are ordered, both (i, j) and (j, i) are listed, grouped by
    ascending i, and hold every pair at distance d < reach.  ``dx``, ``dy``
    and ``d`` are x_i - x_j, y_i - y_j and sqrt(dx*dx + dy*dy).
    ``nearest`` is each robot's exact distance to its nearest other robot,
    within reach or not, and ``partner`` that robot, the lowest index on
    ties; with M < 2 they are inf and -1.
    """

    i: np.ndarray
    j: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    d: np.ndarray
    nearest: np.ndarray
    partner: np.ndarray

    def closest_pair(self):
        """(a, b, d): the lowest-index robot at the minimum pair distance,
        its partner and that distance; needs at least two robots."""
        a = int(np.argmin(self.nearest))
        return a, int(self.partner[a]), float(self.nearest[a])


def neighbours(positions, reach):
    """The Neighbours of the robots at ``positions`` (M, 2) for ``reach`` > 0.

    Candidates come from a uniform cell list with cells of side about
    ``reach``: one sort of the cell keys, then for each robot a binary
    search for the three runs of keys that cover its 3 x 3 block of cells.
    Robots with no other robot within reach get their nearest distance from
    a dense pass over those rows alone.
    """
    pts = np.asarray(positions, dtype=float).reshape(-1, 2)
    m = len(pts)
    if not np.abs(pts).max(initial=0.0) < _CELL_RANGE * reach:
        raise ValueError(
            f"neighbour search needs finite positions within {_CELL_RANGE:g} reaches of the origin"
        )
    nearest = np.full(m, np.inf)
    if m < 2:
        none, empty = np.zeros(0, dtype=np.int64), np.zeros(0)
        return Neighbours(none, none, empty, empty, empty, nearest, np.full(m, -1))
    cx, cy = np.floor(pts / (reach * _CELL_PAD)).astype(np.int64).T
    # column-major keys with two unused rows between the occupied rows of
    # one column and the next, so that the cells above and below a cell
    # are the keys next to it
    width = int(cy.max() - cy.min()) + 3
    key = cx * width + cy
    order = np.argsort(key, kind="stable")
    # each run is [key - 1, key + 1] in the column left of, at and right of
    # the robot's; the keys are integers, so one search finds both ends
    ends = np.searchsorted(key.take(order), key[:, None] + np.array(
        [-width - 1, 2 - width, -1, 2, width - 1, width + 2]))
    lo, hi = ends.reshape(-1, 2).T
    count = hi - lo
    # candidate k of run r sits at lo[r] + k in the sorted order
    run = np.repeat(np.arange(3 * m), count)
    j = order.take((lo - np.cumsum(count) + count).take(run) + np.arange(len(run)))
    i = run // 3
    # take, not fancy indexing: several times faster on (P, 2) rows
    delta = pts.take(i, axis=0) - pts.take(j, axis=0)
    dx, dy = delta.T
    d = np.sqrt(dx * dx + dy * dy)
    keep = np.flatnonzero((d < reach) & (i != j))
    i, j, delta, d = i.take(keep), j.take(keep), delta.take(keep, axis=0), d.take(keep)

    np.minimum.at(nearest, i, d)
    hit = d == nearest.take(i)
    partner = np.full(m, m)
    np.minimum.at(partner, i[hit], j[hit])
    alone = np.flatnonzero(partner == m)
    if len(alone):
        delta_alone = pts.take(alone, axis=0)[:, None, :] - pts
        adx, ady = delta_alone[..., 0], delta_alone[..., 1]
        ad = np.sqrt(adx * adx + ady * ady)
        rows = np.arange(len(alone))
        ad[rows, alone] = np.inf
        partner[alone] = q = ad.argmin(axis=1)
        nearest[alone] = ad[rows, q]
    return Neighbours(i, j, delta[:, 0], delta[:, 1], d, nearest, partner)


# the nearest distances are exact for any reach; 1 m only sizes the cells
def min_pairwise_from_positions(pts):
    return float(np.min(neighbours(pts, 1.0).nearest))


def amd_from_positions(pts):
    return float(np.mean(neighbours(pts, 1.0).nearest))


def amd(swarm: SwarmState):
    """Average over active robots of the distance to their nearest active
    neighbor; the swarm's dispersion measure."""
    pts = swarm.active_positions()
    if len(pts) < 2:
        raise ValueError("average minimum distance needs at least two active robots")
    return amd_from_positions(pts)


def min_pairwise_distance(swarm: SwarmState):
    pts = swarm.active_positions()
    if len(pts) < 2:
        raise ValueError("pairwise distance needs at least two active robots")
    return min_pairwise_from_positions(pts)


def min_boundary_distance(swarm: SwarmState, tube: VirtualTube):
    """Smallest lateral boundary distance among active robots."""
    pts = swarm.active_positions()
    if len(pts) == 0:
        raise ValueError("boundary distance needs at least one active robot")
    d, _ = tube.boundary_distance_many(pts)
    return float(np.min(d))


def throughput(log, t):
    """Number of robots that exited at or before time t."""
    if not log.records:
        raise ValueError("empty log")
    t_last = log.records[-1].time
    if t < 0 or t > t_last + 1e-12:
        raise ValueError(f"time {t} outside the log range [0, {t_last}]")
    return sum(1 for exit_t in log.exit_times.values() if exit_t <= t + 1e-12)


def evacuation_time(log):
    """Time at which the last robot exited, or None while robots remain
    active at the end of the log (always on a closed tube)."""
    if not log.records or log.records[-1].active.any() or not log.exit_times:
        return None
    return max(log.exit_times.values())


@dataclass
class Condition23Report:
    ok: bool
    violations: list  # (time, robot_id, |u4|, |u123|)


def audit_condition23(log, tol=COND23_TOL) -> Condition23Report:
    """Re-verify from the logged command components that the regulation term
    never exceeded the safe-navigation term in norm."""
    violations = []
    for rec in log.records:
        u123 = rec.u1 + rec.u2 + rec.u3
        n123 = np.linalg.norm(u123, axis=1)
        n4 = np.linalg.norm(rec.u4, axis=1)
        bad = np.flatnonzero(rec.active & (n4 > n123 + tol))
        for i in bad:
            violations.append((rec.time, int(i), float(n4[i]), float(n123[i])))
    return Condition23Report(ok=not violations, violations=violations)
