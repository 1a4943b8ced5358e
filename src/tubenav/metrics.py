"""Evaluation quantities: dispersion, safety margins, throughput, and the
regulation-term norm audit."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import row_blocks

COND23_TOL = 1e-12
# an active robot commanded slower than this fraction of k1 is stalled
STALL_FRACTION = 1e-3


# The logged metrics of a record besides its time: a field each of the
# log's structured metrics array.
METRIC_DTYPE = np.dtype([
    ("min_pairwise_distance", float),  # m; NaN with < 2 active robots
    ("min_boundary_distance", float),  # m; NaN with no active robots
    ("amd", float),                    # m, average nearest-neighbor distance
    ("exited_count", np.int64),
    ("density_error_l2", float),       # 1/m; NaN with no active robots
    ("condition23_ok", bool),
    ("max_command_norm", float),       # m/s
])


class MetricsRecord:
    """The metrics of record k of a log (see engine.SimulationLog): ``time``
    and each METRIC_DTYPE field, read from the log's arrays as a Python
    scalar."""

    __slots__ = ("_log", "_k")

    def __init__(self, log, k):
        self._log = log
        self._k = k

    def __getattr__(self, name):
        if name == "time":
            return self._log.time[self._k].item()
        if name not in METRIC_DTYPE.names:
            raise AttributeError(f"no metric {name!r}")
        return self._log.metrics[name][self._k].item()


# Cells are this much wider than the reach, so that the rounding of p / cell
# can never put a pair closer than the reach two cells apart.  The margin
# covers the rounding of coordinates up to _CELL_RANGE reaches from the
# origin; farther ones are refused.
_CELL_PAD = 1.0 + 1e-9
_CELL_RANGE = 1e6
# A pair list stays in use while every robot lies within half the skin,
# less this fraction of reach + skin, of its build position: the margin
# covers the rounding of the distances and displacements.
_SKIN_SLACK = 1e-9


@dataclass
class Neighbours:
    """The pair structure of one snapshot of M robots.

    Pairs are ordered, both (i, j) and (j, i) are listed, and hold every
    pair at distance d < reach.  They come in the cell list's order: by
    ascending i, then by the cell of j, column then row, with cells of side
    reach * _CELL_PAD (floor(x_j / cell), floor(y_j / cell)), then by
    ascending j.  u2 sums each robot's pairs in this order, so its value
    depends on it.  ``dx``, ``dy`` and ``d`` are x_i - x_j, y_i - y_j and
    sqrt(dx*dx + dy*dy).  ``nearest`` is each robot's exact distance to its
    nearest other robot, within reach or not, and ``partner`` that robot,
    the lowest index on ties; with M < 2 they are inf and -1.
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
        a = int(self.nearest.argmin())
        return a, int(self.partner[a]), float(self.nearest[a])


def _cell_of(pts, reach):
    """Integer cell coordinates (M, 2) of the points for cells of side
    about ``reach``."""
    return np.floor(pts / (reach * _CELL_PAD)).astype(np.int64)


def _cell_pairs(pts, reach):
    """Every ordered pair (i, j), i != j, of the points at distance d < reach,
    in the cell list's order (see Neighbours), and the points' cells of
    side about ``reach``.

    Candidates come from a uniform cell list: one sort of the cell keys,
    then for each point a binary search for the three runs of keys that
    cover its 3 x 3 block of cells."""
    m = len(pts)
    cells = _cell_of(pts, reach)
    cx, cy = cells.T
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
    return i.take(keep), j.take(keep), cells


class PairList:
    """A Verlet skin list of robot pairs (Verlet 1967) over a cell list.

    A build keeps every pair within reach + skin of each other.  While each
    robot lies within skin / 2 of its build position, a pair left out is
    still at least the reach apart, so the pairs within reach are the kept
    pairs with d < reach.  The list rebuilds when the number of robots
    changes (an exit), when the reach changes, and when some robot has moved
    farther than that; with a skin of 0 it rebuilds on any motion.  The kept
    pairs stay sorted in the cell list's order for the cells of side about
    the reach (see Neighbours), and are sorted again whenever a robot has
    changed cell, so every query equals ``neighbours`` without a list bit
    for bit, pair order included.  ``builds`` counts the builds.
    """

    def __init__(self, skin):
        if not skin >= 0.0:
            raise ValueError(f"skin must be >= 0, got {skin!r}")
        self.skin = float(skin)
        self.builds = 0
        self._built = None

    def _build(self, pts, reach):
        self.i, self.j, cells = _cell_pairs(pts, reach + self.skin)
        # the build's cells are those of the query only with no skin
        self._cells = cells if self.skin == 0.0 else None
        self._built = pts.copy()
        self._reach = reach
        self.builds += 1

    def _valid(self, pts, reach):
        built = self._built
        if built is None or len(built) != len(pts) or reach != self._reach:
            return False
        limit = max(0.5 * self.skin - _SKIN_SLACK * (reach + self.skin), 0.0)
        dx, dy = (pts - built).T
        return np.maximum.reduce(dx * dx + dy * dy) <= limit * limit

    def _sort(self, pts, reach):
        """Keep the pairs in the cell list's order for the current cells."""
        cells = _cell_of(pts, reach)
        if self._cells is None or not np.array_equal(cells, self._cells):
            m = len(pts)
            rank = np.empty(m, dtype=np.int64)
            rank[np.lexsort(cells.T[::-1])] = np.arange(m)
            order = np.argsort(self.i * m + rank.take(self.j))
            self.i, self.j = self.i.take(order), self.j.take(order)
            self._cells = cells

    def neighbours(self, positions, reach):
        """The Neighbours of the robots at ``positions`` (M, 2); see
        ``neighbours``."""
        pts = np.asarray(positions, dtype=float).reshape(-1, 2)
        m = len(pts)
        # checked on every query, not only at a build
        if not np.abs(pts).max(initial=0.0) < _CELL_RANGE * reach:
            raise ValueError(
                f"neighbour search needs finite positions within {_CELL_RANGE:g} reaches of the origin"
            )
        nearest = np.full(m, np.inf)
        if m < 2:
            none, empty = np.zeros(0, dtype=np.int64), np.zeros(0)
            return Neighbours(none, none, empty, empty, empty, nearest, np.full(m, -1))
        if not self._valid(pts, reach):
            self._build(pts, reach)
        partner = np.full(m, m)
        if len(self.i):
            self._sort(pts, reach)
            i, j = self.i, self.j
            delta = pts.take(i, axis=0) - pts.take(j, axis=0)
            dx, dy = delta.T
            d = np.sqrt(dx * dx + dy * dy)
            keep = (d < reach).nonzero()[0]
            i, j, delta, d = i.take(keep), j.take(keep), delta.take(keep, axis=0), d.take(keep)
            np.minimum.at(nearest, i, d)
            hit = d == nearest.take(i)
            np.minimum.at(partner, i[hit], j[hit])
            alone = (partner == m).nonzero()[0]
        else:
            # no pair within reach + skin: every robot is alone
            i = j = self.i
            delta, d = np.zeros((0, 2)), np.zeros(0)
            alone = np.arange(m)
        if len(alone):
            _nearest_of_alone(pts, alone, nearest, partner)
        return Neighbours(i, j, delta[:, 0], delta[:, 1], d, nearest, partner)


def _nearest_of_alone(pts, alone, nearest, partner):
    """Write the nearest distance and partner of the robots ``alone``, who
    have no other robot within reach, from a dense pass over their rows:
    a row block at a time, so that its (rows, M) arrays stay within one
    block however many robots are alone."""
    m = len(pts)
    # live per row: the two offsets, the two squares and their sum
    for block in row_blocks(len(alone), 5 * m)[1]:
        rows = alone[block]
        delta = pts.take(rows, axis=0)[:, None, :] - pts
        dx, dy = delta[..., 0], delta[..., 1]
        d = np.sqrt(dx * dx + dy * dy)
        k = np.arange(len(rows))
        d[k, rows] = np.inf
        partner[rows] = q = d.argmin(axis=1)
        nearest[rows] = d[k, q]


def neighbours(positions, reach, pairs=None):
    """The Neighbours of the robots at ``positions`` (M, 2) for ``reach`` > 0.

    ``pairs`` is a PairList kept across calls; without one, the call is its
    use-once case with no skin.  Candidates come from a cell list of cells
    of side about ``reach`` (Allen & Tildesley), or about reach + skin for a
    list.  Robots with no other robot within reach get their nearest
    distance from a dense pass over those rows alone.  Positions must be
    finite and within 1e6 reaches of the origin, or ValueError is raised.
    """
    return (PairList(0.0) if pairs is None else pairs).neighbours(positions, reach)


# the nearest distances are exact for any reach; 1 m only sizes the cells
def min_pairwise_from_positions(pts):
    return float(np.min(neighbours(pts, 1.0).nearest))


def amd_from_positions(pts):
    return float(np.mean(neighbours(pts, 1.0).nearest))


def throughput(log, t):
    """Number of robots that exited at or before time t."""
    if not len(log.time):
        raise ValueError("empty log")
    t_last = log.time[-1].item()
    if t < 0 or t > t_last + 1e-12:
        raise ValueError(f"time {t} outside the log range [0, {t_last}]")
    return sum(1 for exit_t in log.exit_times.values() if exit_t <= t + 1e-12)


def evacuation_time(log):
    """Time at which the last robot exited, or None while robots remain
    active at the end of the log (always on a closed tube)."""
    if not len(log.time) or log.active[-1].any() or not log.exit_times:
        return None
    return max(log.exit_times.values())


def _record_blocks(log, live):
    """Slices over the log's records in the row blocks of a pass that holds
    ``live`` floats per robot of a record: the pass's temporaries stay
    within one block, not a few times a column of the log."""
    return row_blocks(len(log.time), live * max(log.positions.shape[1], 1))[1]


def stalled_counts(log, k1):
    """Per record, the number of active robots commanded slower than
    STALL_FRACTION * k1, with k1 the approach speed.  A fault record carries
    no commands, so it counts none."""
    slow = STALL_FRACTION * k1
    counts = np.zeros(len(log.time), dtype=np.int64)
    for rows in _record_blocks(log, 3):
        v = log.velocities[rows]
        slow_active = log.active[rows] & (np.hypot(v[..., 0], v[..., 1]) < slow)
        counts[rows] = np.count_nonzero(slow_active, axis=1)
    if log.termination == "fault":
        counts[-1] = 0
    return counts


@dataclass
class Condition23Report:
    ok: bool
    violations: list  # (time, robot_id, |u4|, |u123|)


def audit_condition23(log, tol=COND23_TOL) -> Condition23Report:
    """Re-verify from the logged command components that the regulation term
    never exceeded the safe-navigation term in norm."""
    violations = []
    for rows in _record_blocks(log, 8):
        n123 = np.linalg.norm(log.u1[rows] + log.u2[rows] + log.u3[rows], axis=2)
        n4 = np.linalg.norm(log.u4[rows], axis=2)
        ks, ids = np.nonzero(log.active[rows] & (n4 > n123 + tol))
        violations += [
            (log.time[rows.start + k].item(), int(i), n4[k, i].item(), n123[k, i].item())
            for k, i in zip(ks, ids)
        ]
    return Condition23Report(ok=not violations, violations=violations)
