"""Swarm density estimation and the capacity-proportional target density.

The swarm's spatial density is estimated with a Gaussian kernel over the
active robots' positions.  The target density is supported on the occupied
region (the tube slice between the rearmost and foremost robots), is
constant on each cross-section and proportional to the local flow capacity,
and integrates to one.  Its hard edges at the region boundary are mollified
with cosine ramps so the gradient consumed by the controller exists
everywhere.

All area integrals here use the along-curve convention of the tube area:
the area element is dl dr with no curvature correction.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .blocks import row_blocks
from .errors import TubeDomainError
from .geometry import VirtualTube, _check_finite

_TWO_PI = 2.0 * math.pi
_GL20_NODES, _GL20_WEIGHTS = np.polynomial.legendre.leggauss(20)
# Reach of the error grid's kernel sums, in bandwidths: sqrt(106 ln 2),
# about 8.572, so that exp(-_CULL_RADIUS^2 / 2) = 2^-53.
_CULL_RADIUS = math.sqrt(106.0 * math.log(2.0))


# ---------------------------------------------------------------------------
# kernel density estimate
# ---------------------------------------------------------------------------

@dataclass
class DensityView:
    """Immutable per-step snapshot of the swarm density estimate.

    The estimates are raw kernel sums; the controller applies its
    positivity floor where the estimate appears in a denominator.
    """

    positions: np.ndarray  # (N, 2) active robot positions
    bandwidth: float

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        if self.positions.ndim != 2 or self.positions.shape[1] != 2:
            raise ValueError("positions must be (N, 2)")
        if len(self.positions) == 0:
            raise ValueError("density is undefined with zero active robots")
        if not (self.bandwidth > 0 and math.isfinite(self.bandwidth)):
            raise ValueError(f"bandwidth must be positive and finite, got {self.bandwidth!r}")
        # the estimate divides by n h^2 and its gradient by n h^3
        h, n = float(self.bandwidth), len(self.positions)
        try:
            cube = n * h ** 3
        except OverflowError:
            cube = math.inf
        if not all(sys.float_info.min <= v < math.inf for v in (n * h * h, cube)):
            raise ValueError(
                f"bandwidth {self.bandwidth!r} with {n} robots puts n h^2 = {n * h * h!r} or "
                f"n h^3 = {cube!r} outside the positive finite normal floats"
            )
        _check_finite(self.positions)
        self.n = n

    def _kernel_rows(self, pts):
        """(rows, dx, dy, k) for blocks of query rows: the scaled offsets
        (p - x_j) / h and the kernel exp(-(dx^2 + dy^2) / 2) / (2 pi), each
        (rows, N).  One buffer, reused by every block, holds a block's four
        arrays (dy^2 the fourth); callers may overwrite dx and dy.

        p - x_j, for both coordinates at once, is the matrix product
        [p, 1] @ [1; -x_j] with inner dimension two: both of its products
        are by exactly 1.0, so the sum p + (-x_j) is rounded once and
        equals the broadcast difference bit for bit (see blocks.py).  Its
        operands are built once per call."""
        h = self.bandwidth
        n = self.n
        size, blocks = row_blocks(len(pts), 4 * n)
        # [p, 1] per query row and [1; -x_j] per robot, x then y: (2, M, 2)
        # and (2, 2, N), views of one buffer of ones (empty + fill: np.ones
        # costs about 2 us a call at 10-25 robots)
        n_q = len(pts)
        ops = np.empty(4 * (n_q + n))
        ops.fill(1.0)
        left = ops[:4 * n_q].reshape(2, n_q, 2)
        right = ops[4 * n_q:].reshape(2, 2, n)
        left[:, :, 0] = pts.T
        np.negative(self.positions.T, out=right[:, 1])
        buf = np.empty((4, size, n))
        for rows in blocks:
            m = rows.stop - rows.start
            dx, dy, k, dy2 = buf[:, :m]
            np.matmul(left[:, rows], right, out=buf[:2, :m])
            dx /= h
            dy /= h
            np.multiply(dx, dx, out=k)
            k += np.multiply(dy, dy, out=dy2)
            k *= -0.5
            np.exp(k, out=k)
            k /= _TWO_PI
            yield rows, dx, dy, k

    def estimate_sections(self, origins, tangents, normals, offsets):
        """Kernel density at origins[c] + offsets[c, k] * normals[c], shape
        (n_l, n_r), for columns with orthonormal frames (tangents, normals).

        With (dx, dy) = (origin - x_j) / h, tau = (dx, dy) . t and
        s = (dx, dy) . n, the scaled squared distance is tau^2 + (s + r / h)^2
        exactly, so the kernel factors into exp(-tau^2 / 2), one (n_l, N)
        array, times a per-offset factor that depends on s alone.  The
        distance along the tube never enters the large (n_l, n_r, N) array.
        Both are built a block of whole columns at a time, in buffers that
        every block reuses.

        The two outer sums, origin - x_j and s + r / h, are matrix products
        with inner dimension two, [origin, 1] @ [1; -x_j] and, batched over
        the block's columns, [r / h, 1] @ [1; s], with s written straight
        into the second row of the right operand.  Both products of each sum
        are by exactly 1.0, so the sum is rounded once and equals the
        broadcast sum bit for bit (see blocks.py).

        A block sums only the robots inside the bounding box of its cells
        grown by _CULL_RADIUS * h.  Each column's cells lie between the cells
        at its smallest and largest offset, so those two bound the cells of
        a block, in any order of the offsets.  Any other robot is farther
        than _CULL_RADIUS * h from every cell of the block, so the robots it
        drops add less than 2^-53 / (2 pi h^2) to a cell: the unit roundoff
        times 1 / (2 pi h^2), the largest value the estimate can take.  So
        the values depend on the block size only below that bound.  A block
        that keeps every robot sums them in order, with the arithmetic of a
        dense pass."""
        h = self.bandwidth
        n_l, n_r = offsets.shape
        if offsets.size == 0:
            return np.zeros((n_l, n_r))
        size, blocks = row_blocks(n_l, (n_r + 5) * self.n)
        # per column, built once along the columns: the cells at the smallest
        # and largest offsets, and the frame's components tx, ty, nx, ny
        # as (4, n_l, 1) columns that a block slices
        low_cell = origins + np.minimum.reduce(offsets, axis=1)[:, None] * normals
        high_cell = origins + np.maximum.reduce(offsets, axis=1)[:, None] * normals
        frame = np.empty((4, n_l, 1))
        frame[:2, :, 0] = tangents.T
        frame[2:, :, 0] = normals.T
        starts = [cols.start for cols in blocks]
        lo = np.minimum.reduceat(np.minimum(low_cell, high_cell), starts) - _CULL_RADIUS * h
        hi = np.maximum.reduceat(np.maximum(low_cell, high_cell), starts) + _CULL_RADIUS * h
        # [origin, 1] per column, x then y, (2, n_l, 2); [r / h, 1] per cell,
        # (n_l, n_r, 2)
        columns = np.ones((2, n_l, 2))
        columns[:, :, 0] = origins.T
        cells = np.ones((n_l, n_r, 2))
        np.divide(offsets, h, out=cells[:, :, 0])
        px, py = self.positions.T
        sums = np.empty((n_l, n_r, 1))
        buf = np.empty(size * n_r * self.n)
        col_buf = np.empty(5 * size * self.n)
        robots = np.ones((2, 2, self.n))
        for cols, (lo_x, lo_y), (hi_x, hi_y) in zip(blocks, lo, hi):
            near = (px >= lo_x) & (px <= hi_x) & (py >= lo_y) & (py <= hi_y)
            k = int(np.count_nonzero(near))
            m = cols.stop - cols.start
            if k == 0:
                sums[cols] = 0.0
                continue
            # [1; -x_j] for the kept robots, x then y, (2, 2, k)
            neg = robots[:, :, :k]
            np.negative(px[near], out=neg[0, 1])
            np.negative(py[near], out=neg[1, 1])
            z = buf[: m * n_r * k].reshape(m, n_r, k)
            dxy = col_buf[: 2 * m * k].reshape(2, m, k)
            tau = col_buf[2 * m * k: 3 * m * k].reshape(m, k)
            # [1; s] per column, (m, 2, k); its first row is scratch until
            # the ones go in
            ones_s = col_buf[3 * m * k: 5 * m * k].reshape(m, 2, k)
            tmp, s = ones_s[:, 0], ones_s[:, 1]
            np.matmul(columns[:, cols], neg, out=dxy)
            dxy /= h
            dx, dy = dxy
            tx, ty, nx, ny = frame[:, cols]
            np.multiply(dx, tx, out=tau)
            tau += np.multiply(dy, ty, out=tmp)
            np.multiply(dx, nx, out=s)
            s += np.multiply(dy, ny, out=tmp)
            tmp.fill(1.0)
            np.matmul(cells[cols], ones_s, out=z)
            np.square(z, out=z)
            z *= -0.5
            np.exp(z, out=z)
            along = np.multiply(tau, -0.5, out=dx)
            along *= tau
            np.exp(along, out=along)
            np.matmul(z, along[:, :, None], out=sums[cols])
        return sums[..., 0] / (_TWO_PI * self.n * h * h)

    def estimate_and_gradient_many(self, pts):
        """Density and gradient at each query point in one kernel pass."""
        pts = np.asarray(pts, dtype=float)
        if pts.ndim < 2:
            pts = pts.reshape(1, -1)
        h = self.bandwidth
        scale = -1.0 / (self.n * h ** 3)
        rho = np.empty(len(pts))
        grad = np.empty((len(pts), 2))
        # row sums as ndarray.sum takes them: one add.reduce along the row
        for rows, dx, dy, k in self._kernel_rows(pts):
            rho[rows] = np.add.reduce(k, axis=1) / (self.n * h * h)
            grad[rows, 0] = np.add.reduce(np.multiply(k, dx, out=dx), axis=1) * scale
            grad[rows, 1] = np.add.reduce(np.multiply(k, dy, out=dy), axis=1) * scale
        return rho, grad


def silverman_bandwidth(positions, r_s):
    """Rule-of-thumb bandwidth from the mean marginal spread, clamped to
    [r_s/2, 4 r_s] so it stays commensurate with robot size."""
    positions = np.asarray(positions, dtype=float)
    n = len(positions)
    if n == 0:
        raise ValueError("no samples")
    spread = float(np.mean(np.std(positions, axis=0))) if n > 1 else 0.0
    h = spread * n ** (-1.0 / 6.0)
    return float(min(max(h, 0.5 * r_s), 4.0 * r_s))


# ---------------------------------------------------------------------------
# occupied region
# ---------------------------------------------------------------------------

@dataclass
class OccupiedRegion:
    """Arc-length interval [l_b, l_f] spanned by the swarm.

    For closed tubes the interval is the minimal covering arc; l_f may
    exceed the tube length, meaning the interval wraps the seam.
    """

    l_b: float
    l_f: float

    @property
    def span(self):
        return self.l_f - self.l_b


def occupied_region_from_arclengths(ls, tube: VirtualTube, min_halfwidth=0.0):
    """Occupied region from the active robots' arc-length coordinates.

    Degenerate regions (all robots on one cross-section) are widened to
    2 * min_halfwidth so the normalization integral stays positive.
    """
    ls = np.asarray(ls, dtype=float)
    if len(ls) == 0:
        raise ValueError("occupied region undefined with no active robots")
    L = tube.length
    if tube.closed:
        ls = ls % L
        ls.sort()
        if len(ls) == 1:
            l_b, l_f = float(ls[0]), float(ls[0])
        else:
            # the gaps between neighbours around the ring, the seam's last
            gaps = np.empty(len(ls))
            np.subtract(ls[1:], ls[:-1], out=gaps[:-1])
            gaps[-1] = (ls[0] + L) - ls[-1]
            k = int(gaps.argmax())
            biggest = float(gaps[k])
            l_b = float(ls[(k + 1) % len(ls)])
            l_f = l_b + (L - biggest)
    else:
        l_b, l_f = float(ls.min()), float(ls.max())
    if l_f - l_b < 2.0 * min_halfwidth:
        mid = 0.5 * (l_b + l_f)
        l_b = mid - min_halfwidth
        l_f = mid + min_halfwidth
        if not tube.closed:
            l_b = max(l_b, 0.0)
            l_f = min(l_f, L)
        if tube.closed and l_f - l_b > L:
            l_b, l_f = 0.0, L
    if l_f <= l_b:
        raise ValueError("degenerate occupied region; provide a positive expansion halfwidth")
    return OccupiedRegion(l_b=l_b, l_f=l_f)


# ---------------------------------------------------------------------------
# desired density
# ---------------------------------------------------------------------------

def _cos_ramp(s):
    """Smooth 0 -> 1 ramp with zero slope at both ends."""
    return 0.5 * (1.0 - np.cos(math.pi * s.clip(0.0, 1.0)))


def _cos_ramp_slope(s):
    """Derivative of _cos_ramp; exactly zero outside the open ramp (0, 1)."""
    return np.where((s > 0.0) & (s < 1.0), 0.5 * math.pi * np.sin(math.pi * s), 0.0)


def _unwrap(tube, ls, l_b):
    """Query arc lengths shifted into [l_b, l_b + L) on closed tubes."""
    ls = np.asarray(ls, dtype=float)
    return l_b + np.mod(ls - l_b, tube.length) if tube.closed else ls


def _wrap(tube, ls):
    """Unwrapped arc lengths back onto the spine, [0, L) on closed tubes."""
    return np.mod(ls, tube.length) if tube.closed else ls


def _mask(ls, l_b, l_f, delta, full_ring, slope=False):
    """The mask at unwrapped arc lengths ls and, with ``slope``, its
    derivative d/dl too: cosine ramps of width delta inside the region
    [l_b, l_f], zero outside it, and one on a full ring.

    The region's l_b, l_f, delta and full_ring are scalars for one target,
    or columns with one row per target for a batch whose arc lengths have
    a row per target; either way they broadcast against ls, so every
    target shares this one arithmetic."""
    s = np.array([ls - l_b, l_f - ls]) / delta
    inside = (ls >= l_b) & (ls <= l_f)
    ramp = _cos_ramp(s)
    mask = np.where(full_ring, 1.0, np.where(inside, ramp[0] * ramp[1], 0.0))
    if not slope:
        return mask
    ramp_slope = _cos_ramp_slope(s) / delta
    return mask, np.where(
        full_ring, 0.0, np.where(inside, ramp_slope[0] * ramp[1] - ramp[0] * ramp_slope[1], 0.0)
    )


def _profile(tube, ls, l_b, l_f, delta, lam_moll, full_ring):
    """Target density lam_moll r_c(l) mask(l) at arc lengths ls, the
    targets' parameters broadcasting against ls as in _mask."""
    ls_u = _unwrap(tube, ls, l_b)
    return lam_moll * tube.widths.r_c(_wrap(tube, ls_u)) * _mask(ls_u, l_b, l_f, delta, full_ring)


def _gauss_sum(mask, r_c, half):
    """The 20-node Gauss-Legendre sum of mask * 2 r_c^2, both (pieces, 20),
    over pieces of the given half lengths."""
    return float((mask * 2.0 * r_c ** 2) @ _GL20_WEIGHTS @ half)


def _stretch(ls, rs, curvatures):
    """1 - kappa r at the points with tube coordinates (ls, rs) and signed
    curvatures kappa: the factor by which grad l = t / (1 - kappa r) grows.
    Raises where it is <= 0: the point is at or past the centre of
    curvature, where l is not a function of position."""
    stretch = 1.0 - curvatures * rs
    if (stretch <= 0.0).any():
        k = int((stretch <= 0.0).argmax())
        raise TubeDomainError(
            f"offset r={rs[k]} at arc length l={ls[k]} is at or past the centre of "
            f"curvature (1 - kappa r = {stretch[k]:.3e})"
        )
    return stretch


class DesiredDensity:
    """Capacity-proportional target density on the occupied region.

    The raw profile r_c(l) is discontinuous at the region edges; it is
    multiplied by cosine ramps of width delta_l inside each edge and scaled
    by lam_moll so the mollified field integrates to one.  A closed tube
    whose occupied region covers the whole ring needs no ramps.

    ``at``, the (ls, rs, tangents, curvatures) of points as a projection
    returns them, asks for the target gradient there as well: ``gradient``,
    (M, 2), equal to ``gradient_many`` at those points bit for bit.  The
    build then evaluates the mask, its slope and r_c at the normalization's
    quadrature nodes and at those arc lengths in one pass; without ``at``
    ``gradient`` is None.
    """

    def __init__(self, tube: VirtualTube, region: OccupiedRegion, delta_l, at=None):
        if delta_l <= 0:
            raise ValueError("mollification width must be positive")
        self.tube = tube
        self.region = region
        self.full_ring = tube.closed and region.span >= tube.length - 1e-12
        self.delta = min(float(delta_l), 0.5 * region.span)
        self.gradient = None
        if at is None:
            self.lam_moll = 1.0 / self._mass()
            return
        ls, rs, tangents, curvatures = at
        stretch = _stretch(ls, rs, curvatures)
        xs, half = self._nodes()
        n = xs.size
        ls_u = np.concatenate([xs.ravel(), _unwrap(tube, ls, region.l_b)])
        (mask, mask_slope), r_c, ls_w = self._mask_and_width(ls_u, slope=True)
        self.lam_moll = 1.0 / _gauss_sum(mask[:n].reshape(xs.shape), r_c[:n].reshape(xs.shape),
                                         half)
        slope = self._slope(ls_w[n:], mask[n:], mask_slope[n:], r_c[n:]) / stretch
        self.gradient = slope[:, None] * tangents

    def _profile_args(self):
        """(l_b, l_f, delta, lam_moll, full_ring): what _profile reads."""
        return self.region.l_b, self.region.l_f, self.delta, self.lam_moll, self.full_ring

    def _mask_and_width(self, ls_u, slope=False):
        """The mask (with ``slope``, the pair of mask and slope) and r_c at
        the unwrapped arc lengths ls_u, and those arc lengths wrapped."""
        ls_w = _wrap(self.tube, ls_u)
        mask = _mask(ls_u, self.region.l_b, self.region.l_f, self.delta, self.full_ring,
                     slope=slope)
        return mask, self.tube.widths.r_c(ls_w), ls_w

    def _nodes(self):
        """The nodes (pieces, 20) of the Gauss-Legendre pass that integrates
        mask(l) * 2 r_c(l)^2 over the region, and each piece's half length.

        The region is cut at the ramp ends and at every image of the width
        knots and, on closed tubes, of the seam, so each piece is smooth:
        a quadratic where the mask is 1, which the 20-node rule integrates
        exactly, and a cosine ramp times a quadratic in the ramp bands."""
        l_b, l_f, d = self.region.l_b, self.region.l_f, self.delta
        breaks = self.tube.widths.knot_ls
        if self.tube.closed:
            L = self.tube.length
            periods = np.arange(math.floor(l_b / L), math.ceil(l_f / L) + 1)
            breaks = (np.append(breaks, 0.0) + L * periods[:, None]).ravel()
        inner = breaks[(breaks > l_b) & (breaks < l_f)]
        # the sorted distinct cuts, as np.unique gives them
        cuts = np.concatenate([[l_b, l_b + d, max(l_f - d, l_b + d), l_f], inner])
        cuts.sort()
        first = np.empty(len(cuts), dtype=bool)
        first[0] = True
        np.not_equal(cuts[1:], cuts[:-1], out=first[1:])
        cuts = cuts[first]
        mid = 0.5 * (cuts[:-1] + cuts[1:])
        half = 0.5 * (cuts[1:] - cuts[:-1])
        return mid[:, None] + half[:, None] * _GL20_NODES, half

    def _mass(self):
        """Integral of mask(l) * 2 r_c(l)^2 over the region, in one
        Gauss-Legendre pass over the nodes of _nodes."""
        xs, half = self._nodes()
        mask, r_c, _ = self._mask_and_width(xs)
        return _gauss_sum(mask, r_c, half)

    def _slope(self, ls_w, mask, mask_slope, r_c):
        """d rho_d / dl at the wrapped arc lengths ls_w, from the mask, its
        slope and r_c there: the piecewise-linear capacity's slope times the
        mask plus the capacity times the cosine ramps' slope."""
        return self.lam_moll * (self.tube.widths.r_c_slope(ls_w) * mask + r_c * mask_slope)

    # -- profile ------------------------------------------------------------

    def profile_many(self, ls):
        """Target density as a function of arc length alone, shape (M,)."""
        return _profile(self.tube, ls, *self._profile_args())

    def profile_slope_many(self, ls):
        """d rho_d / dl, shape (M,); see _slope."""
        ls_u = _unwrap(self.tube, ls, self.region.l_b)
        (mask, mask_slope), r_c, ls_w = self._mask_and_width(ls_u, slope=True)
        return self._slope(ls_w, mask, mask_slope, r_c)

    # -- gradient -------------------------------------------------------------

    def gradient_many(self, ls, rs, tangents, curvatures):
        """Cartesian gradient at the points with tube coordinates (ls, rs),
        shape (M, 2), from the spine's unit tangents (M, 2) and signed
        curvatures (M,) at ls, the fields a projection returns with them.

        The target depends on l alone, and p = gamma(l) + r n(l) gives
        grad l = t / (1 - kappa r) with kappa = c . n the signed curvature,
        so the gradient is rho_d'(l) t / (1 - kappa r).  Raises where
        1 - kappa r <= 0: the point is at or past the centre of curvature,
        where l is not a function of position."""
        ls = np.asarray(ls, dtype=float)
        rs = np.asarray(rs, dtype=float)
        stretch = _stretch(ls, rs, np.asarray(curvatures, dtype=float))
        slope = self.profile_slope_many(ls) / stretch
        return slope[:, None] * np.asarray(tangents, dtype=float).reshape(-1, 2)


# ---------------------------------------------------------------------------
# error norm
# ---------------------------------------------------------------------------

def _region_grids(tube: VirtualTube, regions, resolution):
    """Column arc lengths (R, n_l), cell lengths (R,), radial cell heights
    (R n_l,), the columns' spine frames (origins, tangents, normals),
    (R n_l, 2) each, and the cell-centre offsets along each normal,
    (R n_l, n_r), of R occupied regions, one array pass for all of them:
    region i's columns are rows i n_l to (i + 1) n_l."""
    n_l, n_r = resolution
    if n_l < 1 or n_r < 1:
        raise ValueError("grid resolution must be positive")
    l_b = np.array([region.l_b for region in regions])
    dl = np.array([region.span for region in regions]) / n_l
    ls = l_b[:, None] + (np.arange(n_l) + 0.5) * dl[:, None]
    ls_eval = _wrap(tube, ls).ravel()
    r_d = tube.widths.r_d(ls_eval)
    r_u = tube.widths.r_u(ls_eval)
    dr = (r_d + r_u) / n_r
    offsets = -r_d[:, None] + (np.arange(n_r)[None, :] + 0.5) * dr[:, None]
    return ls, dl, dr, tube.curve.frames(ls_eval), offsets


def density_errors_l2(views, targets, tube: VirtualTube, regions, resolution):
    """L2 norm of (estimate - target) over each of R records' occupied
    regions, (R,), from each record's view, target and region: midpoint
    quadrature on a curvilinear grid of (n_l, n_r) cells per region.

    The columns of all R grids, their frames and the targets' profiles are
    built in one array pass.  The kernel sums run per record, on that
    record's slice of the columns, with the cull and blocks of
    DensityView.estimate_sections; every value equals that of a batch of
    one bit for bit."""
    n_l, n_r = resolution
    ls, dl, dr, frames, offsets = _region_grids(tube, regions, resolution)
    sq = np.empty((len(ls), n_l, n_r))
    for i, view in enumerate(views):
        cols = slice(i * n_l, (i + 1) * n_l)
        sq[i] = view.estimate_sections(*(f[cols] for f in frames), offsets[cols])
    args = (np.array(a)[:, None] for a in zip(*(dd._profile_args() for dd in targets)))
    sq -= _profile(tube, ls, *args)[..., None]
    np.square(sq, out=sq)
    sq *= (dr.reshape(ls.shape) * dl[:, None])[..., None]
    return np.sqrt(sq.sum(axis=(-2, -1)))


def density_error_l2_from_view(view: DensityView, dd: DesiredDensity,
                               tube: VirtualTube, region: OccupiedRegion, resolution):
    """L2 norm of (estimate - target) over the occupied region: the
    one-record case of density_errors_l2."""
    return float(density_errors_l2([view], [dd], tube, [region], resolution)[0])
