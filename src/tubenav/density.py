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
_LOG_TWO_PI = math.log(_TWO_PI)
# The largest error bound of the KDE that DensityView serves (see there).
_KDE_LIMIT = 1e-6
_GL20_NODES, _GL20_WEIGHTS = np.polynomial.legendre.leggauss(20)
# Reach of the error grid's kernel sums, in bandwidths: sqrt(106 ln 2),
# about 8.572, so that exp(-_CULL_RADIUS^2 / 2) = 2^-53.
_CULL_RADIUS = math.sqrt(106.0 * math.log(2.0))
# The error grid's clamp of u and tau and its largest factor's exponent.
_CLAMP, _FACTOR_LIMIT = 2.0 * _CULL_RADIUS, 500.0


# ---------------------------------------------------------------------------
# kernel density estimate
# ---------------------------------------------------------------------------

@dataclass
class DensityView:
    """Immutable per-step snapshot of the swarm density estimate.

    The estimates are raw kernel sums; the controller applies its
    positivity floor where the estimate appears in a denominator.

    estimate_and_gradient_many centres queries p and robots x on the first
    robot c and scales them by 1/h: P = (p - c) / h, X = (x - c) / h.  One
    product with inner dimension four, [P, -|P|^2 / 2, 1] @ [X; 1; -|X|^2 / 2
    - ln 2 pi], gives every exponent -|P - X|^2 / 2 - ln 2 pi; one exp the
    kernel values k; one product with [X, 1] the sums of k X and of k.  Then
    rho = sum k / (n h^2) and grad rho = (sum k X - P sum k) / (n h^3).

    The exponent is a sum of terms as large as R^2, R the largest distance
    of a query or robot from c in bandwidths, so it loses what centring on
    each pair would keep.  With u = 2^-53, to first order in u, and beta =
    u (40 R^2 + 51 + (2 n + 5) max(R, 1)): rho is within beta rho +
    2^-1074 / h^2 of its exact value, and grad rho within beta (g + rho /
    h) + 2 R 2^-1074 / h^3, g = sum k |x - p| / (n h^4) the sum of the
    gradient's terms' magnitudes (the 2^-1074 terms from kernel values that
    underflow; derived in tests/broadcast_kernels.py, kde_bound).  A call
    takes R = sqrt(2) max |q - c|_inf / h over its queries and robots q, an
    upper bound, and raises ValueError where beta then exceeds 1e-6: where
    some q lies about 1.06e4 bandwidths or more from c in a coordinate.
    The limit is fixed, not a setting.
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

    def estimate_and_gradient_many(self, pts):
        """Density (M,) and gradient (M, 2) at each query point (M, 2), a
        block of query rows at a time (see the class docstring)."""
        pts = np.asarray(pts, dtype=float)
        if pts.ndim < 2:
            pts = pts.reshape(1, -1)
        h, n, m = self.bandwidth, self.n, len(pts)
        # columns [P, -|P|^2 / 2, 1] for the queries, then [X, 1, -|X|^2 / 2
        # - ln 2 pi] for the robots, as the planes of one (4, M + N) buffer
        ops = np.empty((4, m + n))
        c = self.positions[0, :, None]
        np.subtract(pts.T, c, out=ops[:2, :m])
        np.subtract(self.positions.T, c, out=ops[:2, m:])
        reach = float(np.abs(ops[:2]).max())
        r = math.sqrt(2.0) * reach / h
        beta = 2.0 ** -53 * (40.0 * r * r + 51.0 + (2 * n + 5) * max(r, 1.0))
        if not beta <= _KDE_LIMIT:
            _check_finite(pts)
            raise ValueError(
                f"queries and robots reach {reach!r} m from the first robot in a coordinate, "
                f"up to {r:.3g} bandwidths of {h!r} m away: the KDE's error bound {beta:.3g} "
                f"exceeds its limit {_KDE_LIMIT:g}"
            )
        ops[:2] /= h
        square = np.square(ops[:2])
        np.add(square[0], square[1], out=ops[2])
        ops[2] *= -0.5
        np.subtract(ops[2, m:], _LOG_TWO_PI, out=ops[3, m:])
        ops[2, m:] = 1.0
        ops[3, :m] = 1.0
        queries, robots = ops[:, :m].T, ops[:, m:]
        # per query, sum k X_x, sum k X_y and sum k
        sums = np.empty((m, 3))
        size, blocks = row_blocks(m, 4 * n)
        k = np.empty((size, n))
        for rows in blocks:
            block = k[:rows.stop - rows.start]
            np.matmul(queries[rows], robots, out=block)
            np.exp(block, out=block)
            np.matmul(block, robots[:3].T, out=sums[rows])
        rho = sums[:, 2] / (n * h * h)
        grad = sums[:, :2] - queries[:, :2] * sums[:, 2:]
        grad /= n * h ** 3
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
    """Column arc lengths (R, n_l), cell lengths (R,), the columns' spine
    frames (origins, tangents, normals), (R n_l, 2) each, and the radial
    lattices r_d and dr, (R n_l,) each (see section_estimates), of R
    occupied regions, one array pass for all of them: region i's columns
    are rows i n_l to (i + 1) n_l."""
    n_l, n_r = resolution
    if n_l < 1 or n_r < 1:
        raise ValueError("grid resolution must be positive")
    l_b = np.array([region.l_b for region in regions])
    dl = np.array([region.span for region in regions]) / n_l
    ls = l_b[:, None] + (np.arange(n_l) + 0.5) * dl[:, None]
    ls_eval = _wrap(tube, ls).ravel()
    r_d = tube.widths.r_d(ls_eval)
    dr = (r_d + tube.widths.r_u(ls_eval)) / n_r
    return ls, dl, tube.curve.frames(ls_eval), r_d, dr


def _radial_factors(a, n_r):
    """For cells k = A p + m, m < A, p < B = ceil(n_r / A): the exponent
    rows of F_m and G_p, (A + B, 4), against [Delta u; u^2; tau^2;
    Delta^2], and H's exponents over Delta^2, (B, A)."""
    m, ap = np.arange(a), np.arange(0, n_r, a)
    rows = np.zeros((a + len(ap), 4))
    rows[:a, 0], rows[:a, 2], rows[a:, 0], rows[a:, 1] = -m, -0.5, -ap, -0.5
    rows[a:, 3] = -0.5 * ap * ap
    return rows, -(ap[:, None] * m + 0.5 * m * m)


def _block_sums(frame, robots, lattice, factors, out, buf):
    """Kernel sums of m columns over k robots into ``out`` (m, n_r), from
    the rows for u and tau (2, m, 3), [1; x - c; y - c] (3, k), [Delta;
    Delta^2; lowest u; lowest tau] (4, m) and _radial_factors, in ``buf``."""
    (rows_fg, lift), (m, n_r), k = factors, out.shape, robots.shape[1]
    b, a = lift.shape
    ends = [0, 4 * k * m, (a + b + 4) * k * m, ((a + b + 4) * k + a * b) * m, len(buf)]
    rows, z, sums, h = (buf[lo:hi] for lo, hi in zip(ends, ends[1:]))
    # [Delta u; u^2; tau^2; Delta^2] per column, u and tau clamped
    rows = rows.reshape(4, m, k)
    np.matmul(frame, robots, out=rows[1:3])
    np.maximum(rows[1:3], lattice[2:, :, None], out=rows[1:3])
    np.minimum(rows[1:3], _CLAMP, out=rows[1:3])
    np.multiply(rows[1], lattice[0, :, None], out=rows[0])
    np.square(rows[1:3], out=rows[1:3])
    rows[3] = lattice[1, :, None]
    # F's and G's exponents, their values, and sum_j G_p F_m per column
    z = z.reshape(m, a + b, k)
    np.matmul(rows_fg, rows.transpose(1, 0, 2), out=z)
    np.exp(z, out=z)
    sums = sums.reshape(m, b, a)
    np.matmul(z[:, a:], z[:, :a].transpose(0, 2, 1), out=sums)
    h = np.multiply(lattice[1, :, None], lift.reshape(1, -1), out=h[:m * a * b].reshape(m, a * b))
    np.exp(h, out=h)
    np.multiply(sums.reshape(m, a * b)[:, :n_r], h[:, :n_r], out=out)


def section_estimates(views, origins, tangents, normals, r_d, dr, n_r):
    """Kernel density estimates on R records' grids, (R, n_l, n_r): record
    i's view at origins[c] + (-r_d[c] + (k + 1/2) dr[c]) normals[c], k <
    n_r, for its columns c, rows i n_l to (i + 1) n_l of the frames, (R
    n_l, 2), and of r_d and dr, (R n_l,).

    In bandwidths the cells lie at rho_0 + k Delta, rho_0 = (dr / 2 - r_d)
    / h, Delta = dr / h, and with u = (origin - x_j) . n / h + rho_0 and
    tau = (origin - x_j) . t / h the kernel is exp(-tau^2 / 2 - (u + k
    Delta)^2 / 2) = F_m G_p H_pm for k = A p + m, m < A, p < B = ceil(n_r /
    A): F = exp(-tau^2 / 2 - m Delta u), G = exp(-(u + A p Delta)^2 / 2),
    H = exp(-Delta^2 (A p m + m^2 / 2)).  So a column takes A + B exps per
    robot and a (B, N) @ (N, A) product.  u and tau are clamped to [-(n_r
    - 1) Delta - C, C] and [-C, C], C = _CLAMP, which changes only kernels
    below 2^-212 in every cell; then G, H <= 1 and e^-647 < F <= exp((A -
    1) Delta ((n_r - 1) Delta + C)), a record's largest A <= sqrt(n_r)
    keeping that at most e^_FACTOR_LIMIT.  A block holds a whole record, or
    some of its columns and the robots in the box of their extreme cells
    grown by R h, R = _CULL_RADIUS.  No value depends on its batch.

    With eps = 2^-53, D the L1 size of the box of the record's origins and
    robots and K = (2 D + max |r_d| + 3 n_r max dr) / h + C, an estimate
    lies within rel e + (1 + rel) 2^-53 / (2 pi h^2) of the dense sum e,
    rel = eps (88 K^2 + 2 N + 30), while 44 eps K^2 <= 1 (derived in
    tests/broadcast_kernels.py, section_rel).  No term overflows while K <
    1.3e154, as for distances and widths below 1e50 m (h > 2.8e-103)."""
    r = len(views)
    n_l = len(r_d) // r
    origins, tangents, normals = (f.reshape(r, n_l, 2) for f in (origins, tangents, normals))
    counts = np.array([view.n for view in views])
    h = np.array([view.bandwidth for view in views])[:, None]
    r_d, dr = r_d.reshape(r, n_l), dr.reshape(r, n_l)
    # per record and column [Delta; Delta^2; lowest u; lowest tau], and rho_0
    step, first = dr / h, (0.5 * dr - r_d) / h
    lattice = np.stack([step, step * step, (1 - n_r) * step - _CLAMP,
                        np.full_like(step, -_CLAMP)], axis=1)
    a_max = math.isqrt(n_r)
    splits = [a_max if e * (a_max - 1) <= _FACTOR_LIMIT else 1 + int(_FACTOR_LIMIT // e)
              for e in (lattice[:, 2] * -step).max(axis=1).tolist()]
    factors = {a: _radial_factors(a, n_r) for a in set(splits)}
    plans = [(c, *row_blocks(n_l, c)) for c in ((a + len(factors[a][1]) + 4) * n
             + 2 * factors[a][1].size for a, n in zip(splits, counts.tolist()))]
    out = np.empty((r, n_l, n_r))
    edges = [0, *(np.flatnonzero(counts[1:] != counts[:-1]) + 1).tolist(), r]
    for run in (slice(a, b) for a, b in zip(edges, edges[1:])):
        x = np.stack([view.positions for view in views[run]])
        robots = np.ones((len(x), 3, counts[run.start]))
        np.subtract(x, x[:, :1], out=robots[:, 1:].transpose(0, 2, 1))
        # per column [(o - c) . n / h + rho_0, -n / h] and [(o - c) . t / h, -t / h]
        frame = np.empty((len(x), 2, n_l, 3))
        for axis, row in zip((normals[run], tangents[run]), frame.transpose(1, 0, 2, 3)):
            np.divide(axis, -h[run, :, None], out=row[..., 1:])
            np.einsum("bcj,bcj->bc", row[..., 1:], x[:, :1] - origins[run], out=row[..., 0])
        frame[:, 0, :, 0] += first[run]
        buf = np.empty(max(column * size for column, size, _ in plans[run]))
        for j, i in enumerate(range(run.start, run.stop)):
            _, size, col_blocks = plans[i]
            work = ([(slice(None), robots[j])] if size == n_l else
                    _culled(x[j], robots[j], origins[i], normals[i], r_d[i], dr[i], n_r, h[i, 0],
                            col_blocks))
            for cols, kept in work:
                _block_sums(frame[j, :, cols], kept, lattice[i, :, cols], factors[splits[i]],
                            out[i, cols], buf)
        del frame, buf  # freed before the next run allocates its own
    for record, scale in zip(out, (_TWO_PI * counts * h[:, 0] * h[:, 0]).tolist()):
        record /= scale  # a broadcast division would buffer 64 KiB
    return out


def _culled(x, robots, origins, normals, r_d, dr, n_r, h, col_blocks):
    """(columns, robots) of each block of a record's columns: the robots in
    the box of the block's first and last cells grown by _CULL_RADIUS h, as
    [1; x - c; y - c] in one buffer."""
    starts = [cols.start for cols in col_blocks]
    ends = [origins + (-r_d + k * dr)[:, None] * normals for k in (0.5, n_r - 0.5)]
    lo = np.minimum.reduceat(np.minimum(*ends), starts) - _CULL_RADIUS * h
    hi = np.maximum.reduceat(np.maximum(*ends), starts) + _CULL_RADIUS * h
    px, py = np.ascontiguousarray(x.T)
    (lo_x, lo_y), (hi_x, hi_y) = lo.T[..., None], hi.T[..., None]
    inside = (px >= lo_x) & (px <= hi_x) & (py >= lo_y) & (py <= hi_y)
    kept = np.empty(robots.shape)
    for cols, near in zip(col_blocks, inside):
        mine = kept[:, :np.count_nonzero(near)]
        np.compress(near, robots, axis=1, out=mine)
        yield cols, mine


def density_errors_l2(views, targets, tube: VirtualTube, regions, resolution):
    """L2 norm of (estimate - target) over each of R records' occupied
    regions, (R,), from each record's view, target and region: midpoint
    quadrature on a curvilinear grid of (n_l, n_r) cells per region.

    The grids, the kernel sums (section_estimates) and the profiles are
    each one pass over the R records, equal to a batch of one bit for bit."""
    ls, dl, frames, r_d, dr = _region_grids(tube, regions, resolution)
    sq = section_estimates(views, *frames, r_d, dr, resolution[1])
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
