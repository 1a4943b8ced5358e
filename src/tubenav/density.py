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
from dataclasses import dataclass

import numpy as np

from .errors import TubeDomainError
from .geometry import VirtualTube

_TWO_PI = 2.0 * math.pi
_GL20_NODES, _GL20_WEIGHTS = np.polynomial.legendre.leggauss(20)


# ---------------------------------------------------------------------------
# kernel density estimate
# ---------------------------------------------------------------------------

@dataclass
class DensityView:
    """Immutable per-step snapshot of the swarm density estimate.

    ``estimate_many`` returns the raw kernel sum; the controller applies
    its positivity floor where the estimate appears in a denominator.
    """

    positions: np.ndarray  # (N, 2) active robot positions
    bandwidth: float

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        if self.positions.ndim != 2 or self.positions.shape[1] != 2:
            raise ValueError("positions must be (N, 2)")
        if len(self.positions) == 0:
            raise ValueError("density is undefined with zero active robots")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")

    @property
    def n(self):
        return len(self.positions)

    def _kernel_matrix(self, pts):
        h = self.bandwidth
        dx = (pts[:, 0][:, None] - self.positions[:, 0][None, :]) / h
        dy = (pts[:, 1][:, None] - self.positions[:, 1][None, :]) / h
        k = np.exp(-0.5 * (dx * dx + dy * dy)) / _TWO_PI
        return dx, dy, k

    def estimate_many(self, pts):
        """Kernel density at each query point, shape (M,)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        h = self.bandwidth
        _, _, k = self._kernel_matrix(pts)
        return k.sum(axis=1) / (self.n * h * h)

    def estimate_sections(self, origins, tangents, normals, offsets):
        """Kernel density at origins[c] + offsets[c, k] * normals[c], shape
        (n_l, n_r), for columns with orthonormal frames (tangents, normals).

        With (dx, dy) = (origin - x_j) / h, tau = (dx, dy) . t and
        s = (dx, dy) . n, the scaled squared distance is tau^2 + (s + r / h)^2
        exactly, so the kernel factors into exp(-tau^2 / 2), one (n_l, N)
        array, times a per-offset factor that depends on s alone.  The
        distance along the tube never enters the large (n_l, n_r, N) array."""
        h = self.bandwidth
        dx = (origins[:, 0, None] - self.positions[:, 0]) / h
        dy = (origins[:, 1, None] - self.positions[:, 1]) / h
        tau = dx * tangents[:, 0, None] + dy * tangents[:, 1, None]
        s = dx * normals[:, 0, None] + dy * normals[:, 1, None]
        z = s[:, None, :] + (offsets / h)[:, :, None]
        np.square(z, out=z)
        z *= -0.5
        np.exp(z, out=z)
        along = np.exp(-0.5 * tau * tau)
        return np.matmul(z, along[:, :, None])[..., 0] / (_TWO_PI * self.n * h * h)

    def estimate_and_gradient_many(self, pts):
        """Density and gradient at each query point in one kernel pass."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        h = self.bandwidth
        dx, dy, k = self._kernel_matrix(pts)
        rho = k.sum(axis=1) / (self.n * h * h)
        scale = -1.0 / (self.n * h ** 3)
        grad = np.stack(
            [(k * dx).sum(axis=1) * scale, (k * dy).sum(axis=1) * scale], axis=1
        )
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
        ls = np.sort(ls % L)
        if len(ls) == 1:
            l_b, l_f = float(ls[0]), float(ls[0])
        else:
            gaps = np.diff(np.concatenate([ls, [ls[0] + L]]))
            k = int(np.argmax(gaps))
            biggest = float(gaps[k])
            l_b = float(ls[(k + 1) % len(ls)])
            l_f = l_b + (L - biggest)
    else:
        l_b, l_f = float(np.min(ls)), float(np.max(ls))
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
    s = np.clip(s, 0.0, 1.0)
    return 0.5 * (1.0 - np.cos(math.pi * s))


def _cos_ramp_slope(s):
    """Derivative of _cos_ramp; exactly zero outside the open ramp (0, 1)."""
    return np.where((s > 0.0) & (s < 1.0), 0.5 * math.pi * np.sin(math.pi * s), 0.0)


class DesiredDensity:
    """Capacity-proportional target density on the occupied region.

    The raw profile r_c(l) is discontinuous at the region edges; it is
    multiplied by cosine ramps of width delta_l inside each edge and scaled
    by lam_moll so the mollified field integrates to one.  A closed tube
    whose occupied region covers the whole ring needs no ramps.
    """

    def __init__(self, tube: VirtualTube, region: OccupiedRegion, delta_l):
        if delta_l <= 0:
            raise ValueError("mollification width must be positive")
        self.tube = tube
        self.region = region
        self.full_ring = tube.closed and region.span >= tube.length - 1e-12
        self.delta = min(float(delta_l), 0.5 * region.span)
        self.lam_moll = 1.0 / self._mass()

    def _mass(self):
        """Integral of mask(l) * 2 r_c(l)^2 over the region, in one
        Gauss-Legendre pass.

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
        cuts = np.unique(np.concatenate([[l_b, l_b + d, max(l_f - d, l_b + d), l_f], inner]))
        mid = 0.5 * (cuts[:-1] + cuts[1:])
        half = 0.5 * (cuts[1:] - cuts[:-1])
        xs = mid[:, None] + half[:, None] * _GL20_NODES
        mask, _ = self._mask_and_slope(xs)
        r_c = self.tube.widths.r_c(self._wrap(xs))
        return float((mask * 2.0 * r_c ** 2) @ _GL20_WEIGHTS @ half)

    # -- profile ------------------------------------------------------------

    def _mask_and_slope(self, ls):
        """The mask and its derivative d/dl at unwrapped arc lengths."""
        ls = np.asarray(ls, dtype=float)
        if self.full_ring:
            return np.ones_like(ls), np.zeros_like(ls)
        s = np.stack([ls - self.region.l_b, self.region.l_f - ls]) / self.delta
        ramp = _cos_ramp(s)
        slope = _cos_ramp_slope(s) / self.delta
        inside = (ls >= self.region.l_b) & (ls <= self.region.l_f)
        return (
            np.where(inside, ramp[0] * ramp[1], 0.0),
            np.where(inside, slope[0] * ramp[1] - ramp[0] * slope[1], 0.0),
        )

    def _unwrap(self, ls):
        """Shift query arc lengths into the covering interval on closed tubes."""
        ls = np.asarray(ls, dtype=float)
        if not self.tube.closed:
            return ls
        L = self.tube.length
        return self.region.l_b + np.mod(ls - self.region.l_b, L)

    def _wrap(self, ls):
        """Unwrapped arc lengths back onto the spine, [0, L) on closed tubes."""
        return np.mod(ls, self.tube.length) if self.tube.closed else ls

    def profile_many(self, ls):
        """Target density as a function of arc length alone, shape (M,)."""
        ls_u = self._unwrap(ls)
        mask, _ = self._mask_and_slope(ls_u)
        return self.lam_moll * self.tube.widths.r_c(self._wrap(ls_u)) * mask

    def profile_slope_many(self, ls):
        """d rho_d / dl: the piecewise-linear capacity's slope times the
        mask plus the capacity times the cosine ramps' slope, shape (M,)."""
        ls_u = self._unwrap(ls)
        ls_w = self._wrap(ls_u)
        mask, mask_slope = self._mask_and_slope(ls_u)
        widths = self.tube.widths
        return self.lam_moll * (widths.r_c_slope(ls_w) * mask + widths.r_c(ls_w) * mask_slope)

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
        stretch = 1.0 - np.asarray(curvatures, dtype=float) * rs
        bad = np.flatnonzero(stretch <= 0.0)
        if len(bad):
            k = int(bad[0])
            raise TubeDomainError(
                f"offset r={rs[k]} at arc length l={ls[k]} is at or past the centre of "
                f"curvature (1 - kappa r = {stretch[k]:.3e})"
            )
        slope = self.profile_slope_many(ls) / stretch
        return slope[:, None] * np.asarray(tangents, dtype=float).reshape(-1, 2)


# ---------------------------------------------------------------------------
# error field and norm
# ---------------------------------------------------------------------------

@dataclass
class ErrorField:
    """Density estimate and target on a curvilinear midpoint grid over the
    occupied region."""

    ls: np.ndarray          # (n_l,) cell-center arc lengths
    cell_dl: float
    cell_dr: np.ndarray     # (n_l,) radial cell heights per column
    rho_hat: np.ndarray     # (n_l, n_r)
    rho_d: np.ndarray       # (n_l, n_r), constant along each column

    def cell_areas(self):
        return np.broadcast_to(self.cell_dr[:, None] * self.cell_dl, self.rho_hat.shape)


def _region_grid(tube: VirtualTube, region: OccupiedRegion, resolution):
    """Column arc lengths, cell sizes, the columns' spine frames (origins,
    tangents, normals) and the cell-centre offsets along each normal."""
    n_l, n_r = resolution
    if n_l < 1 or n_r < 1:
        raise ValueError("grid resolution must be positive")
    dl = region.span / n_l
    ls = region.l_b + (np.arange(n_l) + 0.5) * dl
    ls_eval = np.mod(ls, tube.length) if tube.closed else ls
    r_d = tube.widths.r_d(ls_eval)
    r_u = tube.widths.r_u(ls_eval)
    dr = (r_d + r_u) / n_r
    offsets = -r_d[:, None] + (np.arange(n_r)[None, :] + 0.5) * dr[:, None]
    return ls, dl, dr, tube.curve.frames(ls_eval), offsets


def error_grid(view: DensityView, dd: DesiredDensity, tube: VirtualTube,
               region: OccupiedRegion, resolution=(200, 40)) -> ErrorField:
    """Evaluate estimate and target on the region grid."""
    ls, dl, dr, frames, offsets = _region_grid(tube, region, resolution)
    rho_hat = view.estimate_sections(*frames, offsets)
    rho_d = np.broadcast_to(dd.profile_many(ls)[:, None], offsets.shape)
    return ErrorField(ls=ls, cell_dl=dl, cell_dr=dr, rho_hat=rho_hat, rho_d=rho_d)


def l2_norm_on_grid(values, field: ErrorField):
    """Midpoint-quadrature L2 norm of a cell grid over the region."""
    return float(np.sqrt(np.sum(values ** 2 * field.cell_areas())))


def density_error_l2_from_view(view: DensityView, dd: DesiredDensity,
                               tube: VirtualTube, region: OccupiedRegion,
                               resolution=(200, 40)):
    """L2 norm of (estimate - target) over the occupied region."""
    field = error_grid(view, dd, tube, region, resolution)
    return l2_norm_on_grid(field.rho_hat - field.rho_d, field)
