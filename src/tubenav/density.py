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

from .errors import OutsideTubeError, TubeDomainError
from .geometry import VirtualTube
from .state import SwarmState

_TWO_PI = 2.0 * math.pi
_GL20_NODES, _GL20_WEIGHTS = np.polynomial.legendre.leggauss(20)

DEFAULT_RHO_FLOOR = 1e-6


# ---------------------------------------------------------------------------
# kernel density estimate
# ---------------------------------------------------------------------------

@dataclass
class DensityView:
    """Immutable per-step snapshot of the swarm density estimate.

    ``estimate`` returns the raw kernel sum; the positivity floor is applied
    only where the estimate appears in a denominator.
    """

    positions: np.ndarray  # (N, 2) active robot positions
    bandwidth: float
    rho_floor: float = DEFAULT_RHO_FLOOR

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        if self.positions.ndim != 2 or self.positions.shape[1] != 2:
            raise ValueError("positions must be (N, 2)")
        if len(self.positions) == 0:
            raise ValueError("density is undefined with zero active robots")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.rho_floor <= 0:
            raise ValueError("density floor must be positive")

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

    def estimate(self, p):
        return float(self.estimate_many(np.asarray(p, dtype=float)[None, :])[0])

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

    def gradient_many(self, pts):
        """Analytic gradient of the kernel sum at each query point, (M, 2)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        h = self.bandwidth
        dx, dy, k = self._kernel_matrix(pts)
        scale = -1.0 / (self.n * h ** 3)
        return np.stack(
            [(k * dx).sum(axis=1) * scale, (k * dy).sum(axis=1) * scale], axis=1
        )

    def gradient(self, p):
        return self.gradient_many(np.asarray(p, dtype=float)[None, :])[0]

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
    """Arc-length interval [l_b, l_f] spanned by the swarm, with the
    normalization constant of the capacity-proportional density.

    For closed tubes the interval is the minimal covering arc; l_f may
    exceed the tube length, meaning the interval wraps the seam.
    """

    l_b: float
    l_f: float
    lam: float  # 1 / integral of 2 r_c(l)^2 over [l_b, l_f]

    @property
    def span(self):
        return self.l_f - self.l_b


def _integral_2rc2(tube: VirtualTube, a, b):
    """Exact integral of 2 r_c(l)^2 over [a, b] (quadratic per width piece,
    evaluated with Simpson which is exact for quadratics).  Handles wrapped
    intervals on closed tubes by splitting at the seam."""
    if b <= a:
        return 0.0
    L = tube.length
    if tube.closed:
        shift = math.floor(a / L) * L
        a, b = a - shift, b - shift
        if b > L:
            return _integral_2rc2(tube, a, L) + _integral_2rc2(tube, 0.0, b - L)
    grid = tube.widths.grid_over(a, b)
    total = 0.0
    for lo, hi in zip(grid[:-1], grid[1:]):
        mid = 0.5 * (lo + hi)
        f = lambda l: 2.0 * float(tube.widths.r_c(l)) ** 2
        total += (hi - lo) / 6.0 * (f(lo) + 4.0 * f(mid) + f(hi))
    return total


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
    integral = _integral_2rc2(tube, l_b, l_f)
    return OccupiedRegion(l_b=l_b, l_f=l_f, lam=1.0 / integral)


def occupied_region(swarm: SwarmState, tube: VirtualTube, min_halfwidth=0.0):
    """Occupied region of the active robots (projects their positions)."""
    pts = swarm.active_positions()
    if len(pts) == 0:
        raise ValueError("occupied region undefined with no active robots")
    return occupied_region_from_arclengths(tube.curve.project_many(pts).l, tube, min_halfwidth)


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

    The raw profile lam * r_c(l) is discontinuous at the region edges; it is
    multiplied by cosine ramps of width delta_l inside each edge and
    renormalized so the mollified field still integrates to one.  A closed
    tube whose occupied region covers the whole ring needs no ramps.
    """

    def __init__(self, tube: VirtualTube, region: OccupiedRegion, delta_l):
        if delta_l <= 0:
            raise ValueError("mollification width must be positive")
        self.tube = tube
        self.region = region
        self.full_ring = tube.closed and region.span >= tube.length - 1e-12
        self.delta = min(float(delta_l), 0.5 * region.span)
        if self.full_ring:
            self.lam_moll = region.lam
        else:
            mass = self._mollified_mass()
            self.lam_moll = 1.0 / mass

    # -- profile ------------------------------------------------------------

    def _mask(self, ls):
        if self.full_ring:
            return np.ones_like(np.asarray(ls, dtype=float))
        ls = np.asarray(ls, dtype=float)
        up = _cos_ramp((ls - self.region.l_b) / self.delta)
        down = _cos_ramp((self.region.l_f - ls) / self.delta)
        inside = (ls >= self.region.l_b) & (ls <= self.region.l_f)
        return np.where(inside, up * down, 0.0)

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

    def profile_many(self, ls):
        """Target density as a function of arc length alone, shape (M,)."""
        ls_u = self._unwrap(ls)
        r_c = self.tube.widths.r_c(
            np.mod(ls_u, self.tube.length) if self.tube.closed else ls_u
        )
        return self.lam_moll * r_c * self._mask(ls_u)

    def profile_slope_many(self, ls):
        """d rho_d / dl: the piecewise-linear capacity's slope times the
        mask plus the capacity times the cosine ramps' slope, shape (M,)."""
        ls_u = self._unwrap(ls)
        ls_w = np.mod(ls_u, self.tube.length) if self.tube.closed else ls_u
        mask, mask_slope = self._mask_and_slope(ls_u)
        widths = self.tube.widths
        return self.lam_moll * (widths.r_c_slope(ls_w) * mask + widths.r_c(ls_w) * mask_slope)

    def profile(self, l):
        return float(self.profile_many(np.array([float(l)]))[0])

    def _mollified_mass(self):
        """Integral of mask(l) * 2 r_c(l)^2 over the region.

        The un-ramped interior is exact (Simpson per quadratic piece); ramp
        bands use Gauss-Legendre on the smooth cosine-times-quadratic
        integrand, split at width knots.
        """
        l_b, l_f, d = self.region.l_b, self.region.l_f, self.delta
        interior = _integral_2rc2(self.tube, l_b + d, l_f - d) if l_f - d > l_b + d else 0.0

        def ramp_integral(a, b):
            # Gauss quadrature in the unwrapped variable, split at width-knot
            # images so each piece has a smooth integrand
            if b <= a:
                return 0.0
            wrap = (lambda x: np.mod(x, self.tube.length)) if self.tube.closed else (lambda x: x)
            total = 0.0
            for lo, hi in self._split_at_knots(a, b):
                mid = 0.5 * (lo + hi)
                half = 0.5 * (hi - lo)
                xs = mid + half * _GL20_NODES
                r_c = self.tube.widths.r_c(wrap(xs))
                vals = self._mask(xs) * 2.0 * r_c ** 2
                total += float(np.dot(vals, _GL20_WEIGHTS)) * half
            return total

        lo_band = ramp_integral(l_b, min(l_b + d, l_f))
        hi_band = ramp_integral(max(l_f - d, l_b + d), l_f)
        return interior + lo_band + hi_band

    def _split_at_knots(self, a, b):
        """Split [a, b] (unwrapped) at images of the width knots."""
        L = self.tube.length
        knots = self.tube.widths.knot_ls
        if self.tube.closed:
            reps = []
            k0 = math.floor(a / L)
            k1 = math.ceil(b / L)
            for k in range(k0, k1 + 1):
                reps.append(knots + k * L)
            knots = np.concatenate(reps)
        inner = knots[(knots > a + 1e-15) & (knots < b - 1e-15)]
        cuts = np.concatenate([[a], np.sort(inner), [b]])
        return list(zip(cuts[:-1], cuts[1:]))

    # -- point evaluation -----------------------------------------------------

    def _coord(self, p, seed_l):
        """(l, r) of an in-tube point; raises outside the tube."""
        if seed_l is None:
            coord = self.tube.to_curvilinear(p)
            return coord.l, coord.r
        pr, inside = self.tube.locate(p, seed_l=seed_l)
        if not inside:
            raise OutsideTubeError("query point outside the tube")
        return pr.l, pr.r

    def value(self, p, seed_l=None):
        """Target density at an in-tube point."""
        return self.profile(self._coord(p, seed_l)[0])

    def gradient_many(self, ls, rs):
        """Cartesian gradient at the points with tube coordinates (ls, rs),
        shape (M, 2).

        The target depends on l alone, and p = gamma(l) + r n(l) gives
        grad l = t / (1 - kappa r) with kappa = c . n the signed curvature,
        so the gradient is rho_d'(l) t / (1 - kappa r).  Raises where
        1 - kappa r <= 0: the point is at or past the centre of curvature,
        where l is not a function of position."""
        ls = np.asarray(ls, dtype=float)
        rs = np.asarray(rs, dtype=float)
        frames = np.array([self.tube.curve.eval_scalar(float(l)) for l in ls]).reshape(-1, 6)
        tx, ty, cx, cy = frames[:, 2], frames[:, 3], frames[:, 4], frames[:, 5]
        stretch = 1.0 - (ty * -cx + tx * cy) * rs
        bad = np.flatnonzero(stretch <= 0.0)
        if len(bad):
            k = int(bad[0])
            raise TubeDomainError(
                f"offset r={rs[k]} at arc length l={ls[k]} is at or past the centre of "
                f"curvature (1 - kappa r = {stretch[k]:.3e})"
            )
        slope = self.profile_slope_many(ls) / stretch
        return np.stack([slope * tx, slope * ty], axis=1)

    def gradient(self, p, seed_l=None):
        """Cartesian gradient at an in-tube point (see gradient_many)."""
        l, r = self._coord(p, seed_l)
        return self.gradient_many([l], [r])[0]


# ---------------------------------------------------------------------------
# error fields and norms
# ---------------------------------------------------------------------------

@dataclass
class ErrorField:
    """Cellwise comparison of the density estimate against the target on a
    curvilinear midpoint grid over the occupied region."""

    ls: np.ndarray          # (n_l,) cell-center arc lengths
    cell_dl: float
    cell_dr: np.ndarray     # (n_l,) radial cell heights per column
    rho_hat: np.ndarray     # (n_l, n_r)
    rho_d: np.ndarray       # (n_l, n_r)
    relative: np.ndarray    # (n_l, n_r), NaN on excluded cells
    excluded: np.ndarray    # (n_l, n_r) bool, cells with rho_d below the floor

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
    rho_d = np.broadcast_to(dd.profile_many(ls)[:, None], offsets.shape).copy()
    excluded = rho_d < view.rho_floor
    with np.errstate(divide="ignore", invalid="ignore"):
        relative = np.where(excluded, np.nan, (rho_hat - rho_d) / rho_d)
    return ErrorField(
        ls=ls, cell_dl=dl, cell_dr=dr, rho_hat=rho_hat, rho_d=rho_d,
        relative=relative, excluded=excluded,
    )


def l2_norm_on_grid(values, field: ErrorField):
    """Midpoint-quadrature L2 norm of a cell grid over the region."""
    return float(np.sqrt(np.sum(values ** 2 * field.cell_areas())))


def density_error_l2_from_view(view: DensityView, dd: DesiredDensity,
                               tube: VirtualTube, region: OccupiedRegion,
                               resolution=(200, 40)):
    field = error_grid(view, dd, tube, region, resolution)
    return l2_norm_on_grid(field.rho_hat - field.rho_d, field)


def density_error_l2(swarm: SwarmState, dd: DesiredDensity, tube: VirtualTube,
                     resolution=(200, 40), bandwidth=None, rho_floor=DEFAULT_RHO_FLOOR,
                     r_s=None):
    """L2 norm of (estimate - target) over the occupied region.

    Bandwidth defaults to the rule-of-thumb value, which needs the safety
    radius for its clamp."""
    pts = swarm.active_positions()
    if len(pts) == 0:
        raise ValueError("density error undefined with no active robots")
    if bandwidth is None:
        if r_s is None:
            raise ValueError("either bandwidth or r_s is required")
        bandwidth = silverman_bandwidth(pts, r_s)
    view = DensityView(pts, bandwidth, rho_floor)
    return density_error_l2_from_view(view, dd, tube, dd.region, resolution)


def relative_error_field(swarm: SwarmState, dd: DesiredDensity, tube: VirtualTube,
                         resolution=(200, 40), bandwidth=None,
                         rho_floor=DEFAULT_RHO_FLOOR, r_s=None) -> ErrorField:
    """Cellwise (estimate - target)/target over the occupied region; cells
    where the target is below the positivity floor are excluded and flagged."""
    pts = swarm.active_positions()
    if len(pts) == 0:
        raise ValueError("relative error undefined with no active robots")
    if bandwidth is None:
        if r_s is None:
            raise ValueError("either bandwidth or r_s is required")
        bandwidth = silverman_bandwidth(pts, r_s)
    view = DensityView(pts, bandwidth, rho_floor)
    return error_grid(view, dd, tube, dd.region, resolution)
