"""Saturated velocity commands for a whole snapshot.

The command composes four terms:

  u1  constant-speed approach along the spine tangent,
  u2  inter-robot repulsion from a rational barrier active on the band
      (2 r_s, r_s + r_a],
  u3  tube keeping, the same barrier shape on boundary distance over
      (r_s, r_s + r_t],
  u4  density-feedback regulation, rescaled pointwise so it never exceeds
      the safe-navigation term in norm,

then saturates the sum at v_max.  The baseline mode drops u4 and is used as
the comparison arm in paired runs.  Every term is evaluated for all active
robots at once, as (M, 2) arrays over one snapshot.

Barriers are ((outer - d)/(d - inner))^2 on (inner, outer]: zero value and
zero slope at the outer edge, unbounded at the inner edge, so repulsion
dominates any bounded term before the forbidden distance is reached.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SafetyViolation
from .metrics import Neighbours, neighbours

RHO_FLOOR = 1e-6  # 1/m^2, density positivity floor of the regulation term


@dataclass
class ControllerParams:
    k1: float = 1.0            # m/s, approach speed
    k2: float = 0.02           # robot-avoidance gain
    k3: float = 0.02           # tube-keeping gain
    v_max: float = 2.0         # m/s, saturation speed
    r_s: float = 0.5           # m, safety radius
    r_a: float = 0.8           # m, avoidance radius (> r_s)
    r_t: float = 0.3           # m, tube-keeping activation margin
    alpha0: float = 1.0        # m^2/s, nominal diffusion coefficient
    h: float | None = None     # m, KDE bandwidth; None = rule of thumb

    def validate(self):
        problems = []
        if not (self.r_s > 0):
            problems.append("r_s must be positive")
        if not (self.r_a > self.r_s):
            problems.append("r_a must exceed r_s")
        if not (self.k1 > 0):
            problems.append("k1 must be positive")
        if not (self.v_max >= self.k1):
            problems.append("v_max must be at least k1")
        if not (self.k2 > 0 and self.k3 > 0):
            problems.append("k2 and k3 must be positive")
        if self.alpha0 < 0:
            # zero switches regulation off entirely (degenerate but legal)
            problems.append("alpha0 must be nonnegative")
        if not (self.r_t > 0):
            problems.append("r_t must be positive")
        if self.h is not None and not (self.h > 0):
            problems.append("bandwidth must be positive when given")
        if problems:
            raise ValueError("; ".join(problems))
        return self

    @property
    def avoidance_reach(self):
        """Neighbor-set radius: pairs farther than this never interact."""
        return self.r_s + self.r_a


def _barrier_slope(d, inner, outer):
    """Elementwise d/dd of ((outer - d)/(d - inner))^2 for d > inner, and
    the mask of the band d < outer it is nonzero on.

    Negative on the band (the barrier grows as d shrinks), diverging to -inf
    as d -> inner+, zero at and above outer.
    """
    band = d < outer
    gap = np.where(band, d - inner, 1.0)
    return band, np.where(band, -2.0 * (outer - d) * (outer - inner) / gap**3, 0.0)


def _avoidance(params: ControllerParams, pairs: Neighbours, ids=None, time=None):
    """Repulsion terms (M, 2) from a snapshot's pair structure; raises on
    the closest pair when it is at or below the forbidden distance."""
    m = len(pairs.nearest)
    if m >= 2:
        a, b, dmin = pairs.closest_pair()
        if dmin <= 2.0 * params.r_s:
            ia = int(ids[a]) if ids is not None else a
            ib = int(ids[b]) if ids is not None else b
            raise SafetyViolation(
                f"robots {ia} and {ib} at min pairwise distance {dmin:.6f} <= 2 r_s = {2 * params.r_s}",
                kind="robot-robot",
                details={"i": ia, "j": ib, "distance": dmin, "time": time},
            )
    # every listed pair is within the reach, the barrier's outer edge
    _, slope = _barrier_slope(pairs.d, 2.0 * params.r_s, params.avoidance_reach)
    w = -params.k2 * slope / pairs.d
    u2 = np.empty((m, 2))
    u2[:, 0] = np.bincount(pairs.i, w * pairs.dx, minlength=m)
    u2[:, 1] = np.bincount(pairs.i, w * pairs.dy, minlength=m)
    return u2


def avoidance_batch(params: ControllerParams, positions, ids=None, time=None):
    """Repulsion terms for the robots at ``positions``, shape (M, 2)."""
    return _avoidance(params, neighbours(positions, params.avoidance_reach), ids, time)


def compose_velocity(params: ControllerParams, mode, pairs, tangents, boundary_d,
                     boundary_dir, rho_hat, grad_hat, grad_d, ids, time):
    """Commands of all M active robots from one snapshot.

    ``pairs`` is the snapshot's Neighbours for the reach
    ``params.avoidance_reach``.  The other inputs are arrays with one row
    per active robot: the unit spine tangent at the robot's arc length
    (M, 2); lateral boundary distance (M,) and the unit direction away from
    the nearest boundary point (M, 2); the density estimate rho_hat (M,),
    its gradient and the target gradient (M, 2) each.  ``ids`` names the
    robots in fault reports and ``time`` is the snapshot time.  The density inputs are ignored in
    baseline mode.

    Returns (u1, u2, u3, u4, v, kappa): five (M, 2) arrays, u4 after the
    norm cap (zero in baseline mode) and v = kappa (u1 + u2 + u3 + u4) with
    |v| <= v_max, and the (M,) saturation factors kappa in (0, 1].  Raises
    SafetyViolation when a pair is at or within 2 r_s, naming the closest
    pair, or else when a robot is at or within r_s of the boundary, naming
    the robot nearest to it.
    """
    if mode not in ("full", "baseline"):
        raise ValueError("mode must be 'full' or 'baseline'")
    u1 = params.k1 * tangents

    u2 = _avoidance(params, pairs, ids, time)

    if len(boundary_d) and np.minimum.reduce(boundary_d) <= params.r_s:
        k = int(np.argmin(boundary_d))
        robot, b = int(ids[k]), float(boundary_d[k])
        raise SafetyViolation(
            f"robot {robot} at min boundary distance {b:.6f} <= r_s = {params.r_s}",
            kind="boundary",
            details={"robot": robot, "distance": b, "time": time},
        )
    _, slope = _barrier_slope(boundary_d, params.r_s, params.r_s + params.r_t)
    u3 = (-params.k3 * slope)[:, None] * boundary_dir

    u123 = u1 + u2 + u3
    if mode == "full":
        denom = np.maximum(rho_hat, RHO_FLOOR)
        u4 = -params.alpha0 * (grad_hat - grad_d) / denom[:, None]
        # cap |u4| at |u123|: a pointwise rescaling of the diffusion
        # coefficient, so the capped term is still a regulation velocity
        n123 = np.hypot(u123[:, 0], u123[:, 1])
        n4 = np.hypot(u4[:, 0], u4[:, 1])
        keep = (n4 > 0.0) & (n123 > 0.0)
        # divide only where the cap binds: n123 / n4 overflows for a subnormal n4
        scale = np.divide(n123, n4, out=np.ones_like(n4), where=n4 > n123)
        u4 = np.where(keep[:, None], u4 * scale[:, None], 0.0)
    else:
        u4 = np.zeros_like(u123)

    u = u123 + u4
    norm = np.hypot(u[:, 0], u[:, 1])
    kappa = params.v_max / np.maximum(norm, params.v_max)
    return u1, u2, u3, u4, u * kappa[:, None], kappa
