import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from tubenav.control import ControllerParams, avoidance_batch, compose_velocity
from tubenav.density import DensityView, DesiredDensity, occupied_region_from_arclengths
from tubenav.errors import OutsideTubeError, SafetyViolation
from tubenav.geometry import ArcSegment, GeneratingCurve, LineSegment, VirtualTube, WidthProfile
from tubenav.state import make_swarm

from scalar_tube import boundary_distance, curve_frame, to_curvilinear


def straight_tube(length=20.0, half_width=2.0, extension=None):
    curve = GeneratingCurve([LineSegment((0.0, 0.0), (length, 0.0))])
    widths = WidthProfile([(0.0, half_width, half_width), (length, half_width, half_width)])
    return VirtualTube(curve, widths, extension_length=extension)


def ring_tube(radius=6.0, half_width=2.0):
    curve = GeneratingCurve([ArcSegment((0.0, 0.0), radius, 0.0, 2 * math.pi)], closed=True)
    return VirtualTube(curve, WidthProfile([(0.0, half_width, half_width)]), topology="closed")


def default_params(**over):
    base = dict(k1=1.0, k2=0.02, k3=0.02, v_max=2.0, r_s=0.5, r_a=0.8, r_t=0.3,
                alpha0=1.0, h=0.8)
    base.update(over)
    return ControllerParams(**base).validate()


# ---------------------------------------------------------------------------
# scalar oracles: the per-robot command path that the batched composer
# replaced, kept as the reference the batch is checked against
# ---------------------------------------------------------------------------

@dataclass
class VelocityCommand:
    v: np.ndarray        # applied velocity, norm <= v_max
    u1: np.ndarray
    u2: np.ndarray
    u3: np.ndarray
    u4: np.ndarray       # after the norm cap; zero in baseline mode
    kappa_m: float       # saturation factor in (0, 1]

    def u123(self):
        return self.u1 + self.u2 + self.u3


def _barrier_slope(d, inner, outer):
    """d/dd of ((outer - d)/(d - inner))^2 on (inner, outer]; 0 above outer."""
    if d >= outer:
        return 0.0
    return -2.0 * (outer - d) * (outer - inner) / (d - inner) ** 3


def approach_at_arclength(tube, params, l):
    L = tube.length
    if l <= L:
        _, t, _ = curve_frame(tube, l)
    else:
        _, t, _ = curve_frame(tube, L)
    if params.u1_mode == "modified" or tube.closed:
        return params.k1 * t
    l_end = tube.extension_length if tube.extension_length is not None else L + params.k1 / params.eta_min
    speed = max(l_end - l, 0.0) * params.eta_min
    return min(speed, params.k1) * t


def line_approach(tube, params, p, seed_l=None):
    if seed_l is not None:
        pr, inside = tube.locate([p], seeds=[seed_l])
        if not inside[0]:
            raise OutsideTubeError("approach term queried outside the tube")
        l = float(pr.l[0])
    else:
        l = to_curvilinear(tube, p).l
    return approach_at_arclength(tube, params, l)


def robot_avoidance(params, i, swarm):
    if not swarm.active[i]:
        raise ValueError(f"robot {i} is not active")
    ids = [j for j in np.flatnonzero(swarm.active).tolist() if j != i]
    if not ids:
        return np.zeros(2)
    return _avoidance_from_neighbors(params, swarm.positions[i], swarm.positions[ids], i, ids,
                                     swarm.time)


def _avoidance_from_neighbors(params, p, others, i=None, ids=None, time=None):
    rel = p[None, :] - others
    dists = np.hypot(rel[:, 0], rel[:, 1])
    reach = params.avoidance_reach
    u2 = np.zeros(2)
    for k in range(len(others)):
        d = float(dists[k])
        if d > reach:
            continue
        if d <= 2.0 * params.r_s:
            raise SafetyViolation(
                f"robots {i} and {ids[k] if ids else '?'} at distance {d:.6f}"
                f" <= 2 r_s = {2 * params.r_s}",
                kind="robot-robot",
                details={"i": i, "j": ids[k] if ids else None, "distance": d, "time": time},
            )
        slope = _barrier_slope(d, 2.0 * params.r_s, reach)
        u2 += (-params.k2 * slope / d) * rel[k]
    return u2


def tube_keeping(tube, params, p, boundary=None):
    if boundary is None:
        b, direction = boundary_distance(tube, p)
    else:
        b, direction = boundary
    if b <= params.r_s:
        raise SafetyViolation(
            f"boundary distance {b:.6f} <= r_s = {params.r_s}",
            kind="boundary",
            details={"distance": float(b)},
        )
    slope = _barrier_slope(b, params.r_s, params.r_s + params.r_t)
    return (-params.k3 * slope) * np.asarray(direction, dtype=float)


def regulation_from_parts(params, rho_hat, grad_hat, grad_d):
    denom = max(float(rho_hat), params.rho_floor)
    return -params.alpha0 * (np.asarray(grad_hat) - np.asarray(grad_d)) / denom


def distribution_regulation(view, dd, params, p, seed_l=None):
    rho, grad_hat = view.estimate_and_gradient_many(p)
    rho, grad_hat = float(rho[0]), grad_hat[0]
    pr = dd.tube.curve.project(p, seed_l=seed_l)
    grad_d = dd.gradient_many([pr.l], [pr.r], [pr.tangent], [pr.curvature])[0]
    u4_raw = regulation_from_parts(params, rho, grad_hat, grad_d)
    return u4_raw, {"rho_hat": rho, "grad_rho_hat": grad_hat, "grad_rho_d": grad_d}


def enforce_condition23(u123, u4_raw):
    n123 = math.hypot(float(u123[0]), float(u123[1]))
    n4 = math.hypot(float(u4_raw[0]), float(u4_raw[1]))
    if n4 == 0.0 or n123 == 0.0:
        return np.zeros(2)
    return u4_raw * min(1.0, n123 / n4)


def saturate(u, v_max):
    if v_max <= 0:
        raise ValueError("v_max must be positive")
    u = np.asarray(u, dtype=float)
    norm = math.hypot(float(u[0]), float(u[1]))
    if norm <= v_max:
        return u.copy(), 1.0
    kappa = v_max / norm
    return u * kappa, kappa


def oracle_compose(tube, params, i, swarm, view, dd, mode="full"):
    """Robot i's command computed on its own from the snapshot."""
    p = swarm.positions[i]
    coord = to_curvilinear(tube, p)
    u1 = line_approach(tube, params, p)
    u2 = robot_avoidance(params, i, swarm)
    u3 = tube_keeping(tube, params, p)
    u123 = u1 + u2 + u3
    if mode == "full":
        u4_raw, _ = distribution_regulation(view, dd, params, p, seed_l=coord.l)
        u4 = enforce_condition23(u123, u4_raw)
    else:
        u4 = np.zeros(2)
    v, kappa = saturate(u123 + u4, params.v_max)
    return VelocityCommand(v=v, u1=u1, u2=u2, u3=u3, u4=u4, kappa_m=kappa)


# ---------------------------------------------------------------------------
# the batched library path
# ---------------------------------------------------------------------------

Batch = namedtuple("Batch", "u1 u2 u3 u4 v kappa")


def density_for(tube, params, positions):
    """The engine's density artifacts for a snapshot of these robots."""
    ls = tube.curve.project_many(positions).l
    delta_l = max(params.h, params.r_s)
    region = occupied_region_from_arclengths(ls, tube, min_halfwidth=delta_l)
    return DensityView(positions, params.h), DesiredDensity(tube, region, delta_l)


def batch(tube, params, positions, view, dd, mode="full", ids=None):
    """compose_velocity on the robots at ``positions``, with every input
    computed by the library's array functions as the engine does."""
    pts = np.asarray(positions, dtype=float)
    prs = tube.curve.project_many(pts)
    bd, bdir = tube.boundary_distance_many(pts)
    rho, grad = view.estimate_and_gradient_many(pts)
    ids = np.arange(len(pts)) if ids is None else np.asarray(ids)
    return Batch(*compose_velocity(
        tube, params, mode, pts, prs.l, prs.tangent, bd, bdir, rho, grad,
        dd.gradient_many(prs.l, prs.r, prs.tangent, prs.curvature), ids, 0.0,
    ))


def direct(params, tangents, mode="baseline", ls=None, rho_hat=None, grad_hat=None, grad_d=None,
           tube=None):
    """compose_velocity with hand-set inputs for robots 10 m apart and far
    from the walls, so u2 = u3 = 0 and u1 = k1 * tangents."""
    t = np.atleast_2d(np.asarray(tangents, dtype=float))
    m = len(t)
    zeros = np.zeros((m, 2))
    return Batch(*compose_velocity(
        tube if tube is not None else straight_tube(), params, mode,
        np.stack([10.0 * np.arange(m), np.zeros(m)], axis=1),
        np.zeros(m) if ls is None else np.asarray(ls, dtype=float), t,
        np.full(m, 10.0), np.tile([0.0, 1.0], (m, 1)),
        np.ones(m) if rho_hat is None else np.asarray(rho_hat, dtype=float),
        zeros if grad_hat is None else np.atleast_2d(grad_hat),
        zeros if grad_d is None else np.atleast_2d(grad_d),
        np.arange(m), 0.0,
    ))


def cap(u123, u4_raw):
    """The norm cap on one robot: with k1 = 1, alpha0 = 1, rho_hat = 1 and
    a zero target gradient, u1 = u123 and the raw regulation term is
    -grad_hat = u4_raw exactly."""
    params = default_params(v_max=10.0)
    return direct(params, [u123], mode="full", grad_hat=[-np.asarray(u4_raw, float)]).u4[0]


class TestParams:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            ControllerParams(r_a=0.4, r_s=0.5).validate()
        with pytest.raises(ValueError):
            ControllerParams(k1=3.0, v_max=2.0).validate()
        with pytest.raises(ValueError):
            ControllerParams(eta_min=2.0, eta_max=1.0).validate()
        with pytest.raises(ValueError):
            ControllerParams(r_t=0.0).validate()
        default_params()  # valid set passes


class TestLineApproach:
    def test_modified_mode_constant(self):
        tube = straight_tube()
        params = default_params()
        pts = np.array([(1.0, 0.3), (8.0, 0.3), (19.5, 0.3)])
        cmd = batch(tube, params, pts, *density_for(tube, params, pts), mode="baseline")
        assert np.allclose(cmd.u1, [params.k1, 0.0])

    def test_original_mode_saturated_inside(self):
        # with a valid extension the distance-scheduled mode saturates at k1
        # everywhere inside the tube and equals the modified mode
        tube = straight_tube(length=20.0, extension=21.5)
        params = default_params(u1_mode="original", eta_min=1.0, eta_max=1.0)
        pts = np.array([(0.0, 0.0), (10.0, 0.0), (20.0, 0.0)])
        cmd = batch(tube, params, pts, *density_for(tube, params, pts), mode="baseline")
        assert np.allclose(cmd.u1, [params.k1, 0.0])

    def test_original_mode_decays_near_extension_end(self):
        tube = straight_tube(length=20.0, extension=21.5)
        params = default_params(u1_mode="original", eta_min=1.0, eta_max=1.0)
        # in the extension the magnitude decreases linearly to 0 at l = L'
        cmd = direct(params, [[1.0, 0.0], [1.0, 0.0]], ls=[20.9, 21.2], tube=tube)
        assert abs(np.linalg.norm(cmd.u1[0]) - 0.6) < 1e-12
        assert abs(np.linalg.norm(cmd.u1[1]) - 0.3) < 1e-12


class TestRobotAvoidance:
    def test_no_neighbors_in_reach(self):
        params = default_params()
        u2 = avoidance_batch(params, [(0.0, 0.0), (5.0, 0.0), (0.0, 5.0)])
        assert np.allclose(u2[0], 0.0)

    def test_pair_repulsion_and_mirror_symmetry(self):
        params = default_params()
        d = 1.1  # inside (2 r_s, r_s + r_a] = (1.0, 1.3]
        u_left, u_right = avoidance_batch(params, [(0.0, 0.0), (d, 0.0)])
        assert u_left[0] < 0.0 and abs(u_left[1]) < 1e-15
        assert np.allclose(u_left, -u_right)

    def test_magnitude_monotone_in_distance(self):
        params = default_params()
        mags = []
        for d in np.linspace(1.29, 1.01, 25):
            mags.append(np.linalg.norm(avoidance_batch(params, [(0.0, 0.0), (d, 0.0)])[0]))
        assert all(b > a for a, b in zip(mags, mags[1:]))

    def test_smooth_activation_at_outer_edge(self):
        params = default_params()
        u2 = avoidance_batch(params, [(0.0, 0.0), (params.r_s + params.r_a, 0.0)])
        assert np.allclose(u2[0], 0.0)

    def test_overlap_is_a_fault(self):
        params = default_params()
        with pytest.raises(SafetyViolation) as exc:
            avoidance_batch(params, [(0.0, 0.0), (0.9, 0.0)])
        assert exc.value.kind == "robot-robot"

    def test_reciprocity_three_robots(self):
        params = default_params()
        u2 = avoidance_batch(params, [(0.0, 0.0), (1.15, 0.1), (0.4, 1.05)])
        assert np.allclose(u2.sum(axis=0), 0.0, atol=1e-12)  # pairwise action-reaction


class TestTubeKeeping:
    def _u3(self, p):
        tube = straight_tube(half_width=2.0)
        params = default_params()
        pts = np.array([p])
        return batch(tube, params, pts, *density_for(tube, params, pts), mode="baseline").u3[0]

    def test_zero_far_from_walls(self):
        assert np.allclose(self._u3((5.0, 0.0)), 0.0)

    def test_pushes_inward_near_upper_wall(self):
        # boundary distance 0.6 is inside the band (0.5, 0.8]
        u3 = self._u3((5.0, 1.4))
        assert u3[1] < 0.0 and abs(u3[0]) < 1e-12

    def test_magnitude_matches_barrier_derivative(self):
        # oracle: finite difference of the barrier potential in b
        params = default_params()
        inner, outer = params.r_s, params.r_s + params.r_t

        def barrier(b):
            if b >= outer:
                return 0.0
            return ((outer - b) / (b - inner)) ** 2

        eps = 1e-7
        for b in (0.55, 0.62, 0.71, 0.79):
            u3 = self._u3((5.0, 2.0 - b))
            slope_fd = (barrier(b + eps) - barrier(b - eps)) / (2 * eps)
            assert abs(np.linalg.norm(u3) - params.k3 * abs(slope_fd)) < 1e-6 * max(
                1.0, abs(slope_fd)
            )

    def test_wall_contact_is_a_fault(self):
        with pytest.raises(SafetyViolation) as exc:
            self._u3((5.0, 1.6))
        assert exc.value.kind == "boundary"


class TestDistributionRegulation:
    def _setup(self):
        tube = straight_tube()
        region = occupied_region_from_arclengths([2.0, 18.0], tube)
        dd = DesiredDensity(tube, region, delta_l=0.8)
        return tube, dd

    def test_points_away_from_cluster(self):
        tube, dd = self._setup()
        params = default_params()
        cluster = np.array([[4.0, 0.0], [4.3, 0.4], [4.2, -0.3], [4.6, 0.1]])
        view = DensityView(cluster, bandwidth=0.8)
        rho, _ = view.estimate_and_gradient_many([(6.0, 0.0)])
        u4 = batch(tube, params, [(6.0, 0.0)], view, dd).u4[0]
        assert u4[0] > 0.0  # cluster behind, command pushes forward
        assert rho[0] > 0

    def test_linear_in_alpha(self):
        # k1 = 4 keeps the cap inactive for both gains (|u4| = 1.75 and
        # 3.5), so the capped term is the raw one
        tube, dd = self._setup()
        view = DensityView(np.array([[4.0, 0.0], [5.0, 0.5]]), bandwidth=0.8)
        p = [(6.0, 0.2)]
        u_a = batch(tube, default_params(alpha0=1.0, k1=4.0, v_max=5.0), p, view, dd)
        u_b = batch(tube, default_params(alpha0=2.0, k1=4.0, v_max=5.0), p, view, dd)
        for cmd in (u_a, u_b):
            assert np.linalg.norm(cmd.u4[0]) < np.linalg.norm(cmd.u1[0] + cmd.u2[0] + cmd.u3[0])
        assert np.allclose(u_b.u4, 2.0 * u_a.u4)

    def test_zero_when_gradients_cancel(self):
        tube, dd = self._setup()
        params = default_params()
        # two symmetric samples make the estimate gradient vanish midway; in
        # the flat target interior the target gradient is ~0 there too
        view = DensityView(np.array([[9.0, 0.6], [11.0, -0.6]]), bandwidth=0.9)
        u4 = batch(tube, params, [(10.0, 0.0)], view, dd).u4[0]
        assert np.linalg.norm(u4) < 1e-6


class TestCondition23:
    def test_oversized_term_rescaled_to_equality(self):
        u123 = np.array([1.0, 0.0])
        capped = cap(u123, [0.0, 2.0])
        assert abs(np.linalg.norm(capped) - np.linalg.norm(u123)) < 1e-15
        assert np.allclose(capped, [0.0, 1.0])

    def test_small_term_unchanged(self):
        u4 = np.array([0.3, -0.2])
        assert np.allclose(cap([1.0, 1.0], u4), u4)

    def test_zero_navigation_forces_zero(self):
        assert np.allclose(cap(np.zeros(2), [5.0, 1.0]), 0.0)
        assert np.allclose(cap([1.0, 0.0], np.zeros(2)), 0.0)


class TestSaturate:
    # k1 = 1 and robots far apart and from the walls: u = u1 = tangents
    def test_below_limit_unchanged(self):
        cmd = direct(default_params(v_max=1.0), [[0.3, 0.4]])
        assert np.allclose(cmd.v[0], [0.3, 0.4]) and cmd.kappa[0] == 1.0

    def test_above_limit_rescaled(self):
        cmd = direct(default_params(v_max=1.0), [[3.0, 4.0]])
        assert np.allclose(cmd.v[0], [0.6, 0.8])
        assert abs(cmd.kappa[0] - 0.2) < 1e-15

    def test_norm_bound_random_sweep(self):
        rng = np.random.default_rng(33)
        for u in np.split(rng.normal(0, 5, (1000, 2)), 10):
            cmd = direct(default_params(v_max=1.3), u)
            assert np.all(np.linalg.norm(cmd.v, axis=1) <= 1.3 + 1e-12)
            assert np.all((0 < cmd.kappa) & (cmd.kappa <= 1.0))
            assert np.allclose(cmd.v, cmd.kappa[:, None] * u)

    def test_zero_input(self):
        cmd = direct(default_params(v_max=1.0), [[0.0, 0.0]])
        assert np.allclose(cmd.v, 0.0) and cmd.kappa[0] == 1.0


class TestComposeVelocity:
    def _scene(self):
        tube = straight_tube()
        params = default_params()
        pts = np.array([(10.0, 0.0), (3.0, 0.5), (3.0, -0.8)])
        view = DensityView(pts, bandwidth=params.h)
        region = occupied_region_from_arclengths([3.0, 10.0], tube)
        dd = DesiredDensity(tube, region, delta_l=0.8)
        return tube, params, pts, view, dd

    def test_isolated_robot_runs_at_approach_speed_baseline(self):
        tube, params, pts, view, dd = self._scene()
        cmd = batch(tube, params, pts, view, dd, mode="baseline")
        assert np.allclose(cmd.u2[0], 0.0) and np.allclose(cmd.u3[0], 0.0)
        assert np.allclose(cmd.v[0], [params.k1, 0.0])
        assert cmd.kappa[0] == 1.0

    def test_exact_decomposition_and_norm_bound(self):
        tube, params, pts, view, dd = self._scene()
        for mode in ("full", "baseline"):
            cmd = batch(tube, params, pts, view, dd, mode=mode)
            recomposed = cmd.kappa[:, None] * (cmd.u1 + cmd.u2 + cmd.u3 + cmd.u4)
            assert np.allclose(cmd.v, recomposed, atol=0)
            assert np.all(np.linalg.norm(cmd.v, axis=1) <= params.v_max + 1e-12)
            n123 = np.linalg.norm(cmd.u1 + cmd.u2 + cmd.u3, axis=1)
            assert np.all(np.linalg.norm(cmd.u4, axis=1) <= n123 + 1e-15)

    def test_baseline_ignores_density(self):
        tube, params, pts, view, dd = self._scene()
        cmd1 = batch(tube, params, pts, view, dd, mode="baseline")
        # moving a far-away robot (outside r_s + r_a) changes nothing
        pts2 = pts.copy()
        pts2[1] = (5.0, 0.9)
        view2 = DensityView(pts2, bandwidth=params.h)
        region2 = occupied_region_from_arclengths([5.0, 10.0], tube)
        dd2 = DesiredDensity(tube, region2, delta_l=0.8)
        cmd2 = batch(tube, params, pts2, view2, dd2, mode="baseline")
        assert np.array_equal(cmd1.v[0], cmd2.v[0])

    def test_matched_density_reduces_to_baseline(self):
        # when the estimate and target gradients agree at the query point the
        # regulation term vanishes and full mode equals baseline there
        tube, params, pts, view, dd = self._scene()
        full = batch(tube, params, pts, view, dd, mode="full")
        base = batch(tube, params, pts, view, dd, mode="baseline")
        gap = np.linalg.norm(full.v - base.v, axis=1)
        assert np.all(gap <= np.linalg.norm(full.u4, axis=1) + 1e-12)

    def test_locality_of_barriers(self):
        tube, params, pts, view, dd = self._scene()
        cmd = batch(tube, params, pts, view, dd, mode="full")
        # robot 0 has no neighbor within reach and is far from walls
        assert np.allclose(cmd.u2[0], 0.0)
        assert np.allclose(cmd.u3[0], 0.0)

    def test_unknown_mode_rejected(self):
        tube, params, pts, view, dd = self._scene()
        with pytest.raises(ValueError):
            batch(tube, params, pts, view, dd, mode="fast")


class TestZeroErrorFixedPoint:
    def test_full_equals_baseline_when_gradients_cancel(self):
        # flat target interior (zero target gradient) and a query point midway
        # between two symmetric samples (zero estimate gradient): the
        # regulation term vanishes exactly and full mode equals baseline
        tube = straight_tube()
        params = default_params()
        region = occupied_region_from_arclengths([2.0, 18.0], tube)
        dd = DesiredDensity(tube, region, delta_l=0.8)
        pts = np.array([(10.0, 0.0), (8.5, 0.0), (11.5, 0.0)])
        view = DensityView(pts, bandwidth=params.h)
        full = batch(tube, params, pts, view, dd, mode="full")
        base = batch(tube, params, pts, view, dd, mode="baseline")
        assert np.array_equal(full.v[0], base.v[0])
        assert np.array_equal(full.u4[0], np.zeros(2))


# ---------------------------------------------------------------------------
# the batch against the scalar oracle
# ---------------------------------------------------------------------------

OPEN_TUBE = straight_tube(length=20.0, half_width=2.0, extension=20.6)
CLOSED_TUBE = ring_tube(radius=6.0, half_width=2.0)


def check_against_oracle(tube, params, mode, positions):
    """Assert that every row of the batch equals the oracle's command for
    that robot within 1e-12 of the robot's summed term norms, which bound
    its command norm; returns the batch."""
    pts = np.asarray(positions, dtype=float)
    view, dd = density_for(tube, params, pts)
    got = batch(tube, params, pts, view, dd, mode=mode)
    swarm = make_swarm(pts)
    for i in range(len(pts)):
        want = oracle_compose(tube, params, i, swarm, view, dd, mode=mode)
        terms = (want.u1, want.u2, want.u3, want.u4)
        tol = 1e-12 * sum(float(np.linalg.norm(t)) for t in terms)
        for name, w in zip(("u1", "u2", "u3", "u4", "v"), (*terms, want.v)):
            assert np.linalg.norm(getattr(got, name)[i] - w) <= tol, (name, i)
        assert abs(got.kappa[i] - want.kappa_m) <= 1e-12 * want.kappa_m
    return got


def active_clamps(got):
    """Which of the barriers, the cap and the saturation act on some robot."""
    n123 = np.linalg.norm(got.u1 + got.u2 + got.u3, axis=1)
    n4 = np.linalg.norm(got.u4, axis=1)
    return {
        "u2 barrier": bool(got.u2.any()),
        "u3 barrier": bool(got.u3.any()),
        "cap": bool(np.any((n4 > 0.0) & np.isclose(n4, n123, rtol=1e-12, atol=0.0))),
        "saturation": bool(np.any(got.kappa < 1.0)),
    }


def placements(tube, starts, gaps, offsets, params):
    """Robots at increasing arc lengths with the given gaps, offsets as
    fractions of the half-width that keeps r_s clear of the walls."""
    ls = starts + np.concatenate([[0.0], np.cumsum(gaps)])
    half = float(tube.widths.r_d(0.0)) - params.r_s - 1e-6
    return tube.section_points(ls, half * np.asarray(offsets))


class TestBatchAgainstOracle:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        closed=st.booleans(),
        mode=st.sampled_from(["full", "baseline"]),
        u1_mode=st.sampled_from(["modified", "original"]),
        k2=st.floats(0.005, 0.5),
        k3=st.floats(0.005, 0.5),
        alpha0=st.floats(0.0, 50.0),
        v_max=st.floats(1.0, 3.0),
        h=st.floats(0.3, 2.0),
        start=st.floats(0.0, 1.0),
        robots=st.lists(st.tuples(st.floats(1.001, 1.6), st.floats(-0.99, 0.99)),
                        min_size=1, max_size=7),
    )
    def test_batch_matches_the_scalar_oracle(self, closed, mode, u1_mode, k2, k3, alpha0,
                                             v_max, h, start, robots):
        params = default_params(k2=k2, k3=k3, alpha0=alpha0, v_max=v_max, h=h, u1_mode=u1_mode)
        tube = CLOSED_TUBE if closed else OPEN_TUBE
        gaps = np.array([g for g, _ in robots[1:]])
        span = float(gaps.sum())
        # open tube: the last robot may reach l = L - 0.01, inside the
        # original-mode decay zone that starts at L' - k1 / eta_min = 19.6
        starts = 0.05 + start * (tube.length - 0.06 - span)
        pts = placements(tube, starts, gaps, [r for _, r in robots], params)
        if len(pts) >= 2:
            d = np.linalg.norm(pts[:, None] - pts[None], axis=-1)
            np.fill_diagonal(d, np.inf)
            assume(d.min() > 2.0 * params.r_s)
        got = check_against_oracle(tube, params, mode, pts)
        for clamp, active in active_clamps(got).items():
            if active:
                event(f"{clamp} active")  # shown by --hypothesis-show-statistics

    # (closed, gaps, offsets): a pair about 1.05 m apart (u2 barrier) at
    # boundary distance about 0.55 (u3 barrier); on the ring the pair sits
    # on the outer side, where arc-length gaps stretch
    @pytest.mark.parametrize("closed, gaps, offsets", [
        (False, [1.05, 1.25], [0.966, 0.966, -0.2]),
        (True, [0.85, 1.25], [-0.966, -0.966, 0.2]),
    ])
    def test_every_clamp_active(self, closed, gaps, offsets):
        # a large alpha0 caps u4, v_max = k1 saturates the sum, and on the
        # open tube the last robot is in the original mode's decay zone
        tube = CLOSED_TUBE if closed else OPEN_TUBE
        params = default_params(alpha0=50.0, v_max=1.0, u1_mode="original")
        pts = placements(tube, 19.9 - sum(gaps), gaps, offsets, params)
        got = check_against_oracle(tube, params, "full", pts)
        assert all(active_clamps(got).values()), active_clamps(got)
        if not closed:
            assert np.linalg.norm(got.u1[2]) < params.k1

    @pytest.mark.parametrize("mode", ["full", "baseline"])
    @pytest.mark.parametrize("inside", [0.0, 0.1])
    def test_inner_edges_raise_with_their_kind(self, mode, inside):
        tube = straight_tube(half_width=2.0)
        params = default_params()
        pair = np.array([(3.0, 0.0), (4.0 - inside, 0.0)])  # 2 r_s apart, or less
        with pytest.raises(SafetyViolation) as exc:
            batch(tube, params, pair, *density_for(tube, params, pair), mode=mode, ids=[7, 9])
        assert exc.value.kind == "robot-robot"
        assert (exc.value.details["i"], exc.value.details["j"]) == (7, 9)
        wall = np.array([(3.0, 0.0), (8.0, 1.5 + inside)])  # r_s from the wall, or less
        with pytest.raises(SafetyViolation) as exc:
            batch(tube, params, wall, *density_for(tube, params, wall), mode=mode, ids=[7, 9])
        assert exc.value.kind == "boundary"
        assert exc.value.details["robot"] == 9
