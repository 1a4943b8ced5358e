import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubenav import blocks, density, engine
from tubenav.density import (
    _CULL_RADIUS,
    _GL20_NODES,
    _GL20_WEIGHTS,
    OccupiedRegion,
    _region_grids,
    DensityView,
    DesiredDensity,
    density_error_l2_from_view,
    occupied_region_from_arclengths,
    silverman_bandwidth,
)
from tubenav.engine import run
from tubenav.errors import TubeDomainError
from tubenav.geometry import (
    ArcSegment,
    CatmullRomSegment,
    GeneratingCurve,
    LineSegment,
    VirtualTube,
    WidthProfile,
)
from tubenav.scenario import bundled_scenario_path, load_scenario, scenario_from_dict

import broadcast_kernels as bk
from scalar_tube import CurvilinearCoord, section_points, to_cartesian, to_curvilinear


def straight_tube(length=10.0, r_d=1.0, r_u=1.0):
    curve = GeneratingCurve([LineSegment((0.0, 0.0), (length, 0.0))])
    return VirtualTube(curve, WidthProfile([(0.0, r_d, r_u), (length, r_d, r_u)]))


def tapered_tube(length=10.0, r0=2.0, r1=1.0):
    curve = GeneratingCurve([LineSegment((0.0, 0.0), (length, 0.0))])
    return VirtualTube(curve, WidthProfile([(0.0, r0, r0), (length, r1, r1)]))


def brute_force_kde(samples, h, p):
    """Independent direct-sum oracle for the Gaussian kernel estimate."""
    total = 0.0
    for s in samples:
        z2 = ((p[0] - s[0]) ** 2 + (p[1] - s[1]) ** 2) / h**2
        total += math.exp(-0.5 * z2) / (2 * math.pi)
    return total / (len(samples) * h**2)


def _region_grid(tube, region, resolution):
    """One region's grid from the density-error pass: column arc lengths
    (n_l,), the cell length, the columns' frames, their radial lattice
    (r_d, dr, n_r) and the cell-centre offsets (n_l, n_r) it puts the cells
    at."""
    ls, dl, frames, r_d, dr = _region_grids(tube, [region], resolution)
    lattice = (r_d, dr, resolution[1])
    return ls[0], dl[0], frames, lattice, bk.cell_offsets(*lattice)


def sections(view, origins, tangents, normals, lattice):
    """The kernel density on one record's grid, (n_l, n_r), of columns with
    the radial lattice (r_d, dr, n_r): the one-record case of
    density.section_estimates."""
    return density.section_estimates([view], origins, tangents, normals, *lattice)[0]


def error_grid(view, dd, tube, region, resolution):
    """Estimate, target and cell areas, (n_l, n_r) each, on one region's
    grid: the fields whose difference the density-error metric integrates."""
    ls, dl, frames, lattice, _ = _region_grid(tube, region, resolution)
    rho_hat = sections(view, *frames, lattice)
    rho_d = np.broadcast_to(dd.profile_many(ls)[:, None], rho_hat.shape)
    return rho_hat, rho_d, np.broadcast_to((lattice[1] * dl)[:, None], rho_hat.shape)


def estimate_at(view, p):
    return float(view.estimate_and_gradient_many(p)[0][0])


def kde_gradient_at(view, p):
    return view.estimate_and_gradient_many(p)[1][0]


# ---------------------------------------------------------------------------
# KDE estimate
# ---------------------------------------------------------------------------

class TestKdeEstimate:
    def test_single_sample_peak(self):
        view = DensityView(np.array([[0.0, 0.0]]), bandwidth=1.0)
        assert abs(estimate_at(view, (0.0, 0.0)) - 1.0 / (2 * math.pi)) < 1e-15

    def test_two_sample_symmetry_and_linearity(self):
        view = DensityView(np.array([[1.0, 0.0], [-1.0, 0.0]]), bandwidth=1.0)
        v_center = estimate_at(view, (0.0, 0.0))
        v_mirror = estimate_at(view, (0.0, 0.0))
        assert v_center == v_mirror
        single = DensityView(np.array([[1.0, 0.0]]), bandwidth=1.0)
        # at the midpoint both kernels contribute the distance-1 value
        assert abs(v_center - estimate_at(single, (0.0, 0.0))) < 1e-15

    def test_against_brute_force_sum(self):
        rng = np.random.default_rng(13)
        samples = rng.normal(0, 2, size=(25, 2))
        view = DensityView(samples, bandwidth=0.7)
        for p in rng.normal(0, 2, size=(10, 2)):
            assert abs(estimate_at(view, p) - brute_force_kde(samples, 0.7, p)) < 1e-12

    def test_zero_robots_rejected(self):
        with pytest.raises(ValueError):
            DensityView(np.zeros((0, 2)), bandwidth=1.0)

    @pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_bandwidth_not_positive_and_finite_rejected(self, h):
        with pytest.raises(ValueError, match=re.escape(f"positive and finite, got {h!r}")):
            DensityView(np.zeros((2, 2)), bandwidth=h)

    @pytest.mark.parametrize("n, h", [
        (1, 1e-300),   # n h^2 underflows to zero: was a ZeroDivisionError
        (1, 1e-103),   # n h^2 normal, n h^3 subnormal
        (1, 1e120),    # h^3 overflows: was an OverflowError
        (200, 1e102),  # h^3 finite, n h^3 overflows
    ])
    def test_bandwidth_without_normal_scales_rejected(self, n, h):
        with pytest.raises(ValueError, match=re.escape(f"bandwidth {h!r} with {n} robots")):
            DensityView(np.zeros((n, 2)), bandwidth=h)

    @pytest.mark.parametrize("n, h", [(1, 1e-102), (1, 1e102), (100, 1e102)])
    def test_bandwidth_with_normal_scales_accepted(self, n, h):
        view = DensityView(np.zeros((n, 2)), bandwidth=h)
        rho, grad = view.estimate_and_gradient_many(np.zeros((1, 2)))
        assert math.isclose(rho[0], 1.0 / (2 * math.pi * h * h), rel_tol=1e-12)
        assert not grad.any()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_position_rejected_by_its_first_row(self, bad):
        positions = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, bad], [bad, 4.0]])
        with pytest.raises(ValueError, match=re.escape(f"position row 2 is not finite: [3.0, {bad!r}]")):
            DensityView(positions, bandwidth=1.0)

    def test_positivity(self):
        # strictly positive wherever the kernel exponent is representable
        # (beyond ~38 bandwidths exp underflows double precision to 0)
        view = DensityView(np.array([[0.0, 0.0]]), bandwidth=0.5)
        for p in [(15.0, 0.0), (-10.0, 6.0), (0.0, 0.0), (0.0, -17.0)]:
            assert estimate_at(view, p) > 0.0

    def test_total_mass(self):
        # numeric check that the kernel mixture integrates to one; the disk
        # of radius 6h around the samples already carries > 0.999 of it
        rng = np.random.default_rng(4)
        samples = rng.uniform(-1, 1, size=(12, 2))
        h = 0.4
        view = DensityView(samples, bandwidth=h)
        lo = samples.min(axis=0) - 6 * h
        hi = samples.max(axis=0) + 6 * h
        n = 400
        xs = np.linspace(lo[0], hi[0], n)
        ys = np.linspace(lo[1], hi[1], n)
        dx = xs[1] - xs[0]
        dy = ys[1] - ys[0]
        grid = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
        mass = float(np.sum(view.estimate_and_gradient_many(grid)[0])) * dx * dy
        assert mass >= 0.999
        assert mass <= 1.0 + 1e-3


class TestKdeGradient:
    def test_zero_at_sample_point(self):
        view = DensityView(np.array([[0.0, 0.0]]), bandwidth=1.0)
        assert np.allclose(kde_gradient_at(view, (0.0, 0.0)), 0.0)

    def test_points_downhill_away_from_sample(self):
        view = DensityView(np.array([[0.0, 0.0]]), bandwidth=1.0)
        g = kde_gradient_at(view, (0.8, 0.0))
        assert g[0] < 0.0 and abs(g[1]) < 1e-15

    def test_matches_finite_differences(self):
        # oracle: central differences of the estimate
        rng = np.random.default_rng(21)
        samples = rng.normal(0, 1.5, size=(25, 2))
        view = DensityView(samples, bandwidth=0.6)
        h = 1e-5
        for p in rng.normal(0, 1.5, size=(100, 2)):
            g = kde_gradient_at(view, p)
            fd = np.array(
                [
                    (estimate_at(view, p + [h, 0]) - estimate_at(view, p - [h, 0])) / (2 * h),
                    (estimate_at(view, p + [0, h]) - estimate_at(view, p - [0, h])) / (2 * h),
                ]
            )
            assert np.linalg.norm(g - fd) <= 1e-6 * (1.0 + np.linalg.norm(g))


class TestSilverman:
    def test_clamped_to_safety_radius_band(self):
        tight = np.zeros((9, 2))
        assert silverman_bandwidth(tight, 0.5) == 0.25
        wide = np.array([[0, 0], [100, 0], [0, 100], [100, 100.0]])
        assert silverman_bandwidth(wide, 0.5) == 2.0


# ---------------------------------------------------------------------------
# occupied region
# ---------------------------------------------------------------------------

def mask_one_mass(tube, region):
    """The target's mass integral with the mask held at 1: the integral of
    2 r_c^2 over the region, by the library's quadrature."""
    dd = DesiredDensity(tube, region, delta_l=0.5)
    dd.full_ring = True  # _mask returns ones
    return dd._mass()


class TestOccupiedRegion:
    def test_min_max_arclengths(self):
        tube = straight_tube()
        pts = [(1.0, 0.2), (3.0, -0.5), (7.0, 0.0)]
        region = occupied_region_from_arclengths(tube.curve.project_many(pts).l, tube)
        assert abs(region.l_b - 1.0) < 1e-9
        assert abs(region.l_f - 7.0) < 1e-9

    def test_degenerate_single_robot_expanded(self):
        tube = straight_tube()
        region = occupied_region_from_arclengths([4.0], tube, min_halfwidth=0.5)
        assert abs(region.l_b - 3.5) < 1e-12
        assert abs(region.l_f - 4.5) < 1e-12
        assert mask_one_mass(tube, region) > 0

    def test_lambda_constant_capacity(self):
        tube = straight_tube()  # r_c = 1 everywhere
        region = occupied_region_from_arclengths([0.0, 10.0], tube)
        assert abs(1.0 / mask_one_mass(tube, region) - 1.0 / 20.0) < 1e-12

    def test_no_active_robots(self):
        tube = straight_tube()
        with pytest.raises(ValueError):
            occupied_region_from_arclengths([], tube)

    def test_closed_tube_covering_arc(self):
        curve = GeneratingCurve([ArcSegment((0, 0), 2.0, 0.0, 2 * math.pi)], closed=True)
        tube = VirtualTube(curve, WidthProfile([(0.0, 0.3, 0.3)]), topology="closed")
        L = tube.length
        # robots bunched around the seam: covering arc must wrap, not span L
        ls = [L - 0.5, L - 0.2, 0.3, 0.6]
        region = occupied_region_from_arclengths(ls, tube)
        assert abs(region.span - 1.1) < 1e-9
        assert abs(region.l_b - (L - 0.5)) < 1e-9


# ---------------------------------------------------------------------------
# desired density
# ---------------------------------------------------------------------------

def target_at(dd, pts):
    """Target density at Cartesian points, through their projections."""
    return dd.profile_many(dd.tube.curve.project_many(pts).l)


def target_gradient_at(dd, pts):
    """Target gradient at Cartesian points, from their projections as the
    engine computes it."""
    prs = dd.tube.curve.project_many(pts)
    return dd.gradient_many(prs.l, prs.r, prs.tangent, prs.curvature)


def spine_gradient(dd, ls, rs):
    """Target gradient at tube coordinates, with the tangents and signed
    curvatures read from one eval_scalar call per arc length."""
    frames = np.array([dd.tube.curve.eval_scalar(float(l)) for l in ls]).reshape(-1, 6)
    tx, ty, cx, cy = frames[:, 2], frames[:, 3], frames[:, 4], frames[:, 5]
    return dd.gradient_many(ls, rs, frames[:, 2:4], ty * -cx + tx * cy)


class TestDesiredDensity:
    def test_uniform_interior_value(self):
        tube = straight_tube()  # constant r_c = 1
        region = occupied_region_from_arclengths([0.0, 10.0], tube)
        delta = 0.5
        dd = DesiredDensity(tube, region, delta_l=delta)
        # cosine ramps carry half mass, so the interior sits at
        # 1/(2 r_c (span - delta)); that is within ~delta/span of uniform
        expected = 1.0 / (2.0 * 1.0 * (10.0 - delta))
        got = target_at(dd, [(5.0, 0.3)])[0]
        assert abs(got - expected) < 1e-9
        uniform = 1.0 / (2.0 * 1.0 * 10.0)
        assert abs(got - uniform) / uniform < 0.06

    def test_zero_outside_region(self):
        tube = straight_tube(length=20.0)
        region = occupied_region_from_arclengths([5.0, 10.0], tube)
        dd = DesiredDensity(tube, region, delta_l=0.5)
        assert np.all(target_at(dd, [(2.0, 0.0), (15.0, 0.0)]) == 0.0)

    def test_normalization_linear_capacity(self):
        # oracle: closed-form integral of 2 (a + b l)^2 over the region
        tube = tapered_tube(r0=2.0, r1=1.0)  # r_c(l) = 2 - 0.1 l
        region = occupied_region_from_arclengths([1.0, 9.0], tube)
        a, b = 2.0, -0.1

        def anti(l):
            return 2.0 * (a + b * l) ** 3 / (3.0 * b)

        exact = anti(9.0) - anti(1.0)
        assert abs(mask_one_mass(tube, region) - exact) < 1e-9

    def test_unit_mass_after_mollification(self):
        # oracle: high-resolution quadrature of the mollified field over the tube
        tube = tapered_tube(r0=2.0, r1=1.0)
        region = occupied_region_from_arclengths([1.0, 9.0], tube)
        dd = DesiredDensity(tube, region, delta_l=0.6)
        ls = np.linspace(0.0, tube.length, 200_001)
        vals = dd.profile_many(ls) * 2.0 * tube.widths.r_c(ls)  # width integral per l
        mass = float(np.trapezoid(vals, ls))
        assert abs(mass - 1.0) < 1e-6

    def test_constant_on_cross_sections(self):
        tube = tapered_tube()
        region = occupied_region_from_arclengths([1.0, 9.0], tube)
        dd = DesiredDensity(tube, region, delta_l=0.5)
        rng = np.random.default_rng(2)
        for _ in range(20):
            l = float(rng.uniform(1.0, 9.0))
            r1, r2 = rng.uniform(-0.9, 0.9, 2)
            v1, v2 = target_at(dd, [to_cartesian(tube, CurvilinearCoord(l, float(r1))),
                                    to_cartesian(tube, CurvilinearCoord(l, float(r2)))])
            assert abs(v1 - v2) < 1e-12

    def test_capacity_proportionality_in_interior(self):
        tube = tapered_tube(r0=2.0, r1=1.0)
        region = occupied_region_from_arclengths([1.0, 9.0], tube)
        dd = DesiredDensity(tube, region, delta_l=0.5)
        l1, l2 = 3.0, 7.0  # both in the un-mollified interior
        rho_1, rho_2 = dd.profile_many([l1, l2])
        ratio = rho_1 / rho_2
        cap_ratio = tube.widths.r_c(l1) / tube.widths.r_c(l2)
        assert abs(ratio - cap_ratio) < 1e-9

    def test_full_ring_needs_no_ramps(self):
        curve = GeneratingCurve([ArcSegment((0, 0), 2.0, 0.0, 2 * math.pi)], closed=True)
        tube = VirtualTube(curve, WidthProfile([(0.0, 0.3, 0.3)]), topology="closed")
        L = tube.length
        # exact full coverage: constant-capacity ring, no edges to mollify
        region = OccupiedRegion(l_b=0.0, l_f=L)
        dd = DesiredDensity(tube, region, delta_l=0.2)
        vals = dd.profile_many(np.linspace(0, L, 50))
        assert np.allclose(vals, vals[0], rtol=0, atol=1e-15)
        assert abs(vals[0] - 0.3 / (2.0 * 0.3**2 * L)) < 1e-15

    def test_nearly_full_ring_keeps_a_seam_dip(self):
        curve = GeneratingCurve([ArcSegment((0, 0), 2.0, 0.0, 2 * math.pi)], closed=True)
        tube = VirtualTube(curve, WidthProfile([(0.0, 0.3, 0.3)]), topology="closed")
        ls = np.linspace(0.0, tube.length, 40, endpoint=False)
        region = occupied_region_from_arclengths(ls, tube)
        dd = DesiredDensity(tube, region, delta_l=0.1)
        # the largest inter-robot gap stays outside the covering arc
        gap_mid = region.l_f + 0.5 * (tube.length - region.span)
        assert dd.profile_many([gap_mid % tube.length])[0] == 0.0


# The normalizer as it was computed before the single Gauss-Legendre pass:
# Simpson per width piece on 2 r_c^2 (a region that covers the ring), or
# that interior plus Gauss-Legendre ramp bands cut at the width-knot images.

def _integral_2rc2(tube, a, b):
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


def _split_at_knots(tube, a, b):
    L = tube.length
    knots = tube.widths.knot_ls
    if tube.closed:
        knots = np.concatenate(
            [knots + k * L for k in range(math.floor(a / L), math.ceil(b / L) + 1)]
        )
    inner = knots[(knots > a + 1e-15) & (knots < b - 1e-15)]
    cuts = np.concatenate([[a], np.sort(inner), [b]])
    return list(zip(cuts[:-1], cuts[1:]))


def two_path_mass(dd):
    """The oracle: the mass 1 / lam_moll by the two former paths."""
    tube = dd.tube
    l_b, l_f, d = dd.region.l_b, dd.region.l_f, dd.delta
    if dd.full_ring:
        return _integral_2rc2(tube, l_b, l_f)
    interior = _integral_2rc2(tube, l_b + d, l_f - d) if l_f - d > l_b + d else 0.0

    def ramp_integral(a, b):
        if b <= a:
            return 0.0
        total = 0.0
        for lo, hi in _split_at_knots(tube, a, b):
            mid = 0.5 * (lo + hi)
            half = 0.5 * (hi - lo)
            xs = mid + half * _GL20_NODES
            r_c = tube.widths.r_c(np.mod(xs, tube.length) if tube.closed else xs)
            mask = density._mask(xs, l_b, l_f, d, dd.full_ring, slope=True)[0]
            total += float(np.dot(mask * 2.0 * r_c ** 2, _GL20_WEIGHTS)) * half
        return total

    return interior + ramp_integral(l_b, min(l_b + d, l_f)) + ramp_integral(
        max(l_f - d, l_b + d), l_f)


@st.composite
def mass_cases(draw):
    """A tube, its occupied region and the mollification width.  Closed
    tubes are rings with widths periodic across the seam; regions may wrap
    the seam or cover the ring; some width knots fall inside the ramp
    bands."""
    closed = draw(st.booleans())
    L = draw(st.floats(4.0, 30.0))
    delta_l = draw(st.floats(0.25, 3.0))
    if closed and draw(st.integers(0, 3)) == 0:
        span = L  # the whole ring
        l_b = draw(st.sampled_from([0.0, draw(st.floats(0.0, L))]))
    else:
        span = draw(st.floats(0.5, L - 0.01))
        l_b = draw(st.floats(0.0, L if closed else L - span))
    delta = min(delta_l, 0.5 * span)
    fracs = draw(st.lists(st.floats(0.0, 1.0), max_size=3))
    ends = draw(st.lists(st.booleans(), min_size=len(fracs), max_size=len(fracs)))
    in_bands = [(l_b + f * delta) if rear else (l_b + span - f * delta)
                for f, rear in zip(fracs, ends)]
    free = draw(st.lists(st.floats(0.0, L), min_size=0 if closed else 1, max_size=4))
    ls = np.array(in_bands + free)
    if closed:
        ls = np.mod(ls, L)
        ls = ls[(ls > 1e-6) & (ls < L - 1e-6)]
        ls = np.concatenate([[0.0], ls, [L]])
    else:
        ls = ls[(ls >= 0.0) & (ls <= L)]
    ls = np.sort(ls)
    ls = ls[np.concatenate([[True], np.diff(ls) > 1e-6])]
    hi = 0.4 if closed else 3.0
    widths = draw(st.lists(st.tuples(st.floats(0.1, hi), st.floats(0.1, hi)),
                           min_size=len(ls), max_size=len(ls)))
    if closed:
        widths[-1] = widths[0]
    knots = [(l, rd, ru) for l, (rd, ru) in zip(ls, widths)]
    if closed:
        curve = GeneratingCurve([ArcSegment((0, 0), L / (2 * math.pi), 0.0, 2 * math.pi)],
                                closed=True)
        tube = VirtualTube(curve, WidthProfile(knots), topology="closed")
    else:
        tube = VirtualTube(GeneratingCurve([LineSegment((0.0, 0.0), (L, 0.0))]),
                           WidthProfile(knots))
    return tube, OccupiedRegion(l_b=l_b, l_f=l_b + span), delta_l


class TestNormalization:
    """The one-pass mass integral against the two former paths and a dense
    trapezoid."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=mass_cases())
    def test_property_matches_two_path_oracle_and_unit_mass(self, case):
        tube, region, delta_l = case
        dd = DesiredDensity(tube, region, delta_l)
        want = two_path_mass(dd)
        assert abs(1.0 / dd.lam_moll - want) <= 1e-13 * want
        xs = np.linspace(region.l_b, region.l_f, 200_001)
        r_c = tube.widths.r_c(np.mod(xs, tube.length) if tube.closed else xs)
        mass = float(np.trapezoid(dd.profile_many(xs) * 2.0 * r_c, xs))
        assert abs(mass - 1.0) < 1e-6

    def test_cases_cover_every_kind(self):
        # the strategy reaches wrapped regions, full rings and knots in ramps
        seen = set()

        @settings(max_examples=200, deadline=None, derandomize=True)
        @given(case=mass_cases())
        def collect(case):
            tube, region, delta_l = case
            dd = DesiredDensity(tube, region, delta_l)
            knots = tube.widths.knot_ls
            seen.add("closed" if tube.closed else "open")
            if dd.full_ring:
                seen.add("full ring")
            elif tube.closed and region.l_f > tube.length:
                seen.add("wraps the seam")
            if tube.closed:
                knots = np.concatenate([knots + k * tube.length for k in (-1, 0, 1, 2)])
            bands = [(region.l_b, region.l_b + dd.delta), (region.l_f - dd.delta, region.l_f)]
            if not dd.full_ring and any(((knots > a) & (knots < b)).any() for a, b in bands):
                seen.add("knot in a ramp band")

        collect()
        assert seen == {"open", "closed", "full ring", "wraps the seam", "knot in a ramp band"}

    def test_one_gauss_legendre_pass(self, monkeypatch):
        # the bundled S tube: one _mask call on an (n_pieces, 20) array
        tube = load_scenario(bundled_scenario_path("narrow_s_tube")).tube
        calls = []
        original = density._mask

        def counted(ls, *args, **kwargs):
            calls.append(np.shape(ls))
            return original(ls, *args, **kwargs)

        monkeypatch.setattr(density, "_mask", counted)
        dd = DesiredDensity(tube, occupied_region_from_arclengths([2.0, 27.0], tube), 1.5)
        # cut at 2, 3.5, 6, 8, 19, 23, 25.5, 27
        assert calls == [(7, 20)]
        assert abs(1.0 / dd.lam_moll - two_path_mass(dd)) <= 1e-13 / dd.lam_moll

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=mass_cases(), fracs=st.lists(st.floats(-0.2, 1.2), min_size=1, max_size=20))
    def test_property_mask_only_path(self, case, fracs):
        """_mass and profile_many read the mask alone: bit for bit the mask
        that _mask returns with its slope, without building the ramps'
        slope."""
        tube, region, delta_l = case
        ls = region.l_b + np.array(fracs) * region.span
        if not tube.closed:
            ls = np.clip(ls, 0.0, tube.length)
        slope_calls = []
        original = density._mask

        def counted(ls, *args, slope=False):
            slope_calls.append(slope)
            return original(ls, *args, slope=slope)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(density, "_mask", counted)
            dd = DesiredDensity(tube, region, delta_l)
            profile = dd.profile_many(ls)
        assert slope_calls == [False, False]
        args = (region.l_b, region.l_f, dd.delta, dd.full_ring)
        ls_u = density._unwrap(tube, ls, region.l_b)
        mask = density._mask(ls_u, *args, slope=True)[0]
        assert density._mask(ls_u, *args).tobytes() == mask.tobytes()
        want = dd.lam_moll * tube.widths.r_c(density._wrap(tube, ls_u)) * mask
        assert profile.tobytes() == want.tobytes()


class TestDesiredDensityGradient:
    def test_zero_in_uniform_interior(self):
        tube = straight_tube()
        region = occupied_region_from_arclengths([0.0, 10.0], tube)
        dd = DesiredDensity(tube, region, delta_l=0.5)
        g = target_gradient_at(dd, [(5.0, 0.2)])[0]
        assert np.linalg.norm(g) < 1e-8

    def test_rear_skirt_points_forward(self):
        tube = straight_tube()
        region = occupied_region_from_arclengths([2.0, 8.0], tube)
        dd = DesiredDensity(tube, region, delta_l=0.5)
        g = target_gradient_at(dd, [(2.25, 0.0)])[0]  # inside the rear ramp
        assert g[0] > 0.0
        assert abs(g[1]) < 1e-8

    def test_matches_analytic_slope_for_linear_capacity(self):
        # straight tube, linear r_c: d rho_d / dx = lam_moll * r_c'(l)
        tube = tapered_tube(r0=2.0, r1=1.0)
        region = occupied_region_from_arclengths([1.0, 9.0], tube)
        dd = DesiredDensity(tube, region, delta_l=0.5)
        g = target_gradient_at(dd, [(5.0, 0.4)])[0]
        slope = dd.lam_moll * (-0.1)
        assert abs(g[0] - slope) < 1e-4
        assert abs(g[1]) < 1e-6


def oracle_gradient(dd, ls, rs):
    """The target gradient with its own spine frame per point: one
    eval_scalar call per arc length for the tangent and the curvature
    vector c, kappa = c . n."""
    ls = np.asarray(ls, dtype=float)
    rs = np.asarray(rs, dtype=float)
    frames = np.array([dd.tube.curve.eval_scalar(float(l)) for l in ls]).reshape(-1, 6)
    tx, ty, cx, cy = frames[:, 2], frames[:, 3], frames[:, 4], frames[:, 5]
    stretch = 1.0 - (ty * -cx + tx * cy) * rs
    if np.any(stretch <= 0.0):
        raise TubeDomainError("at or past the centre of curvature")
    slope = dd.profile_slope_many(ls) / stretch
    return np.stack([slope * tx, slope * ty], axis=1)


def fd_gradient(dd, pts, seed_ls, h=1e-4):
    """Central differences of the profile composed with the projection, one
    projection per stencil point; one-sided where a stencil point projects
    past a terminal section.  The oracle for the analytic gradient."""
    pts = np.asarray(pts, dtype=float)
    m = len(pts)
    offsets = np.array([[h, 0.0], [-h, 0.0], [0.0, h], [0.0, -h]])
    stencil = (pts[:, None, :] + offsets[None, :, :]).reshape(-1, 2)
    ls = np.empty(4 * m)
    usable = np.empty(4 * m, dtype=bool)
    for k in range(4 * m):
        pr = dd.tube.curve.project(stencil[k], seed_l=float(seed_ls[k // 4]))
        ls[k] = pr.l
        usable[k] = not (pr.beyond_start or pr.beyond_end)
    vals = dd.profile_many(ls).reshape(m, 4)
    usable = usable.reshape(m, 4)
    center = dd.profile_many(np.asarray(seed_ls, dtype=float))
    grad = np.empty((m, 2))
    for i in range(m):
        for axis, (j_plus, j_minus) in enumerate(((0, 1), (2, 3))):
            if usable[i, j_plus] and usable[i, j_minus]:
                grad[i, axis] = (vals[i, j_plus] - vals[i, j_minus]) / (2.0 * h)
            elif usable[i, j_plus]:
                grad[i, axis] = (vals[i, j_plus] - center[i]) / h
            elif usable[i, j_minus]:
                grad[i, axis] = (center[i] - vals[i, j_minus]) / h
            else:
                raise ValueError("finite-difference stencil entirely outside the tube")
    return grad


def _ring(radius=0.8, half_width=0.12):
    curve = GeneratingCurve([ArcSegment((0, 0), radius, 0.0, 2 * math.pi)], closed=True)
    return VirtualTube(curve, WidthProfile([(0.0, half_width, half_width)]), topology="closed")


def _away_from(ls, marks, margin):
    """Arc lengths at least ``margin`` from every mark (region edges, ramp
    ends, width knots), where the profile is smooth across the stencil."""
    return np.min(np.abs(ls[:, None] - np.asarray(marks)[None, :]), axis=1) > margin


class TestAnalyticTargetGradient:
    """grad rho_d = rho_d'(l) t / (1 - kappa r) against the stencil oracle."""

    def _compare(self, tube, dd, ls, rs, marks, margin=1e-3):
        ok = _away_from(ls, marks, margin)
        ls, rs = ls[ok], rs[ok]
        pts = section_points(tube, ls, rs)
        g = spine_gradient(dd, ls, rs)
        fd = fd_gradient(dd, pts, ls)
        err = np.linalg.norm(g - fd, axis=1)
        assert np.all(err <= 1e-6 * np.linalg.norm(g, axis=1))
        return ls, g

    def _marks(self, tube, dd):
        r = dd.region
        return np.concatenate(
            [tube.widths.knot_ls, [r.l_b, r.l_f, r.l_b + dd.delta, r.l_f - dd.delta]]
        )

    def test_bundled_s_tube_with_curved_sections(self):
        tube = load_scenario(bundled_scenario_path("narrow_s_tube")).tube
        region = occupied_region_from_arclengths([2.0, 27.0], tube)
        dd = DesiredDensity(tube, region, delta_l=1.5)
        rng = np.random.default_rng(0)
        ls = rng.uniform(0.5, tube.length - 0.5, 400)
        rs = rng.uniform(-0.9, 0.9, 400) * tube.widths.r_d(ls)
        _, g = self._compare(tube, dd, ls, rs, self._marks(tube, dd))
        assert np.count_nonzero(np.linalg.norm(g, axis=1)) > 100

    def test_offset_stretch_on_an_arc(self):
        # a tapered arc: the gradient at offset r is 1/(1 - kappa r) times
        # the one on the spine, larger on the inner side of the bend
        curve = GeneratingCurve([ArcSegment((0.0, 0.0), 3.0, 0.0, 2.0)])
        tube = VirtualTube(curve, WidthProfile([(0.0, 1.2, 1.2), (6.0, 0.6, 0.6)]))
        region = occupied_region_from_arclengths([0.5, 5.0], tube)
        dd = DesiredDensity(tube, region, delta_l=0.8)
        rng = np.random.default_rng(1)
        ls = rng.uniform(0.0, tube.length, 300)
        rs = rng.uniform(-0.95, 0.95, 300) * tube.widths.r_d(ls)
        self._compare(tube, dd, ls, rs, self._marks(tube, dd))
        l = 2.5
        on_spine = spine_gradient(dd, [l], [0.0])[0]
        inner = spine_gradient(dd, [l], [0.5])[0]  # left of a CCW arc: towards the centre
        assert np.allclose(inner, on_spine / (1.0 - 0.5 / 3.0), rtol=1e-14, atol=0)

    def test_ring_seam(self):
        tube = _ring()
        L = tube.length
        # the rear ramp [L - 0.3, L + 0.2] straddles the seam
        region = occupied_region_from_arclengths([L - 0.3, 0.2, 1.5, 2.5], tube)
        dd = DesiredDensity(tube, region, delta_l=0.5)
        assert region.l_b == L - 0.3 and region.l_f > L
        ls = np.mod(np.linspace(L - 0.5, L + 3.0, 301), L)
        rs = np.linspace(-0.1, 0.1, 301)
        marks = np.concatenate([np.mod(self._marks(tube, dd), L), [0.0, L]])
        ls, g = self._compare(tube, dd, ls, rs, marks)
        seam = (ls > L - 0.25) | (ls < 0.15)
        assert np.all(np.linalg.norm(g[seam], axis=1) > 0.0)

    def test_exactly_zero_in_full_ring_mode(self):
        tube = _ring()
        region = OccupiedRegion(l_b=0.0, l_f=tube.length)
        dd = DesiredDensity(tube, region, delta_l=0.2)
        assert dd.full_ring
        ls = np.linspace(0.0, tube.length, 97)
        g = spine_gradient(dd, ls, np.linspace(-0.1, 0.1, 97))
        assert np.all(g == 0.0)

    def test_exactly_zero_at_region_edges(self):
        tube = tapered_tube()
        region = occupied_region_from_arclengths([2.0, 8.0], tube)
        dd = DesiredDensity(tube, region, delta_l=0.5)
        g = spine_gradient(dd, [2.0, 8.0, 1.0, 9.5], [0.3, -0.2, 0.0, 0.0])
        assert np.all(g == 0.0)

    def test_annular_rear_edge_has_no_stencil_bias(self):
        # the rearmost robot of the bundled ring's start state sits on the
        # region edge, where rho_d' = 0 but rho_d'' jumps: the stencil reads
        # an O(h) bias there, the analytic gradient the true zero
        sc = load_scenario(bundled_scenario_path("annular"))
        pts = sc.positions
        prs = sc.tube.curve.project_many(pts)
        ls, rs = prs.l, prs.r
        delta_l = max(sc.params.h, sc.params.r_s)
        region = occupied_region_from_arclengths(ls, sc.tube, min_halfwidth=delta_l)
        dd = DesiredDensity(sc.tube, region, delta_l=delta_l)
        rear = int(np.flatnonzero(ls == region.l_b)[0])
        g = dd.gradient_many(ls, rs, prs.tangent, prs.curvature)
        assert np.all(g[rear] == 0.0)
        fd = fd_gradient(dd, pts[rear:rear + 1], ls[rear:rear + 1])[0]
        assert np.linalg.norm(fd) > 1e-3

    def test_projection_frame_matches_per_point_frame(self):
        tube = tapered_tube()
        region = occupied_region_from_arclengths([1.0, 9.0], tube)
        dd = DesiredDensity(tube, region, delta_l=0.5)
        p = np.array([1.2, 0.4])
        coord = to_curvilinear(tube, p)
        assert np.array_equal(target_gradient_at(dd, [p])[0],
                              oracle_gradient(dd, [coord.l], [coord.r])[0])

    def test_raises_past_the_centre_of_curvature(self):
        curve = GeneratingCurve([ArcSegment((0.0, 0.0), 1.0, 0.0, 2.0)])
        tube = VirtualTube(curve, WidthProfile([(0.0, 0.5, 0.5)]))
        region = occupied_region_from_arclengths([0.2, 1.8], tube)
        dd = DesiredDensity(tube, region, delta_l=0.3)
        with pytest.raises(TubeDomainError, match="centre of curvature"):
            spine_gradient(dd, [0.3, 0.4], [0.2, 1.0])  # kappa r = 1 at r = 1


class TestTargetGradientInRuns:
    @pytest.mark.parametrize("name", ["narrow_s_tube", "annular"])
    def test_bit_equal_to_per_point_frames(self, monkeypatch, name):
        # every snapshot of 1 s of the bundled run: the gradient the target
        # builds from the projection's tangent and curvature, in its
        # normalization pass, equals the per-point frame one
        build = engine._Snapshot.__init__
        robots = []

        def checked(snap, *args):
            build(snap, *args)
            assert np.array_equal(snap.grad_d, oracle_gradient(snap.dd, snap.l, snap.r))
            robots.append(np.count_nonzero(np.linalg.norm(snap.grad_d, axis=1)))

        monkeypatch.setattr(engine._Snapshot, "__init__", checked)
        raw = json.loads(bundled_scenario_path(name).read_text())
        log = run(scenario_from_dict({**raw, "t_end_s": 1.0}))
        assert log.termination == "time-limit"
        assert len(robots) == len(log.records) == 101
        assert sum(robots) > 0


# ---------------------------------------------------------------------------
# KDE along cross-sections
# ---------------------------------------------------------------------------

# Relative tolerance per cell.  Results below the normal float range carry
# only a few significant bits whichever way they are computed, so they are
# compared absolutely.
_SECTION_RTOL = 1e-12
_SECTION_ATOL = 1e-300


def _point_kde(view, pts):
    """The dense oracle: the broadcast form of the point KDE at the (n_l,
    n_r, 2) points."""
    return bk.estimate_and_gradient_many(view, pts.reshape(-1, 2))[0].reshape(pts.shape[:2])


def _assert_matches_point_kde(view, got, pts):
    """got, (n_l, n_r), against the point KDE at the (n_l, n_r, 2) points."""
    want = _point_kde(view, pts)
    assert got.shape == want.shape
    assert np.allclose(got, want, rtol=_SECTION_RTOL, atol=_SECTION_ATOL)


def _cull_bound(view):
    """What the grid's robot cull may drop from one cell: each robot beyond
    _CULL_RADIUS h of it adds less than 2^-53 / (2 pi N h^2)."""
    return 2.0 ** -53 / (2 * math.pi * view.bandwidth ** 2)


def _assert_within_cull_bound(view, got, pts):
    """|got - want| <= 2^-53 / (2 pi h^2) + 1e-12 want, cell by cell, with
    want the dense oracle at the (n_l, n_r, 2) points."""
    want = _point_kde(view, pts)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= _cull_bound(view) + _SECTION_RTOL * want)


def _random_columns(c, n_r):
    """Columns from (x, y, angle, half-width) rows: origins, tangents,
    normals, the radial lattice (r_d, dr, n_r) of n_r cells across the
    half-width each side, and the cell points."""
    origins = c[:, :2]
    tangents = np.stack([np.cos(c[:, 2]), np.sin(c[:, 2])], axis=1)
    normals = np.stack([-tangents[:, 1], tangents[:, 0]], axis=1)
    lattice = (c[:, 3], 2.0 * c[:, 3] / n_r, n_r)
    pts = origins[:, None, :] + bk.cell_offsets(*lattice)[:, :, None] * normals[:, None, :]
    return origins, tangents, normals, lattice, pts


class TestSectionKde:
    """DensityView.estimate_sections against the point KDE at the grid's
    points, section_points(tube, ls, offsets)."""

    def _compare(self, tube, region, positions, h, resolution=(40, 8)):
        view = DensityView(np.asarray(positions, dtype=float), h)
        ls, _, frames, lattice, offsets = _region_grid(tube, region, resolution)
        got = sections(view, *frames, lattice)
        _assert_matches_point_kde(view, got, section_points(tube, ls, offsets))
        return got

    def _swarm_on(self, tube, ls, fracs):
        ls = np.asarray(ls, dtype=float)
        return section_points(tube, ls, np.asarray(fracs) * tube.widths.r_c(ls))

    def test_line(self):
        tube = tapered_tube()
        pts = self._swarm_on(tube, np.linspace(1.0, 9.0, 25), np.linspace(-0.8, 0.8, 25))
        region = occupied_region_from_arclengths(pts[:, 0], tube)
        got = self._compare(tube, region, pts, 0.6)
        assert np.all(got > 0.0)

    def test_arc(self):
        curve = GeneratingCurve([ArcSegment((0.0, 0.0), 3.0, 0.0, 2.0)])
        tube = VirtualTube(curve, WidthProfile([(0.0, 1.2, 1.2), (6.0, 0.6, 0.6)]))
        pts = self._swarm_on(tube, np.linspace(0.5, 5.5, 12), np.tile([-0.5, 0.5], 6))
        region = occupied_region_from_arclengths(np.linspace(0.5, 5.5, 12), tube)
        self._compare(tube, region, pts, 0.4, (60, 12))

    def test_spline(self):
        pts = [(0.0, 0.0), (2.0, 0.5), (4.0, -0.3), (6.0, 0.8), (8.0, 0.2)]
        tube = VirtualTube(GeneratingCurve([CatmullRomSegment(pts)]),
                           WidthProfile([(0.0, 1.2, 1.2)]))
        ls = np.linspace(0.3, tube.length - 0.3, 9)
        robots = self._swarm_on(tube, ls, np.linspace(-0.7, 0.7, 9))
        region = occupied_region_from_arclengths(ls, tube)
        self._compare(tube, region, robots, 0.35)

    def test_closed_ring_region_across_the_seam(self):
        tube = _ring()
        L = tube.length
        ls = np.array([L - 0.4, L - 0.1, 0.2, 0.6, 1.1])
        robots = self._swarm_on(tube, ls, [0.3, -0.4, 0.0, 0.5, -0.2])
        region = occupied_region_from_arclengths(ls, tube)
        assert region.l_f > L  # the grid's columns wrap the seam
        got = self._compare(tube, region, robots, 0.05, (50, 10))
        assert np.all(got > 0.0)

    def test_one_robot(self):
        tube = tapered_tube()
        region = occupied_region_from_arclengths([5.0], tube, min_halfwidth=1.0)
        got = self._compare(tube, region, [[5.0, 0.2]], 0.5)
        assert got.max() > 0.5 / (2 * math.pi * 0.25)

    def test_robot_far_along_the_tube_underflows_to_zero(self):
        tube = straight_tube(length=100.0)
        region = occupied_region_from_arclengths([2.0, 8.0], tube)
        near = [[3.0, 0.1], [6.0, -0.3]]
        far = [[95.0, 0.0]]
        _, _, frames, lattice, _ = _region_grid(tube, region, (30, 6))
        # every grid point is > 85 m = 283 h from the far robot: exp(-4e4) = 0
        assert np.exp(-0.5 * (85.0 / 0.3) ** 2) == 0.0
        got = self._compare(tube, region, near + far, 0.3, (30, 6))
        near_only = sections(DensityView(np.array(near), 0.3), *frames, lattice)
        assert np.allclose(got, near_only * 2.0 / 3.0, rtol=1e-15, atol=0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        robots=st.lists(
            st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)), min_size=1, max_size=15
        ),
        h=st.floats(0.1, 3.0),
        columns=st.lists(
            st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0), st.floats(-math.pi, math.pi),
                      st.floats(0.05, 3.0)),
            min_size=1, max_size=8,
        ),
        n_r=st.integers(1, 6),
    )
    def test_property_random_frames(self, robots, h, columns, n_r):
        *frames, pts = _random_columns(np.array(columns), n_r)
        view = DensityView(np.array(robots), h)
        # robots may lie beyond the cull radius of every cell: the dense
        # oracle holds to the cull bound, at one block and one column a block
        for got in _results_per_block_size([1], lambda: sections(view, *frames)):
            _assert_within_cull_bound(view, got, pts)


# ---------------------------------------------------------------------------
# kernel sums in blocks
# ---------------------------------------------------------------------------

_ONE_BLOCK = 1 << 62


def _crowd_snapshot():
    """400 robots on a 10 x 40 lattice, 1.2 m apart with 0.02 m jitter, in
    a straight tube of half-width 7 m: the view, target, tube and region of
    one snapshot, the size at which the kernel sums run in several blocks."""
    tube = straight_tube(length=60.0, r_d=7.0, r_u=7.0)
    xs, ys = np.meshgrid(0.8 + 1.2 * np.arange(40), -5.4 + 1.2 * np.arange(10), indexing="ij")
    jitter = np.random.default_rng(0).uniform(-0.02, 0.02, (400, 2))
    positions = np.stack([xs.ravel(), ys.ravel()], axis=1) + jitter
    view = DensityView(positions, 0.9)
    region = occupied_region_from_arclengths(positions[:, 0], tube, min_halfwidth=0.9)
    return view, DesiredDensity(tube, region, delta_l=0.9), tube, region


def _results_per_block_size(sizes, fn):
    """fn() with BLOCK_ELEMENTS at each size, and at one block."""
    out = []
    for size in (_ONE_BLOCK, *sizes):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(blocks, "BLOCK_ELEMENTS", size)
            out.append(fn())
    return out


def _grid_column(n_r, n, a=1):
    """Live elements of one grid column of n_r cells over n robots in
    density.section_estimates with the split k = a p + m: its a + b
    exponents and four rows per robot, and the b a sums and values of H.
    The most are at a = 1."""
    b = -(-n_r // a)
    return (a + b + 4) * n + 2 * a * b


class TestBlockedKernelSums:
    """The grid and KDE sums run a block of whole columns or query rows at
    a time.  Every block size gives a grid within the cull bound of the
    dense oracle and a KDE within kde_bound of its dense oracle: a block's
    row sums are BLAS products whose order of summation depends on the
    block's shape (a one-row block takes another path), so the KDE's bits
    do depend on the block size."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        robots=st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
                        min_size=1, max_size=12),
        queries=st.lists(st.tuples(st.floats(-8.0, 8.0), st.floats(-8.0, 8.0)),
                         min_size=1, max_size=9),
        h=st.floats(0.05, 3.0),
        columns=st.lists(
            st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0), st.floats(-math.pi, math.pi),
                      st.floats(0.05, 3.0)),
            min_size=1, max_size=7,
        ),
        n_r=st.integers(1, 5),
        rows_per_block=st.integers(2, 4),
    )
    def test_property_any_block_size(self, robots, queries, h, columns, n_r, rows_per_block):
        *frames, cells = _random_columns(np.array(columns), n_r)
        view = DensityView(np.array(robots), h)
        pts = np.array(queries)
        n = view.n

        def grid():
            return sections(view, *frames)

        def kde():
            return view.estimate_and_gradient_many(pts)

        # one element: one column or row per block; then a few per block,
        # with a shorter last block where they do not divide evenly.  The
        # grid culls robots per block, so it holds to the dense oracle within
        # the cull bound; the KDE is dense and holds to kde_bound at every size
        for got in _results_per_block_size([1, rows_per_block * _grid_column(n_r, n)], grid):
            _assert_within_cull_bound(view, got, cells)
        for got in _results_per_block_size([1, rows_per_block * 4 * n], kde):
            bk.assert_within_kde_bound(view, pts, got)

    def test_crowd_snapshot(self):
        view, dd, tube, region = _crowd_snapshot()
        resolution = (120, 24)
        # the default constant splits both sums of this snapshot, whose grid
        # splits its 24 cells 4 by 6
        assert len(blocks.row_blocks(resolution[0], _grid_column(24, view.n, 4))[1]) > 1
        assert len(blocks.row_blocks(view.n, 4 * view.n)[1]) > 1

        def sums():
            return (error_grid(view, dd, tube, region, resolution)[0],
                    *view.estimate_and_gradient_many(view.positions))

        ls, *_, offsets = _region_grid(tube, region, resolution)
        cells = section_points(tube, ls, offsets)
        results = _results_per_block_size(
            [1, 7 * _grid_column(resolution[1], view.n), 33 * 4 * view.n,
             blocks.BLOCK_ELEMENTS], sums)
        for grid, *kde in results:
            # every cell has robots within reach, so the culled grid also
            # holds to _SECTION_RTOL of the dense oracle
            _assert_within_cull_bound(view, grid, cells)
            _assert_matches_point_kde(view, grid, cells)
            bk.assert_within_kde_bound(view, view.positions, kde)

    def test_traced_peak_stays_within_the_blocks(self):
        """One block's arrays, plus the (M, ...) inputs and results, are all
        that the grid and the KDE hold at once."""
        view, dd, tube, region = _crowd_snapshot()
        n_l, n_r = 120, 24
        bound = 1.5 * 8 * blocks.BLOCK_ELEMENTS
        # the KDE holds one (N, N) array: on the snapshot and its copy 50 m
        # on, 800 robots
        crowd = DensityView(np.concatenate([view.positions, view.positions + (50.0, 0.0)]), 0.9)
        # both fail without the blocks: an (n_l, n_r, N) array alone is
        # 8.8 MiB and the KDE's (N, N) array 4.9 MiB
        assert min(8 * n_l * n_r * view.n, 8 * crowd.n ** 2) > 3 * bound

        def peak(fn):
            fn()  # warm: first-call allocations are not the kernel's
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(lambda: density_error_l2_from_view(view, dd, tube, region, (n_l, n_r))) < bound
        assert peak(lambda: crowd.estimate_and_gradient_many(crowd.positions)) < bound


def _robots_straddling(lo, hi, reach, robots):
    """Robots f * reach beyond one side of one column's cell box [lo, hi],
    at a fraction u along that side, from (column, side, f, u) rows."""
    positions = []
    for c, side, f, u in robots:
        c %= len(lo)
        axis, high = divmod(side, 2)
        p = lo[c] + u * (hi[c] - lo[c])
        p[axis] = hi[c, axis] + f * reach if high else lo[c, axis] - f * reach
        positions.append(p)
    return np.array(positions)


_straddling_robots = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 3), st.floats(0.95, 1.05), st.floats(0.0, 1.0)),
    min_size=1, max_size=8,
)


class TestGridCull:
    """estimate_sections drops, per block of columns, the robots beyond
    _CULL_RADIUS h of the bounding box of the block's cells."""

    def test_far_block_reads_zero(self):
        h = 0.5
        reach = _CULL_RADIUS * h
        # one robot at the origin; two columns across the x axis, one through
        # the robot and one whose every cell lies 1.05 R h or more beyond it
        view = DensityView(np.array([[0.0, 0.0]]), h)
        origins = np.array([[0.0, 0.0], [1.05 * reach, 0.0]])
        tangents = np.tile([1.0, 0.0], (2, 1))
        normals = np.tile([0.0, 1.0], (2, 1))
        # five cells from -1 to 1 m
        lattice = (np.full(2, 1.25), np.full(2, 0.5), 5)
        cells = origins[:, None, :] + bk.cell_offsets(*lattice)[:, :, None] * normals[:, None, :]
        want = _point_kde(view, cells)
        assert np.all(want[1] > 0.0) and np.all(want[1] < _cull_bound(view))

        one_block, per_column = _results_per_block_size(
            [1], lambda: sections(view, origins, tangents, normals, lattice))
        # one block spans both columns and keeps the robot: the dense sum
        _assert_matches_point_kde(view, one_block, cells)
        # one column a block: the far block culls it and reads exactly zero
        assert np.all(per_column[1] == 0.0)
        _assert_matches_point_kde(view, per_column[:1], cells[:1])
        _assert_within_cull_bound(view, per_column, cells)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        columns=st.lists(
            st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-math.pi, math.pi),
                      st.floats(0.05, 2.0)),
            min_size=1, max_size=5,
        ),
        n_r=st.integers(1, 5),
        h=st.floats(0.05, 2.0),
        robots=_straddling_robots,
    )
    def test_property_robots_straddling_the_reach(self, columns, n_r, h, robots):
        *frames, cells = _random_columns(np.array(columns), n_r)
        lo, hi = cells.min(axis=1), cells.max(axis=1)
        reach = _CULL_RADIUS * h
        view = DensityView(_robots_straddling(lo, hi, reach, robots), h)
        one_block, per_column = _results_per_block_size(
            [1], lambda: sections(view, *frames))
        _assert_within_cull_bound(view, one_block, cells)
        _assert_within_cull_bound(view, per_column, cells)
        # one column a block: a column whose grown box holds no robot reads 0
        x = view.positions[None]
        held = np.all((x >= (lo - reach)[:, None]) & (x <= (hi + reach)[:, None]), axis=2)
        assert np.all(per_column[~held.any(axis=1)] == 0.0)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        columns=st.lists(
            st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-math.pi, math.pi),
                      st.integers(0, 24), st.integers(1, 16)),
            min_size=1, max_size=5,
        ),
        n_r=st.integers(1, 6),
        h=st.floats(0.05, 2.0),
        robots=_straddling_robots,
    )
    def test_property_flipped_normals_mirror_the_grid(self, columns, n_r, h, robots):
        # flipping a column's normal and its lattice, r -> -r, puts cell k
        # where cell n_r - 1 - k was.  The lattices are dyadic, r_d = i / 8
        # and dr = j / 16, so the flipped r_d = n_r dr - r_d, every offset
        # and the cull boxes are exact, and the same robots are kept.  The
        # broadcast grid, mirrored, is then the broadcast form of the flipped
        # columns: the same roundings of the negated s and offsets, its sums
        # over the robots in another order, which bk.section_bound allows.
        # Both library grids hold to it
        c = np.array(columns, dtype=float)
        origins = c[:, :2]
        tangents = np.stack([np.cos(c[:, 2]), np.sin(c[:, 2])], axis=1)
        normals = np.stack([-tangents[:, 1], tangents[:, 0]], axis=1)
        lattice = (c[:, 3] / 8, c[:, 4] / 16, n_r)
        cells = origins[:, None, :] + bk.cell_offsets(*lattice)[:, :, None] * normals[:, None, :]
        view = DensityView(
            _robots_straddling(cells.min(axis=1), cells.max(axis=1), _CULL_RADIUS * h, robots), h)
        r_d, dr, _ = lattice
        grids = [(origins, tangents, normals, lattice),
                 (origins, tangents, -normals, (n_r * dr - r_d, dr, n_r))]
        want = bk.section_estimates([view], origins, tangents, normals, *lattice)[0]
        for grid, oracle in zip(grids, (want, want[:, ::-1])):
            bound = bk.section_bound([view], grid[0], *grid[3], oracle)[0]
            for got in _results_per_block_size([1], lambda: sections(view, *grid)):
                assert np.all(np.abs(got - oracle) <= bound)


@st.composite
def swarm_grids(draw):
    """A tube and occupied region from mass_cases, and one to three records
    on it, each with its own bandwidth and robots: (tube, region, views).
    Robots sit anywhere along the tube, across its width, so that some are
    beyond the reach of every cell."""
    tube, region, _ = draw(mass_cases())
    views = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 12))
        ls = np.array(draw(st.lists(st.floats(0.0, tube.length), min_size=n, max_size=n)))
        fracs = np.array(draw(st.lists(st.floats(-0.95, 0.95), min_size=n, max_size=n)))
        ls_w = np.mod(ls, tube.length) if tube.closed else ls
        rs = np.where(fracs < 0, fracs * tube.widths.r_d(ls_w), fracs * tube.widths.r_u(ls_w))
        views.append(DensityView(section_points(tube, ls, rs), draw(st.floats(0.05, 3.0))))
    return tube, region, views


class TestSectionEstimatesAgainstOracle:
    """density.section_estimates against the dense broadcast pass of
    broadcast_kernels, on random tubes and swarms, within
    bk.section_bound: the exponent's rounding, relative, plus the cull's
    2^-53 / (2 pi h^2) per cell."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=swarm_grids(), n_l=st.integers(1, 12), n_r=st.integers(1, 6),
           columns_per_block=st.sampled_from([None, 1, 3]))
    def test_property_random_tubes(self, case, n_l, n_r, columns_per_block):
        tube, region, views = case
        _, _, (origins, tangents, normals), r_d, dr = _region_grids(
            tube, [region] * len(views), (n_l, n_r))
        grid = (origins, tangents, normals, r_d, dr, n_r)
        want = bk.section_estimates(views, *grid)
        bound = bk.section_bound(views, origins, r_d, dr, n_r, want)
        # whole records a block, dense; or blocks of columns, culled
        n = max(view.n for view in views)
        size = _ONE_BLOCK if columns_per_block is None else (
            columns_per_block * _grid_column(n_r, n))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(blocks, "BLOCK_ELEMENTS", size)
            got = density.section_estimates(views, *grid)
        assert np.all(np.abs(got - want) <= bound)

    @staticmethod
    def _arc_grid(half_width, resolution, ls):
        """A quarter-circle tube of radius 10 m and the given half-width, and
        the column arc lengths, frames and lattice of its grid over the arc
        lengths ls."""
        tube = VirtualTube(GeneratingCurve([ArcSegment((0.0, 0.0), 10.0, 0.0, 0.5 * math.pi)]),
                           WidthProfile([(0.0, half_width, half_width)]))
        region = occupied_region_from_arclengths(ls, tube)
        columns, _, frames, r_d, dr = _region_grids(tube, [region], resolution)
        return tube, columns[0], frames, (r_d, dr, resolution[1])

    @staticmethod
    def _against_oracle(views, frames, lattice):
        """The library's grid, at one block and at one column a block,
        within bk.section_bound of the broadcast form; the broadcast grid."""
        want = bk.section_estimates(views, *frames, *lattice)
        bound = bk.section_bound(views, frames[0], *lattice, want)
        for got in _results_per_block_size([1], lambda: density.section_estimates(
                views, *frames, *lattice)):
            assert np.all(np.isfinite(got)) and np.all(np.abs(got - want) <= bound)
        return want

    def test_robots_hundreds_of_bandwidths_away(self):
        # robots inside and far outside a bent tube, up to 1,000 bandwidths
        # from the grid: unclamped, F = exp(-tau^2 / 2 - m Delta u) would
        # overflow for some of them at the split the record gets, A = 4
        h, resolution = 0.3, (30, 24)
        ls = np.linspace(2.0, 12.0, 8)
        tube, _, frames, lattice = self._arc_grid(1.5, resolution, ls)
        inside = section_points(tube, ls, np.linspace(-1.2, 1.2, 8))
        far = np.array([[0.0, 0.0], [-200.0, -200.0], [30.0, 140.0], [160.0, -20.0], [5.0, -90.0]])
        view = DensityView(np.concatenate([inside, far]), h)
        r_d, dr, n_r = lattice
        step = dr / h
        assert (3 * step * ((n_r - 1) * step + density._CLAMP)).max() <= density._FACTOR_LIMIT
        origins, tangents, normals = frames
        u = (np.einsum("cj,cj->c", origins, normals)[:, None] - normals @ view.positions.T) / h
        u += ((0.5 * dr - r_d) / h)[:, None]
        assert (3 * step[:, None] * -u).max() > 710.0
        want = self._against_oracle([view], frames, lattice)
        assert np.all(want > 0.0)

    def test_tiny_bandwidth_on_a_wide_tube(self):
        # h = 1 mm on a tube 4 m wide: Delta = 167 per cell, so any A > 1
        # would put F above e^600000 for a robot on the top cell; the record
        # sums its cells directly, A = 1, with robots on cells at both edges
        h, resolution = 1e-3, (20, 24)
        tube, ls, frames, lattice = self._arc_grid(2.0, resolution, [3.0, 9.0])
        r_d, dr, n_r = lattice
        step = dr / h
        assert (step * ((n_r - 1) * step + density._CLAMP)).min() > 709.0
        offsets = bk.cell_offsets(*lattice)
        cols = [0, 7, 13, 19]
        robots = section_points(tube, ls[cols], offsets[cols, [0, 23, 11, 0]])
        want = self._against_oracle([DensityView(robots, h)], frames, lattice)[0]
        # the robots' own cells: each alone within reach, 1 / (2 pi n h^2)
        assert np.allclose(want[cols, [0, 23, 11, 0]], 1.0 / (2 * math.pi * 4 * h * h),
                           rtol=_SECTION_RTOL, atol=0.0)

    @pytest.mark.parametrize("n_r", [1, 2, 3, 23, 24, 25])
    def test_cells_per_column(self, n_r):
        # 23 cells are split 4 by 6 and 24 too, 25 5 by 5: the cells past
        # the last are dropped
        ls = np.linspace(1.0, 14.0, 25)
        tube, _, frames, lattice = self._arc_grid(1.2, (40, n_r), ls)
        robots = section_points(tube, ls, np.random.default_rng(n_r).uniform(-1.1, 1.1, 25))
        self._against_oracle([DensityView(robots, 0.4)], frames, lattice)


# ---------------------------------------------------------------------------
# error norms and fields
# ---------------------------------------------------------------------------

class _CallableView:
    """Stub view evaluating an arbitrary field, for synthetic-field tests."""

    def __init__(self, fn):
        self.fn = fn

    def estimate_many(self, pts):
        pts = np.atleast_2d(pts)
        return np.array([self.fn(p) for p in pts])



_LIBRARY_SECTIONS = density.section_estimates


def _sections_of_stubs(views, origins, tangents, normals, r_d, dr, n_r):
    """density.section_estimates, with each _CallableView's field evaluated
    at the cells of its columns."""
    if not isinstance(views[0], _CallableView):
        return _LIBRARY_SECTIONS(views, origins, tangents, normals, r_d, dr, n_r)
    pts = origins[:, None, :] + bk.cell_offsets(r_d, dr, n_r)[:, :, None] * normals[:, None, :]
    rows = np.split(pts, len(views))
    return np.stack([view.estimate_many(p.reshape(-1, 2)).reshape(p.shape[:2])
                     for view, p in zip(views, rows)])


def relative_error_field(view, dd, tube, region, resolution, rho_floor=1e-6):
    """Cellwise (estimate - target) / target on the error grid, NaN on the
    cells where the target is below the positivity floor; returns the
    target, the cell areas, the relative errors and the mask of those
    excluded cells."""
    rho_hat, rho_d, areas = error_grid(view, dd, tube, region, resolution)
    excluded = rho_d < rho_floor
    with np.errstate(divide="ignore", invalid="ignore"):
        relative = np.where(excluded, np.nan, (rho_hat - rho_d) / rho_d)
    return rho_d, areas, relative, excluded


class TestDensityError:
    @pytest.fixture(autouse=True)
    def _stub_fields(self, monkeypatch):
        monkeypatch.setattr(density, "section_estimates", _sections_of_stubs)

    def _setup(self):
        tube = tapered_tube(r0=2.0, r1=1.0)
        region = occupied_region_from_arclengths([1.0, 9.0], tube)
        dd = DesiredDensity(tube, region, delta_l=0.5)
        return tube, region, dd

    def test_zero_when_fields_match(self):
        tube, region, dd = self._setup()

        def rho_d_field(p):
            pr = tube.curve.project(p)
            return dd.profile_many([pr.l])[0]

        view = _CallableView(rho_d_field)
        err = density_error_l2_from_view(view, dd, tube, region, resolution=(60, 12))
        assert err < 1e-12

    def test_norm_homogeneity(self):
        tube, region, dd = self._setup()

        def offset_field(c):
            def fn(p):
                pr = tube.curve.project(p)
                return dd.profile_many([pr.l])[0] + c * 0.01
            return fn

        e1 = density_error_l2_from_view(_CallableView(offset_field(1.0)), dd, tube, region, (40, 8))
        e3 = density_error_l2_from_view(_CallableView(offset_field(3.0)), dd, tube, region, (40, 8))
        assert abs(e3 - 3.0 * e1) < 1e-12 * max(1.0, e3)

    def test_grid_self_convergence(self):
        # static reference configuration; halving the spacing moves the
        # result by < 1%
        tube, region, dd = self._setup()
        rng = np.random.default_rng(8)
        pts = np.stack(
            [rng.uniform(1.0, 9.0, 25), rng.uniform(-0.8, 0.8, 25)], axis=1
        )
        view = DensityView(pts, 0.6)
        coarse = density_error_l2_from_view(view, dd, tube, region, resolution=(100, 20))
        fine = density_error_l2_from_view(view, dd, tube, region, resolution=(200, 40))
        assert abs(fine - coarse) / fine < 0.01

    def test_relative_field_zero_and_scaled(self):
        tube, region, dd = self._setup()

        def exact(p):
            pr = tube.curve.project(p)
            return dd.profile_many([pr.l])[0]

        *_, relative, excluded = relative_error_field(_CallableView(exact), dd, tube, region,
                                                      (40, 8))
        assert np.all(np.abs(relative[~excluded]) < 1e-9)

        *_, relative, excluded = relative_error_field(
            _CallableView(lambda p: 2.0 * exact(p)), dd, tube, region, (40, 8)
        )
        assert np.allclose(relative[~excluded], 1.0, atol=1e-9)

    def test_relative_field_reaggregates_to_l2(self):
        tube, region, dd = self._setup()
        rng = np.random.default_rng(17)
        pts = np.stack(
            [rng.uniform(1.0, 9.0, 25), rng.uniform(-0.8, 0.8, 25)], axis=1
        )
        view = DensityView(pts, 0.6)
        res = (80, 16)
        rho_d, areas, relative, excluded = relative_error_field(view, dd, tube, region, res)
        assert not excluded.any()  # reference config keeps target above floor
        recombined = math.sqrt(float(np.sum(np.square(relative * rho_d) * areas)))
        direct = density_error_l2_from_view(view, dd, tube, region, res)
        assert abs(recombined - direct) < 1e-12 * max(1.0, direct)
