"""The dense passes as matrix products, against the broadcast forms in
``broadcast_kernels``: the wall search bit for bit on extreme inputs and in
the run files of whole simulations; the error grid's and the KDE's kernel
sums within that module's section_bound and kde_bound."""

import importlib.util
import io
import json
import math
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import broadcast_kernels as bk
from tubenav import blocks, density
from tubenav.density import DensityView
from tubenav.engine import run
from tubenav.geometry import _BOUNDARY_CHUNK, SegmentList, _NearestSegment
from tubenav.reports import write_metrics_csv, write_trace_csv
from tubenav.scenario import bundled_scenario_path, scenario_from_dict

_ONE_BLOCK = 1 << 62
# signed zeros, subnormals, the smallest normal and magnitudes up to 1e150
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320, 2.2250738585072014e-308,
           1.0, -1.0, 1e150, -1e150]
coords = st.sampled_from(SPECIAL) | st.floats(-10.0, 10.0) | st.floats(-1e150, 1e150)
block_elements = st.sampled_from([_ONE_BLOCK, 1, 40])


def _same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _with_blocks(size, fn):
    # extreme inputs overflow and meet inf * 0 alike in both forms
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(blocks, "BLOCK_ELEMENTS", size)
        return fn()


# the KDE's clouds: about the origin or shifted far from it, their spread
# in or beyond the domain where DensityView serves them
kde_coords = st.sampled_from(SPECIAL[:9]) | st.floats(-10.0, 10.0) | st.floats(-1e4, 1e4)
kde_points = st.tuples(kde_coords, kde_coords)
shifts = st.sampled_from([0.0, -3e3, 1e6, -1e9, 2.0 ** 40 + 0.5, 1e15])
kde_bandwidths = st.sampled_from([1e-100, 1e-3, 0.05, 3.0, 1e100]) | st.floats(0.05, 3.0)


def _kde(view, pts, size=_ONE_BLOCK):
    """The library's (rho, grad) with BLOCK_ELEMENTS = size, or the
    ValueError it raises."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(blocks, "BLOCK_ELEMENTS", size)
        try:
            return view.estimate_and_gradient_many(pts)
        except ValueError as exc:
            return exc


def _served(view, pts):
    """Whether DensityView serves the queries: the bound beta of its
    docstring at R = sqrt(2) max |q - c|_inf / h is at most 1e-6."""
    reach = float(np.abs(np.concatenate([pts.reshape(-1, 2), view.positions])
                         - view.positions[0]).max())
    r = math.sqrt(2.0) * reach / view.bandwidth
    return 2.0 ** -53 * (40.0 * r * r + 51.0 + (2 * view.n + 5) * max(r, 1.0)) <= 1e-6


class TestKdeProducts:
    """The KDE's two products and one exp against the dense broadcast
    oracle, within kde_bound wherever DensityView serves the queries, and a
    ValueError that names the bandwidth, the reach and the limit elsewhere."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(robots=st.lists(kde_points, min_size=1, max_size=12),
           queries=st.lists(kde_points, max_size=10), shift=shifts, h=kde_bandwidths,
           size=block_elements)
    @example(robots=[(0.0, 0.0)], queries=[(-0.0, -0.0), (5e-324, 0.0)], shift=0.0, h=1.0,
             size=_ONE_BLOCK)
    @example(robots=[(0.0, -0.0), (-0.0, 0.0)], queries=[(0.0, -0.0)], shift=0.0, h=1e-3,
             size=1)
    # the edge of the domain: R = 1.41e4, beta = 8.9e-7
    @example(robots=[(0.0, 0.0), (1e4, 0.0)], queries=[(1e4, 0.0), (5e3, 0.0)], shift=1e6,
             h=1.0, size=40)
    def test_within_the_bound_of_the_broadcast_form(self, robots, queries, shift, h, size):
        view = DensityView(np.array(robots) + shift, h)
        pts = np.array(queries).reshape(-1, 2) + shift
        got = _kde(view, pts, size)
        if not _served(view, pts):
            assert isinstance(got, ValueError) and "limit 1e-06" in str(got)
            return
        assert not isinstance(got, ValueError), got
        bk.assert_within_kde_bound(view, pts, got)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(robots=st.lists(kde_points, min_size=1, max_size=12), shift=shifts,
           h=st.floats(0.05, 3.0), size=block_elements)
    def test_at_the_robots_twice(self, robots, shift, h, size):
        # as the engine queries it; a second call gives the same bits
        view = DensityView(np.array(robots) + shift, h)
        got = _kde(view, view.positions, size)
        if not _served(view, view.positions):
            assert isinstance(got, ValueError)
            return
        bk.assert_within_kde_bound(view, view.positions, got)
        again = _kde(view, view.positions, size)
        for g, a in zip(got, again):
            assert g.tobytes() == a.tobytes()

    @pytest.mark.parametrize("robots, queries", [
        # R = sqrt(2) 2e4: beta = 3.6e-6
        ([(0.0, 0.0), (2e4, 1.0)], [(0.0, 0.0)]),
        ([(0.0, 0.0), (1.0, 1.0)], [(-5e3, 3e4)]),  # the query alone is far
        # the scale of the exponent's own error: K = 1e7
        ([(0.0, 0.0), (0.0, -1e7)], [(0.0, 0.0)]),
    ])
    def test_outside_the_domain_raises(self, robots, queries):
        view = DensityView(np.array(robots) + 1e3, 1.0)
        reach = float(np.abs(np.array(robots + queries) - robots[0]).max())
        with pytest.raises(ValueError, match=re.escape(f"reach {reach!r} m from the first robot")
                           ) as exc:
            view.estimate_and_gradient_many(np.array(queries) + 1e3)
        assert "bandwidths of 1.0 m" in str(exc.value)
        assert str(exc.value).endswith("exceeds its limit 1e-06")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_query_is_named(self, bad):
        view = DensityView(np.array([[0.0, 0.0], [1.0, 0.0]]), 1.0)
        with pytest.raises(ValueError, match=re.escape(f"position row 1 is not finite: [{bad!r}, 0.0]")):
            view.estimate_and_gradient_many(np.array([[0.5, 0.0], [bad, 0.0]]))


BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_workload(name, monkeypatch, *args):
    """The scenario dict of a workload of bench/run.py; every module that
    loading it adds is dropped again, so the draws of later property tests
    do not see them (see conftest.py)."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setattr(sys, "path", [str(BENCH), *sys.path])
    loaded = set(sys.modules)
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return getattr(module, name)(*args)
    finally:
        for added in set(sys.modules) - loaded:
            del sys.modules[added]


def _long_tube(n_robots, length):
    """A straight open tube of the given length, half-width 7 m narrowing to
    2 m over 10 m at 0.4 of it, with a 10-row grid of robots 1.2 m apart."""
    taper = 0.4 * length
    return {
        "name": f"long_tube_{n_robots}", "dt_s": 0.01, "t_end_s": 0.0, "mode": "full",
        "tube": {
            "segments": [{"kind": "line", "start_xy_m": [0.0, 0.0], "end_xy_m": [length, 0.0]}],
            "width_knots_m": [[0.0, 7.0, 7.0], [taper, 7.0, 7.0], [taper + 10.0, 2.0, 2.0],
                              [length, 2.0, 2.0]],
        },
        "placement": {"kind": "grid", "rows": 10, "cols": n_robots // 10, "spacing_m": 1.2,
                      "origin_xy_m": [0.8, -5.4], "jitter_m": 0.02},
        "params": {"r_s_m": 0.5, "h_m": 1.5},
    }


@pytest.mark.parametrize("workload", ["narrow_s_tube", "annular", "long_tube_crowd",
                                      "long_tube_1000"])
def test_every_workload_is_far_inside_the_kde_domain(workload, monkeypatch):
    """No record of a run can leave DensityView's domain: its robots stay in
    the tube, so every query and robot lies within the walls' bounding box
    of the first robot in each coordinate, and the bandwidth is at least
    r_s / 2 (the Silverman clamp) where it is not set.  beta at that reach
    stays 1,000 times under the 1e-6 limit."""
    if workload == "long_tube_crowd":
        raw = _bench_workload("long_tube_crowd", monkeypatch, 0)
    elif workload == "long_tube_1000":
        raw = _long_tube(1000, 300.0)
    else:
        raw = json.loads(bundled_scenario_path(workload).read_text())
    scen = scenario_from_dict(raw)
    tube, params = scen.tube, scen.params
    walls = np.concatenate(tube.section_ends(np.linspace(0.0, tube.length, 20001)))
    # 1% over the sampled walls: the chords' sagitta and the membership slack
    reach = 1.01 * float((walls.max(axis=0) - walls.min(axis=0)).max())
    h = params.h if params.h is not None else 0.5 * params.r_s
    r = math.sqrt(2.0) * reach / h
    beta = 2.0 ** -53 * (40.0 * r * r + 51.0 + (2 * scen.n_robots + 5) * max(r, 1.0))
    assert beta <= 1e-9
    # and the first record's query, as the engine makes it, is served
    view = DensityView(scen.positions, h)
    assert np.isfinite(view.estimate_and_gradient_many(view.positions)[1]).all()


# The grid's exponents are four-term products, within section_bound of the
# broadcast form while K = (2 D + max |r_d| + 3 n_r max dr) / h + 2 R stays
# under 1.4e7: its coordinates and lattices reach 1e30, with signed zeros
# and subnormals, and each test raises h to 1e-7 (2 D + max |r_d| + 3 n_r
# max dr) where it is smaller.
grid_coords = st.sampled_from(SPECIAL[:9]) | st.floats(-10.0, 10.0) | st.floats(-1e30, 1e30)
grid_points = st.tuples(grid_coords, grid_coords)


@st.composite
def grids(draw):
    """(origins, tangents, normals, r_d, dr, n_r): n_l columns of n_r cells
    on radial lattices with any first cell and any step from zero up, on
    axis frames with signed zeros or at any angle."""
    n_l, n_r = draw(st.integers(1, 6)), draw(st.sampled_from([1, 2, 3, 4, 5, 9, 23, 24, 25]))
    origins = np.array(draw(st.lists(grid_points, min_size=n_l, max_size=n_l)))
    axis = st.sampled_from([(1.0, 0.0), (1.0, -0.0), (0.0, 1.0), (-0.0, -1.0), (-1.0, 0.0)])
    angle = st.floats(-np.pi, np.pi).map(lambda a: (np.cos(a), np.sin(a)))
    tangents = np.array(draw(st.lists(axis | angle, min_size=n_l, max_size=n_l)))
    normals = np.stack([-tangents[:, 1], tangents[:, 0]], axis=1)
    first = st.sampled_from(SPECIAL[:9]) | st.floats(-3.0, 3.0) | st.floats(-1e30, 1e30)
    step = st.sampled_from([0.0, 5e-324, 1e-310]) | st.floats(0.0, 3.0) | st.floats(0.0, 1e30)
    r_d = np.array(draw(st.lists(first, min_size=n_l, max_size=n_l)))
    dr = np.array(draw(st.lists(step, min_size=n_l, max_size=n_l)))
    return origins, tangents, normals, r_d, dr, n_r


class TestGridProducts:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(robots=st.lists(grid_points, min_size=1, max_size=10), h=st.floats(1e-3, 1e3),
           grid=grids(), size=block_elements)
    # one column a block, the second beyond every robot's reach: a block
    # that keeps no robot
    @example(robots=[(0.0, 0.0), (0.5, -0.0)], h=1.0, size=1,
             grid=(np.array([[0.0, 0.0], [1e15, 0.0]]), np.array([[1.0, 0.0]] * 2),
                   np.array([[-0.0, 1.0]] * 2), np.array([1.5, 1.5]), np.array([1.0, 1.0]), 3))
    # a step of zero and of the smallest subnormal: every cell at one offset
    @example(robots=[(-0.0, -0.0)], h=1.0, size=_ONE_BLOCK,
             grid=(np.array([[0.0, -0.0], [0.0, 1.0]]), np.array([[1.0, -0.0]] * 2),
                   np.array([[0.0, 1.0]] * 2), np.array([-0.0, 0.0]), np.array([0.0, 5e-324]), 4))
    def test_section_estimates(self, robots, h, grid, size):
        origins, tangents, normals, r_d, dr, n_r = grid
        pts = np.concatenate([origins, robots])
        extent = float(np.sum(pts.max(axis=0) - pts.min(axis=0)))
        h = max(h, 1e-7 * (2 * extent + float(np.abs(r_d).max() + 3 * n_r * dr.max())))
        views = [DensityView(np.array(robots), h)]
        got = _with_blocks(size, lambda: density.section_estimates(views, *grid))
        want = bk.section_estimates(views, *grid)
        assert np.all(np.abs(got - want) <= bk.section_bound(views, origins, *grid[3:], want))


@st.composite
def walls(draw):
    """(a, b, runs): one or two runs of 1 to 3 segments, shorter than a
    chunk, or of several chunks, with vertices on a half-unit lattice (so
    that points are often equidistant from several segments) or anywhere."""
    runs = draw(st.sampled_from([1, 2]))
    n_run = draw(st.sampled_from([1, 2, 3]) | st.integers(4, 3 * _BOUNDARY_CHUNK))
    lattice = st.integers(-6, 6).map(lambda k: k / 2)
    coord = lattice | st.sampled_from(SPECIAL)
    ends = []
    for _ in range(runs):
        v = np.array(draw(st.lists(st.tuples(coord, coord), min_size=n_run + 1,
                                   max_size=n_run + 1)))
        ends.append((v[:-1], v[1:]))
    return (np.concatenate([e[0] for e in ends]), np.concatenate([e[1] for e in ends]), runs)


class TestWallSearchLayout:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(segments=walls(), pts=st.lists(st.tuples(
        st.integers(-8, 8).map(lambda k: k / 4) | coords,
        st.integers(-8, 8).map(lambda k: k / 4) | coords), min_size=1, max_size=12),
        size=block_elements)
    def test_nearest(self, segments, pts, size):
        a, b, runs = segments
        search = _NearestSegment(a, b, runs)
        pts = np.array(pts)
        got = _with_blocks(size, lambda: search.nearest(pts))
        want = _with_blocks(size, lambda: bk.nearest(search, pts))
        for g, w in zip(got, want):
            _same_bits(g, w)

    @pytest.mark.parametrize("n_run", [1, 2, 3])
    def test_short_runs_take_the_lowest_tied_segment(self, n_run):
        # two straight walls of n_run unit segments at y = -1 and y = 1:
        # the centreline is as far from both, and a point across from a
        # vertex is as far from both segments that share it
        xs = np.arange(n_run + 1.0)
        lower = np.stack([xs, -np.ones_like(xs)], axis=1)
        upper = np.stack([xs, np.ones_like(xs)], axis=1)
        a = np.concatenate([lower[:-1], upper[:-1]])
        b = np.concatenate([lower[1:], upper[1:]])
        search = _NearestSegment(a, b, runs=2)
        pts = np.stack([np.linspace(0.0, n_run, 4 * n_run + 1), np.zeros(4 * n_run + 1)], axis=1)
        d = b - a
        d2 = bk.scan_segments((a[:, 0], a[:, 1], d[:, 0], d[:, 1], np.ones(len(a))), pts)[2]
        lowest = np.argmin(d2, axis=1)
        assert np.all((d2 == d2.min(axis=1, keepdims=True)).sum(axis=1) >= 2)
        got = search.nearest(pts)
        idx, _, ey, got_d2 = got
        assert np.array_equal(idx, lowest)
        assert np.all(idx < n_run) and np.all(ey == 1.0) and np.all(got_d2 == 1.0)
        for g, w in zip(got, bk.nearest(search, pts)):
            _same_bits(g, w)


@pytest.mark.parametrize("name, t_end", [("narrow_s_tube", 1.0), ("annular", 2.0)])
def test_run_files_equal_on_the_broadcast_forms(name, t_end, tmp_path, monkeypatch):
    """A bundled run writes the same trace.csv bytes with the broadcast wall
    search patched in, every KDE call of the run within kde_bound of the
    broadcast form, and the same metrics.csv but for the density error.

    The run goes on with the library's KDE values: on the broadcast form's
    the robots move apart in their last bits, and no derived bound holds
    that drift through the closed loop."""
    raw = json.loads(bundled_scenario_path(name).read_text())
    raw["t_end_s"] = t_end

    def run_files(tag):
        log = run(scenario_from_dict(raw))
        trace = write_trace_csv(log, tmp_path / f"{tag}_trace.csv")
        metrics = write_metrics_csv(log, tmp_path / f"{tag}_metrics.csv")
        return len(log.records), trace.read_bytes(), metrics.read_bytes()

    records, *shipped = run_files("products")
    calls = Counter()

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    def kde(view, pts):
        got = library_kde(view, pts)
        bk.assert_within_kde_bound(view, pts, got)
        return got

    library_kde = DensityView.estimate_and_gradient_many
    monkeypatch.setattr(DensityView, "estimate_and_gradient_many", counted("kde", kde))

    def grid(views, origins, tangents, normals, *lattice):
        want = bk.section_estimates(views, origins, tangents, normals, *lattice)
        got = library(views, origins, tangents, normals, *lattice)
        assert np.all(np.abs(got - want) <= bk.section_bound(views, origins, *lattice, want))
        return want

    library = density.section_estimates
    monkeypatch.setattr(density, "section_estimates", counted("grid", grid))
    # every nearest-segment search, the run's wall list included, is a
    # SegmentList query
    monkeypatch.setattr(SegmentList, "nearest",
                        counted("walls", lambda walls, pts: bk.nearest(walls.search, pts)))
    broadcast_records, *broadcast = run_files("broadcast")
    assert broadcast_records == records == int(round(t_end / raw["dt_s"])) + 1
    # every record ran each form at least once; the grid is called once a
    # chunk of records
    assert min(calls["kde"], calls["walls"]) >= records
    assert calls["grid"] == len(blocks.row_blocks(records, raw["density_grid"][0]
                                                   * raw["density_grid"][1])[1])
    # the density error feeds no command: only its own column may differ,
    # by the norm of grids that each hold to section_bound
    assert broadcast[0] == shipped[0]
    got, want = (np.genfromtxt(io.BytesIO(files[1]), delimiter=",", names=True)
                 for files in (shipped, broadcast))
    for name in got.dtype.names:
        if name != "density_err_l2":
            assert got[name].tobytes() == want[name].tobytes()
    assert np.allclose(got["density_err_l2"], want["density_err_l2"], rtol=1e-12, atol=0)
