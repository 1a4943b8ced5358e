"""The dense passes' outer sums as two-term matrix products, against the
broadcast forms in ``broadcast_kernels``: bit for bit on extreme inputs,
and in the run files of whole simulations."""

import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import broadcast_kernels as bk
from tubenav import blocks
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
points = st.tuples(coords, coords)
bandwidths = st.sampled_from([1e-100, 1e-3, 1.0, 1e100]) | st.floats(1e-3, 1e3)
block_elements = st.sampled_from([_ONE_BLOCK, 1, 40])


def _no_zero_sign(x):
    """x with every zero made +0.0: the one difference the forms may show."""
    return np.where(x == 0.0, 0.0, x)


def _same_bits(got, want, zero_sign=True):
    assert got.shape == want.shape and got.dtype == want.dtype
    if not zero_sign:
        got, want = _no_zero_sign(got), _no_zero_sign(want)
    assert got.tobytes() == want.tobytes()


def _with_blocks(size, fn):
    # extreme inputs overflow and meet inf * 0 alike in both forms
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(blocks, "BLOCK_ELEMENTS", size)
        return fn()


def _blocks_of(kernel_rows):
    return [(rows, dx.copy(), dy.copy(), k.copy()) for rows, dx, dy, k in kernel_rows]


class TestKdeProducts:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(robots=st.lists(points, min_size=1, max_size=12),
           queries=st.lists(points, max_size=10), h=bandwidths, size=block_elements)
    @example(robots=[(0.0, 0.0)], queries=[(-0.0, -0.0), (5e-324, 0.0)], h=1.0, size=_ONE_BLOCK)
    @example(robots=[(0.0, -0.0), (-0.0, 0.0)], queries=[(0.0, -0.0)], h=1e-3, size=1)
    def test_kernel_rows(self, robots, queries, h, size):
        view = DensityView(np.array(robots), h)
        pts = np.array(queries).reshape(-1, 2)
        got = _with_blocks(size, lambda: _blocks_of(view._kernel_rows(pts)))
        want = _with_blocks(size, lambda: _blocks_of(bk.kernel_rows(view, pts)))
        assert len(got) == len(want)
        for (rows, dx, dy, k), (w_rows, w_dx, w_dy, w_k) in zip(got, want):
            assert rows == w_rows
            # -0.0 - +0.0 is -0.0 broadcast and +0.0 as a product
            _same_bits(dx, w_dx, zero_sign=False)
            _same_bits(dy, w_dy, zero_sign=False)
            _same_bits(k, w_k)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(robots=st.lists(points, min_size=1, max_size=12), h=bandwidths, size=block_elements)
    @example(robots=[(0.0, 1.0), (-0.0, 2.0)], h=1.0, size=_ONE_BLOCK)
    def test_estimates_at_the_robots(self, robots, h, size):
        # at the robots themselves, as the engine queries it, even the
        # sign of a zero gradient agrees: each row's own term is +0.0
        view = DensityView(np.array(robots), h)

        def sums(kernel_rows):
            def fn():
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(DensityView, "_kernel_rows", kernel_rows)
                    return view.estimate_and_gradient_many(view.positions)
            return _with_blocks(size, fn)

        for got, want in zip(sums(DensityView._kernel_rows), sums(bk.kernel_rows)):
            _same_bits(got, want)


@st.composite
def grids(draw):
    """(origins, tangents, normals, offsets): n_l columns of n_r offsets in
    no particular order, on axis frames with signed zeros or at any angle."""
    n_l, n_r = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    origins = np.array(draw(st.lists(points, min_size=n_l, max_size=n_l)))
    axis = st.sampled_from([(1.0, 0.0), (1.0, -0.0), (0.0, 1.0), (-0.0, -1.0), (-1.0, 0.0)])
    angle = st.floats(-np.pi, np.pi).map(lambda a: (np.cos(a), np.sin(a)))
    tangents = np.array(draw(st.lists(axis | angle, min_size=n_l, max_size=n_l)))
    normals = np.stack([-tangents[:, 1], tangents[:, 0]], axis=1)
    offset = st.sampled_from(SPECIAL) | st.floats(-3.0, 3.0) | st.floats(-1e150, 1e150)
    offsets = np.array(draw(st.lists(st.lists(offset, min_size=n_r, max_size=n_r),
                                     min_size=n_l, max_size=n_l)))
    return origins, tangents, normals, offsets


class TestGridProducts:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(robots=st.lists(points, min_size=1, max_size=10), h=bandwidths, grid=grids(),
           size=block_elements)
    # one column a block, the second beyond every robot's reach: a block
    # that keeps no robot
    @example(robots=[(0.0, 0.0), (0.5, -0.0)], h=1.0, size=1,
             grid=(np.array([[0.0, 0.0], [1e150, 0.0]]), np.array([[1.0, 0.0]] * 2),
                   np.array([[-0.0, 1.0]] * 2), np.array([[-1.0, 0.0, 1.0]] * 2)))
    @example(robots=[(-0.0, -0.0)], h=1.0, size=_ONE_BLOCK,
             grid=(np.array([[0.0, -0.0]]), np.array([[1.0, -0.0]]), np.array([[0.0, 1.0]]),
                   np.array([[-0.0, 5e-324, 0.0, -5e-324]])))
    def test_estimate_sections(self, robots, h, grid, size):
        view = DensityView(np.array(robots), h)
        got = _with_blocks(size, lambda: view.estimate_sections(*grid))
        want = _with_blocks(size, lambda: bk.estimate_sections(view, *grid))
        _same_bits(got, want)


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
    """A bundled run writes the same trace.csv and metrics.csv bytes with the
    broadcast forms patched in."""
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

    monkeypatch.setattr(DensityView, "_kernel_rows", counted("kde", bk.kernel_rows))
    monkeypatch.setattr(DensityView, "estimate_sections",
                        counted("grid", bk.estimate_sections))
    # every nearest-segment search, the run's wall list included, is a
    # SegmentList query
    monkeypatch.setattr(SegmentList, "nearest",
                        counted("walls", lambda walls, pts: bk.nearest(walls.search, pts)))
    broadcast_records, *broadcast = run_files("broadcast")
    assert broadcast_records == records == int(round(t_end / raw["dt_s"])) + 1
    # every record ran each broadcast form at least once
    assert min(calls["kde"], calls["grid"], calls["walls"]) >= records
    assert broadcast == shipped
