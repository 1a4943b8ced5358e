"""Broadcast forms of the dense passes' outer sums, the oracles of the
library's matrix-product forms.

The library builds every outer sum or difference of the KDE and the wall
search's per-segment pass as a matrix product with inner dimension two, or
in a chunk layout along the point axis.  These functions compute the same
values with numpy broadcasting and the earlier (5, chunks, width) chunk
layout, operation for operation otherwise.  Each takes the library object
as its first argument, so a test can also patch it in as the method of the
same name and run a whole simulation on the broadcast forms.  Both forms
agree bit for bit, up to the sign of an exact zero: a product accumulates
from +0.0, so where the broadcast difference is -0.0 - +0.0 = -0.0 the
product gives +0.0.

The error grid's kernel sums are the one exception: the library's exponent
is a three-term product with other roundings, so section_estimates here,
a dense broadcast pass, holds it to section_bound instead.
"""

import numpy as np

from tubenav.blocks import row_blocks
from tubenav.density import _TWO_PI
from tubenav.geometry import _CULL_SLACK


def kernel_rows(view, pts):
    """DensityView._kernel_rows with p - x_j as a broadcast difference."""
    h = view.bandwidth
    xs, ys = view.positions.T
    size, blocks = row_blocks(len(pts), 4 * view.n)
    buf = np.empty((4, size, view.n))
    for rows in blocks:
        dx, dy, k, dy2 = buf[:, : rows.stop - rows.start]
        np.subtract(pts[rows, 0, None], xs, out=dx)
        dx /= h
        np.subtract(pts[rows, 1, None], ys, out=dy)
        dy /= h
        np.multiply(dx, dx, out=k)
        k += np.multiply(dy, dy, out=dy2)
        k *= -0.5
        np.exp(k, out=k)
        k /= _TWO_PI
        yield rows, dx, dy, k


def section_estimates(views, origins, tangents, normals, offsets):
    """density.section_estimates as a dense broadcast pass, record by
    record, on the earlier arithmetic: (origin - x_j) / h, s and tau as dot
    products with the frame, then exp(-(s + r / h)^2 / 2) and
    exp(-tau^2 / 2).  No robot is culled."""
    r, n_r = len(views), offsets.shape[1]
    n_l = len(offsets) // r
    out = np.empty((r, n_l, n_r))
    for i, view in enumerate(views):
        cols = slice(i * n_l, (i + 1) * n_l)
        h = view.bandwidth
        xs, ys = view.positions.T
        dx = (origins[cols, 0, None] - xs) / h
        dy = (origins[cols, 1, None] - ys) / h
        tau = dx * tangents[cols, 0, None] + dy * tangents[cols, 1, None]
        s = dx * normals[cols, 0, None] + dy * normals[cols, 1, None]
        z = s[:, None, :] + (offsets[cols] / h)[:, :, None]
        z = np.exp(np.square(z) * -0.5)
        along = np.exp(tau * -0.5 * tau)
        out[i] = np.matmul(z, along[:, :, None])[..., 0] / (_TWO_PI * view.n * h * h)
    return out


def section_rel(views, origins, offsets):
    """Per record, (R, 1, 1), the relative part of section_bound: how far,
    relative to the broadcast value, the library's kernel sums may lie when
    they sum the same robots.

    Unit roundoff u = 2^-53.  For one record with bandwidth h let D be the
    L1 size of the bounding box of its column origins and robots, and K =
    (2 D + max |r|) / h.  The library centres the robots on its first
    robot c, so |o - c|_1 and |x - c|_1 are at most D, and |s| + |rho| and
    |tau| at most K, with rho = r / h.
    - s and tau: the library's is the three-term product of the frame row
      [(o - c) . n / h, -n / h] with [1; x - c; y - c], off by at most 6 u K
      (rounded inputs and a two-rounding sum); the broadcast one is off by
      at most 4 u K.
    - The exponent -(s + rho)^2 / 2: the library sums -rho^2 / 2, -rho s
      and -s^2 / 2, each within 3 u of its value, with two roundings, so it
      is within 5 u (|rho| + |s|)^2 / 2 <= 2.5 u K^2 of the value at its s,
      and |s + rho| <= 2 K carries s's error in as at most 12 u K^2.  The
      broadcast square is within 3 u K^2 at its s, and 8 u K^2 from s.
    - -tau^2 / 2: within 6.5 u K^2 in the library and 5 u K^2 broadcast.
    So the two exponents differ by delta <= 37 u K^2, and while delta <= 1
    (asserted) the kernels differ by a factor within exp(delta) - 1 <=
    2 delta <= 74 u K^2.  The four exps add 4 u each and the two scalings
    3 u each; the N-term sums of positive values add (N - 1) u each.  In
    all, 74 u K^2 + (2 N + 22) u."""
    u = 2.0 ** -53
    n_l = len(offsets) // len(views)
    rel = np.empty((len(views), 1, 1))
    for i, view in enumerate(views):
        cols = slice(i * n_l, (i + 1) * n_l)
        pts = np.concatenate([origins[cols], view.positions])
        size = float(np.sum(pts.max(axis=0) - pts.min(axis=0)))
        k = (2.0 * size + float(np.abs(offsets[cols]).max())) / view.bandwidth
        assert 37 * u * k * k <= 1.0
        rel[i] = 74 * u * k * k + (2 * view.n + 22) * u
    return rel


def section_bound(views, origins, offsets, want):
    """Per cell, (R, n_l, n_r), how far density.section_estimates may lie
    from ``want``, the values of section_estimates above: section_rel times
    ``want``, plus 2^-53 / (2 pi h^2) for the robots that a record summed
    in blocks of columns drops beyond _CULL_RADIUS h of a block."""
    h = np.array([view.bandwidth for view in views])[:, None, None]
    return section_rel(views, origins, offsets) * want + 2.0 ** -53 / (_TWO_PI * h * h)


def scan_segments(rows, pts):
    """Offsets from every point to the nearest point of every segment
    (ax, ay, dx, dy, len2), and their squares, (M, segments) each."""
    ax, ay, dx, dy, len2 = (np.asarray(r)[None, :] for r in rows)
    pts = np.asarray(pts, dtype=float)
    apx = pts[:, 0][:, None] - ax
    apy = pts[:, 1][:, None] - ay
    t = (apx * dx + apy * dy) / len2
    np.clip(t, 0.0, 1.0, out=t)
    ex = apx - t * dx
    ey = apy - t * dy
    return ex, ey, ex * ex + ey * ey


def _offsets(walls, pts, rows, chunks):
    """geometry._offsets in the (5, chunks, width) layout: (P, width)
    arrays, the per-segment pass along each chunk."""
    ax, ay, dx, dy, len2 = np.take(walls.rows, walls._seg, axis=1)[:, chunks]
    q = pts[rows]
    apx = q[:, :1] - ax
    apy = q[:, 1:] - ay
    t = (apx * dx + apy * dy) / len2
    np.clip(t, 0.0, 1.0, out=t)
    ex = apx - t * dx
    ey = apy - t * dy
    return ex, ey, ex * ex + ey * ey


def _candidates(walls, pts):
    lo, hi = walls._box_lo[:, None, :], walls._box_hi[:, None, :]
    _, blocks = row_blocks(len(pts), 4 * lo.shape[2])
    who, chunks = [], []
    for block in blocks:
        p = pts[block].T[:, :, None]
        gap = lo - p
        np.maximum(gap, p - hi, out=gap)
        np.maximum(gap, 0.0, out=gap)
        gap *= gap
        lower2 = gap[0] + gap[1]
        rows = np.arange(block.start, block.stop)
        nearest = np.argmin(lower2, axis=1)
        upper2 = _offsets(walls, pts, rows, nearest)[2].min(axis=1)
        keep = lower2 <= upper2[:, None] * (1.0 + _CULL_SLACK)
        keep[rows - block.start, nearest] = True
        w, c = np.nonzero(keep)
        who.append(w + block.start)
        chunks.append(c)
    return np.concatenate(who), np.concatenate(chunks)


def nearest(walls, pts):
    """_NearestSegment.nearest in the (5, chunks, width) layout."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    who, chunks = _candidates(walls, pts)
    ex, ey, d2 = _offsets(walls, pts, who, chunks)
    counts = np.bincount(who, minlength=len(pts))
    starts = np.cumsum(counts) - counts
    chunk_min = d2.min(axis=1)
    tied = chunk_min == np.minimum.reduceat(chunk_min, starts)[who]
    pairs = len(who)
    first = np.minimum.reduceat(np.where(tied, np.arange(pairs), pairs), starts)
    col = np.argmin(d2[first], axis=1)
    return walls._seg[chunks[first], col], ex[first, col], ey[first, col], d2[first, col]
