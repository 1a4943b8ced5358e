"""Broadcast forms of the dense passes' outer sums, the oracles of the
library's matrix-product forms.

The library builds every outer sum or difference of the KDE, the error grid
and the wall search's per-segment pass as a matrix product with inner
dimension two, or in a chunk layout along the point axis.  These functions
compute the same values with numpy broadcasting and the earlier (5, chunks,
width) chunk layout, operation for operation otherwise.  Each takes the
library object as its first argument, so a test can also patch it in as the
method of the same name and run a whole simulation on the broadcast forms.

Both forms agree bit for bit, up to the sign of an exact zero: a product
accumulates from +0.0, so where the broadcast difference is -0.0 - +0.0 =
-0.0 the product gives +0.0.
"""

import numpy as np

from tubenav.blocks import row_blocks
from tubenav.density import _CULL_RADIUS, _TWO_PI
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


def estimate_sections(view, origins, tangents, normals, offsets):
    """DensityView.estimate_sections with origin - x_j and s + r / h as
    broadcast sums.  The cull box is the library's, from each column's
    smallest and largest offset."""
    h = view.bandwidth
    n_l, n_r = offsets.shape
    if offsets.size == 0:
        return np.zeros((n_l, n_r))
    scaled = offsets / h
    size, blocks = row_blocks(n_l, (n_r + 5) * view.n)
    first = origins + offsets.min(axis=1)[:, None] * normals
    last = origins + offsets.max(axis=1)[:, None] * normals
    starts = [cols.start for cols in blocks]
    lo = np.minimum.reduceat(np.minimum(first, last), starts) - _CULL_RADIUS * h
    hi = np.maximum.reduceat(np.maximum(first, last), starts) + _CULL_RADIUS * h
    px, py = view.positions.T
    sums = np.empty((n_l, n_r, 1))
    buf = np.empty(size * n_r * view.n)
    col_buf = np.empty(5 * size * view.n)
    for cols, (lo_x, lo_y), (hi_x, hi_y) in zip(blocks, lo, hi):
        near = (px >= lo_x) & (px <= hi_x) & (py >= lo_y) & (py <= hi_y)
        xs, ys = px[near], py[near]
        m, k = cols.stop - cols.start, len(xs)
        if k == 0:
            sums[cols] = 0.0
            continue
        z = buf[: m * n_r * k].reshape(m, n_r, k)
        dx, dy, tau, s, tmp = col_buf[: 5 * m * k].reshape(5, m, k)
        np.subtract(origins[cols, 0, None], xs, out=dx)
        dx /= h
        np.subtract(origins[cols, 1, None], ys, out=dy)
        dy /= h
        np.multiply(dx, tangents[cols, 0, None], out=tau)
        tau += np.multiply(dy, tangents[cols, 1, None], out=tmp)
        np.multiply(dx, normals[cols, 0, None], out=s)
        s += np.multiply(dy, normals[cols, 1, None], out=tmp)
        np.add(s[:, None, :], scaled[cols, :, None], out=z)
        np.square(z, out=z)
        z *= -0.5
        np.exp(z, out=z)
        along = np.multiply(tau, -0.5, out=tmp)
        along *= tau
        np.exp(along, out=along)
        np.matmul(z, along[:, :, None], out=sums[cols])
    return sums[..., 0] / (_TWO_PI * view.n * h * h)


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
