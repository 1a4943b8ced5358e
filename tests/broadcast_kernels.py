"""Broadcast forms of the dense passes, the oracles of the library's
matrix-product forms.

The wall search's per-segment pass is checked against the same arithmetic
with numpy broadcasting and the earlier (5, chunks, width) chunk layout,
operation for operation otherwise.  Each function takes the library object
as its first argument, so a test can also patch it in as the method of the
same name and run a whole simulation on the broadcast forms.  Both forms
agree bit for bit.

The kernel sums are the exception: the library's exponents are products
with inner dimension four, factored along each grid column's radial
lattice (the error grid) or over every pair (the KDE), whose roundings
differ from the broadcast form's.  section_estimates and
estimate_and_gradient_many here, dense broadcast passes, hold them to
section_bound and kde_bound instead.
"""

import numpy as np

from tubenav.blocks import row_blocks
from tubenav.density import _CLAMP, _TWO_PI
from tubenav.geometry import _CULL_SLACK


def _kde_terms(view, pts):
    """The dense pass of estimate_and_gradient_many: the kernel values
    exp(-|d|^2 / 2) / (2 pi) and the offsets d = (p - x_j) / h, (M, N) and
    (M, N, 2)."""
    d = (np.asarray(pts, dtype=float).reshape(-1, 2)[:, None, :] - view.positions) / view.bandwidth
    k = np.exp(np.add.reduce(d * d, axis=2) * -0.5) / _TWO_PI
    return k, d


def estimate_and_gradient_many(view, pts):
    """DensityView.estimate_and_gradient_many as a dense broadcast pass on
    the offsets p - x_j: sum k / (n h^2) and -sum k d / (n h^3)."""
    k, d = _kde_terms(view, pts)
    h, n = view.bandwidth, view.n
    return (np.add.reduce(k, axis=1) / (n * h * h),
            np.add.reduce(k[..., None] * d, axis=1) * (-1.0 / (n * h ** 3)))


def kde_bound(view, pts):
    """How far DensityView.estimate_and_gradient_many may lie from
    estimate_and_gradient_many above, per query: (M,) for the estimate and
    (M,) for each gradient component.

    Unit roundoff u = 2^-53, tau = 2^-1074, to first order in u.  Let R be
    the largest distance of a query or robot from the first robot c, in
    bandwidths, so |P|, |X| <= R and |P - X| <= 2 R.  Write rho and grad
    for the exact values, S = sum k_j, and g = sum k_j |X_j - P| / (n h^3),
    the sum of the gradient's terms' magnitudes, with k_j = exp(-|P -
    X_j|^2 / 2) / (2 pi).

    The library.  P = (p - c) / h is within 2u of its value per component,
    and -|P|^2 / 2 within 6u of its value.  The robots' -|X|^2 / 2 - ln 2 pi
    adds u of the half square and 2u of ln 2 pi < 1.84.  The product with
    inner dimension four sums terms of total size <= 2 R^2 + 1.84 in any
    order, off by at most 4u of that, and its inputs' errors move it by
    at most 10.5 u R^2 + 2u ln 2 pi more.  So the exponent is within
    delta = 18.5 u R^2 + 11.1 u <= 20 u (R^2 + 1) of its value, and,
    with exp within 4u of its result, each kernel value within eps_k =
    2 delta + 5u of k_j (delta <= 1), plus tau where it is subnormal.
    - The estimate: the N-term sum of positive values adds N u, and the
      scale n h^2 and the division 3u.  Within (eps_k + (N + 3) u) rho +
      tau / h^2.
    - The gradient (sum k X - P sum k) / (n h^3): the kernel values' errors
      enter as sum (k^_j - k_j)(X_j - P) / (n h^3), at most eps_k g +
      2 R tau / h^3.  The offsets' errors and the two N-term sums, each
      of terms of size <= R k_j, add (2N + 5) u R S, and the subtraction,
      the scale n h^3 (h**3 within an ulp) and the division 5u g.  Within
      (eps_k + 5u) g + (2N + 5) u R rho / h + 2 R tau / h^3.
    Both are within beta (rho) and beta (g + rho / h), beta = u (40 R^2 +
    51 + (2N + 5) max(R, 1)), the bound that DensityView states.

    The oracle.  d = (p - x_j) / h is within 2u per component of its value
    and |d| <= 2 R, so -|d|^2 / 2 is within 7u |d|^2 / 2 <= 14 u R^2 and
    each kernel value, after exp and the division by 2 pi, within eps_o =
    28 u R^2 + 7u, plus tau.  The sums add N u, the products k d 3u and the
    scales 4u: the estimate is within (eps_o + (N + 3) u) rho + tau / h^2
    and the gradient within (eps_o + (N + 7) u) g + 2 R tau / h^3, both
    within beta_o = u (28 R^2 + N + 14) of rho and g.

    rho and g are unknown; the oracle's values are within beta_o of them
    (its g like its gradient), so rho <= (rho_o + tau / h^2) / (1 -
    beta_o), and likewise for g.  The bound sums the two forms' bounds."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    u, tau = 2.0 ** -53, 2.0 ** -1074
    h, n = view.bandwidth, view.n
    offsets = np.concatenate([pts, view.positions]) - view.positions[0]
    r = float(np.sqrt(np.add.reduce(offsets * offsets, axis=1)).max()) / h
    beta = u * (40 * r * r + 51 + (2 * n + 5) * max(r, 1.0))
    beta_o = u * (28 * r * r + n + 14)
    assert beta_o <= 0.5
    k, d = _kde_terms(view, pts)
    rho_o = np.add.reduce(k, axis=1) / (n * h * h)
    g_o = np.add.reduce(k * np.sqrt(np.add.reduce(d * d, axis=2)), axis=1) / (n * h ** 3)
    rho = (rho_o + tau / h ** 2) / (1 - beta_o)
    g = (g_o + 2 * r * tau / h ** 3) / (1 - beta_o)
    return ((beta + beta_o) * rho + 2 * tau / h ** 2,
            beta * (g + rho / h) + beta_o * g + 4 * r * tau / h ** 3)


def assert_within_kde_bound(view, pts, got):
    """got, the library's (rho, grad) at pts, within kde_bound of the
    broadcast form."""
    rho_tol, grad_tol = kde_bound(view, pts)
    want = estimate_and_gradient_many(view, pts)
    assert got[0].shape == want[0].shape and got[1].shape == want[1].shape
    assert np.all(np.abs(got[0] - want[0]) <= rho_tol)
    assert np.all(np.abs(got[1] - want[1]) <= grad_tol[:, None])


def cell_offsets(r_d, dr, n_r):
    """The cell-centre offsets along each column's normal, (columns, n_r),
    of the radial lattices r_d and dr: -r_d + (k + 1/2) dr, k < n_r."""
    return -np.asarray(r_d)[:, None] + (np.arange(n_r) + 0.5) * np.asarray(dr)[:, None]


def section_estimates(views, origins, tangents, normals, r_d, dr, n_r):
    """density.section_estimates as a dense broadcast pass, record by
    record, on the earlier arithmetic: the cells' explicit offsets r
    (cell_offsets), (origin - x_j) / h, s and tau as dot products with the
    frame, then exp(-(s + r / h)^2 / 2) and exp(-tau^2 / 2).  No robot is
    culled and nothing is clamped."""
    r = len(views)
    n_l = len(r_d) // r
    offsets = cell_offsets(r_d, dr, n_r)
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


def section_rel(views, origins, r_d, dr, n_r):
    """Per record, (R, 1, 1), the relative part of section_bound: how far,
    relative to the broadcast value, the library's kernel sums may lie from
    it for the robots, cells and factors that the library neither culls,
    clamps nor underflows.

    Write eps = 2^-53 and, for one record with bandwidth h and N robots,
    let D be the L1 size of the bounding box of its column origins and
    robots, and K = (2 D + max |r_d| + 3 n_r max dr) / h + C, C = _CLAMP.
    The library writes each cell k < A B, the A B - n_r past the last too, as u + k Delta in bandwidths, with u = s + rho_0, s, tau
    = (o - x) . (n, t) / h, rho_0 = (dr / 2 - r_d) / h, Delta = dr / h.
    Unclamped, |s|, |tau| <= D / h and |rho_0| <= (|r_d| + dr / 2) / h;
    clamped, |u| <= (n_r - 1) Delta + C and |tau| <= C; and k < 2 n_r.  So
    |tau| <= K and |u| + k Delta <= K, and each term that the frame product
    sums is at most K.
    - u and tau: the frame product [(o - c) . n / h + rho_0, -n / h] @ [1;
      x - c; y - c], its rounded inputs (rho_0's two roundings and its
      addition among them) and its two-rounding sum: within 10 eps K each.
    - The exponents at those u and tau: the rows Delta u, u^2, tau^2 and
      Delta^2 are each within 3 eps of their values (Delta = dr / h is
      within eps), the coefficients are exact (integers and their halves),
      and a four-term product adds eps per term and eps per partial sum,
      at most 4 eps of the sum of the magnitudes of its terms: F's and G's
      exponents are within 7 eps, and H's (Delta^2 times an exact
      constant) within 4 eps, of the sums of their terms' magnitudes.
      Over F, G and H those add up to tau^2 / 2 + (|u| + k Delta)^2 / 2 <=
      K^2: within 7 eps K^2.
    - u's and tau's errors move the exact exponent -tau^2 / 2 - (u + k
      Delta)^2 / 2 by at most (|tau| + |u + k Delta|) 10 eps K <= 20 eps
      K^2.
    So the library's exponent is within 27 eps K^2 of its exact value.  The
    broadcast form's offsets -r_d + (k + 1/2) dr and r / h are within 3
    eps K and s and tau within 4 eps K, with |s + r / h| <= K; its squares
    of s + r / h and of tau are within 9 eps K^2 and 5 eps K^2.  So the
    two exponents differ by delta <= 41 eps K^2, and while 44 eps K^2 <= 1
    (asserted) the kernels differ by a factor within exp(delta) - 1 <= 2
    delta <= 88 eps K^2.  The library's three exps and the broadcast
    form's two add 4 eps each, the products G F, times H and z times
    exp(-tau^2 / 2) eps each, the two scalings 4 eps each, and the N-term
    sums of positive values (N - 1) eps each.  In all, rel = eps (88 K^2 +
    2 N + 30), as section_estimates states."""
    eps = 2.0 ** -53
    n_l = len(r_d) // len(views)
    rel = np.empty((len(views), 1, 1))
    for i, view in enumerate(views):
        cols = slice(i * n_l, (i + 1) * n_l)
        pts = np.concatenate([origins[cols], view.positions])
        size = float(np.sum(pts.max(axis=0) - pts.min(axis=0)))
        width = float(np.abs(r_d[cols]).max() + 3 * n_r * dr[cols].max())
        k = (2.0 * size + width) / view.bandwidth + _CLAMP
        assert 44 * eps * k * k <= 1.0
        rel[i] = eps * (88 * k * k + 2 * view.n + 30)
    return rel


def section_bound(views, origins, r_d, dr, n_r, want):
    """Per cell, (R, n_l, n_r), how far density.section_estimates may lie
    from ``want``, the values of section_estimates above: section_rel times
    ``want``, plus (1 + section_rel) 2^-53 / (2 pi h^2) for the kernels
    that the library changes.  Each is below 2^-53 (1 + section_rel) in
    both forms: a robot beyond _CULL_RADIUS h of every cell of a block
    that the library drops; a robot whose u or tau it clamps, which it does
    only where |u + k Delta| or |tau| exceeds _CLAMP for every cell k of
    the column, so that its kernels there are below 2^-212; and a term with
    a factor G, G F or H below 2^-1022, where the kernel is below e^500
    2^-1022 < 2^-300 (F <= e^500)."""
    h = np.array([view.bandwidth for view in views])[:, None, None]
    rel = section_rel(views, origins, r_d, dr, n_r)
    return rel * want + (1.0 + rel) * 2.0 ** -53 / (_TWO_PI * h * h)


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
