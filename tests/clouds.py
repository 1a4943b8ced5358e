"""Point clouds for the property tests of ``metrics.neighbours``.

Each family aims at one edge of the cell list: negative coordinates,
coincident points, pairs exactly one reach apart, points on cell edges
with partners just inside the reach, every robot in one cell, every robot
isolated, and swarms of 0, 1 and 2.
A case is (positions (M, 2), reach, family name).
"""

import numpy as np
from hypothesis import strategies as st

from tubenav.metrics import _CELL_PAD

REACHES = (1.3, 0.7, 2.5)


def _points(draw, coord, min_size=0, max_size=30):
    return draw(st.lists(st.tuples(coord, coord), min_size=min_size, max_size=max_size))


@st.composite
def clouds(draw):
    reach = draw(st.sampled_from(REACHES))
    cell = reach * _CELL_PAD
    family = draw(st.sampled_from(
        ["scatter", "lattice", "edge-pairs", "band", "one-cell", "isolated", "tiny"]
    ))
    if family == "scatter":
        # uniform around the origin, then some points repeated exactly
        pts = _points(draw, st.floats(-4 * reach, 4 * reach))
        if pts:
            pts += [pts[k] for k in draw(st.lists(st.integers(0, len(pts) - 1), max_size=4))]
    elif family == "lattice":
        # steps of one reach give pairs exactly reach apart; steps of one
        # cell put every point on a cell edge
        step = draw(st.sampled_from([reach, cell, reach / 2]))
        ks = _points(draw, st.integers(-4, 4))
        pts = [(step * a, step * b) for a, b in ks]
    elif family == "band":
        # a lattice just inside the reach, jittered: up to four neighbours
        # within reach and none within 0.8 reach
        step = reach * draw(st.floats(0.82, 0.98))
        n = draw(st.integers(1, 6))
        origin = draw(st.tuples(st.floats(-20, 20), st.floats(-20, 20)))
        jitter = draw(st.lists(st.floats(-0.005 * reach, 0.005 * reach),
                               min_size=2 * n * n, max_size=2 * n * n))
        pts = [(origin[0] + step * a + jitter[2 * (a * n + b)],
                origin[1] + step * b + jitter[2 * (a * n + b) + 1])
               for a in range(n) for b in range(n)]
    elif family == "edge-pairs":
        # a point on or just below a cell edge, and a partner just inside
        # the reach of it, often along an axis
        pts = []
        for _ in range(draw(st.integers(1, 8))):
            below = reach * draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]))
            base = [cell * draw(st.integers(-5, 5)) - below for _ in range(2)]
            angle = draw(st.sampled_from([0.0, 0.5 * np.pi, np.pi, -0.5 * np.pi])
                         | st.floats(-np.pi, np.pi))
            gap = reach * (1.0 - draw(st.sampled_from([1e-15, 1e-9, 1e-6, 1e-3])))
            pts += [tuple(base),
                    (base[0] + gap * np.cos(angle), base[1] + gap * np.sin(angle))]
    elif family == "one-cell":
        corner = cell * draw(st.integers(-3, 3))
        pts = _points(draw, st.floats(0.0, 0.999 * cell).map(lambda v: corner + v))
    elif family == "isolated":
        ks = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), unique=True,
                           max_size=20))
        jitter = st.floats(-0.5 * reach, 0.5 * reach)
        pts = [(3 * reach * a + draw(jitter), 3 * reach * b + draw(jitter)) for a, b in ks]
    else:
        pts = _points(draw, st.floats(-10, 10), max_size=2)
    return np.array(pts, dtype=float).reshape(-1, 2), reach, family


def dense_distances(pts):
    """All-pairs distances with the library's arithmetic, inf on the diagonal."""
    dx = pts[:, 0][:, None] - pts[:, 0][None, :]
    dy = pts[:, 1][:, None] - pts[:, 1][None, :]
    d = np.sqrt(dx * dx + dy * dy)
    np.fill_diagonal(d, np.inf)
    return dx, dy, d
