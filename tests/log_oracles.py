"""Per-record loops over a run log, the oracles of the array readers.

Each reads ``log.records`` one StepRecord view at a time, as the readers in
tubenav.metrics and tubenav.reports did when the log was a list of
records; the array readers must match them bit for bit, and byte for byte
for the files.
"""

import csv

import numpy as np

from tubenav.metrics import COND23_TOL, STALL_FRACTION
from tubenav.reports import METRICS_COLUMNS, TRACE_COLUMNS

_TRACE_ROW = "%r,%d," + "%r," * 13 + "%d\r\n"


def loop_evacuation_time(log):
    if not log.records or log.records[-1].active.any() or not log.exit_times:
        return None
    return max(log.exit_times.values())


def loop_stalled_counts(log, k1):
    slow = STALL_FRACTION * k1
    counts = np.array([
        np.count_nonzero(rec.active & (np.hypot(rec.velocities[:, 0], rec.velocities[:, 1]) < slow))
        for rec in log.records
    ], dtype=np.int64)
    if log.termination == "fault":
        counts[-1] = 0
    return counts


def loop_audit_condition23(log, tol=COND23_TOL):
    """The violations list: (time, robot_id, |u4|, |u123|)."""
    violations = []
    for rec in log.records:
        u123 = rec.u1 + rec.u2 + rec.u3
        n123 = np.linalg.norm(u123, axis=1)
        n4 = np.linalg.norm(rec.u4, axis=1)
        bad = np.flatnonzero(rec.active & (n4 > n123 + tol))
        for i in bad:
            violations.append((rec.time, int(i), float(n4[i]), float(n123[i])))
    return violations


def loop_write_trace_csv(log, path):
    """Each record one (N, 16) column stack formatted by one % operation."""
    with open(path, "w", newline="") as f:
        f.write(",".join(TRACE_COLUMNS) + "\r\n")
        for rec in log.records:
            n = len(rec.positions)
            block = np.column_stack([
                np.full(n, rec.time), np.arange(n), rec.positions, rec.velocities,
                rec.u1, rec.u2, rec.u3, rec.u4, rec.kappa, rec.active,
            ])
            f.write(_TRACE_ROW * n % tuple(block.ravel().tolist()))


def loop_write_metrics_csv(log, path):
    def fmt(x):
        return repr(float(x))

    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(METRICS_COLUMNS)
        for rec in log.records:
            m = rec.metrics
            w.writerow([
                fmt(m.time), fmt(m.min_pairwise_distance), fmt(m.min_boundary_distance),
                fmt(m.amd), m.exited_count, fmt(m.density_error_l2), int(m.condition23_ok),
            ])


def loop_series(log):
    """render_plots' series, one list element per record."""
    metrics = [r.metrics for r in log.records]
    return {
        "t": np.array([r.time for r in log.records]),
        "min_pair_dist": np.array([m.min_pairwise_distance for m in metrics]),
        "min_bound_dist": np.array([m.min_boundary_distance for m in metrics]),
        "density_err_l2": np.array([m.density_error_l2 for m in metrics]),
    }
