"""Run artifacts: trace and metrics CSV files, summary JSON.

Floats are written with repr (shortest round-trip form), so identical runs
produce byte-identical files and readers recover exact values.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import RunFileError
from .metrics import evacuation_time, stalled_counts

TRACE_COLUMNS = [
    "t", "robot_id", "x", "y", "vx", "vy",
    "u1x", "u1y", "u2x", "u2y", "u3x", "u3y", "u4x", "u4y",
    "kappa_m", "active",
]

METRICS_COLUMNS = [
    "t", "min_pair_dist", "min_bound_dist", "amd", "exited",
    "density_err_l2", "cond23_ok",
]


def _fmt(x):
    return repr(float(x))


# one trace row: t, robot_id, the twelve vector components, kappa_m, active;
# %r of a float is its repr and %d prints the integral id and flag columns
_TRACE_ROW = "%r,%d," + "%r," * 13 + "%d\r\n"


def write_trace_csv(log, path):
    """One row per robot per record, with csv's "\r\n" line ends.  Each
    record is one (N, 16) column stack formatted by one % operation."""
    path = Path(path)
    with path.open("w", newline="") as f:
        f.write(",".join(TRACE_COLUMNS) + "\r\n")
        for rec in log.records:
            n = len(rec.positions)
            block = np.column_stack([
                np.full(n, rec.time), np.arange(n), rec.positions, rec.velocities,
                rec.u1, rec.u2, rec.u3, rec.u4, rec.kappa, rec.active,
            ])
            f.write(_TRACE_ROW * n % tuple(block.ravel().tolist()))
    return path


def write_metrics_csv(log, path):
    path = Path(path)
    with path.open("w", newline="") as f:
        w = csv.writer(f)
        w.writerow(METRICS_COLUMNS)
        for rec in log.records:
            m = rec.metrics
            w.writerow(
                [
                    _fmt(m.time),
                    _fmt(m.min_pairwise_distance),
                    _fmt(m.min_boundary_distance),
                    _fmt(m.amd),
                    m.exited_count,
                    _fmt(m.density_error_l2),
                    int(m.condition23_ok),
                ]
            )
    return path


def _json_num(x):
    return None if x is None or not math.isfinite(x) else x


def _metrics_dict(m):
    if m is None:
        return None
    return {
        "time": m.time,
        "min_pairwise_distance": _json_num(m.min_pairwise_distance),
        "min_boundary_distance": _json_num(m.min_boundary_distance),
        "amd": _json_num(m.amd),
        "exited_count": m.exited_count,
        "density_error_l2": _json_num(m.density_error_l2),
        "condition23_ok": m.condition23_ok,
        "max_command_norm": _json_num(m.max_command_norm),
    }


def stalled_summary(log):
    """(final, max) of the per-record stalled-robot counts, with the log's
    own approach speed; (None, None) for a log without records."""
    counts = stalled_counts(log, log.scenario["params"]["k1_mps"])
    return (int(counts[-1]), int(counts.max())) if len(counts) else (None, None)


def write_summary_json(log, path):
    path = Path(path)
    stalled_final, stalled_max = stalled_summary(log)
    payload = {
        "fingerprint": log.fingerprint,
        "scenario_name": log.scenario.get("name"),
        "termination": log.termination,
        "fault": log.fault,
        "records": len(log.records),
        "exited": len(log.exit_times),
        "exit_times": {str(k): v for k, v in sorted(log.exit_times.items())},
        "evacuated_s": evacuation_time(log),
        "stalled_final": stalled_final,
        "stalled_max": stalled_max,
        "final_metrics": _metrics_dict(log.final_metrics()),
        "violations": {
            "safety_faults": 1 if log.fault else 0,
        },
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def write_scenario_json(resolved, path):
    Path(path).write_text(json.dumps(resolved, indent=2, sort_keys=True) + "\n")
    return Path(path)


# ---------------------------------------------------------------------------
# readers (for the standalone plot command and for tests)
# ---------------------------------------------------------------------------

@dataclass
class TraceFrame:
    time: float
    positions: np.ndarray
    velocities: np.ndarray
    active: np.ndarray


def _read_table(path, columns):
    """The records of a run CSV file with the given header, as one float
    array with a row per record.  Raises RunFileError naming the file for an
    unexpected header, a row that is not numeric, or no records."""
    path = Path(path)
    with path.open(newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != columns:
            raise RunFileError(f"{path}: unexpected header {header!r}, expected {columns!r}")
        rows = []
        for k, row in enumerate(reader, 1):
            if not row:  # a blank line, skipped as csv.DictReader does
                continue
            try:
                values = [float(v) for v in row]
            except ValueError:
                values = []
            if len(values) != len(columns):
                raise RunFileError(
                    f"{path}: row {k} is not {len(columns)} numbers: {','.join(row)!r}")
            rows.append(values)
    if not rows:
        raise RunFileError(f"{path}: no records")
    return np.array(rows)


def read_trace_csv(path):
    """Trace rows regrouped into per-time frames (ordered by time, each
    frame's robots by id)."""
    table = _read_table(path, TRACE_COLUMNS)
    table = table[np.lexsort((table[:, 1], table[:, 0]))]
    times, starts = np.unique(table[:, 0], return_index=True)
    return [
        TraceFrame(time=float(t), positions=rows[:, 2:4], velocities=rows[:, 4:6],
                   active=rows[:, 15] == 1.0)
        for t, rows in zip(times, np.split(table, starts[1:]))
    ]


def read_metrics_csv(path):
    """Metrics table as a dict of column arrays."""
    table = _read_table(path, METRICS_COLUMNS)
    return dict(zip(METRICS_COLUMNS, table.T))
