"""Run artifacts: trace and metrics CSV files, summary JSON.

Floats are written with repr (shortest round-trip form), so identical runs
produce byte-identical files and readers recover exact values.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import RunFileError
from .metrics import METRIC_DTYPE, evacuation_time, stalled_counts

TRACE_COLUMNS = [
    "t", "robot_id", "x", "y", "vx", "vy",
    "u1x", "u1y", "u2x", "u2y", "u3x", "u3y", "u4x", "u4y",
    "kappa_m", "active",
]

METRICS_COLUMNS = [
    "t", "min_pair_dist", "min_bound_dist", "amd", "exited",
    "density_err_l2", "cond23_ok",
]


# one trace row: t, robot_id, the twelve vector components, kappa_m, active;
# %r of a float is its repr and %d prints the integral id and flag columns
_TRACE_ROW = "%r,%d," + "%r," * 13 + "%d\r\n"
# Trace rows formatted by one % operation, or one record's rows if more.
# Larger blocks left the heap fragmented: after the bundled ring's run,
# blocks of 256 rows raised RSS by 4 MB in one write, and 16 rows by none.
_TRACE_BLOCK_ROWS = 16
# t, the three distances and the error as %r; exited and cond23_ok as %d
_METRICS_ROW = "%r,%r,%r,%r,%d,%r,%d\r\n"


def write_trace_csv(log, path):
    """One row per robot per record, with csv's "\r\n" line ends.  A block
    of records at a time, the log's arrays are copied into the columns of
    one (records, N, 16) table, which one % operation formats."""
    path = Path(path)
    n = log.positions.shape[1]
    step = max(_TRACE_BLOCK_ROWS // max(n, 1), 1)
    table = np.empty((step, n, len(TRACE_COLUMNS)))
    table[..., 1] = np.arange(n)
    with path.open("w", newline="") as f:
        f.write(",".join(TRACE_COLUMNS) + "\r\n")
        for start in range(0, len(log.time), step):
            rows = slice(start, start + step)
            block = table[:min(step, len(log.time) - start)]
            block[..., 0] = log.time[rows, None]
            for c, column in enumerate((log.positions, log.velocities,
                                        log.u1, log.u2, log.u3, log.u4)):
                block[..., 2 + 2 * c:4 + 2 * c] = column[rows]
            block[..., 14] = log.kappa[rows]
            block[..., 15] = log.active[rows]
            f.write(_TRACE_ROW * (len(block) * n) % tuple(block.ravel().tolist()))
    return path


def write_metrics_csv(log, path):
    """One row per record, as csv.writer writes the repr of each float."""
    path = Path(path)
    m = log.metrics
    columns = [log.time, m["min_pairwise_distance"], m["min_boundary_distance"], m["amd"],
               m["exited_count"], m["density_error_l2"], m["condition23_ok"]]
    with path.open("w", newline="") as f:
        f.write(",".join(METRICS_COLUMNS) + "\r\n")
        f.writelines(_METRICS_ROW % row for row in zip(*(c.tolist() for c in columns)))
    return path


def _json_num(x):
    return None if x is None or not math.isfinite(x) else x


def _metrics_dict(m):
    if m is None:
        return None
    metrics = {name: _json_num(getattr(m, name)) for name in METRIC_DTYPE.names}
    return {"time": m.time, **metrics}


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
    unexpected header, a row that is not numeric, or no records.  The values
    gather in one flat array of doubles, not a Python float each."""
    path = Path(path)
    flat = array("d")
    with path.open(newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != columns:
            raise RunFileError(f"{path}: unexpected header {header!r}, expected {columns!r}")
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
            flat.extend(values)
    if not flat:
        raise RunFileError(f"{path}: no records")
    return np.frombuffer(flat).reshape(-1, len(columns))


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
