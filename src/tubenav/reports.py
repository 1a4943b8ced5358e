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

from .metrics import evacuation_time

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


def write_trace_csv(log, path):
    path = Path(path)
    with path.open("w", newline="") as f:
        w = csv.writer(f)
        w.writerow(TRACE_COLUMNS)
        for rec in log.records:
            n = len(rec.positions)
            for i in range(n):
                w.writerow(
                    [
                        _fmt(rec.time),
                        i,
                        _fmt(rec.positions[i, 0]),
                        _fmt(rec.positions[i, 1]),
                        _fmt(rec.velocities[i, 0]),
                        _fmt(rec.velocities[i, 1]),
                        _fmt(rec.u1[i, 0]),
                        _fmt(rec.u1[i, 1]),
                        _fmt(rec.u2[i, 0]),
                        _fmt(rec.u2[i, 1]),
                        _fmt(rec.u3[i, 0]),
                        _fmt(rec.u3[i, 1]),
                        _fmt(rec.u4[i, 0]),
                        _fmt(rec.u4[i, 1]),
                        _fmt(rec.kappa[i]),
                        int(rec.active[i]),
                    ]
                )
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


def write_summary_json(log, path, extra=None):
    path = Path(path)
    payload = {
        "fingerprint": log.fingerprint,
        "scenario_name": log.scenario.get("name"),
        "termination": log.termination,
        "fault": log.fault,
        "records": len(log.records),
        "exited": len(log.exit_times),
        "exit_times": {str(k): v for k, v in sorted(log.exit_times.items())},
        "evacuated_s": evacuation_time(log),
        "final_metrics": _metrics_dict(log.final_metrics()),
        "violations": {
            "safety_faults": 1 if log.fault else 0,
        },
    }
    if extra:
        payload.update(extra)
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


def read_trace_csv(path):
    """Trace rows regrouped into per-time frames (ordered)."""
    path = Path(path)
    frames = {}
    with path.open() as f:
        reader = csv.DictReader(f)
        if reader.fieldnames != TRACE_COLUMNS:
            raise ValueError(f"unexpected trace header in {path}")
        for row in reader:
            t = float(row["t"])
            frames.setdefault(t, []).append(row)
    out = []
    for t in sorted(frames):
        rows = sorted(frames[t], key=lambda r: int(r["robot_id"]))
        pos = np.array([[float(r["x"]), float(r["y"])] for r in rows])
        vel = np.array([[float(r["vx"]), float(r["vy"])] for r in rows])
        act = np.array([r["active"] == "1" for r in rows])
        out.append(TraceFrame(time=t, positions=pos, velocities=vel, active=act))
    return out


def read_metrics_csv(path):
    """Metrics table as a dict of column arrays."""
    path = Path(path)
    cols = {c: [] for c in METRICS_COLUMNS}
    with path.open() as f:
        reader = csv.DictReader(f)
        if reader.fieldnames != METRICS_COLUMNS:
            raise ValueError(f"unexpected metrics header in {path}")
        for row in reader:
            for c in METRICS_COLUMNS:
                cols[c].append(float(row[c]))
    return {c: np.array(v) for c, v in cols.items()}
