"""Run files: the trace writer against a per-cell csv.writer loop, and
`tubenav plot` against the plots `simulate` writes."""

import csv
import json
from types import SimpleNamespace

import numpy as np
import pytest

from tubenav.cli import main
from tubenav.engine import run
from tubenav.reports import TRACE_COLUMNS, write_trace_csv
from tubenav.scenario import apply_overrides, bundled_scenario_path, scenario_from_dict


def loop_write_trace_csv(log, path):
    """One csv.writer row per robot per record, one repr per cell: the
    oracle the array writer must match byte for byte."""

    def fmt(x):
        return repr(float(x))

    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(TRACE_COLUMNS)
        for rec in log.records:
            for i in range(len(rec.positions)):
                w.writerow([
                    fmt(rec.time), i,
                    fmt(rec.positions[i, 0]), fmt(rec.positions[i, 1]),
                    fmt(rec.velocities[i, 0]), fmt(rec.velocities[i, 1]),
                    fmt(rec.u1[i, 0]), fmt(rec.u1[i, 1]),
                    fmt(rec.u2[i, 0]), fmt(rec.u2[i, 1]),
                    fmt(rec.u3[i, 0]), fmt(rec.u3[i, 1]),
                    fmt(rec.u4[i, 0]), fmt(rec.u4[i, 1]),
                    fmt(rec.kappa[i]), int(rec.active[i]),
                ])


def bundled(name, **over):
    return apply_overrides(json.loads(bundled_scenario_path(name).read_text()), **over)


def exit_scenario():
    """The narrow tube in baseline mode with one robot in the bulb and one
    a metre short of the end, which exits within the run."""
    raw = bundled("narrow_s_tube", t_end=2.0, mode="baseline")
    raw["placement"] = {"kind": "explicit",
                        "positions_xy_m": [[3.0, 0.0], [28.1, 3.783900317293356]]}
    return raw


def fault_scenario():
    """Two robots side by side in the tube-keeping band of a 2.2 m tube: a
    strong u3 and a weak u2 carry them inside 2 r_s in one 0.1 s step."""
    return {
        "name": "squeeze", "dt_s": 0.1, "t_end_s": 1.0, "mode": "baseline",
        "tube": {
            "segments": [{"kind": "line", "start_xy_m": [0.0, 0.0], "end_xy_m": [20.0, 0.0]}],
            "width_knots_m": [[0.0, 1.1, 1.1], [20.0, 1.1, 1.1]],
        },
        "placement": {"kind": "explicit", "positions_xy_m": [[5.0, 0.55], [5.0, -0.55]]},
        "params": {"k2": 1e-6, "k3": 10.0},
    }


RUNS = {
    "exits": exit_scenario,
    "fault": fault_scenario,
    "zero_length": lambda: bundled("narrow_s_tube", t_end=0.0),
    "ring": lambda: bundled("annular", t_end=0.05),
}


def synthetic_log():
    """Records holding values whose repr is easy to get wrong."""
    odd = [-0.0, np.nan, 5e-324, 2.2250738585072014e-308 / 3, np.inf, -np.inf, 1e300,
           -1.5e-7, 0.1 + 0.2, 123456789.0, 1.0, -2.0, 0.0, 3.0]

    def record(time, shift):
        # three robots, each row the values rotated by one more place
        table = np.stack([np.roll(odd, shift + k) for k in range(3)])
        return SimpleNamespace(
            time=time,
            positions=table[:, 0:2], velocities=table[:, 2:4],
            u1=table[:, 4:6], u2=table[:, 6:8], u3=table[:, 8:10], u4=table[:, 10:12],
            kappa=table[:, 12],
            active=np.array([True, False, True]),
        )

    return SimpleNamespace(records=[record(0.0, 0), record(-0.0, 5), record(5e-324, 11)])


class TestTraceWriter:
    @pytest.mark.parametrize("case", sorted(RUNS))
    def test_matches_the_row_loop(self, case, tmp_path):
        log = run(scenario_from_dict(RUNS[case]()))
        if case == "exits":
            assert log.exit_times and not log.records[-1].active.all()
        if case == "fault":
            assert log.termination == "fault"
            assert np.isnan(log.records[-1].metrics.max_command_norm)
        if case == "zero_length":
            assert len(log.records) == 1
        write_trace_csv(log, tmp_path / "got.csv")
        loop_write_trace_csv(log, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_matches_the_row_loop_on_edge_values(self, tmp_path):
        log = synthetic_log()
        write_trace_csv(log, tmp_path / "got.csv")
        loop_write_trace_csv(log, tmp_path / "want.csv")
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        for text in (b",-0.0,", b",nan,", b",5e-324,", b",inf,", b",-inf,"):
            assert text in got

    def test_no_records_writes_the_header(self, tmp_path):
        write_trace_csv(SimpleNamespace(records=[]), tmp_path / "empty.csv")
        assert (tmp_path / "empty.csv").read_bytes() == (",".join(TRACE_COLUMNS) + "\r\n").encode()


class TestPlotCommand:
    @pytest.mark.parametrize("case, code", [("exits", 0), ("ring", 0), ("fault", 1)])
    def test_replots_what_simulate_drew(self, case, code, tmp_path):
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(RUNS[case]()))
        run_dir, replot = tmp_path / "run", tmp_path / "replot"
        assert main(["simulate", str(path), "--out", str(run_dir)]) == code
        assert main(["plot", str(run_dir / "trace.csv"), "--out", str(replot)]) == 0
        drawn = sorted(p.name for p in run_dir.glob("*.svg"))
        assert "distances.svg" in drawn and len(drawn) >= 4
        assert sorted(p.name for p in replot.glob("*.svg")) == drawn
        for name in drawn:
            assert (replot / name).read_bytes() == (run_dir / name).read_bytes(), name
