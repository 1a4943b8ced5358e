"""Run files: the trace writer against a per-cell csv.writer loop, the
readers against a per-row csv.DictReader loop and on malformed files, and
`tubenav plot` against the plots `simulate` writes."""

import csv
import json
from types import SimpleNamespace

import numpy as np
import pytest

from tubenav.cli import main
from tubenav.engine import run
from tubenav.errors import RunFileError
from tubenav.reports import (
    METRICS_COLUMNS,
    TRACE_COLUMNS,
    read_metrics_csv,
    read_trace_csv,
    write_metrics_csv,
    write_trace_csv,
)
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


def loop_read_trace_csv(path):
    """Rows regrouped into frames by a dict keyed by time, each frame's rows
    sorted by robot id: the oracle of the array reader."""
    frames = {}
    with open(path) as f:
        for row in csv.DictReader(f):
            frames.setdefault(float(row["t"]), []).append(row)
    out = []
    for t in sorted(frames):
        rows = sorted(frames[t], key=lambda r: int(r["robot_id"]))
        out.append((t, np.array([[float(r[c]) for c in ("x", "y", "vx", "vy")] for r in rows]),
                    np.array([r["active"] == "1" for r in rows])))
    return out


def _same(a, b):
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))


class TestReaders:
    @pytest.mark.parametrize("case", ["synthetic", "exits"])
    def test_trace_matches_the_row_loop(self, case, tmp_path):
        log = synthetic_log() if case == "synthetic" else run(scenario_from_dict(RUNS[case]()))
        path = write_trace_csv(log, tmp_path / "trace.csv")
        got, want = read_trace_csv(path), loop_read_trace_csv(path)
        assert [fr.time for fr in got] == [t for t, _, _ in want]
        for fr, (_, table, active) in zip(got, want):
            assert _same(np.concatenate([fr.positions, fr.velocities], axis=1), table)
            assert np.array_equal(fr.active, active)

    def test_metrics_round_trip(self, tmp_path):
        log = run(scenario_from_dict(RUNS["exits"]()))
        cols = read_metrics_csv(write_metrics_csv(log, tmp_path / "metrics.csv"))
        assert sorted(cols) == sorted(METRICS_COLUMNS)
        assert np.array_equal(cols["t"], [rec.time for rec in log.records])
        assert np.array_equal(cols["exited"], [rec.metrics.exited_count for rec in log.records])


def malformed_files(columns):
    """name -> (file text, the problem the error names)."""
    header = ",".join(columns)
    row = ",".join(["1.0"] * len(columns))
    return {
        "header-only": (header + "\r\n", "no records"),
        "empty": ("", "unexpected header None"),
        "foreign-header": ("a,b\r\n1,2\r\n", "unexpected header ['a', 'b']"),
        "text-cell": (f"{header}\r\n{row}\r\n\r\n{row[:-3]}x\r\n", "row 3 is not"),
        "short-row": (f"{header}\r\n{row}\r\n1.0,2.0\r\n", "row 2 is not"),
    }


class TestMalformedRunFiles:
    @pytest.mark.parametrize("reader, columns", [(read_trace_csv, TRACE_COLUMNS),
                                                 (read_metrics_csv, METRICS_COLUMNS)])
    @pytest.mark.parametrize("case", sorted(malformed_files(TRACE_COLUMNS)))
    def test_reader_names_the_file_and_the_problem(self, reader, columns, case, tmp_path):
        text, problem = malformed_files(columns)[case]
        path = tmp_path / "run.csv"
        path.write_text(text, newline="")
        with pytest.raises(RunFileError) as exc:
            reader(path)
        assert str(exc.value).startswith(f"{path}: ") and problem in str(exc.value)

    @pytest.mark.parametrize("name, columns", [("trace.csv", TRACE_COLUMNS),
                                               ("metrics.csv", METRICS_COLUMNS)])
    @pytest.mark.parametrize("case", sorted(malformed_files(TRACE_COLUMNS)))
    def test_plot_exits_2_with_one_line(self, name, columns, case, tmp_path, capsys):
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(RUNS["ring"]()))
        run_dir = tmp_path / "run"
        assert main(["simulate", str(path), "--out", str(run_dir)]) == 0
        capsys.readouterr()
        text, problem = malformed_files(columns)[case]
        (run_dir / name).write_text(text, newline="")
        assert main(["plot", str(run_dir / "trace.csv"), "--out", str(tmp_path / "re")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith(f"run file error: {run_dir / name}: ") and problem in err[0]
