"""The run log as per-run arrays: records are views of its rows, the array
readers match the per-record loops of log_oracles bit for bit (byte for
byte for the files), and a logged record costs its array payload."""

import gc
import tracemalloc

import numpy as np
import pytest

from tubenav.engine import SimulationLog, run
from tubenav.metrics import audit_condition23, evacuation_time, stalled_counts
from tubenav.reports import write_metrics_csv, write_trace_csv
from tubenav.scenario import scenario_from_dict
from tubenav.svgplot import render_frames, render_plots

from log_oracles import (
    loop_audit_condition23,
    loop_evacuation_time,
    loop_series,
    loop_stalled_counts,
    loop_write_metrics_csv,
    loop_write_trace_csv,
)
from run_cases import RUNS, bundled


@pytest.fixture(scope="module", params=sorted(RUNS))
def case(request):
    scenario = scenario_from_dict(RUNS[request.param]())
    return request.param, scenario, run(scenario)


class TestArrayReaders:
    def test_the_cases_cover_their_edges(self, case):
        name, scenario, log = case
        assert {
            "exits": log.exit_times and log.termination == "time-limit",
            "evacuated": log.termination == "all-exited",
            "fault": log.termination == "fault",
            "zero_length": len(log.records) == 1,
            "ring": scenario.tube.closed and log.termination == "time-limit",
        }[name]

    def test_stalled_counts(self, case):
        _, scenario, log = case
        got, want = stalled_counts(log, scenario.params.k1), loop_stalled_counts(log, scenario.params.k1)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_audit_condition23(self, case):
        _, _, log = case
        assert audit_condition23(log).violations == loop_audit_condition23(log)

    def test_evacuation_time(self, case):
        name, _, log = case
        assert evacuation_time(log) == loop_evacuation_time(log)
        assert (evacuation_time(log) is None) == (name != "evacuated")

    @pytest.mark.parametrize("writer, oracle", [(write_trace_csv, loop_write_trace_csv),
                                                (write_metrics_csv, loop_write_metrics_csv)])
    def test_files(self, case, writer, oracle, tmp_path):
        _, _, log = case
        writer(log, tmp_path / "got.csv")
        oracle(log, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_plots(self, case, tmp_path):
        _, scenario, log = case
        got = render_plots(log, tmp_path / "got", scenario.tube, scenario.params)
        want = render_frames(log.records, loop_series(log), tmp_path / "want", scenario.tube,
                             scenario.params.r_s)
        assert [p.name for p in got] == [p.name for p in want]
        for g, w in zip(got, want):
            assert g.read_bytes() == w.read_bytes(), g.name


class TestRecordViews:
    @pytest.fixture(scope="class")
    def log(self):
        return run(scenario_from_dict(RUNS["exits"]()))

    def test_rows_are_views(self, log):
        rec = log.records[7]
        for name in ("positions", "velocities", "u1", "u2", "u3", "u4", "kappa", "active"):
            assert np.shares_memory(getattr(rec, name), getattr(log, name)[7]), name
            assert np.array_equal(getattr(rec, name), getattr(log, name)[7]), name
        assert rec.time == log.time[7]

    def test_writing_a_record_writes_the_log(self):
        log = run(scenario_from_dict(RUNS["ring"]()))
        log.records[3].u4[0] = [5.0, -1.0]
        assert log.u4[3, 0].tolist() == [5.0, -1.0]

    def test_read_only_sequence(self, log):
        with pytest.raises(TypeError):
            log.records[0] = log.records[1]
        with pytest.raises(AttributeError):
            log.records.append(log.records[0])
        with pytest.raises(AttributeError):
            log.records = []
        with pytest.raises(AttributeError):
            log.records[0].time = 1.0

    def test_indexing(self, log):
        n = len(log.records)
        assert n == len(log.time) == log.step_count + 1
        assert log.records[-1].time == log.records[n - 1].time == log.time[-1]
        assert [r.time for r in log.records[2:5]] == log.time[2:5].tolist()
        assert [r.time for r in log.records] == log.time.tolist()
        for k in (n, -n - 1):
            with pytest.raises(IndexError):
                log.records[k]

    def test_metrics_are_python_scalars(self, log):
        m = log.final_metrics()
        assert type(m.time) is float and m.time == log.time[-1]
        assert type(m.exited_count) is int and m.exited_count == len(log.exit_times)
        assert type(m.condition23_ok) is bool
        for name in ("min_pairwise_distance", "min_boundary_distance", "amd",
                     "density_error_l2", "max_command_norm"):
            assert type(getattr(m, name)) is float
            assert getattr(m, name) == log.metrics[name][-1] or np.isnan(log.metrics[name][-1])
        with pytest.raises(AttributeError):
            m.no_such_metric

    def test_empty_log(self):
        log = SimulationLog.allocate("empty", {}, 3, 0)
        assert len(log.records) == 0 and list(log.records) == []
        assert log.final_metrics() is None


@pytest.mark.parametrize("name, t_end", [("annular", 10.0), ("narrow_s_tube", 3.0)])
def test_a_record_costs_its_array_payload(name, t_end):
    """Per record, the log holds the (N, 2) positions, velocities and u1..u4,
    kappa and the active flags, 105 N bytes, and at most 150 more."""
    scenario = scenario_from_dict(bundled(name, t_end=t_end))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        log = run(scenario)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    records, n = log.positions.shape[:2]
    assert records == round(t_end / scenario.dt) + 1
    assert held <= records * (105 * n + 150), held / records
