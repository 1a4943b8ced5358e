"""Tests of the benchmark itself.

    python3 -m pytest -q bench
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracing

ROOT = Path(__file__).resolve().parents[1]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


def _declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_generator_is_deterministic_and_valid():
    a = run.long_tube_crowd(7)
    assert a == run.long_tube_crowd(7)
    sa = run.scenario.scenario_from_dict(a)
    sb = run.scenario.scenario_from_dict(run.long_tube_crowd(7))
    assert sa.n_robots == 400
    np.testing.assert_array_equal(sa.positions, sb.positions)
    other = run.scenario.scenario_from_dict(run.long_tube_crowd(8))
    assert not np.array_equal(sa.positions, other.positions)
    for n in run.SCALING_ROBOTS:
        assert run.scenario.scenario_from_dict(run.long_tube_crowd(7, n)).n_robots == n


def test_wrappers_are_removed_even_after_an_error():
    before = tracing.installed_targets()
    assert before == run.ORIGINALS
    with pytest.raises(RuntimeError):
        with tracing.install(tracing.Tracer()):
            during = tracing.installed_targets()
            assert all(d is not b for d, b in zip(during, before))
            raise RuntimeError
    assert all(a is b for a, b in zip(tracing.installed_targets(), before))


def test_missing_targets_and_counts_are_reported(monkeypatch):
    gone = (tracing.geometry.VirtualTube, "no_such_method", "geometry.gone", None)
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + [gone])
    tracer = tracing.Tracer()
    with tracing.install(tracer):
        assert tracer.problems == ["geometry.gone: VirtualTube.no_such_method is gone, so it is not traced"]
    counted = tracer.wrap("geometry.boundary_distance", lambda tube, pts: 1.0, tracing._boundary_pairs)
    assert counted(object(), [0.0, 1.0]) == 1.0
    assert len(tracer.problems) == 2 and "work count failed" in tracer.problems[1]


def test_traced_trace_matches_untraced(tmp_path):
    raw = run.long_tube_crowd(3, n_robots=25)
    raw["t_end_s"] = 0.05
    base = run.simulate(run.scenario.scenario_from_dict(raw), tmp_path / "untraced")
    tracer = tracing.Tracer()
    with tracing.install(tracer):
        scen = run.scenario.scenario_from_dict(raw)
        traced = run.simulate(scen, tmp_path / "traced", tracer)
    assert base["problems"] == traced["problems"] == []
    assert (tmp_path / "traced" / "trace.csv").read_bytes() == (
        tmp_path / "untraced" / "trace.csv"
    ).read_bytes()
    run_phase = tracer.phases()["engine.run"]
    total = run_phase["engine.run"].incl_s
    assert sum(run.layer_self_times(run_phase).values()) == pytest.approx(total, rel=1e-9)
    assert run_phase["geometry.project"].calls > 0
    assert run_phase["geometry.eval_scalar"].calls > run_phase["geometry.project"].calls


def test_emitted_metrics_are_declared(out_dir):
    declared = _declared()
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    for m in declared["end_to_end"] + declared["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m
    reference = json.loads(run.REFERENCE.read_text())

    tally, metrics = run.measure("long_tube_crowd", 0, 0.0, reference)
    assert tally.failed == 0 and tally.attempted == 1 + run.TIMED_MIN_RUNS
    assert {k: u for k, (_, u) in metrics.items()} == end_to_end
    assert all(v > 0 for v, _ in metrics.values())

    tally, metrics = run.measure_traced("long_tube_crowd", 0, reference)
    assert tally.failed == 0
    assert {k: u for k, (_, u) in metrics.items()} == per_layer
    assert (out_dir / "long_tube_crowd" / "spans.npz").is_file()


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "narrow_full", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
