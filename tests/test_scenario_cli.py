import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from tubenav.cli import build_parser, main
from tubenav.errors import ScenarioError
from tubenav.geometry import VirtualTube
from tubenav.reports import (
    METRICS_COLUMNS,
    TRACE_COLUMNS,
    read_metrics_csv,
    read_trace_csv,
)
from tubenav.scenario import (
    bundled_scenario_path,
    load_scenario,
    scenario_from_dict,
)


def short_scenario_dict(t_end=0.5, mode="full", **param_over):
    raw = json.loads(bundled_scenario_path("narrow_s_tube").read_text())
    raw["t_end_s"] = t_end
    raw["mode"] = mode
    raw["params"].update(param_over)
    return raw


def write_scenario(tmp_path, raw, name="sc.json"):
    p = tmp_path / name
    p.write_text(json.dumps(raw))
    return p


class TestLoadScenario:
    def test_bundled_narrow_tube(self):
        sc = load_scenario(bundled_scenario_path("narrow_s_tube"))
        assert sc.n_robots == 25
        assert sc.params.r_s == 0.5
        assert sc.tube.topology == "open"
        assert abs(sc.tube.length - 30.0) < 1e-12

    def test_bundled_annular(self):
        sc = load_scenario(bundled_scenario_path("annular"))
        assert sc.n_robots == 10
        assert sc.params.r_s == 0.075
        assert sc.tube.topology == "closed"
        assert sc.t_end == 150.0

    def test_initial_collision_rejected(self, tmp_path):
        raw = short_scenario_dict()
        raw["placement"] = {
            "kind": "explicit",
            "positions_xy_m": [[2.0, 0.0], [2.9, 0.0]],  # 0.9 < 2 r_s = 1.0
        }
        with pytest.raises(ScenarioError) as exc:
            load_scenario(write_scenario(tmp_path, raw))
        assert exc.value.rule == "initial-collision"

    def test_parse_error_position_annotated(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{\n  "name": "x",\n  "bad": [1, 2,\n}')
        with pytest.raises(ScenarioError) as exc:
            load_scenario(p)
        assert exc.value.rule == "parse"
        assert ":4:" in str(exc.value)  # line of the syntax error

    def test_param_bound_rejected(self, tmp_path):
        raw = short_scenario_dict(r_a_m=0.4)  # avoidance radius below safety radius
        with pytest.raises(ScenarioError) as exc:
            load_scenario(write_scenario(tmp_path, raw))
        assert exc.value.rule == "param-bound"

    def test_infeasible_narrow_section_rejected(self, tmp_path):
        raw = short_scenario_dict()
        raw["tube"]["width_knots_m"] = [
            [0.0, 7.0, 7.0], [6.0, 7.0, 7.0], [8.0, 4.0, 4.0],
            [19.0, 0.45, 0.45], [23.0, 0.45, 0.45], [30.0, 2.0, 2.0],
        ]  # pinch capacity 0.45 <= r_s
        with pytest.raises(ScenarioError) as exc:
            load_scenario(write_scenario(tmp_path, raw))
        assert exc.value.rule == "infeasible-narrow-section"

    def test_irregular_tube_rejected(self, tmp_path):
        raw = short_scenario_dict()
        # widths wildly exceeding the arc curvature radius
        raw["tube"]["width_knots_m"] = [[0.0, 7.0, 7.0], [30.0, 7.0, 7.0]]
        raw["placement"] = {"kind": "explicit", "positions_xy_m": [[3.0, 0.0], [5.0, 0.0]]}
        with pytest.raises(ScenarioError) as exc:
            load_scenario(write_scenario(tmp_path, raw))
        assert exc.value.rule == "regularity"

    @pytest.mark.parametrize("spacing", [0, -1, 1e9])
    def test_bad_regularity_spacing_names_its_key(self, spacing):
        raw = short_scenario_dict()
        raw["regularity_spacing_m"] = spacing
        with pytest.raises(ScenarioError) as exc:
            scenario_from_dict(raw)
        assert exc.value.rule == "param-bound"
        assert str(exc.value).startswith("regularity_spacing_m")
        assert isinstance(exc.value.__cause__, ValueError)

    def test_fingerprint_stability_and_sensitivity(self, tmp_path):
        raw = short_scenario_dict()
        sc1 = load_scenario(write_scenario(tmp_path, raw, "a.json"))
        sc2 = load_scenario(write_scenario(tmp_path, raw, "b.json"))
        assert sc1.fingerprint == sc2.fingerprint
        raw2 = short_scenario_dict()
        raw2["params"]["k1_mps"] = 0.71
        sc3 = scenario_from_dict(raw2)
        assert sc3.fingerprint != sc1.fingerprint

    def test_defaults_echoed_into_fingerprint(self):
        raw = short_scenario_dict()
        del raw["params"]["alpha0_m2ps"]
        sc = scenario_from_dict(raw)
        assert sc.resolved["params"]["alpha0_m2ps"] == 1.0  # default materialized

    @pytest.mark.parametrize("section, key, path", [
        (None, "t_end", "t_end"),
        ("placement", "jiter_m", "placement.jiter_m"),
        ("tube", "widths", "tube.widths"),
        ("params", "k_1", "params.k_1"),
        # keys of the former distance-scheduled approach and density floor
        ("params", "u1_mode", "params.u1_mode"),
        ("params", "eta_min_per_s", "params.eta_min_per_s"),
        ("params", "eta_max_per_s", "params.eta_max_per_s"),
        ("params", "rho_floor_per_m2", "params.rho_floor_per_m2"),
        ("tube", "extension_length_m", "tube.extension_length_m"),
    ])
    def test_unknown_field_rejected_with_its_path(self, section, key, path):
        raw = short_scenario_dict()
        (raw if section is None else raw[section])[key] = 1.0
        with pytest.raises(ScenarioError, match=rf"unknown scenario field\(s\): {path}$") as exc:
            scenario_from_dict(raw)
        assert exc.value.rule == "param-bound"

    @pytest.mark.parametrize("index", [0, 1])
    def test_unknown_segment_field_rejected(self, index):
        raw = short_scenario_dict()
        raw["tube"]["segments"][index]["radius"] = 2.0  # a line, then an arc (radius_m)
        with pytest.raises(ScenarioError, match=rf"tube\.segments\[{index}\]\.radius"):
            scenario_from_dict(raw)

    @pytest.mark.parametrize("index, missing", [(0, "end_xy_m"), (1, "sweep_angle_rad")])
    def test_unknown_segment_kind_and_missing_key_messages(self, index, missing):
        raw = short_scenario_dict()
        raw["tube"]["segments"][index]["kind"] = "helix"
        with pytest.raises(ScenarioError) as exc:
            scenario_from_dict(raw)
        assert str(exc.value) == "tube construction failed: unknown segment kind 'helix'"
        raw = short_scenario_dict()
        del raw["tube"]["segments"][index][missing]
        with pytest.raises(ScenarioError) as exc:
            scenario_from_dict(raw)
        assert str(exc.value) == f"tube construction failed: '{missing}'"
        assert exc.value.rule == "param-bound"

    def test_spline_and_explicit_placement_keys(self):
        raw = short_scenario_dict()
        raw["tube"] = {
            "segments": [{"kind": "spline",
                          "points_xy_m": [[0, 0], [10, 1], [20, -1], [30, 0]]}],
            "width_knots_m": [[0.0, 2.0, 2.0]],
        }
        raw["placement"] = {"kind": "explicit", "positions_xy_m": [[3.0, 0.0], [6.0, 0.0]],
                            "jitter_m": 0.01}
        scenario_from_dict(raw)
        raw["tube"]["segments"][0]["points"] = []
        with pytest.raises(ScenarioError, match=r"tube\.segments\[0\]\.points$"):
            scenario_from_dict(raw)
        del raw["tube"]["segments"][0]["points"]
        raw["placement"]["rows"] = 2  # a grid placement's key
        with pytest.raises(ScenarioError, match=r"placement\.rows$"):
            scenario_from_dict(raw)

    @pytest.mark.parametrize("section, value", [
        ("placement", [[3.0, 0.0]]), ("params", None), ("tube", {"segments": None}),
    ])
    def test_malformed_section_is_a_scenario_error(self, section, value):
        raw = short_scenario_dict()
        raw[section] = value
        with pytest.raises(ScenarioError):
            scenario_from_dict(raw)

    @pytest.mark.parametrize("path, value", [
        ("density_grid", 120),
        ("density_grid", ["a", "b"]),
        ("density_grid", [120.5, 24]),
        ("dt_s", "x"),
        ("dt_s", [0.01]),
        ("t_end_s", None),
        ("seed", "abc"),
        ("regularity_spacing_m", "0.1"),
        ("params.k1_mps", "1"),
        ("placement.rows", 5.7),
        ("placement.spacing_m", None),
        ("placement.jitter_m", "x"),
        ("placement.rows", -2),
        ("placement.rows", 0),
        ("placement.cols", 0),
        ("placement.spacing_m", 0.0),
        ("placement.spacing_m", -1.2),
        ("placement.jitter_m", -0.05),
    ])
    def test_wrong_value_type_names_its_path(self, path, value):
        raw = short_scenario_dict()
        section, _, key = path.rpartition(".")
        (raw[section] if section else raw)[key] = value
        with pytest.raises(ScenarioError) as exc:
            scenario_from_dict(raw)
        assert exc.value.rule == "param-bound"
        assert str(exc.value).startswith(path)

    @pytest.mark.parametrize("key, value, path", [
        ("origin_xy_m", "ab", "placement.origin_xy_m"),
        ("origin_xy_m", [0.7], "placement.origin_xy_m"),
        ("origin_xy_m", [0.7, "y"], "placement.origin_xy_m[1]"),
        ("origin_xy_m", [0.7, math.inf], "placement.origin_xy_m[1]"),
        ("positions_xy_m", [["a", "b"]], "placement.positions_xy_m[0][0]"),
        ("positions_xy_m", [[3.0, 0.0], [4.0]], "placement.positions_xy_m[1]"),
        ("positions_xy_m", [[3.0, 0.0], 4.0], "placement.positions_xy_m[1]"),
        ("positions_xy_m", "ab", "placement.positions_xy_m"),
        ("positions_xy_m", [], "placement.positions_xy_m"),
        ("jitter_m", -0.05, "placement.jitter_m"),
    ])
    def test_placement_arrays_name_their_path(self, key, value, path):
        raw = short_scenario_dict()
        if key != "origin_xy_m":
            raw["placement"] = {"kind": "explicit", "positions_xy_m": [[3.0, 0.0]]}
        raw["placement"][key] = value
        with pytest.raises(ScenarioError) as exc:
            scenario_from_dict(raw)
        assert exc.value.rule == "param-bound"
        assert str(exc.value).startswith(path + " must be")

    @pytest.mark.parametrize("placement, path", [
        ({"kind": "explicit"}, "placement.positions_xy_m"),
        ({"kind": "grid", "rows": 2, "cols": 2, "spacing_m": 1.2}, "placement.origin_xy_m"),
        ({"kind": "grid", "cols": 2, "spacing_m": 1.2, "origin_xy_m": [3.0, 0.0]},
         "placement.rows"),
    ])
    def test_missing_placement_key_names_its_path(self, placement, path):
        raw = short_scenario_dict()
        raw["placement"] = placement
        with pytest.raises(ScenarioError) as exc:
            scenario_from_dict(raw)
        assert exc.value.rule == "param-bound"
        assert str(exc.value).startswith(path + " is required")

    def test_wrong_placement_array_exits_with_code_2(self, tmp_path, capsys):
        raw = short_scenario_dict()
        raw["placement"]["origin_xy_m"] = "ab"
        assert main(["simulate", str(write_scenario(tmp_path, raw))]) == 2
        assert ("scenario error [param-bound]: placement.origin_xy_m must be a pair [x, y] of"
                " finite numbers, got 'ab'") in capsys.readouterr().err

    def test_wrong_value_type_exits_with_code_2(self, tmp_path, capsys):
        raw = short_scenario_dict()
        raw["dt_s"] = "x"
        assert main(["simulate", str(write_scenario(tmp_path, raw))]) == 2
        assert "scenario error [param-bound]: dt_s must be a finite number, got 'x'" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("name", ["narrow_s_tube", "annular"])
    def test_resolved_file_round_trip(self, tmp_path, name):
        out = tmp_path / "out"
        assert main(["simulate", str(bundled_scenario_path(name)), "--out", str(out),
                     "--t-end", "0.02"]) == 0
        again = load_scenario(out / "scenario_resolved.json")
        assert again.resolved == json.loads((out / "scenario_resolved.json").read_text())
        assert again.t_end == 0.02
        assert again.fingerprint == scenario_from_dict(
            {**json.loads(bundled_scenario_path(name).read_text()), "t_end_s": 0.02}
        ).fingerprint

    def test_jitter_is_seeded_and_revalidated(self):
        raw = short_scenario_dict()
        raw["placement"]["jitter_m"] = 0.05
        sc_a = scenario_from_dict(raw)
        sc_b = scenario_from_dict(raw)
        assert np.array_equal(sc_a.positions, sc_b.positions)
        raw["seed"] = 7
        sc_c = scenario_from_dict(raw)
        assert not np.array_equal(sc_a.positions, sc_c.positions)


class TestSimulateCommand:
    def test_artifacts_and_exit_code(self, tmp_path):
        raw = short_scenario_dict(t_end=0.3)
        sc_path = write_scenario(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["simulate", str(sc_path), "--out", str(out)]) == 0
        for f in ("trace.csv", "metrics.csv", "summary.json", "scenario_resolved.json",
                  "distances.svg", "density_error.svg", "snapshot_t0.svg"):
            assert (out / f).exists(), f
        summary = json.loads((out / "summary.json").read_text())
        assert summary["termination"] == "time-limit"
        assert summary["final_metrics"]["min_pairwise_distance"] > 1.0

    def test_zero_horizon(self, tmp_path):
        raw = short_scenario_dict(t_end=0.0)
        sc_path = write_scenario(tmp_path, raw)
        out = tmp_path / "out0"
        assert main(["simulate", str(sc_path), "--out", str(out)]) == 0
        frames = read_trace_csv(out / "trace.csv")
        assert len(frames) == 1
        snapshots = list(out.glob("snapshot_t*.svg"))
        assert len(snapshots) == 1

    def test_rerun_byte_identical_trace(self, tmp_path):
        raw = short_scenario_dict(t_end=0.3)
        sc_path = write_scenario(tmp_path, raw)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["simulate", str(sc_path), "--out", str(out1)]) == 0
        assert main(["simulate", str(sc_path), "--out", str(out2)]) == 0
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()

    def test_csv_row_counts_and_headers(self, tmp_path):
        raw = short_scenario_dict(t_end=0.2)
        sc_path = write_scenario(tmp_path, raw)
        out = tmp_path / "csv"
        main(["simulate", str(sc_path), "--out", str(out)])
        trace_lines = (out / "trace.csv").read_text().splitlines()
        metric_lines = (out / "metrics.csv").read_text().splitlines()
        n_records = 21
        assert trace_lines[0] == ",".join(TRACE_COLUMNS)
        assert metric_lines[0] == ",".join(METRICS_COLUMNS)
        assert len(trace_lines) == 1 + n_records * 25
        assert len(metric_lines) == 1 + n_records

    def test_overrides_change_fingerprint(self, tmp_path):
        raw = short_scenario_dict(t_end=0.2)
        sc_path = write_scenario(tmp_path, raw)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["simulate", str(sc_path), "--out", str(out1)])
        main(["simulate", str(sc_path), "--out", str(out2), "--t-end", "0.1"])
        s1 = json.loads((out1 / "summary.json").read_text())
        s2 = json.loads((out2 / "summary.json").read_text())
        assert s1["fingerprint"] != s2["fingerprint"]


class TestCompareCommand:
    def test_zero_alpha_arms_identical(self, tmp_path, capsys):
        # with no regulation strength the full controller degenerates to the
        # baseline, so both arms produce identical traces
        raw = short_scenario_dict(t_end=0.3, alpha0_m2ps=0.0)
        sc_path = write_scenario(tmp_path, raw)
        out = tmp_path / "cmp"
        assert main(["compare", str(sc_path), "--out", str(out)]) == 0
        full = (out / "full" / "trace.csv").read_bytes()
        base = (out / "baseline" / "trace.csv").read_bytes()
        assert full == base
        assert (out / "amd.svg").exists()
        assert (out / "throughput.svg").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["condition23_violations"] == 0
        # robots remain at 0.3 s, so neither arm has evacuated
        assert summary["evacuated_s_full"] is None and summary["evacuated_s_baseline"] is None
        printed = capsys.readouterr().out
        assert "all exited at: full=not by the end baseline=not by the end" in printed
        for arm in ("full", "baseline"):
            arm_summary = json.loads((out / arm / "summary.json").read_text())
            assert arm_summary["evacuated_s"] is None
            for key in ("stalled_final", "stalled_max"):
                assert summary[f"{key}_{arm}"] == arm_summary[key]
        assert (f"stalled robots (final / max over records): full={summary['stalled_final_full']}"
                f" / {summary['stalled_max_full']} baseline={summary['stalled_final_baseline']}"
                f" / {summary['stalled_max_baseline']}") in printed

    def test_t_end_option_parses(self):
        args = build_parser().parse_args(["compare", "sc.json", "--t-end", "0.25"])
        assert args.t_end == 0.25
        assert build_parser().parse_args(["compare", "sc.json"]).t_end is None

    def test_t_end_overrides_both_arms(self, tmp_path):
        raw = short_scenario_dict(t_end=5.0)
        out = tmp_path / "cmp_t"
        assert main(["compare", str(write_scenario(tmp_path, raw)), "--out", str(out),
                     "--t-end", "0.05"]) == 0
        for arm in ("full", "baseline"):
            assert len(read_trace_csv(out / arm / "trace.csv")) == 6
            resolved = json.loads((out / arm / "scenario_resolved.json").read_text())
            assert resolved["t_end_s"] == 0.05 and resolved["mode"] == arm

    def test_arms_share_initial_state(self, tmp_path):
        raw = short_scenario_dict(t_end=0.1)
        sc_path = write_scenario(tmp_path, raw)
        out = tmp_path / "cmp2"
        main(["compare", str(sc_path), "--out", str(out)])
        f0 = read_trace_csv(out / "full" / "trace.csv")[0]
        b0 = read_trace_csv(out / "baseline" / "trace.csv")[0]
        assert np.array_equal(f0.positions, b0.positions)


class TestCheckTubeCommand:
    def test_reports_narrow_band(self, tmp_path, capsys):
        raw = short_scenario_dict()
        sc_path = write_scenario(tmp_path, raw)
        assert main(["check-tube", str(sc_path)]) == 0
        outtext = capsys.readouterr().out
        assert "regularity:  ok" in outtext
        assert "narrow band" in outtext

    def test_wide_straight_tube_no_narrow(self, tmp_path, capsys):
        raw = short_scenario_dict()
        raw["tube"]["segments"] = [
            {"kind": "line", "start_xy_m": [0.0, 0.0], "end_xy_m": [30.0, 0.0]}
        ]
        raw["tube"]["width_knots_m"] = [[0.0, 3.0, 3.0], [30.0, 3.0, 3.0]]
        sc_path = write_scenario(tmp_path, raw)
        assert main(["check-tube", str(sc_path)]) == 0
        outtext = capsys.readouterr().out
        assert "no narrow sections" in outtext

    @pytest.mark.parametrize("knots, code", [
        (None, 0),
        ([[0.0, 7.0, 7.0], [30.0, 7.0, 7.0]], 1),  # irregular: the fallback path
    ])
    def test_checks_at_the_scenarios_spacing(self, knots, code, tmp_path, capsys):
        raw = short_scenario_dict()
        raw["regularity_spacing_m"] = 0.25
        if knots is not None:
            raw["tube"]["width_knots_m"] = knots
        assert main(["check-tube", str(write_scenario(tmp_path, raw))]) == code
        assert "(section spacing 0.250 m)" in capsys.readouterr().out

    @pytest.mark.parametrize("knots, code", [
        (None, 0),
        ([[0.0, 7.0, 7.0], [30.0, 7.0, 7.0]], 1),  # irregular: the fallback path
    ])
    def test_runs_the_regularity_check_once(self, knots, code, tmp_path, monkeypatch):
        calls = []
        check = VirtualTube.check_regularity
        monkeypatch.setattr(VirtualTube, "check_regularity",
                            lambda tube, spacing=None: calls.append(spacing) or check(tube, spacing))
        raw = short_scenario_dict()
        if knots is not None:
            raw["tube"]["width_knots_m"] = knots
        assert main(["check-tube", str(write_scenario(tmp_path, raw))]) == code
        assert len(calls) == 1

    def test_irregular_tube_reported(self, tmp_path, capsys):
        raw = short_scenario_dict()
        raw["tube"]["width_knots_m"] = [[0.0, 7.0, 7.0], [30.0, 7.0, 7.0]]
        sc_path = write_scenario(tmp_path, raw)
        assert main(["check-tube", str(sc_path)]) == 1
        outtext = capsys.readouterr().out
        assert "IRREGULAR" in outtext
        assert "sections intersect" in outtext


def _without_tube():
    raw = short_scenario_dict()
    del raw["tube"]
    return json.dumps(raw)


def _with_placement(**over):
    raw = short_scenario_dict()
    raw["placement"].update(over)
    return json.dumps(raw)


MALFORMED = {
    "no-tube": (_without_tube, "param-bound"),
    "r_s-text": (lambda: json.dumps(short_scenario_dict(r_s_m="big")), "param-bound"),
    "r_s-negative": (lambda: json.dumps(short_scenario_dict(r_s_m=-1.0)), "param-bound"),
    "spacing-zero": (lambda: json.dumps({**short_scenario_dict(), "regularity_spacing_m": 0}),
                     "param-bound"),
    "rows-negative": (lambda: _with_placement(rows=-2), "param-bound"),
    "spacing-negative": (lambda: _with_placement(spacing_m=-1.2), "param-bound"),
    "jitter-negative": (lambda: _with_placement(jitter_m=-0.05), "param-bound"),
    "bad-json": (lambda: '{"name": "x",', "parse"),
    "top-level-list": (lambda: "[1, 2]", "parse"),
}


class TestMalformedScenarioExitCode:
    @pytest.mark.parametrize("command", ["simulate", "compare", "check-tube", "plot"])
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_exits_2_with_one_scenario_error_line(self, command, case, tmp_path, capsys):
        text, rule = MALFORMED[case]
        path = tmp_path / "bad.json"
        path.write_text(text())
        argv = {
            "simulate": ["simulate", str(path), "--out", str(tmp_path / "out")],
            "compare": ["compare", str(path), "--out", str(tmp_path / "out")],
            "check-tube": ["check-tube", str(path)],
            "plot": ["plot", str(tmp_path / "trace.csv"), "--scenario", str(path)],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"scenario error [{rule}]: "), err


def svg_to_world(attrs, sx, sy):
    """World coordinates of SVG pixel (sx, sy), from the world-to-pixel
    transform that a snapshot's root element carries."""
    scale, pad = float(attrs["data-scale"]), float(attrs["data-pad"])
    return (sx / scale + float(attrs["data-xmin"]) - pad,
            float(attrs["data-ymax"]) + pad - sy / scale)


class TestPlotsAndRoundTrip:
    def test_snapshot_disc_count_and_round_trip(self, tmp_path):
        raw = short_scenario_dict(t_end=0.2)
        sc_path = write_scenario(tmp_path, raw)
        out = tmp_path / "plots"
        main(["simulate", str(sc_path), "--out", str(out)])
        svg = out / "snapshot_t0.svg"
        tree = ET.parse(svg)
        root = tree.getroot()
        ns = "{http://www.w3.org/2000/svg}"
        discs = [el for el in root.iter(f"{ns}circle") if el.get("class") == "robot"]
        assert len(discs) == 25
        frames = read_trace_csv(out / "trace.csv")
        logged = frames[0].positions
        for el in discs:
            rid = int(el.get("data-robot-id"))
            x, y = svg_to_world(root.attrib, float(el.get("cx")), float(el.get("cy")))
            assert abs(x - logged[rid, 0]) < 1e-9
            assert abs(y - logged[rid, 1]) < 1e-9

    def test_plot_command_regenerates(self, tmp_path):
        raw = short_scenario_dict(t_end=0.2)
        sc_path = write_scenario(tmp_path, raw)
        out = tmp_path / "orig"
        main(["simulate", str(sc_path), "--out", str(out)])
        replot = tmp_path / "replot"
        assert main(["plot", str(out / "trace.csv"), "--out", str(replot)]) == 0
        assert (replot / "snapshot_t0.svg").exists()
        assert (replot / "distances.svg").exists()

    def test_plot_deterministic(self, tmp_path):
        raw = short_scenario_dict(t_end=0.2)
        sc_path = write_scenario(tmp_path, raw)
        out = tmp_path / "d1"
        main(["simulate", str(sc_path), "--out", str(out)])
        p1 = tmp_path / "p1"
        p2 = tmp_path / "p2"
        main(["plot", str(out / "trace.csv"), "--out", str(p1)])
        main(["plot", str(out / "trace.csv"), "--out", str(p2)])
        assert (p1 / "snapshot_t0.svg").read_bytes() == (p2 / "snapshot_t0.svg").read_bytes()
        assert (p1 / "distances.svg").read_bytes() == (p2 / "distances.svg").read_bytes()

    def test_exited_robots_not_drawn(self, tmp_path):
        raw = short_scenario_dict(t_end=2.0, mode="baseline")
        raw["placement"] = {"kind": "explicit", "positions_xy_m": [[28.1, 3.783900317293356]]}
        sc_path = write_scenario(tmp_path, raw)
        out = tmp_path / "exit"
        assert main(["simulate", str(sc_path), "--out", str(out)]) == 0
        finals = sorted(out.glob("snapshot_t*.svg"))
        last = max(finals, key=lambda p: float(p.stem.split("_t")[1]))
        tree = ET.parse(last)
        ns = "{http://www.w3.org/2000/svg}"
        discs = [el for el in tree.getroot().iter(f"{ns}circle") if el.get("class") == "robot"]
        assert discs == []


class TestCompareModeGuard:
    def test_simulate_rejects_compare_mode(self, tmp_path, capsys):
        raw = short_scenario_dict(t_end=0.1, mode="compare")
        sc_path = write_scenario(tmp_path, raw)
        assert main(["simulate", str(sc_path)]) == 2
        assert "compare" in capsys.readouterr().err
