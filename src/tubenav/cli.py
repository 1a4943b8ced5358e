"""Command-line entry points: simulate, compare, check-tube, plot."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import engine, svgplot
from .errors import RunFileError, ScenarioError
from .geometry import narrow_intervals
from .metrics import audit_condition23, evacuation_time, throughput
from .reports import (
    read_metrics_csv,
    read_trace_csv,
    stalled_summary,
    write_metrics_csv,
    write_scenario_json,
    write_summary_json,
    write_trace_csv,
)
from .scenario import (
    apply_overrides,
    build_tube,
    checked_scenario,
    read_scenario_file,
    regularity_report,
    resolve_scenario,
    scenario_from_dict,
)


def _write_run_artifacts(log, scenario, outdir):
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_trace_csv(log, outdir / "trace.csv")
    write_metrics_csv(log, outdir / "metrics.csv")
    write_summary_json(log, outdir / "summary.json")
    write_scenario_json(scenario.resolved, outdir / "scenario_resolved.json")
    svgplot.render_plots(log, outdir, scenario.tube, scenario.params)


def cmd_simulate(args):
    raw = read_scenario_file(args.scenario)
    scenario = scenario_from_dict(
        apply_overrides(raw, dt=args.dt, t_end=args.t_end, mode=args.mode))
    if scenario.mode == "compare":
        print("scenario requests compare mode; use the compare command", file=sys.stderr)
        return 2
    log = engine.run(scenario)
    outdir = Path(args.out or f"runs/{scenario.name}")
    _write_run_artifacts(log, scenario, outdir)
    m = log.final_metrics()
    print(f"{scenario.name}: {log.termination} after {log.step_count} steps")
    print(f"  records: {len(log.records)}  exited: {len(log.exit_times)}")
    if m is not None:
        print(
            f"  final min pairwise: {m.min_pairwise_distance:.4f} m"
            f"  min boundary: {m.min_boundary_distance:.4f} m"
        )
    print(f"  artifacts in {outdir}")
    if log.termination == "fault":
        print(f"  FAULT: {log.fault}", file=sys.stderr)
        return 1
    return 0


def _evacuated(t):
    return "not by the end" if t is None else f"{t:g} s"


def cmd_compare(args):
    raw = read_scenario_file(args.scenario)
    outdir = Path(args.out or f"runs/{raw.get('name', 'scenario')}_compare")
    logs = {}
    scen = None
    for arm in ("full", "baseline"):
        arm_raw = apply_overrides(raw, t_end=args.t_end, mode=arm)
        scenario = scenario_from_dict(arm_raw)
        scen = scenario
        log = engine.run(scenario)
        logs[arm] = log
        _write_run_artifacts(log, scenario, outdir / arm)
    full, base = logs["full"], logs["baseline"]
    t_last = min(full.records[-1].time, base.records[-1].time)
    svgplot.render_amd_comparison(full, base, outdir / "amd.svg")
    svgplot.render_throughput_comparison(full, base, outdir / "throughput.svg")
    audit = audit_condition23(full)
    summary = {
        "scenario_name": scen.name,
        "fingerprint_full": full.fingerprint,
        "fingerprint_baseline": base.fingerprint,
        "throughput_full": throughput(full, t_last),
        "throughput_baseline": throughput(base, t_last),
        "condition23_violations": len(audit.violations),
        "termination_full": full.termination,
        "termination_baseline": base.termination,
        "evacuated_s_full": evacuation_time(full),
        "evacuated_s_baseline": evacuation_time(base),
    }
    for arm, log in logs.items():
        summary[f"stalled_final_{arm}"], summary[f"stalled_max_{arm}"] = stalled_summary(log)
    (outdir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"{scen.name}: compare complete")
    print(
        f"  throughput at t={t_last:g}: full={summary['throughput_full']}"
        f" baseline={summary['throughput_baseline']}"
    )
    print(
        f"  all exited at: full={_evacuated(summary['evacuated_s_full'])}"
        f" baseline={_evacuated(summary['evacuated_s_baseline'])}"
    )
    print(
        f"  stalled robots (final / max over records): full={summary['stalled_final_full']}"
        f" / {summary['stalled_max_full']} baseline={summary['stalled_final_baseline']}"
        f" / {summary['stalled_max_baseline']}"
    )
    print(f"  artifacts in {outdir}")
    if full.termination == "fault" or base.termination == "fault":
        return 1
    return 0


def cmd_check_tube(args):
    resolved = resolve_scenario(read_scenario_file(args.scenario))
    tube = build_tube(resolved["tube"])
    report = None
    try:
        report = regularity_report(tube, resolved)
        r_s = checked_scenario(resolved, tube, report).params.r_s
    except ScenarioError as exc:
        # tube-only inspection still works when the full scenario fails; a
        # malformed tube, r_s_m or regularity spacing is reported like any
        # scenario error
        r_s = resolved["params"]["r_s_m"]
        if r_s <= 0:
            raise ScenarioError(f"params.r_s_m must be positive, got {r_s!r}",
                                rule="param-bound") from exc
        print(f"note: scenario validation failed ({exc.rule}): {exc}")
        if report is None:
            raise
    print(f"tube length: {tube.length:.4f} m   topology: {tube.topology}")
    print(f"tube area:   {tube.tube_area():.4f} m^2")
    print(f"regularity:  {'ok' if report.ok else 'IRREGULAR'} "
          f"(section spacing {report.spacing:.3f} m)")
    for l1, l2 in report.intersections[:10]:
        print(f"  sections intersect: l1={l1:.3f}  l2={l2:.3f}")
    if len(report.intersections) > 10:
        print(f"  ... {len(report.intersections) - 10} more pairs")
    ls = np.linspace(0.0, tube.length, 13)
    print("flow capacity profile:")
    for l in ls:
        sigma = tube.flow_capacity(float(l))
        tag = " narrow" if tube.is_narrow(float(l), r_s) else ""
        print(f"  l={l:7.3f}  sigma={sigma:7.4f}{tag}")
    bands = narrow_intervals(tube, r_s)
    if bands:
        for lo, hi in bands:
            print(f"narrow band (fits one robot of r_s={r_s}): l in [{lo:.3f}, {hi:.3f}]")
    else:
        print(f"no narrow sections for r_s={r_s}")
    return 0 if report.ok else 1


def cmd_plot(args):
    trace_path = Path(args.trace)
    outdir = Path(args.out or trace_path.parent)
    run_dir = trace_path.parent
    scen_path = Path(args.scenario) if args.scenario else run_dir / "scenario_resolved.json"
    if not scen_path.exists():
        print(
            f"no scenario description at {scen_path}; pass --scenario", file=sys.stderr
        )
        return 2
    scenario = scenario_from_dict(read_scenario_file(scen_path))
    metrics_path = run_dir / "metrics.csv"
    columns = read_metrics_csv(metrics_path) if metrics_path.exists() else None
    svgplot.render_frames(read_trace_csv(trace_path), columns, outdir, scenario.tube,
                          scenario.params.r_s)
    print(f"plots written to {outdir}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tubenav",
        description="Deterministic 2D swarm navigation through narrow virtual tubes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one scenario and write artifacts")
    p_sim.add_argument("scenario", help="scenario JSON path")
    p_sim.add_argument("--out", help="output directory (default runs/<name>)")
    p_sim.add_argument("--dt", type=float, help="override time step (s)")
    p_sim.add_argument("--t-end", dest="t_end", type=float, help="override duration (s)")
    p_sim.add_argument("--mode", choices=["full", "baseline"], help="override controller mode")
    p_sim.set_defaults(func=cmd_simulate)

    p_cmp = sub.add_parser("compare", help="run full and baseline arms from the same start")
    p_cmp.add_argument("scenario")
    p_cmp.add_argument("--out", help="output directory")
    p_cmp.add_argument("--t-end", dest="t_end", type=float, help="override duration (s)")
    p_cmp.set_defaults(func=cmd_compare)

    p_chk = sub.add_parser("check-tube", help="report tube regularity, area and narrow bands")
    p_chk.add_argument("scenario")
    p_chk.set_defaults(func=cmd_check_tube)

    p_plot = sub.add_parser("plot", help="re-render plots from a written trace.csv")
    p_plot.add_argument("trace")
    p_plot.add_argument("--out", help="output directory (default: alongside the trace)")
    p_plot.add_argument("--scenario", help="scenario JSON (default: scenario_resolved.json next to the trace)")
    p_plot.set_defaults(func=cmd_plot)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error [{exc.rule}]: {exc}", file=sys.stderr)
        return 2
    except RunFileError as exc:
        print(f"run file error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
