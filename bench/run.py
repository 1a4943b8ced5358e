"""tubenav benchmark runner.

    python3 bench/run.py --workload narrow_full --seed 0 --seconds 40 --trace 0

Builds the workload's scenario dict from the seed, then drives the public
API in this one process: ``scenario_from_dict`` (set-up), ``engine.run``
(the simulation, closed loop in simulated time) and the ``reports`` and
``svgplot`` writers (the artifacts ``tubenav simulate`` leaves).  Every
simulation is checked (no fault, norm audit clean, safety margins positive
on every record, repeats identical, records, exits, mean density error and
minimum safety margin equal to ``reference.json``).  Times are calibrated
against a fixed kernel run next to each timed unit (see ``Calibrated``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the workload
once untraced and once under the span tracer of ``tracing.py``, then the
long-tube scaling curve, and prints the per-layer metrics.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"

if not (SRC / "tubenav" / "__init__.py").is_file():
    sys.exit(f"bench: no tubenav sources at {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import tubenav  # noqa: E402
from tubenav import engine, reports, scenario, svgplot  # noqa: E402
from tubenav.metrics import audit_condition23  # noqa: E402

if Path(tubenav.__file__).resolve().parent != (SRC / "tubenav").resolve():
    sys.exit(f"bench: imported tubenav from {tubenav.__file__}, not from {SRC}")

import tracing  # noqa: E402

ORIGINALS = tracing.installed_targets()  # before any wrapper is installed

LONG_TUBE_ROBOTS = 400
LONG_TUBE_T_END_S = 0.3
SCALING_ROBOTS = (25, 100, LONG_TUBE_ROBOTS)
LAYERS = ("geometry", "density", "control", "metrics")
# step_ms times the first simulated seconds of a workload, repeated: short
# enough that a repeat fits inside one of the host's quiet or slow spells.
TIMED_T_END_S = {"narrow_full": 1.0, "annular_ring": 2.0, "long_tube_crowd": 0.02}
TIMED_MIN_RUNS = 10


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _bundled(name):
    return json.loads(scenario.bundled_scenario_path(name).read_text())


def long_tube_crowd(seed, n_robots=LONG_TUBE_ROBOTS):
    """A 200 m straight open tube (half-width 7 m, narrowing to 2 m between
    l = 60 and 70 m) with a rows x cols grid of robots jittered from the seed,
    run with the gains of the bundled narrow scenario."""
    narrow = _bundled("narrow_s_tube")
    rows = min(10, math.isqrt(n_robots))
    cols = n_robots // rows
    if rows * cols != n_robots:
        raise ValueError(f"{n_robots} robots do not fill a grid of {rows} rows")
    return {
        "name": f"long_tube_crowd_n{n_robots}",
        "seed": int(seed),
        "dt_s": narrow["dt_s"],
        "t_end_s": LONG_TUBE_T_END_S,
        "mode": "full",
        "tube": {
            "topology": "open",
            "segments": [{"kind": "line", "start_xy_m": [0.0, 0.0], "end_xy_m": [200.0, 0.0]}],
            "width_knots_m": [[0.0, 7.0, 7.0], [60.0, 7.0, 7.0], [70.0, 2.0, 2.0],
                              [200.0, 2.0, 2.0]],
        },
        "placement": {
            "kind": "grid", "rows": rows, "cols": cols, "spacing_m": 1.2,
            "origin_xy_m": [0.8, -0.6 * (rows - 1)], "jitter_m": 0.02,
        },
        "params": dict(narrow["params"]),
        "density_grid": list(narrow["density_grid"]),
    }


def narrow_full(seed):
    raw = _bundled("narrow_s_tube")
    raw["mode"] = "full"
    return raw


def annular_ring(seed):
    """The bundled ring cut to its first 30 s (3001 of 15001 records): the
    ring's step cost is stationary, and a whole 150 s run takes 26-65 s on
    a shared 2-core host, which the benchmark's time budget cannot repeat."""
    raw = _bundled("annular")
    raw["t_end_s"] = 30.0
    return raw


# The bundled files are run as shipped otherwise: the seed changes nothing
# in them.
WORKLOADS = {
    "narrow_full": narrow_full,
    "annular_ring": annular_ring,
    "long_tube_crowd": long_tube_crowd,
}


# ---------------------------------------------------------------------------
# one simulation and its checks
# ---------------------------------------------------------------------------

def write_artifacts(log, scen, outdir):
    """What ``tubenav simulate`` writes, through the public writers."""
    outdir.mkdir(parents=True, exist_ok=True)
    reports.write_trace_csv(log, outdir / "trace.csv")
    reports.write_metrics_csv(log, outdir / "metrics.csv")
    reports.write_summary_json(log, outdir / "summary.json")
    reports.write_scenario_json(scen.resolved, outdir / "scenario_resolved.json")
    svgplot.render_plots(log, outdir, scen.tube, scen.params)


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def inspect_log(log, scen):
    """Outcome figures of one run plus the list of failed output checks."""
    recs = log.records
    r_s = scen.params.r_s
    pair = np.array([r.metrics.min_pairwise_distance for r in recs]) - 2.0 * r_s
    bound = np.array([r.metrics.min_boundary_distance for r in recs]) - r_s
    err = np.array([r.metrics.density_error_l2 for r in recs])
    problems = []
    if log.termination == "fault":
        problems.append(f"run faulted: {log.fault}")
    if not audit_condition23(log).ok:
        problems.append("regulation term exceeded the safe-navigation term (condition 23)")
    if np.any(pair[np.isfinite(pair)] <= 0.0):
        problems.append("a record has min pairwise distance <= 2 r_s")
    if np.any(bound[np.isfinite(bound)] <= 0.0):
        problems.append("a record has min boundary distance <= r_s")
    return {
        "records": len(recs),
        "exited": len(log.exit_times),
        "min_margin_m": float(np.nanmin(np.fmin(pair, bound))),
        "density_err_mean": float(np.nanmean(err)),
        "robot_steps": int(sum(int(r.active.sum()) for r in recs)),
        "record_bytes": int(sum(
            r.positions.nbytes + r.velocities.nbytes + r.u1.nbytes + r.u2.nbytes
            + r.u3.nbytes + r.u4.nbytes + r.kappa.nbytes + r.active.nbytes
            for r in recs
        )),
        "problems": problems,
    }


def reference_problems(workload, outcome, reference):
    ref = reference[workload]
    tol = ref["tolerance"]
    problems = []
    if outcome["records"] != ref["records"]:
        problems.append(f"records {outcome['records']} != reference {ref['records']}")
    if abs(outcome["exited"] - ref["exited"]) > tol["exited"]:
        problems.append(f"exited {outcome['exited']} != reference {ref['exited']}")
    for name in ("density_err_mean", "min_margin_m"):
        rel = abs(outcome[name] / ref[name] - 1.0)
        if rel > tol[f"{name}_rel"]:
            problems.append(
                f"{name} {outcome[name]!r} off reference {ref[name]!r}"
                f" by {rel:.2e} (tolerance {tol[f'{name}_rel']})"
            )
    return problems


def write_timed(log, scen, outdir, tracer=None):
    """Write the artifacts into a fresh ``outdir``; returns (seconds, trace
    sha256).  Overwriting the files of the previous write would wait for
    their flush to disk, which a user writing a new run never does."""
    if outdir.exists():
        shutil.rmtree(outdir)
    t0 = perf_counter()
    with tracer.span("artifacts") if tracer else nullcontext():
        write_artifacts(log, scen, outdir)
    return perf_counter() - t0, _sha256(outdir / "trace.csv")


def simulate(scen, outdir, tracer=None):
    """Run once, write the artifacts once and inspect; returns the outcome."""
    t0 = perf_counter()
    log = engine.run(scen)
    run_s = perf_counter() - t0
    artifact_s, sha = write_timed(log, scen, outdir, tracer)
    return {**inspect_log(log, scen), "run_s": run_s, "artifact_s": artifact_s,
            "trace_sha": sha, "trace_bytes": (outdir / "trace.csv").stat().st_size}


class Tally:
    """Simulations attempted and failed, with the reasons printed to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"bench: {label}: {p}", file=sys.stderr)


def checked(tally, label, fn, *args, **kwargs):
    """fn's result, or None when it raised; failures count in the tally."""
    try:
        return fn(*args, **kwargs)
    except Exception:  # a crash of the program under test is a failed run
        traceback.print_exc()
        tally.record(label, ["raised"])
        return None


# ---------------------------------------------------------------------------
# host-speed calibration
# ---------------------------------------------------------------------------
#
# A shared host's speed drifts by up to 1.7x for seconds to minutes at a
# time, and CPU time drifts with it, so no statistic of raw times inside one
# run removes a slow spell that covers it.  Each timed unit of work is
# therefore bracketed by two runs of a fixed calibration kernel, and a time
# is reported as the median over the units of (unit time / mean kernel time)
# x CAL_REF_S: the time the unit takes on a host that runs the kernel in
# CAL_REF_S.  The kernel is the benchmark's own code, so a change to the
# program moves the unit times and not the kernel's.

CAL_REF_S = 0.020
_CAL_RNG = np.random.default_rng(0)
_CAL_A = _CAL_RNG.standard_normal((25, 1, 2))
_CAL_B = _CAL_RNG.standard_normal((1, 25, 2))
_CAL_P = _CAL_RNG.standard_normal((50, 1, 2))
_CAL_S = _CAL_RNG.standard_normal((1, 4000, 2))


def calibration_kernel():
    """The two kinds of numpy work a simulation step is made of, in about
    equal time: many small broadcasts, norms and reductions over 25 points
    (commands, densities, projections), and one pass over arrays larger
    than a core's own caches (the boundary scan of a crowd)."""
    acc = 0.0
    for _ in range(350):
        d = _CAL_A - _CAL_B
        acc += float(np.sqrt((d * d).sum(-1)).min())
    d = _CAL_P - _CAL_S
    return acc + float(np.sqrt((d * d).sum(-1)).min(axis=1).sum())


def _kernel_s():
    t0 = perf_counter()
    calibration_kernel()
    return perf_counter() - t0


class Calibrated:
    """Units of work timed between two runs of the calibration kernel."""

    def __init__(self):
        self.ratios = []

    def time(self, fn, *args):
        """fn(*args), timed from a collected heap; returns its result."""
        gc.collect()
        before = _kernel_s()
        t0 = perf_counter()
        result = fn(*args)
        elapsed = perf_counter() - t0
        self.ratios.append(elapsed / (0.5 * (before + _kernel_s())))
        return result

    def seconds(self, per=1):
        """Median unit time on the reference host, divided by ``per``."""
        return CAL_REF_S * statistics.median(self.ratios) / per


# ---------------------------------------------------------------------------
# end-to-end measurement
# ---------------------------------------------------------------------------

def checked_run(scen, outdir, artifacts):
    """The whole workload once, with its artifacts written once (timed into
    ``artifacts``) into a fresh directory: overwriting the files of an
    earlier run would wait for their flush to disk, which a user writing a
    new run never does."""
    log = engine.run(scen)
    if outdir.exists():
        shutil.rmtree(outdir)
    artifacts.time(write_artifacts, log, scen, outdir)
    return inspect_log(log, scen)


def _log_digest(log):
    h = hashlib.sha256()
    for r in log.records:
        h.update(r.positions.tobytes())
        h.update(r.velocities.tobytes())
    return h.hexdigest()


def measure(workload, seed, seconds, reference):
    """One checked run of the whole workload, then, until ``seconds`` have
    passed since the start and at least TIMED_MIN_RUNS times, a set-up of
    the workload and a run of its first TIMED_T_END_S simulated seconds.
    Returns the tally and the end-to-end metrics."""
    tally = Tally()
    deadline = perf_counter() + seconds
    raw = WORKLOADS[workload](seed)
    scen = scenario.scenario_from_dict(raw)  # also the warm-up of set-up

    artifacts = Calibrated()
    full = checked(tally, workload, checked_run, scen, OUT / workload / "untraced", artifacts)
    if full is None:
        return tally, None
    tally.record(workload, full["problems"] + reference_problems(workload, full, reference))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Set-ups are timed with no simulation log alive, as in a fresh
    # ``tubenav simulate`` process, and spread over the whole run like the
    # timed simulations.
    timed_scen = scenario.scenario_from_dict({**raw, "t_end_s": TIMED_T_END_S[workload]})
    setup, steps, first, records = Calibrated(), Calibrated(), None, 0
    label = f"{workload} first {TIMED_T_END_S[workload]} s"
    while len(steps.ratios) < TIMED_MIN_RUNS or perf_counter() < deadline:
        setup.time(scenario.scenario_from_dict, raw)
        log = checked(tally, label, steps.time, engine.run, timed_scen)
        if log is None:
            break
        digest = _log_digest(log)
        if first is None:
            first, records = digest, len(log.records)
            problems = inspect_log(log, timed_scen)["problems"]
        else:
            problems = [] if digest == first else ["the run differs from the first repeat"]
        tally.record(label, problems)
        log = None
    if not steps.ratios:
        return tally, None

    setup_s = setup.seconds()
    step_ms = 1e3 * steps.seconds(per=records)
    metrics = {
        "setup_s": (setup_s, "s"),
        "step_ms": (step_ms, "ms"),
        "wall_s": (setup_s + step_ms * full["records"] / 1e3 + artifacts.seconds(), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "min_margin_m": (full["min_margin_m"], "m"),
        "density_err_mean": (full["density_err_mean"], "1/m"),
    }
    return tally, metrics


# ---------------------------------------------------------------------------
# traced measurement
# ---------------------------------------------------------------------------

def _stat(phase, key):
    return phase.get(key, tracing.LayerStat())


def layer_self_times(run_phase):
    """Self time per layer of the run phase; with engine.self they add up
    to the traced engine.run time."""
    times = {layer: 0.0 for layer in LAYERS}
    for key, stat in run_phase.items():
        layer = key.split(".")[0]
        if layer in times:
            times[layer] += stat.self_s
    times["engine"] = _stat(run_phase, "engine.run").self_s
    return times


def scaling_metrics(n_robots, run_phase, robot_steps):
    """µs per robot-step per layer of a traced long-tube run."""
    per = 1e6 / robot_steps
    out = {f"scale.n{n_robots}.total_us": _stat(run_phase, "engine.run").incl_s * per}
    for layer, t in layer_self_times(run_phase).items():
        out[f"scale.n{n_robots}.{layer}_us"] = t * per
    return out


def scaling_point(tally, seed, n_robots, outdir):
    """Trace the long tube with n_robots robots; returns its scaling metrics."""
    tracer = tracing.Tracer()
    with tracing.install(tracer):
        scen = scenario.scenario_from_dict(long_tube_crowd(seed, n_robots))
        log = engine.run(scen)
    outcome = inspect_log(log, scen)
    tally.record(f"scaling n={n_robots}", outcome["problems"] + tracer.problems)
    tracer.save(outdir / f"spans_scale_n{n_robots}.npz")
    return scaling_metrics(n_robots, tracer.phases().get("engine.run", {}), outcome["robot_steps"])


def measure_traced(workload, seed, reference):
    """One untraced and one traced simulation of the workload, then the
    scaling curve; returns the tally and the per-layer metrics."""
    tally = Tally()
    raw = WORKLOADS[workload](seed)
    outdir = OUT / workload
    base = simulate(scenario.scenario_from_dict(raw), outdir / "untraced")
    tally.record(workload, base["problems"] + reference_problems(workload, base, reference))

    tracer = tracing.Tracer()
    with tracing.install(tracer):
        scen = scenario.scenario_from_dict(raw)
        traced = simulate(scen, outdir / "traced", tracer)
    tracer.save(outdir / "spans.npz")
    phases = tracer.phases()
    setup, run, art = (phases.get(k, {}) for k in ("scenario.load", "engine.run", "artifacts"))
    run_s = _stat(run, "engine.run").incl_s
    selfs = layer_self_times(run)

    problems = traced["problems"] + reference_problems(workload, traced, reference)
    problems += tracer.problems
    if traced["trace_sha"] != base["trace_sha"]:
        problems.append("traced trace.csv differs from the untraced one")
    if any(fn is not orig for fn, orig in zip(tracing.installed_targets(), ORIGINALS)):
        problems.append("tracing wrappers were not removed")
    if abs(sum(selfs.values()) - run_s) > 1e-9 * run_s:
        problems.append("layer self times do not add up to the traced run time")
    tally.record(f"{workload} traced", problems)

    incl = lambda phase, key: _stat(phase, key).incl_s  # noqa: E731
    metrics = {
        "scenario.load_s": (incl(setup, "scenario.load"), "s"),
        "engine.validate_initial_s": (incl(setup, "engine.validate_initial"), "s"),
        "geometry.check_regularity_s": (incl(setup, "geometry.check_regularity"), "s"),
        "geometry.tube_build_s": (incl(setup, "geometry.tube_build"), "s"),
        "geometry.project_calls": (_stat(run, "geometry.project").calls, "count"),
        "geometry.eval_scalar_calls": (_stat(run, "geometry.eval_scalar").calls, "count"),
        "geometry.project_s": (
            _stat(run, "geometry.project_many").self_s + _stat(run, "geometry.project").self_s, "s"),
        "geometry.boundary_distance_s": (incl(run, "geometry.boundary_distance"), "s"),
        "geometry.boundary_pairs": (_stat(run, "geometry.boundary_distance").work, "count"),
        "density.kde_s": (incl(run, "density.kde"), "s"),
        "density.kde_pairs": (_stat(run, "density.kde").work, "count"),
        "density.target_gradient_s": (incl(run, "density.target_gradient"), "s"),
        "density.target_gradient.self_s": (_stat(run, "density.target_gradient").self_s, "s"),
        "density.target_build_s": (incl(run, "density.target_build"), "s"),
        "density.region_s": (incl(run, "density.region"), "s"),
        "density.error_grid_s": (incl(run, "density.error_grid"), "s"),
        "density.error_grid_evals": (_stat(run, "density.error_grid").work, "count"),
        "control.avoidance_s": (incl(run, "control.avoidance"), "s"),
        "control.avoidance_pairs": (_stat(run, "control.avoidance").work, "count"),
        "control.compose_s": (incl(run, "control.compose"), "s"),
        "control.compose_calls": (_stat(run, "control.compose").calls, "count"),
        "metrics.pairwise_s": (incl(run, "metrics.pairwise"), "s"),
        "metrics.pairwise_calls": (_stat(run, "metrics.pairwise").calls, "count"),
        "engine.run_s": (run_s, "s"),
        "engine.self_s": (selfs["engine"], "s"),
        "engine.records": (traced["records"], "count"),
        "engine.robot_steps": (traced["robot_steps"], "count"),
        "engine.record_bytes": (traced["record_bytes"], "B"),
        "artifact_s": (base["artifact_s"], "s"),
        "reports.trace_write_s": (incl(art, "reports.trace_write"), "s"),
        "reports.trace_bytes": (traced["trace_bytes"], "B"),
        "reports.metrics_write_s": (incl(art, "reports.metrics_write"), "s"),
        "svgplot.render_s": (incl(art, "svgplot.render"), "s"),
        "trace.overhead_frac": (run_s / base["run_s"] - 1.0, "frac"),
    }
    for n in SCALING_ROBOTS:
        if workload == "long_tube_crowd" and n == LONG_TUBE_ROBOTS:
            # the traced run above is this point: same generator, seed and size
            point = scaling_metrics(n, run, traced["robot_steps"])
        else:
            point = checked(tally, f"scaling n={n}", scaling_point, tally, seed, n, outdir)
        for name, value in (point or {}).items():
            metrics[name] = (value, "us/robot-step")
    return tally, metrics


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    reference = json.loads(REFERENCE.read_text())

    if args.trace:
        tally, metrics = measure_traced(args.workload, args.seed, reference)
    else:
        tally, metrics = measure(args.workload, args.seed, args.seconds, reference)
    if metrics is None:
        print(f"bench: no {args.workload} simulation completed", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{args.workload} {name} = {shown} {unit}")
    print(f"{args.workload} failed_frac = {tally.failed / tally.attempted:g}"
          f" ({tally.failed} of {tally.attempted} simulations)")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
