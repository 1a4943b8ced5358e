"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured values.

The two long runs (narrow S-tube compare, annular endurance) execute once
per session and are shared across the criteria that read them.
"""

import json
import math
import time

import numpy as np
import pytest

from tubenav.density import DensityView, DesiredDensity, occupied_region_from_arclengths
from tubenav.engine import run
from tubenav.geometry import GeneratingCurve, LineSegment, VirtualTube, WidthProfile
from tubenav.metrics import audit_condition23, neighbours, throughput
from tubenav.reports import write_trace_csv
from tubenav.scenario import (
    apply_overrides,
    bundled_scenario_path,
    load_scenario,
    scenario_from_dict,
)

from scalar_tube import CurvilinearCoord

RUNTIME_TARGET_S = 60.0


def _series(log, field):
    ts = np.array([r.time for r in log.records])
    vals = np.array([getattr(r.metrics, field) for r in log.records])
    return ts, vals


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def narrow_raw():
    return json.loads(bundled_scenario_path("narrow_s_tube").read_text())


@pytest.fixture(scope="module")
def compare_logs(narrow_raw):
    logs = {}
    walls = {}
    for arm in ("full", "baseline"):
        sc = scenario_from_dict(apply_overrides(narrow_raw, mode=arm))
        t0 = time.perf_counter()
        logs[arm] = run(sc)
        walls[arm] = time.perf_counter() - t0
    return logs, walls


@pytest.fixture(scope="module")
def annular_log():
    sc = load_scenario(bundled_scenario_path("annular"))
    t0 = time.perf_counter()
    log = run(sc)
    wall = time.perf_counter() - t0
    return log, wall


# ---------------------------------------------------------------------------
# 1. safety margins on the narrow-tube run
# ---------------------------------------------------------------------------

def test_criterion_1_safety(compare_logs):
    logs, walls = compare_logs
    log = logs["full"]
    assert log.termination == "time-limit"
    assert len(log.records) == 3001
    _, min_pair = _series(log, "min_pairwise_distance")
    _, min_bound = _series(log, "min_boundary_distance")
    ok_pair = bool(np.all(min_pair[np.isfinite(min_pair)] > 1.0))
    ok_bound = bool(np.all(min_bound[np.isfinite(min_bound)] > 0.5))
    worst_pair = float(np.nanmin(min_pair))
    worst_bound = float(np.nanmin(min_bound))
    ok_time = walls["full"] < RUNTIME_TARGET_S
    _report(
        1,
        ok_pair and ok_bound and ok_time,
        f"min pairwise {worst_pair:.4f} m > 1.0, min boundary {worst_bound:.4f} m > 0.5 "
        f"over {len(log.records)} records; runtime {walls['full']:.1f} s < {RUNTIME_TARGET_S:.0f} s",
    )


# ---------------------------------------------------------------------------
# 2. density tracking error decays and stays bounded
# ---------------------------------------------------------------------------

def test_criterion_2_density_tracking(compare_logs):
    logs, _ = compare_logs
    ts, err = _series(logs["full"], "density_error_l2")
    err_start = float(err[0])
    err_end = float(err[-1])
    early = float(np.nanmax(err[(ts >= 0.0) & (ts <= 10.0)]))
    late = float(np.nanmax(err[(ts >= 20.0) & (ts <= 30.0)]))
    ok = err_end < 0.5 * err_start and late < early
    _report(
        2,
        ok,
        f"error(30)={err_end:.4f} vs 0.5*error(0)={0.5 * err_start:.4f}; "
        f"max[20,30]={late:.4f} < max[0,10]={early:.4f}",
    )


# ---------------------------------------------------------------------------
# 3. dispersion improvement from the regulation term
# ---------------------------------------------------------------------------

def test_criterion_3_amd_ordering(compare_logs):
    logs, _ = compare_logs
    ts_f, amd_f = _series(logs["full"], "amd")
    ts_b, amd_b = _series(logs["baseline"], "amd")
    mean_f = float(np.nanmean(amd_f[(ts_f >= 20.0) & (ts_f <= 30.0)]))
    mean_b = float(np.nanmean(amd_b[(ts_b >= 20.0) & (ts_b <= 30.0)]))
    _report(3, mean_f > mean_b, f"time-averaged AMD[20,30] full={mean_f:.4f} > baseline={mean_b:.4f}")


# ---------------------------------------------------------------------------
# 4. throughput improvement
# ---------------------------------------------------------------------------

def test_criterion_4_throughput(compare_logs):
    logs, _ = compare_logs
    exited_f = throughput(logs["full"], 30.0)
    exited_b = throughput(logs["baseline"], 30.0)
    _report(4, exited_f > exited_b,
            f"exited at t=30 s: full={exited_f} > baseline={exited_b}; the advantage is a "
            "30 s snapshot, and the full arm clears the tube later than the baseline")


# ---------------------------------------------------------------------------
# 5. regulation-term norm audit
# ---------------------------------------------------------------------------

def test_criterion_5_condition_audit(compare_logs, annular_log):
    logs, _ = compare_logs
    ann_log, _ = annular_log
    rep_narrow = audit_condition23(logs["full"])
    rep_annular = audit_condition23(ann_log)
    total = len(rep_narrow.violations) + len(rep_annular.violations)
    _report(
        5,
        total == 0,
        f"norm-cap violations at 1e-12 tolerance: narrow={len(rep_narrow.violations)}, "
        f"annular={len(rep_annular.violations)}",
    )


# ---------------------------------------------------------------------------
# 6. closed-tube endurance
# ---------------------------------------------------------------------------

def test_criterion_6_annular_endurance(annular_log):
    log, wall = annular_log
    assert log.termination == "time-limit"
    _, min_pair = _series(log, "min_pairwise_distance")
    _, min_bound = _series(log, "min_boundary_distance")
    ok_pair = bool(np.all(min_pair > 0.15))
    ok_bound = bool(np.all(min_bound > 0.075))
    ok_exits = len(log.exit_times) == 0
    ok_time = wall < RUNTIME_TARGET_S
    _report(
        6,
        ok_pair and ok_bound and ok_exits and ok_time,
        f"150 s run: min pairwise {float(np.min(min_pair)):.4f} > 0.15, "
        f"min boundary {float(np.min(min_bound)):.4f} > 0.075, exits={len(log.exit_times)}; "
        f"runtime {wall:.1f} s < {RUNTIME_TARGET_S:.0f} s",
    )


# ---------------------------------------------------------------------------
# 7. numerical oracles
# ---------------------------------------------------------------------------

def test_criterion_7_numerical_oracles():
    rng = np.random.default_rng(2024)

    # KDE against an independent direct sum
    samples = rng.normal(0.0, 2.0, size=(25, 2))
    view = DensityView(samples, bandwidth=0.7)
    kde_err = 0.0
    for p in rng.normal(0.0, 2.0, size=(25, 2)):
        direct = sum(
            math.exp(-((p[0] - s[0]) ** 2 + (p[1] - s[1]) ** 2) / (2 * 0.7**2))
            / (2 * math.pi)
            for s in samples
        ) / (25 * 0.7**2)
        kde_err = max(kde_err, abs(float(view.estimate_many(p)[0]) - direct))
    ok_kde = kde_err < 1e-12

    # KDE gradient against central finite differences
    fd_err = 0.0
    h = 1e-5
    for p in rng.normal(0.0, 2.0, size=(100, 2)):
        g = view.estimate_and_gradient_many(p)[1][0]
        ahead = view.estimate_many(p + np.eye(2) * h)
        behind = view.estimate_many(p - np.eye(2) * h)
        fd = (ahead - behind) / (2 * h)
        fd_err = max(fd_err, float(np.linalg.norm(g - fd) / (1.0 + np.linalg.norm(g))))
    ok_grad = fd_err < 1e-6

    # curvilinear round-trip on the bundled tube
    tube = load_scenario(bundled_scenario_path("narrow_s_tube")).tube
    n = 10_000
    ls = rng.uniform(0.0, tube.length, n)
    rs = rng.uniform(-0.95, 0.95, n) * tube.widths.r_d(ls)
    pts = tube.section_points(ls, rs)
    prs = tube.curve.project_many(pts)
    back = tube.section_points(prs.l, prs.r)
    rt_err = float(np.max(np.linalg.norm(back - pts, axis=1)))
    ok_rt = rt_err < 1e-6

    # target-density normalization via fine quadrature
    region = occupied_region_from_arclengths([2.0, 27.0], tube)
    dd = DesiredDensity(tube, region, delta_l=1.0)
    grid_l = np.linspace(0.0, tube.length, 400_001)
    mass = float(
        np.trapezoid(dd.profile_many(grid_l) * 2.0 * tube.widths.r_c(grid_l), grid_l)
    )
    ok_mass = abs(mass - 1.0) < 1e-6

    # dispersion metrics against the quadratic brute force
    pts25 = rng.uniform(0.0, 10.0, size=(25, 2))
    bf_min = min(
        math.dist(pts25[i], pts25[j])
        for i in range(25)
        for j in range(i + 1, 25)
    )
    bf_amd = (
        sum(
            min(math.dist(pts25[i], pts25[j]) for j in range(25) if j != i)
            for i in range(25)
        )
        / 25
    )
    nearest = neighbours(pts25, 1.0).nearest
    ok_metrics = (
        abs(float(np.min(nearest)) - bf_min) < 1e-12
        and abs(float(np.mean(nearest)) - bf_amd) < 1e-12
    )

    _report(
        7,
        ok_kde and ok_grad and ok_rt and ok_mass and ok_metrics,
        f"KDE direct-sum err {kde_err:.2e} < 1e-12; gradient FD rel err {fd_err:.2e} < 1e-6; "
        f"round-trip max {rt_err:.2e} m < 1e-6 over 10^4 points; |target mass - 1| "
        f"{abs(mass - 1.0):.2e} < 1e-6; AMD/min-dist brute-force agreement < 1e-12",
    )


# ---------------------------------------------------------------------------
# 8. determinism and first-order convergence
# ---------------------------------------------------------------------------

def test_criterion_8_determinism_and_convergence(narrow_raw, tmp_path):
    short = apply_overrides(narrow_raw, t_end=2.0)
    traces = []
    for k in range(2):
        sc = scenario_from_dict(short)
        log = run(sc)
        path = tmp_path / f"trace_{k}.csv"
        write_trace_csv(log, path)
        traces.append(path.read_bytes())
    ok_det = traces[0] == traces[1]

    def final_positions(dt):
        sc = scenario_from_dict(apply_overrides(narrow_raw, dt=dt, t_end=1.0))
        return run(sc).records[-1].positions

    p1 = final_positions(0.02)
    p2 = final_positions(0.01)
    p3 = final_positions(0.005)
    e1 = float(np.max(np.linalg.norm(p1 - p2, axis=1)))
    e2 = float(np.max(np.linalg.norm(p2 - p3, axis=1)))
    ratio = e1 / e2
    ok_conv = 1.6 <= ratio <= 2.4
    _report(
        8,
        ok_det and ok_conv,
        f"double run byte-identical: {ok_det}; step-halving error ratio {ratio:.3f} in [1.6, 2.4]",
    )
