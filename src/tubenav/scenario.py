"""Scenario files: load, validate, fingerprint.

A scenario is a single JSON document with explicit units in its field names
(meters, seconds).  Loading fills every default, validates the tube and the
initial placement, and fingerprints the fully-resolved configuration so a
log can be traced back to exactly the inputs that produced it.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .control import ControllerParams
from .engine import validate_initial
from .errors import ScenarioError
from .geometry import (
    GeneratingCurve,
    VirtualTube,
    WidthProfile,
    segment_from_config,
)
from .state import SwarmState, make_swarm

_PARAM_DEFAULTS = {
    "k1_mps": 1.0,
    "k2": 0.02,
    "k3": 0.02,
    "v_max_mps": 2.0,
    "r_s_m": 0.5,
    "r_a_m": 0.8,
    "r_t_m": 0.3,
    "eta_min_per_s": 1.0,
    "eta_max_per_s": 1.0,
    "alpha0_m2ps": 1.0,
    "h_m": None,
    "rho_floor_per_m2": 1e-6,
    "u1_mode": "modified",
}

_TOP_DEFAULTS = {
    "name": "scenario",
    "seed": 0,
    "dt_s": 0.01,
    "t_end_s": 30.0,
    "mode": "full",
    "density_grid": [200, 40],
    "regularity_spacing_m": None,
}


_TUBE_KEYS = {"topology", "segments", "width_knots_m", "extension_length_m"}

_SEGMENT_KEYS = {
    "line": {"kind", "start_xy_m", "end_xy_m"},
    "arc": {"kind", "center_xy_m", "radius_m", "start_angle_rad", "sweep_angle_rad"},
    "spline": {"kind", "points_xy_m"},
}

_PLACEMENT_KEYS = {
    "explicit": {"kind", "positions_xy_m", "jitter_m"},
    "grid": {"kind", "rows", "cols", "spacing_m", "origin_xy_m", "jitter_m"},
}


@dataclass
class Scenario:
    name: str
    seed: int
    dt: float
    t_end: float
    mode: str
    tube: VirtualTube
    params: ControllerParams
    positions: np.ndarray
    density_grid: tuple
    resolved: dict
    fingerprint: str

    @property
    def n_robots(self):
        return len(self.positions)

    def initial_state(self) -> SwarmState:
        return make_swarm(self.positions.copy())


def bundled_scenario_path(name: str) -> Path:
    """Path of a scenario shipped with the package (e.g. 'narrow_s_tube')."""
    base = resources.files("tubenav") / "scenarios" / f"{name}.json"
    return Path(str(base))


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

def build_tube(tube_cfg: dict, params: ControllerParams | None = None) -> VirtualTube:
    """Tube from its scenario description; the extension default needs the
    controller parameters (approach speed over the scaling floor)."""
    topology = tube_cfg.get("topology", "open")
    closed = topology == "closed"
    try:
        segments = [segment_from_config(s) for s in tube_cfg["segments"]]
        curve = GeneratingCurve(segments, closed=closed)
        widths = WidthProfile(tube_cfg["width_knots_m"])
        extension = tube_cfg.get("extension_length_m")
        if not closed and extension is None and params is not None:
            extension = curve.total_length + params.k1 / params.eta_min
        return VirtualTube(curve, widths, topology=topology, extension_length=extension)
    except (KeyError, ValueError, TypeError) as exc:
        raise ScenarioError(f"tube construction failed: {exc}", rule="param-bound") from exc


def _build_params(cfg: dict) -> ControllerParams:
    p = ControllerParams(
        k1=cfg["k1_mps"],
        k2=cfg["k2"],
        k3=cfg["k3"],
        v_max=cfg["v_max_mps"],
        r_s=cfg["r_s_m"],
        r_a=cfg["r_a_m"],
        r_t=cfg["r_t_m"],
        eta_min=cfg["eta_min_per_s"],
        eta_max=cfg["eta_max_per_s"],
        alpha0=cfg["alpha0_m2ps"],
        h=cfg["h_m"],
        rho_floor=cfg["rho_floor_per_m2"],
        u1_mode=cfg["u1_mode"],
    )
    try:
        return p.validate()
    except ValueError as exc:
        raise ScenarioError(f"controller parameters invalid: {exc}", rule="param-bound") from exc


def _placement_positions(cfg: dict, seed: int) -> np.ndarray:
    kind = cfg.get("kind")
    if kind == "explicit":
        pts = np.asarray(cfg["positions_xy_m"], dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) == 0:
            raise ScenarioError("explicit placement needs (N, 2) positions", rule="param-bound")
    elif kind == "grid":
        rows, cols = int(cfg["rows"]), int(cfg["cols"])
        spacing = float(cfg["spacing_m"])
        ox, oy = cfg["origin_xy_m"]
        pts = np.array(
            [(ox + c * spacing, oy + r * spacing) for c in range(cols) for r in range(rows)]
        )
    else:
        raise ScenarioError(f"unknown placement kind {kind!r}", rule="param-bound")
    jitter = float(cfg.get("jitter_m", 0.0) or 0.0)
    if jitter > 0.0:
        rng = np.random.default_rng(seed)
        pts = pts + rng.uniform(-jitter, jitter, size=pts.shape)
    return pts


def _check_keys(cfg, allowed, path=""):
    """Reject fields a loader would otherwise ignore, naming their JSON path."""
    if not isinstance(cfg, dict):
        raise ScenarioError(f"{path or 'scenario'} must be an object", rule="param-bound")
    unknown = sorted(set(cfg) - set(allowed))
    if unknown:
        names = ", ".join(f"{path}.{k}" if path else k for k in unknown)
        raise ScenarioError(f"unknown scenario field(s): {names}", rule="param-bound")


def _check_all_keys(raw: dict):
    _check_keys(raw, {*_TOP_DEFAULTS, "tube", "placement", "params"})
    _check_keys(raw.get("params", {}), _PARAM_DEFAULTS, "params")
    tube = raw.get("tube", {})
    _check_keys(tube, _TUBE_KEYS, "tube")
    segments = tube.get("segments")
    # a missing or malformed list is reported by build_tube
    kinded = [(f"tube.segments[{i}]", seg, _SEGMENT_KEYS)
              for i, seg in enumerate(segments if isinstance(segments, list) else [])]
    kinded.append(("placement", raw.get("placement", {}), _PLACEMENT_KEYS))
    for path, cfg, keys_by_kind in kinded:
        # an unknown kind passes here: build_tube or _placement_positions rejects it
        kind = cfg.get("kind") if isinstance(cfg, dict) else None
        _check_keys(cfg, keys_by_kind.get(kind, cfg), path)


def _check_value(value, path, integer=False, nullable=False):
    """Reject a scalar field of the wrong type, naming its JSON path: a
    finite number, or an integer; bools are neither."""
    if value is None and nullable:
        return
    if integer:
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and math.isfinite(value))
    if not ok:
        kind = "an integer" if integer else "a finite number"
        raise ScenarioError(f"{path} must be {kind}, got {value!r}", rule="param-bound")


def _check_values(resolved: dict):
    _check_value(resolved["seed"], "seed", integer=True)
    _check_value(resolved["dt_s"], "dt_s")
    _check_value(resolved["t_end_s"], "t_end_s")
    _check_value(resolved["regularity_spacing_m"], "regularity_spacing_m", nullable=True)
    grid = resolved["density_grid"]
    if not isinstance(grid, (list, tuple)) or len(grid) != 2:
        raise ScenarioError(f"density_grid must be two positive cell counts, got {grid!r}",
                            rule="param-bound")
    for i, cells in enumerate(grid):
        _check_value(cells, f"density_grid[{i}]", integer=True)
    for key, value in resolved["params"].items():
        if key != "u1_mode":
            _check_value(value, f"params.{key}", nullable=key == "h_m")
    placement = resolved["placement"]
    for key in ("rows", "cols", "spacing_m", "jitter_m"):
        if key in placement:
            _check_value(placement[key], f"placement.{key}", integer=key in ("rows", "cols"),
                         nullable=key == "jitter_m")


def _resolve(raw: dict) -> dict:
    _check_all_keys(raw)
    resolved = {}
    for key, default in _TOP_DEFAULTS.items():
        resolved[key] = raw.get(key, default)
    if "tube" not in raw or "placement" not in raw:
        raise ScenarioError("scenario needs 'tube' and 'placement' sections", rule="param-bound")
    resolved["tube"] = copy.deepcopy(raw["tube"])
    resolved["tube"].setdefault("topology", "open")
    resolved["tube"].setdefault("extension_length_m", None)
    resolved["placement"] = copy.deepcopy(raw["placement"])
    if resolved["placement"].get("kind") == "grid":
        resolved["placement"].setdefault("jitter_m", 0.0)
    params_raw = raw.get("params", {})
    resolved["params"] = {k: params_raw.get(k, v) for k, v in _PARAM_DEFAULTS.items()}
    _check_values(resolved)
    return resolved


def _fingerprint(resolved: dict) -> str:
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# loading and validation
# ---------------------------------------------------------------------------

def scenario_from_dict(raw: dict, source="<dict>") -> Scenario:
    resolved = _resolve(raw)
    params = _build_params(resolved["params"])
    tube = build_tube(resolved["tube"], params)
    resolved["tube"]["extension_length_m"] = tube.extension_length

    if resolved["mode"] not in ("full", "baseline", "compare"):
        raise ScenarioError(f"mode must be full|baseline|compare, got {resolved['mode']!r}",
                            rule="param-bound")
    dt = float(resolved["dt_s"])
    t_end = float(resolved["t_end_s"])
    if dt <= 0:
        raise ScenarioError("dt_s must be positive", rule="param-bound")
    if t_end < 0:
        raise ScenarioError("t_end_s must be nonnegative", rule="param-bound")
    grid = resolved["density_grid"]
    if grid[0] < 1 or grid[1] < 1:
        raise ScenarioError("density_grid must be two positive cell counts", rule="param-bound")

    if params.u1_mode == "original" and tube.closed:
        raise ScenarioError("distance-scheduled approach mode needs an open tube",
                            rule="param-bound")
    if not tube.closed:
        needed = tube.length + params.k1 / params.eta_min
        if tube.extension_length < needed - 1e-9:
            raise ScenarioError(
                f"extension length {tube.extension_length} below required {needed}",
                rule="param-bound",
            )

    report = tube.check_regularity(spacing=resolved["regularity_spacing_m"])
    if not report.ok:
        pairs = ", ".join(f"({a:.2f}, {b:.2f})" for a, b in report.intersections[:5])
        raise ScenarioError(
            f"tube is irregular: {len(report.intersections)} intersecting section pairs"
            f" (first: {pairs})",
            rule="regularity",
        )

    # every section must at least fit one robot: sigma(l) > r_s
    probe = np.unique(np.concatenate([
        np.linspace(0.0, tube.length, 512),
        tube.widths.knot_ls,
    ]))
    probe = probe[(probe >= 0.0) & (probe <= tube.length)]
    sigma = np.asarray(tube.widths.r_c(probe), dtype=float)
    if np.any(sigma <= params.r_s):
        l_bad = float(probe[int(np.argmin(sigma))])
        raise ScenarioError(
            f"cross-section at l={l_bad:.3f} has capacity {float(np.min(sigma)):.3f}"
            f" <= r_s = {params.r_s}: robot cannot fit",
            rule="infeasible-narrow-section",
        )

    # the tube-keeping band must leave a force-free core on every section
    min_half = float(np.min(np.minimum(tube.widths.r_d(probe), tube.widths.r_u(probe))))
    if params.r_s + params.r_t >= min_half:
        raise ScenarioError(
            f"r_s + r_t = {params.r_s + params.r_t} must stay below the minimum"
            f" half-width {min_half} so a keeping-free core exists",
            rule="param-bound",
        )

    positions = _placement_positions(resolved["placement"], int(resolved["seed"]))
    violations = validate_initial(make_swarm(positions), tube, params)
    if violations:
        raise ScenarioError(
            "initial placement invalid: " + "; ".join(violations[:5]),
            rule="initial-collision",
        )

    return Scenario(
        name=str(resolved["name"]),
        seed=int(resolved["seed"]),
        dt=dt,
        t_end=t_end,
        mode=resolved["mode"],
        tube=tube,
        params=params,
        positions=positions,
        density_grid=(int(grid[0]), int(grid[1])),
        resolved=resolved,
        fingerprint=_fingerprint(resolved),
    )


def load_scenario(path) -> Scenario:
    """Parse and fully validate a scenario file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}", rule="parse") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}", rule="parse"
        ) from exc
    if not isinstance(raw, dict):
        raise ScenarioError(f"{path}: top level must be an object", rule="parse")
    return scenario_from_dict(raw, source=str(path))


def apply_overrides(scenario_raw: dict, dt=None, t_end=None, mode=None) -> dict:
    """CLI convenience: rebuild a raw scenario dict with overridden fields."""
    raw = copy.deepcopy(scenario_raw)
    if dt is not None:
        raw["dt_s"] = dt
    if t_end is not None:
        raw["t_end_s"] = t_end
    if mode is not None:
        raw["mode"] = mode
    return raw
