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
    ArcSegment,
    CatmullRomSegment,
    GeneratingCurve,
    LineSegment,
    VirtualTube,
    WidthProfile,
)

# JSON key of each ControllerParams field; the defaults are the dataclass's
_PARAM_FIELDS = {
    "k1_mps": "k1",
    "k2": "k2",
    "k3": "k3",
    "v_max_mps": "v_max",
    "r_s_m": "r_s",
    "r_a_m": "r_a",
    "r_t_m": "r_t",
    "alpha0_m2ps": "alpha0",
    "h_m": "h",
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


_TUBE_KEYS = {"topology", "segments", "width_knots_m"}

# each segment kind's class, and the constructor argument of each of its JSON keys
_SEGMENTS = {
    "line": (LineSegment, {"start_xy_m": "start", "end_xy_m": "end"}),
    "arc": (ArcSegment, {"center_xy_m": "center", "radius_m": "radius",
                         "start_angle_rad": "start_angle", "sweep_angle_rad": "sweep_angle"}),
    "spline": (CatmullRomSegment, {"points_xy_m": "points"}),
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


def bundled_scenario_path(name: str) -> Path:
    """Path of a scenario shipped with the package (e.g. 'narrow_s_tube')."""
    base = resources.files("tubenav") / "scenarios" / f"{name}.json"
    return Path(str(base))


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

def _segment(cfg: dict):
    if cfg.get("kind") not in _SEGMENTS:
        raise ValueError(f"unknown segment kind {cfg.get('kind')!r}")
    cls, args = _SEGMENTS[cfg["kind"]]
    return cls(**{arg: cfg[key] for key, arg in args.items()})


def build_tube(tube_cfg: dict) -> VirtualTube:
    """Tube from its scenario description."""
    topology = tube_cfg.get("topology", "open")
    try:
        segments = [_segment(s) for s in tube_cfg["segments"]]
        curve = GeneratingCurve(segments, closed=topology == "closed")
        widths = WidthProfile(tube_cfg["width_knots_m"])
        return VirtualTube(curve, widths, topology=topology)
    except (KeyError, ValueError, TypeError) as exc:
        raise ScenarioError(f"tube construction failed: {exc}", rule="param-bound") from exc


def _build_params(cfg: dict) -> ControllerParams:
    p = ControllerParams(**{field: cfg[key] for key, field in _PARAM_FIELDS.items()})
    try:
        return p.validate()
    except ValueError as exc:
        raise ScenarioError(f"controller parameters invalid: {exc}", rule="param-bound") from exc


def _placement_positions(cfg: dict, seed: int) -> np.ndarray:
    kind = cfg.get("kind")
    if kind == "explicit":
        pts = np.asarray(cfg["positions_xy_m"], dtype=float)
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
    _check_keys(raw.get("params", {}), _PARAM_FIELDS, "params")
    tube = raw.get("tube", {})
    _check_keys(tube, _TUBE_KEYS, "tube")
    segments = tube.get("segments")
    # a missing or malformed list is reported by build_tube
    segment_keys = {kind: {"kind", *args} for kind, (_, args) in _SEGMENTS.items()}
    kinded = [(f"tube.segments[{i}]", seg, segment_keys)
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
        _check_value(value, f"params.{key}", nullable=key == "h_m")
    placement = resolved["placement"]
    kind = placement.get("kind")
    for key in sorted(_PLACEMENT_KEYS.get(kind, set()) - {"kind", "jitter_m"}):
        if key not in placement:
            raise ScenarioError(f"placement.{key} is required by a {kind} placement",
                                rule="param-bound")
    for key in ("rows", "cols", "spacing_m", "jitter_m"):
        if key in placement:
            value, jitter = placement[key], key == "jitter_m"
            _check_value(value, f"placement.{key}", integer=key in ("rows", "cols"),
                         nullable=jitter)
            # an empty grid, or a negative jitter, would otherwise load as if valid
            if value is not None and (value < 0 if jitter else value <= 0):
                bound = "nonnegative" if jitter else "positive"
                raise ScenarioError(f"placement.{key} must be {bound}, got {value!r}",
                                    rule="param-bound")
    if "origin_xy_m" in placement:
        _check_point(placement["origin_xy_m"], "placement.origin_xy_m")
    if "positions_xy_m" in placement:
        positions = placement["positions_xy_m"]
        if not isinstance(positions, (list, tuple)) or not positions:
            raise ScenarioError(f"placement.positions_xy_m must be a nonempty list of [x, y]"
                                f" pairs, got {positions!r}", rule="param-bound")
        for i, p in enumerate(positions):
            _check_point(p, f"placement.positions_xy_m[{i}]")


def _check_point(value, path):
    """Reject a point that is not a pair of finite numbers, naming its path."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ScenarioError(f"{path} must be a pair [x, y] of finite numbers, got {value!r}",
                            rule="param-bound")
    for i, v in enumerate(value):
        _check_value(v, f"{path}[{i}]")


def resolve_scenario(raw: dict) -> dict:
    """The raw scenario with every default filled in, after the key and
    value-type checks; nothing is built from it yet."""
    _check_all_keys(raw)
    resolved = {}
    for key, default in _TOP_DEFAULTS.items():
        resolved[key] = raw.get(key, default)
    if "tube" not in raw or "placement" not in raw:
        raise ScenarioError("scenario needs 'tube' and 'placement' sections", rule="param-bound")
    resolved["tube"] = copy.deepcopy(raw["tube"])
    resolved["tube"].setdefault("topology", "open")
    resolved["placement"] = copy.deepcopy(raw["placement"])
    if resolved["placement"].get("kind") == "grid":
        resolved["placement"].setdefault("jitter_m", 0.0)
    params_raw = raw.get("params", {})
    defaults = ControllerParams()
    resolved["params"] = {key: params_raw.get(key, getattr(defaults, field))
                          for key, field in _PARAM_FIELDS.items()}
    _check_values(resolved)
    return resolved


def _fingerprint(resolved: dict) -> str:
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# loading and validation
# ---------------------------------------------------------------------------

def regularity_report(tube: VirtualTube, resolved: dict):
    """The tube's regularity report; a refused section spacing raises ScenarioError."""
    try:
        return tube.check_regularity(spacing=resolved["regularity_spacing_m"])
    except ValueError as exc:
        raise ScenarioError(f"regularity_spacing_m: {exc}", rule="param-bound") from exc


def scenario_from_dict(raw: dict) -> Scenario:
    resolved = resolve_scenario(raw)
    tube = build_tube(resolved["tube"])
    return checked_scenario(resolved, tube, regularity_report(tube, resolved))


def checked_scenario(resolved: dict, tube: VirtualTube, report) -> Scenario:
    """The scenario of a resolved dict and its tube, after every check;
    ``report`` is the tube's regularity_report."""
    params = _build_params(resolved["params"])
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
    violations = validate_initial(positions, tube, params)
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


def read_scenario_file(path) -> dict:
    """The raw scenario object of a JSON file; a file that cannot be read,
    is not JSON or is not one object raises ScenarioError (rule parse)."""
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
    return raw


def load_scenario(path) -> Scenario:
    """Parse and fully validate a scenario file."""
    return scenario_from_dict(read_scenario_file(path))


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
