"""tubenav: deterministic 2D swarm navigation through narrow virtual tubes.

Navigates robot swarms along corridor-shaped safe regions with a saturated
velocity command combining potential-field safe navigation and kernel
density feedback toward a capacity-proportional target distribution.
"""

from .control import ControllerParams, compose_velocity
from .density import (
    DensityView,
    DesiredDensity,
    OccupiedRegion,
    silverman_bandwidth,
)
from .engine import SimulationLog, apply_exit_rule, run, validate_initial
from .errors import (
    SafetyViolation,
    ScenarioError,
    TubeDomainError,
    TubeNavError,
)
from .geometry import (
    ArcSegment,
    CatmullRomSegment,
    GeneratingCurve,
    LineSegment,
    VirtualTube,
    WidthProfile,
    narrow_intervals,
)
from .metrics import audit_condition23, throughput
from .scenario import Scenario, bundled_scenario_path, load_scenario, scenario_from_dict

__version__ = "0.1.0"
