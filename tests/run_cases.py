"""Small scenarios whose runs cover the run files' edge cases: a robot that
exits, a lone robot that clears the tube, a fault record, a zero-length run
and a closed tube.  Each is a function returning a fresh scenario dict."""

import json

from tubenav.scenario import apply_overrides, bundled_scenario_path


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


def evacuated_scenario():
    """The exit scenario's robot a metre short of the end, alone: the run
    ends all-exited."""
    raw = exit_scenario()
    raw["placement"]["positions_xy_m"] = raw["placement"]["positions_xy_m"][1:]
    return raw


RUNS = {
    "exits": exit_scenario,
    "evacuated": evacuated_scenario,
    "fault": fault_scenario,
    "zero_length": lambda: bundled("narrow_s_tube", t_end=0.0),
    "ring": lambda: bundled("annular", t_end=0.05),
}
