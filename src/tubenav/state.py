"""Swarm state container.

Kept in a leaf module so geometry, density, controller and engine code can
all depend on it without import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class SwarmState:
    """Timestamped robot states, one array row per robot.

    Rows are never removed; exited robots are flagged inactive and excluded
    from density samples, neighbor sets and metrics.
    """

    time: float
    positions: np.ndarray   # (N, 2) m
    velocities: np.ndarray  # (N, 2) m/s, zero once a robot has exited
    active: np.ndarray      # (N,) bool

    def active_positions(self) -> np.ndarray:
        """Positions of active robots, shape (M, 2)."""
        return self.positions[self.active]


def make_swarm(positions, time=0.0) -> SwarmState:
    """Build a swarm at rest from an (N, 2) position array."""
    positions = np.array(positions, dtype=float).reshape(-1, 2)
    n = len(positions)
    return SwarmState(
        time=float(time),
        positions=positions,
        velocities=np.zeros((n, 2)),
        active=np.ones(n, dtype=bool),
    )
