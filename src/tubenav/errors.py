"""Exception types shared across the package."""

from __future__ import annotations


class TubeNavError(Exception):
    """Base class for all package errors."""


class TubeDomainError(TubeNavError, ValueError):
    """A coordinate argument is outside the valid domain of an operation."""


class SafetyViolation(TubeNavError):
    """A hard safety invariant failed (robot overlap, boundary penetration,
    or a robot left the tube).  Raised instead of silently correcting, so a
    failed run is loud."""

    def __init__(self, message, kind, details=None):
        super().__init__(message)
        self.kind = kind  # "robot-robot" | "boundary" | "containment"
        self.details = details or {}


class RunFileError(TubeNavError, ValueError):
    """A trace or metrics CSV file cannot be read back: it has an unexpected
    header, a row that is not numeric, or no records.  The message names the
    file and the problem."""


class ScenarioError(TubeNavError):
    """Scenario file failed to parse or validate.

    ``rule`` names the failed check: parse | regularity | initial-collision |
    infeasible-narrow-section | param-bound.
    """

    def __init__(self, message, rule):
        super().__init__(message)
        self.rule = rule
