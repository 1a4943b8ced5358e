"""Loads every module of the package before any test runs.

Hypothesis draws from a pool that holds the literal constants of every
local module loaded so far, test files excepted.  With every module loaded
first, a property test draws the same examples whether its file runs alone
or with the whole suite (test_replay.py checks it).  An edit to a literal
in src/ still changes the draws."""

import importlib
import pkgutil

import tubenav

for _module in pkgutil.iter_modules(tubenav.__path__):
    if _module.name != "__main__":  # the command line entry runs on import
        importlib.import_module(f"tubenav.{_module.name}")
