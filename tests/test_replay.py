"""A property test draws the same examples with its file alone as with the
whole suite: each of two processes loads conftest.py, as pytest does, then
the one test file or every test file, and records the arguments of the
test's draws in order."""

import json
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
# a property test of floats, whose file loads neither tubenav.cli nor
# tubenav.svgplot
TARGET = ("test_outer_products", "TestKdeProducts", "test_within_the_bound_of_the_broadcast_form")

PROBE = """
import importlib, json, sys
module_name, class_name, test_name = sys.argv[1:4]
import conftest
for name in sys.argv[4:]:
    importlib.import_module(name)
test = getattr(getattr(importlib.import_module(module_name), class_name), test_name)
draws = []
test.hypothesis.inner_test = lambda self, **kwargs: draws.append(repr(kwargs))
test(None)
print(json.dumps(draws))
"""


def draws(*preload):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(TESTS), *sys.path]))
    out = subprocess.run([sys.executable, "-c", PROBE, *TARGET, *preload], env=env,
                         cwd=TESTS.parent, capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def test_a_file_alone_draws_as_the_whole_suite():
    everything = sorted(p.stem for p in TESTS.glob("test_*.py"))
    alone, suite = draws(), draws(*everything)
    # more than the explicit examples, all of them in the same order
    assert len(alone) > 10
    assert alone == suite
