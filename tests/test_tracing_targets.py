"""The benchmark's span tracer (bench/tracing.py) wraps package functions by
name; a rename that it would no longer find fails here, not only in a
traced benchmark run."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing(monkeypatch):
    # no bytecode cache is written next to the benchmark sources
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves(monkeypatch):
    tracing = load_tracing(monkeypatch)
    assert tracing.TARGETS
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _, _ in tracing.TARGETS
        if tracing._current(owner, attr) is None
    ]
    assert missing == []
