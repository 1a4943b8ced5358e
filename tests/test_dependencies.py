"""The package depends on numpy alone: every module of src/tubenav imports
only the standard library, numpy and the package itself.  scipy and
hypothesis are installed for the tests, so a stray import of either would
otherwise run unnoticed."""

import ast
import sys
from pathlib import Path

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "tubenav"}
SOURCES = sorted((Path(__file__).parents[1] / "src" / "tubenav").glob("*.py"))


def top_level_imports(path):
    """(line, top-level module) of every absolute import in the file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "density.py", "engine.py"}


def test_imports_only_stdlib_numpy_and_the_package():
    stray = [f"{path.name}:{line} imports {name}"
             for path in SOURCES for line, name in top_level_imports(path)
             if name not in ALLOWED]
    assert stray == []


def test_the_guard_sees_a_stray_import(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("import numpy as np\nfrom . import blocks\n"
                      "def f():\n    from scipy.spatial import cKDTree\n")
    assert [(line, name) for line, name in top_level_imports(source)
            if name not in ALLOWED] == [(4, "scipy")]
