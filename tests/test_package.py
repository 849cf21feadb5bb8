"""The public surface of the package and the dependencies it declares."""

import ast
import importlib.metadata
import inspect
import re
import sys
from pathlib import Path

import pytest

import thermotimes
from thermotimes import errors


def test_public_names_resolve_once_and_export_every_error():
    names = thermotimes.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(thermotimes, name)]
    assert not missing
    error_classes = {name for name, obj in vars(errors).items()
                     if inspect.isclass(obj) and issubclass(obj, errors.ThermotimesError)}
    assert error_classes <= set(names)


def test_every_third_party_import_of_the_tests_is_declared():
    # a runner that installs only .[test] must be able to collect every test module
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("_", "-")
                for r in requirements}
    local = {"thermotimes"} | {path.stem for path in (root / "tests").glob("*.py")}
    imported = set()
    for path in (root / "tests").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.partition(".")[0])
    distributions = importlib.metadata.packages_distributions()
    undeclared = {
        name for name in imported - local - set(sys.stdlib_module_names)
        if not {d.lower().replace("_", "-") for d in distributions.get(name, [name])} & declared
    }
    assert not undeclared, f"imported under tests/ but not declared in pyproject.toml: {undeclared}"
