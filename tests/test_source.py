"""Source-level rules for the library code."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import overrot

SOURCES = sorted(Path(overrot.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_invariants_are_not_checked_with_assert(path):
    # `assert` vanishes under `python -O`, so an invariant it guards would
    # silently stop being checked; raise a real exception instead
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            found.append(node.lineno)
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                found.append(node.lineno)
    assert not found, f"{path.name}: assert at lines {found}"


def _name(node) -> str | None:
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_cache_has_a_literal_bound(path):
    # a cache without a bound grows with every key a sweep meets; the bound is
    # written out where the cache is, so a reader sees what it may hold
    tree = ast.parse(path.read_text(), filename=str(path))
    bounded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _name(node.func) == "lru_cache":
            sizes = node.args[:1] + [kw.value for kw in node.keywords if kw.arg == "maxsize"]
            if len(sizes) == 1 and isinstance(sizes[0], ast.Constant):
                if type(sizes[0].value) is int:
                    bounded.add(node.func)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [node.lineno for alias in node.names if alias.name == "cache"]
        elif isinstance(node, ast.Attribute) and node.attr == "cache":
            if _name(node.value) == "functools":
                found.append(node.lineno)
        elif _name(node) == "lru_cache" and node not in bounded:
            found.append(node.lineno)
    assert not found, f"{path.name}: unbounded or non-literal cache at lines {found}"


def test_all_lists_exactly_the_imported_names():
    # a name dropped from the imports but not from __all__, or the reverse,
    # breaks `from overrot import *` only when someone runs it
    path = Path(overrot.__file__)
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert overrot.__all__ == sorted(overrot.__all__)
    assert len(set(overrot.__all__)) == len(overrot.__all__)
    assert set(overrot.__all__) == set(imported)
    assert len(imported) == len(set(imported))


def test_a_cold_import_of_the_cli_loads_no_pool_or_dataclass_machinery():
    # every query runs in a fresh process and pays for each module the import
    # loads; the process pool is imported only when a sweep starts workers
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import overrot.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    src = str(Path(overrot.__file__).parent.parent)
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    run = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    added = set(run.stdout.split())
    assert "overrot.cli" in added
    assert not added & {"dataclasses", "concurrent.futures.process", "multiprocessing"}


def test_every_name_the_benchmark_tracer_wraps_exists():
    # perfbench's tracer rebinds each (module, attr) of its SPANS by name, so
    # a traced benchmark run fails once one of them is renamed or deleted
    path = Path(__file__).parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    named = [pair for pairs in tracer.SPANS.values() for pair in pairs]
    assert named
    missing = [
        (module, attr)
        for module, attr in named
        if not hasattr(importlib.import_module(f"overrot.{module}"), attr)
    ]
    assert not missing, missing
