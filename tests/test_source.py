"""Source-level rules for the library code."""

import ast
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
