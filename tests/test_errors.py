"""The exception hierarchy holds no class that the package does not use."""

import ast
import inspect
from pathlib import Path

import obameter
from obameter import errors


def _names(node: ast.AST) -> set[str]:
    """Every bare or dotted name in the expression `node`."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def _raised_or_caught() -> set[str]:
    """Names in a `raise X(...)`, `raise X` or `except (X, Y)` of the package."""
    used: set[str] = set()
    for path in Path(obameter.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                used |= _names(exc)
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                used |= _names(node.type)
    return used


def test_every_error_class_is_raised_or_caught_in_the_package():
    classes = {
        name for name, obj in vars(errors).items()
        if inspect.isclass(obj) and obj.__module__ == errors.__name__
    }
    assert "CorpusDataError" in classes
    assert sorted(classes - _raised_or_caught()) == []
