"""Every exception type the package defines is raised somewhere in it."""

import ast
import inspect
from pathlib import Path

from planarq import errors

SRC = Path(__file__).resolve().parents[1] / "src" / "planarq"


def _raised_names() -> set[str]:
    """Names of the classes that some ``raise`` statement in the package
    raises, as ``raise Name(...)`` or ``raise Name``."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
    return names


def test_every_error_type_is_raised():
    defined = {name for name, cls in inspect.getmembers(errors, inspect.isclass)
               if cls.__module__ == errors.__name__}
    assert defined - _raised_names() == set()
