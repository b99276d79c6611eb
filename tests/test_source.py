import ast
import importlib
from pathlib import Path

import quivermoduli


def test_no_assert_statements():
    # `python -O` strips assert statements, so the package's invariants are
    # checks that raise
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(quivermoduli.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_all_names_are_defined():
    # the bench tracer looks up every name in __all__, so a stale entry
    # breaks a traced run
    missing = []
    for path in sorted(Path(quivermoduli.__file__).parent.glob("*.py")):
        name = "quivermoduli" if path.stem == "__init__" else f"quivermoduli.{path.stem}"
        module = importlib.import_module(name)
        missing += [f"{name}.{attr}" for attr in getattr(module, "__all__", ())
                    if not hasattr(module, attr)]
    assert missing == []
