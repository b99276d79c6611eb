import ast
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
