"""Checks on the package source itself."""
import ast
from pathlib import Path

import ordmatch


def test_no_assert_statements():
    # runtime contracts must be explicit raises: `python -O` strips asserts
    found = []
    for path in sorted(Path(ordmatch.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
