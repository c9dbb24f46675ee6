import ast
import pathlib

import remvi

SRC = pathlib.Path(remvi.__file__).parent


def test_no_assert_statements():
    # invariants raise: an assert vanishes under python -O
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_public_names_resolve():
    missing = [name for name in remvi.__all__ if not hasattr(remvi, name)]
    assert missing == []
    assert len(set(remvi.__all__)) == len(remvi.__all__)
