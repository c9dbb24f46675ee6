import ast
import importlib
import pathlib

import remvi

SRC = pathlib.Path(remvi.__file__).parent


def _raises_assertion_error(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements():
    # invariants raise a ValueError or RuntimeError: an assert vanishes
    # under python -O, and an AssertionError is outside the failure
    # vocabulary the bench CLI maps to exit codes
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)
             or isinstance(node, ast.Raise) and node.exc is not None
             and _raises_assertion_error(node)]
    assert found == []


def test_public_names_resolve():
    missing = [name for name in remvi.__all__ if not hasattr(remvi, name)]
    assert missing == []
    assert len(set(remvi.__all__)) == len(remvi.__all__)


def test_demo_imports_resolve():
    # the demos are not run by the suite; parse them to catch a name the
    # library no longer has
    demos = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos")
                   .glob("*.py"))
    assert demos
    missing = []
    for path in demos:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module \
                    and node.module.split(".")[0] == "remvi":
                mod = importlib.import_module(node.module)
                missing += [f"{path.name}: {node.module}.{a.name}"
                            for a in node.names if not hasattr(mod, a.name)]
    assert missing == []
