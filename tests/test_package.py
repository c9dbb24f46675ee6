import ast
import dataclasses
import importlib
import inspect
import os
import pathlib
import re
import subprocess
import sys

import remvi

SRC = pathlib.Path(remvi.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parents[1]


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
    demos = sorted((ROOT / "demos").glob("*.py"))
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


def _resolves(name, modules):
    """Whether a dotted name from the README names something in remvi: its
    head a submodule or a name one of them defines, each further part an
    attribute, or as the last part a dataclass field or an attribute the
    class's source assigns to ``self``."""
    head, *rest = name.removeprefix("remvi.").split(".")
    owners = ([m for m in modules if m.__name__ == f"remvi.{head}"]
              or [getattr(m, head) for m in modules if hasattr(m, head)])
    if not owners:
        return False
    obj = owners[0]
    for n, part in enumerate(rest, 1):
        if hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        if n < len(rest) or not inspect.isclass(obj):
            return False
        fields = ({f.name for f in dataclasses.fields(obj)}
                  if dataclasses.is_dataclass(obj) else set())
        return part in fields or re.search(
            rf"\bself\.{part}\s*=", inspect.getsource(obj)) is not None
    return True


def test_readme_code_names_resolve():
    # every backticked dotted name in the README (bar numpy, scipy and the
    # benchmark's file and metric names) is a module, class, function,
    # method or attribute the package has
    modules = [remvi] + [importlib.import_module(f"remvi.{p.stem}")
                         for p in sorted(SRC.glob("*.py"))
                         if p.stem != "__init__"]
    names = re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`",
                       (ROOT / "README.md").read_text())
    names = [n for n in names if not n.startswith(
        ("np.", "scipy.", "BENCHMARK.json", "iter_us."))]
    assert len(names) >= 10
    missing = sorted({n for n in names if not _resolves(n, modules)})
    assert missing == []


def test_import_leaves_scipy_solvers_unloaded():
    # scipy.optimize, scipy.sparse.linalg and scipy.io (about 28 MB of RSS)
    # serve only the LAD reference solve and instance files, which import
    # them on first use; the reference-solve and save/load tests run those
    # paths
    code = ("import sys, remvi; print(' '.join(m for m in ('scipy.optimize', "
            "'scipy.sparse.linalg', 'scipy.io') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True, cwd=SRC.parent,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert out.stdout.split() == []
