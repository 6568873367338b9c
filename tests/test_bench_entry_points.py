"""Every name the benchmark reaches in the package still resolves.

bench/layertrace.py wraps each (module, attribute) of its NAMED table, plus
``structures.bundle``, ``factors.PrimitiveResult.__call__`` and the
Expression operators in ARITH_OPS; bench/worker.py imports its entry points
inside each case runner.  A traced run needs scipy, so without this test a
deleted name would show only when the benchmark runs.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import cinfstruct.cli  # noqa: F401  (loads every module the tracer reaches)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", BENCH / "layertrace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERTRACE = _layertrace()
TRACED = sorted({pair for pairs in LAYERTRACE.NAMED.values() for pair in pairs})


def _worker_imports():
    tree = ast.parse((BENCH / "worker.py").read_text())
    return sorted(
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cinfstruct")
        for alias in node.names
    )


@pytest.mark.parametrize("modname, attr", TRACED)
def test_every_traced_name_resolves(modname, attr):
    assert callable(getattr(getattr(cinfstruct, modname), attr))


def test_the_patched_hooks_resolve():
    assert callable(cinfstruct.structures.bundle)
    # Every class has a __call__ through its metaclass: look in its own dict.
    assert callable(vars(cinfstruct.factors.PrimitiveResult)["__call__"])
    for op in LAYERTRACE.ARITH_OPS:
        assert callable(getattr(cinfstruct.kernel.Expression, op))


def test_every_worker_import_resolves():
    imports = _worker_imports()
    assert ("cinfstruct.linalg", "det") in imports
    for modname, name in imports:
        module = importlib.import_module(modname)
        if not hasattr(module, name):
            importlib.import_module("%s.%s" % (modname, name))
