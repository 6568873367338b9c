"""The package imports only what it declares and uses, and the CLI loads no
heavy numeric stack it does not use."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cinfstruct

PACKAGE = Path(cinfstruct.__file__).resolve().parent
PYPROJECT = PACKAGE.parent.parent / "pyproject.toml"


def test_cli_import_loads_neither_scipy_nor_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE.parent), env.get("PYTHONPATH")) if p
    )
    probe = (
        "import sys, cinfstruct.cli; "
        "print(' '.join(m for m in ('scipy', 'numpy') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == ""


def _third_party_imports() -> set:
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"cinfstruct"}


def test_third_party_imports_match_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    if not PYPROJECT.is_file():
        pytest.skip("pyproject.toml is not next to the source tree")
    with PYPROJECT.open("rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", d).group(0) for d in declared}
    assert names == {"mpmath"}
    assert _third_party_imports() == names


def _unused_imports() -> list:
    """module.name for each module-level import the module never reads,
    leaving out __init__.py, whose imports are the package's exports."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {
            n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used.update(ast.literal_eval(node.value))
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append("%s.%s" % (path.stem, name))
    return unused


def test_no_module_imports_a_name_it_does_not_use():
    assert _unused_imports() == []
