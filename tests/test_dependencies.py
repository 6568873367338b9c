"""The package imports only what it declares and uses, and the CLI loads no
heavy numeric stack it does not use and builds its parser at the first
command, not at import."""

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


def _fresh_python(probe: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE.parent), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_cli_import_loads_neither_scipy_nor_numpy():
    probe = (
        "import sys, cinfstruct.cli; "
        "print(' '.join(m for m in ('scipy', 'numpy') if m in sys.modules))"
    )
    assert _fresh_python(probe) == ""


def test_the_cli_builds_its_parser_at_the_first_command_and_reuses_it():
    scenario = Path(__file__).resolve().parent.parent / "scenarios" / "example31.json"
    probe = "\n".join([
        "import contextlib, io",
        "import cinfstruct.cli as c",
        "at_import = c._build_parser.cache_info().currsize",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    for _ in range(3):",
        "        c.main(['check', %r, 'independence'])" % str(scenario),
        "info = c._build_parser.cache_info()",
        "print(at_import, info.misses, info.hits)",
    ])
    assert _fresh_python(probe) == "0 1 2"


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


def _unused_imports(paths) -> list:
    """module.name for each module-level import the module never reads,
    leaving out __init__.py, whose imports are the package's exports."""
    unused = []
    for path in sorted(paths):
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
    assert _unused_imports(PACKAGE.glob("*.py")) == []
    assert _unused_imports(Path(__file__).resolve().parent.glob("*.py")) == []
