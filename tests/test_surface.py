"""The package's public surface resolves, no module imports a name it
does not use, and no source file under src/ uses `assert`.  Standard
library only: `ast` reads the sources, `importlib` loads the modules."""

import ast
import importlib
from pathlib import Path

import pytest

import mcalaudit

PACKAGE = Path(mcalaudit.__file__).resolve().parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _tree(stem: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{stem}.py").read_text())


def _from_imports(tree: ast.Module) -> list[str]:
    """Names bound by `from ... import name [as alias]`, except __future__."""
    return [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    ]


@pytest.mark.parametrize("stem", MODULES)
def test_every_name_in_all_resolves(stem):
    module = importlib.import_module(f"mcalaudit.{stem}")
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"mcalaudit.{stem}.__all__ names missing attributes: {missing}"


def test_every_package_import_resolves():
    names = _from_imports(_tree("__init__"))
    assert names
    missing = [name for name in names if not hasattr(mcalaudit, name)]
    assert not missing, f"mcalaudit does not provide {missing}"


@pytest.mark.parametrize("stem", MODULES)
def test_every_imported_name_is_used(stem):
    tree = _tree(stem)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    module = importlib.import_module(f"mcalaudit.{stem}")
    used.update(getattr(module, "__all__", ()))  # a re-export is a use
    unused = [name for name in _from_imports(tree) if name not in used]
    assert not unused, f"mcalaudit.{stem} imports unused names: {unused}"


SOURCES = sorted((Path(__file__).resolve().parent.parent / "src").rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # Checks must survive `python -O`, which strips assert statements.
    lines = [node.lineno for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} uses assert at lines {lines}; raise an exception instead"
