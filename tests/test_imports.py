"""Import hygiene: every module-level import in a `treecolor` module is used,
every private name one defines is read somewhere in the package, and the
package exports exactly what `__init__` imports.

A name imported but never referenced is left over from code that moved or
was deleted.  `__init__` is skipped there, because it imports names to
re-export them; its `__all__` is checked against those imports instead.
"""

import ast
import pathlib
import subprocess
import sys

import pytest

import treecolor

PACKAGE = pathlib.Path(treecolor.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [(alias.asname or alias.name).split(".")[0] for alias in node.names]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_level_imports_are_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = [name for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                for name in _bound_names(node)]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for name in imported if name not in used] == []


def test_cli_import_loads_no_process_pool():
    """Only `sweep` runs a worker pool, so only it imports one."""
    probe = ("import sys, treecolor.cli; "
             "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _private_definitions(tree: ast.Module) -> set[str]:
    """The private functions, methods and classes defined in `tree`, the
    methods of its private classes and its module-level `_UPPER` constants."""
    assigns = [node for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))]
    names = {t.id for node in assigns for t in ast.walk(node)
             if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)
             and _is_private(t.id) and t.id.isupper()}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _is_private(node.name):
            names.add(node.name)
            if isinstance(node, ast.ClassDef):
                names |= {f.name for f in node.body if isinstance(f, ast.FunctionDef)
                          and not f.name.endswith("__")}
    return names


def _references(tree: ast.Module) -> set[str]:
    """Every name `tree` reads, as a variable or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_private_definitions_are_referenced(path):
    """A private name that nothing in the package reads is dead code."""
    used = set().union(*(_references(ast.parse(p.read_text(encoding="utf-8")))
                         for p in PACKAGE.glob("*.py")))
    defined = _private_definitions(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(defined - used) == []


def test_all_is_what_init_imports():
    """A public name removed from a module cannot linger in `__all__`."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = {name for node in tree.body if isinstance(node, ast.ImportFrom)
                for name in _bound_names(node)}
    assert sorted(treecolor.__all__) == sorted(imported | {"__version__"})
    for name in treecolor.__all__:
        assert hasattr(treecolor, name), name

