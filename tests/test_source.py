"""Checks on the package's own source that no installed linter makes."""

import ast
from pathlib import Path

import pytest

import ferrocal

MODULES = sorted(p for p in Path(ferrocal.__file__).parent.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_imported_name_is_used(path):
    # __init__.py imports to re-export; every other module imports to use
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


# the ferrocal modules each library module may import; cli, __init__ and
# __main__ sit on top and may import any
LAYERS = {"errors": set(), "model": {"errors"},
          **dict.fromkeys(("config", "simulate", "fitting", "kinetics", "levels", "sweepio"),
                          {"errors", "model"})}


@pytest.mark.parametrize("name", sorted(LAYERS))
def test_library_modules_import_only_lower_layers(name):
    # the package imports its own modules relatively: from .x import y, from . import x
    tree = ast.parse((Path(ferrocal.__file__).parent / f"{name}.py").read_text(encoding="utf-8"))
    imported = [(node.lineno, module.split(".")[0]) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level
                for module in ([node.module] if node.module else [a.name for a in node.names])]
    outside = sorted((line, module) for line, module in imported if module not in LAYERS[name])
    assert not outside, f"{name}.py imports modules above its layer: {outside}"


def open_calls(node, func=None):
    """(enclosing function, line) of each call of ``open`` or ``.open`` below ``node``."""
    calls = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and "open" in (getattr(child.func, "id", None),
                                                      getattr(child.func, "attr", None)):
            calls.append((func, child.lineno))
        calls += open_calls(child, child.name if isinstance(child, ast.FunctionDef) else func)
    return calls


def test_only_sweepio_opens_files():
    # sweepio owns the file formats: its line writer and its CSV reader each
    # open once, and no other module opens a file
    opens = sorted((path.name, func, line) for path in Path(ferrocal.__file__).parent.glob("*.py")
                   for func, line in open_calls(ast.parse(path.read_text(encoding="utf-8"))))
    assert [(name, func) for name, func, _ in opens] == [("sweepio.py", "_read_csv"),
                                                         ("sweepio.py", "_write_lines")], opens
