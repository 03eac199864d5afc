"""Source hygiene of the package, read with ``ast``: every import of a
module is used in it, every public top-level name is used somewhere in
``src/`` besides its own definition (an export from ``risant/__init__``
counts as a use), and every parameter is read by its function.  Also:
README's common flags are the parser's."""

import ast
import re
from pathlib import Path

import pytest

from risant.cli import build_parser

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "risant"
README = PACKAGE.parent.parent / "README.md"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported_names(tree: ast.Module) -> set[str]:
    """Names bound by the module's imports (``__future__`` excluded)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _used_names(tree: ast.AST, with_imports: bool = False) -> set[str]:
    """Names and attributes read anywhere under ``tree``; ``with_imports``
    adds the names that ``from`` imports take from other modules."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif with_imports and isinstance(node, ast.ImportFrom):
            used.update(a.name for a in node.names)
    return used


def _public_definitions(tree: ast.Module) -> set[str]:
    """Public top-level functions, classes and constants of a module."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if not n.startswith("_")}


def _top_level_uses(tree: ast.Module) -> list[tuple[str | None, set[str]]]:
    """(name a top-level function or class defines, or None; names its
    node uses, ``from`` imports included) for each top-level node."""
    return [(node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None,
             _used_names(node, with_imports=True)) for node in tree.body]


def _uses_outside_definition(uses: list[tuple[str | None, set[str]]], name: str) -> bool:
    """Whether ``name`` is used in a module other than by its own top-level
    definition (a self-referencing body, such as a recursive call, does not
    count); ``uses`` is the module's :func:`_top_level_uses`."""
    return any(name in used for defines, used in uses if defines != name)


def _unread_parameters(tree: ast.Module) -> list[str]:
    """``function(parameter)`` for each parameter of a function or lambda
    that its body never reads; ``self``, ``cls`` and ``_`` are exempt."""
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                  args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", f"<lambda at line {node.lineno}>")
        unread += [f"{name}({p})" for p in params
                   if p not in read and p not in ("self", "cls", "_")]
    return unread


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _tree(path)
    unused = sorted(_imported_names(tree) - _used_names(tree))
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_every_parameter_is_read():
    unread = [f"{path.name}:{entry}" for path in MODULES
              for entry in _unread_parameters(_tree(path))]
    assert not unread, f"parameters their functions never read: {unread}"


def test_every_public_name_has_a_user():
    trees = {p: _tree(p) for p in PACKAGE.glob("*.py")}
    uses = [_top_level_uses(tree) for tree in trees.values()]
    orphans = []
    for path in MODULES:
        for name in sorted(_public_definitions(trees[path])):
            if not any(_uses_outside_definition(module, name) for module in uses):
                orphans.append(f"{path.name}:{name}")
    assert not orphans, f"public names nothing in src/ uses: {orphans}"


def test_readme_common_flags_are_the_parser_options():
    # a deleted flag must not linger in the docs, nor a new one go unlisted
    paragraph = README.read_text(encoding="utf-8").split("Common flags:", 1)[1]
    documented = set(re.findall(r"--[a-z][\w-]*", paragraph.split("\n\n", 1)[0]))
    options = {option for action in build_parser()._actions
               if action.dest != "overrides" for option in action.option_strings}
    assert documented == options - {"-h", "--help", "--version"}
