"""Source hygiene of the package, read with ``ast``: every import of a
module is used in it, every public top-level name is used somewhere in
``src/`` outside ``risant/__init__`` besides its own definition, or by the
acceptance suite, every parameter is read by its function, and every
defaulted parameter of a model module's public function, and every
defaulted field of a model module's dataclass that is no scenario key, is
set by one of those users.  Also:
README's common flags are the parser's, README's library example runs,
every span name the benchmark traces names a public function, and no
subcommand catches an exception itself."""

import ast
import contextlib
import dataclasses
import importlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from risant.cli import build_parser
from risant.pattern import far_field
from risant.scenario import _FIELDS, iter_leaf_paths

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "risant"
README = PACKAGE.parent.parent / "README.md"
BENCHMARK = PACKAGE.parent.parent / "BENCHMARK.json"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# the release gate and its fixtures: a name they use has a user
ACCEPTANCE = [Path(__file__).with_name(n) for n in ("test_acceptance.py", "conftest.py")]
# modules whose public functions may not carry a knob that only tests turn
MODEL_MODULES = ("element", "geometry", "pattern", "synthesis", "feedopt", "link")


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


def _defaulted_parameters(tree: ast.Module) -> dict[str, list[tuple[int | None, str]]]:
    """{public top-level function: its parameters that have a default, as
    (position, name)}; a keyword-only parameter has position None."""
    found = {}
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
            continue
        args = node.args
        positional = [*args.posonlyargs, *args.args]
        first = len(positional) - len(args.defaults)
        params = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
        params += [(None, a.arg) for a, default in zip(args.kwonlyargs, args.kw_defaults)
                   if default is not None]
        if params:
            found[node.name] = params
    return found


def _arguments_given(trees) -> dict[str, list[tuple[float, set]]]:
    """{called name: [(positional arguments, keyword names)]} of every call
    in ``trees``, by the called name or attribute; a ``*args`` counts as
    every position, a ``**kwargs`` as the keyword None."""
    given = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            given.setdefault(name, []).append(
                (math.inf if starred else len(node.args), {k.arg for k in node.keywords}))
    return given


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
    # an export from risant/__init__ is not a use: a name that only unit
    # tests reach through it is dead code
    trees = {p: _tree(p) for p in (*MODULES, *ACCEPTANCE)}
    uses = [_top_level_uses(tree) for tree in trees.values()]
    orphans = []
    for path in MODULES:
        for name in sorted(_public_definitions(trees[path])):
            if not any(_uses_outside_definition(module, name) for module in uses):
                orphans.append(f"{path.name}:{name}")
    assert not orphans, f"public names nothing in src/ or the acceptance suite uses: {orphans}"


def _scenario_built(trees) -> dict[str, set]:
    """{class: the keywords given} of every ``_build(class, section, dotted,
    **given)`` call in ``trees``: the scenario builds the class from a
    section, a ``**kwargs`` counting as the keyword None."""
    built = {}
    for tree in trees:
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_build"
                    and isinstance(node.args[0], ast.Name)):
                built.setdefault(node.args[0].id, set()).update(
                    k.arg for k in node.keywords)
    return built


def _defaulted_fields(module: str) -> dict[type, list[tuple[int, str]]]:
    """{dataclass a model module defines: its init fields that have a
    default, as (position, name)}."""
    found = {}
    for cls in vars(importlib.import_module(f"risant.{module}")).values():
        if (isinstance(cls, type) and dataclasses.is_dataclass(cls)
                and cls.__module__ == f"risant.{module}"):
            init = [f for f in dataclasses.fields(cls) if f.init]
            params = [(i, f.name) for i, f in enumerate(init)
                      if f.default is not dataclasses.MISSING
                      or f.default_factory is not dataclasses.MISSING]
            if params:
                found[cls] = params
    return found


def test_every_default_is_overridden_by_a_user():
    # a parameter or a model field that only tests set is a knob the
    # program does not have
    trees = [_tree(p) for p in (*MODULES, *ACCEPTANCE)]
    given = _arguments_given(trees)
    unset = []
    for module in MODEL_MODULES:
        for function, params in _defaulted_parameters(_tree(PACKAGE / f"{module}.py")).items():
            calls = given.get(function, [])
            unset += [f"{module}.{function}({name})" for position, name in params
                      if not any((position is not None and n_args > position)
                                 or name in keywords or None in keywords
                                 for n_args, keywords in calls)]
    # a field is a scenario key when the scenario builds its class from a
    # section that holds it, or else a call sets it
    built, leaves = _scenario_built(trees), {d.rpartition(".")[2] for d, _ in iter_leaf_paths()}
    for module in MODEL_MODULES:
        for cls, params in _defaulted_fields(module).items():
            keys = set()
            if cls.__name__ in built:
                keys = {_FIELDS.get(cls, {}).get(k, k) for k in leaves} | built[cls.__name__]
            calls = given.get(cls.__name__, [])
            unset += [f"{module}.{cls.__name__}.{name}" for position, name in params
                      if name not in keys and None not in keys
                      and not any(n_args > position or name in keywords or None in keywords
                                  for n_args, keywords in calls)]
    assert not unset, (f"defaulted parameters and fields no call in src/ or the "
                       f"acceptance suite sets: {unset}")


def test_no_command_catches_an_exception():
    # a model error reaches the user through Scenario.blame, which names the
    # keys set; a command's own except would name a list of its own
    try_nodes = (ast.Try, getattr(ast, "TryStar", ast.Try))
    commands = [node for node in _tree(PACKAGE / "cli.py").body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]
    assert len(commands) == 12
    catching = [node.name for node in commands
                if any(isinstance(n, try_nodes) for n in ast.walk(node))]
    assert catching == []


def test_readme_common_flags_are_the_parser_options():
    # a deleted flag must not linger in the docs, nor a new one go unlisted
    paragraph = README.read_text(encoding="utf-8").split("Common flags:", 1)[1]
    documented = set(re.findall(r"--[a-z][\w-]*", paragraph.split("\n\n", 1)[0]))
    options = {option for action in build_parser()._actions
               for option in action.option_strings}
    assert documented == options - {"-h", "--help", "--version"}


def test_readme_library_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        exec(compile(code, "README.md#library", "exec"), namespace)
    pat = namespace["pat"]
    assert pat.co_pol.shape == (1, namespace["m"].az_deg.size)
    assert len(printed.getvalue().split()) == 3


def test_benchmark_span_names_are_public_functions(perfbench_tracing):
    # Tracer.install(names) looks each name up in public_functions(): a
    # renamed function would fail only in a benchmark run, with a KeyError
    public = perfbench_tracing.public_functions()
    per_layer = [entry["name"].split(".") for entry in
                 json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]]
    names = set(perfbench_tracing.RECORDERS) | {
        ".".join(parts[:2]) for parts in per_layer
        if parts[0] in perfbench_tracing.TRACED_MODULES}
    assert len(names) >= 20
    assert sorted(names - set(public)) == []


def test_far_field_recorder_reads_a_far_field_result(perfbench_tracing, small_assembly):
    az, el = np.linspace(-30.0, 30.0, 61), np.array([-1.0, 0.0, 1.0])
    args = (small_assembly, np.ones(small_assembly.array.n_elements, dtype=complex), az, el)
    counts = perfbench_tracing.RECORDERS["pattern.far_field"](args, {}, far_field(*args))
    assert counts == {"directions": 183, "dir_elem": 183 * small_assembly.array.n_elements}
