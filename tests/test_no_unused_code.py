"""Every top-level function and class of `multiterm`, and every method of
its classes, has a caller.

A definition counts as used when its name appears in some module of
`src/multiterm` or `perfbench` other than as its own definition: as a name,
as an attribute of a name bound to a `multiterm` module (``codec.simulate``,
``multiterm.cli.main``), or as a string (the benchmark tracer patches methods
and functions by their names).  An attribute of any other receiver does not
count: ``rng.uniform`` is no use of a `multiterm` function ``uniform``.
A method counts as used when its name appears in those modules as an
attribute of any receiver, as a name or as a string; dunder methods are
called by the language.  That is the method test's blind spot: a method
whose name is also an attribute of another object counts as used, as
``ConditionalPmf.row`` and ``ConditionalPmf.prob`` did while only tests
called them (``_CellDraws.row`` and ``JointPmf.prob`` share their names).
Tests do not count; the allow-list holds the region queries that tests use
to certify results, and no method.  Each name on it must still be defined,
so that the list cannot outlive what it excuses.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "multiterm")
CALLERS = (PACKAGE, os.path.join(ROOT, "perfbench"))
ALLOWED = {"find_aux_rates", "member"}
SUBMODULES = {name[:-3] for name in os.listdir(PACKAGE) if name.endswith(".py")}


def _modules():
    for directory in CALLERS:
        for name in sorted(os.listdir(directory)):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                with open(path) as handle:
                    yield path, ast.parse(handle.read(), path)


def _module_names(tree) -> set:
    """The names that `tree` binds to `multiterm` or one of its modules."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "multiterm":
                    bound.add(alias.asname or "multiterm")
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "multiterm"):
            # `from . import gfq` inside the package, `from multiterm import codec` outside
            bound |= {alias.asname or alias.name for alias in node.names
                      if alias.name in SUBMODULES}
    return bound


def _is_module(node, modules) -> bool:
    """Whether `node` is a name, or a dotted name, of a `multiterm` module."""
    if isinstance(node, ast.Name):
        return node.id in modules
    return (isinstance(node, ast.Attribute) and node.attr in SUBMODULES
            and _is_module(node.value, modules))


def _references(tree) -> set:
    modules = _module_names(tree)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and _is_module(node.value, modules):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_top_level_definition_is_referenced():
    defined = []
    used = set()
    for path, tree in _modules():
        used |= _references(tree)
        if os.path.dirname(path) == PACKAGE:
            defined += [(os.path.basename(path), node.name) for node in tree.body
                        if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    unused = [(module, name) for module, name in defined
              if name not in used and name not in ALLOWED]
    assert unused == []
    assert ALLOWED - {name for _, name in defined} == set()


def test_every_method_is_referenced():
    defined = []
    used = set()
    for path, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
        if os.path.dirname(path) == PACKAGE:
            defined += [(os.path.basename(path), cls.name, node.name)
                        for cls in tree.body if isinstance(cls, ast.ClassDef)
                        for node in cls.body if isinstance(node, ast.FunctionDef)
                        and not (node.name.startswith("__") and node.name.endswith("__"))]
    assert [method for method in defined if method[2] not in used] == []
