"""Every top-level function and class of `multiterm` has a caller.

A definition counts as used when its name appears in some module of
`src/multiterm` or `perfbench` other than as its own definition: as a name,
an attribute or a string (the benchmark tracer patches methods and functions
by their names).  Tests do not count; the allow-list holds the region
queries that tests use to certify results.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "multiterm")
CALLERS = (PACKAGE, os.path.join(ROOT, "perfbench"))
ALLOWED = {"find_aux_rates", "member"}


def _modules():
    for directory in CALLERS:
        for name in sorted(os.listdir(directory)):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                with open(path) as handle:
                    yield path, ast.parse(handle.read(), path)


def _references(tree) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
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
