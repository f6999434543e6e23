"""Every function, class and method defined in `src/pathent` has a caller in
`src/pathent`, is exported in `pathent.__all__`, or is an oracle that only
the tests call. A helper only tests use belongs in the tests."""

import ast
from pathlib import Path

import pathent

SRC = Path(pathent.__file__).parent

# Independent closed forms that the tests compare the pipelines against.
ORACLES = {"ideal_single_photon_chsh", "exact_gains"}


def parse_sources():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def defined_names(trees):
    """(module, name) of every non-dunder def and class, nested ones included."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {
        (module, node.name)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, kinds) and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def referenced_names(trees):
    """Every name loaded or attribute read anywhere in the sources."""
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_definition_is_used_exported_or_an_oracle():
    trees = parse_sources()
    used = referenced_names(trees) | set(pathent.__all__) | ORACLES
    dead = sorted(f"{module}:{name}" for module, name in defined_names(trees) if name not in used)
    assert dead == []


def test_oracles_exist():
    names = {name for _, name in defined_names(parse_sources())}
    assert ORACLES <= names
