"""No leftovers in src/otl after a removal: each module loads every name it
imports, and every module-level private name is loaded somewhere in the
package.  Read from the syntax trees, so nothing is imported."""

import ast

from conftest import ROOT

SOURCES = {path.name: ast.parse(path.read_text("utf-8")) for path in sorted((ROOT / "src" / "otl").glob("*.py"))}


def loaded(tree: ast.AST) -> set[str]:
    """The names a tree reads: as a name, or as an attribute of something."""
    return {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def test_every_imported_name_is_loaded_in_its_module():
    unused = []
    for name, tree in SOURCES.items():
        reads = loaded(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
                unused += [f"{name}: {alias.name}" for alias in node.names
                           if (alias.asname or alias.name.split(".")[0]) not in reads]
    assert unused == []


def defined(statement: ast.stmt) -> list[str]:
    """The names a module-level statement binds: a def, a class, or the
    targets of an assignment or a for loop."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return [statement.name]
    targets = getattr(statement, "targets", None) or [getattr(statement, "target", None)]
    return [node.id for target in targets if target for node in ast.walk(target) if isinstance(node, ast.Name)]


def test_every_private_module_level_name_is_loaded_in_the_package():
    reads = set().union(*map(loaded, SOURCES.values()))
    unused = [f"{name}: {ident}" for name, tree in SOURCES.items() for statement in tree.body
              for ident in defined(statement)
              if ident.startswith("_") and not ident.endswith("__") and ident not in reads]
    assert unused == []
