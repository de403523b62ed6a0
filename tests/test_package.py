"""Static checks on the package: no module, and no test module, imports a name
it never uses, and `hotspots.__all__` is sorted and names only what the
package defines."""

import ast
import pathlib

import hotspots

SRC = pathlib.Path(hotspots.__file__).resolve().parent
TESTS = pathlib.Path(__file__).resolve().parent


def _unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each name an import binds and no expression reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:  # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports names only to re-export them
    unused = {path.name: _unused_imports(ast.parse(path.read_text()))
              for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    assert len(unused) >= 10
    assert {name: found for name, found in unused.items() if found} == {}


def test_no_test_module_imports_a_name_it_never_uses():
    unused = {path.name: _unused_imports(ast.parse(path.read_text()))
              for path in sorted(TESTS.glob("*.py"))}
    assert len(unused) >= 12
    assert {name: found for name, found in unused.items() if found} == {}


def test_all_is_sorted_and_resolves():
    assert hotspots.__all__ == sorted(hotspots.__all__)
    assert [name for name in hotspots.__all__ if not hasattr(hotspots, name)] == []
