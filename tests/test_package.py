"""Static checks on the package: no module, and no test module, imports a name
it never uses, no module defines a private name the package never reads, the
package imports nothing beyond the standard library and numpy, only
`montecarlo` imports numpy and no module imports `montecarlo` when it loads,
no module imports `dataclasses`, the tests' exact-sign reference imports
nothing from the package, a cold `import hotspots.cli` loads none of the
modules it defers, and `hotspots.__all__` is sorted and names only what the
package defines."""

import ast
import os
import pathlib
import subprocess
import sys

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


def _private_definitions(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each module-level def, class or assignment of a
    private name; dunder names are for the interpreter and tools."""
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [(node.lineno, target.id) for target in targets
                        if isinstance(target, ast.Name)]
    return [(line, name) for line, name in defined
            if name.startswith("_") and not name.startswith("__")]


def _names_read(tree: ast.Module) -> set[str]:
    """Names an expression reads, as a bare name, an attribute or an import."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_every_private_module_name_is_read():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    read = set().union(*map(_names_read, trees.values()))
    defined = {name: _private_definitions(tree) for name, tree in trees.items()}
    assert sum(map(len, defined.values())) >= 20
    unread = {module: [(line, name) for line, name in found if name not in read]
              for module, found in defined.items()}
    assert {module: found for module, found in unread.items() if found} == {}


def _imports(nodes) -> list[tuple[int, str]]:
    """(line, module) of each import among nodes.  A relative import is named
    inside the package, and so is each name that `from . import` or
    `from hotspots import` binds: `from . import x` and `from .x import f`
    both give `hotspots.x`."""
    found = []
    for node in nodes:
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module if node.level == 0 else ".".join(
                filter(None, ["hotspots", node.module]))
            if module == "hotspots":
                found += [(node.lineno, f"{module}.{alias.name}") for alias in node.names]
            else:
                found.append((node.lineno, module))
    return found


def _module_level(tree: ast.Module):
    """The nodes that run when the module loads: all but function bodies."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield node
            todo += ast.iter_child_nodes(node)


def _foreign_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, module) of each import, at any depth, of a module that is
    neither in the standard library, nor numpy, nor the package itself."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "hotspots"}
    return [(line, name) for line, name in _imports(ast.walk(tree))
            if name.split(".")[0] not in allowed]


def test_the_package_imports_only_the_stdlib_and_numpy():
    # a heavy runtime dependency (scipy cost 0.2 s of every cold start)
    # must not come back, not even as an import inside a function
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    found = {name: _foreign_imports(ast.parse(text)) for name, text in sources.items()}
    assert len(found) >= 10
    assert {name: f for name, f in found.items() if f} == {}
    mutated = sources["montecarlo.py"] + "\n\ndef _f():\n    import scipy.special\n"
    line = mutated.count("\n")
    assert _foreign_imports(ast.parse(mutated)) == [(line, "scipy.special")]
    assert _foreign_imports(ast.parse("import scipy")) == [(1, "scipy")]


def _eager_montecarlo_imports(tree: ast.Module) -> list[int]:
    """Lines of each import of `hotspots.montecarlo` that runs when the module
    loads."""
    return [line for line, name in _imports(_module_level(tree))
            if name == "hotspots.montecarlo"]


def test_numpy_loads_only_with_montecarlo():
    # numpy is most of a cold start, and only the Monte Carlo layer needs it:
    # every other command must run without loading it
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    trees = {name: ast.parse(text) for name, text in sources.items()}
    numpy = {name for name, tree in trees.items()
             if any(module.split(".")[0] == "numpy" for _, module in _imports(ast.walk(tree)))}
    assert numpy == {"montecarlo.py"}
    eager = {name: _eager_montecarlo_imports(tree) for name, tree in trees.items()}
    assert {name: lines for name, lines in eager.items() if lines} == {}
    # the import inside verify_vbound is seen, and is not at module level
    assert ("hotspots.montecarlo" in
            {module for _, module in _imports(ast.walk(trees["cli.py"]))})
    mutated = sources["cli.py"] + "\nfrom .montecarlo import SimConfig\n"
    assert _eager_montecarlo_imports(ast.parse(mutated)) == [mutated.count("\n")]
    assert _eager_montecarlo_imports(ast.parse("from . import montecarlo")) == [1]


def _dataclasses_imports(tree: ast.Module) -> list[int]:
    """Lines of each import, at any depth, of `dataclasses`."""
    return [line for line, name in _imports(ast.walk(tree))
            if name.split(".")[0] == "dataclasses"]


def test_no_module_imports_dataclasses():
    # dataclasses loads inspect, ast, dis and tokenize: a quarter of the CLI's
    # import, so the records are named tuples
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    found = {name: _dataclasses_imports(ast.parse(text)) for name, text in sources.items()}
    assert len(found) >= 10
    assert {name: lines for name, lines in found.items() if lines} == {}
    mutated = sources["zeros.py"] + "\n\ndef _f():\n    from dataclasses import replace\n"
    assert _dataclasses_imports(ast.parse(mutated)) == [mutated.count("\n")]
    assert _dataclasses_imports(ast.parse("import dataclasses as dc")) == [1]


def _package_imports(tree: ast.Module) -> list[int]:
    """Lines of each import, at any depth, of the package or a module in it."""
    return [line for line, name in _imports(ast.walk(tree))
            if name.split(".")[0] == "hotspots"]


def test_the_exact_sign_reference_imports_nothing_from_the_package():
    # criterion 8 re-proves the package's signs with it: as for
    # perfbench/oracles.py, a check that shared the producer's code would
    # share its faults
    source = (TESTS / "exact_sign_reference.py").read_text()
    assert "def _exact_sign(" in source
    assert _package_imports(ast.parse(source)) == []
    mutated = source + "\n\ndef _f():\n    from hotspots.zeros import RootFamily\n"
    assert _package_imports(ast.parse(mutated)) == [mutated.count("\n")]
    assert _package_imports(ast.parse("import hotspots.specialfun as sf")) == [1]


def test_cold_cli_import_defers_heavy_modules():
    # every command pays for this import before it starts; a module the bare
    # interpreter has already loaded is not counted
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC.parent),
                                                       os.environ.get("PYTHONPATH")]))}
    deferred = ["dataclasses", "inspect", "csv", "hashlib", "json", "numpy"]
    code = ("import sys; before = set(sys.modules); import hotspots.cli; "
            f"print(*[m for m in {deferred!r} if m in sys.modules and m not in before])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.split() == []


def test_all_is_sorted_and_resolves():
    assert hotspots.__all__ == sorted(hotspots.__all__)
    assert [name for name in hotspots.__all__ if not hasattr(hotspots, name)] == []
