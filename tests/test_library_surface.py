"""Every public name in src/refleq is reached by the library or the benchmark,
every private name is referenced by the library, and every name a module
imports is used in that module.

A public top-level function or class, or a public method, must either be
referenced somewhere in src/refleq/ outside its own definition, or be a
target of perfbench/tracer.py (loaded by path and left as it is).  cli.py is
checked too: its parser binds every command function by name, and main is
called under its __main__ guard.  Dunders are not checked.

The guard matches names, not bindings: a reference is any identifier, attribute
or imported name in the code (docstrings and comments do not count) that
spells the same name.  So a name shared by two definitions, such as `entry`,
keeps both alive, and a dead method can hide behind a live one.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "refleq"
TRACER = ROOT / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _public(name):
    return not name.startswith("_")


def _definitions(tree):
    """(qualified name, name, node) of the public top-level functions and
    classes and the public methods of top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and _public(item.name):
                    yield f"{node.name}.{item.name}", item.name, item


def _references(tree):
    """(name, line) of every identifier the code spells."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno


def test_every_public_name_is_reached():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    refs = {module: list(_references(tree)) for module, tree in trees.items()}
    targets = {(module, attr) for module, attr, _span, _group in _load_tracer().TARGETS}
    unreached = []
    for module, tree in trees.items():
        for qualname, name, node in _definitions(tree):
            if (module, qualname) in targets:
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(
                ref == name and not (other == module and line in own)
                for other, module_refs in refs.items()
                for ref, line in module_refs
            ):
                unreached.append(f"{module}.{qualname}")
    assert not unreached, f"reached by no library code and no benchmark target: {unreached}"


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_definitions(tree):
    """(name, node) of the private top-level functions, classes and assigned
    names; dunders are not checked."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [leaf.id for target in targets for leaf in ast.walk(target) if isinstance(leaf, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names if _private(name))


def test_every_private_name_is_referenced():
    # the public-name guard skips private names, so a helper left behind by
    # a refactor would go unseen without this one; cli.py is checked too
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    refs = {module: list(_references(tree)) for module, tree in trees.items()}
    unreferenced = []
    for module, tree in trees.items():
        for name, node in _private_definitions(tree):
            own = range(node.lineno, node.end_lineno + 1)
            if not any(
                ref == name and not (other == module and line in own)
                for other, module_refs in refs.items()
                for ref, line in module_refs
            ):
                unreferenced.append(f"{module}.{name}")
    assert not unreferenced, f"referenced nowhere in src/refleq outside their definition: {unreferenced}"


def _imported_names(tree):
    """(bound name, line) of every import in the module, __future__ aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_every_import_is_used():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}:{line} {name}" for name, line in _imported_names(tree) if name not in used]
    assert not unused, f"imported but never used: {unused}"



def test_no_module_imports_a_private_name_of_another():
    # a private name is its module's own layout: field alone owns the
    # packed monomial format, which others read through its public layout
    # constants, and matrix alone knows the clearing
    imported = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            # a relative import, or an absolute one of refleq
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "refleq"):
                imported += [f"{path.stem}:{node.lineno} {a.name}" for a in node.names if _private(a.name)]
    assert not imported, f"private names imported from another refleq module: {imported}"
