"""Static checks on the package's module boundaries and its public exports."""

import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

import specto
import specto.rnn

SRC = Path(specto.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]


def _specto_modules():
    yield "specto"
    for info in pkgutil.walk_packages([str(SRC)], prefix="specto."):
        yield info.name


def test_no_private_names_imported_across_modules():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").split(".")[0] == "specto":
                continue
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.startswith("__"):
                    offenders.append(f"{path.relative_to(SRC)}:{node.lineno} imports {alias.name}")
    assert not offenders, "private names imported across modules:\n" + "\n".join(offenders)


def test_every_exported_name_resolves():
    missing = []
    for name in _specto_modules():
        module = importlib.import_module(name)
        for export in getattr(module, "__all__", ()):
            if not hasattr(module, export):
                missing.append(f"{name}.{export}")
    assert not missing, f"__all__ names that do not resolve: {missing}"


def test_no_unused_imports():
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":  # package modules import to re-export
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.relative_to(SRC)}:{line} imports {name}"
            for name, line in imported.items()
            if name not in used
        ]
    assert not unused, "imported names never used:\n" + "\n".join(unused)


def _public_definitions():
    """Public top-level functions and classes of every specto module, and public methods of those classes."""
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield path, node, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield path, item, True


def _references(tree, exported=()):
    """Names and attributes a tree uses, and the names it imports other than re-exports."""
    names, attrs = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.append(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [a.name.split(".")[-1] for a in node.names if a.name not in exported]
    return names, attrs


def test_every_public_name_is_used():
    # a method or property is reached only through an attribute; a top-level
    # name through a name, an attribute (module.name) or an import that is not
    # the re-export of a package's __all__
    names, attrs = Counter(), Counter()
    for root in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / root).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            exported = {
                elt.value
                for node in tree.body
                if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                for elt in node.value.elts
            }
            found_names, found_attrs = _references(tree, exported)
            names.update(found_names)
            attrs.update(found_attrs)
    unused = []
    for path, node, is_method in _public_definitions():
        inner_names, inner_attrs = _references(node)
        outside = attrs[node.name] - inner_attrs.count(node.name)
        if not is_method:
            outside += names[node.name] - inner_names.count(node.name)
        if outside == 0:
            unused.append(f"{path.relative_to(SRC)}:{node.lineno} {node.name}")
    assert not unused, "public names nothing references:\n" + "\n".join(unused)


def _star_imported(package):
    """The modules a package's ``__init__`` star-imports, in import order."""
    tree = ast.parse(Path(package.__file__).read_text(encoding="utf-8"))
    return [
        importlib.import_module(f".{node.module}", package.__name__)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and [a.name for a in node.names] == ["*"]
    ]


PACKAGES = [specto, specto.rnn]


@pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
def test_every_star_imported_module_declares_all(package):
    # without one, a star import would export numpy as np and every name the module imports
    modules = _star_imported(package)
    assert modules
    assert [m.__name__ for m in modules if "__all__" not in vars(m)] == []


def test_no_name_is_exported_by_two_modules():
    owners = Counter(name for package in PACKAGES for m in _star_imported(package) for name in m.__all__)
    assert [name for name, count in owners.items() if count > 1] == []


@pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
def test_package_exports_exactly_its_modules_exports(package):
    expected = [name for m in _star_imported(package) for name in m.__all__]
    if package is specto:
        expected.append("__version__")
    assert sorted(package.__all__) == sorted(expected)
    assert len(set(package.__all__)) == len(package.__all__)
