"""Static checks on the package's module boundaries and its public exports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import specto

SRC = Path(specto.__file__).resolve().parent


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
