"""The runtime package imports nothing outside the standard library."""

import ast
import pathlib
import sys

import fraseo


def test_package_imports_only_stdlib():
    package = pathlib.Path(fraseo.__file__).parent
    foreign = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "fraseo" and top not in sys.stdlib_module_names:
                    foreign.append("%s: %s" % (path.name, name))
    assert foreign == []


def test_package_imports_no_private_name_of_another_module():
    package = pathlib.Path(fraseo.__file__).parent
    private = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "fraseo":
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    private.append("%s: %s" % (path.name, alias.name))
    assert private == []


def test_only_features_compiles_code_from_a_string():
    package = pathlib.Path(fraseo.__file__).parent
    users = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and node.id == "exec":
                users.append(path.name)
    assert users == ["features.py"]


def test_no_module_imports_dataclasses():
    """``fraseo.features.Value`` is the package's only value-class base."""
    package = pathlib.Path(fraseo.__file__).parent
    users = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                users.append(path.name)
    assert users == []
