"""The runtime package imports nothing outside the standard library."""

import ast
import pathlib
import sys

import fraseo
from fraseo.features import IdentityEnum


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


def test_no_function_reads_an_enum_member_through_its_class():
    """A function body reads ``IdentityEnum`` members through module names.

    On CPython 3.10 and 3.11, ``LexicalCategory.verb`` in a function body
    calls ``EnumType.__getattr__`` on every run, so each module binds the
    members it reads at import (``fraseo.features.IdentityEnum``).
    """
    import fraseo.planner  # noqa: F401 - defines SentenceMode

    members = {cls.__name__: set(cls.__members__) for cls in IdentityEnum.__subclasses__()}
    assert {"LexicalCategory", "SentenceMode"} <= set(members)
    package = pathlib.Path(fraseo.__file__).parent
    reads = []
    for path in sorted(package.glob("*.py")):
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(function, ast.Lambda):
                body = [function.body]
            elif isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = function.body
            else:
                continue
            for node in (inner for statement in body for inner in ast.walk(statement)):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.attr in members.get(node.value.id, ())
                ):
                    reads.append(
                        "%s:%d: %s.%s" % (path.name, node.lineno, node.value.id, node.attr)
                    )
    assert reads == []
