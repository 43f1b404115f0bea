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
