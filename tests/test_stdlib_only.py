"""Import rules of the library: nothing outside the standard library, and no
underscore-prefixed name of one package module imported into another."""

import ast
import sys
from pathlib import Path

import diracdunkl

PACKAGE = Path(diracdunkl.__file__).parent


def test_library_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top == "diracdunkl" or top in sys.stdlib_module_names, (
                    f"{path.name}:{node.lineno} imports {name}"
                )


def test_no_module_imports_a_private_name_of_another():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "diracdunkl":
                continue
            for alias in node.names:
                assert not alias.name.startswith("_"), (
                    f"{path.name}:{node.lineno} imports {alias.name} from {node.module}"
                )
