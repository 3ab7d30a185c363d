"""Import rules of the library: nothing outside the standard library, no
underscore-prefixed name of one package module imported into another, and
package exports that load their module only when first used."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


# -- on-demand exports -------------------------------------------------------

EXPORTS = [name for name in diracdunkl.__all__ if name != "__version__"]


@pytest.mark.parametrize("name", EXPORTS)
def test_export_resolves_to_its_home_module(name):
    home = importlib.import_module(f"diracdunkl.{diracdunkl._HOME[name]}")
    value = getattr(diracdunkl, name)
    assert value is getattr(home, name)
    assert value.__module__ == home.__name__


def test_star_import_binds_every_export():
    namespace = {}
    exec("from diracdunkl import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(diracdunkl.__all__)
    for name, value in namespace.items():
        assert value is getattr(diracdunkl, name)


@pytest.mark.parametrize("name", [
    "ScalarPoly", "divide_by_coordinate", "dunkl", "euler", "pauli", "reflect",
])
def test_reference_representation_is_not_exported(name):
    # The scalar reference representation and its primitives stay in `poly`
    # for the tests and the benchmark tracer, outside the package's API.
    from diracdunkl import poly

    assert hasattr(poly, name)
    assert name not in diracdunkl.__all__
    assert not hasattr(diracdunkl, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        diracdunkl.no_such_name
    assert not hasattr(diracdunkl, "no_such_name")


def test_bare_import_loads_no_submodule():
    # In a fresh process: neither the import nor dir() loads a submodule,
    # and dir() lists every export before any is resolved.
    code = (
        "import sys, diracdunkl; names = dir(diracdunkl); "
        "print(sorted(m for m in sys.modules if m.startswith('diracdunkl.'))); "
        "print(sorted(set(diracdunkl.__all__) - set(names)))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "[]"]


def test_suites_read_the_package_mutation_table():
    # `cli` offers the `--mutate` choices without importing `suites`; both
    # read the one table.
    from diracdunkl import suites

    assert suites.MUTATIONS is diracdunkl.MUTATIONS
