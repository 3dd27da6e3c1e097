import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import shiftmix

MODULES = [m.name for m in pkgutil.iter_modules(shiftmix.__path__, "shiftmix.")]


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse(Path(shiftmix.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"shiftmix.{node.module}")
        for alias in node.names:
            assert getattr(shiftmix, alias.asname or alias.name) is getattr(module, alias.name)
