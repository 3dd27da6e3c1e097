import ast
import dataclasses
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


ROOT = Path(__file__).resolve().parents[1]
# every public name must reach a recipe, a benchmark call or an acceptance criterion
USERS = [
    *(p for p in (ROOT / "src" / "shiftmix").glob("*.py") if p.name != "__init__.py"),
    *(ROOT / "perfbench").glob("*.py"),
    ROOT / "tests" / "test_acceptance.py",
]


def test_every_public_name_has_a_user():
    used = set()
    for path in USERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and path.parent.name == "perfbench":
                used.add(node.value)  # the benchmark names the layers it traces
    unused = [
        f"{name}.{n}"
        for name in MODULES
        for n in getattr(importlib.import_module(name), "__all__", ())
        if n not in used
    ]
    assert unused == []


def test_every_result_field_has_a_reader():
    # matches by name only: a field whose name is read on some other object
    # (alpha, kind, samples, intercept, mean, tail_bound) slips past this check
    read = set()
    for path in USERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and path.parent.name == "perfbench":
                read.add(node.value)
    unread = [
        f"{cls.__name__}.{f.name}"
        for name in MODULES
        for cls in vars(importlib.import_module(name)).values()
        if isinstance(cls, type) and dataclasses.is_dataclass(cls) and cls.__module__ == name
        for f in dataclasses.fields(cls)
        if f.name not in read
    ]
    assert unread == []
