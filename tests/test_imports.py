"""The modules that read, schedule and price layers for `svopt model` import no numpy."""

import ast
import pathlib

import pytest

import svopt


@pytest.mark.parametrize("name", ["perfmodel", "scheduler", "formats"])
def test_model_modules_import_no_numpy(name):
    tree = ast.parse((pathlib.Path(svopt.__file__).parent / f"{name}.py").read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 0]
    assert [m for m in modules if m.split(".")[0] == "numpy"] == []
