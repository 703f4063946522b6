"""Modules of the package use one another's public names only: a name with
a leading underscore is private to the module that defines it, so
`from .mod import _name` inside the package fails here."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fsdim"


def _private_imports(path: Path) -> list:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("fsdim")):
            found += [f"{path.stem}: from {'.' * node.level}{node.module or ''} import {a.name}"
                      for a in node.names if a.name.startswith("_")]
    return found


def test_no_private_name_is_imported_across_modules():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    assert [site for path in paths for site in _private_imports(path)] == []


def test_the_guard_sees_a_private_import(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from .precision import _stream, kdelta\nfrom fsdim.digits import _DIGIT_CHARS\n")
    assert _private_imports(path) == ["mod: from .precision import _stream",
                                      "mod: from fsdim.digits import _DIGIT_CHARS"]
