"""Modules of the package use one another's public names only: a name with
a leading underscore is private to the module that defines it, so
`from .mod import _name` inside the package fails here. And only `digits`
(and the package's `__init__`) names the kinds of digit stream: every other
module reads a `DigitStream` through its methods, such as `available`."""

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


STREAM_KINDS = {"FileDigitStream", "FractionStream", "ChampernowneStream"}


def _stream_kind_imports(path: Path) -> list:
    return [f"{path.stem}: {a.name}"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ImportFrom)
            for a in node.names if a.name in STREAM_KINDS]


def test_no_private_name_is_imported_across_modules():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    assert [site for path in paths for site in _private_imports(path)] == []


def test_the_guard_sees_a_private_import(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from .precision import _stream, kdelta\nfrom fsdim.digits import _DIGIT_CHARS\n")
    assert _private_imports(path) == ["mod: from .precision import _stream",
                                      "mod: from fsdim.digits import _DIGIT_CHARS"]


def test_only_digits_names_a_kind_of_stream():
    paths = [p for p in sorted(SRC.glob("*.py")) if p.stem not in ("digits", "__init__")]
    assert paths
    assert [site for path in paths for site in _stream_kind_imports(path)] == []


def test_the_guard_sees_a_stream_kind_import(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from .digits import DigitStream, FileDigitStream\n")
    assert _stream_kind_imports(path) == ["mod: FileDigitStream"]
