"""Modules of the package use one another's public names only: a name with
a leading underscore is private to the module that defines it, so
`from .mod import _name` inside the package fails here. Only `digits`
(and the package's `__init__`) names the kinds of digit stream: every other
module reads a `DigitStream` through its methods, such as `available`. And
the enumeration oracles stay independent of the searches they check: no
oracle, nor any module-level function or class it names, names a search;
and no other function or class names an oracle, but blockperm's enumerator,
whose search is still the enumeration. And every numeral goes through
`digits`' one conversion: no other `int()` call passes a base, since from
Python 3.11 such a call refuses a numeral of more than 4,300 digits in a
base that is not a power of two. And only
`cli.dispatch` builds an "error: " line, so every error line is cut to one
bound in one place. And no module but the package's `__init__`, which
re-exports, imports a name it never uses. And the package and `tools/`
import only the standard library and fsdim: the project has no
dependencies."""

import ast
import sys
from pathlib import Path

import fsdim

SRC = Path(fsdim.__file__).resolve().parent  # the package under test, wherever it is imported from
TOOLS = Path(__file__).resolve().parent.parent / "tools"


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


ORACLES = {"distinct_outputs", "kt_oracle", "kt_oracle_table", "kdelta_oracle",
           "KdeltaOracleTable"}
SEARCHES = {"Search", "PrefixSearch", "PrecisionSearch", "_DeltaSearch", "_ZeroSearch",
            "open_search", "shared_stream", "kt", "kdelta", "ktf_delta"}


def _used_name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.asname or node.name
    return None


def _searches_in_oracles(paths) -> list:
    """Each search named by an oracle, or by a module-level function or
    class of `paths` that an oracle names, directly or through another."""
    defs = {node.name: node for path in paths
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert ORACLES <= defs.keys(), sorted(ORACLES - defs.keys())
    found, todo, seen = set(), sorted(ORACLES), set(ORACLES)
    while todo:
        name = todo.pop()
        for node in ast.walk(defs[name]):
            used = _used_name(node)
            if used in SEARCHES:
                found.add(f"{name}: {used}")
            elif used in defs and used not in seen:
                seen.add(used)
                todo.append(used)
    return sorted(found)


def test_no_oracle_names_a_search():
    paths = [SRC / f"{stem}.py" for stem in ("infocontent", "precision", "separator")]
    assert _searches_in_oracles(paths) == []


def test_the_guard_sees_an_oracle_name_a_search(tmp_path):
    path = tmp_path / "mod.py"
    names = sorted(ORACLES - {"kt_oracle", "KdeltaOracleTable"})
    path.write_text("\n".join(f"def {name}(): pass" for name in names) + """
def kt_oracle(t, w):
    return _helper(t, w)

def _helper(t, w):
    return kt(t, w)

class KdeltaOracleTable:
    def query(self, x, delta):
        from .precision import open_search
        return self.search.answer(precision.kdelta)
""")
    assert _searches_in_oracles([path]) == ["KdeltaOracleTable: kdelta",
                                            "KdeltaOracleTable: open_search", "_helper: kt"]


def _oracle_callers(paths) -> list:
    """Each module-level function or class of `paths`, other than an oracle,
    that names an oracle, as "module: name -> oracle"."""
    return [f"{path.stem}: {node.name} -> {used}" for path in paths
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in ORACLES
            for used in sorted({_used_name(sub) for sub in ast.walk(node)} & ORACLES)]


def test_only_blockperm_names_an_oracle():
    # blockperm's search is the enumeration until it has a search of its own
    assert _oracle_callers(sorted(SRC.glob("*.py"))) == [
        "separator: make_block_permuted -> kdelta_oracle"]


def test_the_guard_sees_a_function_or_class_name_an_oracle(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("""
from .precision import kdelta_oracle

def kt_oracle(t, w):
    return distinct_outputs(t, len(w))

def answer(t, q):
    return kdelta_oracle(t, q) or infocontent.kt_oracle(t, "")

class Checked:
    def check(self, t):
        return precision.KdeltaOracleTable(t, 4)

def kdelta(t, q):
    return within_at(q.x, q.base)
""")
    assert _oracle_callers([path]) == ["mod: answer -> kdelta_oracle", "mod: answer -> kt_oracle",
                                       "mod: Checked -> KdeltaOracleTable"]


#: the one function that may call int() with a base, per module
INT_CONVERSION = {"digits": "_numeral_to_int"}


def _int_calls_with_a_base(path: Path) -> list:
    """Each int(text, base) call of a module outside its one conversion, as
    "module: enclosing function"."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else where
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "int"
                    and (len(child.args) > 1 or any(k.arg == "base" for k in child.keywords))
                    and INT_CONVERSION.get(path.stem) != where):
                found.append(f"{path.stem}: {where}")
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


def test_only_the_one_conversion_calls_int_with_a_base():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    assert [site for path in paths for site in _int_calls_with_a_base(path)] == []


def test_the_guard_sees_an_int_call_with_a_base(tmp_path):
    path = tmp_path / "digits.py"
    path.write_text("""
N = int("12", 3)

def _numeral_to_int(w, base):
    return int(w, base)

def value(w, base):
    return int(w, base=base) + int(w) + int(_numeral_to_int(w, base))

class Spec:
    def parse(self, text):
        return int(text, 10)
""")
    assert _int_calls_with_a_base(path) == ["digits: <module>", "digits: value", "digits: parse"]


#: the one function that builds an "error: " line, per module
ERROR_DOOR = {"cli": "dispatch"}


def _error_lines(path: Path) -> list:
    """Each string literal, or literal head of an f-string, that starts an
    "error: " line outside the one door, as "module: enclosing function"."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else where
            if (isinstance(child, ast.Constant) and isinstance(child.value, str)
                    and child.value.startswith("error: ") and ERROR_DOOR.get(path.stem) != where):
                found.append(f"{path.stem}: {where}")
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


def test_only_dispatch_builds_an_error_line():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    assert [site for path in paths for site in _error_lines(path)] == []


def test_the_guard_sees_an_error_line_outside_dispatch(tmp_path):
    path = tmp_path / "cli.py"
    path.write_text("""
USAGE = "error: no command"

def dispatch(argv):
    print(f"error: {argv}")
    return "warning: a line of another kind"

def cmd_kt(args):
    print(f"error: {args.w} " + "is bad")

class Report:
    def line(self):
        return "error: " + self.text
""")
    assert _error_lines(path) == ["cli: <module>", "cli: cmd_kt", "cli: line"]


def _unused_imports(path: Path) -> list:
    """Each name a module imports and never reads, as "module: name"."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = [a.asname or a.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.stem}: {name}" for name in imported if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    paths = [p for p in sorted(SRC.glob("*.py")) if p.stem != "__init__"]
    assert paths
    assert [site for path in paths for site in _unused_imports(path)] == []


def test_the_guard_sees_an_unused_import(tmp_path):
    path = tmp_path / "cli.py"
    path.write_text("""
from __future__ import annotations

import os.path
import sys
from fractions import Fraction as F
from .digits import RealSpec, check_precision

def cmd_kdelta(args):
    return RealSpec.parse(args.x), F(args.delta), os.path.join("a", "b")
""")
    assert _unused_imports(path) == ["cli: sys", "cli: check_precision"]


def _foreign_imports(path: Path) -> list:
    """Each module an import names outside the standard library and fsdim,
    as "module: name"; a relative import is the package's own."""
    allowed = sys.stdlib_module_names | {"fsdim"}
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [f"{path.stem}: {name}" for name in names if name.split(".")[0] not in allowed]
    return found


def test_the_package_and_its_tools_import_only_the_standard_library():
    paths = sorted(SRC.glob("*.py")) + sorted(TOOLS.glob("*.py"))
    assert paths
    assert [site for path in paths for site in _foreign_imports(path)] == []


def test_the_guard_sees_a_foreign_import(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("""
from __future__ import annotations
import os.path, numpy as np
from fractions import Fraction
from fsdim.digits import RealSpec
from . import digits
from .precision import kdelta
from sympy.ntheory import factorint

def value(w):
    import gmpy2
    return gmpy2.mpq(w)
""")
    assert _foreign_imports(path) == ["mod: numpy", "mod: sympy.ntheory", "mod: gmpy2"]
