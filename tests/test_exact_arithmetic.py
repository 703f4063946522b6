"""No float in a decision path: `float` appears in the package only where a
result is formatted for output, so a float that leaks into a search or an
estimate fails here. The float sentinels `inf` and `nan` (`math.inf`,
`float("inf")`, a bare `inf` name) are flagged the same way: a search that
solves every precision at once must say so without an infinite precision.
So is true division `/`, which gives a float on two ints; an exact quotient
is a `Fraction` or an integer `//`."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

import fsdim
from fsdim.digits import MAX_PRECISION
from fsdim.dimension import FULL_GRID_LIMIT, HEAD_SAMPLES, WINDOW_SAMPLES, _grid

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(fsdim.__file__).resolve().parent  # the package under test, wherever it is imported from
FLOAT_NAMES = {"float", "inf", "nan"}
FORMATTERS = {"cli._profile_csv", "cli._report_out"}


def _float_sites(path: Path) -> set:
    """Qualified names of the functions that name `float`, `inf` or `nan`,
    hold a float literal or divide with `/`."""
    sites = set()

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, scope + [child.name])
                continue
            if (isinstance(child, ast.Name) and child.id in FLOAT_NAMES) or (
                    isinstance(child, ast.Attribute) and child.attr in FLOAT_NAMES) or (
                    isinstance(child, ast.Constant) and isinstance(child.value, float)) or (
                    isinstance(child, ast.Div)):
                sites.add(".".join([path.stem] + scope))
            walk(child, scope)

    walk(ast.parse(path.read_text(encoding="utf-8")), [])
    return sites


def test_float_only_in_output_formatters():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    assert set().union(*map(_float_sites, paths)) == FORMATTERS


def test_the_guard_flags_each_kind_of_float_site(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "import math\n"
        "def named(x):\n    return float(x)\n"
        "def literal(x):\n    return x * 0.5\n"
        "def sentinel():\n    return math.inf\n"
        "def divides(a, b):\n    return a / b\n"
        "class Holder:\n    def divides_in_place(self, a):\n        a /= 2\n        return a\n"
        "def exact(a, b):\n    return a // b, a * b, a % b\n"
        "ratio = 1 / 3\n",
        encoding="utf-8")
    assert _float_sites(path) == {"probe", "probe.named", "probe.literal", "probe.sentinel",
                                  "probe.divides", "probe.Holder.divides_in_place"}


def _float_grid(n_lo: int, n_hi: int) -> list[int]:
    """The sampled grid as it was written with float rounding: the reference
    that `dimension._grid`'s integer rounding must equal."""
    if n_hi <= FULL_GRID_LIMIT:
        return list(range(1, n_hi + 1))
    span = n_hi - n_lo + 1
    head = {max(1, round(1 + (n_lo - 2) * i / (HEAD_SAMPLES - 1))) for i in range(HEAD_SAMPLES)}
    window = {n_lo + round((span - 1) * i / (WINDOW_SAMPLES - 1)) for i in range(WINDOW_SAMPLES)}
    return sorted(head | window)


@pytest.fixture(scope="module")
def bench_layers():
    """bench/layers.py, loaded without writing bytecode under bench/."""
    mp = pytest.MonkeyPatch()
    mp.setattr(sys, "dont_write_bytecode", True)
    try:
        spec = importlib.util.spec_from_file_location("fsdim_bench_layers", ROOT / "bench" / "layers.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        mp.undo()
    return module


def test_the_integer_grid_equals_the_float_grid_and_the_bench_replica(bench_layers):
    n_maxes = list(range(2, 3001)) + list(range(3001, MAX_PRECISION + 1, 997)) + [MAX_PRECISION]
    for n_max in n_maxes:
        n_lo = -(-n_max // 2)  # the default window, 1/2
        grid = _grid(n_lo, n_max)
        assert grid == _float_grid(n_lo, n_max) == bench_layers.grid(n_max), n_max
        for n_lo in (1, 2):
            assert _grid(n_lo, n_max) == _float_grid(n_lo, n_max), (n_lo, n_max)
