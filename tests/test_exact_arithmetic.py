"""No float in a decision path: `float` appears in the package only where a
result is formatted for output, so a float that leaks into a search or an
estimate fails here. The float sentinels `inf` and `nan` (`math.inf`,
`float("inf")`, a bare `inf` name) are flagged the same way: a search that
solves every precision at once must say so without an infinite precision."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fsdim"
FLOAT_NAMES = {"float", "inf", "nan"}
FORMATTERS = {"cli._profile_csv", "cli._report_out", "dimension.EstimateReport.to_json_dict"}


def _float_sites(path: Path) -> set:
    """Qualified names of the functions that name `float`, `inf` or `nan`, or
    hold a float literal."""
    sites = set()

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, scope + [child.name])
                continue
            if (isinstance(child, ast.Name) and child.id in FLOAT_NAMES) or (
                    isinstance(child, ast.Attribute) and child.attr in FLOAT_NAMES) or (
                    isinstance(child, ast.Constant) and isinstance(child.value, float)):
                sites.add(".".join([path.stem] + scope))
            walk(child, scope)

    walk(ast.parse(path.read_text(encoding="utf-8")), [])
    return sites


def test_float_only_in_output_formatters():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    assert set().union(*map(_float_sites, paths)) == FORMATTERS
