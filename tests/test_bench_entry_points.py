"""The traced benchmark wraps fsdim entry points by name; every name it lists
must still resolve, so that renaming one fails here and not only there."""

import importlib
import importlib.util
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from fsdim.digits import RealSpec
from fsdim.fst import make_identity
from fsdim.precision import PrecisionQuery, kdelta

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"


def _load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    spec = importlib.util.spec_from_file_location("fsdim_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_entry_points_resolve(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    entries = tracer.SPANNED + tracer.COUNTED
    assert entries
    missing = []
    for module, path in entries:
        obj = importlib.import_module(module)
        for attr in path.split("."):
            obj = getattr(obj, attr, None)
            if obj is None:
                missing.append(f"{module}.{path}")
                break
        else:
            assert callable(obj), f"{module}.{path}"
    assert missing == []


def test_kdelta_span_attributes_read_a_shared_query(monkeypatch):
    # the tracer reads q.x, q.base, q.delta and q.cap_input from each kdelta
    # span; a query from at_scale must give what a hand-built one gives
    tracer = _load_tracer(monkeypatch)
    t, x = make_identity(2), RealSpec.parse("rat:1/3")
    shared = PrecisionQuery.at_scale(x, 2, 6)
    hand = PrecisionQuery(x, 2, Fraction(1, 64), 32)
    for name in ("x", "base", "delta", "cap_input"):
        assert getattr(shared, name) == getattr(hand, name), name
    res = kdelta(t, shared)
    attrs = tracer._kdelta_attrs({"t": t, "q": shared}, res)
    assert attrs == tracer._kdelta_attrs({"t": t, "q": hand}, res)
    assert (attrs["n"], attrs["cap"], attrs["key"]) == (6, 32, f"{x.describe()}|2|1/64")


def test_importing_the_cli_loads_every_traced_module_and_no_heavy_one(monkeypatch):
    # the benchmark child installs the tracer right after `import fsdim.cli`,
    # and the tracer looks each module up in sys.modules: a module imported
    # lazily would fail every traced pass. The value types need neither
    # dataclasses (which loads inspect, ast and dis) nor typing.
    tracer = _load_tracer(monkeypatch)
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import fsdim.cli; "
            "print(*sorted(sys.modules), sep='\\n')")
    proc = subprocess.run([sys.executable, "-E", "-S", "-B", "-c", code],
                          capture_output=True, text=True, timeout=60, check=True)
    loaded = set(proc.stdout.split())
    assert {"dataclasses", "inspect", "typing"} & loaded == set()
    traced = {module for module, _ in tracer.SPANNED + tracer.COUNTED}
    assert {"fsdim.separator", "fsdim.dimension"} <= traced
    assert traced - loaded == set()
