"""The traced benchmark wraps fsdim entry points by name; every name it lists
must still resolve, so that renaming one fails here and not only there."""

import importlib
import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

from fsdim.digits import RealSpec
from fsdim.fst import make_identity
from fsdim.precision import PrecisionQuery, kdelta

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


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
