"""The traced benchmark wraps fsdim entry points by name; every name it lists
must still resolve, so that renaming one fails here and not only there."""

import importlib
import importlib.util
import sys
from pathlib import Path

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
