"""Every benchmark command, run traced in a child process the way the
benchmark runs it, makes exactly the entry-point calls its inputs fix:
`bench/layers.py::check_counts` finds no mismatch. A traced benchmark run
fails a command on any mismatch, so a change to how often, or how, the
per-row entry points are called fails here too. Nothing under bench/ is
written."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
PLAN = json.loads((BENCH / "workloads.json").read_text(encoding="ascii"))
COMMANDS = [cmd for workload in PLAN["workloads"].values() for cmd in workload["commands"]]


def _load(name):
    mp = pytest.MonkeyPatch()
    mp.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    try:
        spec = importlib.util.spec_from_file_location(f"fsdim_bench_{name}", BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        mp.undo()
    return module


layers = _load("layers")


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """The benchmark's input files, written by bench/inputs.py."""
    work = tmp_path_factory.mktemp("bench-traced")
    _load("inputs").write_inputs(PLAN["inputs"], str(work), PLAN["default_seed"])
    return work


@pytest.mark.parametrize("cmd", COMMANDS, ids=[cmd["id"] for cmd in COMMANDS])
def test_traced_command_makes_the_calls_its_inputs_fix(work, cmd):
    argv = cmd["argv"]
    report = work / f"{cmd['id']}.report.json"
    proc = subprocess.run([sys.executable, "-B", str(BENCH / "child.py"), str(ROOT / "src"),
                           str(report), "1", *argv],
                          cwd=work, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    fsts = layers.flag(argv, "--fsts")
    family_size = len(os.listdir(work / fsts)) if fsts else 0
    spans = json.loads(report.read_text(encoding="ascii"))["trace"]["spans"]
    assert layers.check_counts(argv, family_size, spans) == []
