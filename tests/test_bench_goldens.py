"""Every benchmark command, run in-process on the benchmark's inputs at the
default seed, prints its golden output byte for byte. The benchmark checks
the same in child processes; this puts the check in the test suite. Nothing
under bench/ is written."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from fsdim.cli import dispatch

BENCH = Path(__file__).resolve().parent.parent / "bench"
PLAN = json.loads((BENCH / "workloads.json").read_text(encoding="ascii"))
COMMANDS = [cmd for workload in PLAN["workloads"].values() for cmd in workload["commands"]]


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """The benchmark's input files, written by bench/inputs.py."""
    mp = pytest.MonkeyPatch()
    mp.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    try:
        spec = importlib.util.spec_from_file_location("fsdim_bench_inputs", BENCH / "inputs.py")
        inputs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(inputs)
    finally:
        mp.undo()
    work = tmp_path_factory.mktemp("bench-inputs")
    inputs.write_inputs(PLAN["inputs"], str(work), PLAN["default_seed"])
    return work


@pytest.mark.parametrize("cmd", COMMANDS, ids=[cmd["id"] for cmd in COMMANDS])
def test_command_prints_its_golden_output(work, monkeypatch, capsys, cmd):
    monkeypatch.chdir(work)  # the commands name their inputs by relative path
    assert dispatch(cmd["argv"]) == 0
    out = capsys.readouterr().out
    assert out.encode("ascii") == (BENCH / "golden" / f"{cmd['id']}.out").read_bytes()
