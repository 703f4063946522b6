"""A command builds only its own subcommand's parser, and says the same
bytes as the full tree: for a valid command the same namespace, and for
help and for every usage error the same exit code, stdout and stderr. A
family is read with one parse per file."""

import argparse
import json
from pathlib import Path

import pytest

from fsdim import cli
from fsdim.fst import format_fst, make_identity

PLAN = json.loads((Path(__file__).resolve().parent.parent / "bench" / "workloads.json")
                  .read_text(encoding="ascii"))
BENCH_ARGVS = [cmd["argv"] for workload in PLAN["workloads"].values() for cmd in workload["commands"]]
COMMANDS = list(cli._SUBCOMMANDS)

CASES = BENCH_ARGVS + [[name, "-h"] for name in COMMANDS] + [
    ["fst", "gen", "-h"],
    ["fst", "validate", "--help"],
    ["fst"],
    ["dim"],
    # a missing required flag, a bad integer, a bad choice, an unknown flag, an extra positional
    ["kt", "--fst", "m.fst"],
    ["kdelta", "--fst", "m.fst", "--x", "rat:1/3"],
    ["dim", "point", "--fsts", "pool", "--x", "rat:1/3", "--nmax", "3.5"],
    ["dim", "line", "--fsts", "pool", "--x", "rat:1/3", "--nmax", "3"],
    ["fst", "gen", "--kind", "square"],
    ["fst", "check", "--fst", "m.fst"],
    ["profile", "--fsts", "pool", "--x", "rat:1/3", "--nmax", "3", "--nope"],
    ["sedim", "--f", "canonical", "--fsts", "pool", "--x", "rat:1/3", "--nmax", "3", "extra"],
    ["fst", "gen", "--kind", "identity", "extra"],
    ["kdelta", "--fst", "m.fst", "--x", "rat:1/3", "--n", "3", "--delta", "1/8"],
    # `--` before a value, an abbreviated long flag, a repeated --x
    ["kt", "--fst", "m.fst", "--w", "--", "01"],
    ["kt", "--fst", "m.fst", "--", "--w", "01"],
    ["dim", "point", "--fsts", "pool", "--x", "rat:1/3", "--nm", "30"],
    ["dim", "set", "--fsts", "pool", "--x", "rat:1/3", "--x", "rat:1/5", "--nmax", "8"],
    ["kt", "--fst", "m.fst", "--w", "01", "--cap", "5", "--cap", "6"],
    # an option before the subcommand, an unknown subcommand, no argv, the top-level help
    ["--json", "kt", "--fst", "m.fst", "--w", "01"],
    ["dimension", "point"],
    [],
    ["-h"],
]


@pytest.fixture()
def recorded(monkeypatch):
    """Each command's function replaced by one that records its namespace;
    the adders name the functions when a parser is built, so both paths see
    the recorder."""
    seen = []

    def record(args):
        seen.append(args)
        return 0

    for name in dir(cli):
        if name.startswith("cmd_"):
            monkeypatch.setattr(cli, name, record)
    monkeypatch.setenv("COLUMNS", "100")
    return seen


@pytest.mark.parametrize("argv", CASES, ids=[" ".join(argv) or "<empty>" for argv in CASES])
def test_the_one_parser_path_is_the_full_tree_byte_for_byte(recorded, capsys, argv):
    code = cli.dispatch(argv)
    out, err = capsys.readouterr()
    ours = recorded.pop() if recorded else None
    try:
        tree, tree_code = cli._build_parser().parse_args(argv), 0
    except SystemExit as exc:
        tree, tree_code = None, 2 if exc.code not in (0, None) else 0
    assert (code, out, err) == (tree_code, *capsys.readouterr())
    assert ours == tree
    assert not recorded


def _counting(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.fixture()
def family(tmp_path):
    fdir = tmp_path / "fam"
    fdir.mkdir()
    for i in range(3):
        (fdir / f"m{i}.fst").write_text(format_fst(make_identity(2)))
    return str(fdir)


@pytest.mark.parametrize("argv", [
    ["dim", "point", "--fsts", "@DIR", "--x", "rat:1/3", "--nmax", "6"],
    ["dim", "seq", "--fsts", "@DIR", "--x", "champernowne", "--nmax", "6"],
    ["sedim", "--f", "canonical", "--fsts", "@DIR", "--x", "rat:1/3", "--nmax", "4",
     "--max-input-len", "6"],
    ["profile", "--fsts", "@DIR", "--x", "rat:1/3", "--nmax", "4"],
])
def test_a_family_command_builds_one_parser_and_parses_each_file_once(
        monkeypatch, capsys, family, argv):
    parsers = _counting(monkeypatch, argparse.ArgumentParser, "__init__")
    parses = _counting(monkeypatch, cli, "parse_fst")
    assert cli.dispatch([a.replace("@DIR", family) for a in argv]) == 0
    assert (len(parsers), len(parses)) == (1, 3)


def test_fst_gen_builds_the_three_parsers_of_the_fst_subtree(monkeypatch, capsys):
    parsers = _counting(monkeypatch, argparse.ArgumentParser, "__init__")
    assert cli.dispatch(["fst", "gen", "--kind", "identity"]) == 0
    assert len(parsers) == 3
