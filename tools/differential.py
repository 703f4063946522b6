#!/usr/bin/env python3
"""Differential of fsdim's answers and work: a base revision against another.

    python3 tools/differential.py              # HEAD against the working tree
    python3 tools/differential.py BASE         # BASE against the working tree
    python3 tools/differential.py BASE OTHER   # two revisions

Both sides are fresh sibling directories under one temporary directory,
extracted from a tar as `tools/bench_pairs.py` extracts them: a revision
from `git archive`, the working tree's tracked and untracked, not ignored,
files as they are. One recorder, `record` in this file (the working tree's
copy, whatever the sides are), runs against each side's `src/` in a process
of its own and in a work directory of its own. So both sides answer the same
commands on the same inputs.

The recorder writes the benchmark's inputs (`bench/inputs.py`, read, not
edited) and its own: seeded pools in bases 2, 3 and 10, one digit file per
base, a digit file longer than the largest precision asked, a digit file
whose tail is decided only by its last digit, a digit file of four digits,
a block permutation, a machine whose outputs run on the track of a goal
past it, and `.fst` files that are refused or whose bytes are odd (line
breaks, non-ASCII), each alone and in a copy of the base-2 pool. Then it
runs every command of the record sets below through `fsdim.cli.dispatch`,
with `--json` where the command has it and COLUMNS fixed for argparse's
help, and writes a canonical text record of each: its argv, exit code,
stdout and stderr, and, on a line of its own, its work: the levels walked,
summed over every `infocontent.Search` the command built, and its
`PrecisionSearch.advance` calls. It counts them by wrapping
`Search.__init__` and `advance` in its own process.

The two records are compared command by command. Every change in answers
and every change in work is printed in full on lines of its own, and a
summary line of the counts comes last. The exit status is 1 on any
difference, 2 when a side cannot be extracted or recorded, else 0.
Standard library only.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
ROOT = TOOLS.parent

# the record sets: machines, points and commands, all fixed here
POOLS = {2: (10, 3, 3), 3: (6, 3, 3), 10: (4, 2, 2)}  # base: (count, max states, max burst)
POOL_SEED = 31
ZERO_RUN = "0111" + "0" * 70 + "1"  # decided only by its last digit
SHORT = "1000"  # ends while outputs run past their goal
POINTS = ["rat:1/3", "rat:5/24", "periodic:001", "dyadic:0101", "champernowne",
          "digitfile:digits-{base}.txt", "digitfile:zero-run.txt", "digitfile:short.txt"]
PRECISIONS = [0, 1, 2, 3, 4, 5, 6, 7, 8, 12, 20]
DELTAS = ["1/3", "1/12", "5/9"]
KT_WORDS = ["rat:1/3", "rat:5/24", "champernowne"]  # prefixes of their expansions
KT_LENGTHS = range(13)
PROFILE_NMAX = 24
SEDIM = [  # (enumerator, base, points, nmax, max input length)
    ("canonical", 2, ["rat:1/3", "rat:5/24", "digitfile:digits-2.txt", "digitfile:zero-run.txt"], 10, 12),
    ("targeted:rat:1/3", 2, ["rat:1/3", "rat:5/24", "digitfile:digits-2.txt"], 12, 12),
    ("targeted:digitfile:digits-2.txt", 2, ["digitfile:digits-2.txt"], 10, 12),
    ("blockperm:2:perm-2.txt", 2, ["rat:1/3", "rat:5/24", "digitfile:zero-run.txt"], 8, 8),
    ("canonical", 3, ["rat:1/3", "digitfile:digits-3.txt"], 8, 10),
    ("targeted:rat:5/24", 3, ["rat:5/24"], 8, 10),
]
SEDIM_MEMBERS = 6  # the first machines of each pool
PERMUTATION = {"00": "10", "01": "00", "10": "11", "11": "01"}
DIM_SEQ = [3, 10]  # `dim seq` runs over these pools and the identity, at each point below
DIM_SEQ_POINTS = ["champernowne", "rat:1/3", "digitfile:short.txt", "digitfile:zero-run.txt"]
DIM_SEQ_NMAX = [6, 16]  # windows [3, 6] and [8, 16]: partly and wholly past the end of short.txt
NORMALITY = [(x, base) for x in ("champernowne", "rat:1/3") for base in (2, 3)]
NORMALITY_NMAX = 40
#: from x = 1/2 its outputs 011 0 0 0 ... run on the lower track of goal 3,
#: and at 13/24 and 1/6 its output 0110... is x - delta; the machine
#: TRACK_PAST_GOAL of tests/test_level_invariant.py
TRACK_PAST_GOAL = "fst 1\nbase 2\nstates 2\nstart 0\nt 0 0 1 011\nt 0 1 1 011\nt 1 0 1 0\nt 1 1 1 0\n"
TRACK_POINTS = ["rat:1/2", "rat:13/24", "rat:1/6", "rat:1/3", "digitfile:short.txt"]
TRACK_DELTAS = ["1/3", "1/6", "1/12"]
#: `kdelta` far past the default caps, at the cap 6(n + 2) + 20, on the
#: benchmark's base-2 pool and TRACK_PAST_GOAL; long-2.txt holds more digits
#: than n. The recorder's own base-2 pool follows none of these points there
LARGE_N = [100, 400]
LARGE_N_POINTS = ["rat:1/3", "periodic:001", "champernowne", "digitfile:long-2.txt"]
LONG_DIGITS = 450
#: the command line itself: help, usage errors and the argparse corners a
#: parser must read alike (`--`, an abbreviated flag, a repeated flag)
SUBCOMMANDS = ["fst", "kt", "kdelta", "profile", "dim", "normality", "sedim", "pool"]
PARSER_CASES = [[name, "-h"] for name in SUBCOMMANDS] + [
    ["fst", "gen", "-h"], ["fst", "validate", "--help"], ["fst"], ["dim"], [], ["-h"],
    ["kt", "--fst", "m.fst"],
    ["kdelta", "--fst", "m.fst", "--x", "rat:1/3"],
    ["dim", "point", "--fsts", "pool", "--x", "rat:1/3", "--nmax", "3.5"],
    ["dim", "line", "--fsts", "pool", "--x", "rat:1/3", "--nmax", "3"],
    ["fst", "gen", "--kind", "square"],
    ["fst", "check", "--fst", "m.fst"],
    ["profile", "--fsts", "pool", "--x", "rat:1/3", "--nmax", "3", "--nope"],
    ["sedim", "--f", "canonical", "--fsts", "subset", "--x", "rat:1/3", "--nmax", "3", "extra"],
    ["fst", "gen", "--kind", "identity", "extra"],
    ["kdelta", "--fst", "m.fst", "--x", "rat:1/3", "--n", "3", "--delta", "1/8"],
    ["kt", "--fst", "track/track-past-goal.fst", "--w", "--", "011"],
    ["kt", "--fst", "track/track-past-goal.fst", "--", "--w", "011"],
    ["dim", "point", "--fsts", "subset", "--x", "rat:1/3", "--nm", "12", "--json"],
    ["dim", "set", "--fsts", "subset", "--x", "rat:1/3", "--x", "rat:1/5", "--nmax", "8", "--json"],
    ["dim", "point", "--fsts", "subset", "--x", "rat:1/3", "--x", "rat:1/5", "--nmax", "8"],
    ["kt", "--fst", "track/track-past-goal.fst", "--w", "0110", "--cap", "5", "--cap", "6"],
    ["--json", "kt", "--fst", "track/track-past-goal.fst", "--w", "01"],
    ["dimension", "point"],
]
IDENTITY = "fst 1\nbase 2\nstates 1\nstart 0\nt 0 0 0 0\nt 0 1 0 1\n"
#: the malformed machines of tests/test_fst.py's refusals, as edits of IDENTITY
REFUSED = {
    "empty": (IDENTITY, ""), "no-states-line": (IDENTITY, "fst 1\nbase 2\n"),
    "wrong-directive": ("fst 1", "fsx 1"), "version-2": ("fst 1", "fst 2"),
    "header-field": ("states 1", "states one"), "transition-shape": ("t 0 1 0 1", "t 0 1 0"),
    "transition-field": ("t 0 1 0 1", "t 0 1 x 1"), "state-range": ("t 0 1 0 1", "t 1 1 0 1"),
    "symbol-range": ("t 0 1 0 1", "t 0 2 0 1"), "output-range": ("t 0 1 0 1", "t 0 1 0 2"),
    "output-letter": ("t 0 1 0 1", "t 0 1 0 1x"),
    "no-states": (IDENTITY, "fst 1\nbase 2\nstates 0\nstart 0\n"),
    "start-range": ("start 0", "start 1"), "target-range": ("t 0 1 0 1", "t 0 1 5 1"),
    "missing": ("t 0 1 0 1\n", ""), "duplicate": ("t 0 1 0 1\n", "t 0 1 0 1\nt 0 1 0 1\n"),
}
#: files whose bytes, not their directives, are odd: every line break
#: and a byte that is not ASCII, near the head and past 8 KiB
ODD_FILES = {
    "non-ascii": IDENTITY.replace("t 0 0", "# \u00e9\nt 0 0").encode("utf-8"),
    "non-ascii-far": ("# " + "x" * 9000 + "\n" + IDENTITY + "# \u00e9\n").encode("utf-8"),
    "crlf": IDENTITY.replace("\n", "\r\n").encode("ascii"),
    "crlf-missing": IDENTITY.replace("t 0 1 0 1\n", "").replace("\n", "\r\n").encode("ascii"),
    "lone-cr": IDENTITY.replace("\n", "\r").encode("ascii"),
    "lone-cr-field": IDENTITY.replace("t 0 1 0 1", "t 0 1 x 1").replace("\n", "\r").encode("ascii"),
    "comments": b"# a machine\n# of comments only\n",
    "commented": ("# head\n" + IDENTITY.replace("\n", "  # note\n\n")).encode("ascii"),
}


def _load(path: Path):
    """The module at path, imported by its file name; no bytecode is written
    beside it."""
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location(f"fsdim_{path.parent.name}_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _expansion(spec: str, base: int, count: int) -> str:
    """The first count digits of a `rat:` point or of Champernowne's, in base."""
    if spec == "champernowne":
        digits, k = [], 1
        while len(digits) < count:
            word, m = [], k
            while m:
                m, d = divmod(m, base)
                word.append(d)
            digits += reversed(word)
            k += 1
        return "".join(str(d) for d in digits[:count])
    p, q = map(int, spec.removeprefix("rat:").split("/"))
    digits = []
    for _ in range(count):
        d, p = divmod(p * base, q)
        digits.append(str(d))
    return "".join(digits)


def write_inputs(work: Path) -> dict:
    """The benchmark's inputs and the recorder's; returns each base's pool
    directory's file names."""
    bench = _load(ROOT / "bench" / "inputs.py")
    plan = json.loads((ROOT / "bench" / "workloads.json").read_text(encoding="ascii"))
    bench.write_inputs(plan["inputs"], str(work), plan["default_seed"])
    rng = random.Random(POOL_SEED)
    pools = {}
    for base, (count, max_states, max_burst) in POOLS.items():
        pool = bench.gen_pool(POOL_SEED + base, count, max_states, base, max_burst)
        for directory, members in ((f"pool-{base}", pool), (f"subset-{base}", pool[:SEDIM_MEMBERS])):
            (work / directory).mkdir()
            for name, start, rows in members:
                (work / directory / name).write_text(bench.fst_text(base, start, rows, rng), encoding="ascii")
        pools[base] = [name for name, _, _ in pool]
        if base in DIM_SEQ:  # the pool and the identity, which has a row at every n
            shutil.copytree(work / f"pool-{base}", work / f"seq-{base}")
            identity = (tuple((0, (d,)) for d in range(base)),)
            (work / f"seq-{base}" / "identity.fst").write_text(bench.fst_text(base, 0, identity, rng),
                                                               encoding="ascii")
        digits = "".join(str(rng.randrange(base)) for _ in range(60))
        (work / f"digits-{base}.txt").write_text(digits + "\n", encoding="ascii")
    (work / "zero-run.txt").write_text(ZERO_RUN + "\n", encoding="ascii")
    (work / "short.txt").write_text(SHORT + "\n", encoding="ascii")
    (work / "perm-2.txt").write_text("".join(f"{a} -> {b}\n" for a, b in PERMUTATION.items()),
                                     encoding="ascii")
    (work / "long-2.txt").write_text("".join(str(rng.randrange(2)) for _ in range(LONG_DIGITS)) + "\n",
                                     encoding="ascii")
    (work / "track").mkdir()
    (work / "track" / "track-past-goal.fst").write_text(TRACK_PAST_GOAL, encoding="ascii")
    (work / "files").mkdir()
    files = {name: IDENTITY.replace(old, new).encode("ascii") for name, (old, new) in REFUSED.items()}
    for name, content in {**files, **ODD_FILES}.items():
        (work / "files" / f"{name}.fst").write_bytes(content)
        shutil.copytree(work / "pool-2", work / f"family-{name}")  # one odd member of eleven
        (work / f"family-{name}" / f"{name}.fst").write_bytes(content)
    return pools


def commands(pools: dict, work: Path) -> list:
    """Every argv of the record sets, in the order they run, on the inputs
    written to `work`."""
    plan = json.loads((ROOT / "bench" / "workloads.json").read_text(encoding="ascii"))
    argvs = [cmd["argv"] for workload in plan["workloads"].values() for cmd in workload["commands"]]
    for base, names in pools.items():
        points = [p.format(base=base) for p in POINTS]
        for name in names:
            fst = ["--fst", f"pool-{base}/{name}"]
            for x in points:
                argvs += [["kdelta", *fst, "--x", x, "--base", str(base), "--n", str(n), "--json"]
                          for n in PRECISIONS]
                argvs += [["kdelta", *fst, "--x", x, "--base", str(base), "--delta", d, "--json"]
                          for d in DELTAS]
            for x in KT_WORDS:
                word = _expansion(x, base, max(KT_LENGTHS))
                argvs += [["kt", *fst, "--w", word[:k], "--json"] for k in KT_LENGTHS]
        argvs += [["profile", "--fsts", f"pool-{base}", "--x", x, "--base", str(base),
                   "--nmax", str(PROFILE_NMAX)] for x in points]
    for f, base, points, nmax, cap in SEDIM:
        argvs += [["sedim", "--f", f, "--fsts", f"subset-{base}", "--x", x, "--base", str(base),
                   "--nmax", str(nmax), "--max-input-len", str(cap), "--json"] for x in points]
    argvs += [["dim", "seq", "--fsts", f"seq-{base}", "--x", x, "--base", str(base),
               "--nmax", str(nmax), "--json"]
              for base in DIM_SEQ for x in DIM_SEQ_POINTS for nmax in DIM_SEQ_NMAX]
    argvs += [["normality", "--x", x, "--base", str(base), "--nmax", str(NORMALITY_NMAX), "--json"]
              for x, base in NORMALITY]
    track = ["--fst", "track/track-past-goal.fst"]
    for x in TRACK_POINTS:
        argvs += [["kdelta", *track, "--x", x, "--n", str(n), "--json"] for n in PRECISIONS]
        argvs += [["kdelta", *track, "--x", x, "--n", "3", "--cap-in", "200", "--json"]]
        argvs += [["kdelta", *track, "--x", x, "--delta", d, "--json"] for d in TRACK_DELTAS]
        argvs += [["profile", "--fsts", "track", "--x", x, "--nmax", str(PROFILE_NMAX)]]
    for fst in [*(f"pool/{name}" for name in sorted(os.listdir(work / "pool"))), "track/track-past-goal.fst"]:
        argvs += [["kdelta", "--fst", fst, "--x", x, "--n", str(n), "--cap-in", str(6 * (n + 2) + 20),
                   "--json"] for x in LARGE_N_POINTS for n in LARGE_N]
    argvs += PARSER_CASES
    for name in [*REFUSED, *ODD_FILES]:
        argvs += [["fst", "validate", "--fst", f"files/{name}.fst", "--json"],
                  ["kt", "--fst", f"files/{name}.fst", "--w", "01", "--json"],
                  ["dim", "point", "--fsts", f"family-{name}", "--x", "rat:1/3", "--nmax", "6", "--json"]]
    return argvs


def record(work: str, out: str, src: str) -> int:
    """Runs every command in `work` through the fsdim package under `src`,
    and writes the record to `out`."""
    import fsdim
    from fsdim import cli, infocontent, precision

    if Path(fsdim.__file__).resolve().parent != Path(src).resolve() / "fsdim":
        raise SystemExit(f"fsdim was imported from {fsdim.__file__}, not from {src}")
    work = Path(work)
    searches, advances = [], [0]
    init, advance = infocontent.Search.__init__, precision.PrecisionSearch.advance

    def counting_init(self, *args, **kwargs):
        searches.append(self)
        init(self, *args, **kwargs)

    def counting_advance(self, pos, emitted):
        advances[0] += 1
        return advance(self, pos, emitted)

    infocontent.Search.__init__ = counting_init
    precision.PrecisionSearch.advance = counting_advance
    lines = []
    for argv in commands(write_inputs(work), work):
        searches.clear()
        advances[0] = 0
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.dispatch(argv)
            except Exception as exc:  # a traceback is an answer too
                code = f"raised {type(exc).__name__}: {exc}"
        lines.append("=== " + " ".join(argv))
        lines.append(f"exit {code}")
        lines += ["out " + line for line in stdout.getvalue().splitlines()]
        lines += ["err " + line for line in stderr.getvalue().splitlines()]
        lines.append(f"work levels={sum(s.level for s in searches)} advance={advances[0]}")
    Path(out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


def fail(message: str):
    print(message, file=sys.stderr)
    raise SystemExit(2)


def _records(text: str) -> dict:
    """argv line -> (answer lines, work line) of a record."""
    found = {}
    for block in ("\n" + text).split("\n=== ")[1:]:
        head, *rest = block.rstrip("\n").split("\n")
        found[head] = (rest[:-1], rest[-1])
    return found


def run_side(side: Path, tmp: Path, name: str) -> tuple[str, float]:
    work = tmp / f"{name}-work"
    work.mkdir()
    out = tmp / f"{name}.record"
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1", COLUMNS="100",
               PYTHONPATH=os.pathsep.join([str(side / "src"), str(TOOLS)]))
    argv = [sys.executable, "-B", "-c",
            "import sys, differential; sys.exit(differential.record(*sys.argv[1:]))",
            str(work), str(out), str(side / "src")]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=work, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        fail(f"{name}: the recorder exited {proc.returncode}\n{proc.stderr}")
    return out.read_text(encoding="utf-8"), time.perf_counter() - t0


def compare(base: dict, other: dict) -> list:
    """One line per difference: a command present on one side only, a
    change in answers, a change in work."""
    diffs = [f"only in base: {key}" for key in base if key not in other]
    diffs += [f"only in other: {key}" for key in other if key not in base]
    for key in (k for k in base if k in other):
        (answer_a, work_a), (answer_b, work_b) = base[key], other[key]
        if answer_a != answer_b:
            i = next((i for i, (a, b) in enumerate(zip(answer_a, answer_b)) if a != b),
                     min(len(answer_a), len(answer_b)))
            a = answer_a[i] if i < len(answer_a) else "<none>"
            b = answer_b[i] if i < len(answer_b) else "<none>"
            diffs.append(f"answers differ: {key}\n    base:  {a}\n    other: {b}")
        if work_a != work_b:
            diffs.append(f"work differs: {key}\n    base:  {work_a}\n    other: {work_b}")
    return diffs


def main(argv: list) -> int:
    if len(argv) > 2 or any(a.startswith("-") for a in argv):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    pairs = _load(TOOLS / "bench_pairs.py")
    names = {"base": argv[0] if argv else "HEAD",
             "other": argv[1] if len(argv) > 1 else None}  # None: the working tree
    tmp = Path(tempfile.mkdtemp(prefix="fsdim-differential-"))
    try:
        records = {}
        for name, rev in names.items():
            try:
                tar = pairs.working_tree_tar() if rev is None else pairs.revision_tar(rev)
            except subprocess.CalledProcessError as exc:
                fail(f"git: {exc.stderr.decode().strip()}")
            with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
                archive.extractall(tmp / name)
            text, seconds = run_side(tmp / name, tmp, name)
            records[name] = _records(text)
            print(f"{name} ({rev or 'working tree'}): {len(records[name])} commands recorded"
                  f" in {seconds:.1f} s",
                  flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    diffs = compare(records["base"], records["other"])
    for line in diffs:
        print(line)
    answers = sum(d.startswith(("answers", "only")) for d in diffs)
    print(f"{len(diffs)} differences: {answers} in answers, {len(diffs) - answers} in work")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
