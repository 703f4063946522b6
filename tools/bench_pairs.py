#!/usr/bin/env python3
"""Alternating benchmark pairs: a base revision against the working tree.

    python3 tools/bench_pairs.py --workload pool-family --pairs 10 --seconds 10
    python3 tools/bench_pairs.py --workload pool-family --pairs 10 --aa

Both sides are fresh sibling directories under one temporary directory,
each extracted from a tar: the base revision (default HEAD) from
`git archive`, and the working tree's tracked and untracked, not ignored,
files as they are. With --aa the second side is the base revision again,
which measures the spread of two identical trees. Neither side has run
before, so neither has a bytecode cache or benchmark inputs the other
lacks, and the repository itself is left untouched: no `git worktree` is
registered, so a run that is killed leaves nothing to prune.

Each pair runs `bench/run.py --workload W --trace 0` once on each side; the
side that goes first alternates from pair to pair. A run that is not
`correct` or that failed a command stops the script. For each end-to-end
metric of the base side's BENCHMARK.json it prints each side's median and
quartiles, and in how many pairs the second side was better (ties count for
neither). A gain holds when the second side wins at least nine pairs in ten
and the medians differ by more than the distance between the base side's
quartiles. Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def revision_tar(rev: str) -> bytes:
    """The files of `rev`, as `git archive` writes them."""
    return git("archive", "--format=tar", rev)


def working_tree_tar() -> bytes:
    """The working tree's files that git tracks or would track, as a tar."""
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0")
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w") as tar:
        for name in filter(None, names):
            path = ROOT / name.decode()
            if path.is_file():  # a tracked file deleted in the working tree is left out
                tar.add(path, arcname=name.decode())
    return buf.getvalue()


def run_bench(side: Path, workload: str, seconds: int, seed: int | None) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload,
            "--seconds", str(seconds), "--trace", "0"]
    if seed is not None:
        argv += ["--seed", str(seed)]
    proc = subprocess.run(argv, cwd=side, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{side.name}: bench/run.py exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{side.name}: correct={result['correct']} failed={result['failed']}"
                         f"\n{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def report(metrics: list[dict], runs: dict[str, list[dict]], names: tuple[str, str]) -> None:
    base, other = names
    pairs = len(runs[base])
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        a = [r[name] for r in runs[base]]
        b = [r[name] for r in runs[other]]
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        (a1, a3), (b1, b3) = quartiles(a), quartiles(b)
        ma, mb = statistics.median(a), statistics.median(b)
        change = (mb - ma) / ma if ma else 0.0
        gain = wins >= 0.9 * pairs and abs(mb - ma) > a3 - a1 and (mb < ma) == lower
        print(f"{name}: {base} {ma:.4f} [{a1:.4f}, {a3:.4f}] -> {other} {mb:.4f} "
              f"[{b1:.4f}, {b3:.4f}] {m['unit']} ({change:+.1%}), {other} better in "
              f"{wins}/{pairs} pairs; gain {'holds' if gain else 'not shown'}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=10, help="--seconds of each bench run")
    ap.add_argument("--seed", type=int, help="bench seed; the workloads' default if not given")
    ap.add_argument("--base", default="HEAD", help="the revision the working tree is compared with")
    ap.add_argument("--aa", action="store_true", help="compare the base revision with itself")
    ap.add_argument("--tmp", help="directory to hold the two sides; the system's if not given")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-", dir=args.tmp))
    names = ("base", "base-again" if args.aa else "change")
    try:
        sides = {name: tmp / name for name in names}
        for name, path in sides.items():  # both sides are extracted the same way
            tar = working_tree_tar() if name == "change" else revision_tar(args.base)
            with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
                archive.extractall(path)
        metrics = json.loads((sides["base"] / "BENCHMARK.json").read_text())["end_to_end"]
        runs = {name: [] for name in names}
        for i in range(args.pairs):
            order = names if i % 2 == 0 else names[::-1]
            for name in order:
                runs[name].append(run_bench(sides[name], args.workload, args.seconds, args.seed))
            print(f"pair {i + 1}/{args.pairs} ({order[0]} first): "
                  + " ".join(f"{n}.wall_s={runs[n][-1]['wall_s']:.4f}" for n in names),
                  flush=True)
        print(f"workload {args.workload}, {args.pairs} pairs of {args.seconds} s runs, "
              f"base {args.base}")
        report(metrics, runs, names)
        print(json.dumps({"workload": args.workload, "runs": runs}))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
