"""Input files for the benchmark, generated without importing fsdim.

The pool uses the same random draws as `fsdim.cli.gen_pool`, so its machines
are the acceptance pool's. The run seed only renumbers states, shuffles
transition lines and re-wraps the digit file: every search answer is
invariant under these changes, so the golden outputs hold for every seed.
"""

from __future__ import annotations

import os
import random


def gen_pool(seed: int, count: int, max_states: int, base: int, max_burst: int):
    """[(file name, start, rows)] with rows[q][a] = (next state, output digits)."""
    rng = random.Random(seed)
    pool = []
    for i in range(count):
        states = rng.randint(1, max_states)
        rows = []
        for _ in range(states):
            row = []
            for _ in range(base):
                nxt = rng.randrange(states)
                out = tuple(rng.randrange(base) for _ in range(rng.randint(0, max_burst)))
                row.append((nxt, out))
            rows.append(tuple(row))
        pool.append((f"pool_{seed}_{i}.fst", rng.randrange(states), tuple(rows)))
    return pool


def fst_text(base: int, start: int, rows, rng: random.Random) -> str:
    """The machine in fsdim's text format, states renumbered and lines shuffled."""
    perm = list(range(len(rows)))
    rng.shuffle(perm)
    lines = [f"t {perm[q]} {a} {perm[nxt]} {''.join(map(str, out)) or '-'}"
             for q, row in enumerate(rows) for a, (nxt, out) in enumerate(row)]
    rng.shuffle(lines)
    head = ["# states renumbered and transitions shuffled by the benchmark seed",
            "fst 1", f"base {base}", f"states {len(rows)}", f"start {perm[start]}"]
    return "\n".join(head + lines) + "\n"


def gen_digits(seed: int, count: int, base: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(base) for _ in range(count)]


def digits_text(digits, rng: random.Random) -> str:
    """Digits wrapped at a seeded width, with a comment line and blank lines."""
    width = rng.randint(16, 80)
    text = "".join(map(str, digits))
    lines = ["# benchmark digit file"]
    for i in range(0, len(text), width):
        lines.append(text[i:i + width] + (" " if rng.random() < 0.5 else ""))
        if rng.random() < 0.1:
            lines.append("")
    return "\n".join(lines) + "\n"


def write_inputs(spec: dict, work: str, seed: int) -> dict:
    """Write the pool, its subset and the digit file under `work`.

    Returns the machines and digits in their original numbering, for the
    oracle spot-check."""
    rng = random.Random(seed)
    p = spec["pool"]
    pool = gen_pool(p["seed"], p["count"], p["max_states"], p["base"], p["max_burst"])
    subset = spec["subset"]
    texts = {name: fst_text(p["base"], start, rows, rng) for name, start, rows in pool}
    for directory, members in ((p["dir"], pool), (subset["dir"], pool[:subset["count"]])):
        os.makedirs(os.path.join(work, directory))
        for name, _, _ in members:
            with open(os.path.join(work, directory, name), "w", encoding="ascii") as fh:
                fh.write(texts[name])
    d = spec["digits"]
    digits = gen_digits(d["seed"], d["count"], p["base"])
    with open(os.path.join(work, d["file"]), "w", encoding="ascii") as fh:
        fh.write(digits_text(digits, rng))
    return {"base": p["base"], "pool": pool, "subset": pool[:subset["count"]], "digits": digits}
