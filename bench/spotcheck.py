"""Spot-checks of command outputs against fsdim's enumeration oracles.

Each check reads a command's stdout, takes a seeded sample of its rows (all
of them where that is cheap), and recomputes them with `KdeltaOracleTable` or `kt_oracle_table` on machines
built from the generator's original numbering, so outputs of the renumbered
files are compared against an independent enumeration. The oracles only see
inputs up to a length cap; a check is exact where the cap provably covers
the answer and an upper-bound check otherwise.
"""

from __future__ import annotations

import json
from fractions import Fraction

from layers import flag, window_lo


def _machines(members, base):
    from fsdim.fst import Fst

    return {name: Fst(base, len(rows), start, rows) for name, start, rows in members}


def _value(digits, base) -> Fraction:
    num = 0
    for d in digits:
        num = num * base + d
    return Fraction(num, base ** len(digits))


def profile_rows(stdout: bytes, argv, inputs, rng, samples=4, max_len=10, max_n=8) -> list[str]:
    """Rows n <= max_n of a `profile` CSV on the digit file: the family's
    minimum cost must equal the oracle's whenever either is <= max_len.

    The file's digits stand in for x: an output of at most max_len*burst
    digits, moved by delta = base**-n with n <= max_n, lands inside the
    interval around x exactly when it lands inside the interval around the
    file's prefix, unless that prefix is all zeros from there on."""
    from fsdim.precision import KdeltaOracleTable

    base, digits = inputs["base"], inputs["digits"]
    machines = _machines(inputs["pool"], base).values()
    if not any(digits[max(max_n, max_len * max(t.max_burst() for t in machines)):]):
        return ["digit file prefix ends in zeros; the oracle cannot stand in for x"]
    x = _value(digits, base)
    tables = [KdeltaOracleTable(t, max_len) for t in machines]
    rows = [line.split(",") for line in stdout.decode().splitlines()[1:]]
    rows = [r for r in rows if int(r[0]) <= max_n]
    errors = []
    for n_s, cost_s, _, _, flags in rng.sample(rows, min(samples, len(rows))):
        delta = Fraction(1, base ** int(n_s))
        found = [r.cost for r in (tab.query(x, delta) for tab in tables) if r.found]
        oracle = min(found) if found else None
        cost = None if flags else int(cost_s)
        if (cost is not None and cost <= max_len) or oracle is not None:
            if cost != oracle:
                errors.append(f"profile n={n_s}: row cost {cost}, oracle {oracle}")
    return errors


def sedim_canonical(stdout: bytes, argv, inputs, rng) -> list[str]:
    """Per-transducer values of `sedim --f canonical` at a rational point, for
    every machine of the family (rng is unused; the check is exhaustive).

    With the canonical enumerator ktf_delta asks for the shortest input whose
    output value lies strictly within delta of x, which is exactly what
    KdeltaOracleTable answers for inputs up to --max-input-len."""
    from fsdim.precision import KdeltaOracleTable

    base = inputs["base"]
    p, q = flag(argv, "--x")[0].removeprefix("rat:").split("/")
    x = Fraction(int(p), int(q))
    n_max, max_len = int(flag(argv, "--nmax")), int(flag(argv, "--max-input-len"))
    per = json.loads(stdout)["per_transducer"]
    machines = _machines(inputs["subset"], base)
    errors = []
    for name in sorted(machines):
        table = KdeltaOracleTable(machines[name], max_len)
        ratios = [Fraction(r.cost, n) for n in range(window_lo(n_max), n_max + 1)
                  if (r := table.query(x, Fraction(1, base ** n))).found]
        oracle = str(min(ratios)) if ratios else None
        if per.get(name) != oracle:
            errors.append(f"sedim {name}: reported {per.get(name)}, oracle {oracle}")
    return errors


def _champernowne(base: int, count: int) -> list[int]:
    out, k = [], 1
    while len(out) < count:
        rep, m = [], k
        while m:
            m, d = divmod(m, base)
            rep.append(d)
        out.extend(reversed(rep))
        k += 1
    return out[:count]


def dim_seq(stdout: bytes, argv, inputs, rng, samples=8, max_len=16) -> list[str]:
    """Per-transducer values of `dim seq --x champernowne`: the minimum of
    kt(prefix_n)/n over the window, against kt_oracle_table up to max_len.

    Any cost the oracle misses exceeds max_len, so its ratio exceeds
    (max_len+1)/n_max: an oracle minimum at or below that is exact, and a
    reported value at or below max_len/n_max must have been seen. The sample
    is drawn from the machines with a reported value: on the others the
    oracle finds no window row either, so checking them tests nothing."""
    from fsdim.infocontent import kt_oracle_table

    base = inputs["base"]
    n_max = int(flag(argv, "--nmax"))
    w = tuple(_champernowne(base, n_max))
    per = json.loads(stdout)["per_transducer"]
    machines = _machines(inputs["pool"], base)
    reported = sorted(n for n in machines if n in per)
    errors = []
    for name in rng.sample(reported, min(samples, len(reported))):
        table = kt_oracle_table(machines[name], max_len, n_max)
        ratios = [Fraction(table[w[:n]][0], n) for n in range(window_lo(n_max), n_max + 1)
                  if w[:n] in table]
        oracle = min(ratios) if ratios else None
        got = Fraction(per[name]) if name in per else None
        exact = (oracle is not None and oracle <= Fraction(max_len + 1, n_max)) or (
            got is not None and got <= Fraction(max_len, n_max))
        if (exact and got != oracle) or (oracle is not None and (got is None or got > oracle)):
            errors.append(f"dim seq {name}: reported {got}, oracle {oracle}")
    return errors


CHECKS = {"profile-digits": profile_rows, "sedim-canonical": sedim_canonical,
          "dim-seq-short": dim_seq}
