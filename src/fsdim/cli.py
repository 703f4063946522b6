"""Command-line surface: fsdim <subcommand>.

Exit codes: 0 for any computed answer (unreachable and cap_exceeded are
answers, not failures), 1 for domain errors, 2 for usage errors. All
randomness flows through one seeded generator, so every command is a pure
function of its flags and input files.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
from fractions import Fraction

from . import dimension, separator
from .digits import RealSpec, check_base, parse_delta
from .errors import FsdimError
from .fst import Fst, format_fst, make_block_huffman, make_identity, make_periodic_decoder, parse_fst
from .infocontent import CostResult, kt
from .precision import PrecisionQuery, kdelta, kdelta_profile

DEFAULT_BURST_WARNING = 64

#: the largest pool: `pool` builds every machine, then writes one file each
MAX_POOL_COUNT = 10_000

#: the largest count * max_states * base * (max_burst + 1): every transition
#: of the pool draws a next state and at most max_burst digits
MAX_POOL_SIZE = 1_000_000

#: the largest |exponent| of an exact-rational flag, and the most digits of
#: each of its numerals: Fraction builds 10**exponent, and int() reads no
#: longer numeral
MAX_EXPONENT = 4300


def gen_pool(seed: int, count: int, max_states: int, base: int, max_burst: int) -> list[tuple[str, Fst]]:
    """Deterministic pseudo-random pool of complete transducers.

    Every (state, symbol) pair gets a uniform next state and an output of
    uniform length 0..max_burst with uniform digits.
    """
    if not 1 <= count <= MAX_POOL_COUNT:
        raise FsdimError(f"count must lie in [1, {MAX_POOL_COUNT}], got {count}")
    check_base(base)
    size = count * max_states * base * (max_burst + 1)
    if size > MAX_POOL_SIZE:
        raise FsdimError("count * max_states * base * (max_burst + 1) must be "
                         f"<= {MAX_POOL_SIZE}, got {size}")
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
        pool.append((f"pool_{seed}_{i}.fst", Fst(base, states, rng.randrange(states), tuple(rows))))
    return pool


def _load_fst(path: str) -> Fst:
    with open(path, "rb") as fh:
        return parse_fst(fh.read().decode("ascii"))


def _load_family(directory: str) -> list[tuple[str, Fst]]:
    """Every .fst file of the directory, by name; a member that is refused
    is named by its path in the one error line."""
    names = sorted(f for f in os.listdir(directory) if f.endswith(".fst"))
    if not names:
        raise FsdimError(f"no .fst files in {directory}")
    family = []
    for name in names:
        path = os.path.join(directory, name)
        try:
            family.append((name, _load_fst(path)))
        except (FsdimError, UnicodeDecodeError) as exc:
            raise FsdimError(f"{path}: {exc}") from None
    return family


def _write(args, text: str) -> None:
    """Write a command's result to --out, or else to stdout."""
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, text_line: str, json_obj: dict) -> None:
    _write(args, (json.dumps(json_obj, sort_keys=True) if args.json else text_line) + "\n")


def _cost_out(args, res: CostResult) -> None:
    """An answer as "status,cost,witness_input", or its JSON object."""
    if not res.found:
        _emit(args, f"{res.status},,", {"status": res.status})
        return
    _emit(args, f"{res.status},{res.cost},{res.witness_input}",
          {"status": res.status, "cost": res.cost, "witness_input": res.witness_input,
           "witness_output": res.witness_output})


def _profile_csv(rows) -> str:
    """The profile as CSV: each row's cost/n and the running infimum of cost/n
    over the found rows so far, to 6 places. The infimum is kept as the
    (cost, n) that set it, compared by c * n' < c' * n, and reads 0 before
    the first found row. A flagged row leaves its cost and ratio empty."""
    lines = ["n,cost,ratio,running_inf,flags"]
    running, least = "0.000000", None
    for n, cost, flags in rows:
        ratio = "" if flags else f"{cost / n:.6f}"
        if not flags and (least is None or cost * least[1] < least[0] * n):
            running, least = ratio, (cost, n)
        lines.append(f"{n},{'' if flags else cost},{ratio},{running},{flags}")
    return "\n".join(lines) + "\n"


def _report_out(args, report) -> None:
    _emit(args, f"estimate={float(report.estimate):.6f}"
          + (f" verdict={report.verdict!r}" if report.verdict else ""),
          {"estimate": str(report.estimate), "estimate_float": float(report.estimate),
           "per_transducer": {k: str(v) for k, v in report.per_transducer.items()},
           "window": list(report.window), "verdict": report.verdict})


def cmd_fst_validate(args) -> int:
    t = _load_fst(args.fst)
    burst = t.max_burst()
    if burst > args.burst_limit:
        print(f"warning: max output burst {burst} exceeds {args.burst_limit}; "
              "searches may be slow", file=sys.stderr)
    _emit(args, f"ok,{t.state_count},{burst}",
          {"status": "ok", "states": t.state_count, "max_burst": burst})
    return 0


def cmd_fst_gen(args) -> int:
    if args.kind == "identity":
        t = make_identity(args.base)
    elif args.kind == "periodic":
        t = make_periodic_decoder(args.pattern, args.copies, args.base)
    else:  # huffman, the last of --kind's choices
        stream = RealSpec.parse(args.train).stream(args.base)
        t = make_block_huffman(stream, args.train_len, args.block_len)
    _write(args, format_fst(t))
    return 0


def cmd_kt(args) -> int:
    t = _load_fst(args.fst)
    _cost_out(args, kt(t, args.w, cap=args.cap))
    return 0


def cmd_kdelta(args) -> int:
    t = _load_fst(args.fst)
    x = RealSpec.parse(args.x)
    delta = None if args.delta is None else parse_delta(args.delta, args.base)
    _cost_out(args, kdelta(t, PrecisionQuery(x, args.base, delta, args.cap_in, args.n)))
    return 0


def cmd_profile(args) -> int:
    family = _load_family(args.fsts)
    x = RealSpec.parse(args.x)
    rows = kdelta_profile([t for _, t in family], x, args.base, args.nmax)
    _write(args, _profile_csv(rows))
    return 0


def cmd_dim(args) -> int:
    family = _load_family(args.fsts)
    frac = args.window_frac
    if args.what == "point":
        report = dimension.dim_point_estimate(family, RealSpec.parse(args.x[0]),
                                              args.base, args.nmax, frac)
    elif args.what == "seq":
        stream = RealSpec.parse(args.x[0]).stream(args.base)
        report = dimension.dim_seq_estimate(family, stream, args.nmax, frac)
    else:
        xs = [RealSpec.parse(s) for s in args.x]
        report = dimension.dim_set_estimate(family, xs, args.base, args.nmax, frac)
    _report_out(args, report)
    return 0


def cmd_normality(args) -> int:
    report = dimension.normality_report(RealSpec.parse(args.x), args.base, args.nmax,
                                        max_block_len=args.k,
                                        threshold=args.threshold)
    _report_out(args, report)
    return 0


def cmd_sedim(args) -> int:
    f = separator.parse_enumerator(args.f, args.base)
    family = _load_family(args.fsts)
    xs = [RealSpec.parse(s) for s in args.x]
    report = separator.dimf_estimate(family, f, xs, args.nmax, max_input_len=args.max_input_len)
    _report_out(args, report)
    return 0


def cmd_pool(args) -> int:
    pool = gen_pool(args.seed, args.count, args.max_states, args.base, args.max_burst)
    os.makedirs(args.out, exist_ok=True)
    for name, t in pool:
        with open(os.path.join(args.out, name), "w", encoding="ascii") as fh:
            fh.write(format_fst(t))
    print(f"wrote {len(pool)} files to {args.out}")
    return 0


def _echo(text: str) -> str:
    """A refused flag value for argparse's one line: its repr, cut to 40 characters."""
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"


def _fraction_arg(text: str) -> Fraction:
    _, e, exponent = text.lower().partition("e")
    if any(len(numeral) > MAX_EXPONENT for numeral in re.findall(r"\d+", text)):
        raise argparse.ArgumentTypeError(f"a numeral of more than {MAX_EXPONENT} digits: "
                                         f"{_echo(text)}")
    try:
        if e and abs(int(exponent)) > MAX_EXPONENT:
            raise argparse.ArgumentTypeError(f"exponent above {MAX_EXPONENT}: {_echo(text)}")
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not an exact rational: {_echo(text)}") from None


def _window_frac_arg(text: str) -> Fraction:
    value = _fraction_arg(text)
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1], got {_echo(text)}")
    return value


def _int_arg(least: int | None = None):
    """The parser of an integer flag, at least `least` when given. A refused
    value is a usage error whose one line echoes at most 40 characters of it."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:  # also a numeral past int()'s 4,300-digit limit
            raise argparse.ArgumentTypeError(f"not an integer: {_echo(text)}") from None
        if least is not None and value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {_echo(text)}")
        return value
    return parse


def _common(p):
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.add_argument("--out", help="write the result to a file")


def _add_fst(p):
    fst_sub = p.add_subparsers(dest="fst_command", required=True)
    pv = fst_sub.add_parser("validate")
    pv.add_argument("--fst", required=True)
    pv.add_argument("--burst-limit", type=_int_arg(0), default=DEFAULT_BURST_WARNING)
    _common(pv)
    pv.set_defaults(func=cmd_fst_validate)
    pg = fst_sub.add_parser("gen")
    pg.add_argument("--kind", required=True, choices=["identity", "periodic", "huffman"])
    pg.add_argument("--base", type=_int_arg(), default=2)
    pg.add_argument("--pattern", default="")
    pg.add_argument("--copies", type=_int_arg(), default=1)
    pg.add_argument("--train", default="champernowne", help="real spec to train huffman on")
    pg.add_argument("--train-len", type=_int_arg(), default=1024)
    pg.add_argument("--block-len", type=_int_arg(1), default=2)
    pg.add_argument("--out")
    pg.set_defaults(func=cmd_fst_gen)


def _add_kt(p):
    p.add_argument("--fst", required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--cap", type=_int_arg(), default=64)
    _common(p)
    p.set_defaults(func=cmd_kt)


def _add_kdelta(p):
    p.add_argument("--fst", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--base", type=_int_arg(), default=2)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=_int_arg())
    group.add_argument("--delta")
    p.add_argument("--cap-in", type=_int_arg(),
                   help="input-length cap; default 4(n + 2), and 64 for a delta not base**-n")
    _common(p)
    p.set_defaults(func=cmd_kdelta)


def _add_profile(p):
    p.add_argument("--fsts", required=True, help="directory of .fst files")
    p.add_argument("--x", required=True)
    p.add_argument("--base", type=_int_arg(), default=2)
    p.add_argument("--nmax", type=_int_arg(1), required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_profile)


def _add_dim(p):
    p.add_argument("what", choices=["point", "seq", "set"])
    p.add_argument("--fsts", required=True)
    p.add_argument("--x", action="append", required=True)
    p.add_argument("--base", type=_int_arg(), default=2)
    p.add_argument("--nmax", type=_int_arg(), required=True)
    p.add_argument("--window-frac", type=_window_frac_arg, default=dimension.DEFAULT_WINDOW_FRAC,
                   help="exact rational in (0, 1]: the tail share of precisions read")
    _common(p)
    p.set_defaults(func=cmd_dim)


def _add_normality(p):
    p.add_argument("--x", required=True)
    p.add_argument("--base", type=_int_arg(), default=2)
    p.add_argument("--nmax", type=_int_arg(), required=True)
    p.add_argument("--k", type=_int_arg(0), default=4, help="largest huffman block length")
    p.add_argument("--threshold", type=_fraction_arg, default=dimension.NORMALITY_THRESHOLD,
                   help="exact rational, e.g. 0.95 or 19/20")
    _common(p)
    p.set_defaults(func=cmd_normality)


def _add_sedim(p):
    p.add_argument("--f", required=True, help="canonical | blockperm:m:PERMFILE | targeted:SPEC")
    p.add_argument("--fsts", required=True)
    p.add_argument("--x", action="append", required=True)
    p.add_argument("--base", type=_int_arg(), default=2)
    p.add_argument("--nmax", type=_int_arg(), required=True)
    p.add_argument("--max-input-len", type=_int_arg(), default=separator.DEFAULT_MAX_INPUT_LEN)
    _common(p)
    p.set_defaults(func=cmd_sedim)


def _add_pool(p):
    p.add_argument("--seed", type=_int_arg(), required=True)
    p.add_argument("--count", type=_int_arg(), required=True)
    p.add_argument("--max-states", type=_int_arg(1), default=4)
    p.add_argument("--base", type=_int_arg(), default=2)
    p.add_argument("--max-burst", type=_int_arg(0), default=2)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_pool)


#: each subcommand's help line and the one function that adds its flags
_SUBCOMMANDS = {
    "fst": ("transducer file utilities", _add_fst),
    "kt": ("shortest input producing an exact output", _add_kt),
    "kdelta": ("cheapest output within delta of a real", _add_kdelta),
    "profile": ("per-precision cost profile", _add_profile),
    "dim": ("dimension upper-bound estimates", _add_dim),
    "normality": ("compression-evidence report", _add_normality),
    "sedim": ("separator-enumerator dimension estimate", _add_sedim),
    "pool": ("seeded random transducer pool", _add_pool),
}


def _build_parser() -> argparse.ArgumentParser:
    """The full tree: fsdim and every subcommand's parser."""
    parser = argparse.ArgumentParser(prog="fsdim",
                                     description="finite-state information content and dimension estimates")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add) in _SUBCOMMANDS.items():
        add(sub.add_parser(name, help=help_line))
    return parser


def _parse(argv: list):
    """argv's namespace. A known subcommand is parsed by its own parser alone,
    built by the adder and with the prog of the full tree's, so its help and
    errors are the same bytes. Anything else, and arguments that parser leaves
    over, go to the full tree, which reports them at the top level."""
    if argv and argv[0] in _SUBCOMMANDS:
        _, add = _SUBCOMMANDS[argv[0]]
        parser = argparse.ArgumentParser(prog=f"fsdim {argv[0]}")
        add(parser)
        args, extra = parser.parse_known_args(argv[1:])
        if not extra:
            args.command = argv[0]
            return args
    return _build_parser().parse_args(argv)


def dispatch(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.command == "dim" and args.what != "set" and len(args.x) > 1:
        message, code = f"dim {args.what} takes one --x, got {len(args.x)}", 2
    else:
        try:
            return args.func(args)
        # OSError and UnicodeDecodeError: unreadable or non-ASCII input files
        except (FsdimError, OSError, UnicodeDecodeError) as exc:
            message, code = str(exc), 1
    line = f"error: {message}"
    if len(line) > 160:  # a message may quote a whole input: keep its head and length
        line = f"{line[:120]}... ({len(line)} characters)"
    print(line, file=sys.stderr)
    return code


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
