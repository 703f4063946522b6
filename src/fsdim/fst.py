"""Complete deterministic finite-state transducers over a digit alphabet.

An Fst reads one digit per step and emits a finite digit string per step;
both maps are total, as the model requires. Values are immutable after
construction and `run` is pure.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import lru_cache
from heapq import heapify, heappop, heappush

from .digits import (
    DigitStream,
    check_base,
    check_precision,
    content_lines,
    digits_to_str,
    str_to_digits,
)
from .errors import (
    DuplicateTransition,
    EmptyPattern,
    FstSyntaxError,
    FsdimError,
    InsufficientTraining,
    InvalidDigit,
    MissingTransition,
    StateOutOfRange,
)


class Fst(namedtuple("Fst", "base state_count start transitions")):
    """(Q, delta, nu, q0) with Q = range(state_count).

    transitions[q][a] = (next_state, output_digits) where output_digits is a
    tuple of ints over the base alphabet.
    """

    __slots__ = ()

    def __new__(cls, base: int, state_count: int, start: int, transitions: tuple):
        check_base(base)
        if state_count < 1:
            raise FsdimError("an FST needs at least one state")
        if not (0 <= start < state_count):
            raise StateOutOfRange(f"start state {start} out of range [0, {state_count})")
        if len(transitions) != state_count:
            raise MissingTransition("transition table must cover every state")
        for q, row in enumerate(transitions):
            if len(row) != base:
                raise MissingTransition(f"state {q} must define all {base} symbols")
            for a, (nxt, out) in enumerate(row):
                if not (0 <= nxt < state_count):
                    raise StateOutOfRange(f"transition ({q},{a}) targets missing state {nxt}")
                for d in out:
                    if not (0 <= d < base):
                        raise InvalidDigit(f"output digit {d} of ({q},{a}) out of base {base}")
        return super().__new__(cls, base, state_count, start, transitions)

    def run_from(self, q: int, pi: str) -> tuple[str, int]:
        """Output and final state of running input pi from state q."""
        out = []
        for a in str_to_digits(pi, self.base):
            q, o = self.transitions[q][a]
            out.extend(o)
        return digits_to_str(out), q

    def run(self, pi: str) -> str:
        """T(pi): the output of the machine on input pi from the start state."""
        return self.run_from(self.start, pi)[0]

    def max_burst(self) -> int:
        return max(len(out) for row in self.transitions for _, out in row)

    def complement_lift(self) -> "Fst":
        """Same states and transitions, every output digit complemented.

        Running the lifted machine equals complementing the original output.
        """
        b = self.base
        rows = tuple(
            tuple((nxt, tuple(b - 1 - d for d in out)) for nxt, out in row)
            for row in self.transitions
        )
        return Fst(b, self.state_count, self.start, rows)


def format_fst(t: Fst) -> str:
    """Canonical text form: transitions in lexicographic (state, symbol) order."""
    lines = [f"fst 1", f"base {t.base}", f"states {t.state_count}", f"start {t.start}"]
    for q in range(t.state_count):
        for a in range(t.base):
            nxt, out = t.transitions[q][a]
            lines.append(f"t {q} {a} {nxt} {digits_to_str(out) or '-'}")
    return "\n".join(lines) + "\n"


def parse_fst(text: str) -> Fst:
    """Parse the canonical file format in one pass over its lines; inverse of
    format_fst on valid machines. It checks the text; `Fst` checks the
    machine: state count, start, targets."""
    directives = [(lineno, line.split()) for lineno, line in content_lines(text.splitlines())]

    def expect(idx, keyword, argc):
        if idx >= len(directives):
            raise FstSyntaxError(f"missing {keyword!r} directive")
        lineno, parts = directives[idx]
        if parts[0] != keyword or len(parts) != argc + 1:
            raise FstSyntaxError(f"expected {keyword!r} directive", line=lineno)
        return lineno, parts[1:]

    lineno, (version,) = expect(0, "fst", 1)
    if version != "1":
        raise FstSyntaxError(f"unsupported format version {version!r}", line=lineno)
    header = []
    for idx, keyword in enumerate(("base", "states", "start"), start=1):
        lineno, (field,) = expect(idx, keyword, 1)
        try:
            header.append(int(field))
        except ValueError:
            raise FstSyntaxError(f"{keyword} must be an integer", line=lineno) from None
    base, states, start = header
    check_base(base)

    # state -> its base slots, made when a line first names the state, so
    # memory follows the lines and not the header's state count
    rows: dict[int, list] = {}
    for lineno, parts in directives[4:]:
        if parts[0] != "t" or len(parts) != 5:
            raise FstSyntaxError(f"expected transition line 't q a q2 out'", line=lineno)
        try:
            q, a, nxt = int(parts[1]), int(parts[2]), int(parts[3])
        except ValueError:
            raise FstSyntaxError("transition fields must be integers", line=lineno) from None
        if not (0 <= q < states):
            raise StateOutOfRange(f"state out of range in transition", line=lineno)
        if not (0 <= a < base):
            raise InvalidDigit(f"input symbol {a} out of base {base}", line=lineno)
        row = rows.get(q)
        if row is None:
            row = rows[q] = [None] * base
        elif row[a] is not None:
            raise DuplicateTransition(f"transition ({q},{a}) defined twice", line=lineno)
        try:
            row[a] = (nxt, _output(parts[4], base))
        except ValueError as bad:
            raise InvalidDigit(f"output digit {bad.args[0]!r} out of base {base}", line=lineno) from None

    for q in range(states):
        row = rows.get(q, (None,))
        if None in row:
            raise MissingTransition(f"transition ({q},{row.index(None)}) missing")
    return Fst(base, states, start, tuple(tuple(rows[q]) for q in range(states)))


@lru_cache(maxsize=1024)
def _output(field: str, base: int) -> tuple[int, ...]:
    """The digits of a transition line's output field ("-" for none); a
    ValueError carries the first character that is no digit of the base."""
    if field == "-":
        return ()
    out = tuple(ord(c) - 48 for c in field)
    for c, d in zip(field, out):
        if not (0 <= d < base):
            raise ValueError(c)
    return out


def make_identity(base: int) -> Fst:
    """One state; every symbol is copied to the output."""
    check_base(base)
    row = tuple((0, (a,)) for a in range(base))
    return Fst(base, 1, 0, (row,))


def make_periodic_decoder(pattern: str, copies: int, base: int) -> Fst:
    """One state; every symbol emits `pattern` repeated `copies` times."""
    if not pattern:
        raise EmptyPattern("periodic decoder needs a nonempty pattern")
    if copies < 1:
        raise FsdimError(f"copies must be >= 1, got {copies}")
    check_precision(copies * len(pattern))  # the digits one transition emits
    burst = tuple(str_to_digits(pattern, base)) * copies
    row = tuple((0, burst) for _ in range(base))
    return Fst(base, 1, 0, (row,))


def huffman_code(freqs: dict, base: int) -> dict:
    """b-ary Huffman code over the given symbol frequencies.

    Pads with zero-frequency dummies so the code tree is full. The degenerate
    single-symbol case gets the length-1 codeword "0" (a transducer only emits
    on consuming input, so length 0 is not usable).
    """
    if not freqs:
        raise InsufficientTraining("no symbols to code")
    if len(freqs) == 1:
        return {next(iter(freqs)): (0,)}
    # tie-break deterministically on (frequency, first-seen order); each entry
    # carries its subtree's code, which a merge extends by the child's digit
    heap = [(f, i, {sym: ()}) for i, (sym, f) in enumerate(sorted(freqs.items(), key=lambda kv: kv[0]))]
    pad = (1 - len(heap)) % (base - 1) if base > 2 else 0
    for j in range(pad):
        heap.append((0, -1 - j, {}))
    heapify(heap)
    counter = len(heap)
    while len(heap) > 1:
        children = [heappop(heap) for _ in range(min(base, len(heap)))]
        counter += 1
        code = {sym: (d,) + cw for d, c in enumerate(children) for sym, cw in c[2].items()}
        heappush(heap, (sum(c[0] for c in children), counter, code))
    return heap[0][2]


def make_block_huffman(train: DigitStream, train_len: int, block_len: int) -> Fst:
    """Decoder for a b-ary Huffman code over the whole blocks among the
    first train_len digits of the training stream, in its base.

    States are the proper prefixes of codewords: reading a digit descends the
    code tree; completing a codeword emits its block and returns to the root.
    Digits that leave the prefix set self-loop emitting nothing, keeping the
    maps total.
    """
    base = train.base
    check_base(base)  # a stream built by hand has not checked it
    if block_len < 1:
        raise FsdimError(f"block length must be >= 1, got {block_len}")
    check_precision(train_len)  # the digits read to train
    prefix_len = train_len // block_len * block_len
    if prefix_len < block_len:
        raise InsufficientTraining("training prefix holds no complete block")
    digs = train.prefix(prefix_len)
    freqs = Counter(
        tuple(digs[i : i + block_len]) for i in range(0, prefix_len, block_len)
    )
    code = huffman_code(dict(freqs), base)

    prefixes = {(): 0}  # proper codeword prefixes -> state id
    for cw in code.values():
        for j in range(1, len(cw)):
            prefixes.setdefault(cw[:j], len(prefixes))
    decode = {cw: block for block, cw in code.items()}

    rows = []
    for prefix, q in sorted(prefixes.items(), key=lambda kv: kv[1]):
        row = []
        for a in range(base):
            ext = prefix + (a,)
            if ext in decode:
                row.append((0, decode[ext]))
            elif ext in prefixes:
                row.append((prefixes[ext], ()))
            else:
                row.append((q, ()))
        rows.append(tuple(row))
    return Fst(base, len(rows), 0, tuple(rows))
