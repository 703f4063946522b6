"""Separator enumerators: total maps from strings onto a countable dense
subset of [0,1), and the information content / dimension estimates they
induce.

Three kinds are provided. `canonical` sends a string to its base-b value,
`blockperm` applies a block permutation first (a reordering of the finite
base-b rationals), and `targeted(x)` is a demonstration enumerator whose
all-zero inputs enumerate exponentially long prefixes of a chosen point, so
that the point's enumerator dimension collapses toward 0 while its canonical
dimension is untouched. Density of the image is guaranteed by construction
for these kinds; it is declared, not verified.

Each enumerator carries its kind's search, with `kdelta`'s signature, and
`ktf_delta(t, f, q, search, witness)` is that signature with f in front: it
asks f's search and nothing else. At the canonical enumerator the content is
K_T(x, delta) itself, so its search is `kdelta`; the targeted one's is
`kdelta` and one more search whose pos is the number of zeros emitted.
Whether 0^k is accepted, below the interval or dead is decided once per
(query, k) for every transducer's search, from one evaluation of f(0^k),
and kept per stream of x. The verdicts read x through the stream of the
row's search, which `kdelta` has checked is a search at x, or through
`shared_stream`'s without one: so a row reads one version of a digit file,
and a file that changes is decided afresh for a search opened after it
changed.
f(0^k) reads the first 2**k digits of the target, so it is refused once
2**k passes the precision ceiling, before any is read. Neither search uses
a float or calls f per node, and neither enumerates. Both refuse what
`kdelta` refuses, since the query does: a digit-only point at a delta that
is not base**-n cannot be asked.

`ktf_delta`'s oracle is `precision.kdelta_oracle(t, q, f)`, under f's value
map: one loop over `infocontent.distinct_outputs` for both quantities,
independent of the searches it checks. `blockperm` has no search of its own
yet, so its search is that enumeration, exponential in the input cap: the one
production call of an oracle. Its batch form is
`precision.KdeltaOracleTable(t, max_len, f)`.

`dimf_estimate` is `dimension.estimate` with `ktf_delta` rows in place of
`kdelta` rows. It opens one `PrecisionSearch` per (transducer, point), so a
canonical or targeted profile walks each once; blockperm's search ignores
it. Its rows ask with `PrecisionQuery.at_scale`, built from n, so no row
builds b^-n or recovers n from it; the targeted zero verdicts read delta
once per query, for every transducer's row at that n.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .digits import RealSpec, check_precision, content_lines, real_value, str_to_digits
from .dimension import DEFAULT_WINDOW_FRAC, EstimateReport, estimate
from .errors import FsdimError, InvalidPermutation
from .fst import Fst
from .infocontent import CostResult, Search, best_of
from .precision import (
    PrecisionQuery,
    PrecisionSearch,
    kdelta,
    kdelta_oracle,
    open_search,
    profile_rows,
    shared_stream,
)

DEFAULT_MAX_INPUT_LEN = 20


class SeparatorEnumerator(namedtuple("SeparatorEnumerator", "base kind value search")):
    """Total map `value` from digit strings to rationals in [0,1), read
    through `eval`. `search` answers `ktf_delta` for the kind, with
    `kdelta`'s signature (t, q, search, witness)."""

    __slots__ = ()

    def eval(self, w: str) -> Fraction:
        return self.value(w)


def make_canonical(base: int) -> SeparatorEnumerator:
    return SeparatorEnumerator(base, "canonical", lambda w: real_value(w, base), kdelta)


def make_block_permuted(block_len: int, permutation: dict, base: int) -> SeparatorEnumerator:
    """Pad the string to a block multiple with trailing zeros, permute each
    block, and take the value. `permutation` maps length-m digit strings to
    length-m digit strings and must be a bijection on all base**m blocks."""
    if block_len < 1:
        raise InvalidPermutation(f"block length must be >= 1, got {block_len}")
    is_block = lambda w: len(w) == block_len and all(0 <= ord(c) - 48 < base for c in w)
    # base**m distinct blocks are all of them. No set of all blocks is built,
    # and base**m is computed only once some key has shown that m is small
    images = set(permutation.values())
    if not (permutation and all(map(is_block, permutation)) and all(map(is_block, images))
            and len(images) == len(permutation) == base ** block_len):
        raise InvalidPermutation(
            f"permutation must map all {base}**{block_len} blocks onto themselves"
        )

    def eval_fn(w: str) -> Fraction:
        if w.strip("0123456789"[:base]):
            str_to_digits(w, base)  # raises InvalidDigit, naming the character
        pad = (-len(w)) % block_len
        w = w + "0" * pad
        permuted = "".join(permutation[w[i : i + block_len]] for i in range(0, len(w), block_len))
        return real_value(permuted, base)

    def enumeration(t: Fst, q: PrecisionQuery, search: PrecisionSearch = None,
                    witness: bool = True) -> CostResult:
        return kdelta_oracle(t, q, f)  # exponential in q.cap_input (ROADMAP item 5)

    f = SeparatorEnumerator(base, "blockPermuted", eval_fn, enumeration)
    return f


def make_targeted(x: RealSpec, base: int) -> SeparatorEnumerator:
    """Enumerator whose k-th all-zero string hits the first 2**k digits of x;
    every other string keeps its canonical value, so the image still contains
    all finite base-b rationals."""
    stream = shared_stream(x, base)

    def eval_fn(w: str) -> Fraction:  # real_value validates every w but 0^k
        if w and set(w) == {"0"}:
            check_precision(_target_len(len(w)))  # refused before 2**k digits are read
            return real_value(stream.prefix_str(_target_len(len(w))), base)
        return real_value(w, base)

    verdicts = {}  # (x's stream, query) -> its zero verdicts, for every transducer

    def targeted_search(t: Fst, q: PrecisionQuery, search: PrecisionSearch = None,
                        witness: bool = True) -> CostResult:
        # f keeps the canonical value of an output with a nonzero digit, and
        # 0^k (k >= 1) has canonical value f(empty): kdelta answers every
        # output but 0^k exactly, and _ZeroSearch completes the minimum
        best = kdelta(t, q, search, witness)
        x_stream = shared_stream(q.x, q.base) if search is None else search.stream  # what kdelta read
        zero = verdicts.get((x_stream, q))
        if zero is None:
            zero = verdicts[x_stream, q] = _ZeroVerdicts(f, q, x_stream.compare, stream.value)
        zeros = _ZeroSearch(t, zero)
        return best_of((best, zeros.answer(zeros.GOAL, best.cost if best.found else q.cap_input, witness)))

    f = SeparatorEnumerator(base, "targeted", eval_fn, targeted_search)
    return f


def _target_len(k: int) -> int:
    """Digits of the target that the targeted enumerator gives 0^k."""
    return 2 ** k


def parse_enumerator(text: str, base: int) -> SeparatorEnumerator:
    """CLI grammar: canonical | blockperm:m:PERMFILE | targeted:SPEC."""
    if text == "canonical":
        return make_canonical(base)
    head, sep, rest = text.partition(":")
    if head == "targeted" and sep:
        return make_targeted(RealSpec.parse(rest), base)
    if head == "blockperm" and sep:
        m_s, sep2, path = rest.partition(":")
        if not sep2:
            raise FsdimError(f"bad enumerator spec {text!r}, want blockperm:m:PERMFILE")
        try:
            m = int(m_s)
        except ValueError:
            raise FsdimError(f"bad block length {m_s!r} in {text!r}") from None
        return make_block_permuted(m, load_permutation(path), base)
    raise FsdimError(f"unknown enumerator kind {text!r}")


def load_permutation(path: str) -> dict:
    """One 'block -> block' pair per line; '#' comments allowed."""
    permutation = {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in content_lines(fh):
            parts = line.split("->")
            if len(parts) != 2:
                raise InvalidPermutation(f"bad permutation line {lineno} in {path}")
            src, dst = parts[0].strip(), parts[1].strip()
            if src in permutation:
                raise InvalidPermutation(f"block {src!r} mapped twice in {path}")
            permutation[src] = dst
    return permutation


def ktf_delta(t: Fst, f: SeparatorEnumerator, q: PrecisionQuery, search: PrecisionSearch = None,
              witness: bool = True) -> CostResult:
    """Minimal input length (at most q.cap_input) whose output w satisfies
    |f(w) - x| < delta, with the witness input and output unless `witness`
    is false (blockperm's enumeration has its witness either way). This is
    `kdelta` with f in front: the query is in f's base, and f's search
    refuses a T of another base.

    f's search answers, as the module docstring describes for each kind;
    `search` is the open `kdelta` search for T at q.x, if any. Not found is
    `unreachable` when a search proved that no input qualifies and
    `cap_exceeded` when the cap stopped it.
    """
    if f.base != q.base:
        raise FsdimError(f"enumerator base {f.base} != query base {q.base}")
    return f.search(t, q, search, witness)


_ACCEPT, _BELOW, _DEAD = "accept", "below", "dead"


class _ZeroVerdicts:
    """What the all-zero outputs 0^k, k >= 1, are at one query and one stream
    of x, decided once per k for every transducer's `_ZeroSearch`: accepted
    when |f(0^k) - x| < delta, else dead or below.

    f(0^k) is the _target_len(k)-digit truncation of the target, so every
    f(0^k') with k' >= k lies in [f(0^k), f(0^k) + b**-_target_len(k)); once
    that range misses the interval, no k' >= k is accepted: k is dead. With
    y, the target's exact value, the range is [f(0^k), y]. f(0^k) never
    decreases in k, so the accepted k form one interval: a k rejected but
    not dead has f(0^k) <= x - delta, and so has every k' <= k: k is below.
    `below` is the largest k found below and `dead` the least found dead, so
    f(0^k) is evaluated only for a k between them, and only once.
    """

    def __init__(self, f: SeparatorEnumerator, q: PrecisionQuery, cmp, y):
        self.f, self.base, self.delta, self.y = f, q.base, q.delta, y
        self.cmp = cmp  # sign of x - r, exact
        self.below, self.dead, self.accepted = 0, None, set()  # 0^0 is no output

    def __call__(self, k: int) -> str:
        if k <= self.below:
            return _BELOW
        if k in self.accepted:
            return _ACCEPT
        if self.dead is not None and k >= self.dead:
            return _DEAD
        value = self.f.eval("0" * k)
        below_high = self.cmp(value - self.delta) > 0
        if below_high and self.cmp(value + self.delta) < 0:
            self.accepted.add(k)
            return _ACCEPT
        reach = value + Fraction(1, self.base ** _target_len(k)) if self.y is None else self.y
        if not below_high or self.cmp(reach + self.delta) >= 0:
            self.dead = k
            return _DEAD
        self.below = k
        return _BELOW


class _ZeroSearch(Search):
    """Cheapest input whose output is 0^k, k >= 1, with |f(0^k) - x| < delta:
    pos is k, transitions that emit a nonzero digit are dropped, and the
    query's `_ZeroVerdicts` decides each k."""

    GOAL = "0^k"  # the one goal: some accepted all-zero output

    def __init__(self, t: Fst, verdicts: _ZeroVerdicts):
        super().__init__(t, 0)
        self.verdicts = verdicts

    def advance(self, k, out):
        k2 = k + len(out)
        if self.resolved or any(out):
            return None
        verdict = self.verdicts(k2)
        if verdict is _ACCEPT:
            self.hits.append(self.GOAL)
        return k2 if verdict is _BELOW else None


def dimf_estimate(family, f: SeparatorEnumerator, xs, n_max: int,
                  max_input_len: int = DEFAULT_MAX_INPUT_LEN) -> EstimateReport:
    """The point and set estimators' shape (`dimension.estimate`) with
    ktf_delta in place of kdelta: the least, over the family, of the worst
    point's least cost/n over the window [n_lo, n_max]. That bounds the same
    reading over all transducers from above; it is not a bound, either way,
    on the liminf that defines the enumerator dimension. xs is a list of
    points in f's base."""
    base = f.base
    def rows_of(t, x, grid):
        search = open_search(t, x, base, max(grid))
        return profile_rows(grid, lambda n: ktf_delta(
            t, f, PrecisionQuery.at_scale(x, base, n, max_input_len), search, False))

    return estimate(family, base, xs, n_max, DEFAULT_WINDOW_FRAC, rows_of)
