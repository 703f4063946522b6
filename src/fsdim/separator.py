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

`ktf_delta` answers two kinds with the shared search core
(`infocontent.Search`), with no float and no call to f per node:

- canonical: `kdelta` itself, answered by the open `precision.PrecisionSearch`
  of the row's (transducer, point) when the caller passes one;
- targeted: the `best_of` `kdelta`'s answer and one more search whose pos is
  the number of zeros emitted, which evaluates f(0^k) once per k.

`ktf_delta_oracle` reads the distinct outputs of `infocontent.distinct_outputs`,
independent of these searches, as the reference they are tested against. It
also answers every other enumerator (`blockperm` and any built by hand), and
a digit-only point at a delta that is not base**-n, which `kdelta` cannot
express. Its batch form is `precision.KdeltaOracleTable(t, max_len, f)`:
one walk per (transducer, enumerator) answers every (x, delta).

`dimf_estimate` is `dimension.estimate` with `ktf_delta` rows in place of
`kdelta` rows. For the canonical and targeted kinds it opens one
`PrecisionSearch` per (transducer, point), so a profile walks each once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from .digits import RealSpec, delta_exponent, digits_to_str, real_value, str_to_digits
from .dimension import DEFAULT_WINDOW_FRAC, EstimateReport, estimate
from .errors import FsdimError, InvalidPermutation
from .fst import Fst
from .infocontent import CAP_EXCEEDED, FOUND, CostResult, Search, best_of, distinct_outputs
from .precision import (
    PrecisionQuery,
    PrecisionSearch,
    kdelta,
    open_search,
    profile_rows,
    shared_stream,
    within_at,
)

DEFAULT_MAX_INPUT_LEN = 20


class SeparatorEnumerator:
    """Total map from digit strings to rationals in [0,1)."""

    def __init__(self, base: int, kind: str, eval_fn, description: str):
        self.base = base
        self.kind = kind
        self._eval = eval_fn
        self.description = description
        # the kind's boundary-guided search(t, x, delta, max_input_len), set by
        # the factory; None leaves ktf_delta to the enumeration
        self._search = None

    def eval(self, w: str) -> Fraction:
        return self._eval(w)


def make_canonical(base: int) -> SeparatorEnumerator:
    f = SeparatorEnumerator(base, "canonical", lambda w: real_value(w, base),
                            f"canonical base {base}")
    f._search = _canonical_search
    return f


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
        str_to_digits(w, base)
        pad = (-len(w)) % block_len
        w = w + "0" * pad
        permuted = "".join(permutation[w[i : i + block_len]] for i in range(0, len(w), block_len))
        return real_value(permuted, base)

    return SeparatorEnumerator(base, "blockPermuted", eval_fn,
                               f"block-permuted m={block_len} base {base}")


def make_targeted(x: RealSpec, base: int) -> SeparatorEnumerator:
    """Enumerator whose k-th all-zero string hits the first 2**k digits of x;
    every other string keeps its canonical value, so the image still contains
    all finite base-b rationals."""
    stream = x.stream(base)

    def eval_fn(w: str) -> Fraction:
        str_to_digits(w, base)
        if w and set(w) == {"0"}:
            return stream.exact_value_up_to(_target_len(len(w)))
        return real_value(w, base)

    f = SeparatorEnumerator(base, "targeted", eval_fn, f"targeted({x.describe()}) base {base}")
    f._search = partial(_targeted_search, f)
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
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split("->")
            if len(parts) != 2:
                raise InvalidPermutation(f"bad permutation line {lineno} in {path}")
            src, dst = parts[0].strip(), parts[1].strip()
            if src in permutation:
                raise InvalidPermutation(f"block {src!r} mapped twice in {path}")
            permutation[src] = dst
    return permutation


def ktf_delta(t: Fst, f: SeparatorEnumerator, x: RealSpec, delta: Fraction,
              max_input_len: int = DEFAULT_MAX_INPUT_LEN,
              search: PrecisionSearch = None, witness: bool = True) -> CostResult:
    """Minimal input length (at most max_input_len) whose output w satisfies
    |f(w) - x| < delta, with the witness input and output unless `witness`
    is false (the enumeration oracle has its witness either way).

    The canonical and targeted enumerators are answered by the exact
    boundary-guided searches described in the module docstring, so for them
    delta must lie in (0, 1], as for `kdelta`; `search` is the open
    `kdelta` search for T at x, if any. Everything else falls back to
    `ktf_delta_oracle`. Not found is `unreachable` when a search proved that
    no input qualifies and `cap_exceeded` when the input-length cap stopped it.
    """
    _check_args(t, f, max_input_len)
    if f._search is None:
        return ktf_delta_oracle(t, f, x, delta, max_input_len)
    if not 0 < delta <= 1:
        raise FsdimError(f"delta must lie in (0, 1], got {delta}")
    if x.exact_value(t.base) is None and delta_exponent(delta, t.base) is None:
        # kdelta bounds a digit-only point's interval only at delta = base**-n
        return ktf_delta_oracle(t, f, x, delta, max_input_len)
    return f._search(t, x, delta, max_input_len, search, witness)


def _check_args(t: Fst, f: SeparatorEnumerator, max_input_len: int) -> None:
    if t.base != f.base:
        raise FsdimError(f"transducer base {t.base} != enumerator base {f.base}")
    if max_input_len < 0:
        raise FsdimError(f"max_input_len must be >= 0, got {max_input_len}")


def _canonical_search(t: Fst, x: RealSpec, delta: Fraction, max_len: int,
                      search: PrecisionSearch = None, witness: bool = True) -> CostResult:
    return kdelta(t, PrecisionQuery(x, t.base, delta, max_len), search, witness)


def _targeted_search(f: SeparatorEnumerator, t: Fst, x: RealSpec, delta: Fraction,
                     max_len: int, search: PrecisionSearch = None,
                     witness: bool = True) -> CostResult:
    """An output with a nonzero digit keeps its canonical value, and a
    nonempty all-zero output has canonical value 0, the value f gives the
    empty output; so kdelta answers every output but 0^k (k >= 1) exactly,
    and one more search over the all-zero outputs completes the minimum."""
    best = _canonical_search(t, x, delta, max_len, search, witness)
    zeros = _ZeroSearch(f, t, x, delta)
    return best_of((best, zeros.answer(zeros.GOAL, best.cost if best.found else max_len, witness)))


class _ZeroSearch(Search):
    """Cheapest input whose output is 0^k, k >= 1, with |f(0^k) - x| < delta.

    pos is k; transitions that emit a nonzero digit are dropped and f(0^k) is
    evaluated once per k. f(0^k) is the _target_len(k)-digit truncation of
    the target, so every f(0^k') with k' >= k lies in
    [f(0^k), f(0^k) + b**-_target_len(k)); once that range misses the
    interval, no configuration with k' >= k can be accepted and all are
    dropped.
    """

    GOAL = "0^k"  # the one goal: some accepted all-zero output

    def __init__(self, f: SeparatorEnumerator, t: Fst, x: RealSpec, delta: Fraction):
        super().__init__(t, 0)
        self.f, self.delta = f, delta
        self.cmp = shared_stream(x, t.base).compare  # sign of x - r, exact
        self.rejected: set = set()
        self.dead = None  # least k from which no all-zero output is accepted

    def advance(self, k, out):
        k2 = k + len(out)
        if self.resolved or any(out) or (self.dead is not None and k2 >= self.dead):
            return None
        if k2 and k2 not in self.rejected:
            value = self.f.eval("0" * k2)
            below_high = self.cmp(value - self.delta) > 0
            if below_high and self.cmp(value + self.delta) < 0:
                self.hits.append(self.GOAL)
                return None
            self.rejected.add(k2)
            reach = value + Fraction(1, self.t.base ** _target_len(k2))
            if not below_high or self.cmp(reach + self.delta) >= 0:
                self.dead = k2
                return None
        return k2


def ktf_delta_oracle(t: Fst, f: SeparatorEnumerator, x: RealSpec, delta: Fraction,
                     max_input_len: int = DEFAULT_MAX_INPUT_LEN) -> CostResult:
    """Enumeration oracle for ktf_delta: the first distinct output w, inputs
    in length-then-lex order, with |f(w) - x| < delta. f is evaluated once
    per output, with no interval bounds, so it works for any enumerator
    (exponential; desk-scale by contract). Not found is cap_exceeded."""
    _check_args(t, f, max_input_len)
    near = within_at(x, t.base)
    for pi, out in distinct_outputs(t, max_input_len):
        w = digits_to_str(out)
        if near(f.eval(w), delta):
            return CostResult(FOUND, len(pi), digits_to_str(pi), w)
    return CostResult(CAP_EXCEEDED)


def dimf_estimate(family, f: SeparatorEnumerator, xs, base: int, n_max: int,
                  window_frac: Fraction = DEFAULT_WINDOW_FRAC,
                  max_input_len: int = DEFAULT_MAX_INPUT_LEN) -> EstimateReport:
    """Enumerator-dimension upper bound; the point and set estimators' shape
    (`dimension.estimate`) with ktf_delta in place of kdelta."""
    if isinstance(xs, RealSpec):
        xs = [xs]
    def rows_of(t, x, grid):
        search = None if f._search is None else open_search(t, x, base, max(grid))
        return profile_rows(grid, lambda n: ktf_delta(t, f, x, Fraction(1, base ** n),
                                                      max_input_len, search, witness=False))

    return estimate(family, base, xs, n_max, window_frac, rows_of)
