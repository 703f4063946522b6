"""Information content of a real at a precision: the cheapest transducer
output whose value lands strictly within delta of x.

`kdelta` is the shared search core `infocontent.bfs` with one `advance`,
`_classify`. Every surviving non-accepted output is a prefix of the canonical
expansion of the lower interval endpoint L = x - delta, so pos is the matched
length along E(L), and each emitted digit is classified by comparison
against the expansions of L and of H = x + delta. All boundary decisions are
exact; no floats.

The interval depends only on (x, b, delta), not on the transducer, so it is
built once per (x, b, delta) and shared by every search at that precision: a
profile over F transducers and G precisions builds G intervals, not F * G.
The digit stream of a digit-only point is likewise made once per (x, b). Both
memos keep every key a process asks for; a digit file's key includes its size
and modification time, so a file rewritten on disk is read again.

`profile_rows` turns one search per precision into profile rows; it is the
row builder of `kdelta_profile` and of every estimator in `dimension` and
`separator`.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .digits import (
    BorrowStream,
    CarryStream,
    DigitStream,
    FractionStream,
    RealSpec,
    check_base,
    delta_exponent,
    digits_to_str,
)
from .errors import FsdimError, InsufficientDigits
from .fst import Fst
from .infocontent import (
    ACCEPT,
    CAP_EXCEEDED,
    FOUND,
    CostResult,
    best_of,
    bfs,
    enumerate_outputs,
)


@dataclass(frozen=True)
class PrecisionQuery:
    x: RealSpec
    base: int
    delta: Fraction
    cap_input: int

    def __post_init__(self):
        if self.delta <= 0 or self.delta > 1:
            raise FsdimError(f"delta must lie in (0, 1], got {self.delta}")
        if self.cap_input < 0:
            raise FsdimError(f"cap_input must be >= 0, got {self.cap_input}")

    @classmethod
    def at_scale(cls, x: RealSpec, base: int, n: int, cap_input=None) -> "PrecisionQuery":
        """Query at delta = base**-n with the default input cap 4 * (n + 2)."""
        check_base(base)
        if n < 0:
            raise FsdimError(f"n must be >= 0, got {n}")
        if cap_input is None:
            cap_input = 4 * (n + 2)
        return cls(x, base, Fraction(1, base ** n), cap_input)


def _file_stamp(x: RealSpec):
    """Part of a memo key that changes when a digit file changes on disk."""
    if x.kind != "digitfile":
        return None
    st = os.stat(x.path)
    return st.st_ino, st.st_mtime_ns, st.st_size


@cache
def _stream(x: RealSpec, base: int, stamp) -> DigitStream:
    return x.stream(base)


@cache
def _bounds(x: RealSpec, base: int, delta: Fraction, stamp) -> "_Bounds":
    return _Bounds(x, base, delta, stamp)


class _Bounds:
    """Digit-level view of the acceptance interval (x - delta, x + delta)."""

    def __init__(self, x: RealSpec, base: int, delta: Fraction, stamp):
        xval = x.exact_value(base)
        stream = None if xval is not None else _stream(x, base, stamp)
        n = delta_exponent(delta, base)
        if xval is None and n is None:
            raise InsufficientDigits(
                f"{x.describe()} has no exact value; delta must be base**-n"
            )

        if xval is not None:
            self.lambda_accepted = xval < delta
            if self.lambda_accepted:
                return
            low = xval - delta
            high = xval + delta
            self.low = FractionStream(low, base)
            self.high_unbounded = high >= 1
            self.high = None if self.high_unbounded else FractionStream(high, base)
        else:
            head = stream.prefix(n)
            self.lambda_accepted = all(d == 0 for d in head)  # x < b**-n, strictly
            if self.lambda_accepted:
                return
            self.low = BorrowStream(stream, n)
            self.high_unbounded = all(d == base - 1 for d in head)  # x + b**-n >= 1
            self.high = None if self.high_unbounded else CarryStream(stream, n)

        if not self.high_unbounded:
            # First index where the endpoint expansions differ; they straddle
            # an interval of width 2*delta so a bounded scan must find it.
            limit = _split_bound(delta, base) + 4
            for i in range(limit):
                if self.low.digit(i) != self.high.digit(i):
                    self.split = i
                    break
            else:
                raise AssertionError("endpoint expansions failed to separate")
        else:
            self.split = None


def _split_bound(delta: Fraction, base: int) -> int:
    # smallest m with base**-m <= 2*delta, so expansions differ by index m;
    # with delta = num/den that is den <= 2*num*base**m
    m = 0
    reach = 2 * delta.numerator
    while reach < delta.denominator:
        reach *= base
        m += 1
    return m


def kdelta(t: Fst, q: PrecisionQuery) -> CostResult:
    """Minimal input length whose output value lies strictly inside
    (x - delta, x + delta), with the witness input and output."""
    if t.base != q.base:
        raise FsdimError(f"transducer base {t.base} != query base {q.base}")
    bounds = _bounds(q.x, q.base, q.delta, _file_stamp(q.x))
    if bounds.lambda_accepted:
        return CostResult(FOUND, 0, "", "")

    low = bounds.low.digit
    high = bounds.high
    high_unbounded = bounds.high_unbounded
    split = bounds.split

    def _classify(ell, out):
        """Classify the output E(L)[:ell] + out: ACCEPT, None (pruned), or the
        new matched length along E(L) of a still-live output."""
        j = ell
        for idx in range(len(out)):
            d = out[idx]
            e = low(j)
            if d == e:
                j += 1
                continue
            if d < e:
                return None
            # diverged above E(L): value now strictly exceeds L
            if high_unbounded:
                return ACCEPT
            if j < split:
                return None  # also exceeds E(H) here, value >= H
            if j > split:
                return ACCEPT  # already lexicographically below E(H)
            h = high.digit(j)
            if d < h:
                return ACCEPT
            if d > h:
                return None
            # tracking E(H) for the rest of this emission
            k = j + 1
            for idx2 in range(idx + 1, len(out)):
                d2 = out[idx2]
                h2 = high.digit(k)
                if d2 < h2:
                    return ACCEPT
                if d2 > h2:
                    return None
                k += 1
            # output equals E(H)[:k]; strictly below H unless H terminates by k
            return None if high.is_zero_from(k) else ACCEPT
        return j

    return bfs(t, _classify, q.cap_input)


def _within(x: RealSpec, base: int, value: Fraction, delta: Fraction) -> bool:
    """Exact test |value - x| < delta, also for digit-only specs."""
    xval = x.exact_value(base)
    if xval is not None:
        return abs(value - xval) < delta
    stream = x.stream(base)
    return stream.compare(value - delta) > 0 and stream.compare(value + delta) < 0


def kdelta_oracle(t: Fst, q: PrecisionQuery, max_len: int = 12) -> CostResult:
    """Enumerate every input up to max_len in length-then-lex order and return
    the first whose output value falls strictly inside the interval."""
    if t.base != q.base:
        raise FsdimError(f"transducer base {t.base} != query base {q.base}")
    for pi, out, _ in enumerate_outputs(t, max_len):
        value = Fraction(_digits_num(out, t.base), t.base ** len(out))
        if _within(q.x, q.base, value, q.delta):
            return CostResult(FOUND, len(pi), digits_to_str(pi), digits_to_str(out))
    return CostResult(CAP_EXCEEDED)


def _digits_num(out, base: int) -> int:
    num = 0
    for d in out:
        num = num * base + d
    return num


class KdeltaOracleTable:
    """All output values of a transducer up to an input length, indexed for
    fast interval queries. Batch form of kdelta_oracle: one enumeration pass
    answers any (x, delta) question with the same semantics."""

    def __init__(self, t: Fst, max_len: int):
        self.t = t
        self.max_len = max_len
        self.scale = max_len * max(1, t.max_burst())  # all values align to base**-scale
        best: dict[int, int] = {}
        base = t.base
        unit = base ** self.scale
        for pi, out, _ in enumerate_outputs(t, max_len):
            key = _digits_num(out, base) * (unit // base ** len(out))
            if key not in best:
                best[key] = len(pi)
        self.by_cost: list[list[int]] = [[] for _ in range(max_len + 1)]
        for key, cost in best.items():
            self.by_cost[cost].append(key)
        for keys in self.by_cost:
            keys.sort()

    def query(self, x: Fraction, delta: Fraction) -> CostResult:
        base = self.t.base
        unit = base ** self.scale
        lo, hi = x - delta, x + delta
        min_key = (lo.numerator * unit) // lo.denominator + 1
        max_key = -((-hi.numerator * unit) // hi.denominator) - 1
        for cost, keys in enumerate(self.by_cost):
            i = bisect_left(keys, min_key)
            if i < len(keys) and keys[i] <= max_key:
                return CostResult(FOUND, cost)
        return CostResult(CAP_EXCEEDED)


@dataclass(frozen=True)
class ProfileRow:
    n: int
    cost: int
    ratio: Fraction
    running_inf: Fraction
    flags: str = ""  # "cap", "unreachable" or "insufficient" when nothing was found at this n


def profile_rows(grid, search) -> list[ProfileRow]:
    """Rows (n, cost, cost/n, running infimum) for each n in grid, where
    search(n) returns a CostResult.

    A row whose search found nothing is flagged "cap" or "unreachable", and
    one whose point ran out of digits (InsufficientDigits) "insufficient".
    Flagged rows carry the running infimum unchanged and are left out of
    every estimate.
    """
    rows = []
    running = None
    for n in grid:
        try:
            res = search(n)
        except InsufficientDigits:
            flags = "insufficient"
        else:
            if res.status == FOUND:
                ratio = Fraction(res.cost, n)
                running = ratio if running is None else min(running, ratio)
                rows.append(ProfileRow(n, res.cost, ratio, running))
                continue
            flags = "cap" if res.status == CAP_EXCEEDED else "unreachable"
        rows.append(ProfileRow(n, -1, Fraction(0), Fraction(0) if running is None else running, flags))
    return rows


def kdelta_profile(ts, x: RealSpec, base: int, n_max: int,
                   cap_input=None, grid=None) -> list[ProfileRow]:
    """Rows (n, min cost over the family, cost/n, running infimum) for
    n = 1..n_max (or a supplied sub-grid) at delta = base**-n.

    A row where no transducer found an output is flagged "cap" when any of
    them hit a cap, else "unreachable"; see profile_rows.
    """
    ts = list(ts)
    if not ts:
        raise FsdimError("need at least one transducer")
    if grid is None:
        grid = range(1, n_max + 1)
    return profile_rows(grid, lambda n: best_of(
        kdelta(t, PrecisionQuery.at_scale(x, base, n, cap_input)) for t in ts))
