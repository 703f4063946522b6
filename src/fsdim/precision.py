"""Information content of a real at a precision: the cheapest transducer
output whose value lands strictly within delta of x.

`PrecisionSearch` is one resumable search per (transducer, point) that
answers `kdelta` at delta = b^-n for every n up to a largest precision. A
configuration is (state, j, D): the output w has j digits and
D = b^j * val(w) - floor(b^j * x), an exact integer, so equal configurations
have equal outputs and deduplication is exact. Emitting digit d at index j
maps D to b*D + d - x_j. With t_j the value of x's tail from index j,
|val(w) - x| = b^-j * |D - t_j|, so the largest n that w solves is read off
x's digits (`PrecisionSearch._through`). The intervals (x - b^-n, x + b^-n)
are nested, so the search keeps S, the largest solved precision, which only
moves up: an accepting emission solves every n in (S, N] at once. A
configuration is kept only while its output is a prefix of the expansion of
x - b^-(S+1), the lower-endpoint track; every other configuration has been
accepted or never can be. After a level that moved S, `walk` calls the hook
`_prune`, which cuts the frontier to that track; so when a level starts every
frontier configuration is on the track of g = S + 1, and none was accepted at
the goal of the level that reached it, which is at most g. From j = g on that
track is D = -b^(j-g); a configuration there holds e = j - g in place of D,
as the pos (-j, e), and while one emission runs D is -b^e plus an offset
below b^k after k digits. So `advance`, the pruning bound and `_on_track`
read only small integers, and a level costs the same however far past its
goal an output has run: a walk is linear in its input cap. x[:j] solves
every n <= j, and one unit below it every n < j, so a pos that `advance`
reads while g <= hi takes one of three forms, and the helpers handle only
these:
- (j, 0) with j < g;
- (j, -1) with j <= g;
- (-j, e) with e >= 1, on the track of a goal j - e <= g.
x's digits are read from the stream's buffer, which holds x[:hi] from the
start; a read past its end goes through `DigitStream.digit`, which fills it.
`advance` checks only what a transition can change:
- an empty emission leaves its pos as it is, so it cannot be accepted; it is
  kept unchecked, and if an accept earlier in the level moved g, `_prune`
  drops it with the frontier. Off the track of one goal is off the track of
  every later one, so the visited entry it leaves drops nothing;
- an output with D == 0 is x[:j]: it solves n up to x's first nonzero digit
  from j, and when it is not accepted that digit lies below g, so it is on
  the track without a check;
- an output with D == -1 solves n up to j - 1;
- an output on the track of g past g ends the emission on it (offset 0), or
  above it, which solves g alone, or below it, outside every interval;
- a pos (-j, e) on the track of a goal below g is dropped at once: every
  continuation of its output lies at or below x - b^-g.
`_settle` decides how an emission ends. All decisions are exact; no floats.

Each row goes through `kdelta` with a `PrecisionQuery`, which carries its
exponent n and an input cap of at most `MAX_CAP_INPUT`, the default cap at
the largest precision (a walk's time and memory grow linearly with its
cap), and through `profile_rows`, the one row builder, which shares one
`ProfileRow` per (n, cost, flags): a row's query, answer and row are shared
values. `at_scale`, the one process-wide query cache, builds one
query per (point, base, n, cap) for every transducer's row at that
precision. It takes n from its caller, and builds delta = b^-n only when
something reads it, which no row with an open search does; with the
all-zero-tail test of an exact point one modular power
(`DigitStream.is_zero_from`), no row builds a number that grows with n.
`kdelta_profile`, whose members' searches read one stream of x, the
estimators in `dimension` and `separator.dimf_estimate` (whose `ktf_delta`
rows ask with the same queries) pass in the open search of the row's
(transducer, point). `kdelta` refuses a search for another transducer or
point once, before it picks a path; without a search it runs a fresh
one-precision search on the same core, on `shared_stream`'s stream. A
search keeps the stream it was opened on, and a row that passes it reads x
through that stream alone, so one search reads one version of a digit
file. An accept writes the
precisions it solves into `resolved`, all with one hit. Rows ask with
`witness=False` and read the cost off that hit, so no row builds a witness;
only a caller that prints one, such as the `kdelta` command, asks for it.
One n <= S missing there was given up; giving up goals on an empty frontier
prunes nothing. A finite digit file gives `InsufficientDigits` for a
precision past its last digit, or one that its digits do not decide; a
level of the shared search that they do not decide spends it, and each
open row goes to a fresh search for its precision alone, on the same
stream.

`kdelta_oracle` and `KdeltaOracleTable`, the one interval table, re-derive
`kdelta` from `infocontent.distinct_outputs`, never from a search or the
shared stream. Both read outputs through one value map: canonical values,
or a separator enumerator f's, so `kdelta_oracle(t, q, f)`, which reads
inputs up to q.cap_input as `kdelta` does, is also `ktf_delta`'s oracle, and
`blockperm`'s search until it has one of its own. Under canonical values
the oracle walks only the outputs whose cylinder meets the interval, so it
answers at n in the hundreds; under f it enumerates every output. Either
walk proves unreachable when a level of it empties before the cap, and
reads cap_exceeded only while the level at the cap is live, as a search
does.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from collections import namedtuple
from fractions import Fraction
from functools import cache, lru_cache

from .digits import (
    MAX_PRECISION,
    DigitStream,
    RealSpec,
    check_base,
    check_precision,
    check_scale,
    delta_exponent,
    digits_to_int,
    digits_to_str,
    floor_log,
)
from .errors import FsdimError, InsufficientDigits
from .fst import Fst
from .infocontent import (
    CAP_EXCEEDED,
    FOUND,
    CostResult,
    Search,
    best_of,
    distinct_outputs,
    first_output,
)


#: the n whose default input cap a delta that is not base**-n gets
FALLBACK_SCALE = 14
#: the largest input cap, the default cap at the largest precision: a walk
#: costs time and memory linear in its cap
MAX_CAP_INPUT = 4 * (MAX_PRECISION + 2)


class PrecisionQuery(namedtuple("PrecisionQuery", "x base other_delta cap_input n")):
    """The interval (x - delta, x + delta) in base `base`, searched with at
    most cap_input inputs, by default 4 * (n + 2), and refused above
    `MAX_CAP_INPUT`. n is the exponent with delta == base**-n, else None,
    and then the default cap reads n as FALLBACK_SCALE. The constructor sets
    n from delta; given delta None, it takes n from its caller. A query
    keeps delta itself only when n is None, as `other_delta`, so equal
    fields mean an equal (x, base, delta, cap); base**-n is built only when
    `delta` is read. The repr shows delta and leaves n out.

    A point with no exact value, such as a digit file, is bounded only at
    delta = base**-n, so at any other delta the query is refused
    (`InsufficientDigits`): no search, and no enumerator's, is asked it."""

    __slots__ = ()

    def __new__(cls, x: RealSpec, base: int, delta: Fraction | None, cap_input=None, n=None):
        if delta is None:
            check_scale(base, n)
        else:
            check_base(base)
            if delta <= 0 or delta > 1:
                raise FsdimError(f"delta must lie in (0, 1], got {delta}")
            n = delta_exponent(delta, base)
            if n is not None:
                delta = None
            elif x.exact_value(base) is None:
                raise InsufficientDigits(f"{x.describe()} has no exact value; delta must be base**-n")
        if cap_input is None:
            cap_input = 4 * ((FALLBACK_SCALE if n is None else n) + 2)
        elif cap_input < 0:
            raise FsdimError(f"the input cap must be >= 0, got {cap_input}")
        elif cap_input > MAX_CAP_INPUT:
            raise FsdimError(f"the input cap must be <= {MAX_CAP_INPUT}, got {cap_input}")
        return super().__new__(cls, x, base, delta, cap_input, n)

    @property
    def delta(self) -> Fraction:
        return self.other_delta if self.n is None else Fraction(1, self.base ** self.n)

    def __repr__(self):
        return (f"PrecisionQuery(x={self.x!r}, base={self.base!r}, delta={self.delta!r},"
                f" cap_input={self.cap_input!r})")

    @classmethod
    @cache
    def at_scale(cls, x: RealSpec, base: int, n: int, cap_input=None) -> "PrecisionQuery":
        """The query at delta = base**-n, one per (x, base, n, cap_input) per
        process: every transducer's row at that n shares it. It is built
        from n, so no row builds base**n or recovers n from it."""
        return cls(x, base, None, cap_input, n)


def shared_stream(x: RealSpec, base: int) -> DigitStream:
    """x's digit stream in base, one per (x, base) for every search at x; a
    digit file is read again once it changes on disk."""
    stamp = None
    if x.kind == "digitfile":
        st = os.stat(x.path)
        stamp = st.st_ino, st.st_mtime_ns, st.st_size
    return _stream(x, base, stamp)


@cache
def _stream(x: RealSpec, base: int, stamp) -> DigitStream:
    return x.stream(base)


class PrecisionSearch(Search):
    """`kdelta` at delta = b**-n for every n up to hi at one point x.

    While a goal g = S + 1 <= hi is open, pos is (j, 0) with j < g,
    (j, -1) with j <= g, or (-j, e) with e >= 1 on the track of a goal
    j - e <= g, as in the module docstring. Each answer is the one a search
    for that precision alone gives: the same cost, witness and status. hi is
    at most the number of digits x has.
    """

    def __init__(self, t: Fst, x: RealSpec, stream: DigitStream, hi: int):
        if t.base != stream.base:
            raise FsdimError(f"transducer base {t.base} != query base {stream.base}")
        if stream.available(hi) < hi:
            stream.prefix(hi)  # raises InsufficientDigits, naming the source
        super().__init__(t, (0, 0))
        self.x = x
        self.base = t.base
        self.stream = stream  # every read of x for this (transducer, point) goes through it
        self.buffer = stream.buffer  # holds x[:hi] at least; a miss goes to `stream.digit`
        self.hi = hi
        self.S = self._run(0, 0, hi)  # the empty output solves n while x[:n] is all zeros
        self.resolved = dict.fromkeys(range(self.S + 1), (0, None, None))  # the empty output

    def advance(self, pos, out):
        g = self.S + 1
        if g > self.hi:  # every goal is answered: the rest of the level is not read
            return None
        j, D = pos
        if not out:  # pos was not accepted at a goal <= g when it was reached
            return pos
        b, x = self.base, self.buffer
        if j < 0:  # (-j, e): D = -b**e on the track of the goal j - e
            j, e = -j, D
            if j - e != g:  # off the track of g: every continuation is at or below x - b**-g
                return None
            o = 0  # on the track of g: D = o - b**(j - g) from here on
            for d in out:
                try:
                    xj = x[j]
                except IndexError:
                    try:
                        xj = self.stream.digit(j)
                    except InsufficientDigits as exc:
                        return self._cut(j, o - b ** (j - g), g, exc)
                o = b * o + d - xj
                j += 1
                if o < 0:  # below x - b**-g, so outside every interval
                    return None
            if o:  # 0 < o < b**(j - g - 1): inside the interval for g alone
                self._solve(g, g)
                return None
            return -j, j - g
        # once |D| > b**max(0, j - g), every continuation is outside the
        # interval for g, and so for every finer precision; j <= g here
        p = 1
        for d in out:
            try:
                xj = x[j]
            except IndexError:
                try:
                    xj = self.stream.digit(j)
                except InsufficientDigits as exc:
                    return self._cut(j, D, g, exc)
            D = b * D + d - xj
            j += 1
            if j > g:
                p *= b
            if D > p or D < -p:
                return None
        return self._settle(j, D, g)

    def _settle(self, j: int, D: int, g: int):
        """Records the goals that the output at (j, D) solves, and returns
        the pos it leaves, or None when it is off the track of the least goal
        left open. The exact prefixes D == 0 and D == -1 are decided on x's
        digits alone; g <= hi, and the buffer holds x[:hi]."""
        hi, x = self.hi, self.buffer
        if D == 0:  # w = x[:j]: solves n up to x's first nonzero digit from j
            top = j
            while top < hi and x[top] == 0:
                top += 1
            if top >= g:
                self._solve(g, min(top, hi))  # top is j > hi when w runs past x[:hi]
                if top >= hi:
                    return None
            return j, 0  # that digit lies below the open goals, so w is on the track
        if D == -1:  # solves n < j
            if j > g:  # and is on the track of j from there
                self._solve(g, min(j - 1, hi))
                return (j, D) if j <= hi else None
            r = j  # on the track of g iff x[j:g] is all zeros
            while r < g and x[r] == 0:
                r += 1
            return (j, D) if r == g else None
        top = self._through(j, D, g)
        if top >= g:
            self._solve(g, top)
            g = top + 1
            if g > hi:
                return None
        # the track is 0 or -1 up to g, and -b**(j - g) past it
        return (-j, j - g) if j > g and D == -self.base ** (j - g) else None

    def _solve(self, g: int, top: int) -> None:
        """Solves the goals g..top."""
        self.S = top
        self.hits.extend(range(g, top + 1))

    def _run(self, j: int, v: int, stop: int) -> int:
        """The first index in [j, stop) where x's digit is not v, else stop."""
        x = self.buffer
        try:
            while j < stop and x[j] == v:
                j += 1
        except IndexError:  # only x[hi] can lie past the buffer, and stop <= hi + 1
            j += self.stream.digit(j) == v
        return min(j, stop)

    def _through(self, j: int, D: int, g: int) -> int:
        """The largest n <= hi with |val(w) - x| < b**-n for the output w at
        (j, D), j >= 0 and D not 0 or -1 (`_settle` decides those two), or
        some value below g when that n is below g. Reads only the digits that
        decide it."""
        hi, b = self.hi, self.base
        if D == 1:  # n > j needs x[j:n] all b - 1 and x's tail from n nonzero
            r = self._run(j, b - 1, hi + 1)  # hi + 1 when j > hi: every n <= hi is solved
            if r > hi or r < g:
                return min(r, hi)
            return r - 1 if self.stream.is_zero_from(r) else r
        size = D if D > 0 else 1 - D
        m, power = floor_log(b, size)
        top = j - m if power == size else j - m - 1  # b**(j - top) is the least power >= size
        if D > 0 and power == D and g <= top <= hi and self.stream.is_zero_from(j):
            top -= 1  # t_j = 0 needs b**(j - n) >= D + 1
        return min(top, hi)

    def _on_track(self, j: int, D: int, g: int) -> bool:
        """Whether the output at a pos of one of the three forms is a prefix
        of the expansion of x - b**-g. (-j, e) is on the track of the goal
        j - e; a (j, D), j <= g, is on it when D is -1 if x[j:g] is all zeros
        and 0 if not."""
        if j < 0:
            return -j - D == g
        return D == -(self._run(j, 0, g) == g)

    def _cut(self, j: int, D: int, g: int, exc: InsufficientDigits):
        """An emission that needs digit j of a point that has only j digits.
        Every continuation of the output so far is within b**-n of x when
        b**(j - n) > |D|, and none is when b**(j - n) < |D|; an n with
        b**(j - n) = |D| is not decided by these digits."""
        size = abs(D)  # b**m <= |D| < b**(m + 1), and m = -1 for D = 0
        m, power = floor_log(self.base, size) if size else (-1, None)
        if power == size and g <= j - m <= self.hi:
            raise exc
        top = min(j - m - 1, self.hi)
        if top >= g:
            self._solve(g, top)
        return None

    def _prune(self) -> None:  # to the track of S + 1, the least open goal
        g = self.S + 1
        self.frontier = [c for c in self.frontier if g <= self.hi and self._on_track(*c[0][1], g)]

    def open(self, n: int) -> bool:
        """Whether precision n is unsolved. Asking for n gives up the open
        goals below it, so the search walks only the track of n, and asking
        for a given-up goal raises."""
        if n > self.S:
            if n - 1 > self.S:
                self.S = n - 1
                if self.frontier:
                    self._prune()
            return True
        if n not in self.resolved:
            raise FsdimError(f"the search gave up precision {n} when a finer one was asked")
        return False


class _DeltaSearch(Search):
    """`kdelta` at one delta that is not b**-n at an exact point x: a walk on
    the expansion of L = x - delta, pos j the output L[:j]. An emission builds
    E = b**i * val(w) - floor(b**i * L) digit by digit. E < 0 drops w, at or
    below L with every continuation; E == 0 at the end keeps L[:i]; E > 0 puts
    w above L, inside iff val(w) < x + delta."""

    GOAL = "delta"  # the one goal: some output inside the interval

    def __init__(self, t: Fst, x: Fraction, delta: Fraction):
        super().__init__(t, 0)
        self.base, self.low, self.high = t.base, x - delta, x + delta
        if self.low < 0:  # the empty output, value 0, is inside
            self.resolved[self.GOAL] = (0, None, None)
        else:
            self.digit = RealSpec.rational(*self.low.as_integer_ratio()).stream(t.base).digit

    def advance(self, j, out):
        if self.resolved:  # the first hit answers the goal; no later one may overwrite it
            return None
        b, E, i = self.base, 0, j
        for d in out:
            E = b * E + d - self.digit(i)
            i += 1
            if E < 0:
                return None
        if E and self.low * b ** i // 1 + E < self.high * b ** i:
            self.hits.append(self.GOAL)
        return None if E else i


def open_search(t: Fst, x: RealSpec, base: int, n_max: int) -> PrecisionSearch:
    """The search that answers every precision up to n_max, or up to the
    number of digits x has, for T at x."""
    stream = shared_stream(x, base)
    return PrecisionSearch(t, x, stream, stream.available(n_max))


def kdelta(t: Fst, q: PrecisionQuery, search: PrecisionSearch = None,
           witness: bool = True) -> CostResult:
    """Minimal input length whose output value lies strictly inside
    (x - delta, x + delta), with the witness input and output unless
    `witness` is false.

    `search`, if given, must be an open `PrecisionSearch` for T at q.x; one
    for another transducer or point is refused before any path is picked.
    It answers delta = b**-n for n up to its largest precision. A precision
    past it, or one the search cannot decide because a finite digit file
    runs out, is left to a fresh search for that precision alone, on the
    stream the search read; a row without a search reads `shared_stream`'s.
    At a delta that is not b**-n the walk reads x's exact value, which the
    query has checked it has.
    """
    if t.base != q.base:
        raise FsdimError(f"transducer base {t.base} != query base {q.base}")
    if search is not None and (search.t is not t or (search.x is not q.x and search.x != q.x)):
        raise FsdimError("the search is for another transducer or point")
    if q.n is None:  # q.x has an exact value: the query refuses a digit-only point here
        walk = _DeltaSearch(t, q.x.exact_value(q.base), q.delta)
        return walk.answer(walk.GOAL, q.cap_input, witness)
    if search is not None and q.n <= search.hi:
        try:
            return search.answer(q.n, q.cap_input, witness)
        except InsufficientDigits:  # the search is spent: n alone, on the digits it read
            pass
    stream = shared_stream(q.x, q.base) if search is None else search.stream
    return PrecisionSearch(t, q.x, stream, q.n).answer(q.n, q.cap_input, witness)


def within_at(x: RealSpec, base: int):
    """The exact test |value - x| < delta as a function of (value, delta),
    also for digit-only specs. x's digits come from a stream of its own,
    built once here and never the shared one, so an oracle that asks about
    every output reads x once per call and stays independent of the searches
    it checks."""
    xval = x.exact_value(base)
    if xval is not None:
        return lambda value, delta: abs(value - xval) < delta
    compare = x.stream(base).compare
    return lambda value, delta: compare(value - delta) > 0 and compare(value + delta) < 0


def _value_map(t: Fst, base: int, f=None):
    """Exact values of T's outputs: their base-b fraction, or f.eval's."""
    if t.base != base:
        raise FsdimError(f"transducer base {t.base} != query base {base}")
    if f is None:
        return lambda out: Fraction(digits_to_int(out, base), base ** len(out))
    if f.base != base:
        raise FsdimError(f"transducer base {t.base} != enumerator base {f.base}")
    return lambda out: f.eval(digits_to_str(out))


def kdelta_oracle(t: Fst, q: PrecisionQuery, f=None) -> CostResult:
    """The first distinct output, inputs up to q.cap_input in length-then-lex
    order, whose value falls strictly inside the interval: its canonical
    value, or f.eval's for a separator enumerator f (`ktf_delta`'s oracle).

    Under canonical values an output w is kept only while its cylinder
    [val(w), val(w) + b**-|w|) meets the interval, that is while the
    cylinder's midpoint is within delta + b**-|w| / 2 of x. That keeps every
    prefix of an inside output, so the answer is the full enumeration's, and
    at most one output per length that is not inside, the one whose cylinder
    holds x - delta: the walk is polynomial in the cap. Under f it
    enumerates every output, so callers ask with small caps."""
    value = _value_map(t, q.base, f)
    near = within_at(q.x, q.base)
    delta = q.delta
    half = lambda out: Fraction(1, 2 * q.base ** len(out))  # half of out's cylinder
    keep = None if f is not None else lambda out: near(value(out) + half(out), delta + half(out))
    return first_output(distinct_outputs(t, q.cap_input, keep), lambda pi, out: near(value(out), delta))


class KdeltaOracleTable:
    """Exact values of the distinct outputs of T up to an input length,
    sorted per least input length: canonical values, or f.eval's for a
    separator enumerator f. Batch form of kdelta_oracle: one walk answers
    every (x, delta), and not found is unreachable when that walk emptied."""

    def __init__(self, t: Fst, max_len: int, f=None):
        value = _value_map(t, t.base, f)
        self.by_cost: list[list[Fraction]] = [[] for _ in range(max_len + 1)]
        record = lambda pi, out: self.by_cost[len(pi)].append(value(out))  # takes none: walks to the end
        self.none_found = first_output(distinct_outputs(t, max_len), record)
        for values in self.by_cost:
            values.sort()

    def query(self, x: Fraction, delta: Fraction) -> CostResult:
        for cost, values in enumerate(self.by_cost):
            i = bisect_right(values, x - delta)
            if i < len(values) and values[i] < x + delta:
                return CostResult(FOUND, cost)
        return self.none_found


class ProfileRow(namedtuple("ProfileRow", "n cost flags", defaults=("",))):
    """What one precision's search found: the least cost at n, or cost -1
    and flags "cap", "unreachable" or "insufficient" when nothing was found
    at this n."""

    __slots__ = ()


_row = lru_cache(maxsize=1024)(ProfileRow)  # shared rows; a long profile keeps only 1,024


def profile_rows(grid, search) -> list[ProfileRow]:
    """Rows (n, cost) for each n in grid, where search(n) returns a CostResult.

    A row whose search found nothing is flagged "cap" or "unreachable", and
    one whose point ran out of digits (InsufficientDigits) "insufficient".
    Flagged rows are left out of every estimate. A row holds only what its
    search found, and equal rows are one object while among the last 1,024
    distinct rows; `dimension.estimate` and `cli._profile_csv` build its views.
    """
    rows = []
    for n in grid:
        try:
            status, cost, _, _ = search(n)
        except InsufficientDigits:
            rows.append(_row(n, -1, "insufficient"))
            continue
        if status == FOUND:
            rows.append(_row(n, cost, ""))
        else:
            rows.append(_row(n, -1, "cap" if status == CAP_EXCEEDED else "unreachable"))
    return rows


def kdelta_profile(ts, x: RealSpec, base: int, n_max: int, grid=None) -> list[ProfileRow]:
    """Rows (n, min cost over the family) for n = 1..n_max (or a supplied
    sub-grid) at delta = base**-n, from one search per transducer, with the
    default input cap 4 * (n + 2).

    A row where no transducer found an output is flagged "cap" when any of
    them hit a cap, else "unreachable"; see profile_rows.
    """
    ts = list(ts)
    if not ts:
        raise FsdimError("need at least one transducer")
    check_precision(n_max)
    if grid is None:
        grid = range(1, n_max + 1)
    stream = shared_stream(x, base)  # one stream: every member reads the same digits
    hi = stream.available(max(grid, default=0))
    searches = [PrecisionSearch(t, x, stream, hi) for t in ts]

    if len(ts) == 1:  # every estimator's call: the one search's answer is the row
        t, search = ts[0], searches[0]
        def row(n):
            return kdelta(t, PrecisionQuery.at_scale(x, base, n), search, False)
    else:
        def row(n):
            q = PrecisionQuery.at_scale(x, base, n)
            return best_of(kdelta(t, q, search, False) for t, search in zip(ts, searches))

    return profile_rows(grid, row)
