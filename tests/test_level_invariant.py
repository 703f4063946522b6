"""The level-start invariant that `PrecisionSearch.advance`'s shortcuts rest
on, and the work those shortcuts save.

When a level starts, every frontier configuration (j, D) is on the track of
g = S + 1, the least open goal. An empty emission leaves (j, D) as it is,
and (j, D) was not accepted at a goal <= g when it was reached, so it cannot
be accepted now; `advance` returns it at once, and when an accept earlier in
the level moved g, the pruning hook that `walk` runs at the level's end
drops it. Every pos that `advance` reads while g <= hi is (j, 0) with j < g,
(j, -1) with j <= g, or (-j, e) with e >= 1 on the track of a goal
j - e <= g; the search's helpers handle these three forms only. A checking
subclass walks one level at a time and asserts, at every level, that the
frontier is on the track, and on every `advance` call that the pos has one
of the three forms and that its output is not within b**-g of x, worked out
from x's digits alone. The checks run over pool machines in bases 2, 3 and
10 and over rational, periodic, dyadic, Champernowne and finite digit-file
points. A base-2 machine whose output follows the lower track past its goal
at x = 1/2 puts (-j, e) positions in the frontier, so they are checked on
those too.

At a delta that is not b**-n, `kdelta` walks the expansion of x - delta
instead; its answers, witnesses included, are checked against the
enumeration oracle.

At n = 50, 100 and 200 and the default caps, where the full enumeration
could not run, the shared search's answers are checked against the oracle
that keeps only the outputs whose cylinder meets the interval: pool
machines in bases 2, 3 and 10 at rational, periodic, dyadic and
Champernowne points, the base-2 machine at points where its outputs run on
the track of goal n past n up to the cap, the normality family at
Champernowne, digit files that end before n or in 0^70 1, and two machines
built to reach an output off the track of a goal that moved in its level
and an output one unit below x's prefix. There a fresh search's answers are
checked too, and all three statuses compare exactly: the oracle proves
unreachable when its walk empties.
"""

from collections import Counter
from fractions import Fraction

import pytest

from fsdim.cli import gen_pool
from fsdim.digits import DigitStream, RealSpec, delta_exponent, digits_to_int, seq_digits
from fsdim.dimension import normality_family, normality_report
from fsdim.errors import InsufficientDigits
from fsdim.fst import parse_fst
from fsdim.infocontent import CAP_EXCEEDED, FOUND, UNREACHABLE
from fsdim.precision import (PrecisionQuery, PrecisionSearch, kdelta, kdelta_oracle, open_search,
                             shared_stream)

from conftest import POOL_SEED

#: base -> (pool machines, largest precision)
SIZES = {2: (60, 32), 3: (30, 16), 10: (20, 8)}
FILE_DIGITS = 64

#: from x = 1/2, outputs 011 0 0 0 ...: from digit 3 on, the lower track of
#: goal 3, D = -2**(j - 3), for as many levels as the cap allows
TRACK_PAST_GOAL = parse_fst("fst 1\nbase 2\nstates 2\nstart 0\n"
                            "t 0 0 1 011\nt 0 1 1 011\nt 1 0 1 0\nt 1 1 1 0\n")


def in_a_form(pos, g: int) -> bool:
    """Whether pos is (j, 0) with j < g, (j, -1) with j <= g, or (-j, e)
    with e >= 1 on the track of a goal j - e <= g."""
    j, D = pos
    if j < 0:
        return D >= 1 and -j - D <= g
    return D == 0 and j < g or D == -1 and j <= g


def within(digits: DigitStream, pos, g: int) -> bool:
    """Whether the output w at pos lies strictly within b**-g of x, from x's
    digits alone. w has j digits and val(w) = (floor(b**j x) + D) / b**j,
    with D = -b**e at (-j, e). With k = max(j, g), N = floor(b**k x) and
    t = b**k x - N in [0, 1), |val(w) - x| < b**-g iff |a - t| < B for the
    integers a = b**(k - j) (floor(b**j x) + D) - N and B = b**(k - g): iff
    -B < a < B, or a == B and x's digits from k are not all zero."""
    b, (j, D) = digits.base, pos
    if j < 0:
        j, D = -j, -b ** D
    k = max(j, g)
    floor_x = digits_to_int(digits.prefix(k), b)
    a = b ** (k - j) * (digits_to_int(digits.prefix(j), b) + D) - floor_x
    B = b ** (k - g)
    return -B < a < B or a == B and not digits.is_zero_from(k)


class Checked:
    """Walks one level at a time, under `walk`'s own loop condition, and
    asserts the level-start invariant before each level. On every `advance`
    call with g <= hi it asserts that the pos has one of the three forms and
    that its output is not within b**-g of x, on a digit stream of its own:
    the frontier was not accepted when it was reached, so in particular no
    empty emission is accepted. `checks` counts the levels checked."""

    checks = 0

    def walk(self, goal, cap):
        while goal not in self.resolved and self.frontier and self.level < cap:
            g = self.S + 1
            if g <= self.hi:
                for cfg, _ in self.frontier:
                    assert self._on_track(*cfg[1], g), (self.level, cfg, g)
            self.checks += 1
            super().walk(goal, self.level + 1)

    def advance(self, pos, out):
        g = self.S + 1
        if g <= self.hi:
            assert in_a_form(pos, g), (self.level, pos, g)
            assert not within(self.own_digits, pos, g), (self.level, pos, g)
        return super().advance(pos, out)


class CheckedSearch(Checked, PrecisionSearch):
    def __init__(self, t, x, stream, hi):
        super().__init__(t, x, stream, hi)
        self.own_digits = x.stream(stream.base)


def points(base: int, tmp_path) -> list:
    path = tmp_path / f"digits{base}.txt"
    path.write_text(seq_digits(RealSpec.rational(5, 7), base, FILE_DIGITS) + "\n")
    top = str(base - 1)
    return [RealSpec.rational(1, 2), RealSpec.rational(1, 3), RealSpec.rational(5, 24),
            RealSpec.rational(1, base),
            RealSpec.periodic("1" + top * 3 + "0"), RealSpec.parse("dyadic:" + top + "01"),
            RealSpec.champernowne(), RealSpec.digitfile(str(path))]


@pytest.mark.parametrize("base", sorted(SIZES))
def test_every_level_starts_on_the_track_of_the_least_open_goal(base, tmp_path):
    count, n_max = SIZES[base]
    machines = [t for _, t in gen_pool(base, count, 4, base, 3)]
    if base == 2:
        machines.append(TRACK_PAST_GOAL)
    checked = 0
    for t in machines:
        for x in points(base, tmp_path):
            stream = shared_stream(x, base)
            search = CheckedSearch(t, x, stream, stream.available(n_max))
            for n in range(1, search.hi + 1):
                try:
                    res = search.answer(n, 4 * (n + 2), witness=False)
                except InsufficientDigits:
                    break
                q = PrecisionQuery.at_scale(x, base, n)
                assert res == kdelta(t, q, witness=False), (t, x, n)
            # every level walked was checked; a level that ran out of digits
            # was checked and never committed
            assert search.checks == search.level + (search.spent is not None), (t, x)
            checked += search.checks
    assert checked


@pytest.mark.parametrize("base", sorted(SIZES))
def test_the_digit_check_meets_its_definition(base):
    # `within` against |val(w) - x| < b**-g in Fractions, at points whose
    # tails are all zero from some index and at points whose tails are not
    b = base
    for x in [RealSpec.rational(1, 2), RealSpec.rational(1, b), RealSpec.rational(5, 24),
              RealSpec.rational(1, 3), RealSpec.rational(0, 1)]:
        digits, xval = x.stream(b), x.exact_value(b)
        for j in range(6):
            below = xval * b ** j // 1
            positions = [(j, D) for D in range(-b - 2, b + 3)] + [(-j, e) for e in range(1, j)]
            for pos in positions:
                D = -b ** pos[1] if pos[0] < 0 else pos[1]
                for g in range(1, 8):
                    expected = abs(Fraction(below + D, b ** j) - xval) < Fraction(1, b ** g)
                    assert within(digits, pos, g) == expected, (x, pos, g)


#: base -> (pool machines, largest input cap) of the differential at deltas
#: that are not b**-n
DELTA_SIZES = {2: (40, 8), 3: (12, 5), 10: (4, 3)}


@pytest.mark.parametrize("base", sorted(DELTA_SIZES))
def test_a_delta_that_is_not_a_power_matches_the_oracle(base):
    count, cap = DELTA_SIZES[base]
    machines = [t for _, t in gen_pool(base, count, 4, base, 3)]
    if base == 2:
        machines.append(TRACK_PAST_GOAL)  # at 13/24 and 1/6 its output 0110... is x - delta
    xs = [RealSpec.rational(0, 1), RealSpec.rational(1, base), RealSpec.rational(13, 24)]
    deltas = [d for d in (Fraction(1, 3), Fraction(1, 6), Fraction(1, 12),
                          Fraction(2, 7 * base ** 2), Fraction(5, 9))
              if delta_exponent(d, base) is None]
    for t in machines:
        for x in xs:
            for delta in deltas:
                for c in range(cap + 1):
                    q = PrecisionQuery(x, base, delta, c)
                    res = kdelta(t, q)
                    assert res == kdelta_oracle(t, q), q


def test_a_walk_that_leaves_the_track_outside_is_unreachable():
    # at x = 1/2 and delta = 1/3, x - delta = 1/6 = 0.00101...; this machine
    # emits 000, below it, or 111, at 7/8 >= x + delta, and then nothing, so
    # its frontier empties at level 1, and so does the oracle's filtered walk
    t = parse_fst("fst 1\nbase 2\nstates 2\nstart 0\n"
                  "t 0 0 1 000\nt 0 1 1 111\nt 1 0 1 -\nt 1 1 1 -\n")
    for cap in (1, 3, 8):
        q = PrecisionQuery(RealSpec.rational(1, 2), 2, Fraction(1, 3), cap)
        assert kdelta(t, q).status == UNREACHABLE, cap
        assert kdelta_oracle(t, q).status == UNREACHABLE, cap


#: base -> the first machines of the acceptance pool's seed in that base,
#: each asked at every point below at n = 50, 100 and 200 with the default
#: cap 4(n + 2), against the oracle that keeps only the outputs whose
#: cylinder meets the interval
LARGE_N_POOLS = {2: 40, 3: 20}
LARGE_N = [50, 100, 200]
LARGE_N_POINTS = ["rat:1/3", "periodic:001", "rat:5/24", "champernowne"]


def track_point(n: int) -> RealSpec:
    """x = 3/8 + 2**-n, whose x - 2**-n is 3/8: TRACK_PAST_GOAL's outputs
    011 0 0 ... run on the track of goal n from digit n to the cap."""
    return RealSpec.parse("dyadic:011" + "0" * (n - 4) + "1")


@pytest.mark.parametrize("base", sorted(LARGE_N_POOLS))
def test_kdelta_matches_the_filtered_oracle_at_large_n(base):
    machines = [t for _, t in gen_pool(POOL_SEED, LARGE_N_POOLS[base], 4, base, 2)]
    if base == 2:
        machines.append(TRACK_PAST_GOAL)
    cases = [(t, RealSpec.parse(x), LARGE_N) for t in machines for x in LARGE_N_POINTS]
    if base == 2:
        cases += [(TRACK_PAST_GOAL, track_point(n), [n]) for n in LARGE_N]
    statuses = Counter()
    for t, x, ns in cases:
        search = open_search(t, x, base, max(ns))
        for n in ns:
            q = PrecisionQuery.at_scale(x, base, n)
            res = kdelta(t, q, search)
            statuses[res.status] += 1
            assert res == kdelta_oracle(t, q), (t, x, n)
    assert statuses[FOUND] and statuses[UNREACHABLE], statuses
    assert statuses[CAP_EXCEEDED] == (len(LARGE_N) if base == 2 else 0), statuses


#: x = 2**-50 + 2**-100, so x - 2**-50 = 0.0^99 1: a point for the two
#: machines below
OFF_TRACK_POINT = RealSpec.parse("dyadic:" + "0" * 49 + "1" + "0" * 49 + "1")
#: at OFF_TRACK_POINT, n = 50: input 0 emits 0^10, on the track of goal 50,
#: and input 1 emits 0^60, on it past 50. At level 2, 0^10 0^39 1 = 2**-50 is
#: accepted and solves 50..99, and then 0^60 1 is off the track of goal 100,
#: far below x - 2**-100; nothing is within 2**-100 of x
OFF_TRACK = parse_fst("fst 1\nbase 2\nstates 4\nstart 0\n"
                      f"t 0 0 1 {'0' * 10}\nt 0 1 2 {'0' * 60}\n"
                      f"t 1 0 3 {'0' * 39}1\nt 1 1 3 {'0' * 39}1\n"
                      "t 2 0 3 1\nt 2 1 3 1\nt 3 0 3 -\nt 3 1 3 -\n")
#: at OFF_TRACK_POINT, its one output 0^50 1 is one unit below x[:51]
#: (D == -1 at j = 51): within 2**-50 of x, and of no finer precision
ONE_BELOW = parse_fst("fst 1\nbase 2\nstates 2\nstart 0\n"
                      f"t 0 0 1 {'0' * 50}1\nt 0 1 1 {'0' * 50}1\nt 1 0 1 -\nt 1 1 1 -\n")
#: a digit file of this many digits ends before the largest n; ZERO_RUN is
#: decided at n = 50 only by its last digit
SHORT_FILE_DIGITS = 120
ZERO_RUN = "0111" + "0" * 70 + "1"


def _answer(ask):
    try:
        return ask()
    except InsufficientDigits:
        return "insufficient"


def test_kdelta_matches_the_filtered_oracle_at_large_n_on_more_points(tmp_path):
    # the shared search and a fresh one against the filtered oracle, at
    # n = 50, 100 and 200 and the default caps: pool machines in base 10,
    # dyadic points, the normality family at Champernowne, digit files that
    # end before n or in 0^70 1, and two machines built to reach the
    # large-n paths at OFF_TRACK_POINT. Past a file's end the search refuses
    # every precision, while the oracle proves unreachable where no output
    # comes near x, so there the machines are the normality family trained
    # on the 120-digit file, whose outputs follow it: all three are
    # insufficient at n = 200
    short, zero_run = tmp_path / "short.txt", tmp_path / "zero-run.txt"
    short.write_text(seq_digits(RealSpec.rational(5, 7), 2, SHORT_FILE_DIGITS) + "\n")
    zero_run.write_text(ZERO_RUN + "\n")
    champernowne = RealSpec.champernowne()
    pool2 = [t for _, t in gen_pool(POOL_SEED, 12, 4, 2, 2)] + [TRACK_PAST_GOAL]
    cases = [(t, RealSpec.parse(x), 10, LARGE_N) for _, t in gen_pool(POOL_SEED, 8, 4, 10, 2)
             for x in ("rat:1/3", "rat:1/8", "champernowne")]
    cases += [(t, RealSpec.parse(x), 2, LARGE_N) for t in pool2 for x in ("dyadic:0101", "dyadic:1")]
    cases += [(t, champernowne, 2, LARGE_N) for _, t in normality_family(champernowne, 2, max(LARGE_N))]
    short, zero_run = RealSpec.digitfile(str(short)), RealSpec.digitfile(str(zero_run))
    cases += [(t, short, 2, LARGE_N) for _, t in normality_family(short, 2, max(LARGE_N))]
    cases += [(t, short, 2, LARGE_N[:2]) for t in pool2[:6]]
    cases += [(t, zero_run, 2, LARGE_N[:1]) for t in pool2[:6] + [t for _, t in normality_family(zero_run, 2, 50)]]
    cases += [(OFF_TRACK, OFF_TRACK_POINT, 2, LARGE_N), (ONE_BELOW, OFF_TRACK_POINT, 2, [50, 51, 200])]
    statuses = Counter()
    for t, x, base, ns in cases:
        search = open_search(t, x, base, max(ns))
        for n in ns:
            q = PrecisionQuery.at_scale(x, base, n)
            shared = _answer(lambda: kdelta(t, q, search))
            statuses[getattr(shared, "status", shared)] += 1
            assert shared == _answer(lambda: kdelta(t, q)) == _answer(lambda: kdelta_oracle(t, q)), (t, x, n)
    assert statuses[FOUND] and statuses[UNREACHABLE] and statuses["insufficient"], statuses


#: the work `normality_report(champernowne, 2, 500)` did before the
#: shortcuts: the levels its searches walked, and its calls
PARENT_CALLS = {"levels": 2477, "advance": 9546, "_on_track": 7281, "_run": 12007}
#: and the digits and acceptance tests it read before `advance` indexed x's
#: buffer and settled the outputs D == 0 and D == -1 itself
BUFFER_PARENT_CALLS = {"digit": 20963, "_through": 3455}


def test_the_shortcuts_at_least_halve_the_track_and_run_checks(monkeypatch):
    calls, searches = Counter(), []
    init = PrecisionSearch.__init__

    def recording(self, *args):
        init(self, *args)
        searches.append(self)

    def counting(name, method):
        def counted(*args):
            calls[name] += 1
            return method(*args)
        return counted

    for name in ["advance", "_on_track", "_run", "_through"]:
        monkeypatch.setattr(PrecisionSearch, name, counting(name, getattr(PrecisionSearch, name)))
    monkeypatch.setattr(PrecisionSearch, "__init__", recording)
    monkeypatch.setattr(DigitStream, "digit", counting("digit", DigitStream.digit))
    report = normality_report(RealSpec.champernowne(), 2, 500)
    assert report.estimate == Fraction(309, 326)
    # the walk is the same: every level and every transition is still made
    assert calls["advance"] == PARENT_CALLS["advance"]
    assert sum(search.level for search in searches) == PARENT_CALLS["levels"]
    assert 2 * calls["_on_track"] <= PARENT_CALLS["_on_track"], calls
    assert 2 * calls["_run"] <= PARENT_CALLS["_run"], calls
    # a digit is read through the stream only past its buffer
    assert 10 * calls["digit"] <= BUFFER_PARENT_CALLS["digit"], calls
    assert 2 * calls["_through"] <= BUFFER_PARENT_CALLS["_through"], calls
