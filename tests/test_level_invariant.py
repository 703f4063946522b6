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
"""

from collections import Counter
from fractions import Fraction

import pytest

from fsdim.cli import gen_pool
from fsdim.digits import DigitStream, RealSpec, delta_exponent, digits_to_int, seq_digits
from fsdim.dimension import normality_report
from fsdim.errors import InsufficientDigits
from fsdim.fst import parse_fst
from fsdim.infocontent import CAPPED, UNREACHABLE
from fsdim.precision import PrecisionQuery, PrecisionSearch, kdelta, kdelta_oracle, shared_stream

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
    # enumeration never proves unreachability: its not found is cap_exceeded
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
                    assert (CAPPED if res.status == UNREACHABLE else res) == kdelta_oracle(t, q), q


def test_a_walk_that_leaves_the_track_outside_is_unreachable():
    # at x = 1/2 and delta = 1/3, x - delta = 1/6 = 0.00101...; this machine
    # emits 000, below it, or 111, at 7/8 >= x + delta, and then nothing, so
    # its frontier empties at level 1. The oracle cannot tell this from
    # cap_exceeded
    t = parse_fst("fst 1\nbase 2\nstates 2\nstart 0\n"
                  "t 0 0 1 000\nt 0 1 1 111\nt 1 0 1 -\nt 1 1 1 -\n")
    for cap in (1, 3, 8):
        q = PrecisionQuery(RealSpec.rational(1, 2), 2, Fraction(1, 3), cap)
        assert kdelta(t, q).status == UNREACHABLE, cap


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
