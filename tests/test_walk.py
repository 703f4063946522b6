"""An ask walks its search to the first of three levels and no further:
where its goal resolved, where the frontier emptied, or its cap.

Each search is checked against a twin of itself that the test walks one
level at a time, deciding itself when to stop; the level each ask leaves
and its answer must be the twin's. The searches are `PrecisionSearch`es of
pool machines in bases 2, 3 and 10 and of the normality family at
Champernowne, and `PrefixSearch`es of `dim seq`'s word.
"""

import pytest

from fsdim.cli import gen_pool
from fsdim.digits import RealSpec, seq_digits
from fsdim.dimension import normality_family
from fsdim.infocontent import PrefixSearch
from fsdim.precision import open_search

CHAMPERNOWNE = RealSpec.champernowne()
#: base -> (pool machines, largest precision)
SIZES = {2: (40, 24), 3: (20, 12), 10: (12, 6)}


def twin_level(twin, goal, cap: int) -> int:
    """The level the ask (goal, cap) leaves twin at, walked one level at a
    time while goal is open, a frontier is left and the level is below cap."""
    if goal not in twin.resolved and twin.open(goal):
        while goal not in twin.resolved and twin.frontier and twin.level < cap:
            twin.walk(goal, twin.level + 1)
    return twin.level


def check_asks(make, asks) -> int:
    """Asks each (goal, cap) of a search and of its twin; returns the number
    of asks that walked."""
    search, twin = make(), make()
    walked = 0
    for goal, cap in asks:
        before = search.level
        res = search.answer(goal, cap, witness=False)
        level = search.level
        assert level == twin_level(twin, goal, cap), (goal, cap)
        assert res == twin.answer(goal, cap, witness=False), (goal, cap)
        if level > before:
            walked += 1
            assert level <= cap, (goal, cap, level)
            resolved = search.resolved.get(goal)
            assert (resolved is not None and resolved[0] == level
                    or not search.frontier or level == cap), (goal, cap, level)
    return walked


def asks(n_max: int, cap_of):
    """Every goal 1..n_max in order, goal n at cap cap_of(n)."""
    return [(n, cap_of(n)) for n in range(1, n_max + 1)]


def default_cap(n: int) -> int:
    return 4 * (n + 2)


@pytest.mark.parametrize("base", sorted(SIZES))
def test_a_precision_ask_stops_at_the_first_of_its_three_levels(base):
    count, n_max = SIZES[base]
    points = [RealSpec.rational(1, 3), RealSpec.rational(5, 24), RealSpec.rational(1, 2),
              CHAMPERNOWNE]
    walked = 0
    for _, t in gen_pool(base, count, 4, base, 3):
        for x in points:
            for cap_of in (default_cap, lambda n: n, lambda n: n + 2):  # the last two stop walks
                walked += check_asks(lambda: open_search(t, x, base, n_max), asks(n_max, cap_of))
    assert walked


def test_the_normality_family_stops_at_the_first_of_its_three_levels():
    n_max = 2000  # as `normality --nmax 2000` walks it
    for _, t in normality_family(CHAMPERNOWNE, 2, n_max):
        assert check_asks(lambda: open_search(t, CHAMPERNOWNE, 2, n_max), asks(n_max, default_cap))


def test_a_prefix_ask_stops_at_the_first_of_its_three_levels(pool):
    # `dim seq --x champernowne --nmax 60` asks prefix n at cap 2n + 8
    word = seq_digits(CHAMPERNOWNE, 2, 60)
    walked = 0
    for _, t in pool[:60]:
        for cap_of in (lambda n: 2 * n + 8, lambda n: n // 2):
            walked += check_asks(lambda: PrefixSearch(t, word), asks(len(word), cap_of))
    assert walked
