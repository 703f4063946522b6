"""Once a search's frontier is empty, no walk can resolve a goal it has not
resolved: an open goal asked at a cap at or above the search's level is the
shared `UNREACHED` at once, without entering `walk`, and equals a fresh
search's answer. An open goal asked at a cap below the level is still
refused, since the search cannot tell cap_exceeded from unreachable there,
and a precision that a `PrecisionSearch` gave up is still refused.

Pool machines in bases 2 and 3, for `PrefixSearch` on Champernowne's prefix
and for `PrecisionSearch` at 1/3 and 5/24.
"""

import pytest

from fsdim.cli import gen_pool
from fsdim.digits import RealSpec, seq_digits
from fsdim.errors import FsdimError
from fsdim.infocontent import UNREACHED, PrefixSearch, kt
from fsdim.precision import PrecisionQuery, kdelta, open_search

#: base -> pool machines
POOLS = {2: 60, 3: 30}
WORD_LEN = 30
HI = 20
BIG_CAP = 400


def _machines(base: int):
    return [t for _, t in gen_pool(base, POOLS[base], 4, base, 2)]


def _no_walk(goal, cap):
    pytest.fail(f"an exhausted search walked for goal {goal} at cap {cap}")


def _exhausted(search) -> bool:
    return not search.frontier and search.spent is None


@pytest.mark.parametrize("base", sorted(POOLS))
def test_an_exhausted_prefix_search_answers_at_once(base):
    word = seq_digits(RealSpec.champernowne(), base, WORD_LEN)
    answered = refused = 0
    for t in _machines(base):
        search = PrefixSearch(t, word)
        kt(t, word, BIG_CAP, search)
        if not _exhausted(search):
            continue
        level = search.level
        search.walk = _no_walk
        for n in (n for n in range(WORD_LEN + 1) if search.open(n)):
            w = word[:n]
            for cap in (level, level + 1, 2 * n + 8, BIG_CAP):
                if cap < level:
                    continue
                res = kt(t, w, cap, search, witness=False)
                assert res is UNREACHED, (t, n, cap)
                assert res == kt(t, w, cap), (t, n, cap)
                answered += 1
            if level:
                with pytest.raises(FsdimError, match="walked past cap"):
                    kt(t, w, level - 1, search)
                refused += 1
            assert search.level == level
    assert answered and refused


@pytest.mark.parametrize("base", sorted(POOLS))
def test_an_exhausted_precision_search_answers_at_once(base):
    answered = refused = given_up = 0
    for t in _machines(base):
        for x in (RealSpec.rational(1, 3), RealSpec.rational(5, 24)):
            search = open_search(t, x, base, HI)
            for n in range(1, HI + 1):  # the rows of a profile, until the frontier empties
                if not search.frontier:
                    break
                kdelta(t, PrecisionQuery.at_scale(x, base, n), search)
            if not _exhausted(search) or search.S >= HI:
                continue
            level, first = search.level, search.S + 1
            search.walk = _no_walk
            for n in range(first, HI + 1, 2):  # asking n gives up n - 1
                for cap in (level, level + 1, 4 * (n + 2), BIG_CAP):
                    if cap < level:
                        continue
                    q = PrecisionQuery.at_scale(x, base, n, cap)
                    res = kdelta(t, q, search, witness=False)
                    assert res is UNREACHED, (t, x, n, cap)
                    assert res == kdelta(t, q), (t, x, n, cap)
                    answered += 1
                if level:
                    with pytest.raises(FsdimError, match="walked past cap"):
                        kdelta(t, PrecisionQuery.at_scale(x, base, n, level - 1), search)
                    refused += 1
                if n > first:
                    with pytest.raises(FsdimError, match="gave up precision"):
                        kdelta(t, PrecisionQuery.at_scale(x, base, n - 1, BIG_CAP), search)
                    given_up += 1
            assert search.level == level
    assert answered and refused and given_up
