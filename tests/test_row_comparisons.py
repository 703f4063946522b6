"""A row holds (n, cost, flags), and its readers compare ratios cost/n by
integer cross-multiplication.

A reference written here with `Fraction` ratios, comparisons and `min`, the
way the row builder and the estimator once built and compared them, must
give every field of every row, each member's value and the estimate, and
every ratio and running infimum that the profile CSV prints. An estimate
builds and compares a number of `Fraction`s that grows with the family and
the points, not with the rows."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fsdim import dimension
from fsdim.cli import _profile_csv
from fsdim.digits import RealSpec
from fsdim.dimension import (EstimateReport, _grid, dim_point_estimate, dim_seq_estimate,
                             dim_set_estimate, estimate)
from fsdim.errors import AllRowsFlagged, InsufficientDigits
from fsdim.fst import make_identity
from fsdim.infocontent import CAP_EXCEEDED, FOUND, UNREACHABLE, CostResult
from fsdim.precision import ProfileRow, profile_rows

# a row's outcome as a function of n: a fixed cost, the cost p * n // q
# (exact multiples of one ratio, so ties across precisions are common), a
# search that found nothing, or a point that ran out of digits
OUTCOMES = st.one_of(
    st.tuples(st.just("cost"), st.integers(0, 12)),
    st.tuples(st.just("ratio"), st.integers(0, 4), st.integers(1, 4)),
    st.sampled_from([(CAP_EXCEEDED,), (UNREACHABLE,), ("insufficient",)]),
)


def source(outcomes):
    """search(n) for the outcomes, read cyclically by n."""
    def search(n):
        kind, *args = outcomes[n % len(outcomes)]
        if kind == "insufficient":
            raise InsufficientDigits("out of digits")
        if kind == "cost":
            return CostResult(FOUND, args[0])
        if kind == "ratio":
            return CostResult(FOUND, args[0] * n // args[1])
        return CostResult(kind)
    return search


def reference_rows(grid, search):
    rows = []
    for n in grid:
        try:
            res = search(n)
        except InsufficientDigits:
            flags = "insufficient"
        else:
            if res.status == FOUND:
                rows.append(ProfileRow(n, res.cost))
                continue
            flags = "cap" if res.status == CAP_EXCEEDED else "unreachable"
        rows.append(ProfileRow(n, -1, flags))
    return rows


def reference_csv(rows):
    """The profile CSV from `Fraction` ratios and a running `min`, printed as
    the row builder's `Fraction`s once were."""
    lines, running = ["n,cost,ratio,running_inf,flags"], None
    for n, cost, flags in rows:
        ratio = ""
        if not flags:
            exact = Fraction(cost, n)
            running = exact if running is None else min(running, exact)
            ratio = f"{float(exact):.6f}"
        inf = f"{float(Fraction(0) if running is None else running):.6f}"
        lines.append(f"{n},{'' if flags else cost},{ratio},{inf},{flags}")
    return "\n".join(lines) + "\n"


def reference_estimate(members, points, n_max, window_frac, rows_of):
    n_lo = max(1, math.ceil(window_frac * n_max))
    grid = _grid(n_lo, n_max)
    per, profiles = {}, {}
    for name, t in members:
        worst = Fraction(0)
        for x in points:
            rows = rows_of(t, x, grid)
            if len(points) == 1:
                profiles[name] = tuple(rows)
            proxy = min((Fraction(r.cost, r.n) for r in rows if not r.flags and r.n >= n_lo),
                        default=None)
            if proxy is None:
                break
            worst = max(worst, proxy)
        else:
            per[name] = worst
    if not per:
        raise AllRowsFlagged("no usable row")
    return EstimateReport(min(per.values()), per, (n_lo, n_max), profiles=profiles)


def _exact(rows):
    """Every field of every row, each of its exact type: n and cost ints,
    flags a str, so a Fraction or a float in their place does not pass."""
    for r in rows:
        assert type(r) is ProfileRow and r._fields == ("n", "cost", "flags")
        assert (type(r.n), type(r.cost), type(r.flags)) == (int, int, str)
    return [tuple(r) for r in rows]


def _report(build):
    try:
        return build()
    except AllRowsFlagged:
        return "all rows flagged"


@settings(max_examples=300, deadline=None)
@given(grid=st.lists(st.integers(1, 60), unique=True).map(sorted),
       outcomes=st.lists(OUTCOMES, min_size=1, max_size=8))
def test_profile_rows_match_the_fraction_reference(grid, outcomes):
    assert _exact(profile_rows(grid, source(outcomes))) == _exact(reference_rows(grid, source(outcomes)))


@settings(max_examples=300, deadline=None)
@given(grid=st.lists(st.integers(1, 60), unique=True).map(sorted),
       outcomes=st.lists(OUTCOMES, min_size=1, max_size=8))
# flagged rows of each kind before the first found row, and one after it
@example(grid=[1, 2, 3, 4, 5], outcomes=[(CAP_EXCEEDED,), ("insufficient",), (UNREACHABLE,),
                                         ("cost", 2), ("ratio", 1, 2)])
def test_profile_csv_matches_the_fraction_reference(grid, outcomes):
    rows = profile_rows(grid, source(outcomes))
    assert _profile_csv(rows) == reference_csv(rows)


@settings(max_examples=200, deadline=None)
@given(data=st.data(),
       n_max=st.one_of(st.integers(2, 40), st.sampled_from([300, 2000])),
       window_frac=st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(9, 10)]),
       family_size=st.integers(1, 4), point_count=st.integers(1, 3))
def test_estimate_matches_the_fraction_reference(data, n_max, window_frac, family_size, point_count):
    members = [(f"T{i}", make_identity(2)) for i in range(family_size)]
    points = list(range(point_count))
    outcomes = {(name, x): data.draw(st.lists(OUTCOMES, min_size=1, max_size=8))
                for name, _ in members for x in points}
    names = {id(t): name for name, t in members}

    def rows_with(build):
        return lambda t, x, grid: build(grid, source(outcomes[names[id(t)], x]))

    got = _report(lambda: estimate(members, 2, points, n_max, window_frac, rows_with(profile_rows)))
    want = _report(lambda: reference_estimate(members, points, n_max, window_frac,
                                              rows_with(reference_rows)))
    assert got == want
    if want == "all rows flagged":
        return
    assert type(got.estimate) is Fraction
    assert {k: v.as_integer_ratio() for k, v in got.per_transducer.items()} == \
        {k: v.as_integer_ratio() for k, v in want.per_transducer.items()}
    assert {k: _exact(v) for k, v in got.profiles.items()} == {k: _exact(v) for k, v in want.profiles.items()}


@pytest.fixture()
def comparisons(monkeypatch):
    """Counts Fraction rich comparisons once started: count[0] is the
    number made, count[1] whether counting is on."""
    count = [0, False]
    for op in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
        method = getattr(Fraction, op)

        def counting(a, b, method=method):
            count[0] += count[1]
            return method(a, b)

        monkeypatch.setattr(Fraction, op, counting)
    return count


@pytest.mark.parametrize("estimator", ["point", "seq"])
def test_an_estimate_makes_fraction_comparisons_per_member_not_per_row(comparisons, pool, estimator):
    family, n_max = pool[:20], 40
    F, G = len(family), len(_grid(20, n_max))
    if estimator == "point":
        run = lambda: dim_point_estimate(family, RealSpec.parse("rat:5/24"), 2, n_max)
    else:
        run = lambda: dim_seq_estimate(family, RealSpec.parse("champernowne").stream(2), n_max)
    run()  # builds the G shared queries, whose validation compares deltas
    comparisons[1] = True
    report = run()
    rows = [r for profile in report.profiles.values() for r in profile]
    assert len(rows) == F * G and sum(not r.flags for r in rows) > 2 * F
    # the worst point is found in integers: only the best member is a Fraction min
    assert comparisons[0] <= F


def test_dim_set_builds_at_most_one_fraction_per_member_and_point(monkeypatch, pool):
    family, n_max = pool[:20], 40
    points = [RealSpec.parse(s) for s in ("rat:5/24", "rat:1/3", "periodic:001")]
    run = lambda: dim_set_estimate(family, points, 2, n_max)
    run()  # builds the shared queries and streams
    built, rows = [0], []
    new, profile = Fraction.__new__, dimension.kdelta_profile

    def counting(cls, *args, **kwargs):
        built[0] += 1
        return new(cls, *args, **kwargs)

    def recorded(*args, **kwargs):
        out = profile(*args, **kwargs)
        rows.extend(out)
        return out

    monkeypatch.setattr(dimension, "kdelta_profile", recorded)
    monkeypatch.setattr(Fraction, "__new__", counting)
    report = run()
    monkeypatch.undo()
    assert report.per_transducer
    assert sum(not r.flags for r in rows) > 4 * len(family) * len(points)
    assert built[0] <= len(family) * len(points)
