"""Profile rows are shared values, as answers are: every estimator's rows
equal the rows that fresh one-precision searches give, equal rows are one
object, and a flagged row keeps its flag."""

import pytest

from fsdim import dimension, precision, separator
from fsdim.digits import RealSpec, seq_digits
from fsdim.errors import InsufficientDigits
from fsdim.infocontent import CAP_EXCEEDED, CAPPED, FOUND, UNREACHABLE, UNREACHED, CostResult, kt
from fsdim.precision import PrecisionQuery, ProfileRow, kdelta, kdelta_profile, profile_rows
from fsdim.separator import ktf_delta, parse_enumerator

THIRD = RealSpec.rational(1, 3)
FLAGS = {CAP_EXCEEDED: "cap", UNREACHABLE: "unreachable"}


def fresh_row(n, call):
    """The row of precision n built afresh from call(), a search's answer."""
    try:
        status, cost, _, _ = call()
    except InsufficientDigits:
        return ProfileRow(n, -1, "insufficient")
    return ProfileRow(n, cost, "") if status == FOUND else ProfileRow(n, -1, FLAGS[status])


@pytest.fixture()
def profiles(monkeypatch):
    """Every profile an estimator reads, as (t, x, rows)."""
    seen = []
    estimate = dimension.estimate

    def recording(family, base, points, n_max, window_frac, rows_of):
        def recorded(t, x, grid):
            rows = rows_of(t, x, grid)
            seen.append((t, x, rows))
            return rows

        return estimate(family, base, points, n_max, window_frac, recorded)

    monkeypatch.setattr(dimension, "estimate", recording)
    monkeypatch.setattr(separator, "estimate", recording)
    return seen


def short_file(tmp_path, digits=12):
    """A digit file of 1/7's first digits, which runs out below the window's top."""
    path = tmp_path / "short.txt"
    path.write_text(seq_digits(RealSpec.rational(1, 7), 2, digits) + "\n")
    return RealSpec.digitfile(str(path))


def kdelta_fresh(t, x, n):
    return kdelta(t, PrecisionQuery.at_scale(x, 2, n), witness=False)


def run_point(pool, tmp_path):
    dimension.dim_point_estimate(pool[:40], THIRD, 2, 24)
    return kdelta_fresh


def run_point_on_a_short_file(pool, tmp_path):
    dimension.dim_point_estimate(pool[:40], short_file(tmp_path), 2, 16)
    return kdelta_fresh


def run_set(pool, tmp_path):
    points = [short_file(tmp_path), THIRD, RealSpec.parse("periodic:001")]
    dimension.dim_set_estimate(pool[:40], points, 2, 16)
    return kdelta_fresh


def run_seq(pool, tmp_path):
    dimension.dim_seq_estimate(pool[:40], RealSpec.parse("champernowne").stream(2), 30)
    return lambda t, s, n: kt(t, s.prefix_str(n), 2 * n + 8, witness=False)


def run_seq_on_a_short_file(pool, tmp_path):
    dimension.dim_seq_estimate(pool[:40], short_file(tmp_path).stream(2), 16)
    return lambda t, s, n: kt(t, s.prefix_str(n), 2 * n + 8, witness=False)


def run_dimf(kind):
    def run(pool, tmp_path):
        f = parse_enumerator(kind, 2)
        separator.dimf_estimate(pool[:20], f, [THIRD, short_file(tmp_path)], 12, max_input_len=8)
        return lambda t, x, n: ktf_delta(t, f, PrecisionQuery.at_scale(x, 2, n, 8), witness=False)

    return run


ESTIMATORS = {
    "dim-point": run_point,
    "dim-point-short-file": run_point_on_a_short_file,
    "dim-set": run_set,
    "dim-seq": run_seq,
    "dim-seq-short-file": run_seq_on_a_short_file,
    "dimf-canonical": run_dimf("canonical"),
    "dimf-targeted": run_dimf("targeted:rat:1/3"),
}


@pytest.mark.parametrize("name", ESTIMATORS)
def test_rows_equal_fresh_rows_and_equal_rows_are_one_object(name, profiles, pool, tmp_path):
    fresh = ESTIMATORS[name](pool, tmp_path)
    assert profiles
    by_value = {}
    for t, x, rows in profiles:
        for row in rows:
            assert type(row) is ProfileRow
            assert row == fresh_row(row.n, lambda: fresh(t, x, row.n)), (name, row)
            by_value.setdefault(row, set()).add(id(row))
    assert all(len(ids) == 1 for ids in by_value.values()), name
    assert len(by_value) < sum(len(rows) for _, _, rows in profiles)  # rows were shared


def test_flagged_rows_keep_their_flags_at_one_precision(profiles, pool, tmp_path):
    # at the precisions past the file's 12 digits the file's rows read
    # "insufficient" while 1/3's read "unreachable" or "cap"
    run_set(pool, tmp_path)
    flags = {}
    for t, x, rows in profiles:
        for row in rows:
            flags.setdefault(row.n, set()).add(row.flags)
            assert row == fresh_row(row.n, lambda: kdelta_fresh(t, x, row.n))
    assert {"insufficient", "unreachable"} <= flags[16]
    assert "cap" in set().union(*flags.values())


def test_profile_rows_maps_each_answer_to_its_row():
    answers = {1: CostResult(FOUND, 3), 2: CAPPED, 3: UNREACHED}

    def search(n):
        if n not in answers:
            raise InsufficientDigits(f"no digit {n}")
        return answers[n]

    rows = profile_rows([1, 2, 3, 4], search)
    assert rows == [(1, 3, ""), (2, -1, "cap"), (3, -1, "unreachable"), (4, -1, "insufficient")]
    assert all(type(r) is ProfileRow for r in rows)
    again = profile_rows([4, 3, 2, 1], search)
    assert all(a is b for a, b in zip(rows, reversed(again)))


def test_one_stream_per_family_profile(monkeypatch, pool, tmp_path):
    # every member's search reads the one stream, so a digit file is
    # stat-ed once per profile and all members read the same digits
    calls = []
    shared = precision.shared_stream

    def counting(x, base):
        calls.append(x)
        return shared(x, base)

    monkeypatch.setattr(precision, "shared_stream", counting)
    path = tmp_path / "d.txt"
    path.write_text(seq_digits(THIRD, 2, 40) + "\n")
    family = [t for _, t in pool[:10]]
    for x in (THIRD, RealSpec.digitfile(str(path))):
        calls.clear()
        rows = kdelta_profile(family, x, 2, 30)
        assert calls == [x]
        assert rows == kdelta_profile(family, THIRD, 2, 30)
    calls.clear()
    rows = kdelta_profile(family, short_file(tmp_path), 2, 8)  # within the file's 12 digits
    assert calls == [short_file(tmp_path)]
    assert not any(r.flags == "insufficient" for r in rows)


def test_a_long_profile_keeps_a_bounded_row_table(identity2):
    # rows of 1,500 precisions, each of its own cost: the table keeps the
    # last 1,024 distinct rows, and the newest are still shared
    rows = kdelta_profile([identity2], THIRD, 2, 1500)
    assert len(set(rows)) == 1500
    assert precision._row.cache_info().currsize <= 1024
    again = kdelta_profile([identity2], THIRD, 2, 1500, grid=range(1001, 1501))
    assert all(a is b for a, b in zip(again, rows[1000:]))
