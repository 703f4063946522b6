"""Each row input has one holder. x is read through the stream that the
row's search was opened on, so every read of x for one (transducer, point)
sees one version of a digit file; and a query is the one holder of its
precision, so a row at b**-n never recovers n from b**-n."""

from fractions import Fraction

import pytest

from fsdim import precision, separator
from fsdim.cli import dispatch, gen_pool
from fsdim.digits import RealSpec, seq_digits
from fsdim.fst import Fst, format_fst, make_identity
from fsdim.precision import PrecisionQuery, kdelta, open_search
from fsdim.separator import dimf_estimate, ktf_delta, make_targeted, parse_enumerator

THIRD = RealSpec.rational(1, 3)


@pytest.fixture()
def stream_calls(monkeypatch):
    """The points `shared_stream` is asked for while the test runs, from
    either module that calls it."""
    calls = []
    shared = precision.shared_stream

    def counting(x, base):
        calls.append(x)
        return shared(x, base)

    monkeypatch.setattr(precision, "shared_stream", counting)
    monkeypatch.setattr(separator, "shared_stream", counting)
    return calls


def test_a_targeted_estimate_looks_up_one_stream_per_transducer_and_point(
        stream_calls, monkeypatch, pool, tmp_path):
    # one search per (transducer, point) the estimate reads, each opened on
    # the shared stream, and the one stream of the enumerator's target. The
    # file's 8 digits leave rows 9..12 to fresh searches, which read the
    # stream their search was opened on
    opened = []
    open_search = separator.open_search
    monkeypatch.setattr(separator, "open_search", lambda t, x, base, n: opened.append(x) or open_search(t, x, base, n))
    path = tmp_path / "short.txt"
    path.write_text(seq_digits(RealSpec.rational(1, 7), 2, 8) + "\n")
    points = [RealSpec.digitfile(str(path)), THIRD]
    family = [make_identity(2), *pool[:10]]
    f = parse_enumerator("targeted:rat:1/3", 2)
    report = dimf_estimate(family, f, points, 12, max_input_len=8)
    assert "T0" in report.per_transducer  # the identity reads both points
    assert opened.count(THIRD) >= 1 and len(opened) > len(family)
    assert stream_calls == [THIRD, *opened]


def test_a_bare_targeted_row_looks_up_its_stream(stream_calls):
    f = make_targeted(THIRD, 2)
    stream_calls.clear()
    ktf_delta(make_identity(2), f, PrecisionQuery.at_scale(THIRD, 2, 6, 8))
    assert stream_calls == [THIRD, THIRD]  # kdelta's fresh search, and the zero verdicts


def test_a_targeted_row_answers_from_the_digits_its_search_read(tmp_path):
    # at x = 1/3, f(0^3), the 8-digit truncation of 1/3, is the first within
    # 1/64; at x = 5/16, f(0^2) = 0.0101 already is. The file becomes 5/16
    # after the search was opened on 1/3's digits, so the row reads 1/3
    zeros = Fst(2, 1, 0, (((0, (0,)), (0, (0,))),))
    f = make_targeted(THIRD, 2)
    path = tmp_path / "x.txt"
    path.write_text(seq_digits(THIRD, 2, 40) + "\n")
    x = RealSpec.digitfile(str(path))
    q = PrecisionQuery(x, 2, Fraction(1, 64), 12)
    search = open_search(zeros, x, 2, q.n)
    path.write_text("0101" + "0" * 37 + "\n")
    row = ktf_delta(zeros, f, q, search)
    assert (row.cost, row.witness_output) == (3, "000")
    fresh = ktf_delta(zeros, f, q)  # no search: the file as it is now
    assert (fresh.cost, fresh.witness_output) == (2, "00")


def test_a_spent_search_leaves_its_row_to_a_search_on_the_digits_it_read(tmp_path):
    # level 10 of this search needs digit 28 of a 28-digit file: the search
    # is spent, and n = 21 goes to a fresh search, on the same stream
    path = tmp_path / "d.txt"
    path.write_text("0101010101010101010111111111")
    x = RealSpec.digitfile(str(path))
    t = gen_pool(7, 40, 4, 2, 6)[14][1]
    search = open_search(t, x, 2, 40)
    for n in range(0, 21):
        kdelta(t, PrecisionQuery.at_scale(x, 2, n), search)
    assert search.spent is not None
    q = PrecisionQuery.at_scale(x, 2, 21)
    before = kdelta(t, q)
    path.write_text("01010101010101010101000000000001")
    assert kdelta(t, q, search) == before
    assert before.witness_input == "0000000101"
    assert kdelta(t, q).witness_input == "0000000000"  # no search: the file as it is now


def test_a_delta_that_is_not_a_power_reads_the_exact_value(stream_calls):
    q = PrecisionQuery(THIRD, 2, Fraction(1, 12), 8)
    assert kdelta(make_identity(2), q).found
    assert stream_calls == []


def test_kdelta_n_builds_its_query_from_n(monkeypatch, tmp_path, capsys):
    # no b**-N is built, so none is taken apart again
    path = tmp_path / "id.fst"
    path.write_text(format_fst(make_identity(2)))
    recovered = []
    exponent = precision.delta_exponent
    monkeypatch.setattr(precision, "delta_exponent", lambda d, b: recovered.append(d) or exponent(d, b))
    assert dispatch(["kdelta", "--fst", str(path), "--x", "rat:1/3", "--n", "40"]) == 0
    by_n = capsys.readouterr().out
    assert recovered == []
    assert dispatch(["kdelta", "--fst", str(path), "--x", "rat:1/3", "--delta", "b^-40"]) == 0
    assert capsys.readouterr().out == by_n == f"found,39,{seq_digits(THIRD, 2, 38)}1\n"
    assert recovered == [Fraction(1, 2 ** 40)]
