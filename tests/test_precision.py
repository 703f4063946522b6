import inspect
import random
import sys
from fractions import Fraction

import pytest

from fsdim import dimension, separator
from fsdim.cli import _profile_csv, gen_pool
from fsdim.digits import MAX_PRECISION, FileDigitStream, RealSpec, parse_delta, real_value, seq_digits
from fsdim.dimension import (
    _grid,
    dim_point_estimate,
    dim_seq_estimate,
    dim_set_estimate,
    normality_report,
)
from fsdim.errors import FsdimError, InsufficientDigits
from fsdim.fst import Fst, make_block_huffman, make_identity, make_periodic_decoder, parse_fst
from fsdim.infocontent import CAP_EXCEEDED, FOUND, UNREACHABLE, CostResult, PrefixSearch, Search, kt
from fsdim.precision import (
    FALLBACK_SCALE,
    KdeltaOracleTable,
    PrecisionQuery,
    PrecisionSearch,
    kdelta,
    kdelta_oracle,
    kdelta_profile,
    open_search,
    shared_stream,
)
from fsdim.separator import dimf_estimate, parse_enumerator

THIRD = RealSpec.rational(1, 3)
ZERO = RealSpec.rational(0, 1)


def query(x, n, cap_in=16):
    return PrecisionQuery(x, 2, Fraction(1, 2**n), cap_in)


class TestKdelta:
    def test_identity_third_eighth(self, identity2):
        res = kdelta(identity2, PrecisionQuery(THIRD, 2, Fraction(1, 8), 16))
        assert (res.status, res.cost, res.witness_output) == (FOUND, 2, "01")

    def test_trivial_delta_accepts_empty(self, identity2):
        res = kdelta(identity2, PrecisionQuery(THIRD, 2, Fraction(1), 16))
        assert (res.status, res.cost, res.witness_input) == (FOUND, 0, "")

    def test_doubling_quarter(self, doubling2):
        res = kdelta(doubling2, PrecisionQuery(THIRD, 2, Fraction(1, 4), 16))
        assert (res.status, res.cost, res.witness_input, res.witness_output) == (
            FOUND, 2, "01", "0011",
        )
        assert abs(real_value("0011", 2) - Fraction(1, 3)) < Fraction(1, 4)

    def test_zero_always_free(self, identity2):
        for n in range(1, 12):
            assert kdelta(identity2, query(ZERO, n)).cost == 0

    def test_witness_value_in_interval(self, pool):
        for _, t in pool[:40]:
            for n in range(1, 5):
                res = kdelta(t, query(THIRD, n, cap_in=12))
                if res.found:
                    v = real_value(res.witness_output, 2)
                    assert abs(v - Fraction(1, 3)) < Fraction(1, 2**n)
                    assert t.run(res.witness_input) == res.witness_output

    def test_base_mismatch(self, identity2):
        with pytest.raises(FsdimError):
            kdelta(identity2, PrecisionQuery(THIRD, 3, Fraction(1, 3), 8))

    def test_oracle_base_mismatch(self, identity2):
        with pytest.raises(FsdimError) as refusal:
            kdelta_oracle(identity2, PrecisionQuery(THIRD, 3, Fraction(1, 3), 8))
        assert str(refusal.value) == "transducer base 2 != query base 3"

    def test_exact_dyadic_hit(self, identity2):
        # 5/8 has expansion 101; the exact hit is accepted at every precision
        x = RealSpec.dyadic("101")
        for n in range(4, 20):
            res = kdelta(identity2, query(x, n, cap_in=32))
            assert res.found and res.cost <= 3

    def test_arbitrary_rational_delta(self, identity2):
        res = kdelta(identity2, PrecisionQuery(THIRD, 2, Fraction(1, 12), 16))
        oracle = kdelta_oracle(identity2, PrecisionQuery(THIRD, 2, Fraction(1, 12), 16))
        assert res.found and res.cost == oracle.cost


class TestKdeltaOracle:
    def test_identity_third(self, identity2):
        assert kdelta_oracle(identity2, query(THIRD, 3, cap_in=4)).cost == 2

    def test_zero(self, identity2):
        assert kdelta_oracle(identity2, query(ZERO, 1, cap_in=2)).cost == 0

    def test_doubling(self, doubling2):
        q = PrecisionQuery(THIRD, 2, Fraction(1, 4), 4)
        assert kdelta_oracle(doubling2, q).cost == 2

    def test_answers_at_its_query_cap(self, identity2):
        # 1/3 needs 7 digits to land within 2**-8, past a cap of 3 inputs
        q = PrecisionQuery(THIRD, 2, Fraction(1, 256), 3)
        res = kdelta_oracle(identity2, q)
        assert res.status == CAP_EXCEEDED
        assert res == kdelta(identity2, q)

    def test_table_matches_per_call(self, pool):
        # the per-call walk keeps only the outputs whose cylinder meets the
        # interval, so its levels empty where the table's full walk may not:
        # it proves unreachable where the table reads cap_exceeded, and the
        # table's unreachable is the per-call oracle's too
        for _, t in pool[:15]:
            table = KdeltaOracleTable(t, max_len=8)
            for x in [Fraction(0), Fraction(1, 3), Fraction(5, 24)]:
                spec = RealSpec.rational(x.numerator, x.denominator)
                for n in range(1, 5):
                    a = kdelta_oracle(t, query(spec, n, cap_in=8))
                    b = table.query(x, Fraction(1, 2**n))
                    assert a.status == b.status or (a.status, b.status) == (UNREACHABLE, CAP_EXCEEDED)
                    if a.found:
                        assert a.cost == b.cost


class TestDigitStreamPath:
    def test_digitfile_matches_exact_spec(self, tmp_path, identity2, pool):
        path = tmp_path / "third.txt"
        path.write_text(seq_digits(THIRD, 2, 400) + "\n")
        filespec = RealSpec.digitfile(str(path))
        for _, t in list(pool[:10]) + [("id", identity2)]:
            for n in range(1, 9):
                a = kdelta(t, query(THIRD, n, cap_in=12))
                b = kdelta(t, query(filespec, n, cap_in=12))
                assert a.status == b.status
                if a.found:
                    assert (a.cost, a.witness_input) == (b.cost, b.witness_input)

    def test_champernowne_agrees_with_oracle(self, identity2):
        x = RealSpec.champernowne()
        for n in range(1, 8):
            a = kdelta(identity2, query(x, n, cap_in=12))
            b = kdelta_oracle(identity2, query(x, n, cap_in=12))
            assert a.found and b.found and a.cost == b.cost

    def test_oracle_reads_a_file_shorter_than_its_first_prefix(self, tmp_path, identity2):
        # x = 0.0101...: within 2**-2 of x is decided by the 4 digits
        path = tmp_path / "d.txt"
        path.write_text("0101")
        q = PrecisionQuery.at_scale(RealSpec.digitfile(str(path)), 2, 2)
        assert kdelta_oracle(identity2, q) == kdelta(identity2, q)
        assert (kdelta(identity2, q).status, kdelta(identity2, q).cost) == (FOUND, 1)

    def test_digit_stream_needs_power_delta(self, tmp_path):
        # a point with no exact value is bounded only at delta = 2**-n, so
        # the query refuses 1/3 when it is built, before kdelta is asked
        path = tmp_path / "d.txt"
        path.write_text("0101")
        for x in (RealSpec.digitfile(str(path)), RealSpec.champernowne()):
            with pytest.raises(InsufficientDigits) as refusal:
                PrecisionQuery(x, 2, Fraction(1, 3), 8)
            assert str(refusal.value) == f"{x.describe()} has no exact value; delta must be base**-n"
        assert kdelta(make_identity(2), PrecisionQuery(THIRD, 2, Fraction(1, 3), 8)).cost == 1

    def test_short_file_runs_out(self, tmp_path, identity2):
        path = tmp_path / "d.txt"
        path.write_text("01")
        q = PrecisionQuery(RealSpec.digitfile(str(path)), 2, Fraction(1, 32), 16)
        with pytest.raises(InsufficientDigits):
            kdelta(identity2, q)


class TestProperties:
    def test_delta_monotonicity(self, pool):
        for _, t in pool[:40]:
            prev = None
            for n in range(6, 0, -1):  # delta increasing
                res = kdelta(t, query(THIRD, n, cap_in=12))
                if res.found:
                    if prev is not None:
                        assert res.cost <= prev
                    prev = res.cost

    def test_prefix_inequality_against_kt(self, pool):
        # an exact prefix of the expansion is always one admissible answer
        for _, t in pool[:40]:
            for n in range(1, 6):
                w = seq_digits(THIRD, 2, n + 1)
                res_kt = kt(t, w, cap=12)
                if res_kt.found:
                    res_kd = kdelta(t, query(THIRD, n, cap_in=12))
                    assert res_kd.found and res_kd.cost <= res_kt.cost

    def test_identity_cost_near_precision(self, identity2):
        # distance from 1/3 to any m-digit dyadic is >= 1/(3*2^m)
        for n in range(1, 31):
            res = kdelta(identity2, PrecisionQuery.at_scale(THIRD, 2, n))
            assert res.found and res.cost in (n - 1, n, n + 1)


class TestProfile:
    def test_identity_rows_bounded(self, identity2):
        rows = kdelta_profile([identity2], THIRD, 2, 3)
        for row in rows:
            assert row.cost <= row.n + 1

    def test_periodic_decoder_row(self):
        t = make_periodic_decoder("01", 5, 2)
        rows = kdelta_profile([t], THIRD, 2, 5)
        assert rows[4].n == 5 and rows[4].cost == 1
        assert Fraction(rows[4].cost, rows[4].n) == Fraction(1, 5)

    def test_an_empty_family_is_refused(self):
        with pytest.raises(FsdimError) as refusal:
            kdelta_profile([], THIRD, 2, 6)
        assert str(refusal.value) == "need at least one transducer"

    def test_zero_point_free_everywhere(self, identity2):
        rows = kdelta_profile([identity2], ZERO, 2, 6)
        assert all(row.cost == 0 for row in rows)

    def test_running_infimum_monotone(self, identity2):
        # the running infimum is a column of the profile CSV, its one reader
        rows = kdelta_profile([identity2], THIRD, 2, 12)
        table = [line.split(",") for line in _profile_csv(rows).splitlines()[1:]]
        unflagged = [(Fraction(ratio), Fraction(running)) for _, _, ratio, running, flags in table
                     if not flags]
        assert len(unflagged) == 12
        for (_, a), (ratio, b) in zip(unflagged, unflagged[1:]):
            assert b <= a
            assert b <= ratio

    def test_family_min(self, identity2):
        t = make_periodic_decoder("01", 5, 2)
        rows = kdelta_profile([identity2, t], THIRD, 2, 5)
        solo = kdelta_profile([identity2], THIRD, 2, 5)
        for combined, alone in zip(rows, solo):
            assert combined.cost <= alone.cost


def _row(res):
    return res.status, res.cost, res.witness_input, res.witness_output


def _fresh_or_insufficient(t, q):
    try:
        return _row(kdelta(t, q))
    except InsufficientDigits:
        return None


def _shared_rows_match_fresh(t, x, grid, cap_in=None):
    """Every row of one search for (t, x) equals a fresh one-precision
    search, wherever the fresh search answers; returns the fresh rows."""
    search = open_search(t, x, 2, max(grid))
    rows = []
    for n in grid:
        q = PrecisionQuery.at_scale(x, 2, n, cap_in)
        fresh = _fresh_or_insufficient(t, q)
        if fresh is None:
            with pytest.raises(InsufficientDigits):
                kdelta(t, q, search)
        else:
            assert _row(kdelta(t, q, search)) == fresh, (x, n, cap_in)
        rows.append(fresh)
    return rows


RESUME_POINTS = ["rat:1/3", "rat:5/24", "periodic:001", "dyadic:0111", "rat:1/2", "rat:0/1",
                 "champernowne"]


class TestSharedSearch:
    """One resumable search per (transducer, point) answers each precision
    as a search for that precision alone does: status, cost and witness."""

    @pytest.mark.parametrize("cap_in", [None, 7])
    def test_pool_rows(self, pool, cap_in):
        for spec in RESUME_POINTS:
            x = RealSpec.parse(spec)
            for _, t in pool:
                _shared_rows_match_fresh(t, x, range(0, 21), cap_in)

    def test_sparse_grid_at_large_precisions(self, pool, identity2):
        grid = _grid(1000, 2000)
        assert len(grid) < 40 and grid[-1] == 2000
        family = [identity2, make_periodic_decoder("01", 3, 2)] + [t for _, t in pool[:4]]
        for spec in ("champernowne", "rat:1/3", "rat:1/2", "rat:0/1"):
            for t in family:
                _shared_rows_match_fresh(t, RealSpec.parse(spec), grid)

    def test_terminating_point_solves_every_precision_at_once(self, identity2):
        # 1/2 is the output "1" exactly: one accept answers n = 2..hi
        search = open_search(identity2, RealSpec.rational(1, 2), 2, 500)
        res = kdelta(identity2, query(RealSpec.rational(1, 2), 2), search)
        assert (res.cost, res.witness_output) == (1, "1")
        assert search.S == 500 and search.level == 1

    def test_short_digit_file(self, tmp_path, pool):
        # 100 digits of random.Random(3), n up to the file's length and past it
        path = tmp_path / "d.txt"
        rng = random.Random(3)
        path.write_text("".join(rng.choice("01") for _ in range(100)))
        x = RealSpec.digitfile(str(path))
        rows = [r for _, t in pool for r in _shared_rows_match_fresh(t, x, range(1, 106))]
        assert sum(r is None for r in rows) == 200 * 5 + 16  # n > 100, and 16 rows at n <= 100
        assert sum(r is not None and r[0] == FOUND for r in rows) == 2596

    def test_a_walk_past_the_buffer_fills_it_and_matches_the_oracle(self):
        # a fresh stream holds the hi digits the search asks for at the
        # start; bursts of up to 3 digits read past them, and each such digit
        # comes through `DigitStream.digit`, which fills the buffer
        cap, hi = 8, 6
        grew = 0
        for _, t in gen_pool(11, 12, 4, 2, 3):
            for x in (THIRD, RealSpec.champernowne()):
                stream = x.stream(2)
                search = PrecisionSearch(t, x, stream, hi)
                for n in range(1, hi + 1):
                    res = search.answer(n, cap)
                    oracle = kdelta_oracle(t, PrecisionQuery.at_scale(x, 2, n, cap))
                    assert oracle == res
                grew += len(stream.buffer) > hi
        assert grew == 9, grew  # searches whose walk read past their buffer

    def test_long_bursts_past_the_end_of_a_file(self, tmp_path):
        # emissions that cross the file's last digit, and a tail of zeros the
        # file cannot confirm, leave some precisions undecided
        family = [t for _, t in gen_pool(7, 40, 4, 2, 6)] + [
            make_periodic_decoder(p, c, 2) for p in ("01", "1", "011") for c in (1, 3, 8)]
        rows = []
        for i, digits in enumerate(["1" + "0" * 21, "0101010101010101010111111111"]):
            path = tmp_path / f"d{i}.txt"
            path.write_text(digits)
            x = RealSpec.digitfile(str(path))
            for t in family:
                for cap_in in (None, 9):
                    rows += _shared_rows_match_fresh(t, x, range(0, 41), cap_in)
        # pinned counts: a search that reads past a file's end, or stops short
        # of an answer its digits decide, changes them
        assert sum(r is None for r in rows) == 98 * (18 + 12) + 24  # n past each file, and 24 more
        assert sum(r is not None and r[0] == FOUND for r in rows) == 1461

    def test_the_track_past_a_goal_is_cut_at_the_end_of_a_file(self, tmp_path):
        # at x = 0.1000, the file's four digits, this machine's output
        # 011 0 0 ... is on the track of goal 3 from digit 3 on, D = -2**(j - 3),
        # until a burst needs digit 4. Only the digits past the file decide
        # whether it stays there (cap_exceeded) or falls off (unreachable)
        t = parse_fst("fst 1\nbase 2\nstates 2\nstart 0\n"
                      "t 0 0 1 011\nt 0 1 1 011\nt 1 0 1 0\nt 1 1 1 0\n")
        path = tmp_path / "d.txt"
        path.write_text("1000")
        rows = kdelta_profile([t], RealSpec.digitfile(str(path)), 2, 4)
        assert [(r.n, r.flags or r.cost) for r in rows] == [
            (1, 1), (2, 1), (3, "insufficient"), (4, "unreachable")]

    def test_a_spent_search_keeps_its_answers_and_never_steps_again(self, tmp_path):
        # level 10 of this search needs digit 28 of a 28-digit file, after it
        # has solved precision 20: the search is spent at level 9, keeps 20,
        # and leaves 21 to a fresh search
        path = tmp_path / "d.txt"
        path.write_text("0101010101010101010111111111")
        x = RealSpec.digitfile(str(path))
        t = gen_pool(7, 40, 4, 2, 6)[14][1]
        search = open_search(t, x, 2, 40)
        for n in range(0, 21):
            kdelta(t, PrecisionQuery.at_scale(x, 2, n), search)
        assert isinstance(search.spent, InsufficientDigits)
        assert search.level == 9 and search.S == 20 and search.resolved[20][0] == 10
        walked = []
        advance = search.advance

        def counting_advance(pos, out):
            walked.append(pos)
            return advance(pos, out)

        search.advance = counting_advance
        for n in range(0, 21):
            q = PrecisionQuery.at_scale(x, 2, n)
            assert _row(search.answer(n, q.cap_input)) == _fresh_or_insufficient(t, q), n
        q = PrecisionQuery.at_scale(x, 2, 21)
        for cap in (q.cap_input, 9):  # also at a cap the search has walked to
            with pytest.raises(InsufficientDigits):
                search.answer(21, cap)
            fresh = _fresh_or_insufficient(t, q)
            assert fresh[0] == FOUND and _row(kdelta(t, q, search)) == fresh
        assert search.level == 9 and walked == []

    def test_asking_back(self, pool):
        # a smaller precision or cap than the search has walked to is either
        # answered as a fresh search answers it, or refused: a precision the
        # search gave up when a finer one was asked, or one still open once
        # the search has walked past the cap
        answered = refused = 0
        for _, t in pool[:60]:
            search = open_search(t, THIRD, 2, 20)
            for n in (6, 20):
                kdelta(t, PrecisionQuery.at_scale(THIRD, 2, n, 88), search)
            for n in range(0, 21):
                for cap_in in (0, 3, 8, 88):
                    q = PrecisionQuery.at_scale(THIRD, 2, n, cap_in)
                    try:
                        res = kdelta(t, q, search)
                    except FsdimError:
                        refused += 1
                    else:
                        assert _row(res) == _row(kdelta(t, q)), (n, cap_in)
                        answered += 1
        assert answered and refused

    def test_search_for_another_point_is_refused(self, identity2):
        search = open_search(identity2, THIRD, 2, 8)
        with pytest.raises(FsdimError):
            kdelta(identity2, query(ZERO, 3), search)

    @pytest.mark.parametrize("ask", ["point past hi", "transducer past hi", "point off a power"])
    def test_a_search_for_another_ask_is_refused_on_every_path(self, identity2, doubling2, ask):
        # refused before kdelta picks a path: past the search's largest
        # precision, where a fresh search answers, and at a delta that is
        # not b**-n, where the walk on x - delta answers
        search = open_search(identity2, THIRD, 2, 8)
        t, q = {"point past hi": (identity2, query(ZERO, 12)),
                "transducer past hi": (doubling2, query(THIRD, 12)),
                "point off a power": (identity2, PrecisionQuery(ZERO, 2, Fraction(1, 3), 8))}[ask]
        with pytest.raises(FsdimError, match="the search is for another transducer or point"):
            kdelta(t, q, search)

    def test_dim_set_builds_one_search_per_transducer_and_point(self, monkeypatch, pool):
        # the estimator drops a transducer at its first point without a usable
        # row, so it profiles 29 of the 60 (transducer, point) pairs here
        built, profiled = [], []
        init, profile = PrecisionSearch.__init__, dimension.kdelta_profile

        def counting_init(self, t, x, stream, hi):
            built.append((id(t), x))
            init(self, t, x, stream, hi)

        def counting_profile(ts, x, *args, **kwargs):
            profiled.extend((id(t), x) for t in ts)
            return profile(ts, x, *args, **kwargs)

        monkeypatch.setattr(PrecisionSearch, "__init__", counting_init)
        monkeypatch.setattr(dimension, "kdelta_profile", counting_profile)
        points = [RealSpec.parse(s) for s in ("rat:1/3", "periodic:001", "rat:5/24")]
        report = dim_set_estimate(pool[:20], points, 2, 100)
        assert built == profiled
        assert len(built) == len(set(built)) == 29
        assert report.estimate == Fraction(101, 100)


def _line_hits(func, text: str, run) -> int:
    """How often run() executes the line of func that holds text."""
    code = func.__code__
    lines, first = inspect.getsourcelines(func)
    target = first + next(i for i, line in enumerate(lines) if text in line)
    hits = []

    def trace(frame, event, arg):
        if frame.f_code is not code:
            return None

        def line(frame, event, arg):
            if event == "line" and frame.f_lineno == target:
                hits.append(frame.f_lineno)
            return line
        return line

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(previous)
    return len(hits)


class TestExactPowerBoundary:
    def test_shared_fresh_and_oracle_agree(self):
        # an output with D = b**m and an all-zero tail of x from j lies exactly
        # b**-(j - m) from x, so it solves j - m - 1, not j - m (the `top -= 1`
        # of PrecisionSearch._through); 0 emits 0 and 1 emits 110, so outputs
        # ending in ...0110 land on such a boundary of a dyadic point
        t = Fst(2, 1, 0, (((0, (0,)), (0, (1, 1, 0))),))
        rows = []

        def run():
            for spec in ("rat:1/2", "rat:1/4", "rat:3/8", "dyadic:101"):
                x = RealSpec.parse(spec)
                search = open_search(t, x, 2, 8)
                for n in range(9):
                    q = PrecisionQuery.at_scale(x, 2, n)
                    rows.append((q, kdelta(t, q, search), kdelta(t, q)))

        assert _line_hits(PrecisionSearch._through, "top -= 1", run) == 4
        assert len(rows) == 36
        for q, shared, fresh in rows:
            assert shared == fresh, q
            oracle = kdelta_oracle(t, PrecisionQuery.at_scale(q.x, 2, q.n, 10))
            assert oracle == shared, q


class TestSharedInterval:
    def test_rewritten_digit_file_is_read_again(self, tmp_path, identity2):
        path = tmp_path / "x.txt"
        path.write_text("0000000000000001")
        x = RealSpec.digitfile(str(path))
        first = kdelta(identity2, query(x, 3))
        assert (first.status, first.cost) == (FOUND, 0)
        path.write_text("111111111111111111111111")
        second = kdelta(identity2, query(x, 3))
        assert (second.status, second.cost, second.witness_output) == (FOUND, 3, "111")

    def test_family_profile_reads_digit_file_once(self, tmp_path, monkeypatch, identity2, pool):
        path = tmp_path / "d.txt"
        path.write_text(seq_digits(THIRD, 2, 200) + "\n")
        x = RealSpec.digitfile(str(path))
        reads = []
        from_file = FileDigitStream.from_file.__func__

        def counting(cls, fname, base):
            reads.append(fname)
            return from_file(cls, fname, base)

        monkeypatch.setattr(FileDigitStream, "from_file", classmethod(counting))
        family = [identity2] + [t for _, t in pool[:5]]
        rows = kdelta_profile(family, x, 2, 10)
        assert len(rows) == 10
        assert reads == [str(path)]
        # the enumeration oracle stays independent of the shared stream
        kdelta_oracle(identity2, query(x, 4, cap_in=6))
        assert len(reads) > 1

    def test_an_oracle_reads_a_digit_file_once_per_call(self, tmp_path, file_reads, identity2):
        path = tmp_path / "d.txt"
        path.write_text(seq_digits(THIRD, 2, 40) + "\n")
        x = RealSpec.digitfile(str(path))
        for n in (6, 8):
            res = kdelta_oracle(identity2, query(x, n, cap_in=10))
            assert res == kdelta_oracle(identity2, query(THIRD, n, cap_in=10))
        assert file_reads == [str(path)] * 2


class TestCarriedExponent:
    """A query carries n with delta == base**-n, set from its delta, so
    `kdelta` never recovers it; `at_scale` builds one query per
    (point, base, n, cap)."""

    def test_at_scale_carries_n(self):
        for base in (2, 3, 10):
            for n in (0, 1, 7, 300):
                q = PrecisionQuery.at_scale(THIRD, base, n)
                assert q.n == n and q.delta == Fraction(1, base**n)

    def test_hand_built_query_finds_n(self):
        assert PrecisionQuery(THIRD, 2, Fraction(1, 32), 8).n == 5
        assert PrecisionQuery(THIRD, 2, Fraction(1, 12), 8).n is None
        assert PrecisionQuery(THIRD, 3, Fraction(1, 8), 8).n is None

    def test_default_cap_reads_n(self, identity2):
        # 4 * (n + 2), where a delta that is not a power reads n as
        # FALLBACK_SCALE and is still answered at that delta, not at 2**-14
        q = PrecisionQuery(THIRD, 2, Fraction(1, 12))
        assert q.n is None and q.cap_input == 4 * (FALLBACK_SCALE + 2) == 64
        res = kdelta(identity2, q)
        assert res == kdelta_oracle(identity2, q)
        assert res != kdelta(identity2, PrecisionQuery.at_scale(THIRD, 2, FALLBACK_SCALE))
        q = PrecisionQuery(THIRD, 2, Fraction(1, 64))
        assert q.n == 6 and q.cap_input == 32
        assert q == PrecisionQuery.at_scale(THIRD, 2, 6)

    def test_equality_and_hash_ignore_n(self):
        q = PrecisionQuery.at_scale(THIRD, 2, 5)
        hand = PrecisionQuery(THIRD, 2, Fraction(1, 32), 28)
        assert q == hand and hash(q) == hash(hand)
        for args in ((ZERO, 2, Fraction(1, 32), 28), (THIRD, 4, Fraction(1, 32), 28),
                     (THIRD, 2, Fraction(1, 16), 28), (THIRD, 2, Fraction(1, 32), 27)):
            assert q != PrecisionQuery(*args)
        assert repr(q) == repr(hand) and repr(q).endswith("cap_input=28)")

    def test_one_query_per_precision(self):
        assert PrecisionQuery.at_scale(THIRD, 2, 9) is PrecisionQuery.at_scale(THIRD, 2, 9)
        assert PrecisionQuery.at_scale(THIRD, 2, 9, 5) is not PrecisionQuery.at_scale(THIRD, 2, 9)

    def test_bad_arguments_raise_on_every_call(self):
        for _ in range(2):
            with pytest.raises(FsdimError):
                PrecisionQuery.at_scale(THIRD, 2, -1)
            with pytest.raises(FsdimError):
                PrecisionQuery.at_scale(THIRD, 1, 3)
            with pytest.raises(FsdimError):
                PrecisionQuery.at_scale(THIRD, 2, 3, -1)
        with pytest.raises(FsdimError):
            PrecisionQuery(THIRD, 1, Fraction(1, 2), 8)


class TestPrecisionCeiling:
    """A precision above MAX_PRECISION is refused before base**n is built;
    one at the ceiling is taken. The CLI tests cover every entry point."""

    def test_the_ceiling_admits_acceptance_criterion_8(self):
        assert MAX_PRECISION >= 10_000

    def test_at_scale(self):
        assert PrecisionQuery.at_scale(THIRD, 2, MAX_PRECISION).n == MAX_PRECISION
        with pytest.raises(FsdimError, match="exceeds the largest supported"):
            PrecisionQuery.at_scale(THIRD, 2, MAX_PRECISION + 1)

    def test_parse_delta(self):
        assert parse_delta(f"^-{MAX_PRECISION}", 2) == Fraction(1, 2**MAX_PRECISION)
        with pytest.raises(FsdimError, match="exceeds the largest supported"):
            parse_delta(f"^-{MAX_PRECISION + 1}", 2)

    def test_make_block_huffman(self):
        with pytest.raises(FsdimError, match="exceeds the largest supported"):
            make_block_huffman(THIRD.stream(2), MAX_PRECISION + 1, 2)

    def test_an_input_cap_above_the_default_cap_at_the_ceiling_is_refused(self):
        # a walk's time and memory grow linearly with its input cap
        assert PrecisionQuery.at_scale(THIRD, 2, 3, 4 * (MAX_PRECISION + 2)).cap_input == 400_008
        for make in (lambda cap: PrecisionQuery.at_scale(THIRD, 2, 3, cap),
                     lambda cap: PrecisionQuery(THIRD, 2, Fraction(1, 3), cap)):
            with pytest.raises(FsdimError, match="the input cap must be <= 400008, got 400009"):
                make(400_009)
            with pytest.raises(FsdimError, match="the input cap must be >= 0, got -1"):
                make(-1)


class TestPerRowWork:
    """One query per precision, pinned as counts, and the rows of one accept,
    which give equal results, each equal to a fresh search's."""

    def test_dim_point_builds_one_query_per_precision(self, monkeypatch, pool):
        built, rows = [], []
        new = PrecisionQuery.__new__
        row = dimension.kdelta_profile

        def counting_new(cls, *args):
            built.append(new(cls, *args))
            return built[-1]

        def counting_profile(ts, x, *args, **kwargs):
            out = row(ts, x, *args, **kwargs)
            rows.extend(out)
            return out

        monkeypatch.setattr(PrecisionQuery, "__new__", counting_new)
        monkeypatch.setattr(dimension, "kdelta_profile", counting_profile)
        PrecisionQuery.at_scale.cache_clear()  # a query built by another test is not counted
        x = RealSpec.parse("rat:5/24")
        family, n_max = pool[:20], 40
        dim_point_estimate(family, x, 2, n_max)
        assert len(rows) == len(family) * n_max  # F * G rows ...
        assert len(built) == n_max  # ... from G queries
        assert sorted(q.n for q in built) == list(range(1, n_max + 1))

    def test_family_profile_builds_one_query_per_precision(self, monkeypatch, pool):
        built = []
        new = PrecisionQuery.__new__

        def counting_new(cls, *args):
            built.append(new(cls, *args))
            return built[-1]

        monkeypatch.setattr(PrecisionQuery, "__new__", counting_new)
        PrecisionQuery.at_scale.cache_clear()
        rows = kdelta_profile([t for _, t in pool[:30]], THIRD, 2, 25)
        assert len(rows) == 25 and len(built) == 25

    @pytest.mark.parametrize("point", ["rat:5/24", "digitfile:DIGITS"])
    @pytest.mark.parametrize("kind", ["canonical", "targeted:rat:1/3", "blockperm:2:PERM"])
    def test_separator_estimate_builds_one_query_per_precision(self, monkeypatch, tmp_path, pool,
                                                               kind, point):
        built, rows = [], []
        new = PrecisionQuery.__new__
        row = separator.profile_rows

        def counting_new(cls, *args):
            built.append(new(cls, *args))
            return built[-1]

        def counting_rows(grid, search):
            out = row(grid, search)
            rows.extend(out)
            return out

        def refused(*args):
            pytest.fail("a row recovered n from its delta")

        (tmp_path / "perm.txt").write_text("00 -> 10\n01 -> 00\n10 -> 11\n11 -> 01\n")
        (tmp_path / "d.txt").write_text(seq_digits(RealSpec.parse("rat:5/7"), 2, 200) + "\n")
        monkeypatch.setattr(PrecisionQuery, "__new__", counting_new)
        monkeypatch.setattr(separator, "profile_rows", counting_rows)
        monkeypatch.setattr("fsdim.digits.delta_exponent", refused)
        monkeypatch.setattr("fsdim.precision.delta_exponent", refused)
        PrecisionQuery.at_scale.cache_clear()  # a query built by another test is not counted
        f = parse_enumerator(kind.replace("PERM", str(tmp_path / "perm.txt")), 2)
        x = RealSpec.parse(point.replace("DIGITS", str(tmp_path / "d.txt")))
        family, n_max = pool[:20], 12
        dimf_estimate(family, f, [x], n_max, max_input_len=8)
        assert len(rows) == len(family) * n_max  # F * G rows ...
        assert len(built) == n_max  # ... from G queries
        assert sorted(q.n for q in built) == list(range(1, n_max + 1))
        assert {q.cap_input for q in built} == {8}

    def test_no_prune_runs_on_an_empty_frontier(self, monkeypatch, pool):
        # a search with nothing left to walk gives up goals by moving S alone
        frontiers = []
        prune = PrecisionSearch._prune

        def counting_prune(self):
            frontiers.append(len(self.frontier))
            prune(self)

        monkeypatch.setattr(PrecisionSearch, "_prune", counting_prune)
        dim_point_estimate(pool[:20], RealSpec.parse("rat:1/3"), 2, 30)
        assert frontiers and 0 not in frontiers

    def test_one_witness_per_accept(self, identity2):
        # 1/4 is the output "01" exactly: one accept at level 2 solves every
        # precision from 2 up, and each of those rows gets the same result
        x = RealSpec.parse("rat:1/4")
        search = open_search(identity2, x, 2, 40)
        results = [kdelta(identity2, PrecisionQuery.at_scale(x, 2, n), search) for n in range(2, 41)]
        assert search.level == 2 and {search.resolved[n][0] for n in range(2, 41)} == {2}
        assert all(res == results[0] for res in results)
        for n, res in zip(range(2, 41), results):
            fresh = PrecisionSearch(identity2, x, shared_stream(x, 2), n)
            assert res == fresh.answer(n, PrecisionQuery.at_scale(x, 2, n).cap_input)
        assert (results[0].cost, results[0].witness_output) == (2, "01")

    def test_a_cap_below_the_accept_is_not_the_shared_witness(self, identity2):
        # the cap test runs before the witness is looked up
        x = RealSpec.parse("rat:1/4")
        search = open_search(identity2, x, 2, 10)
        found = kdelta(identity2, PrecisionQuery.at_scale(x, 2, 3), search)
        capped = kdelta(identity2, PrecisionQuery.at_scale(x, 2, 4, 1), search)
        assert found.found and capped.status == CAP_EXCEEDED
        assert kdelta(identity2, PrecisionQuery.at_scale(x, 2, 5), search) == found


def _cost(call):
    """(status, cost) of a search answer, or "insufficient"."""
    try:
        res = call()
    except InsufficientDigits:
        return "insufficient"
    return res.status, res.cost


class TestCostOnlyRows:
    """Rows read only costs: no estimator, profile or report builds a
    witness, and a cost-only answer has the status and cost of the default
    one, which keeps its witness."""

    @pytest.fixture()
    def witnesses(self, monkeypatch):
        built = []
        witness = Search.witness

        def counting(self, hit):
            built.append(hit)
            return witness(self, hit)

        monkeypatch.setattr(Search, "witness", counting)
        return built

    def test_the_counter_sees_a_default_call(self, witnesses, identity2):
        assert kdelta(identity2, query(THIRD, 3)).witness_output == "01"
        assert kt(identity2, "0110").witness_input == "0110"
        assert len(witnesses) == 2

    def test_no_row_source_builds_a_witness(self, witnesses, pool, identity2):
        family = [identity2] + [t for _, t in pool[:12]]
        kdelta_profile(family, THIRD, 2, 20)
        dim_point_estimate(family, RealSpec.parse("rat:5/24"), 2, 24)
        dim_set_estimate(family, [THIRD, RealSpec.parse("champernowne")], 2, 16)
        dim_seq_estimate(family, RealSpec.parse("champernowne").stream(2), 24)
        for kind in ("canonical", "targeted:rat:1/3"):
            dimf_estimate(family, parse_enumerator(kind, 2), [THIRD, ZERO], 8, max_input_len=10)
        normality_report(RealSpec.parse("champernowne"), 2, 40)
        assert witnesses == []

    def test_cost_only_answers_match_the_default(self, tmp_path, pool):
        # the file spends the shared search of the burst transducer at level
        # 9 (TestSharedSearch), so its open rows go to fresh searches
        path = tmp_path / "d.txt"
        path.write_text("0101010101010101010111111111")
        points = [THIRD, RealSpec.parse("rat:5/24"), RealSpec.parse("champernowne"),
                  RealSpec.digitfile(str(path))]
        family = [t for _, t in pool[:25]] + [gen_pool(7, 40, 4, 2, 6)[14][1]]
        spent = 0
        for t in family:
            for x in points:
                shared, cost_only = open_search(t, x, 2, 32), open_search(t, x, 2, 32)
                for n in range(0, 33):
                    q = PrecisionQuery.at_scale(x, 2, n)
                    full = _cost(lambda: kdelta(t, q, shared))
                    assert _cost(lambda: kdelta(t, q, cost_only, witness=False)) == full, (x, n)
                    assert _cost(lambda: kdelta(t, q, witness=False)) == _cost(lambda: kdelta(t, q))
                spent += cost_only.spent is not None
            word = seq_digits(RealSpec.parse("champernowne"), 2, 30)
            shared, cost_only = PrefixSearch(t, word), PrefixSearch(t, word)
            for n in range(0, 31):
                full = _cost(lambda: kt(t, word[:n], 2 * n + 8, shared))
                assert _cost(lambda: kt(t, word[:n], 2 * n + 8, cost_only, witness=False)) == full
                assert _cost(lambda: kt(t, word[:n], 2 * n + 8, witness=False)) == full
        assert spent >= 1

    def test_a_cost_only_result_has_no_witness(self, identity2):
        res = kdelta(identity2, query(THIRD, 3), witness=False)
        assert res == CostResult(FOUND, 2)
        assert kt(identity2, "01", witness=False) == CostResult(FOUND, 2)
