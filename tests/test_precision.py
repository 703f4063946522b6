from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fsdim import precision
from fsdim.digits import FileDigitStream, RealSpec, real_value, seq_digits
from fsdim.dimension import dim_set_estimate
from fsdim.errors import FsdimError, InsufficientDigits
from fsdim.fst import make_identity, make_periodic_decoder
from fsdim.infocontent import CAP_EXCEEDED, FOUND, kt
from fsdim.precision import (
    KdeltaOracleTable,
    PrecisionQuery,
    kdelta,
    kdelta_oracle,
    kdelta_profile,
    _split_bound,
)

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
        assert kdelta_oracle(identity2, query(THIRD, 3), max_len=4).cost == 2

    def test_zero(self, identity2):
        assert kdelta_oracle(identity2, query(ZERO, 1), max_len=2).cost == 0

    def test_doubling(self, doubling2):
        q = PrecisionQuery(THIRD, 2, Fraction(1, 4), 16)
        assert kdelta_oracle(doubling2, q, max_len=4).cost == 2

    def test_table_matches_per_call(self, pool):
        for _, t in pool[:15]:
            table = KdeltaOracleTable(t, max_len=8)
            for x in [Fraction(0), Fraction(1, 3), Fraction(5, 24)]:
                spec = RealSpec.rational(x.numerator, x.denominator)
                for n in range(1, 5):
                    a = kdelta_oracle(t, query(spec, n), max_len=8)
                    b = table.query(x, Fraction(1, 2**n))
                    assert a.status == b.status
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
            b = kdelta_oracle(identity2, query(x, n, cap_in=12), max_len=12)
            assert a.found and b.found and a.cost == b.cost

    def test_digit_stream_needs_power_delta(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("0101")
        q = PrecisionQuery(RealSpec.digitfile(str(path)), 2, Fraction(1, 3), 8)
        with pytest.raises(InsufficientDigits):
            kdelta(make_identity(2), q)

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
        assert rows[4].ratio == Fraction(1, 5)

    def test_zero_point_free_everywhere(self, identity2):
        rows = kdelta_profile([identity2], ZERO, 2, 6)
        assert all(row.cost == 0 for row in rows)

    def test_running_infimum_monotone(self, identity2):
        rows = kdelta_profile([identity2], THIRD, 2, 12)
        unflagged = [r for r in rows if not r.flags]
        for a, b in zip(unflagged, unflagged[1:]):
            assert b.running_inf <= a.running_inf
            assert b.running_inf <= b.ratio

    def test_family_min(self, identity2):
        t = make_periodic_decoder("01", 5, 2)
        rows = kdelta_profile([identity2, t], THIRD, 2, 5)
        solo = kdelta_profile([identity2], THIRD, 2, 5)
        for combined, alone in zip(rows, solo):
            assert combined.cost <= alone.cost


def _split_bound_reference(delta: Fraction, base: int) -> int:
    """The original Fraction loop: smallest m with base**-m <= 2*delta."""
    m = 0
    scale = Fraction(1)
    while scale > 2 * delta:
        scale /= base
        m += 1
    return m


class TestSharedInterval:
    @given(st.integers(1, 10**30), st.integers(0, 10**30), st.integers(2, 10))
    def test_split_bound_matches_fraction_loop(self, den, extra, base):
        delta = Fraction(den, den + extra)  # any rational in (0, 1]
        assert _split_bound(delta, base) == _split_bound_reference(delta, base)

    @given(st.integers(0, 300), st.integers(2, 10))
    def test_split_bound_at_powers(self, n, base):
        delta = Fraction(1, base**n)
        assert _split_bound(delta, base) == _split_bound_reference(delta, base)

    def test_dim_set_builds_each_interval_once(self, monkeypatch, pool):
        # 3 points x 100 precisions = 300 keys, enough for a bounded memo to
        # evict intervals that the next transducer still needs
        precision._bounds.cache_clear()
        keys = []
        init = precision._Bounds.__init__

        def counting(self, x, base, delta, stamp):
            keys.append((x, base, delta))
            init(self, x, base, delta, stamp)

        monkeypatch.setattr(precision._Bounds, "__init__", counting)
        points = [RealSpec.parse(s) for s in ("rat:1/3", "periodic:001", "rat:5/24")]
        report = dim_set_estimate(pool[:20], points, 2, 100)
        assert len(keys) == len(set(keys)) == 300
        assert report.estimate == Fraction(101, 100)

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
        kdelta_oracle(identity2, query(x, 4), max_len=6)
        assert len(reads) > 1
