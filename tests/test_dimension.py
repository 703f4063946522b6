from fractions import Fraction

import pytest

from fsdim.digits import FileDigitStream, RealSpec
from fsdim.dimension import (
    COMPRESSIBLE,
    NO_COMPRESSION,
    detect_periods,
    dim_point_estimate,
    dim_seq_estimate,
    dim_set_estimate,
    estimate,
    normality_family,
    normality_report,
)
from fsdim.errors import AllRowsFlagged, FsdimError
from fsdim.fst import Fst, make_block_huffman, make_identity, make_periodic_decoder

THIRD = RealSpec.rational(1, 3)
ZERO = RealSpec.rational(0, 1)


class TestPointEstimate:
    def test_identity_near_one_for_third(self, identity2):
        report = dim_point_estimate([("id", identity2)], THIRD, 2, 20)
        assert abs(report.estimate - 1) <= Fraction(2, 20)

    def test_periodic_decoder_compresses(self):
        family = [("pd4", make_periodic_decoder("01", 4, 2))]
        report = dim_point_estimate(family, THIRD, 2, 60)
        assert report.estimate <= Fraction(1, 8) + Fraction(5, 100)

    def test_zero_point(self, identity2):
        report = dim_point_estimate([("id", identity2)], ZERO, 2, 20)
        assert report.estimate == 0

    def test_family_monotonicity(self, identity2):
        pd = make_periodic_decoder("01", 2, 2)
        small = dim_point_estimate([("id", identity2)], THIRD, 2, 16)
        large = dim_point_estimate([("id", identity2), ("pd", pd)], THIRD, 2, 16)
        assert large.estimate <= small.estimate

    def test_window_monotonicity_for_matched_decoder(self):
        # with a decoder matched to the point's period a longer horizon never
        # hurts beyond cost-step granularity: costs are ceilings, so deeper
        # windows can sit up to one step (1/n_lo) above a shallower minimum
        family = [("pd4", make_periodic_decoder("01", 4, 2))]
        small = dim_point_estimate(family, THIRD, 2, 20)
        large = dim_point_estimate(family, THIRD, 2, 40)
        assert large.estimate <= small.estimate + Fraction(1, small.window[0])

    def test_all_rows_flagged(self):
        # the only output is the empty one, 0, which is within 2**-n of 1/3
        # only at n = 1: every row of the window [5, 10] is unreachable
        silent = Fst(2, 1, 0, (((0, ()), (0, ())),))
        with pytest.raises(AllRowsFlagged):
            dim_point_estimate([("silent", silent)], THIRD, 2, 10)


@pytest.mark.parametrize("family, points, message", [
    ([], [THIRD], "family must be nonempty"),
    ([make_identity(2)], [], "need at least one point"),
])
def test_estimate_refuses_empty_inputs(family, points, message):
    with pytest.raises(FsdimError) as refusal:
        estimate(family, 2, points, 8, Fraction(1, 2), lambda t, x, grid: [])
    assert str(refusal.value) == message


class TestSeqEstimate:
    def test_identity_exactly_one(self, identity2):
        report = dim_seq_estimate([("id", identity2)], THIRD.stream(2), 50)
        assert report.estimate == 1

    def test_periodic_decoder_on_own_word(self):
        family = [("pd1", make_periodic_decoder("01", 1, 2))]
        report = dim_seq_estimate(family, THIRD.stream(2), 40)
        assert report.estimate <= Fraction(1, 2) + Fraction(1, 40)

    def test_block_huffman_on_own_word(self):
        train = THIRD.stream(2)
        family = [("hb2", make_block_huffman(train, 40, 2))]
        report = dim_seq_estimate(family, THIRD.stream(2), 40)
        assert report.estimate <= Fraction(1, 2)

    def test_identity_in_family_caps_estimate(self, identity2, pool):
        family = [("id", identity2)] + list(pool[:5])
        report = dim_seq_estimate(family, RealSpec.champernowne().stream(2), 30)
        n_lo = report.window[0]
        assert report.estimate <= 1 + Fraction(1, n_lo)


class TestSetEstimate:
    def test_singleton_matches_point(self, identity2):
        family = [("id", identity2)]
        point = dim_point_estimate(family, THIRD, 2, 20)
        single = dim_set_estimate(family, [THIRD], 2, 20)
        assert single.estimate == point.estimate

    def test_zero_set(self, identity2):
        assert dim_set_estimate([("id", identity2)], [ZERO], 2, 20).estimate == 0

    def test_sup_picks_hard_point(self, identity2):
        report = dim_set_estimate([("id", identity2)], [ZERO, THIRD], 2, 20)
        assert abs(report.estimate - 1) <= Fraction(2, 20)

    def test_inf_sup_dominates_sup_inf(self, identity2):
        family = [
            ("id", identity2),
            ("pd01", make_periodic_decoder("01", 4, 2)),
            ("pd001", make_periodic_decoder("001", 4, 2)),
        ]
        xs = [THIRD, RealSpec.periodic("001")]
        set_report = dim_set_estimate(family, xs, 2, 36)
        per_point = max(dim_point_estimate(family, x, 2, 36).estimate for x in xs)
        assert set_report.estimate >= per_point

    def test_specialist_transducers_only_help_their_own_period(self, identity2):
        pd01 = make_periodic_decoder("01", 4, 2)
        pd001 = make_periodic_decoder("001", 4, 2)
        x001 = RealSpec.periodic("001")
        # each specialist compresses its own period only
        assert dim_point_estimate([("pd01", pd01)], THIRD, 2, 60).estimate < Fraction(1, 4)
        assert dim_point_estimate([("pd001", pd001)], x001, 2, 60).estimate < Fraction(1, 4)
        # on the two-point set neither specialist can serve both points, so the
        # inf-sup estimate falls back to the identity backstop
        family = [("id", identity2), ("pd01", pd01), ("pd001", pd001)]
        report = dim_set_estimate(family, [THIRD, x001], 2, 60)
        assert set(report.per_transducer) == {"id"}
        assert report.estimate > Fraction(1, 2)

    def test_specialists_alone_cannot_cover_the_set(self):
        family = [
            ("pd01", make_periodic_decoder("01", 4, 2)),
            ("pd001", make_periodic_decoder("001", 4, 2)),
        ]
        with pytest.raises(AllRowsFlagged):
            dim_set_estimate(family, [THIRD, RealSpec.periodic("001")], 2, 60)


class TestNormality:
    def test_third_is_compressible(self):
        report = normality_report(THIRD, 2, 60)
        assert report.verdict == COMPRESSIBLE
        assert report.estimate <= Fraction(2, 10)

    def test_dyadic_collapses(self):
        report = normality_report(RealSpec.dyadic("101"), 2, 60)
        assert report.verdict == COMPRESSIBLE
        assert report.estimate <= Fraction(1, 10)

    def test_champernowne_small_scale(self):
        # cheap stand-in for the full acceptance run
        report = normality_report(RealSpec.champernowne(), 2, 200, max_block_len=2)
        assert report.verdict == NO_COMPRESSION
        assert report.estimate >= Fraction(8, 10)

    def test_a_digit_file_is_read_once_per_report(self, tmp_path, file_reads):
        # the training digits and the searches read one stream of the point
        path = tmp_path / "d.txt"
        path.write_text("0110101110010100" * 4 + "\n")
        normality_report(RealSpec.digitfile(str(path)), 2, 40)
        assert file_reads == [str(path)]

    def test_detect_periods(self):
        assert detect_periods(THIRD.stream(2))[0] == 2
        assert detect_periods(RealSpec.periodic("001").stream(2))[0] == 3
        assert detect_periods(RealSpec.champernowne().stream(2)) == []

    def test_detect_periods_on_short_file(self):
        # 20 digits: periods up to 10 can be seen repeating, longer ones cannot
        stream = FileDigitStream([0, 1, 1, 0] * 5, 2)
        assert detect_periods(stream) == [4, 8]

    def test_family_composition(self):
        names = [name for name, _ in normality_family(THIRD, 2, 60)]
        assert "identity" in names
        assert any(name.startswith("huffman") for name in names)
        assert any(name.startswith("periodic(01)") for name in names)
