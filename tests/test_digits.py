from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fsdim.digits import (
    ChampernowneStream,
    FileDigitStream,
    FractionStream,
    RealSpec,
    comp,
    MAX_PRECISION,
    delta_exponent,
    floor_log,
    inverse_power,
    parse_delta,
    real_value,
    seq_digits,
)
from fsdim.errors import (
    FsdimError,
    InsufficientDigits,
    InvalidBase,
    InvalidDigit,
    SpecOutOfRange,
)


def rationals(max_den=64):
    return st.integers(2, max_den).flatmap(
        lambda q: st.integers(0, q - 1).map(lambda p: Fraction(p, q))
    )


class TestSeqDigits:
    def test_half_has_no_all_ones_tail(self):
        assert seq_digits(RealSpec.rational(1, 2), 2, 4) == "1000"

    def test_third_binary(self):
        assert seq_digits(RealSpec.rational(1, 3), 2, 6) == "010101"

    def test_champernowne_prefix(self):
        # concatenation of the binary numerals 1, 10, 11, 100, 101, ...
        assert seq_digits(RealSpec.champernowne(), 2, 10) == "1101110010"

    def test_champernowne_base_10(self):
        assert seq_digits(RealSpec.champernowne(), 10, 12) == "123456789101"

    def test_bad_base(self):
        with pytest.raises(InvalidBase):
            seq_digits(RealSpec.rational(1, 3), 1, 4)
        with pytest.raises(InvalidBase):
            seq_digits(RealSpec.rational(1, 3), 11, 4)

    def test_out_of_range_spec(self):
        with pytest.raises(SpecOutOfRange):
            RealSpec.rational(3, 2)
        with pytest.raises(SpecOutOfRange):
            RealSpec.periodic("1").stream(2)  # value 1

    @given(x=rationals(), m=st.integers(0, 40), base=st.integers(2, 10))
    def test_prefix_sandwich(self, x, m, base):
        spec = RealSpec.rational(x.numerator, x.denominator)
        w = seq_digits(spec, base, m)
        lo = real_value(w, base)
        assert lo <= x < lo + Fraction(1, base**m)

    @given(x=rationals(), base=st.integers(2, 10))
    def test_rational_expansion_eventually_periodic(self, x, base):
        spec = RealSpec.rational(x.numerator, x.denominator)
        digs = seq_digits(spec, base, 4 * x.denominator + 8)
        # beyond the preperiod, digits repeat with some period <= denominator
        pre, tail = digs[: x.denominator], digs[x.denominator :]
        assert any(
            all(tail[i] == tail[i + p] for i in range(len(tail) - p))
            for p in range(1, x.denominator + 1)
        )


class TestRealValue:
    @pytest.mark.parametrize(
        "w,base,expected",
        [
            ("11", 2, Fraction(3, 4)),
            ("", 2, Fraction(0)),
            ("0011", 2, Fraction(3, 16)),
            ("021", 3, Fraction(7, 27)),
        ],
    )
    def test_examples(self, w, base, expected):
        assert real_value(w, base) == expected

    def test_invalid_digit(self):
        with pytest.raises(InvalidDigit):
            real_value("21", 2)

    @given(st.integers(2, 10), st.data())
    def test_complement_sum_identity(self, base, data):
        w = "".join(
            chr(48 + d)
            for d in data.draw(st.lists(st.integers(0, base - 1), max_size=12))
        )
        total = real_value(w, base) + real_value(comp(w, base), base)
        assert total == 1 - Fraction(1, base ** len(w))


class TestComp:
    def test_examples(self):
        assert comp("0110", 2) == "1001"
        assert comp("021", 3) == "201"
        assert comp("", 2) == ""

    @given(st.integers(2, 10), st.data())
    def test_involution(self, base, data):
        w = "".join(
            chr(48 + d)
            for d in data.draw(st.lists(st.integers(0, base - 1), max_size=16))
        )
        assert comp(comp(w, base), base) == w


class TestStreams:
    def test_fraction_stream_one_twelfth(self):
        # 1/3 - 1/4 = 1/12 = 0.000101...(binary), by long division
        assert FractionStream(Fraction(1, 12), 2).prefix_str(4) == "0001"

    def test_file_stream_ignores_comments_and_whitespace(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("01 01 # header\n1100\n")
        s = FileDigitStream.from_file(str(path), 2)
        assert s.prefix_str(8) == "01011100"
        with pytest.raises(InsufficientDigits):
            s.digit(8)

    def test_file_stream_rejects_foreign_digits(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("012\n")
        with pytest.raises(InvalidDigit):
            FileDigitStream.from_file(str(path), 2)

    def test_file_stream_rejects_a_letter(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("# a comment may hold letters\n01a1\n")
        with pytest.raises(InvalidDigit) as refusal:
            FileDigitStream.from_file(str(path), 2)
        assert str(refusal.value) == f"non-digit character 'a' in {path}"

    @pytest.mark.parametrize("build, error, message", [
        (lambda: seq_digits(RealSpec.rational(1, 3), 2, -1), FsdimError, "count must be >= 0, got -1"),
        (lambda: RealSpec.periodic(""), SpecOutOfRange, "periodic pattern must be nonempty"),
        (lambda: FractionStream(Fraction(1), 2), SpecOutOfRange, "value 1 not in [0,1)"),
    ], ids=["seq-digits-count", "periodic-empty", "fraction-stream-one"])
    def test_value_refusals(self, build, error, message):
        with pytest.raises(error) as refusal:
            build()
        assert str(refusal.value) == message

    def test_compare_on_digit_only_stream(self):
        s = ChampernowneStream(2)
        assert s.compare(Fraction(1, 2)) == 1  # word starts 1101...
        assert s.compare(Fraction(9, 10)) == -1
        # a file shorter than the first prefix read still decides what its
        # digits decide: 0.0101... lies in [5/16, 6/16), below 1/2
        assert FileDigitStream([0, 1, 0, 1], 2).compare(Fraction(1, 2)) == -1

    def test_is_zero_from(self):
        assert FractionStream(Fraction(3, 8), 2).is_zero_from(3)
        assert not FractionStream(Fraction(1, 3), 2).is_zero_from(3)
        assert not ChampernowneStream(2).is_zero_from(5)

    @pytest.mark.parametrize("value, base, ends_at", [
        (Fraction(0), 2, 0),
        (Fraction(3, 8), 2, 3),
        (Fraction(1, 8), 10, 3),
        (Fraction(1, 6), 6, 1),
        (Fraction(5, 24), 2, None),
        # a base with a squared prime: 8 = 2**3 needs 4**2
        (Fraction(1, 8), 4, 2),
        (Fraction(5, 27), 9, 2),
        (Fraction(1, 16), 8, 2),
    ])
    def test_ends_at(self, value, base, ends_at):
        s = FractionStream(value, base)
        assert [s.is_zero_from(m) for m in range(16)] == [
            ends_at is not None and m >= ends_at for m in range(16)]
        _is_zero_from_meets_its_definition(value, base)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 10), st.tuples(*[st.integers(0, 12)] * 4), st.booleans(),
           st.sampled_from([1, 11, 13]), st.integers(0, 10**9))
    def test_ends_at_meets_its_definition(self, base, exponents, base_primes_only, other, p):
        # q is a product of small primes, often of base's alone, so many expansions end
        q = other
        for prime, e in zip((2, 3, 5, 7), exponents):
            if base % prime == 0 or not base_primes_only:
                q *= prime**e
        _is_zero_from_meets_its_definition(Fraction(p % q, q), base)


@st.composite
def file_digits(draw):
    """(base, digits) of a digit file: runs of 0, of base - 1 and of any
    digit, long ones included, and sometimes no digit at all."""
    base = draw(st.integers(2, 10))
    runs = draw(st.lists(st.tuples(st.sampled_from(["0", "top", "any"]), st.integers(1, 40)),
                         max_size=4))
    digits = []
    for kind, length in runs:
        if kind == "any":
            digits += draw(st.lists(st.integers(0, base - 1), min_size=length, max_size=length))
        else:
            digits += [0 if kind == "0" else base - 1] * length
    return base, digits


def cylinder(base: int, digits: list) -> tuple:
    """(lo, width) of [lo, lo + base**-L), the reals whose first L digits
    are the L digits given."""
    width = Fraction(1, base ** len(digits))
    return sum(Fraction(d, base ** (i + 1)) for i, d in enumerate(digits)), width


@st.composite
def file_and_rational(draw):
    """A digit file and a rational r below, in or above its cylinder, often
    within a few steps of a finer scale of either end, and sometimes < 0 or
    >= 1."""
    base, digits = draw(file_digits())
    lo, width = cylinder(base, digits)
    kind = draw(st.sampled_from(["lo", "hi", "anywhere"]))
    if kind == "anywhere":
        return base, digits, Fraction(draw(st.integers(-30, 60)), draw(st.integers(1, 30)))
    end = lo if kind == "lo" else lo + width
    step = width / (base ** draw(st.integers(0, 3)) * draw(st.sampled_from([1, 3, 7, 27])))
    return base, digits, end + draw(st.integers(-3 * base, 3 * base)) * step


class TestFileStreamsDecideWhatTheirDigitsDecide:
    """A digit file of L digits stands for every real in the cylinder
    [lo, lo + b**-L) of its digits: a question about the point is answered
    when they all give one answer, and raises InsufficientDigits when not."""

    @settings(max_examples=600, deadline=None)
    @given(case=file_and_rational())
    @example(case=(4, [3, 0, 3], Fraction(23, 27)))  # above [51/64, 52/64), so -1
    def test_compare_raises_only_inside_the_cylinder(self, case):
        base, digits, r = case
        lo, width = cylinder(base, digits)
        s = FileDigitStream(digits, base)
        if lo <= r < lo + width:
            with pytest.raises(InsufficientDigits):
                s.compare(r)
        else:
            assert s.compare(r) == (1 if r < lo else -1)

    @settings(max_examples=300, deadline=None)
    @given(file=file_digits(), extra=st.integers(0, 3))
    def test_is_zero_from_raises_only_on_a_zero_tail(self, file, extra):
        base, digits = file
        for m in range(len(digits) + extra + 1):
            s = FileDigitStream(digits, base)
            if not any(digits[m:]):
                with pytest.raises(InsufficientDigits):
                    s.is_zero_from(m)
            else:
                assert s.is_zero_from(m) is False


def _is_zero_from_meets_its_definition(value: Fraction, base: int) -> None:
    """is_zero_from(m) says whether value * base**m is an integer, at and
    around the least such m. The denominators drawn here end, if at all, by
    index 12."""
    s = FractionStream(value, base)
    ends = [m for m in range(16) if (value * base**m).denominator == 1]
    assert [s.is_zero_from(m) for m in range(16)] == [m in ends for m in range(16)]


class TestSpecGrammar:
    @pytest.mark.parametrize(
        "text,described",
        [
            ("rat:1/3", "rat:1/3"),
            ("periodic:01", "periodic:01"),
            ("dyadic:101", "dyadic:101"),
            ("champernowne", "champernowne"),
        ],
    )
    def test_round_trip(self, text, described):
        assert RealSpec.parse(text).describe() == described

    def test_periodic_equals_rational(self):
        assert RealSpec.parse("periodic:01").exact_value(2) == Fraction(1, 3)
        assert RealSpec.parse("dyadic:101").exact_value(2) == Fraction(5, 8)

    def test_bad_specs(self):
        # past one int() piece a numeral must be plain digits
        for text in ["rat:5", "huh:1", "rat:x/y", ":", "rat:/3", "rat:1/",
                     "rat:1/-" + "3" * 5_000, "rat:1/" + "3" * 5_000 + " "]:
            with pytest.raises(FsdimError):
                RealSpec.parse(text)

    def test_a_rational_numeral_of_any_length(self):
        thirds = (10**5_000 - 1) // 3  # 5,000 threes: past int()'s 4,300-digit limit
        assert RealSpec.parse("rat:1/" + "3" * 5_000).exact_value(2) == Fraction(1, thirds)
        assert parse_delta("1/" + "3" * 5_000, 2) == Fraction(1, thirds)


class TestDelta:
    def test_parse_shorthand(self):
        assert parse_delta("b^-3", 2) == Fraction(1, 8)
        assert parse_delta("2^-3", 2) == Fraction(1, 8)
        assert parse_delta("1/12", 2) == Fraction(1, 12)

    @pytest.mark.parametrize("text, base, error, message", [
        ("3^-2", 2, FsdimError, "bad delta '3^-2'"),
        ("b^-x", 2, FsdimError, "bad delta exponent in 'b^-x'"),
        ("b^--2", 2, FsdimError, "n must be >= 0, got -2"),
        ("b^-3", 0, InvalidBase, "base must be an integer in [2, 10], got 0"),
        ("0^-3", 0, InvalidBase, "base must be an integer in [2, 10], got 0"),
        ("1/0", 2, FsdimError, "bad delta '1/0'"),
        ("/2", 2, FsdimError, "bad delta '/2'"),
        ("1/", 2, FsdimError, "bad delta '1/'"),
    ])
    def test_parse_refusals(self, text, base, error, message):
        # the shorthand is built by inverse_power, which checks the base first
        with pytest.raises(error) as refusal:
            parse_delta(text, base)
        assert str(refusal.value) == message

    @pytest.mark.parametrize("base, n, error, message", [
        (0, 3, InvalidBase, "base must be an integer in [2, 10], got 0"),
        (1, 3, InvalidBase, "base must be an integer in [2, 10], got 1"),
        (2, -1, FsdimError, "n must be >= 0, got -1"),
        (2, MAX_PRECISION + 1, FsdimError,
         f"precision {MAX_PRECISION + 1} exceeds the largest supported, {MAX_PRECISION}"),
    ])
    def test_inverse_power_refusals(self, base, n, error, message):
        with pytest.raises(error) as refusal:
            inverse_power(base, n)
        assert str(refusal.value) == message

    def test_inverse_power(self):
        assert inverse_power(2, 0) == 1
        assert inverse_power(3, 4) == Fraction(1, 81)

    def test_exponent_detection(self):
        assert delta_exponent(Fraction(1, 8), 2) == 3
        assert delta_exponent(Fraction(1, 12), 2) is None
        assert delta_exponent(Fraction(1, 81), 3) == 4
        assert delta_exponent(Fraction(3, 8), 2) is None  # a power of 2 below, numerator not 1

    def test_exponent_of_powers_and_of_their_neighbours(self):
        for base in (2, 3, 10):
            for k in (0, 1, 2, 5, 64, 300):
                power = base ** k
                assert delta_exponent(Fraction(1, power), base) == k
                if power > 2:  # 1 + 1, 2 * 1 + 1 and 2 - 1 are powers of some base
                    assert delta_exponent(Fraction(1, power + 1), base) is None
                    assert delta_exponent(Fraction(1, 2 * power + 1), base) is None
                    assert delta_exponent(Fraction(1, power - 1), base) is None
                    assert delta_exponent(Fraction(2, power * 2 - 1), base) is None
        assert delta_exponent(Fraction(1, 16), 4) == 2
        assert delta_exponent(Fraction(1, 8), 4) is None
        assert delta_exponent(Fraction(1, 10 ** 9), 2) is None
        assert delta_exponent(Fraction(2, 3 ** 5), 3) is None  # numerator 2, a power of 3 below


def _floor_log_by_steps(base, q):
    m, power = 0, 1
    while power * base <= q:
        m, power = m + 1, power * base
    return m, power


class TestFloorLog:
    @pytest.mark.parametrize("base", range(2, 11))
    def test_small_arguments_match_stepping(self, base):
        for q in range(1, 2001):
            assert floor_log(base, q) == _floor_log_by_steps(base, q), q

    @pytest.mark.parametrize("base", range(2, 11))
    def test_powers_and_their_neighbours_match_stepping(self, base):
        for k in range(201):
            for q in (base ** k - 1, base ** k, base ** k + 1):
                if q:
                    assert floor_log(base, q) == _floor_log_by_steps(base, q), q
