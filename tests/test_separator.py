import signal
from fractions import Fraction

import pytest

from fsdim import cli, infocontent, precision
from fsdim.digits import RealSpec, real_value, seq_digits
from fsdim.errors import FsdimError, InsufficientDigits, InvalidDigit, InvalidPermutation
from fsdim.fst import Fst, format_fst, make_identity
from fsdim.precision import KdeltaOracleTable, PrecisionQuery, kdelta, kdelta_oracle, within_at
from fsdim.separator import (
    SeparatorEnumerator,
    dimf_estimate,
    ktf_delta,
    load_permutation,
    make_block_permuted,
    make_canonical,
    make_targeted,
    parse_enumerator,
)

from conftest import all_words

THIRD = RealSpec.rational(1, 3)


class TestEnumerators:
    def test_canonical(self):
        f = make_canonical(2)
        assert f.eval("11") == Fraction(3, 4)
        assert f.eval("") == 0

    def test_block_swap(self):
        f = make_block_permuted(1, {"0": "1", "1": "0"}, 2)
        assert f.eval("01") == real_value("10", 2)
        assert f.eval("0") == Fraction(1, 2)
        with pytest.raises(InvalidDigit) as refusal:
            f.eval("02")
        assert str(refusal.value) == "digit '2' not in alphabet of base 2"

    def test_block_padding(self):
        swap = {"00": "11", "11": "00", "01": "01", "10": "10"}
        f = make_block_permuted(2, swap, 2)
        # "1" pads to "10", which the permutation fixes
        assert f.eval("1") == Fraction(1, 2)

    def test_identity_permutation_is_canonical(self):
        ident = {w: w for w in all_words(2, 2) if len(w) == 2}
        f = make_block_permuted(2, ident, 2)
        canonical = make_canonical(2)
        for w in all_words(2, 5):
            assert f.eval(w) == canonical.eval(w)

    def test_bad_permutation(self):
        with pytest.raises(InvalidPermutation):
            make_block_permuted(1, {"0": "0", "1": "0"}, 2)

    @pytest.mark.parametrize("block_len, permutation, base", [
        (12, {"0" * 12: "0" * 12}, 10),  # one block of 10**12: rejected without listing them
        (10 ** 9, {}, 10),  # rejected without computing 10**(10**9)
        (2, {"00": "01", "01": "00", "10": "11", "11": "1"}, 2),  # a short image
        (1, {"0": "1", "2": "0"}, 2),  # a digit outside the base
        (0, {"": ""}, 2),  # no block length below 1
    ])
    def test_invalid_permutations(self, block_len, permutation, base):
        with pytest.raises(InvalidPermutation):
            make_block_permuted(block_len, permutation, base)

    def test_targeted_values(self):
        f = make_targeted(THIRD, 2)
        assert f.eval("000") == Fraction(85, 256)  # first 8 digits of 1/3
        assert f.eval("0") == real_value(seq_digits(THIRD, 2, 2), 2)
        # strings containing a nonzero digit keep their canonical value
        assert f.eval("01") == Fraction(1, 4)
        assert f.eval("") == 0

    def test_parse_kinds(self, tmp_path):
        assert parse_enumerator("canonical", 2).kind == "canonical"
        assert parse_enumerator("targeted:rat:1/3", 2).kind == "targeted"
        path = tmp_path / "perm.txt"
        path.write_text("0 -> 1\n1 -> 0\n")
        f = parse_enumerator(f"blockperm:1:{path}", 2)
        assert f.eval("0") == Fraction(1, 2)
        with pytest.raises(FsdimError):
            parse_enumerator("nope", 2)

    def test_load_permutation_rejects_duplicates(self, tmp_path):
        path = tmp_path / "perm.txt"
        path.write_text("0 -> 1\n0 -> 0\n")
        with pytest.raises(InvalidPermutation):
            load_permutation(str(path))

    def test_load_permutation_names_the_bad_line(self, tmp_path):
        # a comment-only line is skipped but counted
        path = tmp_path / "perm.txt"
        path.write_text("# swap\n0 -> 1 -> 0\n1 -> 0\n")
        with pytest.raises(InvalidPermutation) as refusal:
            load_permutation(str(path))
        assert str(refusal.value) == f"bad permutation line 2 in {path}"

    def test_blockperm_needs_a_path(self):
        with pytest.raises(FsdimError) as refusal:
            parse_enumerator("blockperm:1", 2)
        assert str(refusal.value) == "bad enumerator spec 'blockperm:1', want blockperm:m:PERMFILE"

    @pytest.mark.parametrize("answer", [ktf_delta, lambda t, f, q: kdelta_oracle(t, q, f)],
                             ids=["ktf_delta", "kdelta_oracle"])
    @pytest.mark.parametrize("enumerator", [make_canonical, lambda base: make_targeted(THIRD, base)],
                             ids=["canonical", "targeted"])
    def test_an_enumerator_of_another_base_is_refused(self, identity2, answer, enumerator):
        # the query is in f's base, which the transducer does not read
        with pytest.raises(FsdimError) as refusal:
            answer(identity2, enumerator(3), PrecisionQuery(THIRD, 3, Fraction(1, 8), 20))
        assert str(refusal.value) == "transducer base 2 != query base 3"

    def test_an_oracle_table_of_another_base_is_refused(self, identity2):
        with pytest.raises(FsdimError) as refusal:
            KdeltaOracleTable(identity2, 4, make_canonical(3))
        assert str(refusal.value) == "transducer base 2 != enumerator base 3"


class TestKtfDelta:
    def test_canonical_matches_kdelta(self, identity2):
        f = make_canonical(2)
        res = ktf_delta(identity2, f, PrecisionQuery(THIRD, 2, Fraction(1, 8), 20))
        assert res.found and res.cost == 2

    def test_targeted_collapse_example(self, identity2):
        f = make_targeted(THIRD, 2)
        res = ktf_delta(identity2, f, PrecisionQuery(THIRD, 2, Fraction(1, 64), 20))
        assert (res.cost, res.witness_input, res.witness_output) == (3, "000", "000")
        # the two shorter all-zero strings genuinely miss at this precision
        assert abs(f.eval("0") - Fraction(1, 3)) >= Fraction(1, 64)
        assert abs(f.eval("00") - Fraction(1, 3)) >= Fraction(1, 64)

    def test_block_swap_half(self, identity2):
        f = make_block_permuted(1, {"0": "1", "1": "0"}, 2)
        res = ktf_delta(identity2, f, PrecisionQuery(RealSpec.rational(1, 2), 2, Fraction(1, 4), 20))
        assert (res.cost, res.witness_input) == (1, "0")

    def test_lambda_tried_first(self, identity2):
        f = make_canonical(2)
        res = ktf_delta(identity2, f, PrecisionQuery(RealSpec.rational(0, 1), 2, Fraction(1, 2), 20))
        assert (res.cost, res.witness_input) == (0, "")

    def test_cap(self, identity2):
        f = make_canonical(2)
        res = ktf_delta(identity2, f, PrecisionQuery(THIRD, 2, Fraction(1, 1024), 3))
        assert res.status == "cap_exceeded"

    def test_canonical_coincidence_on_pool(self, pool):
        f = make_canonical(2)
        for _, t in pool[:25]:
            for n in range(1, 6):
                q = PrecisionQuery(THIRD, 2, Fraction(1, 2**n), 12)
                a = kdelta(t, q)
                b = kdelta_oracle(t, q, f)
                if a.found or b.found:
                    assert a.found and b.found and a.cost == b.cost

    def test_delta_monotonicity(self, identity2):
        f = make_targeted(THIRD, 2)
        prev = None
        for n in range(8, 0, -1):
            res = ktf_delta(identity2, f, PrecisionQuery(THIRD, 2, Fraction(1, 2**n), 20))
            assert res.found
            if prev is not None:
                assert res.cost <= prev
            prev = res.cost


SWAP1 = {"0": "1", "1": "0"}
ROTATE2 = {"00": "10", "01": "00", "10": "11", "11": "01"}
ENUMERATORS = {
    "canonical": make_canonical(2),
    "targeted(1/3)": make_targeted(THIRD, 2),
    "targeted(5/24)": make_targeted(RealSpec.rational(5, 24), 2),
    "blockperm(m=1)": make_block_permuted(1, SWAP1, 2),
    "blockperm(m=2)": make_block_permuted(2, ROTATE2, 2),
}


@pytest.fixture(scope="module")
def short_digits(tmp_path_factory):
    path = tmp_path_factory.mktemp("digits") / "d.txt"
    path.write_text("0110100110010110" "1001011001101001" "0011101000101101" "1100010111010010\n")
    return RealSpec.digitfile(str(path))


class TestKtfDeltaMatchesOracle:
    """The boundary-guided searches against the enumeration they replace."""

    @pytest.mark.parametrize("name", sorted(ENUMERATORS))
    def test_pool_slice(self, pool, short_digits, name):
        f = ENUMERATORS[name]
        points = [RealSpec.rational(0, 1), THIRD, RealSpec.rational(1, 2),
                  RealSpec.rational(5, 24), short_digits]
        for _, t in pool[:40]:
            for x in points:
                for n in range(1, 7):
                    delta = Fraction(1, 2**n)
                    q = PrecisionQuery(x, 2, delta, 7)
                    a = ktf_delta(t, f, q)
                    b = kdelta_oracle(t, q, f)
                    assert a.found == b.found, (x, n, a, b)
                    if a.found:
                        assert a.cost == b.cost, (x, n, a, b)
                        assert len(a.witness_input) == a.cost
                        assert t.run(a.witness_input) == a.witness_output
                        assert within_at(x, 2)(f.eval(a.witness_output), delta)

    def test_unmatched_target_prunes_zero_outputs(self):
        # only all-zero outputs, whose targeted values approach 1/3, never 1/2:
        # enumeration would build a 2**80-digit truncation here
        zeros = Fst(2, 1, 0, (((0, (0, 0)), (0, (0, 0))),))
        f = make_targeted(THIRD, 2)
        res = ktf_delta(zeros, f, PrecisionQuery(RealSpec.rational(1, 2), 2, Fraction(1, 8), 40))
        assert res.status == "unreachable"

    def test_a_target_on_the_interval_boundary_ends_at_once(self):
        # f(0^k) is a truncation of 1/4 = 1/2 - 1/4: never strictly inside,
        # and its exact value ends the search at the first k, not after
        # 2**24-digit truncations
        zeros = Fst(2, 1, 0, (((0, (0,)), (0, (0,))),))
        f = make_targeted(RealSpec.rational(1, 4), 2)

        def hang(signum, frame):
            pytest.fail("the zero search ran past 3 s")

        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(3)
        try:
            res = ktf_delta(zeros, f, PrecisionQuery(RealSpec.rational(1, 2), 2, Fraction(1, 4), 24))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert res.status == "unreachable"

    def test_zero_output_reaches_other_point(self):
        # f(00) is the 4-digit truncation 0.0101 of 1/3, i.e. 5/16
        zeros = Fst(2, 1, 0, (((0, (0, 0)), (0, (0, 0))),))
        f = make_targeted(THIRD, 2)
        res = ktf_delta(zeros, f, PrecisionQuery(RealSpec.rational(5, 16), 2, Fraction(1, 64), 20))
        assert (res.cost, res.witness_output) == (1, "00")

    def test_a_digit_file_rewritten_between_two_calls_is_read_afresh(self, tmp_path):
        # the zero verdicts of one query are kept per stream of x, and a file
        # that changed on disk has a new stream: at x = 1/3, f(0^3), the
        # 8-digit truncation of 1/3, is the first within 1/64; at x = 5/16,
        # f(0^2) = 0.0101 already is
        zeros = Fst(2, 1, 0, (((0, (0,)), (0, (0,))),))
        f = make_targeted(THIRD, 2)
        path = tmp_path / "x.txt"
        path.write_text(seq_digits(THIRD, 2, 40) + "\n")
        q = PrecisionQuery(RealSpec.digitfile(str(path)), 2, Fraction(1, 64), 12)
        first = ktf_delta(zeros, f, q)
        assert (first.cost, first.witness_output) == (3, "000")
        path.write_text("0101" + "0" * 37 + "\n")
        second = ktf_delta(zeros, f, q)
        assert (second.cost, second.witness_output) == (2, "00")
        assert second == kdelta_oracle(zeros, q, f)

    def test_digit_point_at_delta_not_power_of_base(self, identity2, short_digits):
        # kdelta bounds a digit-only point only at delta = 2**-n, and so does
        # every enumerator: the query refuses 1/3 before any of them is asked
        asked = []
        f = SeparatorEnumerator(2, "asked", lambda w: asked.append(w) or Fraction(0),
                                lambda *args: asked.append(args) or kdelta(*args))
        with pytest.raises(InsufficientDigits) as refusal:
            ktf_delta(identity2, f, PrecisionQuery(short_digits, 2, Fraction(1, 3), 6))
        assert str(refusal.value) == (f"{short_digits.describe()} has no exact value;"
                                      " delta must be base**-n")
        assert asked == []

    def test_the_query_refuses_a_bad_delta_and_a_negative_cap(self):
        # ktf_delta and its oracle take the query, which owns both checks
        for delta in (Fraction(0), Fraction(-1, 2), Fraction(2), Fraction(9, 8)):
            with pytest.raises(FsdimError, match=r"delta must lie in \(0, 1\]"):
                PrecisionQuery(THIRD, 2, delta, 4)
        with pytest.raises(FsdimError) as refusal:
            PrecisionQuery(THIRD, 2, Fraction(1, 8), -1)
        assert str(refusal.value) == "the input cap must be >= 0, got -1"

    def test_a_query_of_another_base_than_the_enumerator_is_refused(self):
        # f reads base 2; the query and the transducer read base 3
        q = PrecisionQuery(THIRD, 3, Fraction(1, 9), 6)
        with pytest.raises(FsdimError) as refusal:
            ktf_delta(make_identity(3), make_canonical(2), q)
        assert str(refusal.value) == "enumerator base 2 != query base 3"

    def test_an_enumerator_needs_a_search_and_the_enumeration_is_one(self, pool, short_digits):
        calls = []
        canonical = make_canonical(2)
        value = lambda w: calls.append(w) or canonical.eval(w)
        with pytest.raises(TypeError):
            SeparatorEnumerator(2, "by hand", value)
        f = SeparatorEnumerator(2, "by hand", value, lambda t, q, search, witness: kdelta_oracle(t, q, f))
        deltas = [Fraction(1, 2**n) for n in range(1, 7)] + [Fraction(1, 3), Fraction(1)]
        for _, t in pool[:5]:
            for x in (THIRD, RealSpec.rational(5, 24), short_digits):
                for delta in deltas:
                    if x is short_digits and delta == Fraction(1, 3):
                        continue  # the query cannot be built
                    calls.clear()
                    q = PrecisionQuery(x, 2, delta, 6)
                    res = ktf_delta(t, f, q)
                    assert calls, (x, delta)  # f was evaluated: the enumeration answered
                    assert res == kdelta_oracle(t, q, f)
                    assert res == kdelta_oracle(t, q, canonical)

    def test_oracle_reads_a_digit_file_once(self, tmp_path, file_reads, identity2):
        # blockperm's production path: one call tests every enumerated output
        path = tmp_path / "d.txt"
        path.write_text(seq_digits(THIRD, 2, 40) + "\n")
        x = RealSpec.digitfile(str(path))
        f = make_block_permuted(1, {"0": "1", "1": "0"}, 2)
        res = kdelta_oracle(identity2, PrecisionQuery(x, 2, Fraction(1, 2**6), 8), f)
        assert file_reads == [str(path)]
        assert res == kdelta_oracle(identity2, PrecisionQuery(THIRD, 2, Fraction(1, 2**6), 8), f)
        assert (res.status, res.cost, res.witness_output) == ("found", 5, "10100")


def _queries(short_digits, cap=None):
    """Queries at 2**-n, n <= 8, at three exact points and a digit file, and
    at deltas 1/3 and 1/12 at the exact points."""
    exact = [THIRD, RealSpec.rational(5, 24), RealSpec.periodic("001")]
    return ([PrecisionQuery(x, 2, Fraction(1, 2**n), cap) for x in exact + [short_digits]
             for n in range(1, 9)]
            + [PrecisionQuery(x, 2, delta, cap) for x in exact
               for delta in (Fraction(1, 3), Fraction(1, 12))])


class TestKtfDeltaAsksOnlyItsSearch:
    """`ktf_delta` asks f's search and nothing else: the canonical and
    targeted searches never enumerate, and blockperm's is the enumeration."""

    @pytest.fixture()
    def enumerations(self, monkeypatch):
        """The input caps of the `distinct_outputs` calls made while the test runs."""
        calls = []
        walk = infocontent.distinct_outputs

        def counting(t, max_len, keep=None):
            calls.append(max_len)
            return walk(t, max_len, keep)

        for module in (infocontent, precision):
            monkeypatch.setattr(module, "distinct_outputs", counting)
        return calls

    def test_canonical_and_targeted_never_enumerate(self, pool, short_digits, enumerations):
        queries = _queries(short_digits)
        found = 0
        for name in ("canonical", "targeted(1/3)", "targeted(5/24)"):
            f = ENUMERATORS[name]
            for _, t in pool[:40]:
                found += sum(ktf_delta(t, f, q, witness=False).found for q in queries)
        assert enumerations == []
        assert found  # the searches answered

    def test_blockperm_is_answered_by_the_enumeration(self, pool, short_digits, enumerations):
        f = ENUMERATORS["blockperm(m=2)"]
        for _, t in pool[:10]:
            for q in _queries(short_digits, cap=6):
                enumerations.clear()
                assert ktf_delta(t, f, q) == kdelta_oracle(t, q, f)
                assert enumerations == [6, 6]  # its search's, then the oracle's

    def test_targeted_at_its_own_digit_file_reads_it_once(self, tmp_path, file_reads, capsys, pool):
        # the enumerator's target and the searches read one stream of the point
        path = tmp_path / "d.txt"
        path.write_text(seq_digits(THIRD, 2, 40) + "\n")
        fsts = tmp_path / "fsts"
        fsts.mkdir()
        for name, t in [("id.fst", make_identity(2))] + pool[:3]:
            (fsts / name).write_text(format_fst(t))
        code = cli.dispatch(["sedim", "--f", f"targeted:digitfile:{path}", "--fsts", str(fsts),
                             "--x", f"digitfile:{path}", "--nmax", "8", "--max-input-len", "8"])
        assert (code, capsys.readouterr().err) == (0, "")
        assert file_reads == [str(path)]


class TestKtfOracleTable:
    """The batch oracle against the per-call enumeration it batches."""

    @pytest.mark.parametrize("name", sorted(ENUMERATORS))
    def test_matches_per_call_oracle(self, pool, name):
        f = ENUMERATORS[name]
        for _, t in pool[:25]:
            table = KdeltaOracleTable(t, 6, f)
            for x in [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(5, 24), Fraction(7, 9)]:
                spec = RealSpec.rational(x.numerator, x.denominator)
                for n in range(1, 7):
                    a = table.query(x, Fraction(1, 2**n))
                    b = kdelta_oracle(t, PrecisionQuery(spec, 2, Fraction(1, 2**n), 6), f)
                    assert (a.status, a.cost) == (b.status, b.cost), (name, x, n)

    def test_evaluates_each_output_once(self, pool):
        calls = []
        canonical = make_canonical(2)
        f = SeparatorEnumerator(2, "counting", lambda w: calls.append(w) or canonical.eval(w), kdelta)
        KdeltaOracleTable(pool[0][1], 8, f)
        assert calls and len(calls) == len(set(calls))


class TestDimfEstimate:
    @pytest.mark.parametrize("base", [2, 3, 10])
    def test_canonical_matches_point_estimate(self, base):
        from fsdim.dimension import dim_point_estimate

        identity = make_identity(base)
        a = dimf_estimate([("id", identity)], make_canonical(base), [THIRD], 12, max_input_len=16)
        b = dim_point_estimate([("id", identity)], THIRD, base, 12)
        assert a.estimate == b.estimate
        rows_a = a.profiles["id"]
        rows_b = b.profiles["id"]
        assert [(r.n, r.cost) for r in rows_a] == [(r.n, r.cost) for r in rows_b]

    def test_targeted_collapses_dimension(self, identity2):
        f = make_targeted(THIRD, 2)
        report = dimf_estimate([("id", identity2)], f, [THIRD], 60)
        assert report.estimate <= Fraction(15, 100)

    def test_free_point(self, identity2):
        f = make_canonical(2)
        report = dimf_estimate([("id", identity2)], f, [RealSpec.rational(0, 1)], 10)
        assert report.estimate == 0

    def test_set_form_uses_sup(self, identity2):
        f = make_canonical(2)
        both = dimf_estimate([("id", identity2)], f, [RealSpec.rational(0, 1), THIRD], 10,
                             max_input_len=14)
        alone = dimf_estimate([("id", identity2)], f, [THIRD], 10, max_input_len=14)
        assert both.estimate == alone.estimate
