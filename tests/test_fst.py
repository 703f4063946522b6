import pytest
from hypothesis import given
from hypothesis import strategies as st

from fsdim.cli import dispatch
from fsdim.digits import FractionStream, RealSpec
from fsdim.errors import (
    EmptyPattern,
    FsdimError,
    FstSyntaxError,
    InsufficientTraining,
    InvalidBase,
    InvalidDigit,
    MissingTransition,
    StateOutOfRange,
)
from fsdim.fst import (
    Fst,
    format_fst,
    huffman_code,
    make_block_huffman,
    make_identity,
    make_periodic_decoder,
    parse_fst,
)

from conftest import all_words

IDENTITY_TEXT = "fst 1\nbase 2\nstates 1\nstart 0\nt 0 0 0 0\nt 0 1 0 1\n"
IDENTITY_ROWS = (((0, (0,)), (0, (1,))),)


class TestRun:
    def test_identity(self, identity2):
        assert identity2.run("0110") == "0110"

    def test_doubling(self, doubling2):
        assert doubling2.run("01") == "0011"

    def test_empty_input(self, doubling2):
        assert doubling2.run("") == ""

    def test_prefix_compositionality(self, pool):
        for _, t in pool[:20]:
            for u, v in [("01", "10"), ("110", "0"), ("", "01")]:
                head, q = t.run_from(t.start, u)
                assert t.run(u + v) == head + t.run_from(q, v)[0]


class TestComplementLift:
    def test_identity_lift(self, identity2):
        lifted = identity2.complement_lift()
        assert lifted.run("01") == "10"

    def test_doubling_lift(self, doubling2):
        assert doubling2.complement_lift().run("01") == "1100"

    def test_involution(self, pool):
        for _, t in pool[:30]:
            assert t.complement_lift().complement_lift() == t

    def test_preserves_structure(self, pool):
        for _, t in pool[:30]:
            lifted = t.complement_lift()
            assert lifted.state_count == t.state_count
            assert lifted.start == t.start
            assert all(
                lifted.transitions[q][a][0] == t.transitions[q][a][0]
                for q in range(t.state_count)
                for a in range(t.base)
            )

    def test_run_commutes_with_comp(self, pool):
        from fsdim.digits import comp

        for _, t in pool[:30]:
            lifted = t.complement_lift()
            for pi in all_words(2, 4):
                assert lifted.run(pi) == comp(t.run(pi), 2)


class TestFileFormat:
    def test_parse_identity(self, identity2):
        assert parse_fst(IDENTITY_TEXT) == identity2

    def test_format_round_trip(self, pool):
        for _, t in pool:
            assert parse_fst(format_fst(t)) == t

    def test_byte_identical_round_trip(self, pool):
        for _, t in pool[:30]:
            text = format_fst(t)
            assert format_fst(parse_fst(text)) == text

    def test_missing_transition(self):
        text = "fst 1\nbase 2\nstates 1\nstart 0\nt 0 0 0 0\n"
        with pytest.raises(MissingTransition):
            parse_fst(text)

    def test_duplicate_transition(self):
        text = IDENTITY_TEXT + "t 0 1 0 1\n"
        with pytest.raises(FstSyntaxError):
            parse_fst(text)

    def test_state_out_of_range(self):
        text = "fst 1\nbase 2\nstates 1\nstart 0\nt 0 0 5 0\nt 0 1 0 1\n"
        with pytest.raises(FstSyntaxError):
            parse_fst(text)

    def test_comments_ignored(self):
        assert parse_fst("# header\n" + IDENTITY_TEXT).run("01") == "01"

    @pytest.mark.parametrize("old, new, error, message", [
        (IDENTITY_TEXT, "", FstSyntaxError, "missing 'fst' directive"),
        (IDENTITY_TEXT, "fst 1\nbase 2\n", FstSyntaxError, "missing 'states' directive"),
        ("fst 1", "fsx 1", FstSyntaxError, "expected 'fst' directive (line 1)"),
        ("fst 1", "fst 2", FstSyntaxError, "unsupported format version '2' (line 1)"),
        ("states 1", "states one", FstSyntaxError, "states must be an integer (line 3)"),
        ("t 0 1 0 1", "t 0 1 0", FstSyntaxError, "expected transition line 't q a q2 out' (line 6)"),
        ("t 0 1 0 1", "t 0 1 x 1", FstSyntaxError, "transition fields must be integers (line 6)"),
        ("t 0 1 0 1", "t 1 1 0 1", StateOutOfRange, "state out of range in transition (line 6)"),
        ("t 0 1 0 1", "t 0 2 0 1", InvalidDigit, "input symbol 2 out of base 2 (line 6)"),
        ("t 0 1 0 1", "t 0 1 0 2", InvalidDigit, "output digit '2' out of base 2 (line 6)"),
        ("t 0 1 0 1", "t 0 1 0 1x", InvalidDigit, "output digit 'x' out of base 2 (line 6)"),
        (IDENTITY_TEXT, "fst 1\nbase 2\nstates 0\nstart 0\n", FsdimError,
         "an FST needs at least one state"),
        ("start 0", "start 1", StateOutOfRange, "start state 1 out of range [0, 1)"),
        ("t 0 1 0 1", "t 0 1 5 1", StateOutOfRange, "transition (0,1) targets missing state 5"),
    ], ids=["empty", "no-states-line", "wrong-directive", "version-2", "header-field", "transition-shape",
            "transition-field", "state-range", "symbol-range", "output-range", "output-letter",
            "no-states", "start-range", "target-range"])
    def test_refusals(self, tmp_path, capsys, old, new, error, message):
        # the parser checks the text and Fst the machine; each refusal is
        # one error line through the CLI
        text = IDENTITY_TEXT.replace(old, new)
        with pytest.raises(error) as refusal:
            parse_fst(text)
        assert str(refusal.value) == message
        path = tmp_path / "m.fst"
        path.write_text(text)
        assert dispatch(["fst", "validate", "--fst", str(path)]) == 1
        out, err = capsys.readouterr()
        assert not out and err.splitlines() == [f"error: {message}"]

    def test_an_output_field_is_read_in_its_own_base(self):
        # the field "2" is a digit in base 3 and not in base 2, in either order
        base3 = "fst 1\nbase 3\nstates 1\nstart 0\nt 0 0 0 2\nt 0 1 0 2\nt 0 2 0 2\n"
        base2 = IDENTITY_TEXT.replace("t 0 1 0 1", "t 0 1 0 2")
        for text in (base2, base3, base2):
            if text == base3:
                assert parse_fst(text).run("01") == "22"
                continue
            with pytest.raises(InvalidDigit) as refusal:
                parse_fst(text)
            assert str(refusal.value) == "output digit '2' out of base 2 (line 6)"

    @pytest.mark.parametrize("args, error, message", [
        ((1, 1, 0, IDENTITY_ROWS), InvalidBase, "base must be an integer in [2, 10], got 1"),
        ((2, 0, 0, ()), FsdimError, "an FST needs at least one state"),
        ((2, 1, 1, IDENTITY_ROWS), StateOutOfRange, "start state 1 out of range [0, 1)"),
        ((2, 2, 0, IDENTITY_ROWS), MissingTransition, "transition table must cover every state"),
        ((2, 1, 0, (((0, (0,)),),)), MissingTransition, "state 0 must define all 2 symbols"),
        ((2, 1, 0, (((0, (0,)), (3, (1,))),)), StateOutOfRange,
         "transition (0,1) targets missing state 3"),
        ((2, 1, 0, (((0, (0,)), (0, (2,))),)), InvalidDigit, "output digit 2 of (0,1) out of base 2"),
    ])
    def test_a_machine_built_directly_is_checked(self, args, error, message):
        with pytest.raises(error) as refusal:
            Fst(*args)
        assert str(refusal.value) == message


class TestBuilders:
    def test_periodic_decoder(self):
        t = make_periodic_decoder("01", 3, 2)
        assert t.run("0") == "010101"
        assert t.run("1") == "010101"

    def test_empty_pattern(self):
        with pytest.raises(EmptyPattern):
            make_periodic_decoder("", 1, 2)

    def test_identity_any_word(self):
        t = make_identity(2)
        for w in all_words(2, 5):
            assert t.run(w) == w

    def test_degenerate_huffman_single_block(self):
        # only one observed block: it still gets a length-1 codeword
        train = RealSpec.periodic("01").stream(2)
        t = make_block_huffman(train, 8, 2)
        assert t.run("00") == "0101"

    def test_huffman_needs_a_block(self):
        train = RealSpec.periodic("01").stream(2)
        with pytest.raises(InsufficientTraining):
            make_block_huffman(train, 0, 2)

    @pytest.mark.parametrize("build, error, message", [
        (lambda: make_periodic_decoder("01", 0, 2), FsdimError, "copies must be >= 1, got 0"),
        (lambda: huffman_code({}, 2), InsufficientTraining, "no symbols to code"),
        (lambda: make_block_huffman(RealSpec.periodic("01").stream(2), 8, 0), FsdimError,
         "block length must be >= 1, got 0"),
    ], ids=["periodic-copies", "huffman-no-symbols", "huffman-block-length"])
    def test_builder_refusals(self, build, error, message):
        with pytest.raises(error) as refusal:
            build()
        assert str(refusal.value) == message

    def test_huffman_decoder_is_prefix_free(self):
        train = RealSpec.champernowne().stream(2)
        t = make_block_huffman(train, 1024, 4)
        codewords = _codewords(t)
        assert len(codewords) == 16
        for cw in codewords:
            for other in codewords:
                assert cw == other or not other.startswith(cw)

    @pytest.mark.parametrize("train_len, whole", [(256, 256), (1023, 1022)])
    def test_huffman_round_trips_training_blocks(self, train_len, whole):
        # a training length that is not a multiple trains on its whole blocks
        train = RealSpec.champernowne().stream(2)
        t = make_block_huffman(train, train_len, 2)
        assert t == make_block_huffman(train, whole, 2)
        code = {t.run_from(0, cw)[0]: cw for cw in _codewords(t)}
        digs = train.prefix_str(40)
        encoded = "".join(code[digs[i : i + 2]] for i in range(0, 40, 2))
        assert t.run(encoded) == digs

    @given(st.dictionaries(st.integers(0, 30), st.integers(1, 100), min_size=1),
           st.integers(2, 5))
    def test_huffman_code_is_prefix_free_and_optimal_shape(self, freqs, base):
        code = huffman_code(freqs, base)
        assert set(code) == set(freqs)
        words = list(code.values())
        for i, cw in enumerate(words):
            for other in words[i + 1 :]:
                assert cw[: len(other)] != other and other[: len(cw)] != cw
        # more frequent symbols never get strictly longer codewords
        ranked = sorted(freqs.items(), key=lambda kv: -kv[1])
        for (s1, f1), (s2, f2) in zip(ranked, ranked[1:]):
            if f1 > f2:
                assert len(code[s1]) <= len(code[s2])


def _codewords(t):
    """Enumerate root-to-emission paths of a Huffman decoder."""
    words = []
    frontier = [(t.start, "")]
    while frontier:
        q, path = frontier.pop()
        for a in range(t.base):
            q2, out = t.transitions[q][a]
            if out:
                words.append(path + chr(48 + a))
            elif q2 != q:
                frontier.append((q2, path + chr(48 + a)))
    return words


class TestBursts:
    def test_max_burst(self, doubling2, identity2):
        assert doubling2.max_burst() == 2
        assert identity2.max_burst() == 1

    def test_output_length_bound(self, pool):
        for _, t in pool[:30]:
            burst = t.max_burst()
            for pi in all_words(2, 5):
                assert len(t.run(pi)) <= burst * len(pi)
