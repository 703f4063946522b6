import pytest
from hypothesis import given
from hypothesis import strategies as st

from fsdim.digits import FractionStream, RealSpec
from fsdim.errors import (
    EmptyPattern,
    FstSyntaxError,
    InsufficientTraining,
    MissingTransition,
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
        t = make_block_huffman(train, 8, 2, 2)
        assert t.run("00") == "0101"

    def test_huffman_needs_a_block(self):
        train = RealSpec.periodic("01").stream(2)
        with pytest.raises(InsufficientTraining):
            make_block_huffman(train, 0, 2, 2)

    def test_huffman_decoder_is_prefix_free(self):
        train = RealSpec.champernowne().stream(2)
        t = make_block_huffman(train, 1024, 4, 2)
        codewords = _codewords(t)
        assert len(codewords) == 16
        for cw in codewords:
            for other in codewords:
                assert cw == other or not other.startswith(cw)

    @pytest.mark.parametrize("train_len, whole", [(256, 256), (1023, 1022)])
    def test_huffman_round_trips_training_blocks(self, train_len, whole):
        # a training length that is not a multiple trains on its whole blocks
        train = RealSpec.champernowne().stream(2)
        t = make_block_huffman(train, train_len, 2, 2)
        assert t == make_block_huffman(train, whole, 2, 2)
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
