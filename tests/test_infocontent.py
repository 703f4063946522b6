from itertools import product

import pytest

from fsdim.digits import RealSpec, comp, digits_to_str, seq_digits
from fsdim.errors import FsdimError
from fsdim.fst import Fst, make_identity, make_periodic_decoder
from fsdim.infocontent import (
    CAP_EXCEEDED,
    FOUND,
    UNREACHABLE,
    PrefixSearch,
    distinct_outputs,
    kt,
    kt_oracle,
    kt_oracle_table,
)

from conftest import all_words


class TestKt:
    def test_identity_costs_length(self, identity2):
        res = kt(identity2, "0110")
        assert (res.status, res.cost, res.witness_input) == (FOUND, 4, "0110")

    def test_doubling(self, doubling2):
        res = kt(doubling2, "0011")
        assert (res.status, res.cost, res.witness_input) == (FOUND, 2, "01")

    def test_doubling_odd_output_unreachable(self, doubling2):
        assert kt(doubling2, "0").status == UNREACHABLE

    def test_empty_output_is_free(self, pool):
        for _, t in pool[:50]:
            res = kt(t, "")
            assert (res.status, res.cost) == (FOUND, 0)

    def test_witness_is_lex_least(self, pool):
        for _, t in pool[:40]:
            table = kt_oracle_table(t, max_len=8, max_out_len=4)
            for w in all_words(2, 4):
                res = kt(t, w, cap=8)
                if res.found:
                    key = tuple(int(c) for c in w)
                    assert table[key][1] == tuple(int(c) for c in res.witness_input)

    def test_cap_exceeded_vs_unreachable(self, doubling2):
        # "0011" needs 2 inputs; cap 1 truncates a live frontier
        assert kt(doubling2, "0011", cap=1).status == CAP_EXCEEDED
        # odd-length outputs are proved impossible whatever the cap
        assert kt(doubling2, "011", cap=1).status == UNREACHABLE

    def test_witness_replays(self, pool):
        for _, t in pool[:50]:
            for w in all_words(2, 4):
                res = kt(t, w, cap=10)
                if res.found:
                    assert t.run(res.witness_input) == w
                    assert len(res.witness_input) == res.cost


class TestKtOracle:
    def test_identity(self, identity2):
        res = kt_oracle(identity2, "01", max_len=4)
        assert (res.status, res.cost) == (FOUND, 2)

    def test_doubling(self, doubling2):
        res = kt_oracle(doubling2, "0011", max_len=4)
        assert (res.status, res.cost, res.witness_input) == (FOUND, 2, "01")

    def test_unreachable_once_a_level_empties(self, doubling2):
        # outputs are 00 and 11 per input: after 00, no output is a prefix
        # of 000, so the walk empties at length 2, while 0011 at cap 1 is
        # still live
        assert kt_oracle(doubling2, "000", max_len=6).status == UNREACHABLE
        assert kt_oracle(doubling2, "000", max_len=1).status == CAP_EXCEEDED
        assert kt_oracle(doubling2, "0011", max_len=1).status == CAP_EXCEEDED

    def test_table_matches_single_queries(self, pool):
        for _, t in pool[:10]:
            table = kt_oracle_table(t, max_len=6, max_out_len=4)
            for w in all_words(2, 3):
                res = kt_oracle(t, w, max_len=6)
                key = tuple(int(c) for c in w)
                if res.found:
                    assert table[key][0] == res.cost
                else:
                    assert key not in table


class TestDistinctOutputs:
    """The oracles' walk against a brute force over every input up to
    length 8, with no deduplication."""

    # state 0 emits nothing on 1 and state 1 nothing on 0, so many inputs
    # reach one (state, output) and many outputs are reached more than once
    SILENT = Fst(2, 2, 0, (((1, (0,)), (0, ())), ((0, ()), (1, (1, 0)))))

    def test_each_output_once_with_its_least_input(self, pool):
        short = lambda out: len(out) <= 3  # prefix-closed
        for t in [t for _, t in pool[:20]] + [self.SILENT]:
            first = {}  # output -> its least input, in length-then-lex order
            for length in range(9):
                for pi in product(range(2), repeat=length):
                    first.setdefault(tuple(int(c) for c in t.run(digits_to_str(pi))), pi)
            expected = [(pi, out) for out, pi in first.items()]
            assert list(distinct_outputs(t, 8)) == expected
            assert list(distinct_outputs(t, 8, short)) == [(pi, out) for pi, out in expected
                                                            if short(out)]

    def test_negative_length_is_refused(self, identity2):
        with pytest.raises(FsdimError):
            next(distinct_outputs(identity2, -1))


class TestProperties:
    def test_oracle_equivalence_small(self, pool):
        for _, t in pool[:25]:
            table = kt_oracle_table(t, max_len=10, max_out_len=4)
            for w in all_words(2, 4):
                res = kt(t, w, cap=10)
                key = tuple(int(c) for c in w)
                if res.found:
                    assert table[key][0] == res.cost
                else:
                    assert key not in table

    def test_complement_invariance(self, pool):
        for _, t in pool[:40]:
            lifted = t.complement_lift()
            for w in all_words(2, 4):
                a, b = kt(t, w, cap=10), kt(lifted, comp(w, 2), cap=10)
                assert (a.status, a.cost if a.found else None) == (
                    b.status,
                    b.cost if b.found else None,
                )

    def test_burst_lower_bound(self, pool):
        for _, t in pool[:50]:
            burst = t.max_burst()
            for w in all_words(2, 5):
                res = kt(t, w, cap=12)
                if res.found:
                    assert res.cost >= -(-len(w) // max(1, burst))

    def test_subadditivity_on_decompositions(self, pool):
        for _, t in pool[:25]:
            for u, v in [("0", "1"), ("01", "0"), ("1", "10"), ("00", "11")]:
                ru = kt(t, u, cap=10)
                if not ru.found:
                    continue
                _, q = t.run_from(t.start, ru.witness_input)
                # cheapest way to emit v from the state the witness ends in
                best = None
                for pi in all_words(2, 6):
                    if t.run_from(q, pi)[0] == v:
                        best = len(pi)
                        break
                if best is not None:
                    ruv = kt(t, u + v, cap=16)
                    assert ruv.found and ruv.cost <= ru.cost + best

    def test_periodic_decoder_costs(self):
        t = make_periodic_decoder("01", 2, 2)
        assert kt(t, "0101").cost == 1
        assert kt(t, "01010101").cost == 2
        assert kt(t, "01").status == UNREACHABLE


def _row(res):
    return res.status, res.cost, res.witness_input, res.witness_output


class TestPrefixSearch:
    """One search per (transducer, word) answers kt for every prefix as a
    search for that prefix alone does: status, cost and witness."""

    @pytest.mark.parametrize("spec", ["rat:1/3", "rat:5/24", "periodic:001", "dyadic:0111",
                                      "rat:1/2", "rat:0/1", "champernowne"])
    def test_pool_prefixes(self, pool, spec):
        word = seq_digits(RealSpec.parse(spec), 2, 40)
        for _, t in pool:
            search = PrefixSearch(t, word)
            for n in range(0, 41):
                w = word[:n]
                assert _row(kt(t, w, 2 * n + 8, search)) == _row(kt(t, w, 2 * n + 8)), (spec, n)

    def test_asking_back(self, pool):
        # a shorter prefix or a smaller cap than the search has walked to is
        # answered as a fresh search answers it when the prefix is resolved,
        # and refused when it is still open below the level walked
        word = seq_digits(RealSpec.champernowne(), 2, 30)
        answered = refused = 0
        for _, t in pool[:60]:
            search = PrefixSearch(t, word)
            kt(t, word, 68, search)
            for n in range(30, -1, -1):
                for cap in (0, 2, 5, 2 * n + 8, 68):
                    w = word[:n]
                    if search.open(n) and cap < search.level:
                        with pytest.raises(FsdimError):
                            kt(t, w, cap, search)
                        refused += 1
                    else:
                        assert _row(kt(t, w, cap, search)) == _row(kt(t, w, cap)), (n, cap)
                        answered += not search.open(n)
        assert answered and refused

    def test_cap_reads_the_least_matched_length_of_a_level(self):
        # level 1 holds matched lengths 3 (input 0, first in order) and 0
        # (input 1): prefix 2 is still open at cap 1, so it is cap_exceeded
        t = Fst(2, 2, 0, (((0, (0, 0, 0)), (1, ())), ((1, ()), (1, ()))))
        search = PrefixSearch(t, "000")
        assert kt(t, "000", 1, search).status == FOUND
        assert kt(t, "00", 1, search).status == CAP_EXCEEDED == kt(t, "00", 1).status
        assert kt(t, "00", 2, search).status == UNREACHABLE == kt(t, "00", 2).status

    def test_cost_only_answers_are_shared_per_cost(self, pool):
        # a row builds no CostResult: each cost has one cost-only found answer
        word = seq_digits(RealSpec.champernowne(), 2, 12)
        by_cost = {}
        for _, t in pool[:40]:
            search = PrefixSearch(t, word)
            for n in range(13):
                res = kt(t, word[:n], 2 * n + 8, search, witness=False)
                if res.found:
                    assert res is by_cost.setdefault(res.cost, res), (t, n)
                    assert res == (FOUND, res.cost, "", "")
        assert len(by_cost) > 1

    def test_search_for_another_word_or_transducer_is_refused(self, identity2):
        search = PrefixSearch(identity2, "0110")
        with pytest.raises(FsdimError):
            kt(identity2, "0111", 8, search)
        with pytest.raises(FsdimError):
            kt(make_identity(2), "01", 8, search)
