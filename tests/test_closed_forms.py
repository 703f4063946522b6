"""The searches at large n against closed forms that need no search.

- A block-Huffman decoder emits a block exactly when its input completes the
  block's codeword, so `kt` of an aligned prefix is the sum of the codeword
  lengths of its blocks, read off `fst.huffman_code`.
- The identity's outputs of length j are the numerals k / b**j, and the two
  nearest x are floor(b**j x) and floor(b**j x) + 1, over b**j. So its
  `kdelta(b**-n)` is the least j at which one of them lies strictly within
  b**-n of x; the remainder of b**j x is carried from one j to the next.
- `huffman_code` is optimal: its cost, sum of count * length, is the least
  over all length vectors that satisfy Kraft's inequality, found by brute
  force for a few symbols.
- Bourke, Hitchcock and Vinodchandran's entropy bound: a b-ary prefix code
  spends on N blocks with counts c_i at least N times their empirical block
  entropy (Gibbs' inequality), which in integers is
  b**(sum c_i * l_i) * prod c_i**c_i >= N**N; on the N blocks it was built
  for, Huffman spends less than N digits more.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from math import prod

import pytest

from fsdim.digits import RealSpec, seq_digits
from fsdim.fst import huffman_code, make_block_huffman, make_identity
from fsdim.infocontent import PrefixSearch, kt
from fsdim.precision import kdelta_profile

HUFFMAN_LEN = 2000
IDENTITY_N = 600


def _blocks(word: str, k: int) -> list:
    return [tuple(int(c) for c in word[i : i + k]) for i in range(0, len(word) - k + 1, k)]


@pytest.mark.parametrize("spec, base, k", [
    (spec, base, k) for spec, base, ks in [("champernowne", 2, (1, 2, 3, 4)),
                                           ("champernowne", 3, (1, 2, 3, 4)),
                                           ("rat:5/24", 2, (1, 2, 3, 4)),
                                           ("champernowne", 10, (1, 2))]
    for k in ks
])
def test_block_huffman_kt_of_aligned_prefixes_is_the_codeword_sum(spec, base, k):
    x = RealSpec.parse(spec)
    word = seq_digits(x, base, HUFFMAN_LEN // k * k)
    code = huffman_code(dict(Counter(_blocks(word, k))), base)
    t = make_block_huffman(x.stream(base), len(word), k)
    search = PrefixSearch(t, word)
    total = 0
    for i, block in enumerate(_blocks(word, k), start=1):
        total += len(code[block])
        res = kt(t, word[: i * k], cap=total + 1, search=search, witness=False)
        assert res.found and res.cost == total, (i * k, res, total)


def identity_kdelta(x: Fraction, base: int, n_max: int) -> list:
    """The identity's kdelta(base**-n) for n = 1..n_max at a rational x."""
    P, Q = x.numerator, x.denominator
    costs = []
    j, floor, rem, bj, bn = 0, 0, P, 1, 1  # b**j * P = floor * Q + rem, 0 <= rem < Q
    for _ in range(n_max):
        bn *= base
        # |floor / b**j - x| = rem / (Q b**j) and |(floor + 1) / b**j - x| =
        # (Q - rem) / (Q b**j); floor + 1 = b**j is not a j-digit numeral
        while not (rem * bn < Q * bj or (floor + 1 < bj and (Q - rem) * bn < Q * bj)):
            d, rem = divmod(rem * base, Q)
            floor, bj, j = floor * base + d, bj * base, j + 1
        costs.append(j)
    return costs


def test_the_identity_closed_form_by_hand():
    # 1/3 = 0.0101... in base 2: the empty output, 0, is within 1/2 of it,
    # 0.1 within 1/4, 0.01 within 1/8 and 0.011 within 1/16
    assert identity_kdelta(Fraction(1, 3), 2, 4) == [0, 1, 2, 3]
    # 7/10 = 0.7 in base 10 is met exactly by one digit
    assert identity_kdelta(Fraction(7, 10), 10, 5) == [1] * 5


@pytest.mark.parametrize("x, base", [
    (Fraction(1, 3), 2), (Fraction(5, 24), 2), (Fraction(1, 2), 2), (Fraction(1, 3), 3),
    (Fraction(2, 3), 3), (Fraction(3, 4), 5), (Fraction(7, 10), 10), (Fraction(1, 7), 10),
    (1 - Fraction(1, 2 * 3 ** 7), 3),
])
def test_identity_kdelta_has_a_closed_form(x, base):
    spec = RealSpec.rational(x.numerator, x.denominator)
    rows = kdelta_profile([make_identity(base)], spec, base, IDENTITY_N)
    assert [r.cost for r in rows] == identity_kdelta(x, base, IDENTITY_N)


def _least_cost(counts: list, base: int) -> int:
    """The least sum of count * length over lengths >= 1 that satisfy
    Kraft's inequality sum base**-length <= 1: the cost of an optimal
    base-ary prefix code. An optimal code gives a larger count no longer a
    codeword, so only lengths ascending against the counts descending are
    tried."""
    counts = sorted(counts, reverse=True)
    top = len(counts)
    best = None
    for lengths in combinations_with_replacement(range(1, top + 1), top):
        if sum(base ** (top - length) for length in lengths) <= base ** top:
            cost = sum(c * length for c, length in zip(counts, lengths))
            best = cost if best is None else min(best, cost)
    return best


@pytest.mark.parametrize("base", [3, 4, 5])
def test_huffman_code_is_optimal(base):
    rng = random.Random(base)
    for size in range(2, 8):
        for _ in range(4):
            freqs = {(s,): rng.randint(1, 40) for s in range(size)}
            code = huffman_code(freqs, base)
            cost = sum(freqs[s] * len(code[s]) for s in freqs)
            assert cost == _least_cost(list(freqs.values()), base), (freqs, code)


@pytest.mark.parametrize("spec, base, k", [
    (spec, base, k) for spec, base in [("champernowne", 2), ("champernowne", 3), ("rat:5/24", 2)]
    for k in (1, 2, 3, 4)
])
def test_block_huffman_cost_is_at_least_the_block_entropy(spec, base, k):
    # each cost is kt of the aligned prefix on the member, by the codeword-sum test
    blocks = _blocks(seq_digits(RealSpec.parse(spec), base, HUFFMAN_LEN // k * k), k)
    code = huffman_code(dict(Counter(blocks)), base)
    counts, terms = Counter(), {}  # per block: c_i and c_i**c_i
    power = 1  # b**(sum c_i * l_i)
    for N, block in enumerate(blocks, start=1):
        c = counts[block] = counts[block] + 1
        terms[block] = c ** c
        power *= base ** len(code[block])
        product = prod(terms.values())
        assert power * product >= N ** N, (N, block)
    assert power * product <= base ** N * N ** N
