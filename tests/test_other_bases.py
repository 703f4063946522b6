"""The searches against their enumeration oracles in bases 3, 4, 5 and 10.

Each base has its own fixture pool, `gen_pool(seed, count, 4, b, 3)`. The
points include 1/b and (b - 1)/b, whose expansions end in zeros right after
one digit, so outputs one unit above or below x's prefix (D = 1 and D = -1 in
`PrecisionSearch`) decide some precisions, and periodic points with runs of
b - 1. The input caps shrink as the base grows, so that each oracle walks a
few thousand configurations at most.
"""

from fractions import Fraction

import pytest

from fsdim.cli import gen_pool
from fsdim.digits import RealSpec, digits_to_str, seq_digits
from fsdim.infocontent import kt, kt_oracle_table
from fsdim.precision import KdeltaOracleTable, PrecisionQuery, kdelta, kdelta_oracle
from fsdim.separator import ktf_delta, make_canonical, make_targeted

#: base -> (input cap of every search and oracle, largest precision n)
SIZES = {3: (6, 4), 4: (5, 3), 5: (4, 3), 10: (3, 2)}
POOL_COUNT = 10


@pytest.fixture(scope="module", params=sorted(SIZES), ids=lambda b: f"base{b}")
def base_pool(request):
    base = request.param
    return base, gen_pool(base, POOL_COUNT, 4, base, 3)


def rationals(base: int) -> list:
    top = base - 1
    return sorted({Fraction(0), Fraction(1, base), Fraction(top, base), Fraction(1, 3),
                   Fraction(5, 24), Fraction(top * base + top - 1, base * base)})


def points(base: int) -> list:
    top = str(base - 1)
    specs = [RealSpec.rational(v.numerator, v.denominator) for v in rationals(base)]
    return specs + [RealSpec.periodic(top + "0"), RealSpec.periodic("1" + top * 3),
                    RealSpec.champernowne()]


def test_kdelta_matches_its_oracle(base_pool):
    base, pool = base_pool
    cap, n_max = SIZES[base]
    for _, t in pool:
        table = KdeltaOracleTable(t, cap)
        for x in points(base):
            value = x.exact_value(base)
            for n in range(1, n_max + 1):
                q = PrecisionQuery(x, base, Fraction(1, base ** n), cap)
                res = kdelta(t, q)
                want = kdelta_oracle(t, q) if value is None else table.query(value, q.delta)
                assert res.found == want.found and res.cost == want.cost, (x, n, res, want)


def test_kt_matches_its_oracle(base_pool):
    base, pool = base_pool
    cap, n_max = SIZES[base]
    words = {seq_digits(x, base, m) for x in points(base) for m in range(n_max + 3)}
    for _, t in pool:
        table = kt_oracle_table(t, cap, n_max + 2)
        for w in sorted(words):
            res = kt(t, w, cap=cap)
            want = table.get(tuple(int(c) for c in w))
            assert res.found == (want is not None), (w, res, want)
            if res.found:
                assert (res.cost, res.witness_input) == (want[0], digits_to_str(want[1])), (w, res)


@pytest.mark.parametrize("kind", ["canonical", "targeted"])
def test_ktf_delta_matches_its_oracle(base_pool, kind):
    base, pool = base_pool
    cap, n_max = SIZES[base]
    for x in points(base):
        f = make_canonical(base) if kind == "canonical" else make_targeted(x, base)
        for _, t in pool[: POOL_COUNT // 2]:
            for n in range(1, n_max + 1):
                delta = Fraction(1, base ** n)
                q = PrecisionQuery(x, base, delta, cap)
                res = ktf_delta(t, f, q)
                want = kdelta_oracle(t, q, f)
                assert res.found == want.found and res.cost == want.cost, (x, n, res, want)
                if res.found:
                    assert t.run(res.witness_input) == res.witness_output
