"""Acceptance criteria, one test per criterion, each printing a PASS line.

The pool fixture is the seeded 200-machine family (base 2, <= 4 states,
bursts <= 2) shared with the unit tests. Expected values come from the
enumeration oracles, never from the searches they check.
"""

import math
import random
from fractions import Fraction

from fsdim.cli import dispatch, gen_pool
from fsdim.digits import RealSpec, comp, seq_digits
from fsdim.dimension import (
    COMPRESSIBLE,
    NO_COMPRESSION,
    dim_point_estimate,
    normality_report,
)
from fsdim.fst import format_fst, make_identity, make_periodic_decoder, parse_fst
from fsdim.infocontent import kt, kt_oracle_table
from fsdim.precision import KdeltaOracleTable, PrecisionQuery, kdelta
from fsdim.separator import dimf_estimate, ktf_delta, make_canonical, make_targeted

from conftest import all_words

CAP = 12
WORDS6 = all_words(2, 6)

THIRD = RealSpec.rational(1, 3)


def _report(num, text):
    print(f"ACCEPTANCE {num}: {text}: PASS")


def _rational_points():
    fixed = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(5, 24)]
    rng = random.Random(99)
    extra = []
    while len(extra) < 20:
        q = rng.randint(2, 64)
        f = Fraction(rng.randint(0, q - 1), q)
        if f not in fixed and f not in extra:
            extra.append(f)
    return fixed + extra


def _spec(f: Fraction) -> RealSpec:
    return RealSpec.rational(f.numerator, f.denominator)


def _query(x: RealSpec, n: int) -> PrecisionQuery:
    return PrecisionQuery(x, 2, Fraction(1, 2**n), CAP)


def test_criterion_1_kt_oracle_equivalence(pool):
    for _, t in pool:
        table = kt_oracle_table(t, max_len=CAP, max_out_len=6)
        for w in WORDS6:
            res = kt(t, w, cap=CAP)
            key = tuple(int(c) for c in w)
            if res.found:
                assert key in table, (w, res)
                assert table[key][0] == res.cost, (w, res, table[key])
            else:
                assert key not in table, (w, res, table.get(key))
    _report(1, "kt matches the enumeration oracle on 200 machines, |w| <= 6")


def test_criterion_2_kdelta_oracle_equivalence(pool):
    points = _rational_points()
    for _, t in pool:
        table = KdeltaOracleTable(t, max_len=CAP)
        for f in points:
            x = _spec(f)
            for n in range(1, 7):
                res = kdelta(t, _query(x, n))
                oracle = table.query(f, Fraction(1, 2**n))
                if res.found or oracle.found:
                    assert res.found and oracle.found, (f, n, res.status, oracle.status)
                    assert res.cost == oracle.cost, (f, n, res.cost, oracle.cost)
    _report(2, "kdelta matches the enumeration oracle on 24 rationals, n <= 6")


def test_criterion_3_prefix_inequality(pool):
    points = _rational_points()
    for _, t in pool:
        for f in points:
            x = _spec(f)
            for n in range(1, 7):
                w = seq_digits(x, 2, n + 1)
                res_kt = kt(t, w, cap=CAP)
                if not res_kt.found:
                    continue
                res_kd = kdelta(t, _query(x, n))
                assert res_kd.found, (f, n, w)
                assert res_kd.cost <= res_kt.cost, (f, n, res_kd.cost, res_kt.cost)
    _report(3, "precision cost never exceeds the (n+1)-digit-prefix cost")


def test_criterion_4_complement_invariance(pool):
    for _, t in pool:
        lifted = t.complement_lift()
        for w in WORDS6:
            a = kt(t, w, cap=CAP)
            b = kt(lifted, comp(w, 2), cap=CAP)
            assert a.status == b.status, (w, a.status, b.status)
            if a.found:
                assert a.cost == b.cost, (w, a.cost, b.cost)
    _report(4, "complement lift preserves kt status and cost exactly")


def test_criterion_5_delta_monotonicity(pool):
    points = _rational_points()[:8]
    for _, t in pool:
        for f in points:
            x = _spec(f)
            results = {n: kdelta(t, _query(x, n)) for n in range(1, 8)}
            for n in range(1, 7):
                coarse, fine = results[n], results[n + 1]
                if fine.found:
                    assert coarse.found, (f, n, coarse.status)
                    assert fine.cost >= coarse.cost, (f, n, fine.cost, coarse.cost)
    _report(5, "tighter precision never costs less")


def test_criterion_6_identity_calibration(identity2):
    for w in all_words(2, 10):
        res = kt(identity2, w, cap=16)
        assert res.found and res.cost == len(w), w
    for n in range(1, 31):
        res = kdelta(identity2, PrecisionQuery.at_scale(THIRD, 2, n))
        assert res.found and res.cost in (n - 1, n, n + 1), (n, res)
    report = dim_point_estimate([("id", identity2)], THIRD, 2, 40)
    assert abs(report.estimate - 1) <= Fraction(6, 100), report.estimate
    _report(6, "identity transducer is correctly calibrated")


def test_criterion_7_rational_collapse():
    estimates = {}
    for k in (1, 2, 4, 8):
        family = [(f"pd{k}", make_periodic_decoder("01", k, 2))]
        estimates[k] = dim_point_estimate(family, THIRD, 2, 60).estimate
        assert estimates[k] <= Fraction(1, 2 * k) + Fraction(5, 100), (k, estimates[k])
    assert estimates[2] < estimates[1]
    assert estimates[4] < estimates[2]
    assert estimates[8] < estimates[4]
    _report(7, "periodic decoders collapse the estimate for 1/3 as 1/(2k)")


def test_criterion_8_normality_robustness():
    champ = normality_report(RealSpec.champernowne(), 2, 10_000, max_block_len=4)
    assert champ.estimate >= Fraction(8, 10), champ.estimate
    assert champ.verdict == NO_COMPRESSION
    third = normality_report(THIRD, 2, 60, max_block_len=4)
    assert third.estimate <= Fraction(2, 10), third.estimate
    assert third.verdict == COMPRESSIBLE
    _report(8, "normality verdicts: champernowne >= 0.8, 1/3 <= 0.2")


def test_criterion_9_canonical_enumerator_coincidence(pool):
    f = make_canonical(2)
    points = [Fraction(0), Fraction(1, 3), Fraction(1, 2)]
    for _, t in pool:
        table = KdeltaOracleTable(t, CAP, f)
        for p in points:
            x = _spec(p)
            for n in range(1, 6):
                a = kdelta(t, _query(x, n))
                b = table.query(p, Fraction(1, 2**n))
                if a.found or b.found:
                    assert a.found and b.found, (p, n, a.status, b.status)
                    assert a.cost == b.cost, (p, n, a.cost, b.cost)
    _report(9, "canonical enumerator content equals kdelta on the pool")


def test_criterion_10_targeted_collapse(identity2):
    f = make_targeted(THIRD, 2)
    for n in range(1, 61):
        res = ktf_delta(identity2, f, PrecisionQuery(THIRD, 2, Fraction(1, 2**n), 20))
        bound = math.ceil(math.log2(n + 1)) + 1
        assert res.found and res.cost <= bound, (n, res.cost, bound)
    collapsed = dimf_estimate([("id", identity2)], f, [THIRD], 60)
    assert collapsed.estimate <= Fraction(15, 100), collapsed.estimate
    canonical = dim_point_estimate([("id", identity2)], THIRD, 2, 60)
    assert canonical.estimate >= Fraction(9, 10), canonical.estimate
    _report(10, "targeted enumerator collapses the point; canonical does not")


def test_criterion_11_round_trip_and_determinism(pool, tmp_path, capsys):
    for _, t in pool:
        assert parse_fst(format_fst(t)) == t
        assert format_fst(parse_fst(format_fst(t))) == format_fst(t)
    # identical seeds give byte-identical pool files
    again = gen_pool(20260823, 200, max_states=4, base=2, max_burst=2)
    assert [(n, format_fst(t)) for n, t in pool] == [(n, format_fst(t)) for n, t in again]
    # a CLI command is byte-reproducible under fixed inputs
    path = tmp_path / "id.fst"
    path.write_text(format_fst(make_identity(2)))
    outputs = []
    for _ in range(2):
        assert dispatch(["kdelta", "--fst", str(path), "--x", "rat:1/3",
                         "--base", "2", "--n", "6", "--json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    _report(11, "file format round-trips; seeded commands are byte-identical")
