"""The six value types are `namedtuple` subclasses: immutable, they compare
and hash by their fields, and they print as they always have: the reprs
below are pinned."""

import copy
import pickle
from fractions import Fraction

import pytest

from fsdim.digits import RealSpec
from fsdim.dimension import EstimateReport, dim_point_estimate
from fsdim.errors import FsdimError
from fsdim.fst import Fst, make_identity
from fsdim.infocontent import CostResult
from fsdim.precision import PrecisionQuery, ProfileRow

THIRD = RealSpec.rational(1, 3)

# name -> (build one instance, build one that differs in one field, its repr)
CASES = {
    "CostResult": (
        lambda: CostResult("found", 2, "01", "01"),
        lambda: CostResult("found", 2, "01", "00"),
        "CostResult(status='found', cost=2, witness_input='01', witness_output='01')",
    ),
    "ProfileRow": (
        lambda: ProfileRow(5, -1, "cap"),
        lambda: ProfileRow(5, -1, "unreachable"),
        "ProfileRow(n=5, cost=-1, flags='cap')",
    ),
    "RealSpec": (
        lambda: RealSpec.rational(1, 3),
        lambda: RealSpec.rational(1, 4),
        "RealSpec(kind='rational', numerator=1, denominator=3, pattern='', path='')",
    ),
    "PrecisionQuery": (
        lambda: PrecisionQuery(THIRD, 2, Fraction(1, 32), 28),
        lambda: PrecisionQuery(THIRD, 2, Fraction(1, 32), 27),
        "PrecisionQuery(x=RealSpec(kind='rational', numerator=1, denominator=3, pattern='', path=''),"
        " base=2, delta=Fraction(1, 32), cap_input=28)",
    ),
    "EstimateReport": (
        lambda: EstimateReport(Fraction(1, 2), {"T0": Fraction(1, 2)}, (3, 6)),
        lambda: EstimateReport(Fraction(1, 2), {"T0": Fraction(1, 2)}, (3, 6), "v"),
        "EstimateReport(estimate=Fraction(1, 2), per_transducer={'T0': Fraction(1, 2)},"
        " window=(3, 6), verdict='', profiles={})",
    ),
    "Fst": (
        lambda: make_identity(2),
        lambda: Fst(2, 1, 0, (((0, (1,)), (0, (1,))),)),
        "Fst(base=2, state_count=1, start=0, transitions=(((0, (0,)), (0, (1,))),))",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
class TestValueType:
    def test_attributes_cannot_be_assigned(self, name):
        value = CASES[name][0]()
        for field in type(value)._fields:
            with pytest.raises(AttributeError):
                setattr(value, field, 0)
        with pytest.raises(AttributeError):
            value.extra = 0
        with pytest.raises(AttributeError):
            delattr(value, type(value)._fields[0])

    def test_equality_and_hash_go_by_field(self, name):
        build, build_other, _ = CASES[name]
        value, again, other = build(), build(), build_other()
        assert value is not again and value == again and value != other
        key = tuple(getattr(value, field) for field in type(value)._fields)
        assert value == key  # a namedtuple equals the plain tuple of its fields
        if name == "EstimateReport":  # a dict field: unhashable, as it always was
            with pytest.raises(TypeError):
                hash(value)
        else:
            assert hash(value) == hash(again) == hash(key)

    def test_repr_is_pinned(self, name):
        build, _, text = CASES[name]
        assert repr(build()) == text

    def test_copies_are_equal(self, name):
        value = CASES[name][0]()
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value


def test_a_query_keeps_its_n_true():
    q = PrecisionQuery.at_scale(THIRD, 2, 5)
    with pytest.raises(AttributeError):
        q.n = 6
    with pytest.raises(FsdimError):  # a query at another delta validates it
        PrecisionQuery(q.x, q.base, Fraction(0))
    # a copy or a pickle keeps n and delta, also at a delta that is not a
    # power, where n is None
    for query, n, delta in ((q, 5, Fraction(1, 32)),
                            (PrecisionQuery.at_scale(THIRD, 3, 5, 9), 5, Fraction(1, 3**5)),
                            (PrecisionQuery(THIRD, 3, Fraction(1, 12), 8), None, Fraction(1, 12))):
        copies = [copy.copy(query), copy.deepcopy(query)]
        copies += [pickle.loads(pickle.dumps(query, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for again in copies:
            assert type(again) is PrecisionQuery and again == query
            assert (again.n, again.delta, again.cap_input) == (n, delta, query.cap_input)


def test_a_report_gets_a_fresh_profiles_map():
    a = EstimateReport(Fraction(1), {}, (1, 2))
    b = EstimateReport(Fraction(1), {}, (1, 2))
    assert a.profiles == {} and a.profiles is not b.profiles


def test_estimate_names_a_bare_transducer_and_unpacks_a_pair():
    # `estimate` tells a bare machine from a (name, machine) pair with
    # isinstance(m, Fst)
    t = make_identity(2)
    report = dim_point_estimate([t, ("id", t)], THIRD, 2, 8)
    assert sorted(report.per_transducer) == ["T0", "id"]
    assert sorted(report.profiles) == ["T0", "id"]
