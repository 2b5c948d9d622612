from fractions import Fraction as F
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from dolab.rationals import as_ints

rationals = st.one_of(
    st.integers(-10**6, 10**6),
    st.fractions(max_denominator=10**4),
    st.builds(F, st.integers(-50, 50), st.sampled_from([2, 3, 5, 7, 12, 60])),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(rationals, max_size=12))
def test_as_ints_scales_by_the_lcm(values):
    ints, den = as_ints(values)
    assert den > 0
    assert den == lcm(1, *(F(v).denominator for v in values))
    assert len(ints) == len(values)
    for m, v in zip(ints, values):
        assert type(m) is int
        assert F(m, den) == v


@given(st.lists(st.integers(-10**9, 10**9), max_size=8))
def test_as_ints_on_ints_is_the_identity(values):
    assert as_ints(values) == (values, 1)


def test_as_ints_examples():
    assert as_ints([]) == ([], 1)
    assert as_ints([F(1, 2), F(-1, 3), 2]) == ([3, -2, 12], 6)
    assert as_ints((F(0), F(5, 4))) == ([0, 5], 4)
