"""Exact dense polynomial arithmetic."""

import copy
import pickle
import tracemalloc
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qscheme.qpolynomial import (
    Poly,
    _over_lcm,
    format_poly,
    product_of_linear,
)

coeff = st.fractions(min_value=-5, max_value=5, max_denominator=4)
polys = st.lists(coeff, min_size=0, max_size=6).map(Poly)


def test_product_of_two_linears():
    # (x - 1)(x - 1/2) = x^2 - 3/2 x + 1/2
    got = Poly.linear(1) * Poly.linear(F(1, 2))
    assert got == Poly([F(1, 2), F(-3, 2), 1])
    assert product_of_linear(iter(["1", F(1, 2)])) == got


def test_multiplicative_identity():
    p = Poly([F(1, 2), F(-3, 2), 1])
    assert p * Poly.one() == p


def test_eval_direct_substitution():
    p = Poly([F(1, 2), F(-3, 2), 1])
    assert p(2) == F(3, 2)


def test_zero_polynomial_degree():
    assert Poly.zero().degree == -1
    assert Poly([0, 0]).is_zero
    assert Poly([1, 2, 0]).coeffs == (F(1), F(2))


def test_compose_affine():
    p = Poly([0, 0, 1])  # x^2
    assert p.compose_affine(F(1, 2), F(3)) == Poly([9, 3, F(1, 4)])
    # a zero scale leaves the constant p(shift)
    assert Poly([1, -2, F(1, 3)]).compose_affine(0, F(4, 5)) == Poly.constant(F(-29, 75))


def test_deflate_reverses_linear_multiplication():
    p = product_of_linear([F(1), F(2), F(-1, 3)])
    assert p.is_monic and p.degree == 3
    quotient, rem = p.deflate(F(1))
    assert rem == 0
    assert quotient == product_of_linear([F(2), F(-1, 3)])
    _, rem2 = p.deflate(F(5))
    assert rem2 == p(F(5))
    assert p.deflate(F(-1, 3)) == (product_of_linear([F(1), F(2)]), 0)
    assert Poly.zero().deflate(3) == (Poly.zero(), 0)
    assert Poly([F(5, 3)]).deflate(F(-2, 7)) == (Poly.zero(), F(5, 3))


@given(a=polys, b=polys, c=polys)
@settings(max_examples=60, derandomize=True)
def test_ring_axioms(a, b, c):
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


def test_format_poly():
    assert format_poly(Poly([F(1, 2), F(-3, 2), 1])) == "x^2 - 3/2 x + 1/2"
    assert format_poly(Poly.zero()) == "0"
    assert format_poly(Poly.one()) == "1"
    assert format_poly(Poly([0, 1])) == "x"
    assert format_poly(Poly([-1, 0, 0, 2])) == "2 x^3 - 1"
    assert format_poly(Poly([F(-5, 2), 0, F(-2, 3)])) == "-2/3 x^2 - 5/2"
    assert format_poly(Poly([0, -1])) == "-x"


BIG = 3**90 + 1
EVAL_POINTS = [0, 1, -1, 7, F(1, 2), F(-2, 3), F(BIG, 2**70), F(-(2**80) - 1, 3**41), -BIG, F(5, BIG)]
EVAL_POLYS = [
    Poly.zero(),
    Poly([0, 0]),
    Poly.constant(F(-7, 3)),
    Poly.constant(BIG),
    Poly.x(),
    Poly([F(1, 2), F(-3, 2), 1]),
    Poly([0, 0, F(BIG, 7), 0, F(-1, 2**64)]),
    Poly([F(-BIG, 6), F(5, 4), 0, F(3, 10)]),
]


@pytest.mark.parametrize("p", EVAL_POLYS, ids=range(len(EVAL_POLYS)))
def test_integer_eval_matches_fraction_reference(p):
    # the reference is the definition, sum_i c_i x**i on Fractions
    for x in EVAL_POINTS:
        got = p(x)
        assert type(got) is F and got == sum(c * F(x) ** i for i, c in enumerate(p.coeffs)), (p, x)
    assert p("3/4") == p(F(3, 4))


# Each polynomial with its text, written out from its Fraction coefficients.
FORMAT_POLYS = [
    (Poly.zero(), "0"),
    (Poly.one(), "1"),
    (Poly.constant(-1), "-1"),
    (Poly([0, -1]), "-x"),
    (Poly([1, 1, 1]), "x^2 + x + 1"),
    (Poly([-1, -1, -1]), "-x^2 - x - 1"),
    (Poly([F(-1, 3), 0, F(1, 3)]), "1/3 x^2 - 1/3"),
    (Poly([F(5, 2), F(-7, 4), F(-10, 11)]), "-10/11 x^2 - 7/4 x + 5/2"),
    (Poly([BIG, -BIG, 0, F(BIG, 2**70), F(-1, BIG)]), f"-1/{BIG} x^4 + {BIG // 2}/{2**69} x^3 - {BIG} x + {BIG}"),
    (Poly([0, 0, F(-3, 2), 11, -1]), "-x^4 + 11 x^3 - 3/2 x^2"),
]


@pytest.mark.parametrize("p, text", FORMAT_POLYS, ids=range(len(FORMAT_POLYS)))
@pytest.mark.parametrize("var", ["x", "y"])
def test_format_poly_matches_fraction_reference(p, text, var):
    # the text always names the variable x: a variable name, x included, is
    # no argument
    assert format_poly(p) == text
    with pytest.raises(TypeError):
        format_poly(p, var)


# -- the integer representation ----------------------------------------------


@given(
    nums=st.lists(st.integers(-(10**20), 10**20) | st.just(0), max_size=7),
    den=st.integers(-(10**6), 10**6).filter(bool),
)
@settings(max_examples=150, derandomize=True)
def test_of_brings_numerators_over_a_signed_denominator_to_lowest_terms(nums, den):
    p = Poly._of(nums, den)
    assert p.den > 0 and gcd(p.den, *p.nums) == 1, (p.nums, p.den)
    assert not p.nums or p.nums[-1] != 0, p.nums
    want = [F(v, den) for v in nums]
    while want and not want[-1]:
        want.pop()
    assert p.coeffs == tuple(want)
    same = Poly(want)
    assert p == same and hash(p) == hash(same)


def test_poly_is_immutable():
    """Neither field can be assigned or deleted: `monic_poly` hands one
    cached polynomial to every caller."""
    p = Poly([1, 2])
    with pytest.raises(AttributeError):
        p.nums = (3,)
    with pytest.raises(AttributeError):
        del p.nums
    assert p.nums == (1, 2) and p.den == 1


def test_poly_value_protocol():
    """Copy and pickle rebuild through `_of`, the repr shows the Fraction
    coefficients, `==` with a non-polynomial is False, and a negative
    power is refused."""
    p = Poly([F(1, 2), -3, F(2, 3)])
    for twin in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert type(twin) is Poly and twin == p and hash(twin) == hash(p)
        assert (twin.nums, twin.den) == ((3, -18, 4), 6)
    assert repr(p) == "Poly(coeffs=(Fraction(1, 2), Fraction(-3, 1), Fraction(2, 3)))"
    assert Poly.one().__eq__(1) is NotImplemented
    assert (Poly.one() == 1) is False and Poly.one() != 1
    with pytest.raises(ValueError):
        p ** -1


def test_over_lcm_leaves_no_memory_behind():
    """Thousands of calls hold no memory afterwards: the denominators reach
    lcm as a list, so no call parks a tuple in a free list, which a
    generator argument did at about 80 bytes a call."""
    pairs = [(1, 3), (2, 5), (-7, 9)]
    assert _over_lcm(pairs) == ([15, 18, -35], 45)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(3000):
            _over_lcm(pairs)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 16_000, grown
