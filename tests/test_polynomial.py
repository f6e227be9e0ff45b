"""Exact dense polynomial arithmetic."""

import copy
import pickle
import random
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
from reference import (
    FractionPoly,
    fraction_deflate,
    fraction_eval,
    fraction_format_poly,
    poly_compose_affine,
    poly_product_of_linear,
)

coeff = st.fractions(min_value=-5, max_value=5, max_denominator=4)
polys = st.lists(coeff, min_size=0, max_size=6).map(Poly)


def test_product_of_two_linears():
    # (x - 1)(x - 1/2) = x^2 - 3/2 x + 1/2
    got = Poly.linear(1) * Poly.linear(F(1, 2))
    assert got == Poly([F(1, 2), F(-3, 2), 1])


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


def test_deflate_reverses_linear_multiplication():
    p = product_of_linear([F(1), F(2), F(-1, 3)])
    quotient, rem = p.deflate(F(1))
    assert rem == 0
    assert quotient == product_of_linear([F(2), F(-1, 3)])
    _, rem2 = p.deflate(F(5))
    assert rem2 == p(F(5))


def test_deflate_matches_fraction_reference():
    rng = random.Random(59)
    small = lambda: F(rng.randint(-9, 9), rng.randint(1, 9))
    for size in range(10):
        for _ in range(12):
            p = Poly([small() for _ in range(size)])
            root = small()
            assert p.deflate(root) == fraction_deflate(p, root), (p, root)
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
    for x in EVAL_POINTS:
        got = p(x)
        assert type(got) is F and got == fraction_eval(p, x), (p, x)
    assert p("3/4") == fraction_eval(p, F(3, 4))


def test_integer_eval_matches_fraction_reference_on_random_polys():
    """500 seeded polynomials with mixed denominators, one point each."""
    rng = random.Random(73)
    dens = [1, 1, 2, 3, 4, 5, 12, 49, 2**31 - 1, 10**12]

    def scalar():
        return F(rng.randint(-(10**6), 10**6), rng.choice(dens))

    for _ in range(500):
        p = Poly([scalar() if rng.random() < 0.8 else 0 for _ in range(rng.randint(0, 14))])
        x = scalar()
        assert p(x) == fraction_eval(p, x), (p, x)


FORMAT_POLYS = [
    Poly.zero(),
    Poly.one(),
    Poly.constant(-1),
    Poly([0, -1]),
    Poly([1, 1, 1]),
    Poly([-1, -1, -1]),
    Poly([F(-1, 3), 0, F(1, 3)]),
    Poly([F(5, 2), F(-7, 4), F(-10, 11)]),
    Poly([BIG, -BIG, 0, F(BIG, 2**70), F(-1, BIG)]),
    Poly([0, 0, F(-3, 2), 11, -1]),
]


@pytest.mark.parametrize("p", FORMAT_POLYS, ids=range(len(FORMAT_POLYS)))
@pytest.mark.parametrize("var", ["x", "y"])
def test_format_poly_matches_fraction_reference(p, var):
    # the text always names the variable x: a variable name, x included, is
    # no argument
    assert format_poly(p) == fraction_format_poly(p)
    with pytest.raises(TypeError):
        format_poly(p, var)


def test_format_poly_matches_fraction_reference_on_random_polys():
    rng = random.Random(79)

    def scalar():
        return F(rng.choice([-1, 1, rng.randint(-(10**30), 10**30)]), rng.choice([1, 1, 1, 2, 9, 10**20]))

    for _ in range(500):
        p = Poly([scalar() if rng.random() < 0.8 else 0 for _ in range(rng.randint(0, 10))])
        assert format_poly(p) == fraction_format_poly(p), p


# -- the Newton-form kernel against the Poly-level references -----------------


ROOT_LISTS = [
    [],
    [0],
    [F(-3, 7)],
    [1, 1, 1],
    [F(1, 2)] * 5,
    [0, 0, F(2, 3), F(2, 3), -5],
    ["2/3", 4, F(-1, 9), "2/3"],
    [F(2**40 + 1, 3**20), F(-(3**15), 2**33), 7],
]


@pytest.mark.parametrize("roots", ROOT_LISTS, ids=range(len(ROOT_LISTS)))
def test_product_of_linear_matches_poly_product_reference(roots):
    got = product_of_linear(iter(roots))
    assert got == poly_product_of_linear(roots)
    assert got.degree == len(roots) and got.is_monic


def test_product_of_linear_matches_reference_on_random_roots():
    """Repeated roots drawn from a small pool, mixed denominators, no roots."""
    rng = random.Random(83)
    pool = [F(rng.randint(-9, 9), rng.choice([1, 2, 3, 5, 2**20 + 7])) for _ in range(6)]
    for _ in range(300):
        roots = [rng.choice(pool) for _ in range(rng.randint(0, 12))]
        assert product_of_linear(roots) == poly_product_of_linear(roots), roots


AFFINE_CASES = [
    (Poly([]), F(3, 2), F(1, 3)),
    (Poly([]), 0, F(1, 3)),
    (Poly([F(-5, 7)]), F(3, 2), F(1, 3)),
    (Poly([F(-5, 7)]), 0, 0),
    (Poly([1, -2, F(1, 3)]), 0, F(4, 5)),
    (Poly([1, -2, F(1, 3)]), 0, 0),
    (Poly([1, -2, F(1, 3)]), F(-2, 9), 0),
    (Poly([0, 0, 0, 1]), 1, -1),
    (Poly([F(1, 2), 0, F(-3, 4), 0, 2]), F(-1, 3), F(5, 2)),
    (Poly([F(2**50 + 3, 3**30), -1, F(7, 2**45)]), F(3**20, 2**31), F(-(5**18), 7)),
]


@pytest.mark.parametrize("p, scale, shift", AFFINE_CASES, ids=range(len(AFFINE_CASES)))
def test_compose_affine_matches_poly_horner_reference(p, scale, shift):
    assert p.compose_affine(scale, shift) == poly_compose_affine(p, scale, shift)


def test_compose_affine_matches_reference_on_random_polys():
    """Zero scale and zero shift each about one draw in six."""
    rng = random.Random(89)

    def scalar(zero_share):
        if rng.random() < zero_share:
            return F(0)
        return F(rng.randint(-30, 30), rng.choice([1, 1, 2, 3, 4, 9, 25, 2**20 + 7]))

    for _ in range(400):
        p = Poly([scalar(0.1) for _ in range(rng.randint(0, 12))])
        scale, shift = scalar(1 / 6), scalar(1 / 6)
        assert p.compose_affine(scale, shift) == poly_compose_affine(p, scale, shift), (p, scale, shift)


# -- the integer representation against the Fraction reference ----------------

# Zeros, negative denominators (reduced away by Fraction) and large numerators.
scalars = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-9, 9), st.integers(-12, 12).filter(bool)),
    st.builds(F, st.integers(-(2**70), 2**70), st.sampled_from([1, -3, 2**40, -(10**12) - 1])),
)
# Up to two trailing zeros after the drawn coefficients.
coeff_lists = st.builds(
    lambda cs, zeros: cs + [F(0)] * zeros, st.lists(scalars, max_size=6), st.integers(0, 2)
)


def assert_lowest_terms(p: Poly) -> None:
    assert p.den > 0 and gcd(p.den, *p.nums) == 1, (p.nums, p.den)
    assert not p.nums or p.nums[-1] != 0, p.nums


@given(a=coeff_lists, b=coeff_lists, s=scalars, t=scalars)
@settings(max_examples=150, derandomize=True)
def test_integer_poly_matches_fraction_reference(a, b, s, t):
    p, q = Poly(a), Poly(b)
    ref_p, ref_q = FractionPoly(a), FractionPoly(b)
    for got, want in ((p, ref_p), (q, ref_q)):
        assert_lowest_terms(got)
        assert got.coeffs == want.coeffs and all(type(c) is F for c in got.coeffs)
        assert (got.degree, got.is_zero, got.is_monic) == (want.degree, want.is_zero, want.is_monic)
    # Equality and hashing follow the Fraction coefficients.
    assert (p == q) == (ref_p.coeffs == ref_q.coeffs)
    for same in (Poly(a + [0]), Poly._of([-6 * v for v in p.nums], -6 * p.den), p * 1):
        assert same == p and hash(same) == hash(p)
    assert p - p == Poly.zero() and hash(p - p) == hash(Poly.zero())
    if not p.is_zero:
        half = Poly._of(p.nums, 2 * p.den)  # the same numerators when they are not all even
        assert half != p and half == p * F(1, 2)
    results = [
        (p + q, ref_p + ref_q),
        (p - q, ref_p - ref_q),
        (-p, -ref_p),
        (p * q, ref_p * ref_q),
        (p * s, ref_p * s),
        (s * q, s * ref_q),
        (q**2, ref_q**2),
        (p.compose_affine(s, t), ref_p.compose_affine(s, t)),
        (p.deflate(t)[0], ref_p.deflate(t)[0]),
    ]
    for got, want in results:
        assert_lowest_terms(got)
        assert got.coeffs == want.coeffs
    assert p.deflate(t)[1] == ref_p.deflate(t)[1]
    assert p(t) == ref_p(t)
    assert format_poly(p) == ref_p.format() and format_poly(q) == ref_q.format()


@given(
    nums=st.lists(st.integers(-(10**20), 10**20) | st.just(0), max_size=7),
    den=st.integers(-(10**6), 10**6).filter(bool),
)
@settings(max_examples=150, derandomize=True)
def test_of_brings_numerators_over_a_signed_denominator_to_lowest_terms(nums, den):
    p = Poly._of(nums, den)
    assert_lowest_terms(p)
    assert p.coeffs == FractionPoly([F(v, den) for v in nums]).coeffs
    assert p == Poly([F(v, den) for v in nums])


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
