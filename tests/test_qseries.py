"""q-shifted factorials and terminating series against brute-force oracles."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qscheme import catalog
from qscheme.errors import DivisionByZero
from qscheme.qseries import qpoch, terminating_sum
from reference import oracle_qhyper, oracle_qpoch, qhyper

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=5
)


def test_qpoch_empty_product():
    assert qpoch(F(7, 3), F(1, 2), 0) == 1


def test_qpoch_refuses_a_negative_length():
    with pytest.raises(ValueError):
        qpoch(F(7, 3), F(1, 2), -1)


def test_qpoch_direct_value():
    # (1 - 1/2)(1 - 1/4) = 3/8
    assert qpoch(F(1, 2), F(1, 2), 2) == F(3, 8)
    assert oracle_qpoch(F(1, 2), F(1, 2), 2) == F(3, 8)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_qpoch_vanishes_at_one(k):
    assert qpoch(F(1), F(1, 3), k) == 0


def test_qpoch_matches_oracle_randomized():
    rng = random.Random(2025)
    for _ in range(60):
        b = F(rng.randint(-6, 6), rng.randint(1, 5))
        q = F(rng.randint(-6, 6), rng.randint(1, 5))
        k = rng.randint(0, 9)
        assert qpoch(b, q, k) == oracle_qpoch(b, q, k)


def test_qpoch_matches_oracle_for_int_str_and_degenerate_arguments():
    rng = random.Random(2026)
    for _ in range(200):
        b = F(rng.randint(-6, 6), rng.choice([1, 1, 2, 5]))
        q = F(rng.choice([-3, -1, 0, 1, 2]), rng.choice([1, 1, 3]))
        k = rng.randint(0, 9)
        want = oracle_qpoch(b, q, k)
        forms = [(b, q), (str(b), str(q))]
        if b.denominator == q.denominator == 1:
            forms.append((int(b), int(q)))
        for args in forms:
            got = qpoch(*args, k)
            assert type(got) is F and got == want, (args, k)


@given(
    b=rationals,
    q=rationals,
    j=st.integers(min_value=0, max_value=12),
    k=st.integers(min_value=0, max_value=12),
)
@settings(max_examples=80, derandomize=True)
def test_qpoch_splitting(b, q, j, k):
    # (b;q)_{j+k} = (b;q)_j * (q^j b; q)_k
    assert qpoch(b, q, j + k) == qpoch(b, q, j) * qpoch(q**j * b, q, k)


def test_single_term_series_is_one():
    q = F(1, 2)
    assert qhyper((F(1),), (F(5),), q, F(9), 0) == 1


def test_two_over_one_power_identity_at_three():
    # upper (1/q, x), lower (0), argument q collapses to x at n = 1
    q = F(1, 2)
    assert qhyper((q**-1, F(3)), (F(0),), q, q, 1) == 3


def test_one_over_zero_three_term_sum():
    # n = 2, q = 1/2, argument 1: terms are 1 - 6 + 8
    q = F(1, 2)
    assert qhyper((q**-2,), (), q, F(1), 2) == 3
    assert oracle_qhyper((q**-2,), (), q, F(1), 2) == 3


def test_power_identity_up_to_eight():
    q = F(1, 2)
    for n in range(9):
        for x in (F(3), F(-2), F(1, 5)):
            assert qhyper((q**-n, x), (F(0),), q, q, n) == x**n


def test_matches_oracle_with_correction_exponent():
    # at q = -2/3, unlike 1/2, the step's powers of q**k have numerators other than 1
    for q in (F(1, 2), F(-2, 3)):
        # one lower, one upper: correction exponent +1 (used by Stieltjes-Wigert)
        for n in range(7):
            for z in (F(3), F(-1, 2)):
                got = qhyper((q**-n,), (F(0),), q, z, n)
                assert got == oracle_qhyper((q**-n,), (F(0),), q, z, n)
        # three upper, none lower: correction exponent -2 (q-Bessel inverse form)
        for n in range(6):
            got = qhyper((q**-n, F(3), F(1, 7)), (), q, F(2), n)
            assert got == oracle_qhyper((q**-n, F(3), F(1, 7)), (), q, F(2), n)


def test_lower_parameter_collision_raises():
    q = F(1, 2)
    with pytest.raises(DivisionByZero):
        qhyper((q**-3, F(3)), (q**-1,), q, q, 3)


@pytest.mark.parametrize("n", [-1, -3])
def test_negative_bound_is_refused(n):
    # every catalog series runs through terminating_sum
    q = F(1, 2)
    with pytest.raises(ValueError, match=f"a terminating series needs n >= 0, got n = {n}"):
        catalog.FAMILIES["3e"].series({"a": F(3), "b": F(1, 5)}, q, n)(F(3))
    with pytest.raises(ValueError, match="n >= 0"):
        terminating_sum((), (), q, n, ((1,), 1, 1))


def test_early_termination_makes_bad_lower_legal():
    # the extra upper q^{-1} kills the numerator before the lower q^{-2}
    # factor reaches its zero at k = 3
    q = F(1, 2)
    value = qhyper((q**-5, q**-1), (q**-2,), q, q, 5)
    k0 = F(1)
    k1 = oracle_qpoch(q**-5, q, 1) * oracle_qpoch(q**-1, q, 1) / (
        oracle_qpoch(q, q, 1) * oracle_qpoch(q**-2, q, 1)
    ) * q
    assert value == k0 + k1


def test_upper_zero_decides_lower_collision():
    q = F(1, 2)
    # the lower q^{-1} zeroes the denominator at term 2 and nothing ends the series first
    with pytest.raises(DivisionByZero):
        qhyper((q**-3, F(3)), (q**-1,), q, q, 3)
    # an upper q^{-1} zeroes the numerator at term 2, at or before the lower zero
    for lower in ((q**-2,), (q**-1,)):
        value = qhyper((q**-3, q**-1), lower, q, q, 3)
        assert value == oracle_qhyper((q**-3, q**-1), lower, q, q, 3)

