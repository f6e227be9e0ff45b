"""q-shifted factorials and terminating series against brute-force oracles."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qscheme import catalog
from qscheme.errors import DivisionByZero
from qscheme.qseries import qpoch, terminating_sum
from reference import (
    fraction_terminating_sum,
    oracle_qhyper,
    oracle_qpoch,
    outcome,
    per_term_inverse_arg_series,
    per_term_z_series,
    qhyper,
    terminating_sum_of_fractions,
)

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
    # one lower, one upper: correction exponent +1 (used by Stieltjes-Wigert)
    q = F(1, 2)
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


def test_shared_term_loop_matches_per_term_reference():
    rng = random.Random(4242)
    small = lambda: F(rng.randint(-5, 5), rng.randint(1, 4))
    seen_corrections = set()
    early = 0
    for _ in range(150):
        q = F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([2, 3, 5]))
        n = rng.randint(0, 7)
        upper_extra = tuple(small() for _ in range(rng.randint(0, 2)))
        lower = tuple(small() for _ in range(rng.randint(0, 2)))
        if rng.random() < 0.3 and n >= 2:
            # an upper q^{-m} ends the series at term m, so a lower q^{-m}
            # whose zero would come at term m + 1 stays legal
            m = rng.randint(0, n - 2)
            upper_extra += (q ** (-m),)
            lower += (q ** (-m),)
            early += 1
        correction = rng.choice([-2, -1, 0, 1])
        x, node_scale, weight, anchor, z = (small() for _ in range(5))

        upper = (q ** (-n),) + upper_extra
        seen_corrections.add(len(lower) - len(upper) + 1)
        # with node_scale = 0 and x = 1 the inverse-argument series is the
        # power-basis series in z = weight
        assert outcome(qhyper, upper, lower, q, z, n) == outcome(
            per_term_inverse_arg_series,
            n, q, F(1), F(0), z, upper_extra, lower, len(lower) - len(upper) + 1,
        )
        # the catalog's 1/x-parameter rows: the step factor
        # sigma (x - node_scale q^j) (-q^j)^c with sigma = (-1)^c weight
        sigma = -weight if correction % 2 else weight
        inverse_arg = catalog._series(
            1, upper_extra, lower, q, n, correction, (0, -sigma * node_scale), (sigma, 0)
        )
        assert outcome(inverse_arg, x) == outcome(
            per_term_inverse_arg_series, n, q, x, node_scale, weight, upper_extra, lower, correction
        )
        # the catalog's z rows: q times the paired factor
        # (1 - anchor q^j z)(1 - anchor q^j / z) = 1 - anchor q^j x + anchor^2 q^{2j}
        z_series = catalog._series(
            1, upper_extra, lower, q, n, 0, (q, 0, q * anchor * anchor), (0, -q * anchor, 0)
        )
        assert outcome(z_series, x) == outcome(per_term_z_series, n, q, x, anchor, upper_extra, lower)
    assert {-2, -1, 0, 1} <= seen_corrections and early > 0


def test_integer_term_loop_matches_fraction_reference():
    """Value, or error and message, on seeded series with early stops,
    vanishing denominators, Laurent steps from q**-2 up with interior zero
    coefficients or a zero at q**j = root, and negative, +/-1 and int bases;
    a prefactor passed as scale multiplies the value."""
    rng = random.Random(6161)
    small = lambda: F(rng.randint(-5, 5), rng.randint(1, 4))
    seen = dict.fromkeys(
        ("early", "raised", "zero_step", "interior_zero", "int_q", "negative_q", "unit_q"), 0
    )
    lows = set()
    for _ in range(600):
        if rng.random() < 0.3:
            q = rng.choice([-3, -2, -1, 1, 2, 3])  # an int base, +/-1 included
            seen["int_q"] += 1
            seen["unit_q"] += q in (-1, 1)
        else:
            q = F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([2, 3, 5]))
        seen["negative_q"] += q < 0
        n = rng.randint(0, 8)
        upper = [F(q) ** -n] + [small() for _ in range(rng.randint(0, 2))]
        lower = [small() for _ in range(rng.randint(0, 2))]
        if rng.random() < 0.3 and n >= 1:
            m = rng.randint(0, n - 1)
            upper.append(F(q) ** -m)  # ends the series at term m + 1
            seen["early"] += 1
        if rng.random() < 0.3 and n >= 1:
            lower.append(F(q) ** -rng.randint(0, n - 1))  # a denominator zero
        low = rng.randint(-2, 1)
        lows.add(low)
        if rng.random() < 0.3:
            root, z = F(q) ** rng.randint(0, max(n - 1, 0)), small() or F(1)
            coeffs = (-z * root, z)  # z * (q**j - root) * q**(j*low): zero at q**j = root
            seen["zero_step"] += 1
        else:
            coeffs = [small() for _ in range(rng.randint(1, 3))]
            if len(coeffs) == 3 and rng.random() < 0.5:
                coeffs[1] = F(0)
                seen["interior_zero"] += 1
        step = (tuple(coeffs), low)
        rng.shuffle(upper)
        want = outcome(fraction_terminating_sum, upper, lower, q, n, step)
        got = outcome(terminating_sum_of_fractions, upper, lower, q, n, step)
        assert got == want, (upper, lower, q, n, step)
        assert type(got) is F or got[0] is DivisionByZero
        seen["raised"] += type(want) is tuple
        # the prefactor as term 0: any sign, and 0, which still sums (and raises)
        scale = rng.choice([(3, 7), (-5, 2), (4, -9), (0, 1)])
        scaled = outcome(terminating_sum_of_fractions, upper, lower, q, n, step, scale)
        assert scaled == (want if type(want) is tuple else want * F(*scale)), (upper, lower, q, n, step, scale)
    assert min(seen.values()) > 20 and lows == {-2, -1, 0, 1}, (seen, lows)
