"""Laurent polynomials in eps, and the limit certificate's gauged rows.

Each law is checked by evaluating both sides at several rational eps, an
evaluation the module itself does not need, read off the stored terms.
"""

import random
from fractions import Fraction as F

import pytest

from qscheme import limits
from qscheme.laurent import Laurent
from qscheme.symmetry import GaugeAction, apply_gauge, gauge_rows

EPSILONS = (F(1, 3), F(-2), F(5, 7), F(1, 2**20))
DIRECT = ("2a->3c", "3a->4c", "3a->4b", "2b->3d", "3e->4g", "4a->5a", "4e->5b")
CASE_BY_ID = {case.id: case for case in limits.CASES}


def at(p, eps: F) -> F:
    """p at eps, for a Laurent p or a rational constant."""
    if not isinstance(p, Laurent):
        return F(p)
    return sum((c * eps**e for e, c in p._terms.items()), F(0))


def draw(rng: random.Random) -> Laurent:
    p = Laurent()
    for _ in range(rng.randint(0, 4)):
        p = p + Laurent(F(rng.randint(-9, 9), rng.randint(1, 5)), rng.randint(-3, 3))
    return p


def test_ring_laws_on_seeded_draws():
    rng = random.Random(20251019)
    for _ in range(200):
        p, r, s = draw(rng), draw(rng), draw(rng)
        c = F(rng.randint(-5, 5), rng.randint(1, 4))
        assert p + r == r + p and p * r == r * p
        assert (p + r) + s == p + (r + s) and (p * r) * s == p * (r * s)
        assert p * (r + s) == p * r + p * s
        assert p - p == 0 and p + 0 == p and p * 1 == p and p * 0 == 0
        for eps in EPSILONS:
            assert at(p + r, eps) == at(p, eps) + at(r, eps)
            assert at(p - r, eps) == at(p, eps) - at(r, eps)
            assert at(p * r, eps) == at(p, eps) * at(r, eps)
            assert at(-p, eps) == -at(p, eps)
            # reflected forms with int and Fraction constants
            assert at(c + p, eps) == c + at(p, eps) and at(c - p, eps) == c - at(p, eps)
            assert at(3 * p, eps) == 3 * at(p, eps) and at(p - 2, eps) == at(p, eps) - 2


def test_division_by_a_monomial():
    rng = random.Random(7)
    for _ in range(100):
        p = draw(rng)
        m = Laurent(F(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4)), rng.randint(-3, 3))
        for eps in EPSILONS:
            assert at(p / m, eps) == at(p, eps) / at(m, eps)
            assert at(2 / m, eps) == 2 / at(m, eps)
        assert (p / m) * m == p and p / F(2, 3) == p * F(3, 2)


@pytest.mark.parametrize("divisor", [Laurent(), Laurent(1) + Laurent(1, 1), 0, F(0)])
def test_division_by_zero_or_a_non_monomial_raises(divisor):
    with pytest.raises(ZeroDivisionError):
        Laurent(1, 2) / divisor
    with pytest.raises(ZeroDivisionError):
        1 / Laurent(divisor)


def test_valuation_coefficient_and_truth():
    p = Laurent(F(2, 3), -2) + Laurent(5) - Laurent(1, 4)
    assert p.valuation() == -2
    assert (p.coefficient(-2), p.coefficient(0), p.coefficient(4), p.coefficient(1)) == (F(2, 3), 5, -1, 0)
    assert (p * Laurent(1, 3)).valuation() == 1
    assert not Laurent() and not (p - p) and not Laurent(0, 5) and p and Laurent(1, -1)
    assert Laurent(3) == 3 == Laurent(F(3)) and Laurent(1, 1) != 1 and Laurent() == 0
    assert Laurent(p) == p and Laurent(p, 1) == p * Laurent(1, 1)
    with pytest.raises(ValueError):
        Laurent().valuation()


def test_a_non_rational_does_not_mix_in():
    for bad in (0.5, "1/2", None):
        with pytest.raises(TypeError):
            Laurent(bad)
        with pytest.raises(TypeError):
            Laurent(1, 1) + bad
    assert Laurent(1) != 1.0 and Laurent(1) != "1"


@pytest.mark.parametrize("case_id", DIRECT)
def test_certificate_coefficients_are_the_engine_vectors(case_id, monkeypatch):
    """The certificate's gauged Laurent rows at eps = eps_at(t) are the
    vector the engine builds at that eps, under apply_gauge with the
    certificate's (tau, mu, 0, rho) at eps: the certificate reads the same
    formulas as verify's source and applies the same gauge law."""
    case = CASE_BY_ID[case_id]
    calls = []
    monkeypatch.setattr(limits, "gauge_rows", lambda *args: calls.append(args) or gauge_rows(*args))
    assert limits._failure(case, case.eps_at(0)) is None
    ((a, b, d, tau, mu, sigma, rho),) = calls
    rows = gauge_rows(a, b, d, tau, mu, sigma, rho)
    assert sigma == 0
    for t in (0, 1, 7, 12):
        eps = case.eps_at(t)
        pv = apply_gauge(case.source_instance(eps), GaugeAction(at(tau, eps), at(mu, eps), 0, at(rho, eps)))
        assert [at(c, eps) for row in rows for c in row] == [*pv.a, *pv.b, *pv.d]
