"""The family registry against the engine and against its own closed forms."""

import random
import re
from fractions import Fraction as F

import pytest

from qscheme import catalog
from qscheme.catalog import (
    FAMILIES,
    crosscheck,
    hyper_eval,
    instance_for_label,
    instantiate,
    registry_json,
)
from qscheme.classifier import pattern_of
from qscheme.core import monic_poly, recurrence_coeff0
from qscheme.errors import DivisionByZero, InadmissibleParams
from qscheme.qpolynomial import product_of_linear
from qscheme.symmetry import q_invert
from qscheme.verify import Q_POOL


def test_registry_shape():
    assert len(FAMILIES) == 18
    labels = {spec.key for spec in FAMILIES.values()}
    assert {"1a", "2a", "2b", "3a", "3b", "3c", "3d", "3e"} <= labels
    assert {"4a", "4b", "4c", "4d", "4e", "4f'", "4g", "5a", "5b", "5c'"} <= labels


def test_every_family_crosschecks_exactly():
    for key in FAMILIES:
        report = crosscheck(key, n_max=8)
        assert report.ok
        assert report.checked_values == sum(n + 1 for n in range(9))


def test_monic_normalization_at_zero_degree():
    for key in FAMILIES:
        assert hyper_eval(key, None, None, 0, F(7, 3)) == 1


# -- frozen sequence values ---------------------------------------------------------


def test_top_family_with_trailing_zeros_matches_hermite_data():
    degenerate = instantiate("1a", {"a": F(2), "b": 0, "c": 0, "d": 0})
    hermite = instantiate("4a", {"a": F(2)})
    assert degenerate == hermite
    assert degenerate.node(0) == F(5, 2)
    assert degenerate.lowering(1) == F(1, 2)
    assert all(degenerate.eigenvalue(k) == F(2) ** k - 1 for k in range(6))
    assert monic_poly(degenerate, 1).coeffs == (F(-2), F(1))


def test_big_qjacobi_nodes():
    pv = instantiate("2b")
    assert pv.node(2) == 4


def test_stieltjes_wigert_nodes_vanish():
    pv = instantiate("5c'")
    assert all(pv.node(k) == 0 for k in range(8))


def test_al_salam_carlitz_first_polynomial():
    pv = instantiate("4c", {"a": F(-1)})
    # u_1(0) = -a_0 with a_0 = 1 + a = 0 here
    assert recurrence_coeff0(pv) == 0
    assert monic_poly(pv, 1)(0) == 0
    other = instantiate("4c", {"a": F(-2)})
    assert recurrence_coeff0(other) == -1
    assert hyper_eval("4c", {"a": F(-2)}, None, 1, F(0)) == 1


# -- admissibility ------------------------------------------------------------------


def test_inadmissible_parameters():
    with pytest.raises(InadmissibleParams):
        instantiate("1a", {"a": 0})
    with pytest.raises(InadmissibleParams):
        instantiate("3d", {"b": 0})
    with pytest.raises(InadmissibleParams):
        instantiate("4c", {"a": 0})
    with pytest.raises(InadmissibleParams):
        instantiate("3a", {"zz": 1})
    with pytest.raises(InadmissibleParams):
        instantiate("3a", None, q=1)


def test_degenerate_lowering_rejected():
    # little q-Laguerre with a = 0 has an identically zero lowering row
    with pytest.raises(InadmissibleParams):
        instantiate("4d", {"a": 0})


def test_kn_zero_raises():
    # q-Racah-style truncation makes k_n vanish beyond the cutoff
    q = F(1, 2)
    params = {"a": F(2), "b": q**-3 / 2, "c": F(1, 3), "d": F(1, 5)}
    with pytest.raises(DivisionByZero):
        hyper_eval("1a", params, q, 5, F(2))


# -- structural identities ------------------------------------------------------------


def test_paired_factor_identity_randomized():
    """The z-series step factors multiply to q^k (az, a/z; q)_k, which as a
    polynomial in x equals q^k prod a q^j (node(j) - x)."""
    rng = random.Random(31)
    for _ in range(12):
        a = F(rng.randint(1, 6), rng.randint(1, 4))
        q = F(rng.randint(1, 5), rng.randint(2, 6))
        if q in (0, 1) or a == 0:
            continue
        x = F(rng.randint(-8, 8), rng.randint(1, 5))
        step = catalog._z_step(q, x, a)
        for k in range(9):
            lhs = F(1)
            for j in range(k):
                lhs *= step(q**j)
            rhs = q**k
            for j in range(k):
                node_j = a * q**j + q**-j / a
                rhs *= a * q**j * (node_j - x)
            assert lhs == rhs


def test_degenerate_families_are_newton_type():
    q = F(1, 2)
    # x^n (b/x; q)_n = prod (x - b q^j)
    pv = instantiate("4b", {"b": F(1, 3)})
    for n in range(7):
        assert monic_poly(pv, n) == product_of_linear(F(1, 3) * q**j for j in range(n))
    # x^n
    pv = instantiate("5a")
    for n in range(7):
        assert monic_poly(pv, n).coeffs == tuple([0] * n + [1])
    # x^n (1/x; q)_n = prod (x - q^j)
    pv = instantiate("5b")
    for n in range(7):
        assert monic_poly(pv, n) == product_of_linear(q**j for j in range(n))


@pytest.mark.parametrize("pair", [("3b", "3c"), ("3d", "3e"), ("4d", "4e"), ("4f'", "4g")])
def test_same_family_two_newton_bases(pair):
    """One family expanded over two node ladders gives identical polynomials."""
    first, second = pair
    pv1 = instantiate(first)
    pv2 = instantiate(second)
    for n in range(9):
        assert monic_poly(pv1, n) == monic_poly(pv2, n)


def test_little_q_laguerre_base_inversion_identification():
    """The q -> 1/q image keeps the polynomials and mirrors the diagram."""
    pv = instantiate("4d")
    flipped = q_invert(pv)
    for n in range(7):
        assert monic_poly(flipped, n) == monic_poly(pv, n)
    assert pattern_of(flipped) == pattern_of(pv).mirror()


def test_instance_for_label_mirrors():
    for label in ("4f", "5c", "2b'", "3d'", "4g'"):
        pv = instance_for_label(label)
        from qscheme.classifier import LABELS

        assert pattern_of(pv) == LABELS[label]
    with pytest.raises(KeyError):
        instance_for_label("9z")


def test_registry_json_deterministic_and_ordered():
    from qscheme.classifier import label_sort_key

    rows = registry_json()
    assert rows == registry_json()
    assert rows[0]["node_label"] == "1a"
    keys = [(label_sort_key(r["node_label"]), r["name"]) for r in rows]
    assert keys == sorted(keys)
    assert all(
        set(r) >= {"key", "name", "kls_section", "node_label", "pattern", "defaults"}
        for r in rows
    )


def _solve_linear(rows: list[list[F]], rhs: list[F]) -> list[F]:
    """Reference: exact Gaussian elimination (systems here are 3x3 and 5x5)."""
    n = len(rows)
    m = [list(row) + [rhs[i]] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[pivot] = m[pivot], m[col]
        head = m[col][col]
        m[col] = [v / head for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[col])]
    return [m[i][n] for i in range(n)]


@pytest.mark.parametrize("m", [1, 2])
def test_laurent_fit_is_exact(m):
    """Random c_{-m..m}, with zero entries at either end, both ends and all
    of them, come back exactly from their values at q**k, k = 0..2m."""
    rng = random.Random(47 + m)
    size = 2 * m + 1
    for q in Q_POOL:
        for trial in range(12):
            coeffs = [F(rng.randint(-9, 9) or 1, rng.randint(1, 7)) for _ in range(size)]
            if trial % 4 in (1, 3):
                coeffs[0] = F(0)
            if trial % 4 in (2, 3):
                coeffs[-1] = F(0)
            if trial == 11:
                coeffs = [F(0)] * size
            values = [
                sum(c * q ** (e * k) for e, c in zip(range(-m, m + 1), coeffs))
                for k in range(size)
            ]
            assert catalog._laurent_fit(values, q) == coeffs, (q, coeffs)


LAURENT_POWERS = ((0, 1, -1), (0, 1, -1, 2, -2))


@pytest.mark.parametrize("q", [catalog.DEFAULT_Q, F(-2, 3)])
def test_instantiate_matches_direct_elimination(q):
    # Reference: a Gaussian elimination per Laurent system.
    def direct(values, powers):
        rows = [[q ** (e * k) for e in powers] for k in range(len(values))]
        return tuple(_solve_linear(rows, values))

    for key, spec in FAMILIES.items():
        p = catalog.coerce_params(spec, None)
        pv = instantiate(key, None, q)
        assert pv.b == direct([spec.node_fn(p, q, k) for k in range(3)], LAURENT_POWERS[0])
        assert pv.a == direct([spec.eigen_fn(p, q, k) for k in range(3)], LAURENT_POWERS[0])
        assert pv.d == direct([spec.lowering_fn(p, q, k) for k in range(5)], LAURENT_POWERS[1])


@pytest.mark.parametrize("key", list(FAMILIES))
def test_hyper_eval_refuses_negative_degrees(key):
    # Refused before k_n or the series is built, whose errors would not name n.
    with pytest.raises(ValueError, match="a terminating series needs n >= 0, got n = -1"):
        hyper_eval(key, None, None, -1, 2)


@pytest.mark.parametrize("key", list(FAMILIES))
def test_hyper_eval_refuses_the_bases_instantiate_refuses(key):
    # At q = +/-1 the series used to return numbers; at q = 0 k_n divided by zero.
    for q in (0, 1, -1, "1", F(-1)):
        message = re.escape(f"base q = {F(q)} must avoid 0 and +/-1")
        with pytest.raises(InadmissibleParams, match=message):
            instantiate(key, None, q)
        with pytest.raises(InadmissibleParams, match=message):
            hyper_eval(key, None, q, 3, 2)
