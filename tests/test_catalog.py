"""The family registry against the engine and against its own closed forms."""

import copy
import gc
import os
import random
import re
import subprocess
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F
from pathlib import Path

import pytest

from qscheme import catalog, core, symmetry
from qscheme.catalog import (
    FAMILIES,
    closed_form,
    crosscheck,
    hyper_eval,
    instance_for_label,
    instantiate,
    registry_json,
)
from qscheme.classifier import build_graph, pattern_of
from qscheme.core import monic_poly, recurrence_coeffs
from qscheme.errors import DivisionByZero, InadmissibleParams, Mismatch
from qscheme.qpolynomial import product_of_linear
from qscheme.symmetry import q_invert
from qscheme.verify import Q_POOL

from reference import fitted_instantiate, fraction_series_row, outcome


def test_registry_shape():
    assert len(FAMILIES) == 18
    labels = {spec.key for spec in FAMILIES.values()}
    assert {"1a", "2a", "2b", "3a", "3b", "3c", "3d", "3e"} <= labels
    assert {"4a", "4b", "4c", "4d", "4e", "4f'", "4g", "5a", "5b", "5c'"} <= labels


def test_every_family_crosschecks_exactly():
    for key in FAMILIES:
        assert crosscheck(key, n_max=8) == sum(n + 1 for n in range(9))


def test_crosscheck_compares_each_degree_at_enough_distinct_points():
    # a degree-n identity needs n + 1 points; SAMPLE_XS alone stops at 13
    xs = catalog._sample_xs(25)
    assert xs[:13] == catalog.SAMPLE_XS and catalog._sample_xs(9) == catalog.SAMPLE_XS[:9]
    assert len(set(xs)) == 25 and 0 not in xs
    for key in FAMILIES:
        assert crosscheck(key, n_max=14) == sum(n + 1 for n in range(15)) == 120


@pytest.mark.parametrize("key", list(FAMILIES))
def test_crosscheck_resolves_once_and_builds_each_k_n_once(monkeypatch, key):
    spec = FAMILIES[key]
    kn_calls, coerce_calls = [], []
    real_coerce = catalog.coerce_params

    def kn_fn(p, q, n):
        kn_calls.append(n)
        return spec.kn_fn(p, q, n)

    def coerce_params(*args):
        coerce_calls.append(args)
        return real_coerce(*args)

    monkeypatch.setitem(FAMILIES, key, spec._replace(kn_fn=kn_fn))
    monkeypatch.setattr(catalog, "coerce_params", coerce_params)
    assert crosscheck(key, n_max=8) == 45
    assert kn_calls == list(range(9))
    assert len(coerce_calls) == 2  # crosscheck's own and instantiate's


@pytest.mark.parametrize("key", ["1a", "3b", "5c'"])
def test_crosscheck_and_hyper_eval_report_a_vanishing_k_n_alike(monkeypatch, key):
    spec = FAMILIES[key]
    kn_fn = lambda p, q, n: 0 if n == 3 else spec.kn_fn(p, q, n)
    monkeypatch.setitem(FAMILIES, key, spec._replace(kn_fn=kn_fn))
    message = re.escape(f"{key}: k_3 vanishes for these parameters")
    with pytest.raises(DivisionByZero, match=message):
        crosscheck(key, n_max=8)
    with pytest.raises(DivisionByZero, match=message):
        hyper_eval(key, None, None, 3, 2)
    assert hyper_eval(key, None, None, 2, 2) == monic_poly(instantiate(key), 2)(2)


def test_crosscheck_sets_up_each_closed_form_once_per_degree(monkeypatch):
    for key, spec in FAMILIES.items():
        setups = []

        def series(p, q, n, spec=spec):
            setups.append(n)
            return spec.series(p, q, n)

        monkeypatch.setitem(FAMILIES, key, spec._replace(series=series))
        assert crosscheck(key, n_max=8) == 45
        assert setups == list(range(9)), key


@pytest.mark.parametrize(
    "fake",
    [lambda pv, n: monic_poly(pv, n) * 2, lambda pv, n: monic_poly(pv, n + 1)],
    ids=["not-monic", "wrong-degree"],
)
def test_crosscheck_refuses_an_engine_polynomial_that_is_not_monic_of_degree_n(monkeypatch, fake):
    monkeypatch.setattr(catalog, "monic_poly", fake)
    with pytest.raises(Mismatch) as caught:
        crosscheck("3a", n_max=2)
    assert str(caught.value) == "3a: engine polynomial at n=0 is not monic"


def test_crosscheck_refuses_a_value_that_is_not_the_closed_form(monkeypatch):
    real = catalog._monic_series

    def off_at_degree_two(spec, p, q, n):
        series = real(spec, p, q, n)
        return lambda x: series(x) + (n == 2)

    monkeypatch.setattr(catalog, "_monic_series", off_at_degree_two)
    x = catalog._sample_xs(3)[0]
    engine = monic_poly(instantiate("3a"), 2)(x)
    with pytest.raises(Mismatch) as caught:
        crosscheck("3a", n_max=4)
    assert str(caught.value) == f"3a: n=2, x={x}: engine {engine} != closed form {engine + 1}"


def test_crosscheck_refuses_a_pattern_off_the_diagram(monkeypatch):
    monkeypatch.setattr(catalog, "pattern_of", lambda pv: FAMILIES["1a"].pattern)
    with pytest.raises(Mismatch) as caught:
        crosscheck("3a", n_max=1)
    assert str(caught.value) == (
        f"3a: default-parameter pattern {FAMILIES['1a'].pattern.as_string()} "
        f"is not the diagram {FAMILIES['3a'].pattern.as_string()}"
    )


@pytest.mark.parametrize(
    "key, params, q, n, message",
    [
        ("2b", {"a": F(1, 4)}, F(2), 2, "2b: k_2 divides by zero at a=1/4 b=1/4 c=-1/2 q=2"),
        ("3b", {"a": F(3)}, F(1, 3), 1, "3b: k_1 divides by zero at a=3 b=-1/2 q=1/3"),
        ("3c", {"b": F(-2)}, F(-1, 2), 1, "3c: k_1 divides by zero at a=1/3 b=-2 q=-1/2"),
        ("3d", {"a": F(1, 4)}, F(2), 2, "3d: k_2 divides by zero at a=1/4 b=1/3 q=2"),
        ("3e", {"a": F(1, 4)}, F(2), 2, "3e: k_2 divides by zero at a=1/4 b=1/3 q=2"),
        ("4d", {"a": F(3)}, F(1, 3), 1, "4d: k_1 divides by zero at a=3 q=1/3"),
        ("4e", {"a": F(3)}, F(1, 3), 1, "4e: k_1 divides by zero at a=3 q=1/3"),
    ],
)
def test_a_division_by_zero_in_k_n_is_refused_by_name(key, params, q, n, message):
    """Where a q-Pochhammer in k_n vanishes at parameters instantiate
    accepts, hyper_eval and closed_form raise one DivisionByZero naming the
    family, degree, parameters and q, and the lower degrees still evaluate."""
    for degree in range(n):
        assert type(hyper_eval(key, params, q, degree, F(2))) is F
    for call in (lambda: hyper_eval(key, params, q, n, F(2)), lambda: closed_form(key, params, q, n)):
        with pytest.raises(DivisionByZero) as caught:
            call()
        assert str(caught.value) == message
        assert type(caught.value.__cause__) is ZeroDivisionError


def test_the_inverse_series_refuses_a_division_by_zero_by_name():
    """At a = -3/2, q = -2/3, (aq; q)_n = (1; q)_n vanishes for every n >= 1:
    little_qjacobi_value_inverse_rep refuses to set up its series with one
    DivisionByZero in _monic_series' style, and degree 0 still evaluates."""
    p = {"a": F(-3, 2), "b": F(2)}
    assert catalog.little_qjacobi_value_inverse_rep(p, F(-2, 3), 0)(F(2)) == 1
    for n in range(1, 9):
        with pytest.raises(DivisionByZero) as caught:
            catalog.little_qjacobi_value_inverse_rep(p, F(-2, 3), n)
        assert str(caught.value) == f"3e: the degree-{n} 1/x series divides by zero at a=-3/2 b=2 q=-2/3"
        assert type(caught.value.__cause__) is ZeroDivisionError


def test_a_raw_series_factory_refuses_a_forbidden_zero_by_name():
    """FamilySpec.series, reached without coerce_params, refuses a parameter
    that `nonzero` forbids at 0 with the DivisionByZero that _monic_series
    raises: it names the entry asked for, 2a and not the 1a it specialises."""
    refused = []
    for key, spec in FAMILIES.items():
        for name in spec.nonzero:
            with pytest.raises(DivisionByZero) as caught:
                spec.series({**spec.defaults, name: F(0)}, F(1, 2), 1)
            assert str(caught.value).startswith(f"{key}: the degree-1 series divides by zero at ")
            assert type(caught.value.__cause__) is ZeroDivisionError
            refused.append(key)
    assert refused == ["1a", "2a", "3a", "3d", "4a", "4c", "4d", "4f'"]
    with pytest.raises(DivisionByZero, match="^2a: the degree-1 series divides by zero at a=0 b=1/3 c=1/5 q=1/2$"):
        FAMILIES["2a"].series({"a": F(0), "b": F(1, 3), "c": F(1, 5)}, F(1, 2), 1)


# The (family, q) pairs of Q_POOL at which some degree up to 24 has no
# closed form at the family's defaults (k_n or the series' set-up divides by
# zero); the eval-cap benchmark leaves them out for that reason.
ORACLE_UNDEFINED = frozenset(
    [("1a", F(3, 2)), ("1a", F(5, 2)), ("2a", F(3, 2)), ("2a", F(5, 2))]
    + [(key, F(3)) for key in ("2b", "3b", "3c", "3d", "4b", "4d", "4e")]
)
ROW_DEGREES = (0, 1, 2, 3, 5, 8, 12)
ROW_XS = (F(0), F(-2), F(1, 2), F(-4, 3), F(5))


def test_every_series_row_matches_its_fraction_evaluation(monkeypatch):
    """Each _series row, set up on integers, against the same row evaluated
    on Fractions: the row alone and as closed_form scales it by 1/k_n, for
    the 18 families at every Q_POOL base outside ORACLE_UNDEFINED, at the
    degrees ROW_DEGREES and the points ROW_XS: the same value, or the same
    refusal.  Outside ORACLE_UNDEFINED every set-up succeeds."""
    rows = []
    real = catalog._series
    monkeypatch.setattr(catalog, "_series", lambda *args: rows.append(args) or real(*args))
    seen = {"value": 0, "zero_parameter": 0}
    for key, spec in FAMILIES.items():
        p = catalog.coerce_params(spec, None)
        for q in Q_POOL:
            if (key, q) in ORACLE_UNDEFINED:
                continue
            for n in ROW_DEGREES:
                closed = closed_form(key, None, q, n)
                args = rows.pop()
                row, kn = real(*args), spec.kn_fn(p, q, n)
                seen["zero_parameter"] += 0 in args[1] + args[2]
                for x in ROW_XS:
                    want = outcome(fraction_series_row, *args, x)
                    assert outcome(row, x) == want, (key, q, n, x)
                    assert outcome(closed, x) == (want if type(want) is tuple else want / kn), (key, q, n, x)
                    seen["value"] += type(want) is not tuple
    assert not rows
    assert seen["value"] > 5000 and seen["zero_parameter"] > 500, seen


def test_series_rows_refuse_a_negative_degree_and_an_early_lower_zero():
    """A row refuses n < 0 when evaluated, and a lower factor that vanishes
    at a term before any upper factor has ended the series; an upper factor
    that vanishes at the same term ends it first, and the row has a value."""
    q = F(1, 2)
    for n in (-1, -3):
        with pytest.raises(ValueError, match=f"a terminating series needs n >= 0, got n = {n}"):
            catalog._series(1, (), (), q, n, 0, (1,), (0,))(F(2))
    # (q^-1 q^j; q) vanishes at term 2 and (q^-3; q) only at term 4
    early_lower = catalog._series(F(3), (), (q**-1,), q, 3, 0, (q, 0), (0, -q))
    for x in ROW_XS:
        with pytest.raises(DivisionByZero, match="denominator vanished at term 2 "):
            early_lower(x)
    ended = catalog._series(F(3), (q**-1,), (q**-1,), q, 3, 0, (q, 0), (0, -q))
    for x in ROW_XS:
        assert ended(x) == fraction_series_row(F(3), (q**-1,), (q**-1,), q, 3, 0, (q, 0), (0, -q), x)


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
    assert recurrence_coeffs(pv, 0) == (0, None)
    assert monic_poly(pv, 1)(0) == 0
    other = instantiate("4c", {"a": F(-2)})
    assert recurrence_coeffs(other, 0) == (-1, None)
    assert hyper_eval("4c", {"a": F(-2)}, None, 1, F(0)) == 1


# -- admissibility ------------------------------------------------------------------


def test_inadmissible_parameters():
    nonzero = {key: spec.nonzero for key, spec in FAMILIES.items() if spec.nonzero}
    assert nonzero == {
        "1a": ("a",), "2a": ("a",), "3a": ("a",), "3d": ("b",),
        "4a": ("a",), "4c": ("a",), "4d": ("a",), "4f'": ("a",),
    }
    for key, names in nonzero.items():
        for name in names:
            with pytest.raises(InadmissibleParams) as info:
                instantiate(key, {name: 0})
            assert str(info.value) == f"{key}: parameter {name} violates {name} != 0"
    with pytest.raises(InadmissibleParams):
        instantiate("3a", {"zz": 1})
    with pytest.raises(InadmissibleParams):
        instantiate("3a", None, q=1)


def test_a_programming_error_in_the_coefficients_is_not_read_as_bad_parameters(monkeypatch):
    """instantiate turns a broken constraint into InadmissibleParams and
    nothing else: a coefficient that is a float is a TypeError."""
    spec = FAMILIES["3a"]

    def coefficients(p, q):
        a, b, d = spec.coefficients(p, q)
        return (1.0, *a[1:]), b, d

    monkeypatch.setitem(FAMILIES, "3a", spec._replace(coefficients=coefficients))
    with pytest.raises(TypeError, match="cannot interpret 1.0 as an exact rational"):
        instantiate("3a", {"a": F(7, 19), "b": F(5, 23)})


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


def test_big_qlaguerre_row_refuses_b_zero_by_name():
    # 3b's row divides by b; 3c shares the parameters and allows b = 0, so
    # `list --json` keeps "any rational" for b and the refusal names it here.
    with pytest.raises(InadmissibleParams, match="all lowering coefficients vanish"):
        instantiate("3b", {"b": 0})
    for n in range(5):
        for x in (0, 2, F(1, 3)):
            with pytest.raises(DivisionByZero, match="3b: the series divides by parameter b, which is 0"):
                hyper_eval("3b", {"b": 0}, None, n, x)
    assert hyper_eval("3c", {"b": 0}, None, 3, 2) == monic_poly(instantiate("3c", {"b": 0}), 3)(2)


@pytest.mark.parametrize(
    "key, params, term", [("4b", {"b": F(2)}, 2), ("3d", {"a": F(1, 4), "b": F(2)}, 1)]
)
def test_vanishing_lower_factor_raises_at_every_x(key, params, term):
    """At q = 1/2 and n = 2 a lower factor of the series vanishes at `term`,
    so every x raises.  The x factor, (x; q)_k for 4b and (qbx; q)_k for 3d,
    is part of the step factor, not an upper parameter that ends the sum:
    at x = 1 it vanishes at term 1, no later than the lower factor, and the
    value is still refused."""
    for x in (1, 2, 3, F(1, 2)):
        with pytest.raises(DivisionByZero, match=f"denominator vanished at term {term} "):
            hyper_eval(key, params, "1/2", 2, x)


# -- structural identities ------------------------------------------------------------


def test_paired_factor_identity_randomized(monkeypatch):
    """The step factors of the z-series row (4a, Askey-Wilson at b = c = d = 0),
    evaluated from the Laurent numerators over one denominator that _series
    hands terminating_sum, multiply to q^k (az, a/z; q)_k, which as a
    polynomial in x equals q^k prod a q^j (node(j) - x)."""
    steps = []

    def record(upper, lower, q, n, step, scale):
        steps.append(step)
        return F(1)

    monkeypatch.setattr(catalog, "terminating_sum", record)
    rng = random.Random(31)
    for _ in range(12):
        a = F(rng.randint(1, 6), rng.randint(1, 4))
        q = F(rng.randint(1, 5), rng.randint(2, 6))
        if q in (0, 1) or a == 0:
            continue
        x = F(rng.randint(-8, 8), rng.randint(1, 5))
        FAMILIES["4a"].series({"a": a}, q, 8)(x)
        nums, den, low = steps.pop()
        coeffs = [F(v, den) for v in nums]
        for k in range(9):
            lhs = F(1)
            for j in range(k):
                lhs *= sum(c * q ** (j * (low + i)) for i, c in enumerate(coeffs))
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


@pytest.mark.parametrize(
    "pair",
    [
        ("3b", "3c", {"a": F(2, 7), "b": F(-3, 5)}),
        ("3d", "3e", {"a": F(2, 7), "b": F(3, 5)}),
        ("4d", "4e", {"a": F(2, 7)}),
        ("4f'", "4g", {"a": F(3, 2)}),
    ],
)
def test_same_family_two_newton_bases(pair):
    """One family expanded over two node ladders gives identical polynomials,
    and the two labels' closed forms agree, at the defaults and at a second
    point: the premise on which both labels share one k_n."""
    first, second, other = pair
    for params in (None, other):
        pv1 = instantiate(first, params)
        pv2 = instantiate(second, params)
        for n in range(9):
            assert monic_poly(pv1, n) == monic_poly(pv2, n)
            form1, form2 = closed_form(first, params, None, n), closed_form(second, params, None, n)
            for x in catalog._sample_xs(n + 1):
                assert form1(x) == form2(x), (first, second, params, n, x)


# Each entry stated through another: child -> (parent, the parameters held
# at 0, the number of scheme arrows from the parent's node to the child's).
SPECIALISATIONS = {
    "2a": ("1a", {"d": 0}, 1),
    "3a": ("2a", {"c": 0}, 1),
    "4a": ("3a", {"b": 0}, 1),
    "5a": ("4b", {"b": 0}, 1),
    "5b": ("3e", {"a": 0, "b": 0}, 2),
}


def _arrow_distance(arrows, source: str, target: str) -> int | None:
    """The fewest arrows from source to target, or None if none lead there."""
    frontier, seen, steps = {source}, {source}, 0
    while frontier:
        if target in frontier:
            return steps
        frontier = {head for tail, head in arrows if tail in frontier} - seen
        seen |= frontier
        steps += 1
    return None


@pytest.mark.parametrize("child", list(SPECIALISATIONS))
def test_specialisations_are_scheme_arrows(child):
    """An entry stated through another is that family with some parameters
    at 0: its vector is the parent's there, and its node lies that many
    arrows below the parent's in the scheme."""
    parent, zeros, steps = SPECIALISATIONS[child]
    assert instantiate(child) == instantiate(parent, {**FAMILIES[child].defaults, **zeros})
    assert _arrow_distance(build_graph().arrows, parent, child) == steps


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


@pytest.mark.parametrize("q", Q_POOL)
def test_instantiate_matches_direct_elimination(q):
    """At every base, at the defaults and at seeded parameters with zeros
    among them, the stated coefficients give the vector fitted to the closed
    forms by elimination, or the same refusal."""
    rng = random.Random(53)
    refusals = set()
    for key, spec in FAMILIES.items():
        draws = [None] + [
            {name: F(rng.randint(-3, 3), rng.randint(1, 3)) for name in spec.defaults}
            for _ in range(10)
        ]
        for params in draws:
            want = outcome(fitted_instantiate, key, params, q)
            assert outcome(instantiate, key, params, q) == want, (key, params)
            if isinstance(want, tuple):
                refusals.add(want)
    # refused by the parameter check and by the vector's constraints
    assert (InadmissibleParams, "1a: parameter a violates a != 0") in refusals
    assert (InadmissibleParams, "3b: all lowering coefficients vanish (degenerate family)") in refusals


def test_lowering_expands_the_factored_form():
    a, b, c, d, q = F(2), F(1, 3), F(1, 5), F(1, 7), F(1, 2)
    # d0..d4 multiply q**0, q**k, q**-k, q**2k, q**-2k
    assert catalog._lowering(q / a, -2, a * b / q, a * c / q, a * d / q) == instantiate("1a").d
    assert catalog._lowering(-a / q, 1) == (0, -a / q, 0, a / q, 0)
    assert catalog._lowering(1 / b, -2, b) == (1, 0, -1 - 1 / b, 0, 1 / b)


@pytest.mark.parametrize(
    "power, alphas, span",
    [(-3, (), "-3..-2"), (2, (), "2..3"), (-2, (1, 2, 3, 4), "-2..3"), (0, (1, 2), "0..3")],
)
def test_lowering_rejects_exponents_outside_the_laurent_span(power, alphas, span):
    with pytest.raises(ValueError, match=re.escape(f"lowering exponents {span} leave -2..2")):
        catalog._lowering(F(1), power, *alphas)


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


# -- the live table ---------------------------------------------------------------


def _clear_engine_caches() -> None:
    core.monic_poly.cache_clear()
    core._expansion_rows.cache_clear()
    gc.collect()


def test_equal_requests_share_one_live_vector():
    # 3a's defaults are a = 2, b = 1/4; q defaults to 1/2.
    pv = instantiate("3a", {"a": 2, "b": F(1, 4)})
    for params in (None, {"a": "2", "b": "1/4"}, {"a": F(2), "b": " 1/4"}, {"b": F(1, 4)}):
        for q in (None, F(1, 2), "1/2", "2/4"):
            assert instantiate("3a", params, q) is pv, (params, q)
    assert instance_for_label("3a") is pv


def test_different_requests_get_distinct_vectors():
    base = instantiate("2a")
    others = [
        instantiate("2a", {"c": F(1, 7)}),
        instantiate("2a", {"a": F(1, 3), "b": F(2)}),  # the same set of parameters, reordered
        instantiate("2a", None, F(1, 3)),
        instantiate("2a", None, F(-1, 2)),
        instantiate("1a", {"d": 0}),  # the same vector, requested through another family
    ]
    assert others[-1] == base
    assert len({id(pv) for pv in [base, *others]}) == len(others) + 1


def test_an_inadmissible_request_stores_nothing():
    before = set(catalog._LIVE.keys())
    # refused by the parameter check, by the base and by the vector's constraints
    for args in (("1a", {"a": 0}), ("3a", None, 1), ("3b", {"b": 0})):
        with pytest.raises(InadmissibleParams):
            instantiate(*args)
    assert set(catalog._LIVE.keys()) == before


def test_instantiate_hashes_no_fraction(monkeypatch):
    """The live table's keys hold the parameters and q as integer ratios, so
    neither a miss nor a hit hashes a Fraction."""
    hashed = []
    fraction_hash = F.__hash__
    params, q = {"a": F(5, 17), "b": F(-7, 19), "c": F(3, 23), "d": F(11, 29)}, F(-4, 31)
    before = len(catalog._LIVE)
    monkeypatch.setattr(F, "__hash__", lambda self: hashed.append(self) or fraction_hash(self))
    built = instantiate("1a", params, q)
    assert len(catalog._LIVE) == before + 1
    assert instantiate("1a", params, q) is built
    monkeypatch.undo()
    assert not hashed, hashed


def test_primed_labels_hit_the_table(monkeypatch):
    """A primed label's vector is q_invert of its partner's shared vector,
    which equal requests hit in the table; the table keeps no image."""
    _clear_engine_caches()
    built = []
    real = symmetry.q_invert
    monkeypatch.setattr(symmetry, "q_invert", lambda pv: built.append(pv) or real(pv))
    params = {"a": F(2, 11), "b": F(3, 13)}
    primed = instance_for_label("3d'", params)
    again = instance_for_label("3d'", {"a": "2/11", "b": "3/13"}, "1/2")
    base = instantiate("3d", params)
    assert primed == again == q_invert(base)
    assert len(built) == 2 and all(pv is base for pv in built)
    assert {key[0] for key in catalog._LIVE.keys()} <= set(catalog.FAMILIES)


def test_a_vector_lives_while_a_caller_or_an_engine_cache_holds_it():
    _clear_engine_caches()
    params = {"a": F(5, 11), "b": F(-2, 13)}
    pv = instantiate("3b", params)
    monic_poly(pv, 6)
    core._expansion_rows(pv, 3)
    ref = weakref.ref(pv)
    del pv
    gc.collect()
    assert ref() is not None and instantiate("3b", params) is ref()  # the caches hold it
    _clear_engine_caches()
    assert ref() is None
    fresh = instantiate("3b", params)
    assert "_table" not in vars(fresh)  # constructed afresh


def test_threads_racing_on_one_request_get_equal_vectors():
    """Four threads (more than the cores of a small host) ask for the same
    new vectors at once: a race on a miss may build twice, but every thread
    gets the serial value, and the table then hands out one vector for the
    instance; the primed label's image equals it on every call."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for i in range(20):
            params = {"a": F(2, 3 + 2 * i), "b": F(-1, 7)}
            serial = copy.copy(instantiate("3d", params))
            _clear_engine_caches()
            barrier = threading.Barrier(4, timeout=30)

            def request():
                barrier.wait()
                return instance_for_label("3d'", params), instantiate("3d", params)

            with ThreadPoolExecutor(max_workers=4) as pool:
                results = [f.result(timeout=60) for f in [pool.submit(request) for _ in range(4)]]
            primed, plain = instance_for_label("3d'", params), instantiate("3d", params)
            assert plain == serial and primed == q_invert(serial)
            assert all(p == primed and v == plain for p, v in results)
            assert instance_for_label("3d'", params) == primed and instantiate("3d", params) is plain
    finally:
        sys.setswitchinterval(interval)


def test_nothing_outlives_the_engine_caches():
    """In a fresh interpreter, a limits and a charts pass (instances and
    primed labels, 19 vectors: limits builds one source per case) fill the
    table; with the reports dropped and the two caches cleared it is empty,
    and the next request builds anew."""
    script = (
        "import gc\n"
        "from qscheme import catalog, core, verify\n"
        "reports = verify.run_suite('limits') + verify.run_suite('charts')\n"
        "assert all(c.passed for r in reports for c in r.checks)\n"
        "filled = len(catalog._LIVE)\n"
        "del reports\n"
        "core.monic_poly.cache_clear()\n"
        "core._expansion_rows.cache_clear()\n"
        "gc.collect()\n"
        "print(filled, len(catalog._LIVE), len(catalog.instantiate('1a')._table[0]))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 0, done.stderr
    filled, left, table = map(int, done.stdout.split())
    assert filled > 10 and (left, table) == (0, 0)
