"""Limit transitions: exact gap decay plus the embedded exact identities."""

from fractions import Fraction as F

import pytest

from qscheme import catalog, limits, symmetry, verify as verify_suites
from qscheme.classifier import LABELS, build_graph, pattern_of
from qscheme.core import monic_poly
from qscheme.limits import (
    CASES,
    DEFAULT_SAMPLE_XS,
    EXACT_CHECKS,
    GAP_THRESHOLD,
    RATIO_BOUND,
    gap,
    verify,
)
from qscheme.qpolynomial import Poly, product_of_linear
from qscheme.qrational import format_rational
from qscheme.symmetry import GaugeAction, apply_gauge

import reference
from reference import fraction_gap

EXPECTED_IDS = {
    "2a->3b",
    "2a->3c",
    "3a->4c",
    "3a->4b",
    "2b->3d",
    "2b->3e",
    "3e->4g",
    "3d'->4f'",
    "4a->5a",
    "4e->5b",
}
CASE_BY_ID = {case.id: case for case in CASES}


def case_gap(case, t: int, n: int) -> F:
    """The case's gap at its t-th epsilon and degree n, as verify takes it."""
    eps = case.eps_at(t)
    return gap(case.source_instance(eps), case.target_instance(), n, case.rho(eps))


def test_case_registry():
    assert set(CASE_BY_ID) == EXPECTED_IDS and len(CASES) == len(EXPECTED_IDS)
    assert CASE_BY_ID["4a->5a"].target_label == "5a"
    # every identity is named by some case, so `verify all` runs each of them
    named = {name for case in CASES for name in case.exact_checks}
    assert named == set(EXACT_CHECKS) and len(EXACT_CHECKS) == 7


def test_zero_degree_gap_vanishes():
    case = CASE_BY_ID["2a->3b"]
    for t in (1, 4, 9):
        assert case_gap(case, t, 0) == 0


def test_monomial_limit_gaps_strictly_decrease():
    case = CASE_BY_ID["4a->5a"]
    for n in range(1, 5):
        gaps = [case_gap(case, t, n) for t in range(1, 13)]
        assert all(g > 0 for g in gaps)
        assert all(later < earlier for earlier, later in zip(gaps, gaps[1:]))


def _final_gap(report) -> str:
    return format_rational(max(t.gaps[-1] for t in report.traces))


@pytest.mark.parametrize("case_id", sorted(EXPECTED_IDS))
def test_case_converges(case_id):
    report = verify(CASE_BY_ID[case_id], n_max=4, t_max=12)
    assert report.ok, report.detail
    assert report.detail == f"final gap {_final_gap(report)}"
    for trace in report.traces:
        if any(g != 0 for g in trace.gaps):
            assert trace.gaps[-1] < GAP_THRESHOLD
            tail = trace.ratios[len(trace.ratios) // 2 :]
            assert all(r <= RATIO_BOUND for r in tail)


def test_exact_identities_hold():
    for name, check in EXACT_CHECKS.items():
        assert check(), name


def test_an_identity_is_decided_at_more_points_than_its_degree():
    """A false degree-6 identity that agrees at five points fails: the
    shifted product's right side plus a quintic vanishing at those five."""
    lhs, rhs, n_max = limits._IDENTITIES["shifted_product_identity"]
    fooled = (F(3), F(-2), F(1, 5), F(7, 2), F(-1, 3))
    quintic = product_of_linear(fooled)

    def planted(n):
        right = rhs(n)
        return right if n != 6 else lambda x: right(x) + quintic(x)

    assert n_max == 6 and limits._identity_holds(lhs, rhs, 6)
    assert all(lhs(6)(x) == planted(6)(x) for x in fooled)
    assert not limits._identity_holds(lhs, planted, 6)


def test_failing_detail_names_the_first_non_converged_degree(monkeypatch):
    monkeypatch.setattr(limits, "GAP_THRESHOLD", F(1, 10**40))
    report = verify(CASE_BY_ID["4e->5b"], n_max=2, t_max=3)
    # degree 0 gives all-zero gaps, which count as converged
    assert [t.converged for t in report.traces] == [True, False, False]
    assert not report.ok
    assert report.detail == f"gap decay failed at n=1; final gap {_final_gap(report)}"


def test_failed_identity_is_named_in_the_detail(monkeypatch):
    monkeypatch.setitem(EXACT_CHECKS, "power_basis_identity", lambda: False)
    report = verify(CASE_BY_ID["4a->5a"])
    assert all(t.converged for t in report.traces) and not report.ok
    suffix = "; exact identity failed (power_basis_identity)"
    assert report.detail == f"final gap {_final_gap(report)}{suffix}"
    monkeypatch.setattr(limits, "GAP_THRESHOLD", F(1, 10**40))
    report = verify(CASE_BY_ID["4a->5a"], n_max=2, t_max=3)
    assert report.detail == f"gap decay failed at n=1; final gap {_final_gap(report)}{suffix}"


def test_every_limit_is_a_scheme_arrow():
    arrows = frozenset(build_graph().arrows)
    for case in CASES:
        assert (case.source_label, case.target_label) in arrows, case.id


def test_limit_sources_admissible_along_schedule():
    for case in CASES:
        for t in (1, 6, 12):
            pv = case.source_instance(case.eps_at(t))
            assert pv.h_separation_ok(6)


def test_all_zero_gap_traces_fail():
    # At degree 0 both sides are u_0 = 1, so every gap is 0 and nothing is checked.
    report = verify(CASES[0], n_max=0)
    assert all(g == 0 for trace in report.traces for g in trace.gaps)
    assert not report.examined and not report.ok
    assert report.detail == "no nonzero gap examined"
    # 3a->4c is exact up to degree 1, so its first nonzero gap is at n = 2.
    unexamined = [c.id for c in CASES if not verify(c, n_max=1).examined]
    assert unexamined == ["3a->4c"]


def test_limits_suite_with_no_epsilon_fails_each_case():
    # t_max = 0 gives empty gap traces: each case fails instead of crashing.
    expected = {f"limits/{case.id}" for case in CASES}
    for reports in ([verify_suites.suite_limits(t_max=0)], verify_suites.run_suite("limits", depth=0)):
        checks = {c.name: c for r in reports for c in r.checks if c.name in expected}
        assert set(checks) == expected
        assert all(not c.passed and c.detail == "no nonzero gap examined" for c in checks.values())


def test_memoised_gaps_match_per_call_gap():
    for case in CASES:
        report = verify(case, n_max=2, t_max=4)
        for trace in report.traces:
            expected = tuple(case_gap(case, t, trace.n) for t in range(1, 5))
            assert trace.gaps == expected, (case.id, trace.n)


def test_verify_builds_each_instance_once(monkeypatch):
    # Each verify builds t_max sources (one per epsilon) and one target,
    # however many degrees it checks.
    real = limits.catalog.instance_for_label
    built = []

    def counting(label, *args):
        built.append(label)
        return real(label, *args)

    monkeypatch.setattr(limits.catalog, "instance_for_label", counting)
    for case in CASES:
        built.clear()
        verify(case, n_max=2, t_max=4)
        counts = {"source": built.count(case.source_label), "target": built.count(case.target_label)}
        assert counts == {"source": 4, "target": 1} and len(built) == 5, case.id


def test_limit_instances_sit_on_their_labels():
    for case in CASES:
        assert pattern_of(case.target_instance()) == LABELS[case.target_label], case.id
        for t in (1, 6, 12):
            source = case.source_instance(case.eps_at(t))
            assert pattern_of(source) == LABELS[case.source_label], (case.id, t)


def test_gauged_gap_matches_rescaled_polynomials():
    # Reference: rescale the source polynomial itself, with scale = 1/rho:
    # u_n^src(scale * x) * scale**-n - u_n^tgt(x).
    for case in CASES:
        target = case.target_instance()
        for t in range(1, 13):
            eps = case.eps_at(t)
            source = case.source_instance(eps)
            scale = 1 / case.rho(eps)
            for n in range(5):
                diff = monic_poly(source, n).compose_affine(scale) * scale**-n - monic_poly(target, n)
                expected = max(abs(diff(x)) for x in DEFAULT_SAMPLE_XS)
                assert gap(source, target, n, case.rho(eps)) == expected, (case.id, t, n)


def test_integer_gap_matches_fraction_reference():
    # Reference: build the gauged vector and subtract its u_n from the target's.
    zero = 0
    for case in CASES:
        target = case.target_instance()
        for t in range(1, 15):
            eps = case.eps_at(t)
            source, rho = case.source_instance(eps), case.rho(eps)
            gauged = apply_gauge(source, GaugeAction(rho=rho))
            for n in range(7):
                want = fraction_gap(gauged, target, n)
                got = gap(source, target, n, rho)
                assert got == want and type(got) is F, (case.id, t, n)
                zero += want == 0
    assert zero > 0


def test_gap_takes_negative_and_odd_denominator_scales():
    """Every case's rho is positive over 1 or a power of 2; these scales
    also put a negative a and an odd c of rho = a/c into the Horner."""
    vectors = [catalog.instantiate(key) for key in ("1a", "3b", "4e")]
    for rho in (F(-3, 2), F(5, 7), F(1)):
        for source in vectors:
            gauged = apply_gauge(source, GaugeAction(rho=rho))
            for target in vectors:
                for n in range(7):
                    assert gap(source, target, n, rho) == fraction_gap(gauged, target, n), (rho, n)


def test_a_zero_gauge_scale_is_refused():
    pv = catalog.instantiate("3a")
    for rho in (0, F(0)):
        with pytest.raises(ValueError, match="nonzero"):
            gap(pv, pv, 2, rho)


def test_limits_build_no_gauged_vector(monkeypatch):
    calls = []
    real = symmetry.apply_gauge
    monkeypatch.setattr(symmetry, "apply_gauge", lambda *args: calls.append(args) or real(*args))
    report = verify_suites.suite_limits()
    assert all(c.passed for c in report.checks) and calls == []
    # the table keeps instances and q-inverted labels only: no ("gauge", ...) key
    kinds = {key[0] for key in catalog._LIVE.keys()}
    assert "gauge" not in kinds and kinds <= set(catalog.FAMILIES) | {"q_invert"}


@pytest.mark.parametrize(
    "diff, expected",
    [
        (Poly([F(27, 4), 1, -1]), F(7)),  # 7 - (x - 1/2)**2: largest at x = 1/2
        (Poly([F(62, 9), F(-2, 3), -1]), F(7)),  # 7 - (x + 1/3)**2: largest at x = -1/3
        (Poly([0, 1]), F(3)),  # largest at x = 3; x = -1/3 has the largest numerator over 27
        (Poly.zero(), F(0)),
    ],
)
def test_gap_compares_samples_over_their_denominators(monkeypatch, diff, expected):
    # gap reads each side's monic polynomial through monic_poly; here the
    # "vectors" are the polynomials themselves, so the difference is chosen.
    for module in (limits, reference):
        monkeypatch.setattr(module, "monic_poly", lambda poly, n: poly)
    target = Poly([F(1, 5), 0, 0, 1])
    source = target + diff
    assert gap(source, target, 3, 1) == fraction_gap(source, target, 3) == expected
