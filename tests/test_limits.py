"""Limit transitions: the exact certificate on the eleven coefficients, the
reported final gap and the embedded exact identities."""

from fractions import Fraction as F

import pytest

from qscheme import catalog, core, limits, symmetry, verify as verify_suites
from qscheme.classifier import LABELS, build_graph, pattern_of
from qscheme.core import monic_poly
from qscheme.limits import (
    CASES,
    DEFAULT_SAMPLE_XS,
    EXACT_CHECKS,
    gap,
    verify,
)
from qscheme.qpolynomial import Poly, product_of_linear
from qscheme.qrational import format_rational

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
    # each composed case is a direct case read at other labels: its source
    # path, target parameters, rho and eps0 are the direct case's own
    composed = {case.id: case.via for case in CASES if case.via}
    assert composed == {"2a->3b": "2a->3c", "2b->3e": "2b->3d", "3d'->4f'": "3e->4g"}
    for case_id, via_id in composed.items():
        case, via = CASE_BY_ID[case_id], CASE_BY_ID[via_id]
        assert via.via is None
        assert case == via._replace(
            source_label=case.source_label, target_label=case.target_label,
            exact_checks=case.exact_checks, via=via_id,
        )


def test_a_composed_certificate_compares_only_the_labels_it_changes(monkeypatch):
    """A label the case keeps holds its via case's own vector, so only the
    changed labels' u_n are compared, and never a vector with itself."""
    compared = []
    real = limits.monic_poly
    monkeypatch.setattr(limits, "monic_poly", lambda pv, n: compared.append((pv, n)) or real(pv, n))
    changes = {"2a->3b": ("target",), "2b->3e": ("target",), "3d'->4f'": ("source", "target")}
    for case_id, changed in changes.items():
        case = CASE_BY_ID[case_id]
        via, eps = CASE_BY_ID[case.via], case.eps_at(12)
        sides = {
            "source": (case.source_instance(eps), via.source_instance(eps)),
            "target": (case.target_instance(), via.target_instance()),
        }
        compared.clear()
        assert limits._failure(case, eps) is None
        assert compared == [(pv, n) for side in changed for n in range(9) for pv in sides[side]], case_id
        assert all(mine[0] != theirs[0] for mine, theirs in zip(compared[::2], compared[1::2])), case_id


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


def final_gap(case) -> F:
    """The largest gap over n <= 4 at the case's 12th epsilon, the degrees
    and epsilon of the printed gap."""
    return max(case_gap(case, 12, n) for n in range(5))


@pytest.mark.parametrize("case_id", sorted(EXPECTED_IDS))
def test_case_converges(case_id):
    case = CASE_BY_ID[case_id]
    report = verify(case)
    assert report.ok and report.failure is None, report.detail
    assert report.final_gap > 0
    assert report.detail == f"final gap {format_rational(report.final_gap)}"


def test_exact_identities_hold():
    for name, check in EXACT_CHECKS.items():
        assert check(), name


def test_an_identity_is_decided_at_more_points_than_its_degree():
    """A false degree-6 identity that agrees at the first five catalog
    samples, all that a fixed count of five would read, fails: the shifted
    product's right side plus a quintic vanishing at those five."""
    lhs, rhs, n_max = limits._IDENTITIES["shifted_product_identity"]
    fooled = catalog._sample_xs(5)
    quintic = product_of_linear(fooled)

    def planted(n):
        right = rhs(n)
        return right if n != 6 else lambda x: right(x) + quintic(x)

    assert n_max == 6 and limits._identity_holds(lhs, rhs, 6)
    assert all(lhs(6)(x) == planted(6)(x) for x in fooled)
    assert not limits._identity_holds(lhs, planted, 6)
    # an identity that compares nothing fails, even against a constant
    assert not limits._identity_holds(lhs, lambda n: lambda x: 12345, -1)


def test_an_identity_of_degree_n_is_read_at_n_plus_one_catalog_samples():
    """Degree n is compared at the first max(n + 1, 5) catalog samples, in
    order: a true identity's side is called at exactly those points."""
    seen = []
    lhs = lambda n: lambda x: seen.append((n, x)) or x**n
    assert limits._identity_holds(lhs, lambda n: lambda x: x**n, 7)
    xs = catalog._sample_xs(8)
    assert seen == [(n, x) for n in range(8) for x in xs[: max(n + 1, 5)]]


def test_failing_detail_names_the_first_failing_coefficient():
    # 3a->4c with the target's a doubled: the eigenvalue and node rows do
    # not hold a, and the lowering row tends to the true target's, whose
    # d0 = a = -1, so d0 is the first coefficient that differs.
    case = CASE_BY_ID["3a->4c"]
    wrong = case._replace(target_params={"a": 2 * case.target_params["a"]})
    report = verify(wrong)
    assert not report.ok and report.failure == "d0 tends to -1, not -2"
    assert report.detail == f"d0 tends to -1, not -2; final gap {format_rational(report.final_gap)}"


def test_a_diverging_coefficient_is_named():
    # 3a->4c without the gauge: its node row (0, a, 1/a) has b1 = a = 1/eps.
    case = CASE_BY_ID["3a->4c"]._replace(rho=lambda eps: 1)
    assert verify(case).failure == "b1 diverges as eps**-1"


def test_a_sufficient_certificate_rejects_a_faster_gauge():
    """4a->5a with rho = eps**2 is a true limit of the u_n, but its vector
    tends to a different vector with the same u_n: the certificate, which is
    sufficient and not necessary, does not certify it."""
    case = CASE_BY_ID["4a->5a"]._replace(rho=lambda eps: eps * eps)
    assert verify(case).failure == "b2 tends to 0, not 1"


def test_a_target_whose_eigenvalues_repeat_is_not_certified(monkeypatch):
    # the certificate reads no u_n, so a planted repeat reaches only it
    monkeypatch.setattr(core, "_first_repeat", lambda *args: (3, 1))
    case = CASE_BY_ID["4e->5b"]
    assert limits._failure(case, case.eps_at(12)) == "the target's eigenvalues repeat at n, j = (3, 1)"
    # a composed case names the direct case whose certificate failed
    case = CASE_BY_ID["2b->3e"]
    failure = limits._failure(case, case.eps_at(12))
    assert failure == "via 2b->3d: the target's eigenvalues repeat at n, j = (3, 1)"


def test_a_division_by_a_non_monomial_is_not_certified():
    # 2b's a1 = a*b*q: with a = 1 + eps it is no monomial, and mu would
    # divide by it
    failure = "a division by a non-monomial in eps, in the source's coefficients or in mu"
    case = CASE_BY_ID["2b->3d"]._replace(source_params=lambda eps: {"a": 1 + eps, "c": eps})
    assert verify(case).failure == failure
    # 4a's coefficients divide by a itself
    case = CASE_BY_ID["4a->5a"]._replace(source_params=lambda eps: {"a": 1 + eps})
    assert verify(case).failure == failure


def _scaled_target(case_id: str, name: str, factor: F):
    case = CASE_BY_ID[case_id]
    return case._replace(target_params={**case.target_params, name: case.target_params[name] * factor})


def _doubled_source(case_id: str, name: str):
    case = CASE_BY_ID[case_id]
    params = case.source_params
    return case._replace(source_params=lambda eps: {**params(eps), name: 2 * params(eps)[name]})


PLANTED = {
    # a target parameter off by 2**-40 or 2**-60: the gaps keep shrinking by
    # the same ratio over the whole schedule, and only the coefficients show it
    "2b->3d target a * (1 + 2**-40)": (_scaled_target("2b->3d", "a", 1 + F(1, 2**40)), "a2 tends to "),
    "2b->3d target a * (1 + 2**-60)": (_scaled_target("2b->3d", "a", 1 + F(1, 2**60)), "a2 tends to "),
    "3a->4c target a doubled": (_scaled_target("3a->4c", "a", F(2)), "d0 tends to -1, not -2"),
    "3a->4b source b doubled": (_doubled_source("3a->4b", "b"), "d0 tends to 2/3, not 1/3"),
    # the composed case's own target moves off its via case's target
    "2a->3b target moved": (
        CASE_BY_ID["2a->3b"]._replace(target_params={"a": F(1, 5), "b": F(-1, 2)}),
        "label identity 3b = 3c failed at n=1",
    ),
    "2b->3e target moved": (
        CASE_BY_ID["2b->3e"]._replace(target_params={"a": F(1, 5), "b": F(1, 3)}),
        "label identity 3e = 3d failed at n=1",
    ),
    "3d'->4f' target moved": (
        CASE_BY_ID["3d'->4f'"]._replace(target_params={"a": F(1, 5)}),
        "label identity 4f' = 4g failed at n=1",
    ),
    # a kept label is compared too once its vector leaves the via case's
    "2a->3b source b doubled": (_doubled_source("2a->3b", "b"), "label identity 2a = 2a failed at n=1"),
}


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_a_planted_mistake_fails(name):
    case, failure = PLANTED[name]
    report = verify(case)
    assert not report.ok and report.failure.startswith(failure), report.detail
    assert report.detail.startswith(f"{report.failure}; final gap ")


def test_the_2_to_the_minus_40_target_still_shows_a_small_final_gap():
    """The false target's final gap is as small as the true one's: only the
    coefficients tell them apart."""
    case, _ = PLANTED["2b->3d target a * (1 + 2**-40)"]
    assert final_gap(case) < F(1, 10**9) and final_gap(CASE_BY_ID["2b->3d"]) < F(1, 10**9)


def test_failed_identity_is_named_in_the_detail(monkeypatch):
    monkeypatch.setitem(EXACT_CHECKS, "power_basis_identity", lambda: False)
    report = verify(CASE_BY_ID["4a->5a"])
    assert report.failure is None and not report.ok
    suffix = "; exact identity failed (power_basis_identity)"
    assert report.detail == f"final gap {format_rational(report.final_gap)}{suffix}"
    report = verify(CASE_BY_ID["4a->5a"]._replace(rho=lambda eps: eps * eps))
    gap_text = format_rational(report.final_gap)
    assert report.detail == f"b2 tends to 0, not 1; final gap {gap_text}{suffix}"


def test_every_limit_is_a_scheme_arrow():
    arrows = frozenset(build_graph().arrows)
    for case in CASES:
        assert (case.source_label, case.target_label) in arrows, case.id


def test_limit_sources_admissible_along_schedule():
    for case in CASES:
        for t in (1, 6, 12):
            pv = case.source_instance(case.eps_at(t))
            assert pv.h_separation_ok(6)


def test_a_zero_gap_does_not_decide_a_case(monkeypatch):
    """The certificate holds for every n, so the printed gap decides
    nothing: with every gap read as 0, each case still passes and each
    planted mistake still fails."""
    monkeypatch.setattr(limits, "gap", lambda *args: F(0))
    for case in CASES:
        report = verify(case)
        assert report.ok and report.detail == "final gap 0", case.id
    for case, failure in PLANTED.values():
        assert verify(case).failure.startswith(failure)


def test_limits_suite_takes_no_size_argument():
    """The limits suite is decided for every n: run_suite passes it none of
    its size arguments, and its details print the gap of final_gap."""
    with pytest.raises(TypeError):
        verify_suites.suite_limits(n_max=6)
    for reports in ([verify_suites.suite_limits()], verify_suites.run_suite("limits", n_max=0, depth=1)):
        checks = {c.name: c for r in reports for c in r.checks}
        for case in CASES:
            check = checks[f"limits/{case.id}"]
            assert check.passed and check.detail == f"final gap {format_rational(final_gap(case))}"


def test_memoised_gaps_match_per_call_gap():
    # verify takes every degree's gap on one source vector; each per-call
    # gap builds its own
    for case in CASES:
        assert verify(case).final_gap == final_gap(case), case.id


def test_verify_builds_each_instance_once(monkeypatch):
    """verify asks for one source, at the last epsilon, and one target; a
    composed case also asks for its via case's source and target.  No
    vector is built per epsilon of a schedule."""
    real = limits.catalog.instance_for_label
    asked = []

    def counting(label, params, *args):
        asked.append((label, tuple(sorted(params.items()))))
        return real(label, params, *args)

    monkeypatch.setattr(limits.catalog, "instance_for_label", counting)
    for case in CASES:
        asked.clear()
        verify(case)
        eps = case.eps_at(12)
        want = {(case.source_label, tuple(sorted(case.source_params(eps).items()))),
                (case.target_label, tuple(sorted(case.target_params.items())))}
        if case.via:
            via = CASE_BY_ID[case.via]
            want |= {(via.source_label, tuple(sorted(via.source_params(eps).items()))),
                     (via.target_label, tuple(sorted(via.target_params.items())))}
        assert set(asked) == want, case.id


def test_limit_instances_sit_on_their_labels():
    for case in CASES:
        assert pattern_of(case.target_instance()) == LABELS[case.target_label], case.id
        for t in (1, 6, 12):
            source = case.source_instance(case.eps_at(t))
            assert pattern_of(source) == LABELS[case.source_label], (case.id, t)


def rescaled_gap(source, target, n: int, rho: F) -> F:
    """The gap by its definition: rescale the source polynomial itself,
    max over the samples of |rho**n u_n^src(x / rho) - u_n^tgt(x)|."""
    diff = monic_poly(source, n).compose_affine(1 / rho) * rho**n - monic_poly(target, n)
    return max(abs(diff(x)) for x in DEFAULT_SAMPLE_XS)


def test_gauged_gap_matches_rescaled_polynomials():
    for case in CASES:
        target = case.target_instance()
        for t in range(1, 13):
            eps = case.eps_at(t)
            source, rho = case.source_instance(eps), case.rho(eps)
            for n in range(5):
                got = gap(source, target, n, rho)
                assert got == rescaled_gap(source, target, n, rho) and type(got) is F, (case.id, t, n)


def test_gap_takes_negative_and_odd_denominator_scales():
    """Every case's rho is positive over 1 or a power of 2; these scales
    also put a negative a and an odd c of rho = a/c into the Horner."""
    vectors = [catalog.instantiate(key) for key in ("1a", "3b", "4e")]
    for rho in (F(-3, 2), F(5, 7), F(1)):
        for source in vectors:
            for target in vectors:
                for n in range(7):
                    assert gap(source, target, n, rho) == rescaled_gap(source, target, n, rho), (rho, n)


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
    # the table keeps instances only: no ("gauge", ...) or ("q_invert", ...) key
    kinds = {key[0] for key in catalog._LIVE.keys()}
    assert kinds <= set(catalog.FAMILIES)


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
    monkeypatch.setattr(limits, "monic_poly", lambda poly, n: poly)
    target = Poly([F(1, 5), 0, 0, 1])
    source = target + diff
    assert gap(source, target, 3, 1) == expected
