"""Suite-level behaviour of the verify module: a check that compared no
(vector, n) instance fails instead of passing vacuously, and a failing
check names its witness: the first failing n, or (n, m) for duality, the
first false condition, the first repeat or the wrong pattern."""

import gc
import pickle
import random
from fractions import Fraction as F

import pytest

from qscheme import catalog, core, symmetry, verify
from qscheme.classifier import pattern_of
from qscheme.core import apply_operator
from qscheme.qpolynomial import Poly
from qscheme.symmetry import GaugeAction, apply_gauge
from reference import CHECKS_BUILDING_2B, perturbed, refuse_2b, repeating_1a


def at_n(results) -> list[tuple[str, bool]]:
    """Results given in n = 0, 1, ... order, each with its `n=` witness."""
    return [(f"n={n}", ok) for n, ok in enumerate(results)]


def test_first_failure_needs_one_result_and_stops_at_the_first_failure():
    assert verify._first_failure([]) == "compared no n"
    assert verify._first_failure(at_n([True, True])) is None
    seen = []
    results = ((where, seen.append(ok) or ok) for where, ok in at_n([True, False, True]))
    assert verify._first_failure(results) == "first failure at n=1"
    assert seen == [True, False]


def test_first_failure_names_the_first_failing_n():
    assert verify._first_failure(at_n([True, True, False, False])) == "first failure at n=2"
    assert verify._first_failure(at_n([True])) is None
    assert verify._first_failure([]) == "compared no n"
    assert verify._first_failure([("n=0, m=0", True), ("n=0, m=1", False)]) == "first failure at n=0, m=1"


@pytest.mark.parametrize(
    "suite, kwargs, vacuous",
    [
        ("recurrence", {"n_max": -1}, lambda name: "broken" not in name),
        ("eigen", {"n_max": -1}, lambda name: True),
        ("duality", {"depth": -1}, lambda name: "self-dual" not in name),
    ],
    ids=["recurrence", "eigen", "duality"],
)
def test_checks_that_compare_nothing_fail(suite, kwargs, vacuous):
    (report,) = verify.run_suite(suite, **kwargs)
    compared_nothing = [c for c in report.checks if vacuous(c.name)]
    assert compared_nothing
    assert not any(c.passed for c in compared_nothing)
    assert all(c.passed for c in report.checks if not vacuous(c.name))


def test_a_failing_recurrence_check_names_its_first_failing_n(monkeypatch):
    # d3 moved off a1*b1/q, the zero sum kept: the recurrence holds at n = 0
    # and 1 and first fails at n = 2.
    pv = catalog.instantiate("3a")
    d = list(pv.d)
    d[3] += F(1, 7)
    d[0] -= F(1, 7)
    broken = perturbed(pv, d=tuple(d))
    instantiate = catalog.instantiate
    monkeypatch.setattr(catalog, "instantiate", lambda key: broken if key == "3a" else instantiate(key))
    monkeypatch.setattr(verify, "random_parameter_vector", lambda rng, depth: broken)
    (report,) = verify.run_suite("recurrence", n_max=6, count=1)
    checks = {c.name: c for c in report.checks}
    assert not checks["recurrence/3a"].passed
    assert checks["recurrence/3a"].detail == "first failure at n=2"
    assert not checks["recurrence/random-0"].passed
    assert checks["recurrence/random-0"].detail == "q=1/2, first failure at n=2"
    passing = [checks[f"recurrence/{key}"] for key in catalog.FAMILIES if key != "3a"]
    assert all(c.passed and c.detail == "" for c in passing)


def test_a_failing_eigen_check_names_its_first_failing_n(monkeypatch):
    def off_at_degree_3(pv, u):
        return apply_operator(pv, u) + (Poly.x() if u.degree == 3 else Poly.zero())

    monkeypatch.setattr(verify, "apply_operator", off_at_degree_3)
    (report,) = verify.run_suite("eigen", n_max=5, count=1)
    assert {c.detail for c in report.checks} == {"first failure at n=3"}
    assert not any(c.passed for c in report.checks)
    (report,) = verify.run_suite("eigen", n_max=-1, count=1)
    assert {c.detail for c in report.checks} == {"compared no n"}


def recorded_duals(monkeypatch) -> list:
    """The dual vectors that verify builds from here on, in build order."""
    duals = []

    def recorded(pv, build=verify.dualize):
        duals.append(build(pv))
        return duals[-1]

    monkeypatch.setattr(verify, "dualize", recorded)
    return duals


def test_a_failing_duality_check_names_its_first_failing_pair(monkeypatch):
    duals = recorded_duals(monkeypatch)

    def off_at_dual_degree_2(pv, m, build=verify.normalized_poly):
        planted = m == 2 and any(pv is dual for dual in duals)
        return build(pv, m) + (Poly.one() if planted else Poly.zero())

    monkeypatch.setattr(verify, "normalized_poly", off_at_dual_degree_2)
    value_checks = lambda report: [c for c in report.checks if "self-dual" not in c.name]
    checks = value_checks(verify.suite_duality(depth=3))
    assert len(checks) == 1 + len(verify.DUALITY_INSTANCES)
    assert {c.detail for c in checks} == {"first failure at n=0, m=2"}
    assert not any(c.passed for c in checks)
    # below m = 2 nothing is wrong, and the passing details stay as they were
    checks = value_checks(verify.suite_duality(depth=1))
    assert all(c.passed for c in checks)
    assert [c.detail for c in checks] == ["n,m <= 1"] + ["pattern and values"] * (len(checks) - 1)
    (report,) = verify.run_suite("duality", depth=-1)
    assert {c.detail for c in value_checks(report)} == {"compared no n"}


def test_a_failing_symmetry_check_names_its_witness(monkeypatch):
    def off_at_degree_3(pv, n, build=verify.monic_poly):
        return build(pv, n) + (Poly.x() if n == 3 else Poly.zero())

    monkeypatch.setattr(verify, "monic_poly", off_at_degree_3)
    checks = verify.suite_symmetry().checks
    assert len(checks) == 10
    assert {c.detail for c in checks} == {"first failure at n=3"}
    assert not any(c.passed for c in checks)
    monkeypatch.setattr(verify, "q_invert", lambda pv: apply_gauge(pv, GaugeAction(tau=F(1))))
    checks = verify.suite_symmetry().checks
    assert {c.detail for c in checks} == {"first failure at n=3; q_invert is not an involution"}


def test_run_suite_takes_its_options_by_keyword_only(monkeypatch):
    # run_suite("all", 101), meant as a seed, once ran every suite at degree 101
    ran = []
    for name in [name for name in vars(verify) if name.startswith("suite_")]:
        monkeypatch.setattr(verify, name, lambda name=name, **kwargs: ran.append(name))
    with pytest.raises(TypeError):
        verify.run_suite("all", 101)
    assert ran == []
    verify.run_suite("all", seed=101)
    assert len(ran) == 8


def test_self_dual_check_fails_on_the_default_1a_instance(monkeypatch):
    # at a = 2, q = 1/2 the nodes repeat, node(2) == node(0), so the dual
    # vector has no u_2 although its pattern is 1a again; the repeat is
    # decided for every k, so depth 1 does not hide it
    monkeypatch.delitem(verify._DUALITY_PARAMS, "1a")
    for depth in (1, 2):
        checks = {c.name: c for c in verify.suite_duality(depth=depth).checks}
        assert checks["duality/self-dual/1a"][1:] == (False, "node(2) == node(0)")
        assert all(c.passed for name, c in checks.items() if name != "duality/self-dual/1a")


def test_a_failing_duality_check_names_the_node_repeat_or_the_dual_pattern(monkeypatch):
    """Nodes that repeat at any k fail a pair before it is dualized; a dual
    pattern that is not the expected one fails a pair or a self-dual check
    with both patterns."""
    repeating, (pair_2a, *_) = {"a": F(2), "b": F(1, 4)}, verify.DUALITY_INSTANCES
    instances = (("3a", "3d", repeating), pair_2a[:1] + ("3d",) + pair_2a[2:])
    monkeypatch.setattr(verify, "DUALITY_INSTANCES", instances)
    monkeypatch.setattr(verify, "SELF_DUAL", ("2a",))
    checks = [c for c in verify.suite_duality(depth=1).checks if c.name != "duality/1a"]
    want = {"2a": "BBB|BBBBW|BBW", "2b": "BBW|BBBBW|BBB", "3d": "BBW|BBBWW|BBB"}
    assert [(c.name, c.passed, c.detail) for c in checks] == [
        ("duality/3a<->3d", False, "node(2) == node(0)"),
        ("duality/2a<->3d", False, f"dual pattern {want['2b']}, expected {want['3d']}"),
        ("duality/self-dual/2a", False, f"dual pattern {want['2b']}, expected {want['2a']}"),
    ]


def test_a_failing_constraints_check_names_its_first_false_condition(monkeypatch):
    """Each broken condition is named; the eigenvalue repeat has its own
    test above.  lowering(0) is the d sum, so it fails with it, named after
    the sum."""
    pv = catalog.instantiate("3a")
    planted = {}
    for name, i in (("sum", 0), ("d3", 3), ("d4", 4)):
        d = list(pv.d)
        d[i] += F(1, 7)
        if i:
            d[0] -= F(1, 7)
        planted[name] = perturbed(pv, d=tuple(d))
    planted["pattern"] = catalog.instantiate("2a")
    real = catalog.instantiate
    details = {}
    for name, vector in planted.items():
        monkeypatch.setattr(catalog, "instantiate", lambda key, *args: vector if key == "3a" else real(key, *args))
        (check,) = [c for c in verify.suite_constraints().checks if not c.passed]
        assert check.name == "constraints/3a"
        details[name] = check.detail
    assert details == {
        "sum": "d coefficients must sum to zero",
        "d3": "d3 must equal a1*b1/q",
        "d4": "d4 must equal q*a2*b2",
        "pattern": "pattern BBB|BBBBW|BBW, diagram 3a is BBB|BBBWW|BBW",
    }


def test_duality_builds_each_polynomial_once_per_instance(monkeypatch):
    duals, builds = recorded_duals(monkeypatch), {"normalized": [], "dual": []}

    def counted(pv, n, build=verify.normalized_poly):
        builds["dual" if any(pv is dual for dual in duals) else "normalized"].append((pv, n))
        return build(pv, n)

    monkeypatch.setattr(verify, "normalized_poly", counted)
    report = verify.suite_duality(depth=8)
    assert report.passed
    instances = 1 + len(verify.DUALITY_INSTANCES)
    for calls in builds.values():
        assert len(calls) == len(set(calls)) == 9 * instances


def test_suite_reports_share_no_list():
    first, second, third = (verify.SuiteReport("s", seed=3) for _ in range(3))
    first.add("x", lambda: (True, ""))
    first.warnings.append("w")
    assert second.checks == [] and second.warnings == [] and first != second
    assert repr(second) == "SuiteReport(suite='s', checks=[], warnings=[], seed=3)"
    third.add("x", lambda: (True, ""))
    third.warnings.append("w")
    assert first == third and first.checks == [verify.CheckResult("x", True, "")]


def test_suite_reports_are_values_of_their_own_class():
    report = verify.SuiteReport("s", seed=3)
    assert report.__eq__(object()) is NotImplemented and report != object()
    report.add("x", lambda: (True, ""))
    twin = pickle.loads(pickle.dumps(report))
    assert twin == report and twin.checks is not report.checks
    with pytest.raises(AttributeError):
        report.seed = 4
    with pytest.raises(TypeError):
        hash(report)


def test_random_parameter_vector_draws_again_after_a_refused_vector():
    """A first draw whose lowering coefficients all vanish is refused by the
    constructor; the generator draws again instead of raising."""

    class Scripted(random.Random):
        def randint(self, a, b):
            return self.script.pop(0) if self.script else super().randint(a, b)

    rng = Scripted(11)
    # a1 = a2 = 1 and every other coefficient 0: d3 = d4 = 0, so all d vanish
    rng.script = [1, 1, 1, 1] + [0, 1] * 6
    pv = verify.random_parameter_vector(rng)
    assert rng.script == [] and any(pv.d)
    assert pv.h_separation_ok(12)


def test_verify_all_builds_each_live_vector_once(monkeypatch):
    """One cold run_suite("all") at the default seed passes every check and
    constructs at most 200 ParameterVectors: equal requests share one live
    vector (182 are built; 296 when each request builds its own)."""
    built = 0
    real = core.ParameterVector.__post_init__

    def counting(self):
        nonlocal built
        built += 1
        real(self)

    core.monic_poly.cache_clear()
    core._expansion_rows.cache_clear()
    gc.collect()
    monkeypatch.setattr(core.ParameterVector, "__post_init__", counting)
    checks = [c for report in verify.run_suite("all") for c in report.checks]
    assert len(checks) == 184 and all(c.passed for c in checks)
    assert 0 < built <= 200


@pytest.mark.parametrize("suite", verify.SUITES)
def test_a_refused_default_vector_fails_only_the_checks_that_build_it(monkeypatch, suite):
    """A family whose defaults are refused fails each check that builds one
    of its vectors, with the refusal's message; the suite reports the same
    checks as before and every other one still passes."""
    names = [c.name for report in verify.run_suite(suite) for c in report.checks]
    refuse_2b(monkeypatch)
    checks = [c for report in verify.run_suite(suite) for c in report.checks]
    assert [c.name for c in checks] == names
    failed = [c for c in checks if not c.passed]
    assert [c.name for c in failed] == [
        name for name in CHECKS_BUILDING_2B if suite == "all" or name.startswith(f"{suite}/")
    ]
    assert all(c.detail == "2b: refused on purpose" for c in failed)
    if suite == "all":
        assert (len(checks), len(failed)) == (184, 12)


def test_a_gauge_law_that_breaks_the_constraints_fails_each_symmetry_check(monkeypatch):
    """apply_gauge runs inside each symmetry check: a gauge law that scales
    the d row without mu fails every one of them, naming the violated
    constraint, or for a vector whose d3 and d4 vanish (4c and one random
    vector), which keeps its constraints, the first failing n; the other
    suites still run."""

    def without_mu(a, b, d, tau, mu, sigma, rho, real=symmetry.gauge_rows):
        a, b, _ = real(a, b, d, tau, mu, sigma, rho)
        return a, b, tuple(rho * v for v in d)

    monkeypatch.setattr(symmetry, "gauge_rows", without_mu)
    reports = verify.run_suite("all")
    assert sum(len(r.checks) for r in reports) == 184
    checks = reports[-1].checks
    assert [c.name for c in checks] == [f"symmetry/gauge-{i}" for i in range(10)]
    assert not any(c.passed for c in checks)
    d3, d4, n1 = "d3 must equal a1*b1/q", "d4 must equal q*a2*b2", "first failure at n=1"
    assert [c.detail for c in checks] == [d3, d4, d4, n1, n1, d3, d3, d3, d3, d3]


def test_constraints_fail_eigenvalues_that_first_repeat_past_the_hard_cap(monkeypatch):
    """The default 1a with a2 = a1 q**59, and d4 and d0 solved again, keeps
    its pattern, and its eigenvalues first repeat at (n, j) = (30, 29),
    past any depth the CLI allows: the constraints suite, which checks every
    n, fails it and names the repeat."""
    planted = repeating_1a(59)
    assert planted.h_separation_ok(29) and not planted.h_separation_ok(30)
    assert pattern_of(planted) == catalog.FAMILIES["1a"].pattern
    real = catalog.instantiate
    monkeypatch.setattr(catalog, "instantiate", lambda key, *args: planted if key == "1a" else real(key, *args))
    checks = {c.name: c for c in verify.suite_constraints().checks}
    assert checks.pop("constraints/1a")[1:] == (False, "eigenvalue(30) == eigenvalue(29)")
    assert all(c.passed and c.detail == "" for c in checks.values()) and len(checks) == len(catalog.FAMILIES) - 1


def test_run_suite_refuses_an_unknown_suite():
    with pytest.raises(ValueError) as caught:
        verify.run_suite("nosuch")
    assert str(caught.value) == (
        "unknown suite 'nosuch'; choose from constraints, recurrence, eigen, duality, catalog, limits, charts, "
        "symmetry, all"
    )
