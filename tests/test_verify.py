"""Suite-level behaviour of the verify module: a check that compared no
(vector, n) instance fails instead of passing vacuously."""

import pytest

from qscheme import verify


def test_all_of_needs_one_result_and_stops_at_the_first_failure():
    assert verify._all_of([]) is False
    assert verify._all_of([True, True]) is True
    seen = []
    results = (seen.append(ok) or ok for ok in (True, False, True))
    assert verify._all_of(results) is False
    assert seen == [True, False]


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
    # vector has no u_2 although its pattern is 1a again
    monkeypatch.delitem(verify._DUALITY_PARAMS, "1a")
    checks = {c.name: c.passed for c in verify.suite_duality(depth=2).checks}
    assert checks["duality/self-dual/1a"] is False
    assert all(passed for name, passed in checks.items() if name != "duality/self-dual/1a")


def test_duality_builds_each_polynomial_once_per_instance(monkeypatch):
    builds = {"normalized": [], "dual": []}
    for name, key in (("normalized_poly", "normalized"), ("dual_normalized_poly", "dual")):

        def counted(pv, n, build=getattr(verify, name), calls=builds[key]):
            calls.append((pv, n))
            return build(pv, n)

        monkeypatch.setattr(verify, name, counted)
    report = verify.suite_duality(depth=8)
    assert report.passed
    instances = 1 + len(verify.DUALITY_INSTANCES)
    for calls in builds.values():
        assert len(calls) == len(set(calls)) == 9 * instances
