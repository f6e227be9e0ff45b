"""The benchmark in bench/ must still reach every name it uses.

The span tracer rebinds module globals and class methods by name, and the
workloads call the engine, its caches and the CLI by name, so renaming or
deleting one of them breaks benchmark runs; these tests make that visible in
the ordinary test run.
"""

from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_constraints_suite_runs(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from bench.spans import Tracer

    from qscheme import verify

    tracer = Tracer()
    with tracer.installed():
        reports = verify.run_suite("constraints")
    assert [r.suite for r in reports] == ["constraints"]
    assert reports[0].passed
    assert tracer.calls("verify.run_suite") == 1
    assert tracer.calls("verify.suite_constraints") == 1
    assert tracer.calls("core.ParameterVector.lowering") == 18


def test_bench_workloads_run_and_pass_their_gates(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from bench import workloads

    workloads.Caches()
    for workload in (workloads.EvalCap(0), workloads.RandomIdentities(0)):
        item = workload.make_items()[0]
        outputs = [part() for part in workload.parts(item)]
        assert workload.check(item, workload.digest(item, outputs)) is None, workload.name
    assert len(workloads.VerifyAll(0).expected) == 184


def test_traced_duality_and_catalog_suites_reach_their_layers(monkeypatch):
    # The per-layer metrics read these spans by name.
    monkeypatch.syspath_prepend(str(ROOT))
    from bench.spans import Tracer

    from qscheme import verify

    tracer = Tracer()
    with tracer.installed():
        reports = verify.run_suite("duality", depth=2) + verify.run_suite("catalog", n_max=1)
    assert [r.suite for r in reports] == ["duality", "catalog"]
    assert all(c.passed for r in reports for c in r.checks)
    assert tracer.calls("core.normalized_poly") > 0 and tracer.calls("symmetry.dualize") > 0
    assert tracer.calls("catalog.crosscheck") == 18


def test_traced_random_identities_item_reaches_the_operator_and_recurrence(monkeypatch):
    # The per-layer metrics read these spans by name.
    monkeypatch.syspath_prepend(str(ROOT))
    from bench import workloads
    from bench.spans import Tracer

    workload = workloads.RandomIdentities(0)
    item = workload.make_items()[0]
    tracer = Tracer()
    with tracer.installed():
        outputs = [part() for part in workload.parts(item)]
    assert workload.check(item, workload.digest(item, outputs)) is None
    assert tracer.calls("core.apply_operator") == 11
    assert tracer.calls("core.recurrence_check") == 11
    # The operator divides out the nodes on integers, not through Poly.deflate.
    assert tracer.calls("qpolynomial.Poly.deflate") == 0


def test_traced_eval_cap_item_records_the_largest_coefficient_bits(monkeypatch):
    # core.max_coeff_bits.* read the observer on monic_poly, which needs
    # coeffs to yield Fractions.
    monkeypatch.syspath_prepend(str(ROOT))
    from bench import workloads
    from bench.spans import Tracer, coeff_bits

    from qscheme import catalog
    from qscheme.core import monic_poly

    workload = workloads.EvalCap(0)
    item = workload.make_items()[0]
    workloads.Caches()  # cold caches, as the benchmark runs an eval-cap item
    tracer = Tracer()
    with tracer.installed():
        outputs = [part() for part in workload.parts(item)]
    assert workload.check(item, workload.digest(item, outputs)) is None
    key, q, _ = item
    coeffs = monic_poly(catalog.instantiate(key, None, q), workload.N).coeffs
    assert all(type(c) is Fraction for c in coeffs)
    assert tracer.max_bits[24] > 0
    assert tracer.max_bits[24] == max(coeff_bits(c) for c in coeffs)


def test_package_names_follow_the_tracer_rebinding(monkeypatch):
    # Inside the tracer the package's monic_poly is the span bound in core,
    # and after it the cached original.  The tracer rebinds names in the
    # package module too, so that much held with the eager import as well;
    # what this pins is that the package keeps no copy of the name.
    monkeypatch.syspath_prepend(str(ROOT))
    from bench.spans import Tracer

    import qscheme
    from qscheme import core

    original = core.monic_poly
    with Tracer().installed():
        assert core.monic_poly is not original
        assert qscheme.monic_poly is core.monic_poly
    assert qscheme.monic_poly is core.monic_poly is original
    assert hasattr(qscheme.monic_poly, "cache_info")
    assert "monic_poly" not in vars(qscheme)
