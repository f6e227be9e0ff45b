"""Acceptance suite: one test per criterion, every comparison exact.

Each test prints a single pass line; run with `pytest -v tests/test_acceptance.py`
(add -s to see the lines on passing runs).
"""

import random
import time
from fractions import Fraction as F

from qscheme import catalog, limits
from qscheme.classifier import LABELS, build_graph, emit, pattern_of
from qscheme.core import (
    apply_operator,
    monic_poly,
    recurrence_check,
)
from qscheme.qpolynomial import Poly
from qscheme.symmetry import (
    CHART_DISCREPANCIES,
    CHART_ROW_INSTANCE_LABEL,
    CHART_ROWS,
    ChartId,
    GaugeAction,
    apply_gauge,
    canonicalize,
    dualize,
    q_invert,
)
from qscheme.verify import (
    DUALITY_INSTANCES,
    random_broken_vector,
    random_parameter_vector,
)

from golden_data import all_labelled_patterns, golden_arrow_set
from reference import duality_check

SEED = 424242


def _report(criterion: int, label: str) -> None:
    print(f"[acceptance] criterion {criterion} ({label}): PASS")


def test_criterion_1_catalog_identity_suite():
    """Every registry entry equals its normalized closed form, n <= 8, exact."""
    assert len(catalog.FAMILIES) == 18
    for key in catalog.FAMILIES:
        assert catalog.crosscheck(key, n_max=8) == 45, key
    _report(1, "catalog identity suite, 18 entries, tolerance 0")


def test_criterion_2_recurrence_theorem_both_directions():
    """200 random admissible vectors satisfy the three-term recurrence with
    the closed-form coefficients for n <= 10; 50 vectors with one broken
    product constraint fail it for some n <= 6."""
    rng = random.Random(SEED)
    for i in range(200):
        pv = random_parameter_vector(rng, depth=12)
        assert all(recurrence_check(pv, n) for n in range(11)), (i, pv)
    for i in range(50):
        broken = random_broken_vector(rng)
        assert any(not recurrence_check(broken, n) for n in range(7)), (i, broken)
    _report(2, "three-term recurrence, 200 forward + 50 reverse")


def test_criterion_3_eigenvalue_property():
    """The operator reproduces eigenvalue(n) times u_n exactly, n <= 10."""
    rng = random.Random(SEED + 1)
    vectors = [catalog.instantiate(key) for key in catalog.FAMILIES]
    vectors += [random_parameter_vector(rng, depth=12) for _ in range(60)]
    for pv in vectors:
        for n in range(11):
            u = monic_poly(pv, n)
            assert apply_operator(pv, u) == u * pv.eigenvalue(n)
    _report(3, "eigenvalue equation on catalog defaults + 60 random vectors")


def test_criterion_4_duality():
    """Node/eigenvalue duality holds exactly for n, m <= 8 on the top-level
    instance and on every published dual pair."""
    top = catalog.instantiate(
        "1a", {"a": F(2), "b": F(1, 3), "c": F(1, 5), "d": F(1, 7)}
    )
    for n in range(9):
        for m in range(9):
            assert duality_check(top, n, m), (n, m)
    for label, dual_label, params in DUALITY_INSTANCES:
        pv = catalog.instantiate(label, params or None)
        assert pattern_of(dualize(pv)) == LABELS[dual_label]
        for n in range(9):
            for m in range(9):
                assert duality_check(pv, n, m), (label, n, m)
    _report(4, "duality on 1a and dual pairs 2a-2b, 3a-3d, 3b-3b', 4a-4f, 4c-4d'")


def test_criterion_5_scheme_graph_reproduction():
    """The enumerated admissible patterns contain exactly the 34 published
    diagrams; extras are emitted as unlisted with a reported count; the arrow
    set covers the published arrows plus the six crossing ones; emission is
    byte-identical across runs."""
    started = time.monotonic()
    graph = build_graph()
    labelled = {
        node.label: node.pattern.as_string()
        for node in graph.nodes
        if not node.unlisted
    }
    assert labelled == all_labelled_patterns()
    assert graph.labeled_count == 34
    assert graph.unlisted_count == 27
    assert all(
        node.label.startswith("X-") for node in graph.nodes if node.unlisted
    )
    arrows = frozenset(graph.arrows)
    missing = [edge for edge in golden_arrow_set() if edge not in arrows]
    assert not missing
    assert emit(graph, "dot") == emit(build_graph(), "dot")
    assert emit(graph, "json") == emit(build_graph(), "json")
    elapsed = time.monotonic() - started
    assert elapsed < 10
    _report(5, f"scheme graph: 34 labelled + 27 unlisted, arrows ok, {elapsed:.2f}s")


def test_criterion_6_chart_tables():
    """Canonical coordinates reproduce the printed black/white signature of
    every chart row, apart from the documented discrepancies, which must be
    exactly the known three."""
    mismatched = set()
    for chart, rows in CHART_ROWS.items():
        for label, printed in rows:
            instance_label = CHART_ROW_INSTANCE_LABEL.get((chart, label), label)
            point = canonicalize(catalog.instance_for_label(instance_label), chart)
            if point.signature != printed:
                mismatched.add((chart, label))
    assert mismatched == {(ChartId.A2B2, "3d"), (ChartId.A2D0_D2, "3d'")}
    assert set(CHART_DISCREPANCIES) == mismatched | {(ChartId.A2D0_D2, "5e")}
    from qscheme.verify import suite_charts

    report = suite_charts()
    assert report.passed
    assert len(report.warnings) == 3
    _report(6, "chart tables, 35 rows, 3 documented discrepancies flagged")


def test_criterion_7_limit_transitions():
    """Every limit case passes its exact certificate: the source's eleven
    coefficients, as Laurent polynomials in eps and taken modulo the gauge,
    tend to the target's, or, for the three cases whose Newton basis
    changes, a direct case's certificate plus two label identities.  The
    embedded exact identities hold with zero gap."""
    assert len(limits.CASES) == 10
    for case in limits.CASES:
        report = limits.verify(case)
        assert report.ok, case.id
    for name, check in limits.EXACT_CHECKS.items():
        assert check(), name
    _report(7, "10 limit cases + 7 exact identity blocks")


def test_criterion_8_symmetry_suite():
    """Base inversion and duality are involutions preserving the defining
    constraints; gauge actions transform the polynomials exactly: eigenvalue
    shifts/scales leave u_n unchanged, node shifts/scales translate/dilate."""
    rng = random.Random(SEED + 2)
    vectors = [catalog.instantiate(key) for key in ("1a", "2b", "3a", "4c", "4f'")]
    vectors += [random_parameter_vector(rng, depth=9) for _ in range(20)]

    def constraints_hold(pv):
        return (
            sum(pv.d) == 0
            and pv.d[3] == pv.a[1] * pv.b[1] / pv.q
            and pv.d[4] == pv.q * pv.a[2] * pv.b[2]
        )

    sigma, rho = F(-2, 3), F(3, 2)
    for pv in vectors:
        qi = q_invert(pv)
        assert q_invert(qi) == pv and constraints_hold(qi)
        if pv.b[1] != 0 or pv.b[2] != 0:
            dual = dualize(pv)
            assert dualize(dual) == pv and constraints_hold(dual)
        unchanged = apply_gauge(pv, GaugeAction(tau=F(5, 7), mu=F(-3, 2)))
        assert constraints_hold(unchanged)
        moved = apply_gauge(pv, GaugeAction(sigma=sigma, rho=rho))
        assert constraints_hold(moved)
        for n in range(7):
            u = monic_poly(pv, n)
            assert monic_poly(unchanged, n) == u
            assert monic_poly(moved, n) == u.compose_affine(1 / rho, -sigma) * rho**n
    _report(8, "involutions and gauge actions on 25 vectors, n <= 6")
