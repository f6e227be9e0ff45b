"""Verification suites behind `qscheme verify` and the acceptance tests.

Each suite re-checks one block of the library's defining identities from
scratch (constraint algebra, three-term recurrences, eigenvalue equation,
duality, catalog closed forms, limit transitions, chart tables).  All
randomness is driven by a fixed, printed seed; every assertion is an exact
rational comparison.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, NamedTuple

from . import catalog, limits
from .classifier import DUAL_PAIRS, LABELS, SELF_DUAL, pattern_of
from .core import (
    ParameterVector,
    UncheckedParameterVector,
    apply_operator,
    dual_normalized_poly,
    monic_poly,
    normalized_poly,
    recurrence_check,
)
from .errors import ConstraintViolation, QSchemeError
from .qrational import _Value, format_rational
from .symmetry import (
    CHART_DISCREPANCIES,
    CHART_ROW_INSTANCE_LABEL,
    CHART_ROWS,
    GaugeAction,
    apply_gauge,
    canonicalize,
    dualize,
    q_invert,
    signature_string,
)

DEFAULT_SEED = 20250809

Q_POOL = (
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(2, 3),
    Fraction(-2, 3),
    Fraction(3),
    Fraction(3, 2),
    Fraction(-3, 2),
    Fraction(5, 2),
    Fraction(-3),
    Fraction(5),
)

SUITES = (
    "constraints",
    "recurrence",
    "eigen",
    "duality",
    "catalog",
    "limits",
    "charts",
    "all",
)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


class SuiteReport(_Value):
    """One suite's checks and warnings, appended to as the suite runs; its
    fields are set once, and its lists, being mutable, leave it unhashable."""

    _fields = ("suite", "checks", "warnings", "seed")

    suite: str
    checks: list[CheckResult]
    warnings: list[str]
    seed: int | None

    def __init__(self, suite: str, checks=(), warnings=(), seed: int | None = None) -> None:
        vars(self).update(suite=suite, checks=list(checks), warnings=list(warnings), seed=seed)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(CheckResult(name, passed, detail))

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "pass": self.passed,
            "seed": self.seed,
            "checks": [
                {"name": c.name, "pass": c.passed, "detail": c.detail}
                for c in self.checks
            ],
            "warnings": list(self.warnings),
        }


def _first_failure(results: Iterable[bool]) -> str | None:
    """None when every result holds and there is at least one; otherwise the
    witness: the first failing n, for results given in n = 0, 1, ... order,
    or that nothing was compared, so such a check fails instead of passing
    vacuously.  Stops at the first failure."""
    compared = False
    for n, ok in enumerate(results):
        if not ok:
            return f"first failure at n={n}"
        compared = True
    return None if compared else "compared no n"


def _small(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.randint(1, 4))


def random_parameter_vector(rng: random.Random, depth: int = 12) -> ParameterVector:
    """A random admissible vector with eigenvalue separation to `depth`."""
    while True:
        q = rng.choice(Q_POOL)
        a1, a2 = _small(rng), _small(rng)
        if a1 == 0 and a2 == 0:
            continue
        a0 = _small(rng)
        b0, b1, b2 = _small(rng), _small(rng), _small(rng)
        d3 = a1 * b1 / q
        d4 = q * a2 * b2
        d0, d1 = _small(rng), _small(rng)
        d2 = -(d0 + d1 + d3 + d4)
        try:
            pv = ParameterVector(
                q=q, a=(a0, a1, a2), b=(b0, b1, b2), d=(d0, d1, d2, d3, d4)
            )
        except ConstraintViolation:
            continue
        if not pv.h_separation_ok(depth):
            continue
        return pv


def random_broken_vector(rng: random.Random) -> UncheckedParameterVector:
    """A vector with exactly one of the d3/d4 constraints broken, the
    zero-sum constraint kept intact, from an admissible vector with
    eigenvalue separation to depth 8."""
    pv = random_parameter_vector(rng, depth=8)
    delta = Fraction(0)
    while delta == 0:
        delta = _small(rng)
    d = list(pv.d)
    if rng.random() < 0.5:
        d[3] += delta
    else:
        d[4] += delta
    d[0] -= delta
    return UncheckedParameterVector(q=pv.q, a=pv.a, b=pv.b, d=tuple(d))


# -- suites --------------------------------------------------------------------


def suite_constraints() -> SuiteReport:
    report = SuiteReport("constraints")
    for key, spec in catalog.FAMILIES.items():
        try:
            pv = catalog.instantiate(key)
            ok = (
                sum(pv.d) == 0
                and pv.d[3] == pv.a[1] * pv.b[1] / pv.q
                and pv.d[4] == pv.q * pv.a[2] * pv.b[2]
                and pv.lowering(0) == 0
                and pv._repeat(1) is None
                and pattern_of(pv) == spec.pattern
            )
            report.add(f"constraints/{key}", ok)
        except QSchemeError as exc:
            report.add(f"constraints/{key}", False, str(exc))
    return report


def suite_recurrence(n_max: int = 10, count: int = 25, seed: int = DEFAULT_SEED) -> SuiteReport:
    report = SuiteReport("recurrence", seed=seed)
    rng = random.Random(seed)
    for key in catalog.FAMILIES:
        pv = catalog.instantiate(key)
        failure = _first_failure(recurrence_check(pv, n) for n in range(n_max + 1))
        report.add(f"recurrence/{key}", failure is None, failure or "")
    for i in range(count):
        pv = random_parameter_vector(rng, depth=n_max + 2)
        failure = _first_failure(recurrence_check(pv, n) for n in range(n_max + 1))
        detail = f"q={format_rational(pv.q)}"
        report.add(f"recurrence/random-{i}", failure is None, f"{detail}, {failure}" if failure else detail)
    for i in range(5):
        pv = random_broken_vector(rng)
        fails = any(not recurrence_check(pv, n) for n in range(7))
        report.add(f"recurrence/broken-{i}", fails, "must fail for some n <= 6")
    return report


def suite_eigen(n_max: int = 10, count: int = 10, seed: int = DEFAULT_SEED) -> SuiteReport:
    report = SuiteReport("eigen", seed=seed)
    rng = random.Random(seed)
    vectors = [(f"eigen/{key}", catalog.instantiate(key)) for key in catalog.FAMILIES]
    vectors += [
        (f"eigen/random-{i}", random_parameter_vector(rng, depth=n_max + 1))
        for i in range(count)
    ]
    for name, pv in vectors:
        failure = _first_failure(
            apply_operator(pv, monic_poly(pv, n)) == monic_poly(pv, n) * pv.eigenvalue(n)
            for n in range(n_max + 1)
        )
        report.add(name, failure is None, failure or "")
    return report


# Parameters free of node collisions for the pair and self-dual checks; a
# label not listed here uses its defaults.  The default 1a (a = 2, q = 1/2)
# has node(2) == node(0): its dual has no u_2.
_DUALITY_PARAMS: dict[str, dict] = {
    "1a": {"a": Fraction(3)},
    "2a": {"a": Fraction(3), "b": Fraction(1, 4), "c": Fraction(1, 5)},
    "3a": {"a": Fraction(3), "b": Fraction(1, 4)},
    "4a": {"a": Fraction(3)},
}
# (source label, expected dual label, parameters), one per dual pair
DUALITY_INSTANCES: tuple[tuple[str, str, dict], ...] = tuple(
    (label, dual_label, _DUALITY_PARAMS.get(label, {})) for label, dual_label in DUAL_PAIRS
)


def _duality_failure(pv: ParameterVector, depth: int) -> str | None:
    """None when normalized_poly(pv, n)(node(m)) == dual_normalized_poly(pv,
    m)(eigenvalue(n)) for every n, m <= depth, each polynomial built once;
    else a detail naming the first failing (n, m) in (n, m) order, or saying
    that depth < 0 left nothing to compare."""
    duals = []
    for n in range(depth + 1):
        u = normalized_poly(pv, n)
        for m in range(depth + 1):
            if m == len(duals):
                duals.append(dual_normalized_poly(pv, m))
            if u(pv.node(m)) != duals[m](pv.eigenvalue(n)):
                return f"first failure at n={n}, m={m}"
    return None if depth >= 0 else "compared no n"


def suite_duality(depth: int = 8) -> SuiteReport:
    report = SuiteReport("duality")
    failure = _duality_failure(catalog.instantiate("1a"), depth)
    report.add("duality/1a", failure is None, failure or f"n,m <= {depth}")
    for label, dual_label, params in DUALITY_INSTANCES:
        pv = catalog.instantiate(label, params or None)
        dual = dualize(pv, depth=depth + 1)
        pair_ok = pattern_of(dual) == LABELS[dual_label]
        failure = _duality_failure(pv, depth)
        report.add(
            f"duality/{label}<->{dual_label}",
            pair_ok and failure is None,
            failure or "pattern and values",
        )
    for label in SELF_DUAL:
        pv = catalog.instance_for_label(label, _DUALITY_PARAMS.get(label))
        ok = pv.x_separation_ok(depth) and pattern_of(dualize(pv)) == pattern_of(pv)
        report.add(f"duality/self-dual/{label}", ok)
    return report


def suite_catalog(n_max: int = 8) -> SuiteReport:
    report = SuiteReport("catalog")
    for key in catalog.FAMILIES:
        try:
            n = catalog.crosscheck(key, n_max=n_max)
            report.add(f"catalog/{key}", n > 0, f"{n} values")
        except QSchemeError as exc:
            report.add(f"catalog/{key}", False, str(exc))
    return report


def suite_limits() -> SuiteReport:
    report = SuiteReport("limits")
    for case in limits.CASES:
        rep = limits.verify(case)
        report.add(f"limits/{case.id}", rep.ok, rep.detail)
        for name, passed in rep.exact_checks:
            report.add(f"limits/{case.id}/{name}", passed, "exact identity")
    return report


def suite_charts() -> SuiteReport:
    report = SuiteReport("charts")
    for chart, rows in CHART_ROWS.items():
        for label, printed in rows:
            instance_label = CHART_ROW_INSTANCE_LABEL.get((chart, label), label)
            point = canonicalize(catalog.instance_for_label(instance_label), chart)
            matches = point.signature == printed
            discrepancy = CHART_DISCREPANCIES.get((chart, label))
            name = f"charts/{chart.name}/{label}"
            if discrepancy is not None:
                # Documented table discrepancies warn instead of failing.
                report.add(name, True, "documented discrepancy")
                report.warnings.append(
                    f"{chart.name} row {label}: {discrepancy}; "
                    f"printed {signature_string(printed)}, "
                    f"computed {signature_string(point.signature)}"
                )
            else:
                report.add(
                    name,
                    matches,
                    f"printed {signature_string(printed)} "
                    f"computed {signature_string(point.signature)}",
                )
    return report


def suite_symmetry(seed: int = DEFAULT_SEED) -> SuiteReport:
    """Gauge/involution checks on four catalog and six random vectors, for
    n <= 6 (exercised through `verify all` and tests)."""
    report = SuiteReport("symmetry", seed=seed)
    rng = random.Random(seed)
    vectors = [catalog.instantiate(key) for key in ("1a", "2b", "3a", "4c")]
    vectors += [random_parameter_vector(rng, depth=8) for _ in range(6)]
    gauge = GaugeAction(
        tau=Fraction(3, 2), mu=Fraction(2), sigma=Fraction(-1, 3), rho=Fraction(3, 4)
    )
    for i, pv in enumerate(vectors):
        gauged = apply_gauge(pv, gauge)
        failure = _first_failure(
            monic_poly(gauged, n)
            == monic_poly(pv, n).compose_affine(1 / gauge.rho, -gauge.sigma)
            * gauge.rho**n
            for n in range(7)
        )
        details = [failure] if failure else []
        if q_invert(q_invert(pv)) != pv:
            details.append("q_invert is not an involution")
        report.add(f"symmetry/gauge-{i}", not details, "; ".join(details))
    return report


def run_suite(
    suite: str,
    *,
    n_max: int | None = None,
    depth: int | None = None,
    count: int | None = None,
    seed: int = DEFAULT_SEED,
) -> list[SuiteReport]:
    """Run one named suite (or all of them); returns one report per suite.

    An argument left at None is not passed on, so each suite applies its own
    default; 0 is passed on as 0.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    args = {"n_max": n_max, "depth": depth, "count": count, "seed": seed}
    # suite -> (function, {run_suite argument: suite keyword}).  Built per call
    # so that the module globals are read when the suites run.
    table = {
        "constraints": (suite_constraints, {}),
        "recurrence": (suite_recurrence, {"n_max": "n_max", "count": "count", "seed": "seed"}),
        "eigen": (suite_eigen, {"n_max": "n_max", "count": "count", "seed": "seed"}),
        "duality": (suite_duality, {"depth": "depth"}),
        "catalog": (suite_catalog, {"n_max": "n_max"}),
        "limits": (suite_limits, {}),
        "charts": (suite_charts, {}),
        "symmetry": (suite_symmetry, {"seed": "seed"}),  # only within "all"
    }
    reports = []
    for name in table if suite == "all" else (suite,):
        fn, keywords = table[name]
        reports.append(
            fn(**{kw: args[arg] for arg, kw in keywords.items() if args[arg] is not None})
        )
    return reports
