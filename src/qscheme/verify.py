"""Verification suites behind `qscheme verify` and the acceptance tests.

Each suite re-checks one block of the library's defining identities from
scratch (constraint algebra, three-term recurrences, eigenvalue equation,
duality, catalog closed forms, limit transitions, chart tables, gauge
symmetry).  All randomness is driven by a fixed, printed seed; every
assertion is an exact rational comparison.  Each check runs through
`SuiteReport.add`, where a refusal fails that check alone, with its message.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple

from . import catalog, limits
from .classifier import DUAL_PAIRS, LABELS, SELF_DUAL, pattern_of
from .core import (
    ParameterVector,
    UncheckedParameterVector,
    apply_operator,
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

    def add(self, name: str, check: Callable[..., tuple[bool, str]], *args) -> None:
        """Record check(*args)'s (passed, detail) under `name`; a refusal
        raised on the way fails the check, with its message as the detail."""
        try:
            passed, detail = check(*args)
        except QSchemeError as exc:
            passed, detail = False, str(exc)
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


def _first_failure(results: Iterable[tuple[str, bool]]) -> str | None:
    """None when every (where, holds) result holds and there is at least
    one; otherwise the witness: where the first failure is, or that nothing
    was compared, so such a check fails instead of passing vacuously.
    Stops at the first failure."""
    compared = False
    for where, ok in results:
        if not ok:
            return f"first failure at {where}"
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


def _repeat_detail(pv: ParameterVector, which: int) -> str | None:
    """The first repeat among all k, as `node(m) == node(j)` (which = 0) or `eigenvalue(n) == eigenvalue(j)` (1)."""
    hit, row = pv._repeat(which), ("node", "eigenvalue")[which]
    return hit and f"{row}({hit[0]}) == {row}({hit[1]})"


def suite_constraints() -> SuiteReport:
    def check(key):
        pv, want = catalog.instantiate(key), catalog.FAMILIES[key].pattern
        failure = (
            sum(pv.d) != 0 and "d coefficients must sum to zero"
            or pv.d[3] != pv.a[1] * pv.b[1] / pv.q and "d3 must equal a1*b1/q"
            or pv.d[4] != pv.q * pv.a[2] * pv.b[2] and "d4 must equal q*a2*b2"
            or pv.lowering(0) != 0 and "lowering(0) must vanish"
            or _repeat_detail(pv, 1)
            or (got := pattern_of(pv)) != want and f"pattern {got.as_string()}, diagram {key} is {want.as_string()}"
        )
        return not failure, failure or ""

    report = SuiteReport("constraints")
    for key in catalog.FAMILIES:
        report.add(f"constraints/{key}", check, key)
    return report


def _identity_checks(report: SuiteReport, holds, n_max: int, rng, count: int, depth: int, show_q=False) -> None:
    """Checks `<suite>/<key>` on each family's defaults, then `<suite>/random-<i>` on
    `count` vectors drawn from rng with eigenvalue separation to `depth`: each names the
    first n <= n_max where holds(pv, n) fails, after a random vector's q if show_q."""

    def check(with_q, build, *args):
        pv = build(*args)
        failure = _first_failure((f"n={n}", holds(pv, n)) for n in range(n_max + 1))
        q = with_q and f"q={format_rational(pv.q)}"
        return failure is None, ", ".join(filter(None, (q, failure)))

    for key in catalog.FAMILIES:
        report.add(f"{report.suite}/{key}", check, False, catalog.instantiate, key)
    for i in range(count):
        report.add(f"{report.suite}/random-{i}", check, show_q, random_parameter_vector, rng, depth)


def suite_recurrence(n_max: int = 10, count: int = 25, seed: int = DEFAULT_SEED) -> SuiteReport:
    def broken_fails():
        pv = random_broken_vector(rng)
        return any(not recurrence_check(pv, n) for n in range(7)), "must fail for some n <= 6"

    report = SuiteReport("recurrence", seed=seed)
    rng = random.Random(seed)
    _identity_checks(report, recurrence_check, n_max, rng, count, n_max + 2, show_q=True)
    for i in range(5):
        report.add(f"recurrence/broken-{i}", broken_fails)
    return report


def suite_eigen(n_max: int = 10, count: int = 10, seed: int = DEFAULT_SEED) -> SuiteReport:
    def holds(pv, n):
        return apply_operator(pv, monic_poly(pv, n)) == monic_poly(pv, n) * pv.eigenvalue(n)

    report = SuiteReport("eigen", seed=seed)
    _identity_checks(report, holds, n_max, random.Random(seed), count, n_max + 1)
    return report


# Parameters free of node collisions for the pair and self-dual checks; a
# label not listed here uses its defaults.  The default 1a (a = 2, q = 1/2)
# has node(2) == node(0): its dual vector has eigenvalue(2) == eigenvalue(0),
# and duality/1a still compares its values.
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


def _duality_failure(pv: ParameterVector, dual: ParameterVector, depth: int) -> str | None:
    """None when normalized_poly(pv, n)(node(m)) == normalized_poly(dual,
    m)(eigenvalue(n)) for dual = dualize(pv) and every n, m <= depth, each
    polynomial built once; else a detail naming the first failing (n, m) in
    (n, m) order, or saying that depth < 0 left nothing to compare."""
    poly = functools.cache(normalized_poly)
    return _first_failure(
        (f"n={n}, m={m}", poly(pv, n)(pv.node(m)) == poly(dual, m)(pv.eigenvalue(n)))
        for n in range(depth + 1)
        for m in range(depth + 1)
    )


def suite_duality(depth: int = 8) -> SuiteReport:
    def wrong_dual(dual, want):
        got = pattern_of(dual)
        return got != want and f"dual pattern {got.as_string()}, expected {want.as_string()}"

    def values_1a():
        pv = catalog.instantiate("1a")
        failure = _repeat_detail(pv, 1) or _duality_failure(pv, dualize(pv), depth)
        return failure is None, failure or f"n,m <= {depth}"

    def pair(label, dual_label, params):
        pv = catalog.instantiate(label, params or None)
        failure = (
            _repeat_detail(pv, 0)
            or wrong_dual(dual := dualize(pv), LABELS[dual_label])
            or _repeat_detail(pv, 1)
            or _duality_failure(pv, dual, depth)
        )
        return not failure, failure or "pattern and values"

    def self_dual(label):
        pv = catalog.instance_for_label(label, _DUALITY_PARAMS.get(label))
        failure = _repeat_detail(pv, 0) or wrong_dual(dualize(pv), pattern_of(pv))
        return not failure, failure or ""

    report = SuiteReport("duality")
    report.add("duality/1a", values_1a)
    for label, dual_label, params in DUALITY_INSTANCES:
        report.add(f"duality/{label}<->{dual_label}", pair, label, dual_label, params)
    for label in SELF_DUAL:
        report.add(f"duality/self-dual/{label}", self_dual, label)
    return report


def suite_catalog(n_max: int = 8) -> SuiteReport:
    def check(key):
        n = catalog.crosscheck(key, n_max=n_max)
        return n > 0, f"{n} values"

    report = SuiteReport("catalog")
    for key in catalog.FAMILIES:
        report.add(f"catalog/{key}", check, key)
    return report


def suite_limits() -> SuiteReport:
    report = SuiteReport("limits")
    for case in limits.CASES:
        # One certificate per case and its identity lines; a refusal, never cached, fails each.
        certify = functools.cache(functools.partial(limits.verify, case))
        report.add(f"limits/{case.id}", lambda: (certify().ok, certify().detail))
        for name in case.exact_checks:
            report.add(f"limits/{case.id}/{name}", lambda: (dict(certify().exact_checks)[name], "exact identity"))
    return report


def suite_charts() -> SuiteReport:
    def check(chart, label, printed):
        instance_label = CHART_ROW_INSTANCE_LABEL.get((chart, label), label)
        point = canonicalize(catalog.instance_for_label(instance_label), chart)
        shown = f"printed {signature_string(printed)}", f"computed {signature_string(point.signature)}"
        discrepancy = CHART_DISCREPANCIES.get((chart, label))
        if discrepancy is None:
            return point.signature == printed, " ".join(shown)
        # Documented table discrepancies warn instead of failing.
        report.warnings.append(f"{chart.name} row {label}: {discrepancy}; {', '.join(shown)}")
        return True, "documented discrepancy"

    report = SuiteReport("charts")
    for chart, rows in CHART_ROWS.items():
        for label, printed in rows:
            report.add(f"charts/{chart.name}/{label}", check, chart, label, printed)
    return report


def suite_symmetry(seed: int = DEFAULT_SEED) -> SuiteReport:
    """Gauge/involution checks, for n <= 6, on four catalog and six random vectors."""

    def check(build, *args):
        pv = build(*args)
        gauged, rho = apply_gauge(pv, gauge), gauge.rho
        failure = _first_failure(
            (f"n={n}", monic_poly(gauged, n) == monic_poly(pv, n).compose_affine(1 / rho, -gauge.sigma) * rho**n)
            for n in range(7)
        )
        details = [failure] if failure else []
        if q_invert(q_invert(pv)) != pv:
            details.append("q_invert is not an involution")
        return not details, "; ".join(details)

    report = SuiteReport("symmetry", seed=seed)
    gauge = GaugeAction(
        tau=Fraction(3, 2), mu=Fraction(2), sigma=Fraction(-1, 3), rho=Fraction(3, 4)
    )
    builds = [(catalog.instantiate, key) for key in ("1a", "2b", "3a", "4c")]
    builds += [(random_parameter_vector, random.Random(seed), 8)] * 6
    for i, build in enumerate(builds):
        report.add(f"symmetry/gauge-{i}", check, *build)
    return report


def _suites() -> dict[str, tuple[Callable[..., SuiteReport], tuple[str, ...]]]:
    """Each suite by name, in the order `all` runs them: its function and the
    run_suite options it takes; built per call, so module globals are read then."""
    return {
        "constraints": (suite_constraints, ()),
        "recurrence": (suite_recurrence, ("n_max", "count", "seed")),
        "eigen": (suite_eigen, ("n_max", "count", "seed")),
        "duality": (suite_duality, ("depth",)),
        "catalog": (suite_catalog, ("n_max",)),
        "limits": (suite_limits, ()),
        "charts": (suite_charts, ()),
        "symmetry": (suite_symmetry, ("seed",)),
    }


SUITES = (*_suites(), "all")


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
    table = _suites()
    chosen = table.values() if suite == "all" else [table[suite]]
    return [fn(**{o: args[o] for o in options if args[o] is not None}) for fn, options in chosen]
