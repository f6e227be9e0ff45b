"""Degeneration limits between families, certified in exact arithmetic.

Each case moves the source family's parameters with epsilon and rescales its
nodes by the gauge x -> rho(eps) * x, which turns u_n(x) into
rho**n * u_n(x / rho); the gauged source's monic polynomial then converges
coefficientwise to the target family's as epsilon goes to zero.

Because both sides are rational in epsilon, the gap (max absolute
difference over a fixed sample set larger than the degree) decays
geometrically; a case passes when the tail ratios stay below a bound and
the final gap beats a hard threshold, both compared as exact rationals.
The gap is computed on the two monic polynomials' integer numerators: each
sample's difference is one integer over a known denominator, the largest is
found by cross-multiplication, and one Fraction is built per gap.
Identities that hold without any limit (power-basis evaluations and
pairs of representations of one and the same polynomial) are asserted as
exact equalities instead; each side is set up once per degree and then
evaluated at the sample points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Mapping, Sequence

from . import catalog
from .core import ParameterVector, monic_poly
from .qpolynomial import _homogeneous_horner, product_of_linear
from .qrational import format_rational
from .qseries import qhyper_sum, qpoch
from .symmetry import GaugeAction, apply_gauge

DEFAULT_SAMPLE_XS = (
    Fraction(-2),
    Fraction(-1, 3),
    Fraction(0),
    Fraction(1, 2),
    Fraction(3),
)

RATIO_BOUND = Fraction(3, 4)
EPS_RATIO = Fraction(1, 2)
GAP_THRESHOLD = Fraction(1, 10**9)

_Q = Fraction(1, 2)
_NONZERO_XS = (Fraction(3), Fraction(-2), Fraction(1, 5), Fraction(7, 2), Fraction(-1, 3))


# -- exact identities embedded in the limit formulas ---------------------------


Side = Callable[[int], Callable[[Fraction], Fraction]]  # n -> (x -> value)


def _identity_holds(lhs: Side, rhs: Side, n_max: int) -> bool:
    """lhs(n)(x) == rhs(n)(x) for every n <= n_max and x in _NONZERO_XS,
    each side set up once per n."""
    for n in range(n_max + 1):
        left, right = lhs(n), rhs(n)
        if not all(left(x) == right(x) for x in _NONZERO_XS):
            return False
    return True


# The identities' parameters are also those of the limit targets below.
_B = Fraction(1, 3)  # the lower parameter of the shifted product identity
_BIG_QLAGUERRE = {"a": Fraction(1, 3), "b": Fraction(-1, 2)}
_LITTLE_QJACOBI = {"a": Fraction(1, 4), "b": Fraction(1, 3)}
_QBESSEL = {"a": Fraction(1)}
_AL_SALAM_CARLITZ = {"a": Fraction(-1)}  # a limit target only: no identity uses it


def _power_basis_series(n: int) -> Callable[[Fraction], Fraction]:
    """x -> the terminating 2-over-1 series with upper x and lower 0."""
    top = _Q**-n
    return lambda x: qhyper_sum((top, x), (Fraction(0),), _Q, _Q, n)


def _shifted_series(n: int) -> Callable[[Fraction], Fraction]:
    """x -> (b;q)_n times the 2-over-1 series with upper x and lower b = _B."""
    top, pref = _Q**-n, qpoch(_B, _Q, n)
    return lambda x: pref * qhyper_sum((top, x), (_B,), _Q, _Q, n)


def _descending_series(n: int) -> Callable[[Fraction], Fraction]:
    """x -> (-1)^n q^{n(n-1)/2} times the 1-over-0 series at argument q x."""
    top, pref = _Q**-n, (-1) ** n * _Q ** (n * (n - 1) // 2)
    return lambda x: pref * qhyper_sum((top,), (), _Q, _Q * x, n)


# name -> (lhs, rhs, n_max), each side n -> (x -> value); each identity is
# exact at q = _Q.
_IDENTITIES: dict[str, tuple[Side, Side, int]] = {
    # the terminating 2-over-1 series with a vanishing lower parameter
    # collapses to x**n
    "power_basis_identity": (_power_basis_series, lambda n: lambda x: x**n, 8),
    # (b;q)_n * series == prod_{j<n} (x - b q^j)
    "shifted_product_identity": (
        _shifted_series,
        lambda n: product_of_linear(_B * _Q**j for j in range(n)),
        6,
    ),
    # (-1)^n q^{n(n-1)/2} * series == prod_{j<n} (x - q^j)
    "descending_product_identity": (
        _descending_series,
        lambda n: product_of_linear(_Q**j for j in range(n)),
        6,
    ),
    # the two anchored series of continuous dual q-Hahn
    "cdqhahn_rep_pair": (
        lambda n: catalog.cdqhahn_value(_Q, n, Fraction(2), Fraction(1, 3), Fraction(1, 5)),
        lambda n: catalog.cdqhahn_value(_Q, n, Fraction(1, 3), Fraction(2), Fraction(1, 5)),
        6,
    ),
    # the inverse-argument and power-basis series of big q-Laguerre
    "big_qlaguerre_rep_pair": (
        lambda n: catalog.closed_form("3b", _BIG_QLAGUERRE, _Q, n),
        lambda n: catalog.closed_form("3c", _BIG_QLAGUERRE, _Q, n),
        6,
    ),
    "little_qjacobi_rep_pair": (
        lambda n: catalog.little_qjacobi_value(_LITTLE_QJACOBI, _Q, n),
        lambda n: catalog.little_qjacobi_value_inverse_rep(_LITTLE_QJACOBI, _Q, n),
        6,
    ),
    "qbessel_rep_pair": (
        lambda n: catalog.qbessel_value(_QBESSEL, _Q, n),
        lambda n: catalog.qbessel_value_inverse_rep(_QBESSEL, _Q, n),
        6,
    ),
}

EXACT_CHECKS: dict[str, Callable[[], bool]] = {
    name: partial(_identity_holds, *entry) for name, entry in _IDENTITIES.items()
}


# -- limit cases ---------------------------------------------------------------


@dataclass(frozen=True)
class LimitCase:
    """One arrow of the scheme: the source family at source_params(eps),
    its nodes scaled by rho(eps), tends to the target at target_params."""

    source_label: str
    source_params: Callable[[Fraction], Mapping[str, Fraction]]
    target_label: str
    target_params: Mapping[str, Fraction]
    rho: Callable[[Fraction], Fraction]  # the gauge's node scale at epsilon
    eps0: Fraction
    exact_checks: tuple[str, ...] = ()

    @property
    def id(self) -> str:
        return f"{self.source_label}->{self.target_label}"

    def eps_at(self, t: int) -> Fraction:
        return self.eps0 * EPS_RATIO**t

    def source_instance(self, eps: Fraction) -> ParameterVector:
        return catalog.instance_for_label(self.source_label, self.source_params(eps), _Q)

    def target_instance(self) -> ParameterVector:
        return catalog.instance_for_label(self.target_label, self.target_params, _Q)


def _gauged_source(case: LimitCase, epsilon: Fraction) -> ParameterVector:
    """The source vector at epsilon with its nodes scaled by rho(epsilon)."""
    return apply_gauge(case.source_instance(epsilon), GaugeAction(rho=case.rho(epsilon)))


def gap(source: ParameterVector, target: ParameterVector, n: int) -> Fraction:
    """Max over the samples of |u_n(x) of source - u_n(x) of target|.

    Both monic polynomials have degree n and are read as stored, integer
    numerators U, V over denominators Du, Dv.  At x = s/r each is one
    homogeneous Horner over r**n, so the difference there is
    (U(s, r) Dv - V(s, r) Du) / (Du Dv r**n).  The samples' absolute
    numerators are compared over their r**n by cross-multiplication, and one
    Fraction is built, for the largest.
    """
    u, v = monic_poly(source, n), monic_poly(target, n)
    best, best_rn = 0, 1
    for x in DEFAULT_SAMPLE_XS:
        s, r = x.numerator, x.denominator
        num = _homogeneous_horner(u.nums, s, r) * v.den - _homogeneous_horner(v.nums, s, r) * u.den
        num = abs(num)
        rn = r**n
        if num * best_rn > best * rn:
            best, best_rn = num, rn
    return Fraction(best, u.den * v.den * best_rn)


@dataclass(frozen=True)
class GapTrace:
    n: int
    gaps: tuple[Fraction, ...]
    ratios: tuple[Fraction, ...]
    converged: bool


@dataclass(frozen=True)
class LimitReport:
    traces: tuple[GapTrace, ...]
    exact_checks: tuple[tuple[str, bool], ...]

    @property
    def examined(self) -> bool:
        """Whether any trace saw a nonzero gap; all-zero traces show no decay."""
        return any(g != 0 for t in self.traces for g in t.gaps)

    @property
    def ok(self) -> bool:
        return (
            self.examined
            and all(t.converged for t in self.traces)
            and all(passed for _, passed in self.exact_checks)
        )

    @property
    def detail(self) -> str:
        """The final gap, led by the first degree whose trace did not
        converge and followed by any failed identity."""
        if not self.examined:
            return "no nonzero gap examined"
        text = f"final gap {format_rational(max(t.gaps[-1] for t in self.traces))}"
        bad = [t.n for t in self.traces if not t.converged]
        if bad:
            text = f"gap decay failed at n={bad[0]}; {text}"
        failed = [name for name, passed in self.exact_checks if not passed]
        if failed:
            text += f"; exact identity failed ({', '.join(failed)})"
        return text


def _trace_converged(gaps: Sequence[Fraction], ratios: Sequence[Fraction]) -> bool:
    if all(g == 0 for g in gaps):
        return True
    if gaps[-1] >= GAP_THRESHOLD or not ratios:
        return False
    tail = ratios[len(ratios) // 2 :]
    return all(r <= RATIO_BOUND for r in tail)


def verify(case: LimitCase, n_max: int = 4, t_max: int = 12) -> LimitReport:
    """Gap decay certificate over the epsilon schedule eps0 * EPS_RATIO**t,
    t = 1..t_max, plus the case's exact identities.

    The target vector is built once and each gauged source once per epsilon,
    so one call makes t_max + 1 instances however large n_max is.  A case
    fails when no trace saw a nonzero gap: all-zero traces show no decay.
    """
    target = case.target_instance()
    sources = [_gauged_source(case, case.eps_at(t)) for t in range(1, t_max + 1)]
    traces = []
    for n in range(n_max + 1):
        gaps = tuple(gap(source, target, n) for source in sources)
        ratios = tuple(
            gaps[i + 1] / gaps[i]
            for i in range(len(gaps) - 1)
            if gaps[i] != 0 and gaps[i + 1] != 0
        )
        traces.append(
            GapTrace(n=n, gaps=gaps, ratios=ratios, converged=_trace_converged(gaps, ratios))
        )
    checks = tuple((name, EXACT_CHECKS[name]()) for name in case.exact_checks)
    return LimitReport(traces=tuple(traces), exact_checks=checks)


# Sources shared by two cases, each built around its targets' parameters.


def _cdqhahn(eps: Fraction) -> dict[str, Fraction]:
    return {"a": eps, "b": _Q * _BIG_QLAGUERRE["a"] / eps, "c": _Q * _BIG_QLAGUERRE["b"] / eps}


def _big_qjacobi(eps: Fraction) -> dict[str, Fraction]:
    a = _LITTLE_QJACOBI["b"]
    return {"a": a, "b": _LITTLE_QJACOBI["a"], "c": -a * eps}


def _little_qjacobi(eps: Fraction) -> dict[str, Fraction]:
    return {"a": _QBESSEL["a"] * eps / _Q, "b": -1 / eps}


CASES: tuple[LimitCase, ...] = (
    # continuous dual q-Hahn -> big q-Laguerre: shrink the node anchor while
    # the two companion parameters grow reciprocally.
    LimitCase("2a", _cdqhahn, "3b", _BIG_QLAGUERRE, lambda eps: eps, Fraction(1, 2**16)),
    LimitCase(
        "2a", _cdqhahn, "3c", _BIG_QLAGUERRE, lambda eps: eps, Fraction(1, 2**16),
        ("cdqhahn_rep_pair", "big_qlaguerre_rep_pair"),
    ),
    # Al-Salam-Chihara -> Al-Salam-Carlitz I: both parameters grow, the
    # polynomial is viewed at a magnified argument.
    LimitCase(
        "3a", lambda eps: {"a": 1 / eps, "b": _AL_SALAM_CARLITZ["a"] / eps},
        "4c", _AL_SALAM_CARLITZ, lambda eps: eps, Fraction(1, 2**16),
    ),
    # Al-Salam-Chihara -> shifted-factorial family.
    LimitCase(
        "3a", lambda eps: {"a": eps, "b": _B / eps}, "4b", {"b": _B},
        lambda eps: eps, Fraction(1, 2**16), ("shifted_product_identity",),
    ),
    # big q-Jacobi -> little q-Jacobi: the fourth (translation) parameter of
    # the four-parameter normalization shrinks; absorbed into the third slot.
    LimitCase(
        "2b", _big_qjacobi, "3d", _LITTLE_QJACOBI,
        lambda eps: 1 / (_Q * _LITTLE_QJACOBI["b"]), Fraction(1, 2**24),
    ),
    LimitCase(
        "2b", _big_qjacobi, "3e", _LITTLE_QJACOBI,
        lambda eps: 1 / (_Q * _LITTLE_QJACOBI["b"]), Fraction(1, 2**24),
    ),
    # little q-Jacobi -> q-Bessel: second parameter to -infinity with the
    # product of both parameters held fixed.  The inverse-argument forms sit
    # on the q-inverted diagram, where 3d' has the same u_n as 3d.
    LimitCase("3e", _little_qjacobi, "4g", _QBESSEL, lambda eps: Fraction(1), Fraction(1, 2**24)),
    LimitCase(
        "3d'", _little_qjacobi, "4f'", _QBESSEL, lambda eps: Fraction(1), Fraction(1, 2**24),
        ("little_qjacobi_rep_pair", "qbessel_rep_pair"),
    ),
    # continuous big q-Hermite -> monomials.
    LimitCase(
        "4a", lambda eps: {"a": eps}, "5a", {}, lambda eps: eps, Fraction(1, 2**16),
        ("power_basis_identity",),
    ),
    # little q-Laguerre -> descending shifted-factorial family.
    LimitCase(
        "4e", lambda eps: {"a": eps}, "5b", {}, lambda eps: Fraction(1), Fraction(1, 2**24),
        ("descending_product_identity",),
    ),
)
