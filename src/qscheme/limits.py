"""Degeneration limits between families, certified in exact arithmetic.

Each case moves the source family's parameters with epsilon and rescales its
nodes by the gauge x -> rho(eps) * x, which turns u_n(x) into
rho**n * u_n(x / rho).  A case is decided on the eleven coefficients, as
KLS ch. 14 states each limit: the source's registry formulas run on
Laurent polynomials in eps and, modulo the gauge, must tend to the
target's.  Three cases change Newton basis on the way: each is a direct
case read at other labels that share their u_n with its own, and compares
u_n only where its vector differs from the direct case's, which is across
the labels it changes.  The gap printed
beside the decision is taken at the last epsilon, on the polynomials'
integer numerators.  Identities that hold without any limit (power-basis
evaluations and pairs of representations of one polynomial) are exact
equalities of the catalog's series, read by label, each side set up once
per degree and evaluated at more nonzero points than the degree.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Callable, Mapping, NamedTuple

from . import catalog
from .core import ParameterVector, monic_poly
from .laurent import Laurent
from .qpolynomial import _homogeneous_horner, product_of_linear
from .qrational import format_rational
from .symmetry import gauge_rows

DEFAULT_SAMPLE_XS = (
    Fraction(-2),
    Fraction(-1, 3),
    Fraction(0),
    Fraction(1, 2),
    Fraction(3),
)

_Q = catalog.DEFAULT_Q


# -- exact identities embedded in the limit formulas ---------------------------


Side = Callable[[int], Callable[[Fraction], Fraction]]  # n -> (x -> value)


def _identity_holds(lhs: Side, rhs: Side, n_max: int) -> bool:
    """lhs(n)(x) == rhs(n)(x) for every n <= n_max at the catalog's nonzero
    samples, at least n + 1 of them (and never fewer than five), so two
    sides of degree n that agree there are equal; each side is set up once
    per n.  An n_max < 0, which compares nothing, fails."""
    for n in range(n_max + 1):
        left, right = lhs(n), rhs(n)
        if not all(left(x) == right(x) for x in catalog._sample_xs(max(n + 1, 5))):
            return False
    return n_max >= 0


# The identities' parameters are also those of the limit targets below: each
# is its family's catalog defaults.
_B = catalog.FAMILIES["4b"].defaults["b"]  # the lower parameter of the shifted product identity
_CDQHAHN = catalog.FAMILIES["2a"].defaults
_BIG_QLAGUERRE = catalog.FAMILIES["3b"].defaults
_LITTLE_QJACOBI = catalog.FAMILIES["3e"].defaults
_QBESSEL = catalog.FAMILIES["4g"].defaults
_AL_SALAM_CARLITZ = catalog.FAMILIES["4c"].defaults  # a limit target only: no identity uses it


# name -> (lhs, rhs, n_max), each side n -> (x -> value) and each series the
# catalog's of its label, normalised by k_n (closed_form) where the identity
# needs it; each identity is exact at q = _Q.
_IDENTITIES: dict[str, tuple[Side, Side, int]] = {
    # the monomials' 2-over-1 series, with a vanishing lower parameter,
    # collapses to x**n
    "power_basis_identity": (
        lambda n: catalog.FAMILIES["5a"].series({}, _Q, n),
        lambda n: lambda x: x**n,
        8,
    ),
    # (b;q)_n * series == prod_{j<n} (x - b q^j)
    "shifted_product_identity": (
        lambda n: catalog.FAMILIES["4b"].series({"b": _B}, _Q, n),
        lambda n: product_of_linear(_B * _Q**j for j in range(n)),
        6,
    ),
    # (-1)^n q^{n(n-1)/2} * series == prod_{j<n} (x - q^j)
    "descending_product_identity": (
        lambda n: catalog.closed_form("5b", {}, _Q, n),
        lambda n: product_of_linear(_Q**j for j in range(n)),
        6,
    ),
    # the series of continuous dual q-Hahn anchored at a and at b, which
    # the polynomial's symmetry in its parameters makes equal
    "cdqhahn_rep_pair": (
        lambda n: catalog.FAMILIES["2a"].series(_CDQHAHN, _Q, n),
        lambda n: catalog.FAMILIES["2a"].series(
            {**_CDQHAHN, "a": _CDQHAHN["b"], "b": _CDQHAHN["a"]}, _Q, n
        ),
        6,
    ),
    # the inverse-argument and power-basis series of big q-Laguerre
    "big_qlaguerre_rep_pair": (
        lambda n: catalog.closed_form("3b", _BIG_QLAGUERRE, _Q, n),
        lambda n: catalog.closed_form("3c", _BIG_QLAGUERRE, _Q, n),
        6,
    ),
    # the power-basis series of little q-Jacobi and its 1/x-parameter series
    "little_qjacobi_rep_pair": (
        lambda n: catalog.FAMILIES["3e"].series(_LITTLE_QJACOBI, _Q, n),
        lambda n: catalog.little_qjacobi_value_inverse_rep(_LITTLE_QJACOBI, _Q, n),
        6,
    ),
    # the power-basis and inverse-argument series of q-Bessel
    "qbessel_rep_pair": (
        lambda n: catalog.FAMILIES["4g"].series(_QBESSEL, _Q, n),
        lambda n: catalog.FAMILIES["4f'"].series(_QBESSEL, _Q, n),
        6,
    ),
}

EXACT_CHECKS: dict[str, Callable[[], bool]] = {
    name: partial(_identity_holds, *entry) for name, entry in _IDENTITIES.items()
}


# -- limit cases ---------------------------------------------------------------


class LimitCase(NamedTuple):
    """One arrow of the scheme: the source family at source_params(eps),
    its nodes scaled by rho(eps), tends to the target at target_params.
    A direct case's source is a registry entry; a composed case is the
    direct case named in `via`, with its source path, target parameters,
    rho and eps0, read at other labels that share their u_n with its own."""

    source_label: str
    source_params: Callable[[Fraction], Mapping[str, Fraction]]
    target_label: str
    target_params: Mapping[str, Fraction]
    rho: Callable[[Fraction], Fraction]  # the gauge's node scale at epsilon, gap's rho
    eps0: Fraction
    exact_checks: tuple[str, ...] = ()
    via: str | None = None

    @property
    def id(self) -> str:
        return f"{self.source_label}->{self.target_label}"

    def eps_at(self, t: int) -> Fraction:
        return self.eps0 * Fraction(1, 2) ** t

    def source_instance(self, eps: Fraction) -> ParameterVector:
        return catalog.instance_for_label(self.source_label, self.source_params(eps), _Q)

    def target_instance(self) -> ParameterVector:
        return catalog.instance_for_label(self.target_label, self.target_params, _Q)


def gap(source: ParameterVector, target: ParameterVector, n: int, rho: Fraction) -> Fraction:
    """Max over the samples of |rho**n u_n(x / rho) of source - u_n(x) of target|.

    Both monic polynomials have degree n and are read as stored, integer
    numerators U, V over denominators Du, Dv.  With rho = a/c, c > 0, and
    x = s/r, one homogeneous Horner each gives rho**n u(x / rho) =
    U(s c, r a) / (Du (r c)**n) and v(x) = V(s, r) / (Dv r**n), so the
    difference there is (U(s c, r a) Dv - V(s, r) Du c**n) / (Du Dv (r c)**n).
    The samples' absolute numerators are compared over their r**n by
    cross-multiplication, and one Fraction is built, for the largest.
    A zero rho raises ValueError, as it does for GaugeAction.
    """
    if rho == 0:
        raise ValueError("gauge scales must be nonzero")
    a, c = rho.numerator, rho.denominator
    u, v = monic_poly(source, n), monic_poly(target, n)
    du_cn = u.den * c**n
    best, best_rn = 0, 1
    for x in DEFAULT_SAMPLE_XS:
        s, r = x.numerator, x.denominator
        num = _homogeneous_horner(u.nums, s * c, r * a) * v.den - _homogeneous_horner(v.nums, s, r) * du_cn
        num = abs(num)
        rn = r**n
        if num * best_rn > best * rn:
            best, best_rn = num, rn
    return Fraction(best, du_cn * v.den * best_rn)


_EPS = Laurent(1, 1)
_NAMES = ("a0", "a1", "a2", "b0", "b1", "b2", "d0", "d1", "d2", "d3", "d4")
_LABEL_N_MAX = 8  # fixed, as the identities' bounds are: n_max never empties the check


def _failure(case: LimitCase, eps: Fraction) -> str | None:
    """What first fails in the case's certificate, None when it holds: a
    composed case's via case and label identities at eps, or a direct
    case's eleven coefficients, taken modulo the gauge, and its target's
    separation, which together make u_n converge for every n."""
    if case.via:
        via = next(c for c in CASES if c.id == case.via)
        if failure := _failure(via, eps):
            return f"via {via.id}: {failure}"
        for mine, theirs, pv, other in (
            (case.source_label, via.source_label, case.source_instance(eps), via.source_instance(eps)),
            (case.target_label, via.target_label, case.target_instance(), via.target_instance()),
        ):
            if pv == other:  # a label the case keeps: one vector, so one u_n
                continue
            for n in range(_LABEL_N_MAX + 1):
                if monic_poly(pv, n) != monic_poly(other, n):
                    return f"label identity {mine} = {theirs} failed at n={n}"
        return None
    target, spec = case.target_instance(), catalog.FAMILIES[case.source_label]
    i = 1 if target.a[1] else 2
    try:  # the source's rows in eps, gauged: mu and tau take a_i and a0 to the target's
        a, b, d = spec.coefficients({**spec.defaults, **case.source_params(_EPS)}, _Q)
        mu = target.a[i] / Laurent(a[i])
        rows = gauge_rows(a, b, d, target.a[0] / mu - a[0], mu, 0, Laurent(case.rho(_EPS)))
    except ZeroDivisionError:
        return "a division by a non-monomial in eps, in the source's coefficients or in mu"
    for name, value, want in zip(_NAMES, (c for row in rows for c in row), (*target.a, *target.b, *target.d)):
        if value and value.valuation() < 0:
            return f"{name} diverges as eps**{value.valuation()}"
        if value.coefficient(0) != want:
            return f"{name} tends to {format_rational(value.coefficient(0))}, not {format_rational(want)}"
    if hit := target._repeat(1):
        return f"the target's eigenvalues repeat at n, j = {hit}"
    return None


class LimitReport(NamedTuple):
    failure: str | None  # the certificate's first failure, None when it holds
    final_gap: Fraction
    exact_checks: tuple[tuple[str, bool], ...]

    @property
    def ok(self) -> bool:
        return self.failure is None and all(passed for _, passed in self.exact_checks)

    @property
    def detail(self) -> str:
        """The final gap, after any certificate failure, then any failed identity."""
        text = f"final gap {format_rational(self.final_gap)}"
        if self.failure:
            text = f"{self.failure}; {text}"
        failed = [name for name, passed in self.exact_checks if not passed]
        if failed:
            text += f"; exact identity failed ({', '.join(failed)})"
        return text


# The printed gap's degrees, n <= _GAP_N_MAX, and its epsilon, eps_at(_GAP_T).
# They decide nothing; these values keep the `verify all` bytes.
_GAP_N_MAX = 4
_GAP_T = 12


def verify(case: LimitCase) -> LimitReport:
    """The case's certificate, for every n, and its exact identities, with
    the largest gap over n <= _GAP_N_MAX at eps_at(_GAP_T) reported beside
    them."""
    eps = case.eps_at(_GAP_T)
    source, target, rho = case.source_instance(eps), case.target_instance(), case.rho(eps)
    final_gap = max(gap(source, target, n, rho) for n in range(_GAP_N_MAX + 1))
    checks = tuple((name, EXACT_CHECKS[name]()) for name in case.exact_checks)
    return LimitReport(_failure(case, eps), final_gap, checks)


def _composed(direct: LimitCase, source_label: str, target_label: str, exact_checks=()) -> LimitCase:
    """The direct case read at two labels that share their u_n with its own."""
    return direct._replace(
        source_label=source_label, target_label=target_label, exact_checks=exact_checks, via=direct.id
    )


# continuous dual q-Hahn -> big q-Laguerre: shrink the node anchor while the
# two companion parameters grow reciprocally.
_CDQHAHN_BIG_QLAGUERRE = LimitCase(
    "2a", lambda eps: {"a": eps, "b": _Q * _BIG_QLAGUERRE["a"] / eps, "c": _Q * _BIG_QLAGUERRE["b"] / eps},
    "3c", _BIG_QLAGUERRE, lambda eps: eps, Fraction(1, 2**16), ("cdqhahn_rep_pair", "big_qlaguerre_rep_pair"),
)
# big q-Jacobi -> little q-Jacobi: the fourth (translation) parameter of the
# four-parameter normalization shrinks; absorbed into the third slot.
_BIG_LITTLE_QJACOBI = LimitCase(
    "2b",
    lambda eps: {"a": _LITTLE_QJACOBI["b"], "b": _LITTLE_QJACOBI["a"], "c": -_LITTLE_QJACOBI["b"] * eps},
    "3d", _LITTLE_QJACOBI, lambda eps: 1 / (_Q * _LITTLE_QJACOBI["b"]), Fraction(1, 2**24),
)
# little q-Jacobi -> q-Bessel: second parameter to -infinity with the product
# of both parameters held fixed.  The inverse-argument forms sit on the
# q-inverted diagram, where 3d' has the same u_n as 3d and 3e.
_LITTLE_QJACOBI_QBESSEL = LimitCase(
    "3e", lambda eps: {"a": _QBESSEL["a"] * eps / _Q, "b": -1 / eps},
    "4g", _QBESSEL, lambda eps: Fraction(1), Fraction(1, 2**24),
)

CASES: tuple[LimitCase, ...] = (
    _composed(_CDQHAHN_BIG_QLAGUERRE, "2a", "3b"),
    _CDQHAHN_BIG_QLAGUERRE,
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
    _BIG_LITTLE_QJACOBI,
    _composed(_BIG_LITTLE_QJACOBI, "2b", "3e"),
    _LITTLE_QJACOBI_QBESSEL,
    _composed(_LITTLE_QJACOBI_QBESSEL, "3d'", "4f'", ("little_qjacobi_rep_pair", "qbessel_rep_pair")),
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
