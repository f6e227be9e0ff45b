"""The family registry: explicit data for every scheme diagram.

Each entry records one (continuous) family attached to a diagram label:
the eleven Laurent coefficients of its eigenvalue, node and lowering
sequences in q**k as functions of its parameters (the factored forms of
Koekoek, Lesky & Swarttouw (2010), ch. 14, multiplied out), the leading
coefficient k_n of its conventionally normalized polynomials, and a
terminating q-hypergeometric representation.  The registry is the
independent oracle for the engine: a vector built from the coefficients
must reproduce k_n^{-1} times the named polynomial exactly.

Each fact is stated once.  An entry that is an earlier entry's family with
some parameters at 0 (2a = 1a at d = 0, 3a = 2a at c = 0, 4a = 3a at b = 0,
5a = 4b at b = 0, 5b = 3e at a = b = 0) takes its coefficients, k_n and
series from that entry and states only its own name, section, defaults,
Newton form, positivity and nonzero parameters.  A family drawn at two
labels (3b/3c, 3d/3e, 4d/4e, 4f'/4g), one per Newton basis, states its
name, section, defaults, positivity and k_n once for both.  The one
representation that no label carries is little_qjacobi_value_inverse_rep,
the 1/x-parameter series of little q-Jacobi.

Families whose representation is naturally a function of z with
x = z + 1/z are evaluated at rational x through the pairing

    (1 - a q^j z)(1 - a q^j / z) = 1 - a q^j x + a^2 q^{2j}
                                 = a q^j (node(j) - x),

which keeps the whole computation inside exact rational arithmetic.  Every
series is one _series row: a prefactor, x-free upper and lower parameters,
and a step factor for qseries.terminating_sum stated as Laurent coefficients
in q^j that are affine in x (q times the paired factor above is q, -q a x,
q a^2 from the power 0).  An upper parameter t x of KLS puts the factor
1 - t x q^j into the step factor, and an argument t x makes the step factor
t x (-q^j)^c, c = s - r + 1.

A closed form is set up once per (family, parameters, q, n): the set-up
computes everything that does not depend on x (products of parameters,
q**-n, prefactors, the upper and lower parameter tuples and the x-free step
coefficients) and returns the function of x, so a check at many points
pays for those once.  Nothing outlives that function.  The set-up leaves
the row on integers (see _series), and an evaluation builds one Fraction,
the value, with k_n^{-1} folded in.

A vector is built once per (family, parameters, q) while it is alive:
instantiate keeps a weak table of live vectors, so equal requests share one
vector and the memos it grows, and a vector goes when the last caller or
engine cache holding it lets go.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from typing import Callable, Hashable, Mapping, NamedTuple

from .core import ParameterVector, monic_poly
from .errors import ConstraintViolation, DivisionByZero, InadmissibleParams, Mismatch
from .classifier import LABELS, ZeroPattern, label_sort_key, pattern_of
from .qrational import admissible_q, format_rational, rational
from .qpolynomial import _over_lcm
from .qseries import qpoch, qpoch_many, terminating_sum
from . import symmetry

Params = Mapping[str, Fraction]
# (x, scale=(1, 1)) -> a closed form's value at x, times scale = (num, den)
Series = Callable[..., Fraction]

DEFAULT_Q = Fraction(1, 2)

# Nonzero rational sample abscissas for polynomial-identity checks; several
# representations carry 1/x and cannot be probed at the origin.  Degrees past
# len(SAMPLE_XS) - 1 continue with the integers 6, 7, ... (see _sample_xs).
SAMPLE_XS = (
    Fraction(2),
    Fraction(3),
    Fraction(-2),
    Fraction(5, 2),
    Fraction(-1, 3),
    Fraction(7, 3),
    Fraction(-5, 2),
    Fraction(1, 5),
    Fraction(4),
    Fraction(-3),
    Fraction(9, 2),
    Fraction(-4, 3),
    Fraction(5),
)


def _sample_xs(count: int) -> tuple[Fraction, ...]:
    """The first `count` distinct sample abscissas: SAMPLE_XS, then 6, 7, ..."""
    extra = range(6, 6 + count - len(SAMPLE_XS))
    return SAMPLE_XS[:count] + tuple(Fraction(x) for x in extra)


def _series(
    pref: Fraction,
    upper: tuple[Fraction, ...],
    lower: tuple[Fraction, ...],
    q: Fraction,
    n: int,
    low: int,
    const: tuple[Fraction, ...],
    slope: tuple[Fraction, ...],
) -> Series:
    """x -> pref * sum_k (q^-n, upper; q)_k / ((q; q)_k (lower; q)_k)
    * prod_{j<k} s(q^j), the step factor s(t) = sum_i c_i t^(low + i) with
    c_i = const[i] + slope[i] * x: every representation of the catalog, as
    data for qseries.terminating_sum.  A parameter 0 contributes
    (0; q)_k = 1 and is dropped.

    The row is set up once on integers: pref and each upper and lower
    parameter as its pair (num, den), and const and slope as numerators C_i
    and S_i over one common denominator L (see _step_at).  An evaluation
    multiplies pref by the caller's scale, if any, as integer pairs, and
    builds no Fraction but the value."""
    upper = tuple(a.as_integer_ratio() for a in (q ** (-n), *filter(None, upper)))
    lower = tuple(b.as_integer_ratio() for b in filter(None, lower))
    nums, den = _over_lcm([c.as_integer_ratio() for c in (*const, *slope)])
    row = (tuple(zip(nums[: len(const)], nums[len(const):])), den, low)
    pn, pd = pref.as_integer_ratio()
    return lambda x, scale=(1, 1): terminating_sum(
        upper, lower, q, n, _step_at(row, x), (pn * scale[0], pd * scale[1])
    )


def _step_at(row: tuple[tuple[tuple[int, int], ...], int, int], x: Fraction) -> tuple[list[int], int, int]:
    """The step (nums, den, low) of terminating_sum at x = s/r for a row
    ((C_i, S_i) for each i, L, low) whose coefficient i is (C_i + S_i x)/L:
    the numerators C_i*r + S_i*s over L*r."""
    step, den, low = row
    s, r = x.numerator, x.denominator
    return [c * r + m * s for c, m in step], den * r, low


def little_qjacobi_value_inverse_rep(p: Params, q: Fraction, n: int) -> Series:
    """Little q-Jacobi in standard normalization through its 1/x-parameter
    series: the same polynomial as the power-basis series of 3e, and the one
    representation that no diagram label carries."""
    a, b = p["a"], p["b"]
    try:
        pref = _sign(n) * q ** (n * (n + 1) // 2) * a**n * qpoch(b * q, q, n) / qpoch(a * q, q, n)
        return _series(pref, (a * b * q ** (n + 1),), (q * b,), q, n, -1, (0, 1 / a), (-1 / a, 0))
    except ZeroDivisionError as exc:
        raise _division_by_zero("3e", f"the degree-{n} 1/x series", p, q) from exc


class FamilySpec(NamedTuple):
    key: str  # also the family's diagram label
    name: str
    kls_section: int | None
    defaults: dict[str, Fraction]  # every parameter, in display order
    newton_form: str
    positivity: str  # recorded orthogonality-range metadata, not enforced
    # (a, b, d): the eleven coefficients in ParameterVector field order
    coefficients: Callable[[Params, Fraction], tuple[tuple, tuple, tuple]]
    kn_fn: Callable[[Params, Fraction, int], Fraction]
    # (p, q, n) -> the named representation as a function of x, with every
    # x-free quantity (products of parameters, q**-n, prefactors) computed once
    series: Callable[[Params, Fraction, int], Series]
    nonzero: tuple[str, ...] = ()  # the parameters that must not vanish

    @property
    def pattern(self) -> ZeroPattern:
        return LABELS[self.key]


def _sign(n: int) -> int:
    return -1 if n % 2 else 1


def _halfsq(n: int) -> int:
    """n(n-1)/2, the ubiquitous triangular exponent."""
    return n * (n - 1) // 2


# -- sequence coefficients ------------------------------------------------------
#
# eigenvalue(k) = a0 + a1 q**k + a2 q**-k and node(k) = b0 + b1 q**k + b2 q**-k
# are stated as (c0, c1, c2); lowering(k) always vanishes at k = 0, so it is
# stated through its factored form.


def _lowering(scale: Fraction, power: int, *alphas: Fraction) -> tuple[Fraction, ...]:
    """(d0, d1, d2, d3, d4) of scale * q**(power*k) * (1 - q**k)
    * prod (1 - alpha*q**k), a Laurent polynomial in q**k whose exponents
    must stay within -2..2; a factor with alpha = 0 is 1 and is skipped."""
    coeffs = [scale, -scale]  # of q**(power*k), q**((power+1)*k), ...
    for alpha in filter(None, alphas):
        coeffs = [c - alpha * lower for c, lower in zip(coeffs + [0], [0] + coeffs)]
    top = power + len(coeffs) - 1
    if power < -2 or top > 2:
        raise ValueError(f"lowering exponents {power}..{top} leave -2..2")
    by_exponent = dict(zip(range(power, top + 1), coeffs))
    return tuple(by_exponent.get(e, 0) for e in (0, 1, -1, 2, -2))


FAMILIES: dict[str, FamilySpec] = {}


def _register(spec: FamilySpec) -> None:
    FAMILIES[spec.key] = spec


def _specialised(parent: str, **fixed: Fraction) -> dict[str, Callable]:
    """The coefficients, k_n and series of the registered `parent` with the
    parameters `fixed` held at their values, for an entry that is the
    parent's family at those values (an arrow of the scheme)."""
    spec = FAMILIES[parent]
    return {
        "coefficients": lambda p, q: spec.coefficients({**p, **fixed}, q),
        "kn_fn": lambda p, q, n: spec.kn_fn({**p, **fixed}, q, n),
        "series": lambda p, q, n: spec.series({**p, **fixed}, q, n),
    }


# Askey-Wilson, which 2a, 3a and 4a specialise, forms each product of its
# parameters once.


def _askey_wilson_coefficients(p: Params, q: Fraction) -> tuple[tuple, tuple, tuple]:
    a = p["a"]
    ab, ac, ad = a * p["b"], a * p["c"], a * p["d"]
    abcd = ab * p["c"] * p["d"] / q
    return (-1 - abcd, abcd, 1), (0, a, 1 / a), _lowering(q / a, -2, ab / q, ac / q, ad / q)


def _askey_wilson_series(p: Params, q: Fraction, n: int) -> Series:
    a = p["a"]
    lower = (a * p["b"], a * p["c"], a * p["d"])
    top = q ** (n - 1) * lower[0] * p["c"] * p["d"]
    qa = q * a
    return _series(
        qpoch_many(lower, q, n) / a**n, (top,), lower, q, n, 0, (q, 0, qa * a), (0, -qa, 0)
    )


# The four families drawn at two labels, one Newton basis each: what both
# labels share is stated once.
_BIG_QLAGUERRE = {
    "name": "big q-Laguerre",
    "kls_section": 11,
    "defaults": {"a": Fraction(1, 3), "b": Fraction(-1, 2)},
    "positivity": "0 < aq < 1, b < 0",
    "kn_fn": lambda p, q, n: 1 / (qpoch(q * p["a"], q, n) * qpoch(q * p["b"], q, n)),
}
_LITTLE_QJACOBI = {
    "name": "little q-Jacobi",
    "kls_section": 12,
    "defaults": {"a": Fraction(1, 4), "b": Fraction(1, 3)},
    "positivity": "0 < a < 1/q, b < 1/q",
    "kn_fn": lambda p, q, n: _sign(n)
    * q ** (-_halfsq(n))
    * qpoch(p["a"] * p["b"] * q ** (n + 1), q, n)
    / qpoch(p["a"] * q, q, n),
}
_LITTLE_QLAGUERRE = {
    "name": "little q-Laguerre",
    "kls_section": 20,
    "defaults": {"a": Fraction(1, 3)},
    "positivity": "0 < aq < 1",
    "kn_fn": lambda p, q, n: _sign(n) * q ** (-_halfsq(n)) / qpoch(p["a"] * q, q, n),
}
_QBESSEL = {
    "name": "q-Bessel",
    "kls_section": 22,
    "defaults": {"a": Fraction(1)},
    "positivity": "a > 0",
    "kn_fn": lambda p, q, n: _sign(n) * q ** (-_halfsq(n)) * qpoch(-p["a"] * q**n, q, n),
}


_register(
    FamilySpec(
        key="1a",
        name="Askey-Wilson",
        kls_section=1,
        defaults={
            "a": Fraction(2),
            "b": Fraction(1, 3),
            "c": Fraction(1, 5),
            "d": Fraction(1, 7),
        },
        nonzero=("a",),
        newton_form="v_k(x) = prod_{j<k} (x - a q^j - q^-j/a)",
        positivity="a,b,c,d real with pairwise products < 1",
        coefficients=_askey_wilson_coefficients,
        kn_fn=lambda p, q, n: qpoch(
            q ** (n - 1) * p["a"] * p["b"] * p["c"] * p["d"], q, n
        ),
        series=_askey_wilson_series,
    )
)

_register(
    FamilySpec(
        key="2a",
        name="continuous dual q-Hahn",
        kls_section=3,
        defaults={"a": Fraction(2), "b": Fraction(1, 3), "c": Fraction(1, 5)},
        nonzero=("a",),
        newton_form="v_k(x) = prod_{j<k} (x - a q^j - q^-j/a)",
        positivity="ab, ac, bc < 1",
        **_specialised("1a", d=Fraction(0)),
    )
)

_register(
    FamilySpec(
        key="2b",
        name="big q-Jacobi",
        kls_section=5,
        defaults={"a": Fraction(1, 3), "b": Fraction(1, 4), "c": Fraction(-1, 2)},
        newton_form="v_k(x) = prod_{j<k} (x - q^-j)",
        positivity="0 < aq < 1, 0 <= bq < 1, c < 0",
        coefficients=lambda p, q: (
            (-1 - p["a"] * p["b"] * q, p["a"] * p["b"] * q, 1),
            (0, 0, 1),
            _lowering(q, -2, p["a"], p["c"]),
        ),
        kn_fn=lambda p, q, n: qpoch(q ** (n + 1) * p["a"] * p["b"], q, n)
        / (qpoch(q * p["a"], q, n) * qpoch(q * p["c"], q, n)),
        series=lambda p, q, n: _series(
            1, (p["a"] * p["b"] * q ** (n + 1),), (q * p["a"], q * p["c"]), q, n, 0, (q, 0), (0, -q)
        ),
    )
)

_register(
    FamilySpec(
        key="3a",
        name="Al-Salam-Chihara",
        kls_section=8,
        defaults={"a": Fraction(2), "b": Fraction(1, 4)},
        nonzero=("a",),
        newton_form="v_k(x) = prod_{j<k} (x - a q^j - q^-j/a)",
        positivity="ab < 1",
        **_specialised("2a", c=Fraction(0)),
    )
)


def _big_qlaguerre_series(p: Params, q: Fraction, n: int) -> Series:
    """3b's row, whose step factor (x - qa*t)/b divides by b.  The entry
    shares its parameters with 3c, which allows b = 0, so `nonzero` leaves b
    free and the row refuses b = 0 itself."""
    if not p["b"]:
        raise DivisionByZero("3b: the series divides by parameter b, which is 0")
    inv_b = 1 / p["b"]
    return _series(
        (-p["b"]) ** n * q ** (n * (n + 1) // 2) / qpoch(q * p["b"], q, n),
        (), (q * p["a"],), q, n, 0, (0, -inv_b * q * p["a"]), (inv_b, 0),
    )


_register(
    FamilySpec(
        key="3b",
        **_BIG_QLAGUERRE,
        newton_form="v_k(x) = x^k (qa/x; q)_k",
        coefficients=lambda p, q: (
            (-1, 0, 1),
            (0, p["a"] * q, 0),
            _lowering(-q * p["b"], -1, p["a"]),
        ),
        series=_big_qlaguerre_series,
    )
)

_register(
    FamilySpec(
        key="3c",
        **_BIG_QLAGUERRE,
        newton_form="v_k(x) = (-1)^k q^{-k(k-1)/2} (x; q)_k",
        coefficients=lambda p, q: (
            (-1, 0, 1),
            (0, 0, 1),
            _lowering(q, -2, p["a"], p["b"]),
        ),
        series=lambda p, q, n: _series(
            1, (0,), (q * p["a"], q * p["b"]), q, n, 0, (q, 0), (0, -q)
        ),
    )
)

_register(
    FamilySpec(
        key="3d",
        **_LITTLE_QJACOBI,
        nonzero=("b",),
        newton_form="v_k(x) = (-b)^-k q^{-k(k+1)/2} (qbx; q)_k",
        coefficients=lambda p, q: (
            (-1 - p["a"] * p["b"] * q, p["a"] * p["b"] * q, 1),
            (0, 0, 1 / (q * p["b"])),
            _lowering(1 / p["b"], -2, p["b"]),
        ),
        series=lambda p, q, n: _series(
            (-q * p["b"]) ** (-n)
            * q ** (-_halfsq(n))
            * qpoch(q * p["b"], q, n)
            / qpoch(q * p["a"], q, n),
            (p["a"] * p["b"] * q ** (n + 1),), (q * p["b"], 0), q, n, 0, (q, 0), (0, -q * q * p["b"])
        ),
    )
)

_register(
    FamilySpec(
        key="3e",
        **_LITTLE_QJACOBI,
        newton_form="v_k(x) = x^k",
        coefficients=lambda p, q: (
            (-1 - p["a"] * p["b"] * q, p["a"] * p["b"] * q, 1),
            (0, 0, 0),
            _lowering(-1, -1, p["a"]),
        ),
        series=lambda p, q, n: _series(
            1, (p["a"] * p["b"] * q ** (n + 1),), (q * p["a"],), q, n, 0, (0,), (q,)
        ),
    )
)

_register(
    FamilySpec(
        key="4a",
        name="continuous big q-Hermite",
        kls_section=18,
        defaults={"a": Fraction(2)},
        nonzero=("a",),
        newton_form="v_k(x) = prod_{j<k} (x - a q^j - q^-j/a)",
        positivity="a real",
        **_specialised("3a", b=Fraction(0)),
    )
)

_register(
    FamilySpec(
        key="4b",
        name="shifted-factorial polynomials x^n (b/x;q)_n",
        kls_section=None,
        defaults={"b": Fraction(1, 3)},
        newton_form="v_k(x) = (-1)^k q^{k(k-1)/2} (x; q)_k",
        positivity="none recorded",
        coefficients=lambda p, q: (
            (-1, 0, 1),
            (0, 0, 1),
            _lowering(q, -2, p["b"] / q),
        ),
        kn_fn=lambda p, q, n: Fraction(1),
        series=lambda p, q, n: _series(
            qpoch(p["b"], q, n), (), (p["b"],), q, n, 0, (q, 0), (0, -q)
        ),
    )
)

_register(
    FamilySpec(
        key="4c",
        name="Al-Salam-Carlitz I",
        kls_section=24,
        defaults={"a": Fraction(-1)},
        nonzero=("a",),
        newton_form="v_k(x) = x^k (1/x; q)_k",
        positivity="a < 0",
        coefficients=lambda p, q: ((-1, 0, 1), (0, 1, 0), _lowering(-p["a"], -1)),
        kn_fn=lambda p, q, n: Fraction(1),
        series=lambda p, q, n: _series(
            (-p["a"]) ** n * q ** (_halfsq(n)), (), (), q, n, 0, (0, -q / p["a"]), (q / p["a"], 0)
        ),
    )
)

_register(
    FamilySpec(
        key="4d",
        **_LITTLE_QLAGUERRE,
        nonzero=("a",),
        newton_form="v_k(x) = x^k (1/x; q)_k",
        coefficients=lambda p, q: ((1, 0, -1), (0, 1, 0), _lowering(-p["a"], 0)),
        series=lambda p, q, n: _series(
            _sign(n) * q ** (n * (n + 1) // 2) * p["a"] ** n / qpoch(q * p["a"], q, n),
            (), (), q, n, -1, (0, 1 / p["a"]), (-1 / p["a"], 0),
        ),
    )
)

_register(
    FamilySpec(
        key="4e",
        **_LITTLE_QLAGUERRE,
        newton_form="v_k(x) = x^k",
        coefficients=lambda p, q: ((1, 0, -1), (0, 0, 0), _lowering(1, -1, p["a"])),
        series=lambda p, q, n: _series(1, (0,), (q * p["a"],), q, n, 0, (0,), (q,)),
    )
)

_register(
    FamilySpec(
        key="4f'",
        **_QBESSEL,
        nonzero=("a",),
        newton_form="v_k(x) = x^k (1/x; q)_k",
        coefficients=lambda p, q: (
            (1 - p["a"], p["a"], -1),
            (0, 1, 0),
            _lowering(-p["a"] / q, 1),
        ),
        series=lambda p, q, n: _series(
            _sign(n) * q ** (n * n) * p["a"] ** n,
            (-p["a"] * q**n,), (), q, n, -2, (0, 1 / p["a"]), (-1 / p["a"], 0),
        ),
    )
)

_register(
    FamilySpec(
        key="4g",
        **_QBESSEL,
        newton_form="v_k(x) = x^k",
        coefficients=lambda p, q: ((1 - p["a"], p["a"], -1), (0, 0, 0), _lowering(1, -1)),
        series=lambda p, q, n: _series(1, (-p["a"] * q**n,), (0,), q, n, 0, (0,), (q,)),
    )
)

_register(
    FamilySpec(
        key="5a",
        name="monomials x^n",
        kls_section=None,
        defaults={},
        newton_form="v_k(x) = (-1)^k q^{k(k-1)/2} (x; q)_k",
        positivity="none recorded",
        **_specialised("4b", b=Fraction(0)),
    )
)

_register(
    FamilySpec(
        key="5b",
        name="shifted-factorial polynomials x^n (1/x;q)_n",
        kls_section=None,
        defaults={},
        newton_form="v_k(x) = x^k",
        positivity="none recorded",
        **_specialised("3e", a=Fraction(0), b=Fraction(0)),
    )
)

_register(
    FamilySpec(
        key="5c'",
        name="Stieltjes-Wigert",
        kls_section=27,
        defaults={},
        newton_form="v_k(x) = x^k",
        positivity="none recorded",
        coefficients=lambda p, q: ((-1, 1, 0), (0, 0, 0), _lowering(1, -1)),
        kn_fn=lambda p, q, n: _sign(n) * q ** (n * n) / qpoch(q, q, n),
        series=lambda p, q, n: _series(
            1 / qpoch(q, q, n), (), (0,), q, n, 1, (0,), (q ** (n + 1),)
        ),
    )
)


def coerce_params(spec: FamilySpec, params: Mapping | None) -> dict[str, Fraction]:
    merged = dict(spec.defaults)
    if params:
        for name, value in params.items():
            if name not in merged:
                raise InadmissibleParams(
                    f"{spec.key}: unknown parameter {name!r}"
                )
            merged[name] = rational(value)
    for name in spec.nonzero:
        if merged[name] == 0:
            raise InadmissibleParams(
                f"{spec.key}: parameter {name} violates {name} != 0"
            )
    return merged


def _resolve(
    family: str, params: Mapping | None, q: Fraction | int | str | None
) -> tuple[FamilySpec, dict[str, Fraction], Fraction]:
    """The family's spec, its coerced parameters and the base q, which
    defaults to DEFAULT_Q and must be admissible."""
    spec = FAMILIES[family]
    q = rational(q) if q is not None else DEFAULT_Q
    if not admissible_q(q):
        raise InadmissibleParams(f"base q = {q} must avoid 0 and +/-1")
    return spec, coerce_params(spec, params), q


# The live vectors, by (family, parameters in `defaults` order, q) as integer
# ratios.  Held weakly, so a vector lives exactly as long as a caller or an
# engine cache holds it, and equal requests share one vector and its memos.
_LIVE: weakref.WeakValueDictionary[Hashable, ParameterVector] = weakref.WeakValueDictionary()


def instantiate(
    family: str, params: Mapping | None = None, q: Fraction | int | str | None = None
) -> ParameterVector:
    """The family's vector: the eleven coefficients its registry entry states
    for these parameters and q.

    Equal requests (parameters and q compared after coercion, q omitted
    meaning DEFAULT_Q) get one shared vector while any caller holds it, so
    its sequence table and memos are shared too; copy.copy(pv) gives a
    private copy with empty memos.  A request that is refused stores
    nothing."""
    spec, p, q = _resolve(family, params, q)
    key = (family, *(v.as_integer_ratio() for v in p.values()), q.as_integer_ratio())
    pv = _LIVE.get(key)
    if pv is None:
        a, b, d = spec.coefficients(p, q)
        try:
            pv = _LIVE[key] = ParameterVector(q=q, a=a, b=b, d=d)
        except ConstraintViolation as exc:
            raise InadmissibleParams(f"{family}: {exc}") from exc
    return pv


def hyper_eval(
    family: str,
    params: Mapping | None,
    q: Fraction | int | str | None,
    n: int,
    x: Fraction | int | str,
) -> Fraction:
    """Monic value k_n^{-1} * (named representation) at rational x."""
    return closed_form(family, params, q, n)(rational(x))


def closed_form(
    family: str, params: Mapping | None, q: Fraction | int | str | None, n: int
) -> Series:
    """x -> k_n^{-1} * (named representation) at x, set up once for this
    family, parameters, base and degree."""
    spec, p, q = _resolve(family, params, q)
    return _monic_series(spec, p, q, n)


def _monic_series(spec: FamilySpec, p: Params, q: Fraction, n: int) -> Series:
    """x -> k_n^{-1} * (named representation) at x, with k_n and the
    series' x-free quantities computed once.  A division by zero there
    raises one DivisionByZero naming the family, degree, parameters and q."""
    if n < 0:
        raise ValueError(f"a terminating series needs n >= 0, got n = {n}")
    part = f"k_{n}"
    try:
        kn = spec.kn_fn(p, q, n)
        if kn == 0:
            raise DivisionByZero(f"{spec.key}: k_{n} vanishes for these parameters")
        part = f"the degree-{n} series"
        series = spec.series(p, q, n)
    except DivisionByZero:
        raise
    except ZeroDivisionError as exc:
        raise _division_by_zero(spec.key, part, p, q) from exc
    num, den = kn.as_integer_ratio()
    return lambda x: series(x, (den, num))  # scaled by 1/k_n


def _division_by_zero(key: str, part: str, p: Params, q: Fraction) -> DivisionByZero:
    """The refusal of a set-up that divided by zero, naming its family,
    the part being set up, the parameters and q."""
    at = "".join(f"{name}={value} " for name, value in p.items())
    return DivisionByZero(f"{key}: {part} divides by zero at {at}q={q}")


def crosscheck(family: str, n_max: int = 8) -> int:
    """Engine route vs closed form at the family's defaults: monic_poly from
    the instantiated vector must equal hyper_eval's value, with the family
    resolved once and its closed form set up once per n, at the n+1 distinct points
    _sample_xs(n + 1) for every n <= n_max, and the vector's zero pattern must
    land on the family's diagram.  Returns the number of values compared;
    any mismatch raises."""
    spec = FAMILIES[family]
    p = coerce_params(spec, None)
    pv = instantiate(family, p, DEFAULT_Q)
    checked = 0
    for n in range(n_max + 1):
        u = monic_poly(pv, n)
        if u.degree != n or not u.is_monic:
            raise Mismatch(f"{family}: engine polynomial at n={n} is not monic")
        series = _monic_series(spec, p, DEFAULT_Q, n)
        for x in _sample_xs(n + 1):
            lhs = u(x)
            rhs = series(x)
            if lhs != rhs:
                raise Mismatch(
                    f"{family}: n={n}, x={x}: engine {lhs} != closed form {rhs}"
                )
            checked += 1
    if pattern_of(pv) != spec.pattern:
        raise Mismatch(
            f"{family}: default-parameter pattern {pattern_of(pv).as_string()} "
            f"is not the diagram {spec.pattern.as_string()}"
        )
    return checked


def instance_for_label(
    label: str, params: Mapping | None = None, q: Fraction | int | str | None = None
) -> ParameterVector:
    """A vector whose pattern sits at the given diagram label, using the
    registry entry directly or the q <-> 1/q image of its partner.  The
    entry's vector is instantiate's, shared while any caller holds it; a
    partner's image is built anew on each call."""
    if label in FAMILIES:
        return instantiate(label, params, q)
    partner = label[:-1] if label.endswith("'") else label + "'"
    if partner not in FAMILIES:
        raise KeyError(f"no registry entry reaches diagram {label!r}")
    return symmetry.q_invert(instantiate(partner, params, q))


def registry_json() -> list[dict]:
    """CLI-facing registry serialization, ordered by diagram then name."""
    out = []
    for spec in sorted(
        FAMILIES.values(), key=lambda s: (label_sort_key(s.key), s.name)
    ):
        out.append(
            {
                "key": spec.key,
                "name": spec.name,
                "kls_section": spec.kls_section,
                "node_label": spec.key,
                "pattern": spec.pattern.as_string(),
                "params": [
                    {
                        "name": name,
                        "constraint": f"{name} != 0" if name in spec.nonzero else "any rational",
                    }
                    for name in spec.defaults
                ],
                "defaults": {
                    k: format_rational(v) for k, v in spec.defaults.items()
                },
                "newton_form": spec.newton_form,
                "positivity": spec.positivity,
            }
        )
    return out
