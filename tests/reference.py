"""Reference routes shared by the tests: plain Fraction versions of what the
engine computes with integer kernels and closed forms, kept to pin the
engine to them, and the helpers that build the tests' broken vectors."""

from dataclasses import dataclass
from fractions import Fraction, Fraction as F
from functools import cache

from qscheme import catalog
from qscheme.core import (
    ParameterVector,
    UncheckedParameterVector,
    monic_poly,
    normalized_poly,
    recurrence_coeffs,
)
from qscheme.errors import (
    DivisionByZero,
    HSeparationViolated,
    InadmissibleParams,
    Mismatch,
    QSchemeError,
)
from qscheme.qpolynomial import Poly, _over_lcm
from qscheme.qrational import admissible_q, rational
from qscheme.catalog import _halfsq, _sign
from qscheme.limits import DEFAULT_SAMPLE_XS
from qscheme.qseries import qpoch, qpoch_many, terminating_sum
from qscheme.symmetry import dualize


def perturbed(
    pv: ParameterVector,
    *,
    a: tuple | None = None,
    b: tuple | None = None,
    d: tuple | None = None,
) -> UncheckedParameterVector:
    """Copy a vector with fields replaced, skipping constraint checks."""
    return UncheckedParameterVector(
        q=pv.q,
        a=a if a is not None else pv.a,
        b=b if b is not None else pv.b,
        d=d if d is not None else pv.d,
    )


def repeating_1a(s: int) -> ParameterVector:
    """The default 1a with a2 = a1*q**s, and d4 = q*a2*b2 and d0 solved
    again so that the d sum to zero: an admissible vector whose eigenvalues
    first repeat at the pair (n, j) with n + j = s, n = s // 2 + 1."""
    pv = catalog.instantiate("1a")
    (a0, a1, _), b, (_, d1, d2, d3, _) = pv.a, pv.b, pv.d
    a2 = a1 * pv.q**s
    d4 = pv.q * a2 * b[2]
    return ParameterVector(pv.q, (a0, a1, a2), b, (-(d1 + d2 + d3 + d4), d1, d2, d3, d4))


# The checks of `verify all` that build a vector of 2b or its q-inverse
# 2b', in report order: a refusal of 2b fails exactly these.
CHECKS_BUILDING_2B = (
    "constraints/2b",
    "recurrence/2b",
    "eigen/2b",
    "catalog/2b",
    "limits/2b->3d",
    "limits/2b->3e",
    "charts/A2B2/2b",
    "charts/A2D0_D1/2b",
    "charts/A2D0_D1/2b'",
    "charts/A2D0_D2/2b",
    "charts/A2D0_D2/2b'",
    "symmetry/gauge-1",
)


def refuse_2b(monkeypatch) -> None:
    """Make catalog.instantiate refuse every 2b vector with the message
    '2b: refused on purpose'; other families build as before."""
    real = catalog.instantiate

    def refusing(key, *args):
        if key == "2b":
            raise InadmissibleParams("2b: refused on purpose")
        return real(key, *args)

    monkeypatch.setattr(catalog, "instantiate", refusing)


def fraction_constraint_failure(q, a, b, d) -> str | None:
    """Reference: the message of the first constraint a vector with these
    fields breaks, or None, checked on Fractions in the constructor's order."""
    if not admissible_q(q):
        return f"base q = {q} must avoid 0 and +/-1"
    if sum(d) != 0:
        return "d coefficients must sum to zero"
    if d[3] != a[1] * b[1] / q:
        return "d3 must equal a1*b1/q"
    if d[4] != q * a[2] * b[2]:
        return "d4 must equal q*a2*b2"
    if a[1] == 0 and a[2] == 0:
        return "a1 and a2 cannot both vanish"
    if all(v == 0 for v in d):
        return "all lowering coefficients vanish (degenerate family)"
    return None


def fraction_first_repeat(c1: Fraction, c2: Fraction, q: Fraction) -> tuple[int, int] | None:
    """Reference: the first (n, j), j < n, with s_n == s_j for s_k = c0 +
    c1*q**k + c2*q**-k, or None, decided on Fractions: a repeat at q = 1 or
    c1 = c2 = 0, period 2 at q = -1, and otherwise c2/c1 = q**s with
    s = n + j, searched on the numerator and denominator of q**s until they
    outgrow those of c2/c1.  q = 0 raises ZeroDivisionError."""
    if q == 0:
        raise ZeroDivisionError("q = 0 leaves q**-k undefined")
    if q == 1 or c1 == c2 == 0:
        return 1, 0
    if q == -1:
        return (1, 0) if c1 + c2 == 0 else (2, 0)
    if c1 == 0 or c2 == 0:
        return None
    num, den = (c2 / c1).as_integer_ratio()
    p, r = q.as_integer_ratio()
    P, R, s = p, r, 1
    while abs(P) <= abs(num) and R <= den:
        if (P, R) == (num, den):
            return s // 2 + 1, s - s // 2 - 1
        P, R, s = P * p, R * r, s + 1
    return None


def duality_check(pv: ParameterVector, n: int, m: int) -> bool:
    """Reference: U_n(node(m)) == dual U_m(eigenvalue(n)) for one pair, the
    dual read off the dual vector, both polynomials built for it; verify's
    duality suite builds each once."""
    lhs = normalized_poly(pv, n)(pv.node(m))
    rhs = normalized_poly(dualize(pv), m)(pv.eigenvalue(n))
    return lhs == rhs


def outcome(fn, *args):
    """A call's value, or the type and message of the QSchemeError it raised."""
    try:
        return fn(*args)
    except QSchemeError as exc:
        return type(exc), str(exc)


def nested_loop_collision(values, depth: int):
    """The first j < n <= depth, in (n, j) order, with values(n) == values(j),
    found by comparing every pair."""
    for n in range(1, depth + 1):
        for j in range(n):
            if values(n) == values(j):
                return n, j
    return None


def fraction_horner(coeffs, nodes) -> Poly:
    """sum_k coeffs[k] prod_{j<k} (x - nodes[j]) by the Newton-to-monomial
    Horner on a list of Fractions."""
    acc = []  # low degree first
    for k in range(len(coeffs) - 1, -1, -1):
        node = nodes[k]
        acc.insert(0, F(0))
        for i in range(len(acc) - 1):
            acc[i] -= node * acc[i + 1]
        acc[0] += coeffs[k]
    return Poly(acc)


def unreduced_newton_row(h, g, n: int) -> list[int]:
    """Row n of the triangle as integers with no step reduced: with h given
    as (H, Dh) and g_j = a_j/b_j as the pair (a_j, b_j), N_k = prod_{j>k}
    a_j*Dh * prod_{j<=k} b_j*(H_n - H_{j-1}), each entry its own product."""
    big, dh = h
    row = []
    for k in range(n + 1):
        value = 1
        for j in range(k + 1, n + 1):
            value *= g[j][0] * dh
        for j in range(1, k + 1):
            value *= g[j][1] * (big[n] - big[j - 1])
        row.append(value)
    return row


def triangle_rows(pv, order: int):
    """The whole triangle up to order, built row by row by the Fraction
    recursion c[n][k] = c[n][k+1] g[k+1] / (h[n] - h[k]); returns the rows
    before the first collision and that collision's error (None when there
    is none)."""
    h = [pv.eigenvalue(k) for k in range(order + 1)]
    g = [pv.lowering(k) for k in range(order + 1)]
    rows = []
    for n in range(order + 1):
        row = [F(0)] * (n + 1)
        row[n] = F(1)
        for k in range(n - 1, -1, -1):
            denom = h[n] - h[k]
            if denom == 0:
                return rows, HSeparationViolated(n, k)
            row[k] = row[k + 1] * g[k + 1] / denom
        rows.append(row)
    return rows, None


MONIC_DEGREE = 24


@cache
def catalog_monic_polys(key: str, q: F):
    """The family's default instance at q, built once per session: its
    (node, eigenvalue, lowering) values and the outcome of u_n for
    k, n <= MONIC_DEGREE, u_n the Fraction Horner of row n of the whole
    triangle or the triangle's collision error.  None when the family
    refuses q."""
    try:
        pv = catalog.instantiate(key, None, q)
    except QSchemeError:
        return None
    seqs = tuple(
        tuple(f(k) for k in range(MONIC_DEGREE + 1)) for f in (pv.node, pv.eigenvalue, pv.lowering)
    )
    rows, error = triangle_rows(pv, MONIC_DEGREE)
    us = [fraction_horner(row, seqs[0]) for row in rows]
    us += [(type(error), str(error))] * (MONIC_DEGREE + 1 - len(rows))
    return seqs, tuple(us)


@dataclass(frozen=True)
class FractionPoly:
    """Reference: the polynomial type that stored one reduced Fraction per
    coefficient, low degree first with no trailing zeros, with its Fraction
    arithmetic and formatting.  Evaluation, affine composition and deflation
    are the Fraction Horner routes the integer kernels were pinned to."""

    coeffs: tuple = ()

    def __post_init__(self):
        out = [rational(c) for c in self.coeffs]
        while out and out[-1] == 0:
            out.pop()
        object.__setattr__(self, "coeffs", tuple(out))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coeff(self, i: int) -> F:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return F(0)

    def __add__(self, other: "FractionPoly") -> "FractionPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return FractionPoly(out)

    def __neg__(self) -> "FractionPoly":
        return FractionPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "FractionPoly") -> "FractionPoly":
        return self + (-other)

    def __mul__(self, other) -> "FractionPoly":
        if not isinstance(other, FractionPoly):
            s = rational(other)
            return FractionPoly(tuple(c * s for c in self.coeffs))
        if self.is_zero or other.is_zero:
            return FractionPoly()
        out = [F(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return FractionPoly(out)

    def __rmul__(self, other) -> "FractionPoly":
        return self * other

    def __pow__(self, n: int) -> "FractionPoly":
        result = FractionPoly((1,))
        for _ in range(n):
            result = result * self
        return result

    def __call__(self, x) -> F:
        """Horner on Fractions, one reduced Fraction per step."""
        x = F(x)
        acc = F(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose_affine(self, scale, shift=0) -> "FractionPoly":
        """A Horner over FractionPoly in the argument scale*x + shift."""
        arg = FractionPoly((rational(shift), rational(scale)))
        acc = FractionPoly()
        for c in reversed(self.coeffs):
            acc = acc * arg + FractionPoly((c,))
        return acc

    def deflate(self, root) -> tuple["FractionPoly", F]:
        """Synthetic division by (x - root) on Fractions: (quotient, remainder)."""
        root = rational(root)
        acc = F(0)
        out: list[F] = []
        for c in reversed(self.coeffs):
            acc = acc * root + c
            out.append(acc)
        if not out:
            return FractionPoly(), F(0)
        rem = out.pop()
        out.reverse()
        return FractionPoly(out), rem

    def format(self) -> str:
        """Highest degree first, each coefficient written from its
        numerator and denominator."""
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            num, den = c.numerator, c.denominator
            if not num:
                continue
            mag = -num if num < 0 else num
            text = str(mag) if den == 1 else f"{mag}/{den}"
            if i == 0:
                body = text
            else:
                xpow = "x" if i == 1 else f"x^{i}"
                body = xpow if mag == 1 and den == 1 else f"{text} {xpow}"
            if not parts:
                parts.append(f"-{body}" if num < 0 else body)
            else:
                parts.append(f"{'-' if num < 0 else '+'} {body}")
        return " ".join(parts)


def fraction_deflate(p: Poly, root) -> tuple[Poly, F]:
    """Reference: synthetic division by (x - root) on Fractions, returning
    (quotient, remainder)."""
    quotient, rem = FractionPoly(p.coeffs).deflate(root)
    return Poly(quotient.coeffs), rem


def fraction_values(pv, which: int, m: int) -> tuple[F, ...]:
    """node (which = 0), eigenvalue (1) or lowering (2) at k < m, as the
    vector's Fraction view gives them, one value per call."""
    at = (pv.node, pv.eigenvalue, pv.lowering)[which]
    return tuple(at(k) for k in range(m))


def fraction_to_newton_coeffs(pv, p: Poly) -> list[F]:
    """Reference: coefficients e_k with p = sum e_k v_k, by repeated node
    deflation on Fractions."""
    out: list[F] = []
    rest = p
    for node in fraction_values(pv, 0, p.degree + 1):
        rest, value = fraction_deflate(rest, node)
        out.append(value)
    if not out:
        out.append(F(0))
    return out


def fraction_apply_operator(pv, p: Poly) -> Poly:
    """Reference: L v_k = eigenvalue(k) v_k + lowering(k) v_{k-1} applied
    termwise to the Fraction Newton coefficients of p."""
    e = fraction_to_newton_coeffs(pv, p)
    h, g = fraction_values(pv, 1, len(e)), fraction_values(pv, 2, len(e))
    out = []
    for k in range(len(e)):
        value = h[k] * e[k]
        if k + 1 < len(e):
            value += g[k + 1] * e[k + 1]
        out.append(value)
    return fraction_horner(out, fraction_values(pv, 0, len(out)))


def poly_recurrence_check(pv, n: int) -> bool:
    """Reference: the three-term recurrence as one Poly equation, summed by
    Poly products and sums on Fractions."""
    if n == 0:
        lhs = Poly.x() * monic_poly(pv, 0)
        rhs = monic_poly(pv, 1) + recurrence_coeffs(pv, 0)[0] * monic_poly(pv, 0)
        return lhs == rhs
    a_n, b_n = recurrence_coeffs(pv, n)
    lhs = Poly.x() * monic_poly(pv, n)
    rhs = (
        monic_poly(pv, n + 1)
        + a_n * monic_poly(pv, n)
        + b_n * monic_poly(pv, n - 1)
    )
    return lhs == rhs


def poly_product_of_linear(roots) -> Poly:
    """Reference: one Poly product per monic linear factor."""
    acc = Poly.one()
    for r in roots:
        acc = acc * Poly.linear(r)
    return acc


def poly_compose_affine(p: Poly, scale, shift=0) -> Poly:
    """Reference: a Horner over FractionPoly in the argument scale*x + shift."""
    return Poly(FractionPoly(p.coeffs).compose_affine(scale, shift).coeffs)


def per_term_inverse_arg_series(n, q, x, node_scale, weight, upper_extra, lower, correction):
    """Reference: every term rebuilt from qpoch products, the triangular power
    taken as q ** (k(k-1)/2 * correction)."""
    total = F(0)
    for k in range(n + 1):
        num = qpoch(q ** (-n), q, k) * qpoch_many(upper_extra, q, k)
        if num == 0:
            break
        den = qpoch(q, q, k) * qpoch_many(lower, q, k)
        if den == 0:
            raise DivisionByZero(f"denominator vanished at term {k} of a terminating series")
        term = num / den * weight**k
        for j in range(k):
            term *= x - node_scale * q**j
        if correction:
            sign = -1 if (k * correction) % 2 else 1
            term *= sign * q ** (k * (k - 1) // 2 * correction)
        total += term
    return total


def per_term_z_series(n, q, x, anchor, upper_extra, lower):
    """Reference: every term rebuilt from qpoch products and the paired
    product prod_{j<k} (1 - anchor q^j x + anchor^2 q^{2j})."""
    total = F(0)
    for k in range(n + 1):
        num = qpoch(q ** (-n), q, k) * qpoch_many(upper_extra, q, k)
        if num == 0:
            break
        den = qpoch(q, q, k) * qpoch_many(lower, q, k)
        if den == 0:
            raise DivisionByZero(f"denominator vanished at term {k} of a terminating series")
        paired = F(1)
        for j in range(k):
            paired *= 1 - anchor * q**j * x + anchor * anchor * q ** (2 * j)
        total += num / den * q**k * paired
    return total


def terminating_sum_of_fractions(upper, lower, q, n, step, scale=(1, 1)):
    """terminating_sum on rational parameters and a step (coeffs, low) of
    rational Laurent coefficients, handed over in its integer forms: each
    parameter as its pair (num, den) and the coefficients as numerators over
    their lcm."""
    coeffs, low = step
    nums, den = _over_lcm([F(c).as_integer_ratio() for c in coeffs])
    pairs = lambda values: [F(v).as_integer_ratio() for v in values]
    return terminating_sum(pairs(upper), pairs(lower), q, n, (nums, den, low), scale)


def qhyper(upper, lower, q, z, n):
    """The terminating r_phi_s with these parameters at the argument z, on
    terminating_sum: the step factor z (-q^j)^c, c = s - r + 1.  The
    per-x representations keep x among the upper parameters here, where the
    catalog moves it into the step factor."""
    c = len(lower) - len(upper) + 1
    return terminating_sum_of_fractions(upper, lower, q, n, ((-z if c % 2 else z,), c))


# -- the closed forms as they were evaluated point by point -------------------------
#
# The catalog's series before they became per-degree set-ups: every x-free
# quantity rebuilt at each x.  The helpers and the family lambdas are kept
# as they were, renamed per_x_*.


def per_x_z_step(q: Fraction, x: Fraction, anchor: Fraction) -> tuple[tuple[Fraction, ...], int]:
    """The z-series step factor q * (1 - anchor q^j x + anchor^2 q^{2j}),
    i.e. q times the paired factor (1 - anchor q^j z)(1 - anchor q^j / z),
    as its Laurent coefficients in q^j from the power 0."""
    return (q, -q * anchor * x, q * anchor * anchor), 0


def per_x_z_series(
    n: int,
    q: Fraction,
    x: Fraction,
    anchor: Fraction,
    upper_extra: tuple[Fraction, ...],
    lower: tuple[Fraction, ...],
) -> Fraction:
    """sum_k (q^{-n};q)_k (upper_extra;q)_k / ((q;q)_k (lower;q)_k)
    * q^k * prod_{j<k}(1 - anchor q^j x + anchor^2 q^{2j})."""
    return terminating_sum_of_fractions((q ** (-n), *upper_extra), lower, q, n, per_x_z_step(q, x, anchor))


def per_x_inverse_arg_series(
    n: int,
    q: Fraction,
    x: Fraction,
    node_scale: Fraction,
    weight: Fraction,
    upper_extra: tuple[Fraction, ...] = (),
    lower: tuple[Fraction, ...] = (),
    correction: int = 0,
) -> Fraction:
    """Series whose terms carry (node_scale/x; q)_k * (weight*x)^k, absorbed
    into the polynomial product weight^k * prod_{j<k} (x - node_scale*q^j)
    so that x = 0 is a legal argument.  `correction` is the usual
    sign/triangular-power exponent c of the underlying series: the step
    factor weight * (x - node_scale*q^j) * (-q^j)^c has the Laurent
    coefficients s*weight*x, -s*weight*node_scale from the power c, s = (-1)^c."""
    sw = -weight if correction % 2 else weight
    return terminating_sum_of_fractions(
        (q ** (-n), *upper_extra), lower, q, n, ((sw * x, -sw * node_scale), correction)
    )


def per_x_cdqhahn_value(
    q: Fraction, n: int, x: Fraction, anchor: Fraction, o1: Fraction, o2: Fraction
) -> Fraction:
    """Monic continuous dual q-Hahn value anchored at one of its parameters."""
    if anchor == 0:
        raise InadmissibleParams("continuous dual q-Hahn anchor must be nonzero")
    pref = qpoch_many((anchor * o1, anchor * o2), q, n) / anchor**n
    return pref * per_x_z_series(n, q, x, anchor, (), (anchor * o1, anchor * o2))


def per_x_little_qjacobi_value(p, q: Fraction, n: int, x: Fraction) -> Fraction:
    """Little q-Jacobi in standard normalization, power-basis series."""
    a, b = p["a"], p["b"]
    return qhyper(
        (q ** (-n), a * b * q ** (n + 1)), (q * a,), q, q * x, n
    )


def per_x_little_qjacobi_value_inverse_rep(
    p, q: Fraction, n: int, x: Fraction
) -> Fraction:
    """The same polynomial through its 1/x-parameter series; a division by
    zero in its x-free part is refused as the catalog refuses it."""
    a, b = p["a"], p["b"]
    sign = -1 if n % 2 else 1
    try:
        pref = sign * q ** (n * (n + 1) // 2) * a**n * qpoch(b * q, q, n) / qpoch(a * q, q, n)
        weight = 1 / a
    except ZeroDivisionError as exc:
        raise DivisionByZero(f"3e: the degree-{n} 1/x series divides by zero at a={a} b={b} q={q}") from exc
    return pref * per_x_inverse_arg_series(
        n,
        q,
        x,
        node_scale=Fraction(1),
        weight=weight,
        upper_extra=(a * b * q ** (n + 1),),
        lower=(q * b,),
        correction=-1,
    )


def per_x_qbessel_value(p, q: Fraction, n: int, x: Fraction) -> Fraction:
    """q-Bessel in standard normalization, power-basis series."""
    a = p["a"]
    return qhyper((q ** (-n), -a * q**n), (Fraction(0),), q, q * x, n)


def per_x_qbessel_value_inverse_rep(p, q: Fraction, n: int, x: Fraction) -> Fraction:
    """The same polynomial through its 1/x-parameter series."""
    a = p["a"]
    sign = -1 if n % 2 else 1
    pref = sign * q ** (n * n) * a**n
    return pref * per_x_inverse_arg_series(
        n,
        q,
        x,
        node_scale=Fraction(1),
        weight=-1 / a,
        upper_extra=(-a * q**n,),
        correction=-2,
    )


PER_X_NAMED = {
    "1a": lambda p, q, n, x: qpoch_many(
            (p["a"] * p["b"], p["a"] * p["c"], p["a"] * p["d"]), q, n
        )
        / p["a"] ** n
        * per_x_z_series(
            n,
            q,
            x,
            p["a"],
            (q ** (n - 1) * p["a"] * p["b"] * p["c"] * p["d"],),
            (p["a"] * p["b"], p["a"] * p["c"], p["a"] * p["d"]),
        ),
    "2a": lambda p, q, n, x: per_x_cdqhahn_value(q, n, x, p["a"], p["b"], p["c"]),
    "2b": lambda p, q, n, x: qhyper(
            (q ** (-n), p["a"] * p["b"] * q ** (n + 1), x),
            (q * p["a"], q * p["c"]),
            q,
            q,
            n,
        ),
    "3a": lambda p, q, n, x: qpoch(p["a"] * p["b"], q, n)
        / p["a"] ** n
        * per_x_z_series(n, q, x, p["a"], (), (p["a"] * p["b"], Fraction(0))),
    "3b": lambda p, q, n, x: (-p["b"]) ** n
        * q ** (n * (n + 1) // 2)
        * per_x_inverse_arg_series(
            n, q, x, node_scale=q * p["a"], weight=1 / p["b"], lower=(q * p["a"],)
        )
        / qpoch(q * p["b"], q, n),
    "3c": lambda p, q, n, x: qhyper(
            (q ** (-n), Fraction(0), x), (q * p["a"], q * p["b"]), q, q, n
        ),
    "3d": lambda p, q, n, x: (-q * p["b"]) ** (-n)
        * q ** (-_halfsq(n))
        * qpoch(q * p["b"], q, n)
        / qpoch(q * p["a"], q, n)
        * qhyper(
            (q ** (-n), p["a"] * p["b"] * q ** (n + 1), q * p["b"] * x),
            (q * p["b"], Fraction(0)),
            q,
            q,
            n,
        ),
    "3e": lambda p, q, n, x: per_x_little_qjacobi_value(p, q, n, x),
    "4a": lambda p, q, n, x: per_x_z_series(n, q, x, p["a"], (), ())
        / p["a"] ** n,
    "4b": lambda p, q, n, x: qpoch(p["b"], q, n)
        * qhyper((q ** (-n), x), (p["b"],), q, q, n),
    "4c": lambda p, q, n, x: (-p["a"]) ** n
        * q ** (_halfsq(n))
        * per_x_inverse_arg_series(
            n, q, x, node_scale=Fraction(1), weight=q / p["a"]
        ),
    "4d": lambda p, q, n, x: _sign(n)
        * q ** (n * (n + 1) // 2)
        * p["a"] ** n
        / qpoch(q * p["a"], q, n)
        * per_x_inverse_arg_series(
            n, q, x, node_scale=Fraction(1), weight=1 / p["a"], correction=-1
        ),
    "4e": lambda p, q, n, x: qhyper(
            (q ** (-n), Fraction(0)), (q * p["a"],), q, q * x, n
        ),
    "4f'": lambda p, q, n, x: per_x_qbessel_value_inverse_rep(p, q, n, x),
    "4g": lambda p, q, n, x: per_x_qbessel_value(p, q, n, x),
    "5a": lambda p, q, n, x: qhyper(
            (q ** (-n), x), (Fraction(0),), q, q, n
        ),
    "5b": lambda p, q, n, x: qhyper((q ** (-n),), (), q, q * x, n),
    "5c'": lambda p, q, n, x: qhyper(
            (q ** (-n),), (Fraction(0),), q, -(q ** (n + 1)) * x, n
        )
        / qpoch(q, q, n),
}


def closed_outcome(fn, *args):
    """outcome, also for the ZeroDivisionError of a vanishing prefactor."""
    try:
        return outcome(fn, *args)
    except ZeroDivisionError as exc:
        return type(exc), str(exc)


def per_x_monic_value(key: str, q: F, n: int, x: F) -> F:
    """k_n^{-1} times the family's per-x named representation at its
    defaults, refused as hyper_eval refuses a k_n that vanishes or divides
    by zero."""
    spec = catalog.FAMILIES[key]
    p = catalog.coerce_params(spec, None)
    try:
        kn = spec.kn_fn(p, q, n)
    except ZeroDivisionError as exc:
        at = "".join(f"{name}={value} " for name, value in p.items())
        raise DivisionByZero(f"{key}: k_{n} divides by zero at {at}q={q}") from exc
    if kn == 0:
        raise DivisionByZero(f"{key}: k_{n} vanishes for these parameters")
    return PER_X_NAMED[key](p, q, n, x) / kn


CLOSED_FORM_DEGREE = 8


@cache
def per_x_closed_forms(key: str, q: F) -> dict:
    """(n, x) -> the outcome of per_x_monic_value for n <= CLOSED_FORM_DEGREE
    and x in catalog._sample_xs(n + 1), built once per session."""
    return {
        (n, x): outcome(per_x_monic_value, key, q, n, x)
        for n in range(CLOSED_FORM_DEGREE + 1)
        for x in catalog._sample_xs(n + 1)
    }


def fraction_terminating_sum(upper, lower, q, n, step):
    """Reference: the Fraction term loop that terminating_sum replaced, with
    the numerator, denominator and step product kept as running Fractions
    and the step's Laurent coefficients (coeffs, low) turned into the
    Fraction lambda sum_i coeffs[i] * qj**(low + i)."""
    if n < 0:
        raise ValueError(f"a terminating series needs n >= 0, got n = {n}")
    coeffs, low = step
    step = lambda qj: sum(c * qj ** (low + i) for i, c in enumerate(coeffs))
    num = den = steps = F(1)
    total = F(0)
    qj = F(1)
    for k in range(n + 1):
        if k > 0:
            for a in upper:
                num *= 1 - a * qj
            if num == 0:
                break
            for b in lower:
                den *= 1 - b * qj
            steps *= step(qj)
            qj *= q
            den *= 1 - qj
            if den == 0:
                raise DivisionByZero(
                    f"denominator vanished at term {k} of a terminating series"
                )
        total += num / den * steps
    return total


def fraction_series_row(pref, upper, lower, q, n, low, const, slope, x):
    """Reference: a catalog _series row at x on Fractions: every parameter
    as given, a 0 included ((0; q)_k = 1), each step coefficient c + s*x,
    the Fraction term loop and the prefactor multiplied in last."""
    coeffs = [F(c) + F(s) * x for c, s in zip(const, slope)]
    return pref * fraction_terminating_sum((q ** (-n), *upper), lower, q, n, (coeffs, low))


def fraction_eval(p: Poly, x) -> F:
    """Reference: Horner on Fractions, one reduced Fraction per step."""
    return FractionPoly(p.coeffs)(x)


def fraction_gap(source, target, n: int) -> F:
    """Reference: the limit gap as the Poly difference of the two monic
    polynomials evaluated at each sample, maximised over Fractions."""
    diff = monic_poly(source, n) - monic_poly(target, n)
    return max(abs(diff(x)) for x in DEFAULT_SAMPLE_XS)


def fraction_format_poly(p: Poly) -> str:
    """Reference: format_poly on Fraction comparisons, abs and str."""
    if p.is_zero:
        return "0"
    parts: list[str] = []
    for i in range(p.degree, -1, -1):
        c = p.coeffs[i]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            xpow = "x" if i == 1 else f"x^{i}"
            body = xpow if mag == 1 else f"{mag} {xpow}"
        if not parts:
            parts.append(f"-{body}" if sign == "-" else body)
        else:
            parts.append(f"{sign} {body}")
    return " ".join(parts)


def oracle_qpoch(b: F, q: F, k: int) -> F:
    """Reference: (b; q)_k as a product of k Fraction factors."""
    total = F(1)
    for j in range(k):
        total *= 1 - b * q**j
    return total


def oracle_qhyper(upper, lower, q, z, n) -> F:
    """Textbook term-by-term sum; every term built from scratch."""
    e = len(lower) - len(upper) + 1
    total = F(0)
    for k in range(n + 1):
        num = F(1)
        for a in upper:
            num *= oracle_qpoch(a, q, k)
        if num == 0:
            continue
        den = oracle_qpoch(q, q, k)
        for b in lower:
            den *= oracle_qpoch(b, q, k)
        term = num / den * z**k
        term *= (F(-1) ** k * q ** (k * (k - 1) // 2)) ** e
        total += term
    return total


# -- the catalog's sequences as closed forms ---------------------------------------
#
# Each family's node, eigenvalue and lowering sequences in the factored forms
# of Koekoek, Lesky & Swarttouw (2010), ch. 14.  The registry states their
# Laurent coefficients; fitted_instantiate recovers those from these forms.


def _sym_node(p, q, k):
    a = p["a"]
    return a * q**k + q ** (-k) / a


def _hk_qinv_minus_one(p, q, k):
    return q ** (-k) - 1


CLOSED_FORMS = {
    "1a": dict(
        node_fn=_sym_node,
        eigen_fn=lambda p, q, k: q ** (-k)
        * (1 - q**k)
        * (1 - p["a"] * p["b"] * p["c"] * p["d"] * q ** (k - 1)),
        lowering_fn=lambda p, q, k: q ** (-2 * k + 1)
        / p["a"]
        * (1 - p["a"] * p["b"] * q ** (k - 1))
        * (1 - p["a"] * p["c"] * q ** (k - 1))
        * (1 - p["a"] * p["d"] * q ** (k - 1))
        * (1 - q**k),
    ),
    "2a": dict(
        node_fn=_sym_node,
        eigen_fn=_hk_qinv_minus_one,
        lowering_fn=lambda p, q, k: q ** (-2 * k + 1)
        / p["a"]
        * (1 - p["a"] * p["b"] * q ** (k - 1))
        * (1 - p["a"] * p["c"] * q ** (k - 1))
        * (1 - q**k),
    ),
    "2b": dict(
        node_fn=lambda p, q, k: q ** (-k),
        eigen_fn=lambda p, q, k: (1 - q ** (-k)) * (-1 + q ** (k + 1) * p["a"] * p["b"]),
        lowering_fn=lambda p, q, k: q ** (1 - 2 * k)
        * (1 - p["a"] * q**k)
        * (1 - p["c"] * q**k)
        * (1 - q**k),
    ),
    "3a": dict(
        node_fn=_sym_node,
        eigen_fn=_hk_qinv_minus_one,
        lowering_fn=lambda p, q, k: q ** (-2 * k + 1)
        / p["a"]
        * (1 - p["a"] * p["b"] * q ** (k - 1))
        * (1 - q**k),
    ),
    "3b": dict(
        node_fn=lambda p, q, k: p["a"] * q ** (k + 1),
        eigen_fn=_hk_qinv_minus_one,
        lowering_fn=lambda p, q, k: -(q ** (1 - k))
        * p["b"]
        * (1 - p["a"] * q**k)
        * (1 - q**k),
    ),
    "3c": dict(
        node_fn=lambda p, q, k: q ** (-k),
        eigen_fn=_hk_qinv_minus_one,
        lowering_fn=lambda p, q, k: q ** (1 - 2 * k)
        * (1 - p["a"] * q**k)
        * (1 - p["b"] * q**k)
        * (1 - q**k),
    ),
    "3d": dict(
        node_fn=lambda p, q, k: q ** (-k - 1) / p["b"],
        eigen_fn=lambda p, q, k: (1 - q ** (-k)) * (-1 + q ** (k + 1) * p["a"] * p["b"]),
        lowering_fn=lambda p, q, k: (1 - q ** (-k)) * (1 - q ** (-k) / p["b"]),
    ),
    "3e": dict(
        node_fn=lambda p, q, k: Fraction(0),
        eigen_fn=lambda p, q, k: (1 - q ** (-k)) * (-1 + q ** (k + 1) * p["a"] * p["b"]),
        lowering_fn=lambda p, q, k: (1 - q ** (-k)) * (1 - p["a"] * q**k),
    ),
    "4a": dict(
        node_fn=_sym_node,
        eigen_fn=_hk_qinv_minus_one,
        lowering_fn=lambda p, q, k: q ** (1 - 2 * k) / p["a"] * (1 - q**k),
    ),
    "4b": dict(
        node_fn=lambda p, q, k: q ** (-k),
        eigen_fn=_hk_qinv_minus_one,
        lowering_fn=lambda p, q, k: (1 - q ** (-k)) * (p["b"] - q ** (1 - k)),
    ),
    "4c": dict(
        node_fn=lambda p, q, k: q**k,
        eigen_fn=_hk_qinv_minus_one,
        lowering_fn=lambda p, q, k: p["a"] * (1 - q ** (-k)),
    ),
    "4d": dict(
        node_fn=lambda p, q, k: q**k,
        eigen_fn=lambda p, q, k: 1 - q ** (-k),
        lowering_fn=lambda p, q, k: p["a"] * (q**k - 1),
    ),
    "4e": dict(
        node_fn=lambda p, q, k: Fraction(0),
        eigen_fn=lambda p, q, k: 1 - q ** (-k),
        lowering_fn=lambda p, q, k: q ** (-k) * (1 - p["a"] * q**k) * (1 - q**k),
    ),
    "4f'": dict(
        node_fn=lambda p, q, k: q**k,
        eigen_fn=lambda p, q, k: (1 - q ** (-k)) * (1 + p["a"] * q**k),
        lowering_fn=lambda p, q, k: p["a"] * q ** (k - 1) * (q**k - 1),
    ),
    "4g": dict(
        node_fn=lambda p, q, k: Fraction(0),
        eigen_fn=lambda p, q, k: (1 - q ** (-k)) * (1 + p["a"] * q**k),
        lowering_fn=lambda p, q, k: q ** (-k) - 1,
    ),
    "5a": dict(
        node_fn=lambda p, q, k: q ** (-k),
        eigen_fn=_hk_qinv_minus_one,
        lowering_fn=lambda p, q, k: q ** (1 - 2 * k) * (1 - q**k),
    ),
    "5b": dict(
        node_fn=lambda p, q, k: Fraction(0),
        eigen_fn=_hk_qinv_minus_one,
        lowering_fn=lambda p, q, k: 1 - q ** (-k),
    ),
    "5c'": dict(
        node_fn=lambda p, q, k: Fraction(0),
        eigen_fn=lambda p, q, k: q**k - 1,
        lowering_fn=lambda p, q, k: q ** (-k) - 1,
    ),
}

LAURENT_POWERS = ((0, 1, -1), (0, 1, -1, 2, -2))


def solve_linear(rows: list[list[F]], rhs: list[F]) -> list[F]:
    """Exact Gaussian elimination (systems here are 3x3 and 5x5)."""
    n = len(rows)
    m = [list(row) + [rhs[i]] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[pivot] = m[pivot], m[col]
        head = m[col][col]
        m[col] = [v / head for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[col])]
    return [m[i][n] for i in range(n)]


@cache
def laurent_inverse(q: F, powers: tuple[int, ...]) -> list[list[F]]:
    """The inverse of the matrix (q**(e*k)), k = 0..len(powers)-1, one
    column solved by elimination per unit vector."""
    rows = [[q ** (e * k) for e in powers] for k in range(len(powers))]
    unit = [[F(int(i == j)) for i in range(len(powers))] for j in range(len(powers))]
    columns = [solve_linear(rows, e) for e in unit]
    return [list(row) for row in zip(*columns)]


def fitted_instantiate(family, params=None, q=None) -> ParameterVector:
    """Reference: the vector whose Laurent coefficients interpolate the
    family's closed forms, solved by elimination from their values at
    k = 0..2 (node, eigenvalue) and k = 0..4 (lowering), then checked
    against them at k = 0..8; refusals as instantiate words them."""
    spec = catalog.FAMILIES[family]
    q = rational(q) if q is not None else catalog.DEFAULT_Q
    if not admissible_q(q):
        raise InadmissibleParams(f"base q = {q} must avoid 0 and +/-1")
    p = catalog.coerce_params(spec, params)
    forms = CLOSED_FORMS[family]
    closed = [
        [forms[name](p, q, k) for k in range(9)]
        for name in ("node_fn", "eigen_fn", "lowering_fn")
    ]

    def fit(values, powers):
        inverse = laurent_inverse(q, powers)
        return [sum(c * v for c, v in zip(row, values)) for row in inverse]

    b = fit(closed[0][:3], LAURENT_POWERS[0])
    a = fit(closed[1][:3], LAURENT_POWERS[0])
    d = fit(closed[2][:5], LAURENT_POWERS[1])
    try:
        pv = ParameterVector(q=q, a=a, b=b, d=d)
    except Exception as exc:
        raise InadmissibleParams(f"{family}: {exc}") from exc
    for k in range(9):
        if (pv.node(k), pv.eigenvalue(k), pv.lowering(k)) != tuple(row[k] for row in closed):
            raise Mismatch(f"{family}: solved coefficients disagree with closed forms at k={k}")
    return pv
