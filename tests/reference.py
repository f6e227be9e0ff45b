"""Reference routes shared by the tests: plain Fraction versions of what the
engine computes with integer kernels and closed forms, kept to pin the
engine to them, and the helpers that build the tests' broken vectors.

A reference stays while a test that compares against it kills a mutant of
tests/mutants.py that no other check kills, or pins code that no mutant
of the list reaches yet; a comparison whose every mutant another check
also kills is retired with its reference.  What stays, and the mutant that
only its test kills:

- unreduced_newton_row: "newton_row: step ratios not reduced", killed only
  by test_core.py::test_reduced_newton_row_is_the_unreduced_row_over_a_positive_factor;
- fitted_instantiate, with CLOSED_FORMS, solve_linear and laurent_inverse:
  "error: constraint refusal without the family", killed only by
  test_catalog.py::test_instantiate_matches_direct_elimination;
- triangle_rows, fraction_horner, fraction_values, fraction_first_repeat,
  fraction_constraint_failure, nested_loop_collision and duality_check
  (test_core.py, test_symmetry.py, test_acceptance.py): none; each mutant
  they kill is killed by another check too, and each test checks more than
  the list's mutants reach (the collision tests, the Newton triangle summed
  over the basis, the normalized sum, the pairwise repeat search, a
  duality relation that reads no engine kernel);
- oracle_qpoch and oracle_qhyper (test_qseries.py): textbook term-by-term
  products and sums, independent of the engine's term loop, not copies of
  a kernel;
- terminating_sum_of_fractions and qhyper: adapters that hand rational
  parameters to the engine's terminating_sum, not references.
"""

from fractions import Fraction, Fraction as F
from functools import cache

from qscheme import catalog
from qscheme.core import ParameterVector, UncheckedParameterVector, normalized_poly
from qscheme.errors import (
    HSeparationViolated,
    InadmissibleParams,
    Mismatch,
    QSchemeError,
)
from qscheme.qpolynomial import Poly, _over_lcm
from qscheme.qrational import admissible_q, rational
from qscheme.qseries import terminating_sum
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
    """Row n of the triangle as integers with no step reduced: with h and g
    given as (H, Dh) and (G, Dg), N_k = prod_{j>k} G_j*Dh
    * prod_{j<=k} Dg*(H_n - H_{j-1}), each entry its own product."""
    (big, dh), (gs, dg) = h, g
    row = []
    for k in range(n + 1):
        value = 1
        for j in range(k + 1, n + 1):
            value *= gs[j] * dh
        for j in range(1, k + 1):
            value *= dg * (big[n] - big[j - 1])
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


def fraction_values(pv, which: int, m: int) -> tuple[F, ...]:
    """node (which = 0), eigenvalue (1) or lowering (2) at k < m, as the
    vector's Fraction view gives them, one value per call."""
    at = (pv.node, pv.eigenvalue, pv.lowering)[which]
    return tuple(at(k) for k in range(m))


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
