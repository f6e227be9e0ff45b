"""Reference routes shared by the tests: plain Fraction versions of what the
engine computes with integer kernels and closed forms, kept to pin the
engine to them."""

from fractions import Fraction as F
from functools import cache

from qscheme import catalog
from qscheme.errors import HSeparationViolated, QSchemeError
from qscheme.qpolynomial import Poly


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
