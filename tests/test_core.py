"""The parameter-vector engine: sequences, expansions, operator, recurrence,
finite cutoffs and duality, each checked against an independent brute-force
route before trusting frozen values."""

import copy
import pickle
import random
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F
from math import gcd, lcm

import pytest

from qscheme import catalog, core
from qscheme.core import (
    ParameterVector,
    UncheckedParameterVector,
    apply_operator,
    monic_poly,
    normalized_poly,
    recurrence_check,
    recurrence_coeffs,
    to_newton_coeffs,
)
from qscheme.errors import (
    ConstraintViolation,
    HSeparationViolated,
    InadmissibleParams,
    Mismatch,
    XSeparationViolated,
    ZeroG,
)
from qscheme.qpolynomial import Poly, product_of_linear
from qscheme.symmetry import GaugeAction, apply_gauge, dualize
from qscheme.verify import Q_POOL, random_broken_vector, random_parameter_vector
from reference import (
    duality_check,
    fraction_constraint_failure,
    fraction_first_repeat,
    fraction_horner,
    fraction_values,
    nested_loop_collision,
    outcome,
    perturbed,
    triangle_rows,
    unreduced_newton_row,
)


def oracle_coeff(pv, n: int, k: int) -> F:
    """Direct product form of the expansion coefficient."""
    total = F(1)
    for j in range(k, n):
        total *= pv.lowering(j + 1) / (pv.eigenvalue(n) - pv.eigenvalue(j))
    return total


def newton_coeffs(pv, n: int) -> list[F]:
    """c[n][0..n], row n of the engine's one row builder read over its last
    entry; eigenvalue(0..n) must be distinct."""
    _, h, g = pv._grown(n + 1)
    row = core._newton_row(h, g, n, 1)
    return [F(v, row[n]) for v in row]


def basis(pv, k: int) -> Poly:
    """The Newton basis polynomial v_k = prod_{j<k} (x - node(j))."""
    return product_of_linear(map(pv.node, range(k)))


def expand_in_monic_basis(pv, p: Poly) -> list[F]:
    """Coordinates of p over u_0..u_deg(p), by leading-term elimination."""
    out = [F(0)] * (p.degree + 1)
    rest = p
    for k in range(p.degree, -1, -1):
        c = rest.coeffs[k] if k <= rest.degree else F(0)
        out[k] = c
        if c != 0:
            rest = rest - monic_poly(pv, k) * c
    assert rest.is_zero
    return out


# -- construction and sequences -------------------------------------------------


def test_3a_instance_frozen_coefficients(pv_3a):
    assert pv_3a.a == (F(-1), F(0), F(1))
    assert pv_3a.b == (F(0), F(2), F(1, 2))
    assert pv_3a.d == (F(1, 4), F(0), F(-1, 2), F(0), F(1, 4))


def test_sequence_values(pv_3a):
    assert pv_3a.node(1) == 2
    assert pv_3a.eigenvalue(2) == 3
    assert pv_3a.lowering(0) == 0
    assert pv_3a.lowering(1) == F(1, 4)


def test_lowering_starts_at_zero_for_random_vectors():
    rng = random.Random(7)
    for _ in range(20):
        assert random_parameter_vector(rng).lowering(0) == 0


@pytest.mark.parametrize(
    "field,value",
    [
        ("q", F(1)),
        ("q", F(0)),
        ("sum", None),
        ("d3", None),
        ("d4", None),
        ("a12", None),
        ("dzero", None),
    ],
)
def test_constructor_rejects_broken_constraints(field, value):
    q = F(1, 2)
    good = dict(q=q, a=(F(0), F(1), F(1, 3)), b=(F(0), F(1), F(2)))
    d3 = F(1) * F(1) / q
    d4 = q * F(1, 3) * F(2)
    d = [F(1), F(2), -(F(3) + d3 + d4), d3, d4]
    if field == "q":
        with pytest.raises(ConstraintViolation):
            ParameterVector(q=value, a=good["a"], b=good["b"], d=tuple(d))
        return
    if field == "sum":
        d[0] += 1
    elif field == "d3":
        d[3] += 1
        d[0] -= 1
    elif field == "d4":
        d[4] += 1
        d[0] -= 1
    elif field == "a12":
        good["a"] = (F(1), F(0), F(0))
        d = [F(1), F(1), F(-2), F(0), F(0)]
    elif field == "dzero":
        good["a"] = (F(0), F(1), F(0))
        good["b"] = (F(0), F(0), F(0))
        d = [F(0)] * 5
    with pytest.raises(ConstraintViolation):
        ParameterVector(q=q, a=good["a"], b=good["b"], d=tuple(d))


def test_constraints_match_the_fraction_reference():
    """Seeded fields, valid or with one constraint broken, at positive,
    negative, integer and inadmissible bases: the constructor refuses
    exactly what the Fraction checks refuse, with the same message."""
    rng = random.Random(103)
    small = lambda: F(rng.randint(-4, 4), rng.choice([1, 2, 3, 5, 7]))
    bases = [F(1, 2), F(-2, 3), F(3), F(-5, 2), F(7, 4)]
    seen = {}
    for _ in range(1500):
        q = rng.choice(bases) if rng.random() < 0.95 else rng.choice([F(0), F(1), F(-1)])
        a = (small(), small() if rng.random() < 0.8 else F(0), small() if rng.random() < 0.8 else F(0))
        b = (small(), small() if rng.random() < 0.8 else F(0), small() if rng.random() < 0.8 else F(0))
        d3, d4 = (a[1] * b[1] / q, q * a[2] * b[2]) if q not in (0, 1, -1) else (small(), small())
        d1, d2 = (small(), small()) if rng.random() < 0.75 else (F(0), F(0))
        d = [-(d1 + d2 + d3 + d4), d1, d2, d3, d4]
        broken = rng.choice([None, None, 0, 3, 4])
        if broken is not None:
            e = F(rng.choice([-1, 1]), rng.choice([1, 3, 11]))
            d[broken] += e
            if broken:
                d[0] -= e  # only d3 or d4 breaks; the sum still vanishes
        want = fraction_constraint_failure(q, a, b, d)
        try:
            ParameterVector(q, a, b, d)
            got = None
        except ConstraintViolation as exc:
            got = str(exc)
        assert got == want, (q, a, b, d)
        seen[want] = seen.get(want, 0) + 1
    assert len(seen) == 9 and min(seen.values()) > 10, seen  # three inadmissible bases


@pytest.mark.parametrize("row, value", [("a", (0, 1)), ("b", (0, 1, 2, 0)), ("d", (1, 2, -5, 2, 0, 0))])
def test_constructor_counts_the_coefficients(row, value):
    """Three a, three b and five d: a row of another length is refused
    before any constraint is read (the d row with a sixth zero sums to 0)."""
    fields = dict(q=F(1, 2), a=(0, 1, 0), b=(0, 1, 0), d=(1, 2, -5, 2, 0))
    with pytest.raises(ConstraintViolation) as caught:
        ParameterVector(**{**fields, row: value})
    assert str(caught.value) == "expected 3 + 3 + 5 coefficients"


def test_unchecked_constructor_skips_validation():
    pv = UncheckedParameterVector(
        q=F(1, 2), a=(0, 0, 0), b=(0, 0, 0), d=(1, 0, 0, 0, 0)
    )
    assert pv.d[0] == 1


def test_json_round_trip(pv_3a):
    data = pv_3a.to_json_dict(checked_depth=10)
    assert data["q"] == "1/2"
    assert data["check"]["h_separation_ok"] is True
    assert ParameterVector.from_json_dict(data) == pv_3a


def test_separation_predicates_match_pairwise_reference():
    """Depths to 40 and planted repeats c2/c1 = q**s with s up to 60, for q
    with |p| = 1, with r = 1 and negative q, against the pairwise scan of
    the Laurent values."""
    rng = random.Random(17)
    small = lambda: F(rng.randint(-3, 3), rng.choice([1, 2, 4]))
    pool = [F(1, 2), F(-1, 3), F(1, 5), F(2), F(-3), F(5), F(-2, 3), F(3, 2), F(-5, 2)]
    deep = 0
    for i in range(300):
        q = pool[i % len(pool)]
        a = (small(), small(), small())
        b = (small(), small(), small())
        if rng.random() < 0.5:  # force a collision at some n + j
            a = (a[0], a[1], a[1] * q ** rng.randint(1, 60))
        if rng.random() < 0.5:
            b = (b[0], b[1], b[1] * q ** rng.randint(1, 60))
        pv = UncheckedParameterVector(q=q, a=a, b=b, d=(0, 0, 0, 0, 0))
        for ok, check, row, error in (
            (pv.h_separation_ok, pv.check_h_separation, a, HSeparationViolated),
            (pv.x_separation_ok, pv.check_x_separation, b, XSeparationViolated),
        ):
            values = [laurent(row, q, k) for k in range(41)]
            for depth in (0, 1, 2, 3, 5, 17, 40):
                expected = nested_loop_collision(values.__getitem__, depth)
                assert ok(depth) == (expected is None)
                deep += expected is not None and expected[0] > 17
                if expected is None:
                    check(depth)
                else:
                    with pytest.raises(error) as exc:
                        check(depth)
                    assert exc.value.args[0] == str(error(*expected))
    assert deep > 50


def test_separation_at_q_zero_raises_instead_of_hanging():
    """q = 0, which only an unchecked vector reaches, has no q**-k: every
    separation check past depth 0 raises ZeroDivisionError, and so does
    every sequence value past k = 0, read one by one or through the
    sequence table (normalized_poly reads it with no separation check)."""
    undefined = r"q = 0 leaves q\*\*-k undefined"
    for row in ((1, 2, 3), (0, 0, 0), (1, 0, 2)):
        pv = UncheckedParameterVector(q=0, a=row, b=row, d=(0, 0, 0, 0, 0))
        assert pv.h_separation_ok(0) and pv.x_separation_ok(0)
        for check in (pv.h_separation_ok, pv.check_h_separation, pv.x_separation_ok, pv.check_x_separation):
            with pytest.raises(ZeroDivisionError):
                check(1)
        for value in (pv.node, pv.eigenvalue, pv.lowering):
            with pytest.raises(ZeroDivisionError, match=undefined):
                value(1)
        with pytest.raises(ZeroDivisionError, match=undefined):
            normalized_poly(pv, 1)


# -- Newton basis and expansion ---------------------------------------------------


def test_newton_basis_empty_product(pv_3a):
    """v_0 = 1, and each v_k is monic of degree k and vanishes at node(j),
    j < k."""
    assert basis(pv_3a, 0) == Poly.one()
    for k in range(1, 7):
        v = basis(pv_3a, k)
        assert v.is_monic and v.degree == k
        assert all(v(pv_3a.node(j)) == 0 for j in range(k))


def test_newton_basis_3a_degree_two(pv_3a):
    # nodes 5/2 and 2: (x - 5/2)(x - 2) = x^2 - 9/2 x + 5
    assert basis(pv_3a, 2) == Poly([5, F(-9, 2), 1])


def test_newton_basis_constant_nodes(pv_5b):
    # shifting the node row of the pure-power family gives (x - shift)^k
    shifted = apply_gauge(pv_5b, GaugeAction(sigma=1))
    assert shifted.b == (F(1), F(0), F(0))
    assert basis(shifted, 3) == Poly([-1, 3, -3, 1])


def test_expansion_diagonal_is_one(pv_3a):
    """c[n][n] = 1: over the monic Newton basis, u_n is monic of degree n."""
    for n in range(7):
        u = monic_poly(pv_3a, n)
        assert u.is_monic and u.degree == n


def test_expansion_frozen_values(pv_3a, pv_5b):
    assert newton_coeffs(pv_3a, 1) == [F(1, 4), 1]
    assert newton_coeffs(pv_5b, 2) == [F(1, 2), F(-3, 2), 1]


def test_expansion_matches_oracle_randomized():
    rng = random.Random(11)
    for _ in range(8):
        pv = random_parameter_vector(rng, depth=9)
        for n in range(9):
            assert newton_coeffs(pv, n) == [oracle_coeff(pv, n, k) for k in range(n + 1)]


def test_expansion_raises_on_eigenvalue_collision():
    q = F(1, 2)
    pv = ParameterVector(
        q=q, a=(F(0), F(1), q), b=(F(0), F(1), F(0)), d=(1, 1, -4, 2, 0)
    )
    assert not pv.h_separation_ok(1)
    with pytest.raises(HSeparationViolated, match=r"^eigenvalue\(1\) == eigenvalue\(0\)$"):
        monic_poly(pv, 1)


# -- monic polynomials -----------------------------------------------------------


def test_monic_poly_trivial(pv_3a):
    assert monic_poly(pv_3a, 0) == Poly.one()


def test_monic_poly_5b_degree_two(pv_5b):
    assert monic_poly(pv_5b, 2) == Poly([F(1, 2), F(-3, 2), 1])


def test_monic_poly_5a_is_power_basis():
    pv = catalog.instantiate("5a")
    assert recurrence_coeffs(pv, 0) == (0, None)
    for n in range(7):
        assert monic_poly(pv, n) == Poly([0] * n + [1])


def test_two_routes_to_monic_polynomials(pv_3a):
    """Newton summation vs running the recurrence from u_0, u_1."""
    vectors = [pv_3a, catalog.instantiate("2b"), catalog.instantiate("4c")]
    rng = random.Random(23)
    vectors += [random_parameter_vector(rng, depth=10) for _ in range(4)]
    for pv in vectors:
        by_rec = [Poly.one(), Poly.x() - Poly.constant(recurrence_coeffs(pv, 0)[0])]
        for n in range(1, 8):
            a_n, b_n = recurrence_coeffs(pv, n)
            nxt = Poly.x() * by_rec[n] - a_n * by_rec[n] - b_n * by_rec[n - 1]
            by_rec.append(nxt)
        for n in range(9):
            assert monic_poly(pv, n) == by_rec[n]


@pytest.mark.parametrize("q", [catalog.DEFAULT_Q, F(-2, 3)])
def test_monic_poly_matches_basis_product_reference(q):
    """u_n against row n of the Fraction triangle summed over the Newton
    basis."""
    for key in catalog.FAMILIES:
        pv = catalog.instantiate(key, None, q)
        nodes = [pv.node(k) for k in range(13)]
        rows, collision = triangle_rows(pv, 12)
        assert collision is None, key
        for n in range(13):
            assert monic_poly(pv, n) == fraction_horner(rows[n], nodes), (key, n)


def colliding_vectors(count: int, seed: int):
    """Unchecked vectors whose eigenvalues repeat, q = +/-1 included."""
    rng = random.Random(seed)
    small = lambda: F(rng.randint(-3, 3), rng.choice([1, 2, 4]))
    for i in range(count):
        q = F(rng.choice([-1, 1])) if i % 3 == 0 else F(rng.choice([-3, -2, 2, 3]), rng.choice([1, 2, 3]))
        a = (small(), small(), small())
        if q not in (1, -1) or rng.random() < 0.5:
            a = (a[0], a[1], a[1] * q ** rng.randint(1, 9))
        d = tuple(small() for _ in range(5))
        yield UncheckedParameterVector(q=q, a=a, b=(small(), small(), small()), d=d)


def test_first_repeat_on_integers_matches_the_fraction_reference():
    """2,000 seeded (c1, c2, q): the integer repeat test, given c1 and c2 as
    numerators over one denominator and q as p/r, returns the Fraction
    reference's pair or None, or raises its error.  The draws cover c1, c2
    or both zero, q = +/-1, q = 0, and planted ratios c2/c1 = +/-q**s for
    s up to 40, at negative q for odd and even s."""
    rng = random.Random(211)
    small = lambda: F(rng.randint(-6, 6), rng.choice([1, 2, 3, 4, 9]))
    nonzero = lambda: F(rng.choice([-1, 1]) * rng.randint(1, 6), rng.choice([1, 2, 3, 4, 9]))
    bases = [F(1, 2), F(-2, 3), F(3), F(-5, 2), F(7, 4), F(-1, 3), F(2), F(-3)]

    def result(fn, *args):
        try:
            return fn(*args)
        except Exception as exc:
            return type(exc)

    seen = dict.fromkeys(("zero c1 or c2", "both zero", "unit q", "zero q", "even s, q < 0", "odd s, q < 0"), 0)
    hits = 0
    for i in range(2000):
        kind = i % 8
        q = rng.choice(bases)
        c1, c2 = small(), small()
        if kind == 1:
            c1, c2 = (F(0), c2) if rng.random() < 0.5 else (c1, F(0))
        elif kind == 2:
            c1 = c2 = F(0)
        elif kind == 3:
            q = F(rng.choice([-1, 1]))
            if rng.random() < 0.5:
                c2 = -c1
        elif kind == 4:
            q = F(0)
        elif kind >= 5:
            s = rng.randint(1, 40)
            c1 = nonzero()
            c2 = rng.choice([-1, 1]) * c1 * q**s
            if q < 0:
                seen[("even", "odd")[s % 2] + " s, q < 0"] += 1
        seen["zero c1 or c2"] += (c1 == 0) != (c2 == 0)
        seen["both zero"] += c1 == c2 == 0
        seen["unit q"] += q in (1, -1)
        seen["zero q"] += q == 0
        scale = rng.choice([1, 1, 6])
        (n1, n2), _ = core._over_lcm([c1.as_integer_ratio(), c2.as_integer_ratio()])
        want = result(fraction_first_repeat, c1, c2, q)
        got = result(core._first_repeat, n1 * scale, n2 * scale, q.numerator, q.denominator)
        assert got == want, (c1, c2, q)
        if q == 0:
            assert want is ZeroDivisionError
        hits += isinstance(want, tuple) and q not in (1, -1) and c1 != 0
    assert min(seen.values()) > 50 and hits > 300, (seen, hits)


def test_monic_poly_raises_the_triangle_collision():
    """monic_poly(pv, n) raises HSeparationViolated(m, j) when a row m <= n
    of the integer triangle has a zero last entry N_m, at the first such m
    and the first j with eigenvalue(m) == eigenvalue(j); otherwise it is row
    n summed over the Newton basis.  Including at q = +/-1."""
    raised = 0
    for pv in colliding_vectors(200, seed=29):
        _, h, g = pv._grown(9)
        nodes = [pv.node(k) for k in range(9)]
        rows = [core._newton_row(h, g, m, 1) for m in range(9)]
        for n in range(9):
            got = outcome(monic_poly, pv, n)
            m = next((m for m in range(n + 1) if not rows[m][m]), None)
            if m is None:
                assert got == fraction_horner([F(v, rows[n][n]) for v in rows[n]], nodes), (pv, n)
            else:
                raised += 1
                j = h[0].index(h[0][m])
                assert got == (HSeparationViolated, str(HSeparationViolated(m, j))), (pv, n)
    assert raised > 600


def test_one_repeat_test_matches_references_at_every_q():
    """Separation methods and monic_poly agree with the pairwise and the
    whole-triangle references, in value or in error and pair, at
    q = +/-1 too, where no closed form in q**(n+j) decides a repeat."""
    pairs = unit_q = 0
    for seed in (29, 31, 37):
        for pv in colliding_vectors(300, seed=seed):
            unit_q += pv.q in (1, -1)
            h = [pv.eigenvalue(k) for k in range(10)]
            nodes = [pv.node(k) for k in range(10)]
            for depth in range(10):
                pairs += 1
                for ok, check, values, error in (
                    (pv.h_separation_ok, pv.check_h_separation, h, HSeparationViolated),
                    (pv.x_separation_ok, pv.check_x_separation, nodes, XSeparationViolated),
                ):
                    hit = nested_loop_collision(values.__getitem__, depth)
                    assert ok(depth) == (hit is None), (pv, depth)
                    want = None if hit is None else (error, str(error(*hit)))
                    assert outcome(check, depth) == want, (pv, depth)
                rows, collision = triangle_rows(pv, depth)
                hit = nested_loop_collision(h.__getitem__, depth)
                if collision is None:
                    assert hit is None
                    assert monic_poly(pv, depth) == fraction_horner(rows[depth], nodes)
                else:
                    assert (collision.n, collision.j) == hit
                    want = HSeparationViolated, str(collision)
                    assert outcome(monic_poly, pv, depth) == want, (pv, depth)
    assert pairs == 9000 and unit_q > 250


def test_cold_monic_poly_builds_no_triangle(monkeypatch):
    """A cold monic_poly(pv, 24) builds row 24 of the triangle alone."""
    pv = catalog.instantiate("1a")
    built, row = [], core._newton_row
    monkeypatch.setattr(core, "_newton_row", lambda h, g, n, dx: built.append(n) or row(h, g, n, dx))
    monic_poly.cache_clear()
    monic_poly(pv, 24)
    assert built == [24]
    assert monic_poly.cache_info().misses == 1


def recurrence_coeffs_reference(pv, n: int):
    """Reference: a_n needs u_{n+1}, so eigenvalue(0..n+1) are first scanned
    for a repeat with Fractions, the first in (n, j) order raised; then the
    formula, with every ratio recomputed where it is used, and a_0 as
    node(0) - lowering(1)/(eigenvalue(1) - eigenvalue(0))."""
    h, g, x = pv.eigenvalue, pv.lowering, pv.node
    if hit := nested_loop_collision(h, n + 1):
        raise HSeparationViolated(*hit)
    if n == 0:
        return x(0) - g(1) / (h(1) - h(0)), None

    def ratio(num_idx, da, db):
        return g(num_idx) / (h(da) - h(db))

    a_n = x(n) + ratio(n + 1, n, n + 1) - ratio(n, n - 1, n)
    lead = ratio(n, n - 1, n)
    if lead == 0:
        return a_n, F(0)
    inner = (
        (ratio(n - 1, n - 2, n) if n >= 2 else F(0))
        - ratio(n, n - 1, n)
        + ratio(n + 1, n - 1, n + 1)
        + x(n)
        - x(n - 1)
    )
    return a_n, lead * inner


def test_recurrence_coeffs_match_reference():
    vectors = [catalog.instantiate(key, None, q) for key in catalog.FAMILIES for q in (F(1, 2), F(-3))]
    vectors += list(colliding_vectors(200, seed=31))
    raised = 0
    for pv in vectors:
        for n in range(10):
            expected = outcome(recurrence_coeffs_reference, pv, n)
            raised += isinstance(expected[0], type)
            assert outcome(recurrence_coeffs, pv, n) == expected, (pv, n)
    assert raised > 100


def per_degree_table(pv, n: int):
    """The rows of monic_table, one monic_poly and one recurrence_coeffs per
    degree, in the order eval built them before monic_table."""
    return [(monic_poly(pv, k), recurrence_coeffs(pv, k)) for k in range(n + 1)]


def test_monic_table_matches_the_per_degree_rows():
    """Every family, at the default q and each base of Q_POOL it
    instantiates at: the rows built by the recurrence are monic_poly's and
    recurrence_coeffs', to n = 24."""
    checked = 0
    for key in catalog.FAMILIES:
        for q in dict.fromkeys((catalog.DEFAULT_Q, *Q_POOL)):
            try:
                pv = catalog.instantiate(key, None, q)
            except InadmissibleParams:
                continue
            assert core.monic_table(pv, 24) == per_degree_table(pv, 24), (key, q)
            checked += 1
    assert checked > 150


def admissible_colliding_vectors(count: int, seed: int):
    """Vectors that meet every constraint and whose eigenvalues repeat at
    eigenvalue(n) == eigenvalue(j) with n + j = s, s <= 9."""
    rng = random.Random(seed)
    small = lambda: F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 4]))
    for _ in range(count):
        q = rng.choice([F(-3), F(-2), F(2), F(3), F(1, 2), F(-1, 3), F(2, 3), F(-3, 2)])
        a1, b1, b2 = small(), small(), small()
        a = (small(), a1, a1 * q ** rng.randint(1, 9))
        d1, d2 = small(), small()
        d3, d4 = a1 * b1 / q, q * a[2] * b2
        yield ParameterVector(q=q, a=a, b=(small(), b1, b2), d=(-(d1 + d2 + d3 + d4), d1, d2, d3, d4))


def test_monic_table_refuses_as_the_per_degree_rows():
    """Where eigenvalues repeat, the table raises the error and pair that
    the per-degree rows raise first, or returns the same rows."""
    raised = 0
    for pv in admissible_colliding_vectors(150, seed=37):
        for n in (1, 4, 9):
            expected = outcome(per_degree_table, pv, n)
            raised += type(expected) is tuple
            assert outcome(core.monic_table, pv, n) == expected, (pv, n)
    assert raised > 150


def test_monic_table_checks_its_top_row():
    """On a vector that breaks the d3 constraint the recurrence does not
    hold, and the table refuses it at its top row."""
    pv = catalog.instantiate("3a")
    broken = perturbed(pv, d=(pv.d[0] - 1, pv.d[1], pv.d[2], pv.d[3] + 1, pv.d[4]))
    assert core.monic_table(broken, 1) == per_degree_table(broken, 1)
    with pytest.raises(Mismatch, match=r"^u_6 by the three-term recurrence differs from the Newton expansion$"):
        core.monic_table(broken, 6)
    with pytest.raises(ValueError, match="n >= 0"):
        core.monic_table(pv, -1)


# -- the operator ----------------------------------------------------------------


def test_newton_coeff_round_trip(pv_3a):
    p = Poly([F(1, 3), F(-2), F(5), F(1)])
    e = to_newton_coeffs(pv_3a, p)
    assert sum((basis(pv_3a, k) * c for k, c in enumerate(e)), Poly.zero()) == p


def test_operator_on_basis_elements(pv_5b):
    v0 = basis(pv_5b, 0)
    assert apply_operator(pv_5b, v0) == v0 * pv_5b.eigenvalue(0)
    # L v_2 = h_2 v_2 + g_2 v_1 with h_2 = 3, g_2 = -3
    assert pv_5b.eigenvalue(2) == 3 and pv_5b.lowering(2) == -3
    v2, v1 = basis(pv_5b, 2), basis(pv_5b, 1)
    assert apply_operator(pv_5b, v2) == v2 * 3 + v1 * -3


def test_operator_eigen_property(pv_3a):
    for n in range(7):
        u = monic_poly(pv_3a, n)
        assert apply_operator(pv_3a, u) == u * pv_3a.eigenvalue(n)


# -- recurrence ------------------------------------------------------------------


def test_recurrence_first_coefficients(pv_3a):
    assert recurrence_coeffs(pv_3a, 0) == (F(9, 4), None)
    assert recurrence_coeffs(catalog.instantiate("5a"), 0) == (0, None)
    with pytest.raises(ValueError, match="n >= 0"):
        recurrence_coeffs(pv_3a, -1)


def test_first_recurrence_coefficient_ignores_lowering_zero(pv_3a):
    """u_{-1} = 0: a_0 has no lowering(0) term, even where lowering(0) != 0."""
    pv = perturbed(pv_3a, d=(pv_3a.d[0] + 1,) + pv_3a.d[1:])
    assert pv.lowering(0) == 1
    x, h, g = pv.node, pv.eigenvalue, pv.lowering
    assert recurrence_coeffs(pv, 0) == (x(0) - g(1) / (h(1) - h(0)), None)


def test_recurrence_formula_with_all_lowering_zero():
    # formula level: with the lowering sequence forced to zero, a_n is the
    # node and b_n vanishes (the engine refuses such vectors, so go unchecked)
    pv = UncheckedParameterVector(
        q=F(1, 2), a=(F(0), F(0), F(1)), b=(F(0), F(2), F(0)), d=(0, 0, 0, 0, 0)
    )
    for n in range(1, 6):
        a_n, b_n = recurrence_coeffs(pv, n)
        assert a_n == pv.node(n)
        assert b_n == 0


def test_vanishing_second_factor_is_allowed(pv_5b):
    # the pure shifted-factorial family has b_n = 0 without degenerating
    for n in range(1, 6):
        a_n, b_n = recurrence_coeffs(pv_5b, n)
        assert a_n == F(1, 2) ** n and b_n == 0
        assert recurrence_check(pv_5b, n)


def test_recurrence_check_holds(pv_3a):
    assert recurrence_check(pv_3a, 0)
    assert all(recurrence_check(pv_3a, n) for n in range(1, 9))


def test_the_recurrence_holds_where_there_is_no_b_term():
    """Two steps add no b_n*u_{n-1}: n = 0, where b_0 is None, and a lowering
    cutoff, where b_n = 0.  1a with a = 2, b = 4 at q = 1/2 has lowering(4)
    = 0, so b_4 = 0, which the three-term step reads as no term, as it reads
    None; the recurrence and the table still hold on both sides of the
    cutoff."""
    pv = catalog.instantiate("1a", {"a": 2, "b": 4}, q=F(1, 2))
    assert pv.lowering(4) == 0
    assert recurrence_coeffs(pv, 0)[1] is None and recurrence_coeffs(pv, 4)[1] == 0
    assert all(recurrence_check(pv, n) for n in range(7))
    rows = core.monic_table(pv, 6)
    assert rows[0][1][1] is None and rows[4][1][1] == 0
    assert [u for u, _ in rows] == [monic_poly(pv, k) for k in range(7)]


def test_recurrence_matches_classical_al_salam_carlitz():
    # the classical closed form: a_n = (1+a) q^n, b_n = -a q^{n-1} (1 - q^n)
    q = F(1, 2)
    for a in (F(-1), F(-2), F(1, 3)):
        pv = catalog.instantiate("4c", {"a": a}, q)
        for n in range(1, 9):
            a_n, b_n = recurrence_coeffs(pv, n)
            assert a_n == (1 + a) * q**n
            assert b_n == -a * q ** (n - 1) * (1 - q**n)


def test_recurrence_check_fails_when_d3_broken(pv_3a):
    d = list(pv_3a.d)
    d[3] += F(1, 3)
    d[0] -= F(1, 3)
    broken = perturbed(pv_3a, d=tuple(d))
    assert any(not recurrence_check(broken, n) for n in range(7))


def test_broken_vector_mixes_lower_orders(pv_3a):
    """With d4 perturbed, x*u_n needs u_j terms below n-1 for some n <= 6."""
    d = list(pv_3a.d)
    d[4] += F(1, 5)
    d[2] -= F(1, 5)
    broken = perturbed(pv_3a, d=tuple(d))
    found = False
    for n in range(1, 7):
        coords = expand_in_monic_basis(broken, Poly.x() * monic_poly(broken, n))
        if any(c != 0 for c in coords[: max(0, n - 1)]):
            found = True
            break
    assert found


# -- the operator and the recurrence see every coefficient ----------------------

TINY = F(1, 2**64)


@pytest.mark.parametrize("n", range(7))
def test_recurrence_check_sees_every_coefficient(monkeypatch, pv_3a, n):
    """2**-64 added to any one coefficient of u_{n-1}, u_n or u_{n+1} makes
    the recurrence fail: no term is dropped (at n = 0 there is no u_{-1},
    and only u_0 and u_1 are nudged)."""
    assert all(b != 0 for _, b in (recurrence_coeffs(pv_3a, m) for m in range(1, 7)))
    real = core.monic_poly
    for m in (n - 1, n, n + 1):
        for i in range(m + 1):

            def nudged(pv, k, m=m, i=i):
                u = real(pv, k)
                return u + Poly([0] * i + [TINY]) if k == m else u

            monkeypatch.setattr(core, "monic_poly", nudged)
            assert recurrence_check(pv_3a, n) is False, (m, i)
            monkeypatch.setattr(core, "monic_poly", real)
    assert recurrence_check(pv_3a, n) is True


def test_operator_sees_every_coefficient(pv_3a):
    """u_n + 2**-64 x**k is no eigenfunction for eigenvalue(n), k <= n, n >= 1
    (every constant is an eigenfunction for eigenvalue(0))."""
    for n in range(1, 7):
        u = monic_poly(pv_3a, n)
        assert apply_operator(pv_3a, u) == u * pv_3a.eigenvalue(n)
        for k in range(n + 1):
            p = u + Poly([0] * k + [TINY])
            assert apply_operator(pv_3a, p) != p * pv_3a.eigenvalue(n), (n, k)


# -- finite cutoff ---------------------------------------------------------------


def qracah_like(n_cut: int) -> ParameterVector:
    """Top-level instance with the first parameter product pinned to q**-N."""
    q = F(1, 2)
    return catalog.instantiate(
        "1a", {"a": F(2), "b": q**-n_cut / 2, "c": F(1, 3), "d": F(1, 5)}, q
    )


def test_finite_cutoff_detected():
    """lowering first vanishes at N + 1 = 4, so every u_n, n > 3, vanishes
    at node(0..3), the finite system's grid, and u_3 does not."""
    pv = qracah_like(3)
    assert [pv.lowering(k) == 0 for k in range(1, 5)] == [False, False, False, True]
    nodes = [pv.node(j) for j in range(4)]
    for n in range(4, 8):
        assert [monic_poly(pv, n)(x) for x in nodes] == [0] * 4, n
    assert 0 not in [monic_poly(pv, 3)(x) for x in nodes]


def test_finite_cutoff_absent(pv_3a):
    assert all(pv_3a.lowering(k) for k in range(1, 52))


def test_finite_cutoff_boundary():
    # lowering(1) = 0: d row (-3, 2, 1, 0, 0) at q = 1/2, so N = 0 and
    # every u_n, n >= 1, vanishes at node(0)
    pv = ParameterVector(
        q=F(1, 2), a=(F(0), F(1), F(0)), b=(F(0), F(0), F(1)), d=(-3, 2, 1, 0, 0)
    )
    assert pv.lowering(1) == 0
    assert [monic_poly(pv, n)(pv.node(0)) == 0 for n in range(6)] == [False] + [True] * 5


def test_cutoff_zeroes_low_columns():
    """With lowering(N+1) = 0 the coefficients vanish exactly for k <= N < n."""
    n_cut = 3
    pv = qracah_like(n_cut)
    for n in range(8):
        row = newton_coeffs(pv, n)
        for k in range(n + 1):
            want_zero = k <= n_cut < n
            assert (row[k] == 0) == want_zero, (n, k)


# -- normalized polynomials and duality --------------------------------------------


def test_normalized_trivial(pv_3a):
    assert normalized_poly(pv_3a, 0) == Poly.one()
    assert normalized_poly(dualize(pv_3a), 0) == Poly.one()


def test_normalized_first_order(pv_3a):
    # (h_1 - h_0)/g_1 = 4, so U_1 = 4(x - 9/4)
    assert normalized_poly(pv_3a, 1) == Poly([-9, 4])


def test_normalized_requires_nonzero_lowering():
    """ZeroG names the first vanishing lowering value: lowering(3) for the
    family cut at N = 2, and for its dual."""
    pv = qracah_like(2)
    for vector in (pv, dualize(pv)):
        with pytest.raises(ZeroG, match=r"^lowering\(3\) == 0$") as raised:
            normalized_poly(vector, 4)
        assert raised.value.j == 3


def normalized_poly_reference(values, nodes, g, n: int) -> Poly:
    """Reference: sum_k prod_{j<k} (values[n]-values[j]) / prod_{j=1..k} g[j]
    * prod_{j<k} (x - nodes[j]) from sequence lists, each coefficient a
    running Fraction product, by the Fraction Horner; ZeroG at the first
    vanishing g[j].  The eigenvalues as values and the nodes as nodes give
    normalized_poly, exchanged they give its dual."""
    coeffs = [F(1)]
    for k in range(1, n + 1):
        if g[k] == 0:
            raise ZeroG(k)
        coeffs.append(coeffs[-1] * (values[n] - values[k - 1]) / g[k])
    return fraction_horner(coeffs, nodes[: n + 1])


def vector_sequences(pv, n: int):
    """(eigenvalue, node, lowering) at k <= n as Fractions, in the order
    normalized_poly_reference reads them."""
    return tuple(fraction_values(pv, which, n + 1) for which in (1, 0, 2))


def test_normalized_poly_matches_fraction_reference():
    """Value, or ZeroG and its index at the first vanishing lowering value,
    against the Fraction sum; an eigenvalue repeat at or below n, at q = +/-1
    too, is no refusal."""
    rng = random.Random(83)
    vectors = [qracah_like(n_cut) for n_cut in (1, 2, 4)]
    vectors += [catalog.instantiate(key, None, F(-2, 3)) for key in catalog.FAMILIES]
    for pv in colliding_vectors(120, seed=89):
        vectors.append(pv)
        j = rng.randint(1, 8)  # plant lowering(j) = 0 through d0
        d = list(pv.d)
        q = pv.q
        d[0] = -(d[1] * q**j + d[2] * q**-j + d[3] * q ** (2 * j) + d[4] * q ** (-2 * j))
        vectors.append(perturbed(pv, d=tuple(d)))
    seen = {ZeroG: 0, Poly: 0, "repeat": 0}
    for pv in vectors:
        for n in range(9):
            want = outcome(normalized_poly_reference, *vector_sequences(pv, n), n)
            assert outcome(normalized_poly, pv, n) == want, (pv, n)
            seen[want[0] if isinstance(want, tuple) else Poly] += 1
            seen["repeat"] += isinstance(want, Poly) and not pv.h_separation_ok(n)
    assert min(seen.values()) > 100, seen


def test_dual_normalized_two_routes():
    """The dual vector's sum form vs product times its monic polynomial."""
    pv = catalog.instantiate("2a", {"a": F(3), "b": F(1, 4), "c": F(1, 5)})
    assert pv._repeat(0) is None
    dual = dualize(pv)
    for m in range(7):
        factor = F(1)
        xm = pv.node(m)
        for j in range(m):
            factor *= (xm - pv.node(j)) / pv.lowering(j + 1)
        via_dual = monic_poly(dual, m) * factor
        assert normalized_poly(dual, m) == via_dual


def test_duality_trivial(pv_3a):
    assert all(duality_check(pv_3a, 0, m) for m in range(5))


def test_duality_top_instance(pv_1a_top):
    assert all(
        duality_check(pv_1a_top, n, m) for n in range(7) for m in range(7)
    )


def test_duality_parameter_involution():
    pv = catalog.instantiate("2b")
    assert dualize(dualize(pv)) == pv


# -- integer kernels and the sequence table --------------------------------------


def pairs(values) -> tuple[tuple[int, int], ...]:
    """Each rational as the reduced pair (num, den), den > 0, that
    as_integer_ratio gives."""
    return tuple(F(v).as_integer_ratio() for v in values)


def fraction_newton_row(h, g, n: int) -> list[F]:
    """Reference: row n of the triangle by the Fraction recursion
    c[n][k] = c[n][k+1] * g[k+1] / (h[n] - h[k])."""
    row = [F(0)] * (n + 1)
    row[n] = F(1)
    for k in range(n - 1, -1, -1):
        row[k] = row[k + 1] * g[k + 1] / (h[n] - h[k])
    return row


def test_dual_normalized_poly_rejects_a_negative_degree(pv_3a):
    # the Horner needs no node for a single coefficient, so m = -1 must be
    # refused on the dual vector before it would return the constant 1
    with pytest.raises(ValueError):
        normalized_poly(dualize(pv_3a), -1)


@pytest.mark.parametrize(
    "build, bound",
    [(monic_poly, "n >= 0"), (normalized_poly, "n >= 0")],
)
def test_negative_degrees_are_refused(pv_3a, build, bound):
    for degree in (-1, -5):
        with pytest.raises(ValueError, match=bound):
            build(pv_3a, degree)
    with pytest.raises(ValueError, match="n >= 0"):
        core._newton_row(*pv_3a._grown(5)[1:], -1, 1)


def integer_newton_form(coeffs, nodes) -> tuple[list[int], int, tuple[list[int], int]]:
    """_newton_horner's arguments for sum_k coeffs[k] prod_{j<k} (x - nodes[j]):
    with the nodes X_j/Dx over their lcm, prod_{j<k} (x - nodes[j]) is
    W_k(x)/Dx**k, so over Dx**m, m = len(coeffs), coefficient k carries
    Dx**(m-k)."""
    (nums, den), (xs, dx) = core._over_lcm(pairs(coeffs)), core._over_lcm(pairs(nodes))
    m = len(nums)
    return [v * dx ** (m - k) for k, v in enumerate(nums)], den * dx**m, (xs, dx)


def random_node_kinds(rng) -> tuple[dict, list[tuple[str, ...]]]:
    """Node draws by kind, and the mixes of kinds the kernel tests run:
    zero nodes (a shift), small and large integers (Dx = 1), rationals over
    mixed denominators and powers of a negative q, all-zero and all-integer
    lists included."""

    def scalar():
        return F(rng.randint(-40, 40), rng.choice([1, 1, 2, 3, 4, 6, 9, 25, 2**20 + 7]))

    kinds = {
        "zero": lambda: F(0),
        "small": lambda: F(rng.randint(-9, 9)),
        "large": lambda: F(rng.choice([-1, 1]) * (2**70 + rng.randint(0, 99))),
        "rational": scalar,
        "q<0": lambda: rng.choice([F(-1, 2), F(-2), F(-3, 5)]) ** rng.randint(-4, 6),
    }
    mixes = [("zero",), ("small",), ("small", "large"), ("zero", "small", "large"),
             ("rational",), ("q<0",), tuple(kinds)]
    return kinds, mixes


def test_integer_horner_matches_fraction_reference_on_random_rows():
    """Mixed, unreduced denominators, zero and integer nodes and coefficients;
    then node lists of one kind or a mix, each row put into the integer
    Newton form over its nodes' lcm."""
    rng = random.Random(61)
    kinds, mixes = random_node_kinds(rng)
    scalar = kinds["rational"]
    for _ in range(500):
        size = rng.randint(0, 12)
        coeffs = [scalar() for _ in range(size)]
        nodes = tuple(scalar() for _ in range(size))
        assert core._newton_horner(*integer_newton_form(coeffs, nodes)) == fraction_horner(coeffs, nodes)
    for mix in mixes:
        for _ in range(60):
            size = rng.randint(0, 13)
            coeffs = [kinds[rng.choice(["zero", "small", "large", "rational"])]() for _ in range(size)]
            nodes = tuple(kinds[rng.choice(mix)]() for _ in range(size))
            want = fraction_horner(coeffs, nodes)
            assert core._newton_horner(*integer_newton_form(coeffs, nodes)) == want, (mix, coeffs, nodes)
            assert product_of_linear(nodes) == fraction_horner([F(0)] * size + [F(1)], nodes + (F(0),))


def test_newton_division_and_horner_are_exact_inverses():
    """_newton_horner(*_newton_division(p, nodes), nodes) == p with deg p
    nodes over their lcm, for p of degree 0..12 and the zero polynomial:
    nodes of each kind and mix, a repeated node, integer nodes (Dx = 1) and
    nodes over a common denominator larger than their lcm."""
    rng = random.Random(67)
    kinds, mixes = random_node_kinds(rng)
    coefficient = ["zero", "small", "large", "rational"]
    seen = {"repeat": 0, "dx=1": 0, "unreduced": 0, "zero": 0}
    runs = [(mix, None) for mix in mixes] + [(tuple(kinds), "repeat"), (tuple(kinds), "unreduced")]
    for mix, twist in runs:
        for _ in range(50):
            p = Poly([kinds[rng.choice(coefficient)]() for _ in range(rng.randint(0, 13))])
            d = max(p.degree, 0)
            draws = [kinds[rng.choice(mix)]() for _ in range(d)]
            if twist == "repeat" and d >= 2:
                i = rng.randrange(1, d)
                draws[i] = draws[rng.randrange(i)]
                seen["repeat"] += 1
            xs, dx = core._over_lcm(pairs(draws))
            if twist == "unreduced":
                factor = rng.choice([2, 3, 10, 2**40 + 15])
                xs, dx = [v * factor for v in xs], dx * factor
                seen["unreduced"] += 1
            seen["dx=1"] += dx == 1 and d > 0
            seen["zero"] += p.is_zero
            out, den = core._newton_division(p, (xs, dx))
            assert len(out) == d + (not p.is_zero) and all(isinstance(v, int) for v in out)
            assert core._newton_horner(out, den, (xs, dx)) == p, (mix, twist, p, draws)
    assert all(count >= 10 for count in seen.values()), seen


def test_integer_newton_row_matches_fraction_reference_on_random_rows():
    """The integer row over its common denominator, on random rows and on
    each family's sequence table, against the Fraction recursion: zero
    lowering values (finite families), mixed denominators, separated
    eigenvalues."""
    rng = random.Random(73)

    def scalar(zero_share=0.0):
        if rng.random() < zero_share:
            return F(0)
        return F(rng.randint(-40, 40), rng.choice([1, 1, 2, 3, 4, 6, 9, 25, 2**20 + 7]))

    zeros = 0
    for _ in range(500):
        n = rng.randint(0, 10)
        h = []
        while len(h) <= n:
            if (value := scalar()) not in h:
                h.append(value)
        g = tuple(scalar(0.1) for _ in range(n + 1))
        zeros += F(0) in g[1:]
        row = core._newton_row(core._over_lcm(pairs(h)), core._over_lcm(pairs(g)), n, 1)
        want = fraction_newton_row(h, g, n)
        assert all(isinstance(v, int) for v in row) and row[n] != 0
        assert [F(v, row[n]) for v in row] == want
    assert zeros > 50
    for pv in [catalog.instantiate(key) for key in catalog.FAMILIES] + [qracah_like(4)]:
        h, g = fraction_values(pv, 1, 13), fraction_values(pv, 2, 13)
        assert [newton_coeffs(pv, n) for n in range(13)] == [fraction_newton_row(h, g, n) for n in range(13)], pv


def test_reduced_newton_row_is_the_unreduced_row_over_a_positive_factor():
    """_newton_row divides each step ratio by its gcd: every entry keeps its
    sign and zeros and shrinks, and the ratios to row[-1] and to row[0] equal
    the unreduced row's, also with a zero lowering value (finite cutoff), a
    repeated eigenvalue and a step where lowering and eigenvalue gap both
    vanish (then every entry is zero)."""
    rng = random.Random(97)

    def scalar():
        return F(rng.randint(-30, 30), rng.choice([1, 1, 2, 3, 4, 6, 9, 25, 2**20 + 7]))

    seen = {"cutoff": 0, "repeat": 0, "both": 0, "shrunk": 0}
    for _ in range(800):
        n = rng.randint(0, 11)
        h = [scalar() for _ in range(n + 1)]
        g = [scalar() for _ in range(n + 1)]
        if n and rng.random() < 0.3:
            g[rng.randint(1, n)] = F(0)
        if n and rng.random() < 0.3:
            h[n] = h[rng.randint(0, n - 1)]
        hs, gs = core._over_lcm(pairs(h)), core._over_lcm(pairs(g))
        row, ref = core._newton_row(hs, gs, n, 1), unreduced_newton_row(hs, gs, n)
        for k in range(n + 1):
            assert (row[k] > 0) == (ref[k] > 0) and (row[k] < 0) == (ref[k] < 0)
            assert abs(row[k]) <= abs(ref[k])
            for top in (0, n):
                if ref[top]:
                    assert F(row[k], row[top]) == F(ref[k], ref[top])
        steps = [(g[j], h[n] - h[j - 1]) for j in range(1, n + 1)]
        seen["cutoff"] += any(not a and b for a, b in steps)
        seen["repeat"] += any(a and not b for a, b in steps)
        seen["both"] += any(not a and not b for a, b in steps)
        if any(not a and not b for a, b in steps):
            assert not any(row)
        seen["shrunk"] += row != ref
    assert min(seen.values()) > 20, seen


def test_normalized_row_with_a_repeated_eigenvalue_matches_fraction_reference():
    """A repeated eigenvalue zeroes the Newton row's upper entries, and row[0]
    still normalizes it to the Fraction sum: on admissible vectors with
    a2 = a1*q**(n+j), whose eigenvalue(n) repeats eigenvalue(j) for a j < n,
    the degree drops to at most j; on constant eigenvalues the sum is 1."""
    rng = random.Random(101)
    small = lambda: F(rng.randint(-20, 20), rng.choice([1, 3, 8]))
    compared = 0
    while compared < 200:
        q, n = rng.choice(Q_POOL), rng.randint(1, 9)
        j = rng.randint(0, n - 1)
        a1, b1, b2 = small() or F(1), small(), small()
        a = (small(), a1, a1 * q ** (n + j))
        d1, d2, d3, d4 = small(), small(), a1 * b1 / q, q * a[2] * b2
        try:
            pv = ParameterVector(q=q, a=a, b=(small(), b1, b2), d=(-(d1 + d2 + d3 + d4), d1, d2, d3, d4))
        except ConstraintViolation:
            continue
        assert pv.eigenvalue(n) == pv.eigenvalue(j)
        got = outcome(normalized_poly, pv, n)
        assert got == outcome(normalized_poly_reference, *vector_sequences(pv, n), n), (pv, n)
        if isinstance(got, Poly):
            assert got.degree <= j, (pv, n)
            compared += 1
    pv = catalog.instantiate("3a")
    broken = perturbed(pv, a=(pv.a[0], F(0), F(0)))
    assert normalized_poly(broken, 2) == normalized_poly_reference(*vector_sequences(broken, 2), 2) == Poly.one()


def laurent(coeffs, q, k: int) -> F:
    """sum_e coeffs[e] * q**power(e) for the powers 0, 1, -1, 2, -2."""
    return sum((c * q ** (p * k) for c, p in zip(coeffs, (0, 1, -1, 2, -2))), F(0))


def table_values(pv, m: int) -> tuple[tuple[F, ...], ...]:
    """node, eigenvalue and lowering at k < m as the sequence table holds
    them: each as integer numerators over one denominator."""
    return tuple(tuple(F(v, den) for v in nums[:m]) for nums, den in pv._grown(m))


def sequence_vectors():
    vectors = [catalog.instantiate(key, None, q) for key in catalog.FAMILIES for q in (F(1, 2), F(-2, 3))]
    rng = random.Random(67)
    vectors += [random_parameter_vector(rng) for _ in range(200)]
    vectors += [pv for pv in colliding_vectors(60, seed=71) if pv.q in (1, -1)]
    return vectors


def test_sequence_table_matches_laurent_formula():
    unit_q = 0
    for pv in sequence_vectors():
        unit_q += pv.q in (1, -1)
        x, h, g = table_values(copy.copy(pv), 31)
        assert len(x) == len(h) == len(g) == 31
        for k in range(31):
            assert x[k] == laurent(pv.b, pv.q, k) == pv.node(k), (pv, k)
            assert h[k] == laurent(pv.a, pv.q, k) == pv.eigenvalue(k), (pv, k)
            assert g[k] == laurent(pv.d, pv.q, k) == pv.lowering(k), (pv, k)
    assert unit_q >= 15


def test_sequence_table_holds_integer_rows_equal_to_the_fraction_view():
    """Each sequence in the table, node, eigenvalue and lowering, is a tuple
    of int numerators over the lcm of its values' denominators, each value
    that of node, eigenvalue or lowering(k).  Negative k, where the running
    power of q = p/r is r**-k / p**-k and its denominator is negative for
    odd k at q < 0, gives reduced pairs (num, den), den > 0."""
    negative_q = 0
    for pv in sequence_vectors():
        pv = copy.copy(pv)  # empty memo
        negative_q += pv.q < 0
        accessors = (pv.node, pv.eigenvalue, pv.lowering)
        forms = pv._forms
        p, r = pv.q.numerator, pv.q.denominator
        for which, (nums, den) in enumerate(pv._grown(31)):
            at = accessors[which]
            assert type(nums) is tuple and len(nums) == 31 and all(type(v) is int for v in nums)
            assert den == lcm(*(at(k).denominator for k in range(31))), (pv, which)
            assert [F(v, den) for v in nums] == [at(k) for k in range(31)], (pv, which)
        for which, at in enumerate(accessors):
            for k in range(-6, 0):
                num, den = core._laurent_at(forms[which], r**-k, p**-k)
                assert den > 0 and gcd(num, den) == 1, (pv, which, k)
                assert F(num, den) == at(k) == laurent((pv.b, pv.a, pv.d)[which], pv.q, k), (pv, which, k)
    assert negative_q >= 30


def test_sequences_at_negative_k_match_laurent_formula():
    unit_q = 0
    for pv in sequence_vectors():
        unit_q += pv.q in (1, -1)
        for k in range(-6, 0):
            assert pv.node(k) == laurent(pv.b, pv.q, k), (pv, k)
            assert pv.eigenvalue(k) == laurent(pv.a, pv.q, k), (pv, k)
            assert pv.lowering(k) == laurent(pv.d, pv.q, k), (pv, k)
    assert unit_q >= 15


def test_sequence_table_reads_any_prefix():
    """Any length, asked before or after a longer one, reads the table as
    it stands, which only grows: at least that many values, the same values
    at each k, each sequence over the denominator of all of its values held."""
    pv = copy.copy(catalog.instantiate("1a"))  # empty memo
    sizes = (4, 21, 8, 1, 21, 26, 0)
    assert pv._grown(0) == pv._grown(-2) == (((), 1), ((), 1), ((), 1))
    grown, held = [], 0
    for m in sizes:
        held = max(held, m)
        assert [len(nums) for nums, _ in pv._grown(m)] == [held] * 3, m
        grown.append(table_values(pv, m))
    longest = grown[5]
    for m, table in zip(sizes, grown):
        assert table == tuple(seq[:m] for seq in longest)
    dens = [den for _, den in pv._table]
    assert dens == [lcm(*(at(k).denominator for k in range(26))) for at in (pv.node, pv.eigenvalue, pv.lowering)]
    assert [den for _, den in pv._grown(3)] == dens


def test_results_do_not_depend_on_the_order_of_requests():
    """Each kernel gives a fresh vector's result on a vector whose table was
    first grown to length 40 and on one asked in descending n: the table's
    denominators depend on its length, no value does.  Seeded random,
    broken, colliding (q = +/-1 included) and zero-lowering vectors."""
    rng = random.Random(79)
    vectors = [random_parameter_vector(rng) for _ in range(10)]
    vectors += [random_broken_vector(rng) for _ in range(6)]
    vectors += list(colliding_vectors(9, seed=101))
    vectors += [qracah_like(n_cut) for n_cut in (1, 3)]
    degrees = range(10)

    def results(pv, order):
        monic_poly.cache_clear()  # each route builds its own polynomials
        out = {}
        for n in order:
            probe = Poly([F(k + 1, 2 + k % 3) for k in range(n + 1)])
            out[n] = (
                outcome(monic_poly, pv, n),
                outcome(normalized_poly, pv, n),
                to_newton_coeffs(pv, probe),
                apply_operator(pv, probe),
                outcome(recurrence_coeffs, pv, n),
                outcome(core.monic_table, pv, n),
            )
        return out

    built = set()
    for pv in vectors:
        fresh = results(copy.copy(pv), degrees)
        built.update(isinstance(row[0], Poly) for row in fresh.values())
        grown = copy.copy(pv)
        grown._grown(40)
        assert results(grown, degrees) == fresh, pv
        assert results(copy.copy(pv), reversed(degrees)) == fresh, pv
    assert built == {True, False}  # built polynomials and refusals both compared


def test_sequence_table_is_not_part_of_the_value():
    # private copies: instantiate shares one live vector, memos and all
    grown, fresh = (copy.copy(catalog.instantiate("2a")) for _ in range(2))
    before = repr(grown)
    monic_poly.__wrapped__(grown, 12)
    assert len(grown._table[0][0]) == 13 and fresh._table == (((), 1), ((), 1), ((), 1))
    assert grown == fresh and hash(grown) == hash(fresh)
    assert grown._hash == fresh._hash == hash((grown.q.as_integer_ratio(), grown._forms))
    assert grown._forms == fresh._forms
    assert repr(grown) == repr(fresh) == before and "_hash" not in before and "_forms" not in before
    assert grown.__reduce__() == (type(grown), (grown.q, grown.a, grown.b, grown.d))
    private = copy.copy(grown)
    assert private == grown and len(private._table[0][0]) == 0
    # the constructor rebuilds the forms and the hash; the lazy memos start empty
    assert private._hash == grown._hash and hash(private) == hash(grown)
    assert private._forms == grown._forms
    assert "_table" not in vars(private) and "_table" in vars(grown)
    assert not hasattr(grown, "_repeats")  # separation is not memoised
    assert "_hash" not in vars(ParameterVector) and "_forms" not in vars(ParameterVector)
    unchecked = perturbed(grown)
    assert hash(unchecked) == hash(grown) and unchecked._hash == grown._hash
    assert unchecked._forms == grown._forms


def test_forms_and_hash_are_functions_of_the_value(monkeypatch):
    """Every route to one value builds the same integer forms, the Fraction
    rows in Laurent order over their lcm, and the same hash: coefficients
    given as str, int or unreduced Fraction, copy, deepcopy and pickle, and
    the unchecked twin; an unchecked q = 0 vector too.  Neither building a
    vector nor hash() hashes a Fraction."""
    vectors = sequence_vectors()
    vectors.append(UncheckedParameterVector(q=0, a=(1, 2, 3), b=(1, 0, 2), d=(0, 0, 0, 0, 0)))
    text = lambda v: str(v.numerator) if v.denominator == 1 else f"{3 * v.numerator}/{3 * v.denominator}"
    number = lambda v: v.numerator if v.denominator == 1 else text(v)
    unreduced = lambda v: F(5 * v.numerator, 5 * v.denominator)
    calls = 0
    real = F.__hash__

    def counting(self):
        nonlocal calls
        calls += 1
        return real(self)

    monkeypatch.setattr(F, "__hash__", counting)
    for pv in vectors:
        a, b, d = pv.a, pv.b, pv.d
        rows = ((b[2], b[0], b[1]), (a[2], a[0], a[1]), (d[4], d[2], d[0], d[1], d[3]))
        over_lcm = (core._over_lcm([c.as_integer_ratio() for c in row]) for row in rows)
        assert pv._forms == tuple((tuple(nums), den) for nums, den in over_lcm), pv
        cls = type(pv)
        twins = [cls(str(pv.q), [str(v) for v in a], [str(v) for v in b], [str(v) for v in d])]
        twins += [cls(f(pv.q), list(map(f, a)), tuple(map(f, b)), list(map(f, d))) for f in (number, unreduced)]
        twins += [copy.copy(pv), copy.deepcopy(pv), pickle.loads(pickle.dumps(pv))]
        twins.append(UncheckedParameterVector(pv.q, a, b, d))
        for twin in twins:
            assert twin._forms == pv._forms and hash(twin) == hash(pv), (pv, twin)
    assert calls == 0


def test_parameter_vector_value_semantics():
    """A vector's value is its class and four fields: == holds only within
    one class, fields cannot be assigned, the repr is unchanged, vectors can
    be held weakly (the catalog's live table does), and every copy route
    rebuilds through the constructor, so each validates."""
    pv = catalog.instantiate("1a")
    assert repr(pv) == (
        "ParameterVector(q=Fraction(1, 2), "
        "a=(Fraction(-109, 105), Fraction(4, 105), Fraction(1, 1)), "
        "b=(Fraction(0, 1), Fraction(2, 1), Fraction(1, 2)), "
        "d=(Fraction(131, 105), Fraction(-76, 105), Fraction(-389, 420), Fraction(16, 105), Fraction(1, 4)))"
    )
    unchecked = UncheckedParameterVector(pv.q, pv.a, pv.b, pv.d)
    assert pv != unchecked and unchecked != pv and not pv == unchecked
    assert repr(unchecked) == "Unchecked" + repr(pv)
    for name, value in (("q", F(1, 3)), ("a", pv.b), ("_hash", 0)):
        with pytest.raises(AttributeError):
            setattr(pv, name, value)
    with pytest.raises(AttributeError):
        del pv.q
    assert weakref.ref(pv)() is pv and weakref.ref(unchecked)() is unchecked
    for twin in (copy.copy(pv), copy.deepcopy(pv), pickle.loads(pickle.dumps(pv))):
        assert type(twin) is ParameterVector and twin == pv and twin is not pv
        assert "_table" not in vars(twin) and twin._hash == pv._hash and hash(twin) == hash(pv)
    assert ParameterVector("1/2", pv.a, list(pv.b), pv.d) == pv  # coerced by the constructor
    assert type(pickle.loads(pickle.dumps(unchecked))) is UncheckedParameterVector

    bad_d = (pv.d[0] + 1,) + pv.d[1:]  # breaks the zero sum
    broken = UncheckedParameterVector(pv.q, pv.a, pv.b, bad_d)
    assert copy.copy(broken).d == bad_d  # an unchecked copy stays unchecked
    # the same bytes naming the checked class: loading constructs, and refuses
    blob = pickle.dumps(broken, protocol=0)
    assert b"\nUncheckedParameterVector\n" in blob
    with pytest.raises(ConstraintViolation):
        pickle.loads(blob.replace(b"\nUncheckedParameterVector\n", b"\nParameterVector\n"))


def test_threads_growing_one_table_get_the_serial_results():
    """Four threads race to grow one fresh vector's table; each gets the
    serial polynomial and hash, and the table left behind is a fresh
    vector's table of its length.  The forms and the hash are built by the
    constructor, before any thread starts."""
    degrees = (24, 3, 17, 9)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for key in ("1a", "3a", "4d"):
            serial = {n: monic_poly.__wrapped__(catalog.instantiate(key), n) for n in degrees}
            for _ in range(5):
                pv = copy.copy(catalog.instantiate(key))  # empty memo
                barrier = threading.Barrier(len(degrees), timeout=30)

                def build(n):
                    barrier.wait()
                    return monic_poly.__wrapped__(pv, n), hash(pv)

                with ThreadPoolExecutor(max_workers=len(degrees)) as pool:
                    results = dict(zip(degrees, pool.map(build, degrees, timeout=60)))
                value_hash = hash(catalog.instantiate(key))
                assert results == {n: (u, value_hash) for n, u in serial.items()}, key
                # a slower thread may publish a shorter prefix last
                (m,) = {len(nums) for nums, _ in pv._table}
                assert m >= min(degrees) + 1
                assert table_values(pv, m) == tuple(
                    tuple(at(k) for k in range(m)) for at in (pv.node, pv.eigenvalue, pv.lowering))
                # whatever length is left behind, it is a fresh vector's table
                fresh = copy.copy(pv)
                fresh._grown(m)
                assert pv._table == fresh._table, key
    finally:
        sys.setswitchinterval(interval)


def test_each_sequence_is_held_once():
    """After every kernel has read it, a vector keeps its constructor's
    forms and hash and one table of three entries, node, eigenvalue and
    lowering, each only as integer numerators over the lcm of their
    denominators."""
    for key in ("1a", "3a", "4d", "5b"):
        pv = copy.copy(catalog.instantiate(key))  # empty memo
        u = monic_poly.__wrapped__(pv, 6)
        assert recurrence_check(pv, 5) and apply_operator(pv, u) == u * pv.eigenvalue(6)
        core.monic_table(pv, 6)
        normalized_poly(pv, 6)
        to_newton_coeffs(pv, u)
        assert sorted(set(vars(pv)) - set(pv._fields)) == ["_forms", "_hash", "_table"], key
        for (nums, den), at in zip(pv._table, (pv.node, pv.eigenvalue, pv.lowering), strict=True):
            assert len(nums) == 8, key
            assert den == lcm(*(at(k).denominator for k in range(8))), key
            assert nums == tuple(int(at(k) * den) for k in range(8)), key


def memo_ints(pv) -> int:
    """The integers held in vars(pv) outside the value fields (q, a, b, d),
    counted through nested tuples, lists and dicts: every memo the vector
    keeps, whatever its name."""

    def count(obj) -> int:
        if isinstance(obj, int):
            return 1
        if isinstance(obj, dict):
            return sum(map(count, obj)) + sum(map(count, obj.values()))
        if isinstance(obj, (tuple, list)):
            return sum(map(count, obj))
        return 0

    return sum(count(value) for name, value in vars(pv).items() if name not in pv._fields)


def test_a_vectors_memo_grows_linearly_with_the_degree():
    """After every recurrence and eigenvalue identity to n, and the table,
    normalized polynomial and Newton coefficients too, a vector holds its
    constructor's forms and hash and 3 integers per index k <= n + 1 the
    table reaches, plus one denominator per sequence: a node, an eigenvalue
    and a lowering numerator, none per length asked."""
    rng = random.Random(107)
    for n in (4, 10, 24):
        for _ in range(4):
            pv = copy.copy(random_parameter_vector(rng, depth=n + 1))  # empty memo
            built = memo_ints(pv)  # the forms and the hash
            for k in range(n + 1):
                u = monic_poly.__wrapped__(pv, k)
                assert recurrence_check(pv, k)
                assert apply_operator(pv, u) == u * pv.eigenvalue(k)
                normalized_poly(pv, k)
                to_newton_coeffs(pv, u)
            core.monic_table(pv, n)
            assert memo_ints(pv) <= built + 3 * (n + 2) + 3, (n, memo_ints(pv))
