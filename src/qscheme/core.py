"""The parameter-vector engine of the q-Askey scheme.

A family of monic polynomials u_n is encoded by eleven Laurent coefficients
in q**k: three each for the node and eigenvalue sequences and five for the
lowering sequence,

    node(k)       = b0 + b1*q**k + b2*q**-k
    eigenvalue(k) = a0 + a1*q**k + a2*q**-k
    lowering(k)   = d0 + d1*q**k + d2*q**-k + d3*q**2k + d4*q**-2k

subject to d0+d1+d2+d3+d4 = 0, d3 = a1*b1/q and d4 = q*a2*b2.  The monic
u_n expand over the Newton basis v_k(x) = prod_{j<k} (x - node(j)) with
triangular coefficients

    c[n][k] = prod_{j=k}^{n-1} lowering(j+1) / (eigenvalue(n) - eigenvalue(j)),

are eigenfunctions of the operator acting on the Newton basis as
L v_k = eigenvalue(k) v_k + lowering(k) v_{k-1}, and satisfy the three-term
recurrence x*u_n = u_{n+1} + a_n*u_n + b_n*u_{n-1} exactly when the d3/d4
constraints hold.

Each vector keeps a sequence table: node(k), eigenvalue(k) and lowering(k)
for k below the largest length asked for, each sequence held once: node
and lowering as reduced integer pairs (num, den), den > 0, and eigenvalue
as integer numerators over the lcm of its denominators, each value built
from running integer powers q**k = P/R by one Laurent evaluation on
integers with one gcd.  The integer kernels (the Newton row, the Newton
Horner, the recurrence coefficients, the operator, the normalized
polynomial) read the table once per call and build no Fraction per value;
node, eigenvalue and lowering(k) are the Fraction view.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Sequence

from .errors import (
    ConstraintViolation,
    HSeparationViolated,
    Mismatch,
    XSeparationViolated,
    ZeroG,
)
from .qpolynomial import (
    Poly,
    _homogeneous_horner,
    _newton_division,
    _newton_horner,
    _over_lcm,
)
from .qrational import _Value, admissible_q, format_rational, rational


class ParameterVector(_Value):
    """q plus the eleven Laurent coefficients, validated on construction.

    Immutable: its value is (q, a, b, d), which `==` (between vectors of one
    class), the hash and `repr` read.  Every route to a vector validates:
    the constructor, and copy and pickle, which rebuild it through the
    constructor.  The constructor reads the coefficients into integers once,
    as _forms, which validation, the hash, the repeat test and the sequence
    table all read; `copy.copy(pv)` rebuilds the forms and the hash, and its
    table starts empty."""

    _fields = ("q", "a", "b", "d")

    q: Fraction
    a: tuple[Fraction, Fraction, Fraction]
    b: tuple[Fraction, Fraction, Fraction]
    d: tuple[Fraction, Fraction, Fraction, Fraction, Fraction]

    def __init__(self, q, a, b, d) -> None:
        vars(self).update(
            q=rational(q), a=tuple(map(rational, a)), b=tuple(map(rational, b)), d=tuple(map(rational, d))
        )
        self.__post_init__()

    def __post_init__(self):
        a, b, d = self.a, self.b, self.d
        if len(a) != 3 or len(b) != 3 or len(d) != 5:
            raise ConstraintViolation("expected 3 + 3 + 5 coefficients")
        # the node, eigenvalue and lowering coefficients in Laurent order
        # c_{-m..m}, each row as integer numerators over its lcm
        rows = ((b[2], b[0], b[1]), (a[2], a[0], a[1]), (d[4], d[2], d[0], d[1], d[3]))
        forms = tuple((tuple(nums), den) for nums, den in
                      (_over_lcm([c.as_integer_ratio() for c in row]) for row in rows))
        object.__setattr__(self, "_forms", forms)
        self._validate()
        object.__setattr__(self, "_hash", hash((self.q.as_integer_ratio(), forms)))

    def _validate(self) -> None:
        """The constraints, on the integer forms: with b1, b2 over xd, a1, a2
        over hd and d over gd, d3 = a1*b1/q and d4 = q*a2*b2 compared
        cross-multiplied."""
        q = self.q
        if not admissible_q(q):
            raise ConstraintViolation(f"base q = {q} must avoid 0 and +/-1")
        qn, qd = q.numerator, q.denominator
        ((b2, _, b1), xd), ((a2, _, a1), hd), (gs, gd) = self._forms
        if sum(gs):
            raise ConstraintViolation("d coefficients must sum to zero")
        if gs[4] * hd * xd * qn != a1 * b1 * qd * gd:
            raise ConstraintViolation("d3 must equal a1*b1/q")
        if gs[0] * qd * hd * xd != qn * a2 * b2 * gd:
            raise ConstraintViolation("d4 must equal q*a2*b2")
        if not a1 and not a2:
            raise ConstraintViolation("a1 and a2 cannot both vanish")
        if not any(gs):
            raise ConstraintViolation(
                "all lowering coefficients vanish (degenerate family)"
            )

    # -- sequences ---------------------------------------------------------

    # The sequence table as far as any caller has asked: node(0..) and
    # lowering(0..) as reduced pairs, and eigenvalue(0..) as (numerators,
    # den) over the lcm of its denominators held.  _forms and _hash are set
    # once by the constructor.  No part of the value: ==, hash, repr and
    # copies ignore them.  _table is replaced whole, never mutated.
    _table = ((), ((), 1), ())

    def __hash__(self) -> int:
        return self._hash

    def _at(self, which: int, k: int) -> Fraction:
        p, r = self.q.numerator, self.q.denominator
        qk = (p**k, r**k) if k >= 0 else (r**-k, p**-k)
        return Fraction(*_laurent_at(self._forms[which], *qk))

    def node(self, k: int) -> Fraction:
        return self._at(0, k)

    def eigenvalue(self, k: int) -> Fraction:
        return self._at(1, k)

    def lowering(self, k: int) -> Fraction:
        return self._at(2, k)

    def _grown(self, m: int) -> tuple:
        """The sequence table (node pairs, eigenvalue row, lowering pairs),
        grown to length m or more: k runs on from the table's end with
        running integer powers q**k = P/R, each value a reduced pair, and
        the eigenvalue numerators are put over the lcm of the row's old
        denominator and the new ones.  The longer table is published in one
        assignment, never in place, so concurrent callers each see a correct
        prefix."""
        table = self._table
        x, h, g = table
        start = len(x)
        if start < m:
            p, r = self.q.numerator, self.q.denominator
            P, R = p**start, r**start
            grown = ([], [], [])
            for _ in range(start, m):
                for values, form in zip(grown, self._forms):
                    values.append(_laurent_at(form, P, R))
                P *= p
                R *= r
            table = (x + tuple(grown[0]), _extended(h, grown[1]), g + tuple(grown[2]))
            object.__setattr__(self, "_table", table)
        return table

    # -- separation checks (closed form, exact for every q and every k) -------

    def _repeat(self, which: int) -> tuple[int, int] | None:
        """The first repeat (n, j) among all k of the node (which = 0) or
        eigenvalue (1) sequence, None if it never repeats."""
        c2, _, c1 = self._forms[which][0]
        return _first_repeat(c1, c2, self.q.numerator, self.q.denominator)

    def _repeat_within(self, which: int, depth: int) -> tuple[int, int] | None:
        """The first repeat (n, j) with n <= depth; nothing is tested below
        depth 1."""
        hit = self._repeat(which) if depth >= 1 else None
        return hit if hit and hit[0] <= depth else None

    def h_separation_ok(self, depth: int) -> bool:
        """eigenvalue(n) != eigenvalue(j) for all 0 <= j < n <= depth."""
        return self._repeat_within(1, depth) is None

    def check_h_separation(self, depth: int) -> None:
        if hit := self._repeat_within(1, depth):
            raise HSeparationViolated(*hit)

    def x_separation_ok(self, depth: int) -> bool:
        """node(m) != node(j) for all 0 <= j < m <= depth."""
        return self._repeat_within(0, depth) is None

    def check_x_separation(self, depth: int) -> None:
        if hit := self._repeat_within(0, depth):
            raise XSeparationViolated(*hit)

    # -- serialization -------------------------------------------------------

    def to_json_dict(self, checked_depth: int) -> dict:
        payload = {
            "q": format_rational(self.q),
            "a": [format_rational(v) for v in self.a],
            "b": [format_rational(v) for v in self.b],
            "d": [format_rational(v) for v in self.d],
        }
        payload["check"] = {
            "constraints": [
                "sum_d_zero",
                "d3_equals_a1_b1_over_q",
                "d4_equals_q_a2_b2",
                "a1_a2_not_both_zero",
                "some_d_nonzero",
            ],
            "h_separation_depth": checked_depth,
            "h_separation_ok": self.h_separation_ok(checked_depth),
        }
        return payload

    @staticmethod
    def from_json_dict(data: dict) -> "ParameterVector":
        return ParameterVector(data["q"], data["a"], data["b"], data["d"])


def _first_repeat(c1: int, c2: int, p: int, r: int) -> tuple[int, int] | None:
    """The first (n, j), j < n, in (n, j) order, with s_n == s_j among all k
    for s_k = c0 + c1*q**k + c2*q**-k; None if s never repeats.  c1 and c2
    are integer numerators over one denominator, q = p/r in lowest terms,
    r > 0.

    s_n - s_j = (q**n - q**j)(c1 - c2*q**-(n+j)): s is constant at q = 1 or
    c1 = c2 = 0 and has period 2 at q = -1; otherwise s_n == s_j iff c1, c2
    are nonzero and c2/c1 = q**s, s = n + j, first met at the smallest n.
    In lowest terms q**s = p**s/r**s, searched on integers until it outgrows
    c2/c1.  q = 0 leaves q**-k undefined and raises ZeroDivisionError.
    """
    if not p:
        raise ZeroDivisionError("q = 0 leaves q**-k undefined")
    if p == r or c1 == c2 == 0:
        return 1, 0
    if p == -r:
        return (1, 0) if c1 + c2 == 0 else (2, 0)
    if c1 == 0 or c2 == 0:
        return None
    g = gcd(c2, c1) if c1 > 0 else -gcd(c2, c1)
    num, den = c2 // g, c1 // g
    P, R, s = p, r, 1
    while abs(P) <= abs(num) and R <= den:
        if (P, R) == (num, den):
            return s // 2 + 1, s - s // 2 - 1
        P, R, s = P * p, R * r, s + 1
    return None


def _laurent_at(form: tuple[tuple[int, ...], int], P: int, R: int) -> tuple[int, int]:
    """sum_e c_e (P/R)**e for coefficients c_{-m..m} given as form =
    ((n_{-m}, ..., n_m), den), their integer numerators over one
    denominator, as the reduced pair (num, den), den > 0, of

        sum_e n_e P**(m+e) R**(m-e) / (den P**m R**m),

    with the numerator summed by a homogeneous Horner; one gcd.  P = 0
    (q = 0, which no checked vector has) raises ZeroDivisionError.
    """
    nums, den = form
    num, den = _homogeneous_horner(nums, P, R), den * (P * R) ** (len(nums) // 2)
    if not den:
        raise ZeroDivisionError("q = 0 leaves q**-k undefined")
    g = gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


def _extended(form: tuple[tuple[int, ...], int], pairs: list[tuple[int, int]]) -> tuple[tuple[int, ...], int]:
    """form = (nums, den) with the rationals given as reduced pairs appended,
    all numerators over the lcm of den and the pairs' denominators."""
    nums, den = form
    full = lcm(den, *(d for _, d in pairs))
    scale = full // den
    return tuple([v * scale for v in nums] + [n * (full // d) for n, d in pairs]), full


class UncheckedParameterVector(ParameterVector):
    """Constraint checks skipped, the forms and the hash still built; only
    for deliberately broken vectors."""

    def _validate(self) -> None:  # noqa: D102 - negative-test escape hatch
        pass


def _newton_row(h: tuple[Sequence[int], int], g: Sequence[tuple[int, int]], n: int, dx: int) -> list[int]:
    """Row n of the triangle as integers N_0..N_n with c[n][k] = N_k Dx**k
    / (N_n Dx**n), from h[0..n] and g[0..n]: the coefficients of u_n in
    _newton_horner's integer Newton form over the nodes' denominator Dx
    (Dx = 1 gives the row itself).  N_n != 0 needs h[n] != h[k] for k < n,
    N_0 != 0 needs g[1..n] nonzero.

    h = (H, Dh) gives h_j = H_j/Dh over any common denominator Dh (the
    table's eigenvalue row), and with g_j = a_j/b_j given as the table's
    reduced pair (a_j, b_j) each step ratio Dx*g_j/(h_n - h_{j-1}) is
    s_j/t_j, the pair (a_j*Dh*Dx, b_j*(H_n - H_{j-1})) divided by its gcd
    (left as it is when both vanish).  Then

        N_k = prod_{j=k+1..n} s_j * prod_{j=1..k} t_j,

    built by one suffix and one prefix product: one small gcd per step and
    no Fraction.  The gcds scale the whole row by one positive factor, which
    every caller divides out by reading the row over N_n or N_0.
    """
    if n < 0:
        raise ValueError("a Newton row needs n >= 0")
    big, dh = h
    top, dh = big[n], dh * dx
    steps = []
    for j in range(1, n + 1):
        a, b = g[j]
        s, t = a * dh, b * (top - big[j - 1])
        d = gcd(s, t)
        steps.append((s // d, t // d) if d > 1 else (s, t))
    row = [1] * (n + 1)
    acc = 1
    for k in range(n - 1, -1, -1):
        acc *= steps[k][0]
        row[k] = acc
    acc = 1
    for k in range(1, n + 1):
        acc *= steps[k - 1][1]
        row[k] *= acc
    return row


# No command calls this: it stays only because the benchmark clears its cache
# and reads its hit ratio by name (core.expansion_rows_hit_ratio), and the
# benchmark change that drops that metric deletes it.
@lru_cache(maxsize=4096)
def _expansion_rows(pv: ParameterVector, order: int) -> tuple[tuple[Fraction, ...], ...]:
    pv.check_h_separation(order)
    _, h, g = pv._grown(order + 1)
    rows = (_newton_row(h, g, n, 1) for n in range(order + 1))
    return tuple(tuple(Fraction(v, row[-1]) for v in row) for row in rows)


@lru_cache(maxsize=8192)
def monic_poly(pv: ParameterVector, n: int) -> Poly:
    """The monic degree-n polynomial sum_k c[n][k] v_k in the monomial basis.

    Only row n of the triangle is built, after eigenvalue(0..n) are checked
    for a repeat, in the integer Newton form of node(0..n-1) over their lcm
    Dx, where u_n has leading coefficient N_n Dx**n.
    """
    pv.check_h_separation(n)
    x, h, g = pv._grown(n + 1)
    nodes = _over_lcm(x[:n])
    row = _newton_row(h, g, n, nodes[1])
    return _newton_horner(row, row[-1] * nodes[1] ** n, nodes)


def to_newton_coeffs(pv: ParameterVector, p: Poly) -> list[Fraction]:
    """Coefficients e_k with p = sum e_k v_k.

    _newton_division over node(0..d-1), the table's pairs over their lcm Dx,
    gives p = sum E_k W_k(x) / den on integers, and v_k = W_k / Dx**k
    scales back to x: e_k = E_k Dx**k / den.
    """
    xs, dx = _over_lcm(pv._grown(p.degree)[0][:max(p.degree, 0)])
    nums, den = _newton_division(p, (xs, dx))
    return [Fraction(v * dx**k, den) for k, v in enumerate(nums)] or [Fraction(0)]


def apply_operator(pv: ParameterVector, p: Poly) -> Poly:
    """Apply the family's eigenoperator.

    The operator is represented through its Newton-basis action
    L v_k = eigenvalue(k) v_k + lowering(k) v_{k-1}: expand p over the basis,
    transform termwise, convert back to the monomial basis, all on integers.
    _newton_division gives p = sum E_k W_k(x) / den over node(0..d-1) with
    their lcm Dx, and v_k = W_k / Dx**k; with eigenvalue(k) = H_k/Dh over the
    table's denominator and lowering(0..d) = G_k/Dg over the lcm of their
    own, L p = sum (H_k E_k Dg + G_{k+1} E_{k+1} Dh Dx) W_k / (den Dh Dg),
    which goes to _newton_horner over the same nodes: nothing is rescaled
    between the two kernels and no Fraction is built.
    """
    if p.is_zero:
        return Poly.zero()
    d = p.degree
    x, (hs, dh), g = pv._grown(d + 1)
    nodes = _over_lcm(x[:d])
    e, den = _newton_division(p, nodes)
    gs, dg = _over_lcm(g[:d + 1])
    out = [hk * ek * dg for hk, ek in zip(hs, e)]
    lift = dh * nodes[1]
    for k in range(d):
        out[k] += gs[k + 1] * e[k + 1] * lift
    return _newton_horner(out, den * dh * dg, nodes)


def recurrence_coeffs(pv: ParameterVector, n: int) -> tuple[Fraction, Fraction | None]:
    """(a_n, b_n) of x*u_n = u_{n+1} + a_n*u_n + b_n*u_{n-1}, for n >= 0;
    b_0 is None, since u_{-1} = 0 leaves it undefined.

    With r(i, a, b) = lowering(i) / (eigenvalue(a) - eigenvalue(b)),

        a_n = node(n) + r(n+1, n, n+1) - r(n, n-1, n),
        b_n = r(n, n-1, n) * (r(n-1, n-2, n) - r(n, n-1, n) + r(n+1, n-1, n+1)
                              + node(n) - node(n-1)),

    each ratio an integer pair over the common denominator of
    eigenvalue(0..n+1), summed by cross-multiplication: one Fraction for a_n
    and one for b_n.  At n = 0 the lead ratio r(0, -1, 0) is absent, so
    a_0 = node(0) - lowering(1)/(eigenvalue(1) - eigenvalue(0)).  a_n needs
    u_{n+1}, so check_h_separation(n + 1) comes first, as in monic_poly.
    """
    if n < 0:
        raise ValueError("recurrence coefficients need n >= 0")
    pv.check_h_separation(n + 1)
    return _recurrence_pair(*pv._grown(n + 2), n)


def _recurrence_pair(x: Sequence[tuple[int, int]], h: tuple[Sequence[int], int],
                     g: Sequence[tuple[int, int]], n: int) -> tuple[Fraction, Fraction | None]:
    """recurrence_coeffs(pv, n) from node(0..n) and lowering(0..n+1) as the
    table's integer pairs and eigenvalue(0..n+1) as integers over the
    table's denominator, a longer prefix's once the table has grown past
    n + 2: each ratio's numerator and denominator both scale with it,
    so the values do not depend on it.  The caller has checked
    eigenvalue(0..n+1), so no ratio divides by zero."""
    big, dh = h

    def ratio(num_idx: int, da: int, db: int) -> tuple[int, int]:
        num, den = g[num_idx]
        return num * dh, den * (big[da] - big[db])

    un, ud = ratio(n + 1, n, n + 1)
    ln, ld = ratio(n, n - 1, n) if n else (0, 1)
    xn, xd = x[n]
    a_n = Fraction((xn * ud + un * xd) * ld - ln * xd * ud, xd * ud * ld)
    if not n:
        return a_n, None
    inner, den = ratio(n - 1, n - 2, n) if n >= 2 else (0, 1)
    pn, pd = x[n - 1]
    terms = ((-ln, ld), ratio(n + 1, n - 1, n + 1), (xn, xd), (-pn, pd))
    for num, d in terms:
        inner, den = inner * d + num * den, den * d
    return a_n, Fraction(ln * inner, ld * den)


def _three_term(u: Poly, prev: Poly, a: Fraction, b: Fraction | None) -> Poly:
    """(x - a)*u - b*prev, one step of the three-term recurrence.

    With u = U/D, prev = P/Dp, a = A/Da and b = B/Db, the step is summed on
    the stored integers over lcm(D*Da, Dp*Db) and reduced once; there is no
    b term when b is None or 0.
    """
    da = u.den * a.denominator
    den = lcm(da, prev.den * b.denominator) if b else da
    scale = den // da
    shift, an = a.denominator * scale, a.numerator * scale
    out = [0, *(v * shift for v in u.nums)]
    for i, v in enumerate(u.nums):
        out[i] -= an * v
    if b:
        bn = b.numerator * (den // (prev.den * b.denominator))
        for i, v in enumerate(prev.nums):
            out[i] -= bn * v
    return Poly._of(out, den)


def monic_table(pv: ParameterVector, n: int) -> list[tuple[Poly, tuple[Fraction, Fraction | None]]]:
    """[(u_k, recurrence_coeffs(pv, k)) for k <= n], built by the three-term
    recurrence and checked against the Newton expansion at its top row.

    From u_0 = 1, each u_{k+1} is _three_term(u_k, u_{k-1}, a_k, b_k).
    Every (a_k, b_k) reads one eigenvalue prefix of length n + 2, after one
    check_h_separation(n + 1), the check recurrence_coeffs(pv, n) makes.
    Raises Mismatch unless u_n equals monic_poly(pv, n).
    """
    if n < 0:
        raise ValueError("a monic table needs n >= 0")
    pv.check_h_separation(n + 1)
    x, h, g = pv._grown(n + 2)
    rows = []
    u, prev = Poly.one(), Poly.zero()
    for k in range(n + 1):
        if k:
            u, prev = _three_term(u, prev, *rows[k - 1][1]), u
        rows.append((u, _recurrence_pair(x, h, g, k)))
    if u != monic_poly(pv, n):
        raise Mismatch(f"u_{n} by the three-term recurrence differs from the Newton expansion")
    return rows


def recurrence_check(pv: ParameterVector, n: int) -> bool:
    """Exact check of the three-term recurrence x*u_n = u_{n+1} + a_n*u_n
    + b_n*u_{n-1} at index n (no b_n term at n = 0): the Newton-built
    u_{n+1} equals _three_term applied to the Newton-built u_n and u_{n-1}.
    """
    a_n, b_n = recurrence_coeffs(pv, n)
    u_n = monic_poly(pv, n)
    prev = monic_poly(pv, n - 1) if n else Poly.zero()
    return _three_term(u_n, prev, a_n, b_n) == monic_poly(pv, n + 1)


def normalized_poly(pv: ParameterVector, n: int) -> Poly:
    """The normalized polynomial

        sum_k prod_{j<k} (eigenvalue(n)-eigenvalue(j)) / prod_{j=1..k} lowering(j)
              * prod_{j<k} (x - node(j)),

    the integer Newton row of eigenvalue(0..n) read over its k = 0 entry,
    which is nonzero once lowering(1..n) is; raises ZeroG at the first
    vanishing lowering value.  With eigenvalue(0..n) distinct it is u_n
    rescaled by prod_{j<n} (eigenvalue(n)-eigenvalue(j))/lowering(j+1); it
    divides by no eigenvalue difference, so a repeat only lowers its degree.
    The sum is symmetric under dualize's node/eigenvalue exchange: the family
    satisfies normalized_poly(pv, n)(node(m)) == normalized_poly(dualize(pv), m)(eigenvalue(n)).
    """
    x, h, g = pv._grown(n + 1)
    for j in range(1, n + 1):
        if not g[j][0]:
            raise ZeroG(j)
    nodes = _over_lcm(x[:n])
    row = _newton_row(h, g, n, nodes[1])
    return _newton_horner(row, row[0], nodes)
