"""q-shifted factorials and terminating basic hypergeometric sums.

(b; q)_k = (1 - b)(1 - qb)...(1 - q^{k-1} b), with (b; q)_0 = 1 and the
standard convention (0; q)_k = 1.

A terminating r_phi_s series with upper parameters (q^{-n}, a_2, ..., a_r),
lower parameters (b_1, ..., b_s), base q and argument z is the finite sum
over k = 0..n of

    (q^{-n}; q)_k (a_2..a_r; q)_k / ((q; q)_k (b_1..b_s; q)_k)
        * ((-1)^k q^{k(k-1)/2})^(s - r + 1) * z^k.

Everything is exact over rationals; a vanishing denominator factor raises
DivisionByZero unless an upper factor already killed the series at an
earlier index.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .errors import DivisionByZero
from .qrational import rational


def qpoch(b: Fraction | int | str, q: Fraction | int | str, k: int) -> Fraction:
    """(b; q)_k as a finite exact product; k = 0 gives 1.

    With b = bn/bd and q**j = P/R, factor j is (bd*R - bn*P)/(bd*R); the
    numerators are multiplied as integers, the denominators multiply to
    bd**k * r**(k(k-1)/2) for q = p/r, and one Fraction is built.
    """
    if k < 0:
        raise ValueError("q-shifted factorial needs k >= 0")
    b = rational(b)
    q = rational(q)
    bn, bd = b.numerator, b.denominator
    p, r = q.numerator, q.denominator
    num = P = R = 1
    for _ in range(k):
        num *= bd * R - bn * P
        P *= p
        R *= r
    return Fraction(num, bd**k * r ** (k * (k - 1) // 2))


def qpoch_many(bs: Sequence[Fraction], q: Fraction, k: int) -> Fraction:
    """(b_1, ..., b_m; q)_k = product of the individual symbols."""
    acc = Fraction(1)
    for b in bs:
        acc *= qpoch(b, q, k)
    return acc


def terminating_sum(
    upper: Sequence[Fraction],
    lower: Sequence[Fraction],
    q: Fraction,
    n: int,
    step: Callable[[Fraction], Fraction],
) -> Fraction:
    """sum_{k=0}^{n} (upper; q)_k / ((q; q)_k (lower; q)_k) * prod_{j<k} step(q**j).

    The one term loop behind every series of the package.  Term k is term
    k-1 times the integer ratio rn/rd of its new factors, each factor
    1 - a*q**(k-1) written as (ad*R - an*P)/(ad*R) for a = an/ad and
    q**(k-1) = P/R, so term k costs O(len(upper) + len(lower)) integer
    products.  The term tn/td and the partial sum sn/td share one unreduced
    denominator, and one Fraction is built at the end.  Once an upper factor
    vanishes all later terms are zero and the loop stops, which is what
    makes early-terminating series with otherwise-degenerate lower
    parameters legal; a vanishing denominator before that raises, and so
    does a negative n.
    """
    if n < 0:
        raise ValueError(f"a terminating series needs n >= 0, got n = {n}")
    ups = [(a.numerator, a.denominator) for a in upper]
    lows = [(b.numerator, b.denominator) for b in lower]
    tn = td = sn = 1
    qj = Fraction(1)  # q**(k-1) while term k is built
    for k in range(1, n + 1):
        P, R = qj.numerator, qj.denominator
        rn = rd = 1
        for an, ad in ups:
            rn *= ad * R - an * P
            rd *= ad * R
        if not rn:
            break
        for bn, bd in lows:
            rd *= bd * R - bn * P
            rn *= bd * R
        s = step(qj)
        qj *= q
        P, R = qj.numerator, qj.denominator
        rn *= s.numerator * R
        rd *= s.denominator * (R - P)
        if not rd:
            raise DivisionByZero(
                f"denominator vanished at term {k} of a terminating series"
            )
        tn *= rn
        td *= rd
        sn = sn * rd + tn
    return Fraction(sn, td)


def qhyper_sum(
    upper: Sequence[Fraction],
    lower: Sequence[Fraction],
    q: Fraction,
    z: Fraction,
    n: int,
) -> Fraction:
    """Sum the n+1 terms of the terminating series defined above.

    The first upper parameter is expected to be q**(-n).  The factor
    ((-1)^k q^{k(k-1)/2})^(s - r + 1) z^k is the product of the step factors
    z * (-q^j)^(s - r + 1) over j < k.
    """
    upper = [rational(u) for u in upper]
    lower = [rational(b) for b in lower]
    q = rational(q)
    z = rational(z)
    correction = len(lower) - len(upper) + 1
    return terminating_sum(upper, lower, q, n, lambda qj: z * (-qj) ** correction)
