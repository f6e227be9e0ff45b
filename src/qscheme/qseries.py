"""q-shifted factorials and terminating basic hypergeometric sums.

(b; q)_k = (1 - b)(1 - qb)...(1 - q^{k-1} b), with (b; q)_0 = 1 and the
standard convention (0; q)_k = 1.

A terminating r_phi_s series with upper parameters (q^{-n}, a_2, ..., a_r),
lower parameters (b_1, ..., b_s), base q and argument z is the finite sum
over k = 0..n of

    (q^{-n}; q)_k (a_2..a_r; q)_k / ((q; q)_k (b_1..b_s; q)_k)
        * ((-1)^k q^{k(k-1)/2})^(s - r + 1) * z^k.

Every series of the package runs through one term loop, terminating_sum, in
the form of Gasper & Rahman, Basic Hypergeometric Series (2004), ch. 1: each
term is the previous one times a rational function of q^k.  Beyond the
q-shifted factorials, that function's step factor is data, its Laurent
coefficients in q^j (for the r_phi_s above, the one coefficient (-1)^c z at
the power c = s - r + 1).  The loop takes everything as integers: each upper
and lower parameter a = an/ad as the pair (an, ad), and the step factor as
its Laurent numerators over one common denominator, (nums, den, low).  It
evaluates the step factor by one homogeneous Horner at q^j = P/R and builds
one Fraction per series: the value.

Everything is exact over rationals; a vanishing denominator factor raises
DivisionByZero unless an upper factor already killed the series at an
earlier index.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import DivisionByZero
from .qpolynomial import _homogeneous_horner
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
    upper: Sequence[tuple[int, int]],
    lower: Sequence[tuple[int, int]],
    q: Fraction,
    n: int,
    step: tuple[Sequence[int], int, int],
    scale: tuple[int, int] = (1, 1),
) -> Fraction:
    """c * sum_{k=0}^{n} (upper; q)_k / ((q; q)_k (lower; q)_k) * prod_{j<k} s(q**j),

    with each upper and lower parameter a = an/ad given as the integer pair
    (an, ad), ad != 0, the step factor s(t) = sum_i N_i t**(low + i) / den
    given as its Laurent numerators over one denominator,
    step = (nums, den, low), den != 0 (low may be negative), and the
    prefactor c = cn/cd as scale = (cn, cd), cd != 0, the sum's term 0.

    The one term loop behind every series of the package, on integers.
    q**(k-1) = P/R is kept as running integer powers of q = p/r.  Term k is
    term k-1 times the integer ratio rn/rd of its new factors: each factor
    1 - a*q**(k-1) is (ad*R - an*P)/(ad*R), and with
    high = low + len(nums) - 1,

        s(P/R) = H * P**max(low, 0) * R**max(-high, 0)
                 / (den * P**max(-low, 0) * R**max(high, 0)),

    where H = sum_i N_i P**i R**(high-low-i) is one homogeneous Horner of
    the numerators N_i.  So term k costs O(len(upper) + len(lower) +
    len(nums)) integer products.  The term tn/td and the partial sum sn/td
    share one unreduced denominator, and one Fraction is built at the end:
    the value, prefactor included.
    Once an upper factor vanishes all later terms are zero and the loop
    stops, which is what makes early-terminating series with
    otherwise-degenerate lower parameters legal; a vanishing denominator
    before that raises, and so does a negative n.
    """
    if n < 0:
        raise ValueError(f"a terminating series needs n >= 0, got n = {n}")
    nums, den, low = step
    high = low + len(nums) - 1
    p_up, p_down = max(low, 0), max(-low, 0)
    r_up, r_down = max(-high, 0), max(high, 0)
    p, r = q.numerator, q.denominator
    tn, td = scale  # term 0
    sn = tn
    P = R = 1  # q**(k-1) = P/R while term k is built
    for k in range(1, n + 1):
        rn = rd = 1
        for an, ad in upper:
            rn *= ad * R - an * P
            rd *= ad * R
        if not rn:
            break
        for bn, bd in lower:
            rd *= bd * R - bn * P
            rn *= bd * R
        rn *= _homogeneous_horner(nums, P, R) * P**p_up * R**r_up
        rd *= den * P**p_down * R**r_down
        P *= p
        R *= r
        rn *= R
        rd *= R - P
        if not rd:
            raise DivisionByZero(
                f"denominator vanished at term {k} of a terminating series"
            )
        tn *= rn
        td *= rd
        sn = sn * rd + tn
    return Fraction(sn, td)
