"""Dense univariate polynomials over exact rationals.

A polynomial is stored as integer numerators over one denominator,
p(x) = sum_i nums[i] x**i / den, low degree first and in lowest terms:
den > 0, gcd(den, *nums) == 1 and no trailing zero numerator.  The zero
polynomial stores no numerators over den = 1 and reports degree -1.  Every
kernel of the package works on that integer form, so a product, a sum or a
Newton conversion never builds a `Fraction` per coefficient; the `coeffs`
view builds them when read.  Degrees stay small (~20) at desk scale, so
the plain dense representation is enough.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

from .qrational import _Value, rational

Scalar = Union[int, str, Fraction]


class Poly(_Value):
    """p(x) = sum_i nums[i] x**i / den in lowest terms; immutable.

    Two polynomials are equal iff their (nums, den) are, since the form is
    unique; `coeffs[i]` is the coefficient of x**i as a `Fraction`.
    """

    __slots__ = _fields = ("nums", "den")

    nums: tuple[int, ...]
    den: int

    def __new__(cls, coeffs: Iterable[Scalar] = ()) -> "Poly":
        """The polynomial with low-degree-first coefficients `coeffs`."""
        return Poly._of(*_over_lcm([rational(c).as_integer_ratio() for c in coeffs]))

    @staticmethod
    def _of(nums: Sequence[int], den: int) -> "Poly":
        """sum_i nums[i] x**i / den, den != 0, brought to lowest terms by one
        gcd over the denominator and every numerator."""
        end = len(nums)
        while end and not nums[end - 1]:
            end -= 1
        if not end:
            nums, den = (), 1
        else:
            if end < len(nums):
                nums = nums[:end]
            g = gcd(den, *nums)
            if den < 0:
                g = -g
            nums = tuple(nums) if g == 1 else tuple([v // g for v in nums])
            den //= g
        self = object.__new__(Poly)
        _set_nums(self, nums)
        _set_den(self, den)
        return self

    def __reduce__(self):
        return Poly._of, (self.nums, self.den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, low degree first."""
        den = self.den
        return tuple(Fraction(v, den) for v in self.nums)

    def __repr__(self) -> str:
        return f"Poly(coeffs={self.coeffs!r})"

    @staticmethod
    def zero() -> "Poly":
        return Poly._of((), 1)

    @staticmethod
    def one() -> "Poly":
        return Poly._of((1,), 1)

    @staticmethod
    def x() -> "Poly":
        return Poly._of((0, 1), 1)

    @staticmethod
    def constant(c: Scalar) -> "Poly":
        c = rational(c)
        return Poly._of((c.numerator,), c.denominator)

    @staticmethod
    def linear(root: Scalar) -> "Poly":
        """The monic factor (x - root)."""
        root = rational(root)
        return Poly._of((-root.numerator, root.denominator), root.denominator)

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def is_monic(self) -> bool:
        return bool(self.nums) and self.nums[-1] == self.den

    def __add__(self, other: "Poly") -> "Poly":
        den = lcm(self.den, other.den)
        a = [v * (den // self.den) for v in self.nums]
        b = [v * (den // other.den) for v in other.nums]
        if len(a) < len(b):
            a, b = b, a
        for i, v in enumerate(b):
            a[i] += v
        return Poly._of(a, den)

    def __neg__(self) -> "Poly":
        return Poly._of([-v for v in self.nums], self.den)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly | Scalar") -> "Poly":
        if not isinstance(other, Poly):
            num, den = rational(other).as_integer_ratio()
            return Poly._of([v * num for v in self.nums], self.den * den)
        if self.is_zero or other.is_zero:
            return Poly.zero()
        b = other.nums
        out = [0] * (len(self.nums) + len(b) - 1)
        for i, a in enumerate(self.nums):
            if a:
                for j, c in enumerate(b, i):
                    out[j] += a * c
        return Poly._of(out, self.den * other.den)

    def __rmul__(self, other: Scalar) -> "Poly":
        return self * other

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, x: Scalar) -> Fraction:
        """p(x) by a homogeneous Horner on the numerators: with x = s/r,
        p(x) = sum nums[i] s^i r^(d-i) / (den r^d)."""
        x = rational(x)
        if not self.nums:
            return Fraction(0)
        r = x.denominator
        return Fraction(_homogeneous_horner(self.nums, x.numerator, r), self.den * r ** self.degree)

    def compose_affine(self, scale: Scalar, shift: Scalar = 0) -> "Poly":
        """Return p(scale*x + shift).

        With scale s = S/R != 0, p(s*x + t) = sum_k c_k s^k (x + t/s)^k: the
        Newton form with every node -t/s = X/Dx, where (x + t/s)^k is
        W_k(x)/Dx^k, and coefficients
        c_k s^k / Dx^k = nums[k] S^k (R Dx)^(d-k) / (den (R Dx)^d)."""
        scale, shift = rational(scale), rational(shift)
        if scale == 0 or self.is_zero:
            return Poly((self(shift),))
        node, dx = (-shift / scale).as_integer_ratio()
        s, r, d = scale.numerator, scale.denominator * dx, self.degree
        nums = [v * s**k * r ** (d - k) for k, v in enumerate(self.nums)]
        return _newton_horner(nums, self.den * r**d, ((node,) * d, dx))

    def deflate(self, root: Scalar) -> tuple["Poly", Fraction]:
        """Synthetic division by (x - root): returns (quotient, remainder).

        With root = X/Dx, _newton_division gives p = (e_0 + (Dx*x - X) Q(Dx*x))
        / den, so the quotient's x**i coefficient is Q_i Dx**(i+1) / den."""
        num, dx = rational(root).as_integer_ratio()
        out, den = _newton_division(self, ((num,), dx))
        return Poly._of([v * dx**i for i, v in enumerate(out[1:], 1)], den), Fraction(out[0], den)


_set_nums = Poly.nums.__set__
_set_den = Poly.den.__set__


def product_of_linear(roots: Iterable[Scalar]) -> Poly:
    """The monic polynomial with the given roots (with multiplicity): the
    Newton form W_k(x) / Dx**k with the roots as its k nodes over their lcm Dx."""
    xs, dx = _over_lcm([rational(r).as_integer_ratio() for r in roots])
    return _newton_horner([0] * len(xs) + [1], dx ** len(xs), (xs, dx))


def _newton_horner(nums: Sequence[int], den: int, nodes: tuple[Sequence[int], int]) -> Poly:
    """sum_k nums[k] * W_k(x) / den in the monomial basis, with

        W_k(x) = prod_{j<k} (Dx*x - X_j)

    for the nodes y_j = X_j/Dx given as their integer numerators over one
    denominator, nodes = (X, Dx), X holding at least len(nums) - 1 entries:
    the integer Newton form that _newton_division returns, so that
    _newton_horner(*_newton_division(p, nodes), nodes) == p.

    The one Newton-to-monomial conversion of the package.  A Horner in
    z = Dx*x runs on integers in one list, updated in place: after step k
    the list holds nums[k] + (z - X_k) * (the polynomial of step k + 1),
    low degree first, from entry k on.  So step k walks down from the top,
    subtracting from each entry X_k times the old value of the entry above
    it, which a running carry holds.  Then the z**i coefficient is scaled
    by Dx**i through a running power, and the result is reduced over den;
    no Fraction is built.
    """
    xs, dx = nodes
    acc = list(nums)
    top = len(acc) - 1
    for k in range(top - 1, -1, -1):
        node, carry = xs[k], acc[top]
        for i in range(top - 1, k - 1, -1):
            carry, acc[i] = acc[i], acc[i] - node * carry
    power = 1
    for i in range(1, top + 1):
        power *= dx
        acc[i] *= power
    return Poly._of(acc, den)


def _newton_division(p: Poly, nodes: tuple[Sequence[int], int]) -> tuple[list[int], int]:
    """Divide p by the Newton factors of the nodes y_j = X_j/Dx, given as
    their integer numerators over one denominator, nodes = (X, Dx),
    m = len(X) <= deg p + 1 times: integers (out, den) with

        p = sum_{k<m} out[k] W_k(x) / den + W_m(x) * sum_i out[m+i] (Dx*x)**i / den,

    W_k(x) = prod_{j<k} (Dx*x - X_j): the m remainders, then the last
    quotient, in _newton_horner's integer Newton form.  The inverse of
    _newton_horner, and the one synthetic division of the package.  With
    p = sum N_i x**i / D of degree d, the integer polynomial
    P(z) = sum N_i Dx**(d-i) z**i has p(x) = P(Dx*x) / (D Dx**d), so
    synthetic division of P by (z - X_0), (z - X_1), ... on integers gives
    out over den = D Dx**d.  N_i and D are p's own numerators and
    denominator, read as stored; the Dx powers are one running product.
    The division runs in one list, low degree first: dividing by (z - X_k)
    carries the running value down from the top entry to entry k, which
    ends as the remainder, and leaves the quotient above it.
    """
    xs, dx = nodes
    if not p.nums:
        return [0] * len(xs), 1
    acc, d = list(p.nums), p.degree
    power = 1
    for i in range(d - 1, -1, -1):
        power *= dx
        acc[i] *= power
    for k, node in enumerate(xs):
        carry = acc[d]
        for i in range(d - 1, k - 1, -1):
            carry = acc[i] = acc[i] + node * carry
    return acc, p.den * dx**d


def _homogeneous_horner(nums: Sequence[int], s: int, r: int) -> int:
    """sum_i nums[i] * s**i * r**(d-i), d = len(nums) - 1: the numerator of
    sum_i nums[i] * (s/r)**i over r**d, by one Horner on integers."""
    acc, rpow = nums[-1], 1
    for num in reversed(nums[:-1]):
        rpow *= r
        acc = acc * s + num * rpow
    return acc


def _over_lcm(pairs: Sequence[tuple[int, int]]) -> tuple[list[int], int]:
    """Integer numerators of the rationals num/den given as (num, den)
    pairs, den > 0, over the lcm of their denominators.  The denominators
    go to lcm as a list: CPython builds the tuple for f(*generator) at a
    guessed length of 10 and shrinks it, so each call would park one tuple
    in a shorter length's free list (up to 2000 per length)."""
    den = lcm(*[d for _, d in pairs])
    return [n * (den // d) for n, d in pairs], den


def format_poly(p: Poly) -> str:
    """Human-readable form, highest degree first: "x^2 - 3/2 x + 1/2".

    Each coefficient nums[i]/den is reduced by one gcd and written from its
    numerator and denominator: the sign from the numerator, the text as
    str(Fraction) writes the magnitude."""
    if p.is_zero:
        return "0"
    parts: list[str] = []
    nums, den = p.nums, p.den
    for i in range(p.degree, -1, -1):
        num = nums[i]
        if not num:
            continue
        g = gcd(num, den)
        mag, d = (-num if num < 0 else num) // g, den // g
        text = str(mag) if d == 1 else f"{mag}/{d}"
        if i == 0:
            body = text
        else:
            xpow = "x" if i == 1 else f"x^{i}"
            body = xpow if mag == 1 and d == 1 else f"{text} {xpow}"
        if not parts:
            parts.append(f"-{body}" if num < 0 else body)
        else:
            parts.append(f"{'-' if num < 0 else '+'} {body}")
    return " ".join(parts)
