"""Dense univariate polynomials over exact rationals.

Coefficients are stored low degree first with no trailing zeros; the zero
polynomial stores an empty tuple and reports degree -1.  Degrees stay small
(~20) at desk scale, so the plain dense representation is enough.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence, Union

from .errors import DivisionByZero
from .qrational import rational

Scalar = Union[int, str, Fraction]


def _normalize(coeffs: Iterable[Scalar]) -> tuple[Fraction, ...]:
    out = [rational(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class Poly:
    """coeffs[i] is the coefficient of x**i."""

    coeffs: tuple[Fraction, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _normalize(self.coeffs))

    @staticmethod
    def zero() -> "Poly":
        return Poly(())

    @staticmethod
    def one() -> "Poly":
        return Poly((Fraction(1),))

    @staticmethod
    def x() -> "Poly":
        return Poly((Fraction(0), Fraction(1)))

    @staticmethod
    def constant(c: Scalar) -> "Poly":
        return Poly((rational(c),))

    @staticmethod
    def linear(root: Scalar) -> "Poly":
        """The monic factor (x - root)."""
        return Poly((-rational(root), Fraction(1)))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coeff(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly | Scalar") -> "Poly":
        if not isinstance(other, Poly):
            s = rational(other)
            return Poly(tuple(c * s for c in self.coeffs))
        if self.is_zero or other.is_zero:
            return Poly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

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
        """p(x) by a homogeneous Horner on integers: with x = s/r and the
        coefficients N_i/D over their common denominator D,
        p(x) = sum N_i s^i r^(n-i) / (D r^n)."""
        x = rational(x)
        if not self.coeffs:
            return Fraction(0)
        nums, den = _over_lcm(self.coeffs)
        r = x.denominator
        return Fraction(_homogeneous_horner(nums, x.numerator, r), den * r ** (len(nums) - 1))

    def compose_affine(self, scale: Scalar, shift: Scalar = 0) -> "Poly":
        """Return p(scale*x + shift).

        With scale s != 0, p(s*x + t) = sum_k c_k s^k (x + t/s)^k: the Newton
        form with coefficients c_k s^k and every node -t/s."""
        scale, shift = rational(scale), rational(shift)
        if scale == 0:
            return Poly((self(shift),))
        nums, den = _over_lcm([c * scale**k for k, c in enumerate(self.coeffs)])
        return _newton_horner(nums, den, (-shift / scale,) * len(nums))

    def deflate(self, root: Scalar) -> tuple["Poly", Fraction]:
        """Synthetic division by (x - root): returns (quotient, remainder)."""
        out, den = _newton_division(self, (rational(root),))
        return Poly([Fraction(c, den) for c in out[1:]]), Fraction(out[0], den)


def poly(coeffs: Iterable[Scalar]) -> Poly:
    """Build a polynomial from low-degree-first coefficients."""
    return Poly(tuple(coeffs))


def poly_divrem(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Long division: a = q*b + r with deg(r) < deg(b)."""
    if b.is_zero:
        raise DivisionByZero("polynomial division by zero")
    if a.degree < b.degree:
        return Poly.zero(), a
    rem = list(a.coeffs)
    lead = b.coeffs[-1]
    db = b.degree
    quot = [Fraction(0)] * (a.degree - db + 1)
    for i in range(a.degree - db, -1, -1):
        c = rem[i + db] / lead
        quot[i] = c
        if c != 0:
            for j, bc in enumerate(b.coeffs):
                rem[i + j] -= c * bc
    return Poly(quot), Poly(rem)


def product_of_linear(roots: Iterable[Scalar]) -> Poly:
    """The monic polynomial with the given roots (with multiplicity)."""
    roots = tuple(rational(r) for r in roots)
    return _newton_horner([0] * len(roots) + [1], 1, roots)


def _newton_horner(nums: list[int], den: int, nodes: tuple[Fraction, ...]) -> Poly:
    """sum_k (nums[k]/den) * prod_{j<k} (x - nodes[j]) in the monomial basis.

    The one Newton-to-monomial conversion of the package.  The accumulator
    holds integer numerators over den*t.  Each step multiplies it by
    (x - p/r) as acc*(r*x - p), scaling t by r, then adds nums[k]*t to the
    constant term.  Fractions are built once, at the end.
    """
    if not nums:
        return Poly(())
    acc, t = [nums[-1]], 1  # low degree first
    for k in range(len(nums) - 2, -1, -1):
        p, r = nodes[k].numerator, nodes[k].denominator
        acc = [-p * acc[0]] + [r * hi - p * lo for hi, lo in zip(acc, acc[1:])] + [r * acc[-1]]
        t *= r
        acc[0] += nums[k] * t
    den *= t
    return Poly([Fraction(v, den) for v in acc])


def _newton_division(p: Poly, nodes: Sequence[Fraction]) -> tuple[list[int], int]:
    """Divide p by (x - nodes[0]), the quotient by (x - nodes[1]), and so on,
    m = len(nodes) <= deg p + 1 times: integers (out, den) with

        p = sum_{k<m} (out[k]/den) prod_{j<k} (x - nodes[j])
            + prod_{j<m} (x - nodes[j]) * sum_i (out[m+i]/den) x**i,

    the m remainders, then the last quotient.  The inverse of _newton_horner,
    and the one synthetic division of the package.  With the nodes over
    their lcm Dx, X_j = nodes[j]*Dx, and p = sum N_i x**i / D of degree d,
    the integer polynomial P(y) = sum N_i Dx**(d-i) y**i has
    p(x) = P(Dx*x) / (D Dx**d).  Synthetic division of P by (y - X_0),
    (y - X_1), ... runs on integers; its k-th remainder e'_k gives
    out[k] = e'_k Dx**k, and its last quotient Q gives out[m+i] = Q_i Dx**(m+i),
    all over den = D Dx**d.
    """
    if not p.coeffs:
        return [0] * len(nodes), 1
    nums, den = _over_lcm(p.coeffs)
    xs, dx = _over_lcm(nodes)
    acc, scale = [], 1  # P, high degree first
    for num in reversed(nums):
        acc.append(num * scale)
        scale *= dx
    rems = []
    for node in xs:
        for i in range(1, len(acc)):
            acc[i] += node * acc[i - 1]
        rems.append(acc.pop())
    out, scale = rems + acc[::-1], 1
    for j in range(len(out)):
        out[j] *= scale
        scale *= dx
    return out, den * dx ** (len(nums) - 1)


def _homogeneous_horner(nums: Sequence[int], s: int, r: int) -> int:
    """sum_i nums[i] * s**i * r**(d-i), d = len(nums) - 1: the numerator of
    sum_i nums[i] * (s/r)**i over r**d, by one Horner on integers."""
    acc, rpow = nums[-1], 1
    for num in reversed(nums[:-1]):
        rpow *= r
        acc = acc * s + num * rpow
    return acc


def _over_lcm(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of coeffs over the lcm of their denominators."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def format_poly(p: Poly, var: str = "x") -> str:
    """Human-readable form, highest degree first: "x^2 - 3/2 x + 1/2".

    Each coefficient is written from its numerator and denominator: the sign
    from the numerator, the text as str(Fraction) writes the magnitude."""
    if p.is_zero:
        return "0"
    parts: list[str] = []
    for i in range(p.degree, -1, -1):
        c = p.coeffs[i]
        num, den = c.numerator, c.denominator
        if not num:
            continue
        mag = -num if num < 0 else num
        text = str(mag) if den == 1 else f"{mag}/{den}"
        if i == 0:
            body = text
        else:
            xpow = var if i == 1 else f"{var}^{i}"
            body = xpow if mag == 1 and den == 1 else f"{text} {xpow}"
        if not parts:
            parts.append(f"-{body}" if num < 0 else body)
        else:
            parts.append(f"{'-' if num < 0 else '+'} {body}")
    return " ".join(parts)
