"""Laurent polynomials in one variable, eps, with Fraction coefficients.

The limits module runs the catalog's coefficient formulas on them.  Those
divide only by parameters that are monomials in eps, so division is by a
nonzero monomial only; any other division raises ZeroDivisionError.
"""

from fractions import Fraction


def _terms_of(x) -> dict[int, Fraction]:
    """x's {exponent: nonzero coefficient}; an int or a Fraction is a constant."""
    if isinstance(x, Laurent):
        return x._terms
    if isinstance(x, (int, Fraction)):
        return {0: Fraction(x)} if x else {}
    raise TypeError(f"a Laurent polynomial mixes only with rationals, not {type(x).__name__}")


def _from_terms(terms: dict[int, Fraction]) -> "Laurent":
    out = Laurent()
    out._terms = {e: c for e, c in terms.items() if c}
    return out


class Laurent:
    """A sum of c * eps**e held as {e: c}, no c zero.  Laurent(c, e) is
    c * eps**e for an int, a Fraction or a Laurent c; Laurent(c) lifts c."""

    def __init__(self, c: "int | Fraction | Laurent" = 0, e: int = 0) -> None:
        self._terms = {f + e: v for f, v in _terms_of(c).items()}

    def __add__(self, other):
        out = dict(self._terms)
        for e, c in _terms_of(other).items():
            out[e] = out.get(e, 0) + c
        return _from_terms(out)

    __radd__ = __add__

    def __neg__(self) -> "Laurent":
        return _from_terms({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        terms = _terms_of(other)
        out: dict[int, Fraction] = {}
        for e, c in self._terms.items():
            for f, d in terms.items():
                out[e + f] = out.get(e + f, 0) + c * d
        return _from_terms(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        terms = _terms_of(other)
        if len(terms) != 1:
            raise ZeroDivisionError("a Laurent polynomial divides only by a nonzero monomial")
        ((f, d),) = terms.items()
        return _from_terms({e - f: c / d for e, c in self._terms.items()})

    def __rtruediv__(self, other):
        return Laurent(other) / self

    def __eq__(self, other) -> bool:
        return isinstance(other, (int, Fraction, Laurent)) and self._terms == _terms_of(other)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def valuation(self) -> int:
        """The lowest exponent present; zero has none and raises ValueError."""
        return min(self._terms)

    def coefficient(self, e: int) -> Fraction:
        return self._terms.get(e, Fraction(0))
