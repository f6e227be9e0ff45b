"""Exception types shared across the package."""

from __future__ import annotations


class QSchemeError(Exception):
    """Base class for all qscheme errors."""


class DivisionByZero(QSchemeError, ZeroDivisionError):
    """A denominator vanished without a cancelling zero in the numerator."""


class ConstraintViolation(QSchemeError):
    """A parameter vector breaks one of its defining constraints."""


class HSeparationViolated(QSchemeError):
    """Two eigenvalues collide: eigenvalue(n) == eigenvalue(j) for j < n."""

    def __init__(self, n: int, j: int):
        super().__init__(f"eigenvalue({n}) == eigenvalue({j})")
        self.n = n
        self.j = j


class XSeparationViolated(QSchemeError):
    """Two Newton nodes collide: node(m) == node(j) for j < m."""

    def __init__(self, m: int, j: int):
        super().__init__(f"node({m}) == node({j})")
        self.m = m
        self.j = j


class ZeroG(QSchemeError):
    """A lowering coefficient required to be nonzero vanishes."""

    def __init__(self, j: int):
        super().__init__(f"lowering({j}) == 0")
        self.j = j


class ChartUnreachable(QSchemeError):
    """A coordinate the chart pins to 1 is zero for this vector."""


class RuleViolation(QSchemeError):
    """A zero pattern breaks the admissibility rules of the scheme."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


class InadmissibleParams(QSchemeError):
    """Family parameters violate an admissibility predicate."""


class Mismatch(QSchemeError):
    """Two independent routes to the same value disagree."""

