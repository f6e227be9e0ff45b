"""Invariances of the eleven-coefficient parametrization.

Four gauge freedoms leave the polynomial family essentially unchanged:

  1. shifting a0 shifts every eigenvalue (no effect on the u_n);
  2. scaling a0,a1,a2 and all d_i by mu scales eigenvalues and lowering
     values by mu (no effect on the u_n);
  3. shifting b0 by sigma shifts every node, so u_n(x) -> u_n(x - sigma);
  4. scaling b0,b1,b2 and all d_i by rho scales nodes and lowering values
     by rho, so u_n(x) -> rho**n u_n(x/rho).

Two further operations act on the scheme: exchanging q with 1/q (swap the
up/down Laurent coefficients) and the node/eigenvalue duality (swap the a
and b rows).  Pinning two coordinates to 1 by gauge scaling and dropping
the shifts produces four local coordinates; the three charts below are the
published tables around the three terminal families of the scheme's lower
row, against which computed zero signatures are compared.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .core import ParameterVector
from .errors import ChartUnreachable, XSeparationViolated
from .qrational import _Value, rational


class GaugeAction(_Value):
    """Shifts are applied before scales.  Immutable; its value is
    (tau, mu, sigma, rho), coerced to Fractions, and both scales are
    nonzero."""

    __slots__ = _fields = ("tau", "mu", "sigma", "rho")

    tau: Fraction
    mu: Fraction
    sigma: Fraction
    rho: Fraction

    def __init__(self, tau=Fraction(0), mu=Fraction(1), sigma=Fraction(0), rho=Fraction(1)) -> None:
        values = tuple(map(rational, (tau, mu, sigma, rho)))
        if values[1] == 0 or values[3] == 0:
            raise ValueError("gauge scales must be nonzero")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)


def gauge_rows(a, b, d, tau, mu, sigma, rho) -> tuple[tuple, tuple, tuple]:
    """a0 -> mu*(a0+tau), a1,a2 -> mu*., b0 -> rho*(b0+sigma), b1,b2 -> rho*.,
    d_i -> mu*rho*d_i.  Only + and * are used: the rows may hold Fractions
    or Laurent polynomials."""
    scale = mu * rho
    return (
        (mu * (a[0] + tau), mu * a[1], mu * a[2]),
        (rho * (b[0] + sigma), rho * b[1], rho * b[2]),
        tuple(scale * v for v in d),
    )


def apply_gauge(pv: ParameterVector, g: GaugeAction) -> ParameterVector:
    """gauge_rows on the vector's rows, which preserves the constraints."""
    return ParameterVector(pv.q, *gauge_rows(pv.a, pv.b, pv.d, g.tau, g.mu, g.sigma, g.rho))


def q_invert(pv: ParameterVector) -> ParameterVector:
    """Exchange q with 1/q; the three sequences are unchanged as functions
    of k, so the monic polynomials are literally identical."""
    d0, d1, d2, d3, d4 = pv.d
    return ParameterVector(
        q=1 / pv.q,
        a=(pv.a[0], pv.a[2], pv.a[1]),
        b=(pv.b[0], pv.b[2], pv.b[1]),
        d=(d0, d2, d1, d4, d3),
    )


def dualize(pv: ParameterVector) -> ParameterVector:
    """Swap the node and eigenvalue rows (a_i <-> b_i), keeping the d_i; refuses
    constant nodes (b1 = b2 = 0), which would be the dual's constant eigenvalues."""
    if pv.b[1] == 0 and pv.b[2] == 0:
        raise XSeparationViolated(1, 0)
    return ParameterVector(q=pv.q, a=pv.b, b=pv.a, d=pv.d)


class ChartId(Enum):
    """The three published coordinate charts of the scheme manifold."""

    A2B2 = "a2=b2=1 with coordinates (a1, b1, d0, d1)"
    A2D0_D1 = "a2=d0=1 with coordinates (a1, b1, b2, d1)"
    A2D0_D2 = "a2=d0=1 with coordinates (a1, b1, b2, d2)"


class ChartPoint(NamedTuple):
    chart: ChartId
    coords: tuple[Fraction, Fraction, Fraction, Fraction]

    @property
    def signature(self) -> tuple[bool, bool, bool, bool]:
        """True where the local coordinate is nonzero (black)."""
        return tuple(c != 0 for c in self.coords)


def canonicalize(pv: ParameterVector, chart: ChartId) -> ChartPoint:
    """Gauge the vector's rows into the chart: shifts pin a0 = b0 = 0, scales
    pin the chart's two coordinates to 1; returns the four local coordinates."""
    a2 = pv.a[2]
    if a2 == 0:
        raise ChartUnreachable(f"{chart.name}: a2 = 0 cannot be scaled to 1")
    mu = 1 / a2
    if chart is ChartId.A2B2:
        b2 = pv.b[2]
        if b2 == 0:
            raise ChartUnreachable(f"{chart.name}: b2 = 0 cannot be scaled to 1")
        rho = 1 / b2
    else:
        d0 = pv.d[0]
        if d0 == 0:
            raise ChartUnreachable(f"{chart.name}: d0 = 0 cannot be scaled to 1")
        rho = a2 / d0
    a, b, d = gauge_rows(pv.a, pv.b, pv.d, -pv.a[0], mu, -pv.b[0], rho)
    if chart is ChartId.A2B2:
        coords = (a[1], b[1], d[0], d[1])
    elif chart is ChartId.A2D0_D1:
        coords = (a[1], b[1], b[2], d[1])
    else:
        coords = (a[1], b[1], b[2], d[2])
    return ChartPoint(chart=chart, coords=coords)


# -- published chart tables --------------------------------------------------
#
# Each row: (label, printed 4-bool signature).  True = black (nonzero).
# Three rows of the published tables disagree with the explicit family data
# (and two of them are not even admissible patterns); they are kept verbatim
# here and surfaced as documented discrepancies by the chart verifier
# rather than silently corrected:
#   * A2B2 row "3d"       printed (W,B,W,B), computed (B,W,B,W)
#   * A2D0_D2 row "3d'"   printed (B,W,B,W), computed (B,B,W,W)
#   * A2D0_D2 row "5e"    no family 5e exists; the row carries the data of 5c

B, W = True, False

CHART_ROWS: dict[ChartId, tuple[tuple[str, tuple[bool, bool, bool, bool]], ...]] = {
    ChartId.A2B2: (
        ("1a", (B, B, B, B)),
        ("2a", (W, B, B, B)),
        ("2b", (B, W, B, B)),
        ("3a", (W, B, B, W)),
        ("3c", (W, W, B, B)),
        ("3d", (W, B, W, B)),
        ("4a", (W, B, W, W)),
        ("4b", (W, W, B, W)),
        ("4f", (B, W, W, W)),
        ("5a", (W, W, W, W)),
    ),
    ChartId.A2D0_D1: (
        ("1a", (B, B, B, B)),
        ("2a", (W, B, B, B)),
        ("2b", (B, W, B, B)),
        ("2b'", (B, B, W, B)),
        ("3a", (W, B, B, W)),
        ("3b", (W, B, W, B)),
        ("3c", (W, W, B, B)),
        ("3e", (B, W, W, B)),
        ("4b", (W, W, B, W)),
        ("4c", (W, B, W, W)),
        ("4e", (W, W, W, B)),
        ("4g", (B, W, W, W)),
        ("5b", (W, W, W, W)),
    ),
    ChartId.A2D0_D2: (
        ("1a", (B, B, B, B)),
        ("2a", (W, B, B, B)),
        ("2b", (B, W, B, B)),
        ("2b'", (B, B, W, B)),
        ("3b", (W, B, W, B)),
        ("3c", (W, W, B, B)),
        ("3e", (B, W, W, B)),
        ("3d'", (B, W, B, W)),
        ("4d", (W, B, W, W)),
        ("4e", (W, W, W, B)),
        ("4g'", (B, W, W, W)),
        ("5e", (W, W, W, W)),
    ),
}

# Rows whose printed content is known not to match the family data, with the
# instance label actually used to exercise them.
CHART_DISCREPANCIES: dict[tuple[ChartId, str], str] = {
    (ChartId.A2B2, "3d"): (
        "printed signature disagrees with the 3d family data "
        "(computed a1,d0 black / b1,d1 white); kept verbatim, flagged"
    ),
    (ChartId.A2D0_D2, "3d'"): (
        "printed signature disagrees with the q-inverted 3d family data "
        "(computed a1,b1 black / b2,d2 white); kept verbatim, flagged"
    ),
    (ChartId.A2D0_D2, "5e"): (
        "no family 5e exists anywhere in the scheme; the all-white row "
        "matches the 5c data, which is used for the check"
    ),
}

# Label substitutions applied before instantiating a row's family.
CHART_ROW_INSTANCE_LABEL: dict[tuple[ChartId, str], str] = {
    (ChartId.A2D0_D2, "5e"): "5c",
}


def signature_string(signature: tuple[bool, ...]) -> str:
    return "".join("B" if v else "W" for v in signature)
