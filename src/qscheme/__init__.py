"""Exact-arithmetic engine, classifier and CLI for the q-Askey scheme."""

from .qrational import format_rational, rational
from .qpolynomial import Poly, format_poly
from .qseries import qpoch, qpoch_many
from .core import (
    NewtonExpansion,
    ParameterVector,
    UncheckedParameterVector,
    apply_operator,
    expansion,
    finite_cutoff,
    monic_poly,
    monic_table,
    newton_basis,
    normalized_poly,
    recurrence_check,
    recurrence_coeffs,
    to_newton_coeffs,
)
from .symmetry import (
    ChartId,
    ChartPoint,
    GaugeAction,
    apply_gauge,
    canonicalize,
    dualize,
    q_invert,
)
from .classifier import (
    SchemeGraph,
    SchemeNode,
    ZeroPattern,
    arrows_from,
    build_graph,
    emit,
    enumerate_nodes,
    pattern_of,
    validate,
)
from . import catalog, limits

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
