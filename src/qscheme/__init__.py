"""Exact-arithmetic engine, classifier and CLI for the q-Askey scheme.

`import qscheme` loads no submodule: each public name is read from its home
module on first access (PEP 562), and the package keeps no copy of it, so
`qscheme.monic_poly` is always `qscheme.core.monic_poly`, whatever has been
rebound there since.
"""

# Each home module with the names the package re-exports from it; the
# submodule is a public name too.
_EXPORTS = {
    "qrational": ("format_rational", "rational"),
    "qpolynomial": ("Poly", "format_poly"),
    "qseries": ("qpoch", "qpoch_many"),
    "core": (
        "ParameterVector",
        "UncheckedParameterVector",
        "apply_operator",
        "monic_poly",
        "monic_table",
        "normalized_poly",
        "recurrence_check",
        "recurrence_coeffs",
        "to_newton_coeffs",
    ),
    "symmetry": ("ChartId", "ChartPoint", "GaugeAction", "apply_gauge", "canonicalize", "dualize", "q_invert"),
    "classifier": (
        "SchemeGraph",
        "SchemeNode",
        "ZeroPattern",
        "arrows_from",
        "build_graph",
        "emit",
        "enumerate_nodes",
        "pattern_of",
        "validate",
    ),
    "catalog": (),
    "limits": (),
    "errors": (),
    "laurent": (),
}

# public name -> home module
_HOME = {name: home for home, names in _EXPORTS.items() for name in (home, *names)}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f"{__name__}.{home}")
    return module if name == home else getattr(module, name)


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOME.keys())
