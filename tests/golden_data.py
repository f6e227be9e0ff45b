"""Hand-transcribed golden data for the published scheme chart.

18 base diagrams (their mirrors complete the chart; two diagrams are their
own mirror), the dual pairs and self-dual diagrams, 29 arrows inside one
half, and the six arrows connecting the two halves; and the package's public
namespace, `qscheme.__all__`.
"""

BASE_PATTERNS = {
    "1a": "BBB|BBBBB|BBB",
    "2a": "BBB|BBBBW|BBW",
    "2b": "BBW|BBBBW|BBB",
    "3a": "BBB|BBBWW|BBW",
    "3b": "WBB|WBBBW|BBW",
    "3c": "BBW|BBBBW|BBW",
    "3d": "BBW|BBBWW|BBB",
    "3e": "WBW|WBBBW|BBB",
    "4a": "BBB|BBWWW|BBW",
    "4b": "BBW|BBBWW|BBW",
    "4c": "WBB|WBBWW|BBW",
    "4d": "WBB|WWBBW|BBW",
    "4e": "WBW|WBBBW|BBW",
    "4f": "BBW|BBWWW|BBB",
    "4g": "WBW|WBBWW|BBB",
    "5a": "BBW|BBWWW|BBW",
    "5b": "WBW|WBBWW|BBW",
    "5c": "WBW|WWBBW|BBW",
}

SELF_MIRRORED = ("1a", "3e")

# The published node/eigenvalue duality: five pairs and four self-dual
# diagrams, in the chart's order.
DUAL_PAIRS = (("2a", "2b"), ("3a", "3d"), ("3b", "3b'"), ("4a", "4f"), ("4c", "4d'"))
SELF_DUAL = ("1a", "3c", "4b", "5a")

BASE_ARROWS = [
    ("1a", "2a"), ("1a", "2b"),
    ("2a", "3a"), ("2a", "3b"), ("2a", "3c"),
    ("2b", "3c"), ("2b", "3d"), ("2b", "3e"),
    ("3a", "4a"), ("3a", "4b"), ("3a", "4c"),
    ("3b", "4c"), ("3b", "4d"), ("3b", "4e"),
    ("3c", "4b"), ("3c", "4e"),
    ("3d", "4f"), ("3d", "4g"),
    ("3e", "4e"), ("3e", "4g"),
    ("4a", "5a"), ("4b", "5a"), ("4b", "5b"), ("4c", "5b"),
    ("4d", "5c"), ("4e", "5b"), ("4e", "5c"), ("4f", "5a"), ("4g", "5b"),
]

CROSS_ARROWS = [
    ("2b", "3b'"), ("2b'", "3b"),
    ("3d", "4d'"), ("3d'", "4d"),
    ("4g", "5c'"), ("4g'", "5c"),
]


# `qscheme.__all__`: 35 re-exported names and the ten submodules they come
# from, sorted as `dir()` sorts them.
PACKAGE_ALL = [
    "ChartId",
    "ChartPoint",
    "GaugeAction",
    "NewtonExpansion",
    "ParameterVector",
    "Poly",
    "SchemeGraph",
    "SchemeNode",
    "UncheckedParameterVector",
    "ZeroPattern",
    "apply_gauge",
    "apply_operator",
    "arrows_from",
    "build_graph",
    "canonicalize",
    "catalog",
    "classifier",
    "core",
    "dualize",
    "emit",
    "enumerate_nodes",
    "errors",
    "expansion",
    "finite_cutoff",
    "format_poly",
    "format_rational",
    "laurent",
    "limits",
    "monic_poly",
    "monic_table",
    "newton_basis",
    "normalized_poly",
    "pattern_of",
    "q_invert",
    "qpoch",
    "qpoch_many",
    "qpolynomial",
    "qrational",
    "qseries",
    "rational",
    "recurrence_check",
    "recurrence_coeffs",
    "symmetry",
    "to_newton_coeffs",
    "validate",
]


def mirror_label(label: str) -> str:
    body = label.rstrip("'")
    if body in SELF_MIRRORED:
        return body
    return body if label.endswith("'") else label + "'"


def mirror_pattern_string(text: str) -> str:
    return "|".join(row[::-1] for row in text.split("|"))


def all_labelled_patterns() -> dict[str, str]:
    """The full 34-entry label -> pattern table, mirrors included."""
    table = dict(BASE_PATTERNS)
    for label, text in BASE_PATTERNS.items():
        mirrored = mirror_pattern_string(text)
        if mirrored != text:
            table[label + "'"] = mirrored
    return table


def golden_arrow_set() -> set[tuple[str, str]]:
    arrows = set(BASE_ARROWS)
    arrows |= {(mirror_label(s), mirror_label(t)) for s, t in BASE_ARROWS}
    arrows |= set(CROSS_ARROWS)
    return arrows
