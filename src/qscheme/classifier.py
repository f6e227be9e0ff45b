"""Zero patterns and the scheme graph.

Which of the eleven coefficients vanish almost always determines the family,
so each family is drawn as a 3/5/3 black-white array

        b2 b0 b1
     d4 d2 d0 d1 d3
        a2 a0 a1

with black = any value and white = zero.  Admissible arrays satisfy:

  1. if b1 or a1 is white then d3 is white; if b2 or a2 is white then d4 is
     white (the d3/d4 constraints force it);
  2. b0 and a0 count as black regardless of value (shift gauge freedom);
  3. in the middle row the blacks form a contiguous block (only the
     outermost nonzero d_i matter);
  4. the bottom row has at least two blacks;
  5. the middle row has at least two blacks.

Turning one black coefficient white (cascading d4 after b2/a2, d3 after
b1/a1) is a degeneration arrow; mirroring an array in its central column is
the q <-> 1/q exchange (primed labels); reflecting top and bottom rows is
the node/eigenvalue duality, possible only when the top row has two blacks.

The 34 published arrays (18 plus their mirrors, two of which are
self-mirrored) carry fixed labels; enumeration produces further admissible
arrays, which are reported as unlisted with X-nn labels, never dropped.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

from .core import ParameterVector
from .errors import RuleViolation


class ZeroPattern(NamedTuple):
    """True = black (any value), False = white (zero)."""

    b_row: tuple[bool, bool, bool]  # (b2, b0, b1)
    d_row: tuple[bool, bool, bool, bool, bool]  # (d4, d2, d0, d1, d3)
    a_row: tuple[bool, bool, bool]  # (a2, a0, a1)

    def as_string(self) -> str:
        rows = (self.b_row, self.d_row, self.a_row)
        return "|".join("".join("B" if v else "W" for v in row) for row in rows)

    @staticmethod
    def from_string(text: str) -> "ZeroPattern":
        rows = text.split("|")
        if len(rows) != 3 or tuple(map(len, rows)) != (3, 5, 3):
            raise ValueError(f"malformed pattern {text!r}")
        flags = [tuple(ch == "B" for ch in row) for row in rows]
        return ZeroPattern(flags[0], flags[1], flags[2])

    def mirror(self) -> "ZeroPattern":
        """Reflect in the central column: the q <-> 1/q exchange."""
        return ZeroPattern(
            b_row=self.b_row[::-1],
            d_row=self.d_row[::-1],
            a_row=self.a_row[::-1],
        )

    def dual(self) -> "ZeroPattern | None":
        """Reflect in the middle row; None when the top row has < 2 blacks."""
        if sum(self.b_row) < 2:
            return None
        return ZeroPattern(b_row=self.a_row, d_row=self.d_row, a_row=self.b_row)


def validate(pattern: ZeroPattern) -> list[str]:
    """Empty list iff the pattern is admissible under rules 1-5."""
    violations: list[str] = []
    b2, b0, b1 = pattern.b_row
    d4, d2, d0, d1, d3 = pattern.d_row
    a2, a0, a1 = pattern.a_row
    if (not b1 or not a1) and d3:
        violations.append("rule 1: d3 must be white when b1 or a1 is white")
    if (not b2 or not a2) and d4:
        violations.append("rule 1: d4 must be white when b2 or a2 is white")
    if not b0 or not a0:
        violations.append("rule 2: b0 and a0 are always black")
    blacks = [i for i, v in enumerate(pattern.d_row) if v]
    if blacks and blacks[-1] - blacks[0] + 1 != len(blacks):
        violations.append("rule 3: middle-row blacks must be contiguous")
    if sum(pattern.a_row) < 2:
        violations.append("rule 4: bottom row needs at least two blacks")
    if sum(pattern.d_row) < 2:
        violations.append("rule 5: middle row needs at least two blacks")
    return violations


def pattern_of(pv: ParameterVector) -> ZeroPattern:
    """Zero-test the eleven coefficients; b0/a0 report black regardless."""
    pattern = ZeroPattern(
        b_row=(pv.b[2] != 0, True, pv.b[1] != 0),
        d_row=tuple(pv.d[i] != 0 for i in (4, 2, 0, 1, 3)),
        a_row=(pv.a[2] != 0, True, pv.a[1] != 0),
    )
    violations = validate(pattern)
    if violations:
        raise RuleViolation(violations)
    return pattern


def enumerate_nodes() -> frozenset[ZeroPattern]:
    """All patterns over the nine free cells passing rules 1-5."""
    out = set()
    for b2, b1, d4, d2, d0, d1, d3, a2, a1 in product((True, False), repeat=9):
        pattern = ZeroPattern(
            b_row=(b2, True, b1), d_row=(d4, d2, d0, d1, d3), a_row=(a2, True, a1)
        )
        if not validate(pattern):
            out.add(pattern)
    return frozenset(out)


# -- fixed label table --------------------------------------------------------

_BASE_PATTERNS: dict[str, str] = {
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

# Families sharing each diagram (bracketed handbook section numbers are kept
# in the catalog, not here).
FAMILY_LISTS: dict[str, tuple[str, ...]] = {
    "1a": ("Askey-Wilson", "q-Racah"),
    "2a": ("continuous dual q-Hahn", "dual q-Hahn"),
    "2b": ("big q-Jacobi", "q-Hahn"),
    "3a": ("Al-Salam-Chihara", "dual q-Krawtchouk"),
    "3b": ("big q-Laguerre", "q^-1-Meixner", "affine q-Krawtchouk", "quantum q^-1-Krawtchouk"),
    "3d": ("little q-Jacobi", "q-Krawtchouk"),
    "4a": ("continuous big q-Hermite",),
    "4b": ("shifted-factorial polynomials x^n (b/x;q)_n",),
    "4c": ("Al-Salam-Carlitz I", "q^-1-Al-Salam-Carlitz II"),
    "4d": ("little q-Laguerre", "q^-1-Laguerre", "q^-1-Charlier"),
    "4f": ("q^-1-Bessel",),
    "4g": ("q-Bessel",),
    "5a": ("monomials x^n",),
    "5b": ("shifted-factorial polynomials x^n (1/x;q)_n",),
    "5c": ("q^-1-Stieltjes-Wigert",),
}
# A family at two labels, one per Newton basis, lists its names once.
FAMILY_LISTS |= {twin: FAMILY_LISTS[label] for twin, label in (("3c", "3b"), ("3e", "3d"), ("4e", "4d"))}


def _build_label_table() -> dict[str, ZeroPattern]:
    table: dict[str, ZeroPattern] = {}
    for label, text in _BASE_PATTERNS.items():
        pattern = ZeroPattern.from_string(text)
        table[label] = pattern
        mirrored = pattern.mirror()
        if mirrored != pattern:
            table[label + "'"] = mirrored
    return table


LABELS: dict[str, ZeroPattern] = _build_label_table()
PATTERN_LABELS: dict[ZeroPattern, str] = {p: label for label, p in LABELS.items()}

# ZeroPattern.dual over the unprimed labels, each pair listed at its earlier label.
_DUALS = {label: PATTERN_LABELS[p.dual()] for label, p in LABELS.items() if "'" not in label and p.dual()}
SELF_DUAL = tuple(label for label, dual in _DUALS.items() if dual == label)
DUAL_PAIRS = tuple((label, dual) for label, dual in _DUALS.items() if dual > label)


def label_sort_key(label: str) -> tuple:
    if label.startswith("X-"):
        return (1, int(label[2:]), "", False)
    primed = label.endswith("'")
    body = label.rstrip("'")
    return (0, int(body[0]), body[1:], primed)


def base_families(label: str) -> tuple[str, ...]:
    return FAMILY_LISTS.get(label.rstrip("'"), ())


# Cells of as_string() (b2 b0 b1 | d4 d2 d0 d1 d3 | a2 a0 a1 at 0-2, 4-8 and
# 10-12) that a flip may turn white, and the cell each one forces white with
# it: b2 or a2 forces d4, b1 or a1 forces d3.
_FLIPPABLE = (0, 2, 4, 5, 6, 7, 8, 10, 12)
_FORCED = {0: 4, 10: 4, 2: 8, 12: 8}


def arrows_from(pattern: ZeroPattern) -> frozenset[ZeroPattern]:
    """Admissible targets reached by one black-to-white flip plus cascade."""
    cells = pattern.as_string()
    targets = set()
    for i in _FLIPPABLE:
        if cells[i] == "B":
            flipped = list(cells)
            flipped[i] = flipped[_FORCED.get(i, i)] = "W"
            candidate = ZeroPattern.from_string("".join(flipped))
            if not validate(candidate):
                targets.add(candidate)
    return frozenset(targets)


class SchemeNode(NamedTuple):
    label: str
    pattern: ZeroPattern
    families: tuple[str, ...]
    unlisted: bool


class SchemeGraph(NamedTuple):
    nodes: tuple[SchemeNode, ...]
    arrows: tuple[tuple[str, str], ...]

    @property
    def labeled_count(self) -> int:
        return sum(not n.unlisted for n in self.nodes)

    @property
    def unlisted_count(self) -> int:
        return sum(n.unlisted for n in self.nodes)


def build_graph() -> SchemeGraph:
    """Enumerate admissible patterns, attach fixed labels (X-nn for patterns
    outside the published table) and generate all degeneration arrows."""
    patterns = enumerate_nodes()
    unlisted = sorted(
        (p for p in patterns if p not in PATTERN_LABELS),
        key=ZeroPattern.as_string,
    )
    label_of: dict[ZeroPattern, str] = dict(PATTERN_LABELS)
    for i, p in enumerate(unlisted, start=1):
        label_of[p] = f"X-{i:02d}"
    nodes = tuple(
        sorted(
            (
                SchemeNode(
                    label=label_of[p],
                    pattern=p,
                    families=base_families(label_of[p]),
                    unlisted=label_of[p].startswith("X-"),
                )
                for p in patterns
            ),
            key=lambda node: label_sort_key(node.label),
        )
    )
    arrows = set()
    for p in patterns:
        for target in arrows_from(p):
            arrows.add((label_of[p], label_of[target]))
    return SchemeGraph(
        nodes=nodes,
        arrows=tuple(sorted(arrows, key=lambda e: (label_sort_key(e[0]), label_sort_key(e[1])))),
    )


def emit(graph: SchemeGraph, fmt: str) -> bytes:
    """Deterministic DOT or JSON rendering of the graph."""
    if fmt == "dot":
        lines = ["digraph qscheme {", "  rankdir=TB;"]
        for node in graph.nodes:
            style = ", style=dashed" if node.unlisted else ""
            lines.append(
                f'  "{node.label}" [label="{node.label}", '
                f'tooltip="{node.pattern.as_string()}"{style}];'
            )
        for src, dst in graph.arrows:
            lines.append(f'  "{src}" -> "{dst}";')
        lines.append("}")
        return ("\n".join(lines) + "\n").encode()
    if fmt == "json":
        import json  # only here: every import of the classifier would pay for it

        payload = {
            "nodes": [
                {
                    "label": node.label,
                    "pattern": node.pattern.as_string(),
                    "families": list(node.families),
                    "unlisted": node.unlisted,
                }
                for node in graph.nodes
            ],
            "arrows": [list(edge) for edge in graph.arrows],
            "counts": {
                "labeled": graph.labeled_count,
                "unlisted": graph.unlisted_count,
                "arrows": len(graph.arrows),
            },
        }
        return (json.dumps(payload, indent=2) + "\n").encode()
    raise ValueError(f"unknown graph format {fmt!r}")
