"""Zero patterns, admissibility rules, enumeration and the scheme graph.

The golden data here was transcribed by hand from the published scheme
chart: 18 base diagrams, their mirrors, the dual pairs, 29 in-chart arrows
and the six arrows crossing between the two mirror halves.
"""

import ast
from itertools import product
from pathlib import Path

import pytest

from qscheme import catalog, classifier
from qscheme.classifier import (
    DUAL_PAIRS,
    FAMILY_LISTS,
    LABELS,
    PATTERN_LABELS,
    SELF_DUAL,
    SchemeGraph,
    ZeroPattern,
    arrows_from,
    build_graph,
    emit,
    enumerate_nodes,
    pattern_of,
    validate,
)
from qscheme.errors import RuleViolation

import golden_data
from golden_data import SELF_MIRRORED, all_labelled_patterns, golden_arrow_set
from reference import perturbed


# -- pattern mechanics ------------------------------------------------------------


def test_pattern_string_round_trip():
    text = "BBW|BBBWW|BBB"
    assert ZeroPattern.from_string(text).as_string() == text
    with pytest.raises(ValueError):
        ZeroPattern.from_string("BB|BBBBB|BBB")


def test_mirror_is_involution():
    for pattern in LABELS.values():
        assert pattern.mirror().mirror() == pattern


def test_dual_is_involution_where_defined():
    for pattern in LABELS.values():
        dual = pattern.dual()
        if dual is not None:
            assert dual.dual() == pattern


def test_dual_requires_two_blacks_on_top():
    assert LABELS["3e"].dual() is None
    assert LABELS["5b"].dual() is None


def test_self_mirrored_labels():
    for label in SELF_MIRRORED:
        assert LABELS[label].mirror() == LABELS[label]
        assert label + "'" not in LABELS


def test_label_table_matches_golden_transcription():
    assert {label: p.as_string() for label, p in LABELS.items()} == (
        all_labelled_patterns()
    )


def test_published_dual_pairs():
    """The lists derived from ZeroPattern.dual are the published ones."""
    assert (DUAL_PAIRS, SELF_DUAL) == (golden_data.DUAL_PAIRS, golden_data.SELF_DUAL)
    for a, b in DUAL_PAIRS:
        assert LABELS[a].dual() == LABELS[b], (a, b)
    for label in SELF_DUAL:
        assert LABELS[label].dual() == LABELS[label]


# -- rule validation ---------------------------------------------------------------


def test_all_black_is_admissible():
    assert validate(ZeroPattern.from_string("BBB|BBBBB|BBB")) == []


def test_rule_three_interior_white():
    pattern = ZeroPattern.from_string("BBB|BWBBB|BBB")
    assert any("rule 3" in v for v in validate(pattern))


def test_rule_one_dependency():
    # b1 white but d3 black
    pattern = ZeroPattern.from_string("BBW|BBBBB|BBB")
    assert any("rule 1" in v for v in validate(pattern))


@pytest.mark.parametrize("text", ["BWB|BBBBB|BBB", "BBB|BBBBB|BWB"])
def test_rule_two_central_column(text):
    assert validate(ZeroPattern.from_string(text)) == ["rule 2: b0 and a0 are always black"]


def test_rules_four_five_minimum_blacks():
    assert any("rule 4" in v for v in validate(ZeroPattern.from_string("BBB|BBBBW|WBW")))
    assert any("rule 5" in v for v in validate(ZeroPattern.from_string("BBB|WWBWW|BBW")))


def test_pattern_of_known_instances():
    assert pattern_of(catalog.instantiate("1a")).as_string() == "BBB|BBBBB|BBB"
    assert pattern_of(catalog.instantiate("2a")).as_string() == "BBB|BBBBW|BBW"
    assert pattern_of(catalog.instantiate("3a")).as_string() == "BBB|BBBWW|BBW"


def test_pattern_of_forces_centre_black():
    # the pure-power family has b0 = a0 = 0 numerically, yet both are black
    pattern = pattern_of(catalog.instantiate("5b"))
    assert pattern.b_row[1] and pattern.a_row[1]


def test_pattern_of_rejects_off_scheme_vector():
    # valid vector whose middle row has a white gap between blacks
    pv = catalog.instantiate("3a")
    d = list(pv.d)
    # make d0 = 0 while keeping d2, d4 black: moves the gap inside the row
    d[1] = d[1] + d[0]
    d[0] = type(d[0])(0)
    broken = perturbed(pv, d=tuple(d))
    with pytest.raises(RuleViolation):
        pattern_of(broken)


# -- enumeration --------------------------------------------------------------------


def oracle_enumeration() -> set[str]:
    """Independent brute-force re-encoding of the five rules."""
    found = set()
    for bits in product((True, False), repeat=9):
        b2, b1, d4, d2, d0, d1, d3, a2, a1 = bits
        if d3 and not (b1 and a1):
            continue
        if d4 and not (b2 and a2):
            continue
        row = (d4, d2, d0, d1, d3)
        blacks = [i for i, v in enumerate(row) if v]
        if len(blacks) < 2:
            continue
        if blacks[-1] - blacks[0] + 1 != len(blacks):
            continue
        if not (a1 or a2):
            continue
        text = "".join(
            "B" if v else "W"
            for v in (b2, True, b1, d4, d2, d0, d1, d3, a2, True, a1)
        )
        found.add(f"{text[:3]}|{text[3:8]}|{text[8:]}")
    return found


def test_enumeration_matches_oracle():
    got = {p.as_string() for p in enumerate_nodes()}
    assert got == oracle_enumeration()
    assert len(got) == 61


def test_enumeration_contains_exactly_the_labelled_patterns():
    nodes = enumerate_nodes()
    assert set(LABELS.values()) <= nodes
    assert len(LABELS) == 34
    extras = nodes - set(LABELS.values())
    assert len(extras) == 27


# -- arrows -------------------------------------------------------------------------


def test_arrow_flip_cascade():
    # dropping the top-left coefficient of the full diagram must whiten d4 too
    targets = arrows_from(LABELS["1a"])
    assert LABELS["2a'"] in targets  # flip a2, cascade d4
    assert LABELS["2a"] in targets  # flip a1, cascade d3
    assert LABELS["2b"] in targets  # flip b1, cascade d3


def test_arrows_increase_white_count():
    for pattern in enumerate_nodes():
        for target in arrows_from(pattern):
            delta = target.as_string().count("W") - pattern.as_string().count("W")
            assert 1 <= delta <= 3


def test_bottom_patterns_have_no_arrows():
    # fully degenerate diagrams: every remaining flip breaks a rule
    dead_ends = [p for p in enumerate_nodes() if not arrows_from(p)]
    # the three bottom diagrams and their mirrors are among the dead ends
    for label in ("5a", "5a'", "5b", "5b'", "5c", "5c'"):
        assert LABELS[label] in dead_ends


def test_graph_contains_golden_arrows():
    graph = build_graph()
    arrows = frozenset(graph.arrows)
    missing = [edge for edge in golden_arrow_set() if edge not in arrows]
    assert not missing


def test_graph_counts_and_acyclicity():
    graph = build_graph()
    assert graph.labeled_count == 34
    assert graph.unlisted_count == 27
    # acyclic: every arrow strictly increases the white count
    by_label = {node.label: node for node in graph.nodes}
    for src, dst in graph.arrows:
        assert (
            by_label[dst].pattern.as_string().count("W")
            > by_label[src].pattern.as_string().count("W")
        )


def test_every_catalog_family_lands_on_its_node():
    by_label = {node.label: node for node in build_graph().nodes}
    for key, spec in catalog.FAMILIES.items():
        node = by_label[spec.key]
        assert pattern_of(catalog.instantiate(key)) == node.pattern


def test_a_family_at_two_labels_lists_its_names_once():
    """Labels whose family lists are equal hold one tuple, which the source
    spells once; they are exactly the unprimed catalog labels that share a
    family name."""
    def pairs(labels, key):
        return {(a, b) for a in labels for b in labels if a < b and key(a) == key(b)}

    equal = pairs(FAMILY_LISTS, FAMILY_LISTS.get)
    assert all(FAMILY_LISTS[a] is FAMILY_LISTS[b] for a, b in equal)
    # read from the source: CPython shares equal tuple constants, so `is` alone
    # would pass a list spelled twice
    (literal,) = [
        node.value for node in ast.parse(Path(classifier.__file__).read_text()).body
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "FAMILY_LISTS"
    ]
    spelled = [ast.literal_eval(value) for value in literal.values]
    assert len(spelled) == len(set(spelled))
    same_name = pairs([key for key in catalog.FAMILIES if "'" not in key], lambda key: catalog.FAMILIES[key].name)
    assert equal == same_name == {("3b", "3c"), ("3d", "3e"), ("4d", "4e")}


def test_emit_deterministic_and_complete():
    graph = build_graph()
    dot1, dot2 = emit(graph, "dot"), emit(graph, "dot")
    js1, js2 = emit(graph, "json"), emit(graph, "json")
    assert dot1 == dot2 and js1 == js2
    text = dot1.decode()
    assert '"1a" -> "2a";' in text
    assert 'tooltip="BBB|BBBBB|BBB"' in text
    with pytest.raises(ValueError):
        emit(graph, "svg")
