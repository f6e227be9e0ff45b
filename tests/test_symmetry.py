"""Gauge actions, the q <-> 1/q exchange, duality, and the chart tables."""

import copy
import pickle
import random
from fractions import Fraction as F

import pytest

from qscheme import catalog
from qscheme.classifier import LABELS, pattern_of
from qscheme.core import ParameterVector, monic_poly
from qscheme.errors import ChartUnreachable, HSeparationViolated, XSeparationViolated
from qscheme.symmetry import (
    CHART_DISCREPANCIES,
    CHART_ROW_INSTANCE_LABEL,
    CHART_ROWS,
    ChartId,
    ChartPoint,
    GaugeAction,
    apply_gauge,
    canonicalize,
    dualize,
    q_invert,
)
from qscheme.verify import random_parameter_vector
from reference import duality_check, outcome


def constraints_hold(pv) -> bool:
    return (
        sum(pv.d) == 0
        and pv.d[3] == pv.a[1] * pv.b[1] / pv.q
        and pv.d[4] == pv.q * pv.a[2] * pv.b[2]
    )


# -- gauge actions ---------------------------------------------------------------


def test_identity_gauge_is_neutral(pv_3a):
    assert apply_gauge(pv_3a, GaugeAction()) == pv_3a


def test_gauge_requires_nonzero_scales():
    with pytest.raises(ValueError):
        GaugeAction(mu=0)
    with pytest.raises(ValueError):
        GaugeAction(rho=0)


def test_gauge_action_value_semantics():
    """Fields are coerced to Fractions and cannot be assigned; == (within the
    class), the hash and the repr read the four fields; copies and pickles
    rebuild through the constructor."""
    g = GaugeAction(tau=1, mu="3/2")
    assert repr(g) == "GaugeAction(tau=Fraction(1, 1), mu=Fraction(3, 2), sigma=Fraction(0, 1), rho=Fraction(1, 1))"
    assert g == GaugeAction(F(1), F(3, 2)) and hash(g) == hash(GaugeAction(F(1), F(3, 2)))
    assert g != GaugeAction(tau=1) and g != (F(1), F(3, 2), F(0), F(1))
    with pytest.raises(AttributeError):
        g.mu = F(0)
    with pytest.raises(AttributeError):
        del g.rho
    assert copy.copy(g) == g == pickle.loads(pickle.dumps(g))


def test_eigenvalue_scale_triples_sequences(pv_3a):
    gauged = apply_gauge(pv_3a, GaugeAction(mu=3))
    for k in range(8):
        assert gauged.eigenvalue(k) == 3 * pv_3a.eigenvalue(k)
        assert gauged.lowering(k) == 3 * pv_3a.lowering(k)
        assert gauged.node(k) == pv_3a.node(k)
    for n in range(7):
        assert monic_poly(gauged, n) == monic_poly(pv_3a, n)


def test_eigenvalue_shift_leaves_polynomials(pv_3a):
    gauged = apply_gauge(pv_3a, GaugeAction(tau=F(5, 3)))
    for k in range(8):
        assert gauged.eigenvalue(k) == pv_3a.eigenvalue(k) + F(5, 3)
    for n in range(7):
        assert monic_poly(gauged, n) == monic_poly(pv_3a, n)


def test_node_scale_dilates_argument(pv_3a):
    gauged = apply_gauge(pv_3a, GaugeAction(rho=2))
    for n in range(7):
        assert monic_poly(gauged, n) == monic_poly(pv_3a, n).compose_affine(
            F(1, 2)
        ) * F(2) ** n


def test_node_shift_translates_argument(pv_3a):
    sigma = F(-2, 3)
    gauged = apply_gauge(pv_3a, GaugeAction(sigma=sigma))
    for n in range(7):
        assert monic_poly(gauged, n) == monic_poly(pv_3a, n).compose_affine(
            1, -sigma
        )


def test_gauge_preserves_constraints_randomized():
    rng = random.Random(5)
    for _ in range(10):
        pv = random_parameter_vector(rng)
        g = GaugeAction(
            tau=F(rng.randint(-3, 3), 2),
            mu=F(rng.randint(1, 5), 3),
            sigma=F(rng.randint(-3, 3), 3),
            rho=F(rng.randint(1, 4), 2),
        )
        assert constraints_hold(apply_gauge(pv, g))


# -- q inversion -----------------------------------------------------------------


def test_q_invert_involution(pv_3a):
    assert q_invert(q_invert(pv_3a)) == pv_3a


def test_q_invert_preserves_sequences(pv_3a):
    qi = q_invert(pv_3a)
    assert qi.q == 2
    for kind in ("node", "eigenvalue", "lowering"):
        for k in range(11):
            assert getattr(qi, kind)(k) == getattr(pv_3a, kind)(k)


def test_q_invert_preserves_polynomials(pv_3a):
    qi = q_invert(pv_3a)
    for n in range(9):
        assert monic_poly(qi, n) == monic_poly(pv_3a, n)
    assert constraints_hold(qi)


# -- duality ---------------------------------------------------------------------


def test_dualize_involution_and_constraints():
    pv = catalog.instantiate("2b")
    dual = dualize(pv)
    assert constraints_hold(dual)
    assert dualize(dual) == pv


def test_dualize_rejects_constant_nodes(pv_5b):
    with pytest.raises(XSeparationViolated):
        dualize(pv_5b)


def test_dualize_depth_check():
    """dualize is a row swap: nodes that repeat past the constant case are
    the dual's eigenvalues repeating, refused once its polynomials reach the
    repeat."""
    # a = 2, q = 1/2 collides node(0) with node(2)
    pv = catalog.instantiate("3a", {"a": F(2), "b": F(1, 4)})
    with pytest.raises(XSeparationViolated) as caught:
        pv.check_x_separation(4)
    assert str(caught.value) == "node(2) == node(0)"
    dual = dualize(pv)  # the swap itself is fine
    monic_poly(dual, 1)
    with pytest.raises(HSeparationViolated) as caught:
        monic_poly(dual, 2)
    assert str(caught.value) == "eigenvalue(2) == eigenvalue(0)"


def test_dual_pair_patterns_and_values():
    pairs = (
        ("2a", "2b", {"a": F(3), "b": F(1, 4), "c": F(1, 5)}),
        ("3a", "3d", {"a": F(3), "b": F(1, 4)}),
        ("3b", "3b'", {}),
        ("4a", "4f", {"a": F(3)}),
        ("4c", "4d'", {"a": F(-1)}),
    )
    for label, dual_label, params in pairs:
        pv = catalog.instantiate(label, params or None)
        assert pv._repeat(0) is None, label
        dual = dualize(pv)
        assert pattern_of(dual) == LABELS[dual_label], label
        assert all(duality_check(pv, n, m) for n in range(7) for m in range(7))


def test_self_dual_patterns():
    for label in ("1a", "3c", "4b", "5a"):
        pv = catalog.instance_for_label(label)
        assert pattern_of(dualize(pv)) == pattern_of(pv)


# -- charts ----------------------------------------------------------------------


def test_canonicalize_pins_and_coords(pv_1a_top):
    point = canonicalize(pv_1a_top, ChartId.A2B2)
    (a0, _, a2), (b0, _, b2) = pv_1a_top.a, pv_1a_top.b
    pinned = apply_gauge(pv_1a_top, GaugeAction(-a0, 1 / a2, -b0, 1 / b2))
    assert pinned.a[0] == 0 and pinned.b[0] == 0
    assert pinned.a[2] == 1 and pinned.b[2] == 1
    assert point.coords == (pinned.a[1], pinned.b[1], pinned.d[0], pinned.d[1])
    assert all(c != 0 for c in point.coords)  # top family: all black


def test_canonicalize_3a_signature(pv_3a):
    point = canonicalize(pv_3a, ChartId.A2B2)
    a1, b1, d0, d1 = point.coords
    assert a1 == 0 and d1 == 0 and b1 != 0 and d0 != 0


def test_canonicalize_idempotent(pv_3a):
    """A vector already gauged into the chart canonicalizes to the same
    coordinates: its pins are 0 and 1, so the chart moves it no further."""
    a0, a2, b0 = pv_3a.a[0], pv_3a.a[2], pv_3a.b[0]
    for chart in ChartId:
        point = canonicalize(pv_3a, chart)
        rho = 1 / pv_3a.b[2] if chart is ChartId.A2B2 else a2 / pv_3a.d[0]
        gauged = apply_gauge(pv_3a, GaugeAction(-a0, 1 / a2, -b0, rho))
        assert gauged.a[0] == 0 and gauged.b[0] == 0 and gauged.a[2] == 1
        again = canonicalize(gauged, chart)
        assert again == point


def test_canonicalize_bottom_family_all_zero():
    point = canonicalize(catalog.instantiate("5a"), ChartId.A2B2)
    assert point.coords == (0, 0, 0, 0)


def test_canonicalize_builds_no_vector(monkeypatch):
    """The chart coordinates are read off the gauged rows; no gauged vector
    is constructed, for any label in any chart, reachable or not."""
    built = []
    init = ParameterVector.__init__

    def counting(self, *args, **kwargs):
        built.append(args or kwargs)
        init(self, *args, **kwargs)

    vectors = [catalog.instance_for_label(label) for label in LABELS]
    monkeypatch.setattr(ParameterVector, "__init__", counting)
    points = [outcome(canonicalize, pv, chart) for pv in vectors for chart in ChartId]
    assert not built
    assert sum(type(point) is ChartPoint for point in points) > 40
    apply_gauge(vectors[0], GaugeAction(mu=2))  # the counter sees a construction
    assert len(built) == 1


def test_canonicalize_unreachable():
    # pure-power family has b2 = 0: the a2=b2=1 chart cannot host it
    with pytest.raises(ChartUnreachable):
        canonicalize(catalog.instantiate("5b"), ChartId.A2B2)
    # the mirrored Stieltjes-Wigert data has a2 = 0
    with pytest.raises(ChartUnreachable):
        canonicalize(catalog.instantiate("5c'"), ChartId.A2D0_D1)


def test_chart_rows_against_published_tables():
    mismatches = {}
    for chart, rows in CHART_ROWS.items():
        for label, printed in rows:
            instance_label = CHART_ROW_INSTANCE_LABEL.get((chart, label), label)
            point = canonicalize(
                catalog.instance_for_label(instance_label), chart
            )
            if point.signature != printed:
                mismatches[(chart, label)] = point.signature
    # the only rows off the printed tables are the documented discrepancies
    assert set(mismatches) == {
        (ChartId.A2B2, "3d"),
        (ChartId.A2D0_D2, "3d'"),
    }
    assert all(key in CHART_DISCREPANCIES for key in mismatches)
    # the mislabelled all-white row is documented too, though its signature
    # (through the 5c data) matches
    assert (ChartId.A2D0_D2, "5e") in CHART_DISCREPANCIES


def test_chart_row_counts():
    assert tuple(len(rows) for rows in CHART_ROWS.values()) == (10, 13, 12)
