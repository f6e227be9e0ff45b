"""Every public entry point is total on its domain: a seeded sweep over the
catalog's families with small parameters, bases from Q_POOL and n <= 6.

Each call either returns or raises a QSchemeError (`outcome` lets no other
exception through), and the table never fails its own check.  Where the
calls succeed, the exact laws between them must hold: the recurrence, the
table's rows, q_invert leaving u_n unchanged, the two involutions, the
node/eigenvalue duality read off the dual vector, the inverse gauge and the gauge invariance of the zero pattern and of each
chart's coordinates.
"""

import random
from fractions import Fraction as F

from qscheme import catalog, limits
from qscheme.classifier import pattern_of
from qscheme.core import (
    apply_operator,
    monic_poly,
    monic_table,
    normalized_poly,
    recurrence_check,
    recurrence_coeffs,
)
from qscheme.errors import Mismatch, ZeroG
from qscheme.symmetry import ChartId, GaugeAction, apply_gauge, canonicalize, dualize, q_invert
from qscheme.verify import Q_POOL

from reference import outcome

VALUES = tuple(map(F, (0, 1, -1, 2, 3, F(1, 2), F(-1, 2), F(1, 3), F(2, 3), F(-3, 2), F(5, 2))))
SCALES = tuple(v for v in VALUES if v)
BASES = Q_POOL[:6]


def refused(value) -> bool:
    """Whether `outcome` returned a refusal, not a value (a ZeroPattern or a
    ChartPoint is a tuple subclass, not a tuple)."""
    return type(value) is tuple


def draws(count: int, seed: int):
    """(family, parameters, q, n, x, gauge) drawn from the pools above."""
    rng = random.Random(seed)
    for _ in range(count):
        key = rng.choice(sorted(catalog.FAMILIES))
        params = {name: rng.choice(VALUES) for name in catalog.FAMILIES[key].defaults}
        q, n, x = rng.choice(BASES), rng.randint(0, 6), rng.choice(VALUES)
        g = GaugeAction(tau=rng.choice(VALUES), mu=rng.choice(SCALES), sigma=rng.choice(VALUES), rho=rng.choice(SCALES))
        yield key, params, q, n, x, g


def test_every_entry_point_raises_only_qscheme_errors_and_keeps_its_laws():
    vectors = checked = pairs = repeats = skipped = 0
    for key, params, q, n, x, g in draws(1200, seed=2029):
        where = (key, params, q, n)
        outcome(catalog.hyper_eval, key, params, q, n, x)
        series = outcome(catalog.FAMILIES[key].series, params, q, n)
        if not refused(series):
            outcome(series, x)
        pv = outcome(catalog.instantiate, key, params, q)
        if refused(pv):
            continue
        vectors += 1
        table = outcome(monic_table, pv, n)
        if refused(table):
            assert table[0] is not Mismatch, where
        else:
            assert [u for u, _ in table] == [monic_poly(pv, k) for k in range(n + 1)], where
        outcome(recurrence_coeffs, pv, n)
        holds = outcome(recurrence_check, pv, n)
        if not refused(holds):
            assert holds is True, where
            checked += 1
        u = outcome(monic_poly, pv, n)
        if not refused(u):
            outcome(apply_operator, pv, u)
            assert limits.gap(pv, q_invert(pv), n, 1) == 0, where
        outcome(normalized_poly, pv, n)

        assert q_invert(q_invert(pv)) == pv, where
        dual = outcome(dualize, pv)
        if not refused(dual):
            assert dualize(dual) == pv, where
            # normalized_poly(pv, k)(node(m)) == normalized_poly(dual, m)(eigenvalue(k))
            # for k, m <= 4, eigenvalue repeats on either side included; a
            # pair whose either side ZeroG refuses is skipped
            us, vs = ([outcome(normalized_poly, w, k) for k in range(5)] for w in (pv, dual))
            assert all(r[0] is ZeroG for r in us + vs if refused(r)), where
            for k, u in enumerate(us):
                for m, v in enumerate(vs):
                    if refused(u) or refused(v):
                        skipped += 1
                    else:
                        assert u(pv.node(m)) == v(pv.eigenvalue(k)), (where, k, m)
                        pairs += 1
                        repeats += not (pv.h_separation_ok(k) and dual.h_separation_ok(m))
        inverse = GaugeAction(tau=-g.mu * g.tau, mu=1 / g.mu, sigma=-g.rho * g.sigma, rho=1 / g.rho)
        gauged = apply_gauge(pv, g)
        assert apply_gauge(gauged, inverse) == pv, (where, g)
        assert outcome(pattern_of, gauged) == outcome(pattern_of, pv), (where, g)
        for chart in ChartId:  # a chart point, or the same refusal
            assert outcome(canonicalize, gauged, chart) == outcome(canonicalize, pv, chart), (where, g, chart)
    counts = vectors, checked, pairs, repeats, skipped
    assert vectors > 1000 and checked > 1000 and pairs > 15000 and repeats > 100, counts
