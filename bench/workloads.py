"""The benchmark's three workloads: seeded inputs, the timed call, the gate.

Each workload turns its seed into a fixed list of items, built before the
clock starts.  `parts(item)` gives the timed calls that make up an item, in
order; they go through qscheme's public API by module attribute, so spans
installed on those attributes see them.  `digest` keeps what the gate needs
from the parts' outputs and `check`, run after the timed region, returns why
an item is wrong or None.
"""

from __future__ import annotations

import contextlib
import io
import random
from fractions import Fraction

from qscheme import catalog, cli, core, limits, verify
from qscheme.symmetry import CHART_ROWS


# Each workload's CYCLE_S is the time one cycle over its items took when the
# benchmark was defined (Xeon at 2.1 GHz, Python 3.11).  The number of cycles
# a run makes is derived from it and --seconds, never from the clock, so two
# commits compared at the same --seconds do the same work.


class Caches:
    """The engine's lru caches, cleared for cold runs; hit counts survive clears."""

    def __init__(self) -> None:
        # The cache objects themselves, kept before any tracing rebinds the names.
        self.caches = {"monic_poly": core.monic_poly, "expansion_rows": core._expansion_rows}
        self.reset()

    def reset(self) -> None:
        for cache in self.caches.values():
            cache.cache_clear()
        self.hits = dict.fromkeys(self.caches, 0)
        self.misses = dict.fromkeys(self.caches, 0)

    def clear(self) -> None:
        for name, cache in self.caches.items():
            info = cache.cache_info()
            self.hits[name] += info.hits
            self.misses[name] += info.misses
            cache.cache_clear()

    def hit_ratio(self, name: str) -> float:
        total = self.hits[name] + self.misses[name]
        return self.hits[name] / total if total else 0.0


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


class VerifyAll:
    """One `verify all` pass at the default sizes with cold caches, timed
    suite by suite."""

    name = "verify-all"
    cold_per_item = False
    CYCLE_S = 4.5
    item_unit = "cold run_suite('all', seed) pass"

    # The suites run_suite("all") runs by name, in its order; it then runs
    # suite_symmetry, which has no name of its own.
    NAMED_SUITES = ("constraints", "recurrence", "eigen", "duality", "catalog", "limits", "charts")

    # Defaults of run_suite("all"): random vectors in the recurrence, eigen
    # and symmetry suites, broken vectors in recurrence, and the fixed lists
    # the duality and symmetry suites walk.
    RECURRENCE_RANDOM = 25
    RECURRENCE_BROKEN = 5
    EIGEN_RANDOM = 10
    SELF_DUAL = ("1a", "3c", "4b", "5a")
    SYMMETRY_VECTORS = 4 + 6

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.expected = sorted(self.expected_checks())

    def expected_checks(self) -> list[str]:
        """Every check name `run_suite('all')` must report at its defaults."""
        fams = list(catalog.FAMILIES)
        names = [f"constraints/{k}" for k in fams]
        names += [f"recurrence/{k}" for k in fams]
        names += [f"recurrence/random-{i}" for i in range(self.RECURRENCE_RANDOM)]
        names += [f"recurrence/broken-{i}" for i in range(self.RECURRENCE_BROKEN)]
        names += [f"eigen/{k}" for k in fams]
        names += [f"eigen/random-{i}" for i in range(self.EIGEN_RANDOM)]
        names.append("duality/1a")
        names += [f"duality/{src}<->{dst}" for src, dst, _ in verify.DUALITY_INSTANCES]
        names += [f"duality/self-dual/{label}" for label in self.SELF_DUAL]
        names += [f"catalog/{k}" for k in fams]
        for case in limits.CASES:
            names.append(f"limits/{case.id}")
            names += [f"limits/{case.id}/{check}" for check in case.exact_checks]
        names += [
            f"charts/{chart.name}/{label}"
            for chart, rows in CHART_ROWS.items()
            for label, _ in rows
        ]
        names += [f"symmetry/gauge-{i}" for i in range(self.SYMMETRY_VECTORS)]
        return names

    def describe(self) -> str:
        return f"1 item, {len(self.expected)} checks"

    def make_items(self) -> list[int]:
        return [self.seed]

    def parts(self, seed: int) -> list:
        """The calls run_suite("all", seed=seed) makes, each giving a list of reports."""
        calls = [lambda suite=suite: verify.run_suite(suite, seed=seed) for suite in self.NAMED_SUITES]
        calls.append(lambda: [verify.suite_symmetry(seed=seed)])
        return calls

    def digest(self, seed: int, outputs) -> list[tuple[str, bool]]:
        return [(c.name, c.passed) for reports in outputs for r in reports for c in r.checks]

    def check(self, seed: int, record: list[tuple[str, bool]]) -> str | None:
        names = sorted(name for name, _ in record)
        if names != self.expected:
            return f"seed {seed}: {len(names)} checks reported, {len(self.expected)} expected"
        failed = [name for name, passed in record if not passed]
        if failed:
            return f"seed {seed}: failed {', '.join(failed[:5])}"
        return None


class EvalCap:
    """`qscheme eval <family> -n 24 -q=<q> --xs=<x>` in process, stdout captured."""

    name = "eval-cap"
    cold_per_item = True
    CYCLE_S = 5.4
    item_unit = "(family, q) eval at n = 24"
    N = 24
    PAIRS_PER_FAMILY = 3

    # Bases at which the closed-form oracle divides by zero at the family's
    # default parameters, e.g. (qa; q)_n with a = 1/3 at q = 3.  The engine
    # evaluates them fine, but they could not be checked.
    ORACLE_UNDEFINED = frozenset(
        [("1a", "3/2"), ("1a", "5/2"), ("2a", "3/2"), ("2a", "5/2")]
        + [(key, "3") for key in ("2b", "3b", "3c", "3d", "4b", "4d", "4e")]
    )

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._oracle: dict[tuple, Fraction] = {}

    def pools(self) -> dict[str, list[Fraction]]:
        return {
            key: [q for q in verify.Q_POOL if (key, str(q)) not in self.ORACLE_UNDEFINED]
            for key in catalog.FAMILIES
        }

    def describe(self) -> str:
        pools = self.pools()
        return (
            f"{self.PAIRS_PER_FAMILY} seeded bases for each of {len(pools)} families out of "
            f"{sum(map(len, pools.values()))} checkable (family, q) pairs, one seeded nonzero x each"
        )

    def make_items(self) -> list[tuple[str, Fraction, Fraction]]:
        rng = _rng(self.name, self.seed)
        items = []
        for key, pool in self.pools().items():
            for q in rng.sample(pool, self.PAIRS_PER_FAMILY):
                x = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3))
                items.append((key, q, x))
        return items

    def parts(self, item) -> list:
        return [lambda: self.run(item)]

    def run(self, item):
        key, q, x = item
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["eval", key, "-n", str(self.N), f"-q={q}", f"--xs={x}"])
        return code, out.getvalue()

    def digest(self, item, outputs) -> tuple[int, list[tuple[str, str]]]:
        ((code, text),) = outputs
        # Row lines after the title and header: n first, u_n(x) last.
        rows = [line.split() for line in text.splitlines()[2:]]
        return code, [(row[0], row[-1]) for row in rows]

    def oracle(self, key: str, q: Fraction, n: int, x: Fraction) -> Fraction:
        arg = (key, q, n, x)
        if arg not in self._oracle:
            self._oracle[arg] = catalog.hyper_eval(key, None, q, n, x)
        return self._oracle[arg]

    def check(self, item, record) -> str | None:
        key, q, x = item
        code, rows = record
        if code != 0:
            return f"{key} q={q}: exit code {code}"
        if [n for n, _ in rows] != [str(n) for n in range(self.N + 1)]:
            return f"{key} q={q}: printed rows {[n for n, _ in rows]}"
        for n, value in rows:
            if Fraction(value) != self.oracle(key, q, int(n), x):
                return f"{key} q={q}: u_{n}({x}) = {value} disagrees with hyper_eval"
        return None


class RandomIdentities:
    """Recurrence and eigenvalue identities on seeded random admissible vectors."""

    name = "random-identities"
    cold_per_item = False
    CYCLE_S = 2.5
    item_unit = "vector, 11 recurrence + 11 eigenvalue identities"
    VECTORS = 100
    N_MAX = 10
    DEPTH = 12

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def describe(self) -> str:
        return (
            f"{self.VECTORS} vectors drawn like verify.random_parameter_vector "
            f"(depth {self.DEPTH}), n <= {self.N_MAX}"
        )

    def make_items(self) -> list:
        rng = _rng(self.name, self.seed)
        return [verify.random_parameter_vector(rng, depth=self.DEPTH) for _ in range(self.VECTORS)]

    def parts(self, pv) -> list:
        return [lambda: self.run(pv)]

    def run(self, pv):
        ns = range(self.N_MAX + 1)
        recurrence = [core.recurrence_check(pv, n) for n in ns]
        eigen = [
            core.apply_operator(pv, core.monic_poly(pv, n)) == core.monic_poly(pv, n) * pv.eigenvalue(n)
            for n in ns
        ]
        return recurrence, eigen

    def digest(self, pv, outputs):
        (output,) = outputs
        return output

    def check(self, pv, record) -> str | None:
        recurrence, eigen = record
        count = self.N_MAX + 1
        if len(recurrence) != count or len(eigen) != count:
            return f"{len(recurrence)} + {len(eigen)} identities checked, {2 * count} expected"
        bad = [f"recurrence n={n}" for n, ok in enumerate(recurrence) if not ok]
        bad += [f"eigen n={n}" for n, ok in enumerate(eigen) if not ok]
        return f"vector {pv}: {', '.join(bad)} failed" if bad else None


WORKLOADS = {w.name: w for w in (VerifyAll, EvalCap, RandomIdentities)}
