"""qscheme benchmark: end-to-end timings, or per-layer spans with --trace 1.

Run from the root of a checkout; the package is imported from its src/:

    python3 bench/run.py --workload verify-all --seed 1 --seconds 20 --trace 0

One process, one thread, closed loop: an item starts when the previous one
has finished.  The seed fixes the workload's list of items, built before the
clock starts.  A cycle runs every item once with cold caches (cleared before
the cycle, and before each item on eval-cap).  A run makes --seconds over
the workload's nominal cycle time (CYCLE_S in workloads.py) cycles, at least
one; the count does not depend on the clock, so runs of two commits do the
same work.

An item is one or more timed calls, its parts.  The host is shared, and
identical work was seen to take up to 1.8x as long for stretches that can
cover a whole run, so speed.Sampler times a fixed reference every 50 ms
throughout, and each part's time, less the samples taken inside it, is
scaled by how slow the reference ran during the part.  A part's time is the
fastest of its scaled times over the cycles, and an item's time is the sum
over its parts.  Every output of every cycle is checked after the timed
region; an item that fails its check or raises counts as failed.

--trace 0 reports the end-to-end metrics.  --trace 1 instead alternates an
untraced and a traced cycle and reports the per-layer metrics of the traced
cycles (counts from the first, times as medians) and trace.overhead_ratio,
traced over untraced scaled cycle time.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 when every check passed,
1 when one failed and 2 when there is no qscheme source to benchmark.
See METRICS.md for why each workload and metric was chosen.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import spans
import speed

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

SETUP_SAMPLES = 11
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import qscheme\n"
    "import_s = time.perf_counter() - start\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import speed\n"
    "print(repr(import_s), repr(speed.reference_s(5)))\n"
)

SUITES = ("constraints", "recurrence", "eigen", "duality", "catalog", "limits", "charts", "symmetry")


def measure_setup_s() -> float:
    """Median time of `import qscheme` in fresh interpreters, bytecode cached,
    each scaled by the speed reference timed after it in that interpreter."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), str(Path(__file__).resolve().parent)]
    subprocess.run(cmd, check=True, capture_output=True, timeout=120, cwd=ROOT)
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120, cwd=ROOT)
        import_s, reference_s = map(float, done.stdout.split()[-2:])
        samples.append(speed.scale(import_s, reference_s))
    return statistics.median(samples)


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


class Outcome:
    """Every item run so far with its gate record or exception."""

    def __init__(self) -> None:
        self.items: list[tuple[object, object, str | None]] = []

    def failures(self, workload) -> list[str]:
        out = []
        for item, record, error in self.items:
            reason = error if error is not None else workload.check(item, record)
            if reason is not None:
                out.append(reason)
        return out


def timed_cycle(workload, items, caches, sampler, outcome: Outcome) -> list[list[float]]:
    """Run every item once with cold caches; returns each item's part times
    in seconds, scaled to the reference speed by `sampler`."""
    caches.reset()
    times = []
    for item in items:
        if workload.cold_per_item:
            caches.clear()
        outputs, parts, error = [], [], None
        for part in workload.parts(item):
            spent_s, start = sampler.spent_s, perf_counter()
            try:
                outputs.append(part())
            except Exception as exc:  # a raising item is a failed item, not a failed benchmark
                error = f"{type(exc).__name__}: {exc}"
            end = perf_counter()
            parts.append((start, end, end - start - (sampler.spent_s - spent_s)))
            if error is not None:
                break
        times.append(parts)
        record = workload.digest(item, outputs) if error is None else None
        outcome.items.append((item, record, error))
    caches.clear()
    return [[sampler.scale(*part) for part in parts] for parts in times]


def cycle_s(times: list[list[float]]) -> float:
    return sum(map(sum, times))


def cycle_count(workload, seconds: float) -> int:
    return max(1, round(seconds / workload.CYCLE_S))


def end_to_end(workload, caches, seconds: float, outcome: Outcome) -> dict:
    setup_s = measure_setup_s()
    items = workload.make_items()
    cycles = cycle_count(workload, seconds)
    with speed.Sampler().running() as sampler:
        best = timed_cycle(workload, items, caches, sampler, outcome)
        for _ in range(cycles - 1):
            cycle = timed_cycle(workload, items, caches, sampler, outcome)
            best = [list(map(min, b, c)) for b, c in zip(best, cycle)]
    best = [sum(b) for b in best]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"{len(items)} items x {cycles} cycles; item time = sum over its parts of their fastest scaled time")
    return {
        "setup_s": (setup_s, "s"),
        "pass_s": (sum(best), "s"),
        "item_ms_p50": (statistics.median(best) * 1e3, "ms"),
        "item_ms_p90": (percentile(best, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
    }


def layer_metrics(tracer, caches) -> dict:
    t = tracer
    poly = "qpolynomial.Poly."
    metrics = {
        "qrational.rational_calls": (t.count("qrational.rational"), "count"),
        "qpolynomial.mul_calls": (t.calls(poly + "__mul__"), "count"),
        "qpolynomial.mul_s": (t.inclusive_s(poly + "__mul__"), "s"),
        "qpolynomial.add_calls": (t.calls(poly + "__add__"), "count"),
        "qpolynomial.eval_calls": (t.calls(poly + "__call__"), "count"),
        "qpolynomial.deflate_calls": (t.calls(poly + "deflate"), "count"),
        "qpolynomial.compose_affine_calls": (t.calls(poly + "compose_affine"), "count"),
        "qpolynomial.self_s": (t.self_s("qpolynomial"), "s"),
        "core.monic_poly_calls": (t.calls("core.monic_poly"), "count"),
        "core.monic_poly_hit_ratio": (caches.hit_ratio("monic_poly"), "ratio"),
        "core.expansion_rows_hit_ratio": (caches.hit_ratio("expansion_rows"), "ratio"),
        "core.apply_operator_calls": (t.calls("core.apply_operator"), "count"),
        "core.recurrence_check_calls": (t.calls("core.recurrence_check"), "count"),
        "core.self_s": (t.self_s("core"), "s"),
    }
    for n, bits in t.max_bits.items():
        metrics[f"core.max_coeff_bits.n{n:02d}"] = (bits, "bits")
    metrics.update(
        {
            "catalog.instantiate_calls": (t.calls("catalog.instantiate"), "count"),
            "catalog.instantiate_s": (t.inclusive_s("catalog.instantiate"), "s"),
            "catalog.hyper_eval_calls": (t.calls("catalog.hyper_eval"), "count"),
            "catalog.self_s": (t.self_s("catalog"), "s"),
            "limits.gap_calls": (t.calls("limits.gap"), "count"),
            "limits.gap_s": (t.inclusive_s("limits.gap"), "s"),
            "limits.self_s": (t.self_s("limits"), "s"),
            "qseries.qhyper_sum_calls": (t.calls("qseries.qhyper_sum"), "count"),
            "qseries.qpoch_calls": (t.calls("qseries.qpoch"), "count"),
            "qseries.self_s": (t.self_s("qseries"), "s"),
            "symmetry.calls": (t.layer_calls("symmetry"), "count"),
            "symmetry.self_s": (t.self_s("symmetry"), "s"),
            "classifier.pattern_of_calls": (t.calls("classifier.pattern_of"), "count"),
            "classifier.self_s": (t.self_s("classifier"), "s"),
        }
    )
    for suite in SUITES:
        metrics[f"verify.suite_s.{suite}"] = (t.inclusive_s(f"verify.suite_{suite}"), "s")
    metrics["cli.format_s"] = (t.inclusive_s("cli.format_poly", "cli.format_rational"), "s")
    metrics["cli.self_s"] = (t.self_s("cli"), "s")
    return metrics


def per_layer(workload, caches, seconds: float, outcome: Outcome) -> dict:
    items = workload.make_items()
    runs, ratios = [], []
    # A traced cycle takes up to half as long again as an untraced one.
    with speed.Sampler().running() as sampler:
        for _ in range(max(1, cycle_count(workload, seconds) // 2)):
            untraced = cycle_s(timed_cycle(workload, items, caches, sampler, outcome))
            tracer = spans.Tracer()
            with tracer.installed():
                traced = cycle_s(timed_cycle(workload, items, caches, sampler, outcome))
            runs.append(layer_metrics(tracer, caches))
            ratios.append(traced / untraced)
    print(f"{len(items)} items x {len(runs)} untraced + traced cycle pairs")
    metrics = dict(runs[0])
    for name, (value, unit) in metrics.items():
        if unit == "s":
            metrics[name] = (statistics.median(r[name][0] for r in runs), unit)
    metrics["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=("verify-all", "eval-cap", "random-identities"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qscheme" / "__init__.py").is_file():
        print(f"error: no qscheme package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    caches = workloads.Caches()
    outcome = Outcome()
    print(f"workload {workload.name}, seed {args.seed}: item = {workload.item_unit}; {workload.describe()}")
    if args.trace:
        metrics = per_layer(workload, caches, args.seconds, outcome)
    else:
        metrics = end_to_end(workload, caches, args.seconds, outcome)

    failures = outcome.failures(workload)
    attempted = len(outcome.items)
    for reason in failures[:10]:
        print(f"check failed: {reason}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(f"fail_ratio = {len(failures)}/{attempted} = {len(failures) / attempted} ratio")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
