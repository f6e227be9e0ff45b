"""A fixed list of named mutants of the package, and the kill matrix that
Tier-1 and `qscheme verify all` give on them.

Run from a checkout, with no options:

    PYTHONPATH=src python tests/mutants.py

Each mutant is one exact source replacement whose target text occurs once
in its file (tests/test_api.py::test_every_mutant_applies_once keeps it so).
For each mutant the tracked files are copied to a temporary directory, the
mutant is applied there, and the copy runs the whole Tier-1 suite with
hypothesis seed 0, then `verify all`.  A mutant is killed when a test fails,
`verify all` exits nonzero, or a run passes TIME_LIMIT seconds and is
stopped.  An unmutated copy runs first and must pass.  The checkout is only
read: every file the runs write lands in the temporary directory, which is
removed.

The script prints each mutant with the tests that fail and the exit code of
`verify all`, then the mutants that only one check kills and the survivors.
A survivor is a fault that no test and no suite sees, and no mutant of the
list is expected to survive: the script exits 1 when any mutant survives,
and 2, before any mutant, when the unmutated copy fails.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from concurrent.futures import ThreadPoolExecutor, as_completed
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIME_LIMIT = 300  # seconds, for each of a mutant's two runs
WORKERS = 2
TIER1 = [
    "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
    "--hypothesis-seed=0",
    # the guard reads the mutants' targets, which the applied mutant has replaced
    "--deselect", "tests/test_api.py::test_every_mutant_applies_once",
]
VERIFY_ALL = ["-m", "qscheme", "verify", "all"]


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the checkout
    old: str  # occurs exactly once in the file
    new: str
    only: str | None = None  # the one check that kills it, where one test alone does


CORE, POLY, LIMITS = "src/qscheme/core.py", "src/qscheme/qpolynomial.py", "src/qscheme/limits.py"
CATALOG, ERRORS, SERIES = "src/qscheme/catalog.py", "src/qscheme/errors.py", "src/qscheme/qseries.py"

MUTANTS = (
    # -- the integer kernels -------------------------------------------------------
    Mutant("three_term: b term added", CORE,
           "            out[i] -= bn * v", "            out[i] += bn * v"),
    Mutant("three_term: a term not brought over the common denominator", CORE,
           "    scale = den // da\n", "    scale = 1\n"),
    Mutant("monic_table: top row not checked", CORE,
           "    if u != monic_poly(pv, n):\n        raise Mismatch(", "    if False:\n        raise Mismatch("),
    Mutant("monic_table: separation checked one degree short", CORE,
           "    pv.check_h_separation(n + 1)\n    x, h, g = pv._grown(n + 2)\n    rows = []",
           "    pv.check_h_separation(n)\n    x, h, g = pv._grown(n + 2)\n    rows = []"),
    Mutant("newton_row: eigenvalue difference off by one", CORE,
           "        s, t = gs[j] * dh, dg * (top - big[j - 1])", "        s, t = gs[j] * dh, dg * (top - big[j])"),
    Mutant("newton_row: node denominator not folded in", CORE,
           "    top, dh = big[n], dh * dx", "    top, dh = big[n], dh"),
    Mutant("newton_row: step ratios not reduced", CORE,
           "        steps.append((s // d, t // d) if d > 1 else (s, t))", "        steps.append((s, t))",
           only="tests/test_core.py::test_reduced_newton_row_is_the_unreduced_row_over_a_positive_factor"),
    Mutant("monic_poly: eigenvalue repeat not checked", CORE,
           "    pv.check_h_separation(n)\n    x, h, g = pv._grown(n + 1)\n", "    x, h, g = pv._grown(n + 1)\n"),
    Mutant("newton_horner: node added", POLY,
           "carry, acc[i] = acc[i], acc[i] - node * carry", "carry, acc[i] = acc[i], acc[i] + node * carry"),
    Mutant("newton_horner: coefficient i scaled by Dx**(i+1)", POLY,
           "    for i in range(1, top + 1):", "    for i in range(top + 1):"),
    Mutant("newton_division: node subtracted", POLY,
           "carry = acc[i] = acc[i] + node * carry", "carry = acc[i] = acc[i] - node * carry"),
    Mutant("newton_division: denominator without Dx**d", POLY,
           "    return acc, p.den * dx**d", "    return acc, p.den"),
    Mutant("Poly._of: negative denominator kept", POLY,
           "            if den < 0:\n                g = -g\n            nums = tuple(nums)",
           "            nums = tuple(nums)"),
    Mutant("Poly._of: gcd of the denominator and the constant term only", POLY,
           "            g = gcd(den, *nums)", "            g = gcd(den, nums[0])"),
    Mutant("to_newton_coeffs: e_k scaled by Dx**(k+1)", CORE,
           "Fraction(v * dx**k, den) for k, v", "Fraction(v * dx ** (k + 1), den) for k, v"),
    Mutant("apply_operator: lowering term without Dx", CORE,
           "    lift = dh * dx", "    lift = dh"),
    Mutant("normalized_poly: read over |row[0]|", CORE,
           "    return _newton_horner(row, row[0], x)", "    return _newton_horner(row, abs(row[0]), x)"),
    Mutant("recurrence_coeffs: a_n's upper ratio in the other order", CORE,
           "    un, ud = ratio(n + 1, n, n + 1)", "    un, ud = ratio(n + 1, n + 1, n)"),
    Mutant("recurrence_check: always holds", CORE,
           "    return _three_term(u_n, prev, *coeffs) == monic_poly(pv, n + 1)", "    return True"),
    # the item 9 mutant: k added to every lowering value g_k, k >= 1, in the table
    Mutant("sequence table: lowering(k) + k", CORE,
           "            table = tuple(_extended(",
           "            grown[2][:] = [(v + k * d, d) for k, (v, d) in enumerate(grown[2], start)]\n"
           "            table = tuple(_extended("),
    Mutant("_extended: old numerators not rescaled", CORE,
           "    scale = full // den\n", "    scale = 1\n"),
    # -- the polynomial kernels -------------------------------------------------------
    Mutant("format_poly: coefficient not reduced", POLY,
           "        g = gcd(num, den)\n", "        g = 1\n"),
    Mutant("format_poly: sign of a later term dropped", POLY,
           """parts.append(f"{'-' if num < 0 else '+'} {body}")""", 'parts.append(f"+ {body}")'),
    Mutant("format_poly: sign of the leading term dropped", POLY,
           'parts.append(f"-{body}" if num < 0 else body)', "parts.append(body)"),
    Mutant("format_poly: unit coefficient written as 1 x^i", POLY,
           'body = xpow if mag == 1 and d == 1 else f"{text} {xpow}"', 'body = f"{text} {xpow}"'),
    Mutant("Poly.__call__: denominator without r**d", POLY,
           "self.den * r ** self.degree)", "self.den)"),
    Mutant("Poly.__call__: x read as its numerator", POLY,
           "        r = x.denominator\n", "        r = 1\n"),
    Mutant("homogeneous_horner: power of r not raised", POLY,
           "        rpow *= r\n", "        rpow = r\n"),
    Mutant("homogeneous_horner: every lower term over one more r", POLY,
           "    acc, rpow = nums[-1], 1", "    acc, rpow = nums[-1], r"),
    Mutant("compose_affine: node sign flipped", POLY,
           "node, dx = (-shift / scale).as_integer_ratio()", "node, dx = (shift / scale).as_integer_ratio()"),
    Mutant("compose_affine: c_k scaled by s**(k+1)", POLY,
           "nums = [v * s**k * r ** (d - k) for", "nums = [v * s ** (k + 1) * r ** (d - k) for"),
    Mutant("compose_affine: zero scale not special-cased", POLY,
           "        if scale == 0 or self.is_zero:", "        if self.is_zero:",
           only="tests/test_polynomial.py::test_compose_affine"),
    Mutant("deflate: quotient coefficient i scaled by Dx**i", POLY,
           "enumerate(out[1:], 1)], den)", "enumerate(out[1:])], den)",
           only="tests/test_polynomial.py::test_deflate_reverses_linear_multiplication"),
    Mutant("deflate: remainder sign flipped", POLY,
           "Fraction(out[0], den)", "Fraction(-out[0], den)",
           only="tests/test_polynomial.py::test_deflate_reverses_linear_multiplication"),
    Mutant("product_of_linear: roots negated", POLY,
           "_over_lcm([rational(r).as_integer_ratio() for r in roots])",
           "_over_lcm([(-rational(r)).as_integer_ratio() for r in roots])"),
    Mutant("product_of_linear: leading numerator over Dx, not Dx**n", POLY,
           "[0] * len(xs) + [1], dx ** len(xs),", "[0] * len(xs) + [1], dx,"),
    Mutant("Poly.__add__: first summand not brought over the lcm", POLY,
           "a = [v * (den // self.den) for v in self.nums]", "a = list(self.nums)"),
    Mutant("Poly.__add__: second summand not brought over the lcm", POLY,
           "b = [v * (den // other.den) for v in other.nums]", "b = list(other.nums)"),
    Mutant("Poly.__mul__: scalar denominator dropped", POLY,
           "self.den * den)", "self.den)"),
    Mutant("Poly.__mul__: scalar sign dropped", POLY,
           "[v * num for v in self.nums]", "[v * abs(num) for v in self.nums]"),
    # -- the series kernels -----------------------------------------------------------
    Mutant("terminating_sum: upper factor's denominator without R", SERIES,
           "            rd *= ad * R\n", "            rd *= ad\n"),
    Mutant("terminating_sum: (q; q)_k factor 1 + q**k", SERIES,
           "        rd *= R - P\n", "        rd *= R + P\n"),
    Mutant("terminating_sum: partial sum not brought over the new denominator", SERIES,
           "        sn = sn * rd + tn\n", "        sn = sn + tn\n"),
    Mutant("terminating_sum: negative step powers dropped", SERIES,
           "rd *= den * P**p_down * R**r_down", "rd *= den * R**r_down"),
    Mutant("_step_at: x's denominator dropped", CATALOG,
           "for c, m in step], den * r, low", "for c, m in step], den, low"),
    Mutant("_step_at: constant not brought over r", CATALOG,
           "[c * r + m * s for c, m in step]", "[c + m * s for c, m in step]"),
    Mutant("qpoch: factor 1 + b q**j", SERIES,
           "        num *= bd * R - bn * P\n", "        num *= bd * R + bn * P\n"),
    Mutant("qpoch: denominator r**(k(k+1)/2)", SERIES,
           "r ** (k * (k - 1) // 2))", "r ** (k * (k + 1) // 2))"),
    # -- the constraints and the repeat test ---------------------------------------
    # item 16's mutant: (a - 2)*c added to 1a's d0, which vanishes at the default a = 2
    Mutant("catalog: 1a's d0 + (a - 2)*c", CATALOG,
           "_lowering(q / a, -2, ab / q, ac / q, ad / q)",
           '(lambda d: (d[0] + (a - 2) * p["c"], *d[1:]))(_lowering(q / a, -2, ab / q, ac / q, ad / q))'),
    Mutant("constraints: d0 left out of the sum", CORE,
           "        if sum(gs):", "        if sum(gs[1:]):"),
    Mutant("constraints: d3 = a1*b1*q", CORE,
           "        if gs[4] * hd * xd * qn != a1 * b1 * qd * gd:", "        if gs[4] * hd * xd * qd != a1 * b1 * qn * gd:"),
    # item 26's wrong constraint
    Mutant("constraints: d4 = a2*b2", CORE,
           "        if gs[0] * qd * hd * xd != qn * a2 * b2 * gd:", "        if gs[0] * hd * xd != a2 * b2 * gd:"),
    Mutant("first_repeat: search stops below c2/c1", CORE,
           "    while abs(P) <= abs(num) and R <= den:", "    while abs(P) < abs(num) and R < den:"),
    Mutant("first_repeat: j off by one", CORE,
           "            return s // 2 + 1, s - s // 2 - 1", "            return s // 2 + 1, s - s // 2"),
    Mutant("first_repeat: period 2 at q = -1 read as a repeat at (2, 0) always", CORE,
           "        return (1, 0) if c1 + c2 == 0 else (2, 0)", "        return (2, 0)"),
    # -- limits, series and gauges -----------------------------------------------------
    Mutant("limits.gap: gauge scale inverted", LIMITS,
           "_homogeneous_horner(u.nums, s * c, r * a)", "_homogeneous_horner(u.nums, s * a, r * c)"),
    Mutant("limits.gap: samples compared without their denominators", LIMITS,
           "        if num * best_rn > best * rn:", "        if num > best:"),
    Mutant("limits.gap: target not scaled by c**n", LIMITS,
           "    du_cn = u.den * c**n\n", "    du_cn = u.den\n"),
    Mutant("_identity_holds: five samples at every degree", LIMITS,
           "catalog._sample_xs(max(n + 1, 5))", "catalog._sample_xs(5)"),
    Mutant("gauge_rows: mu dropped from the d row", "src/qscheme/symmetry.py",
           "        tuple(scale * v for v in d),", "        tuple(rho * v for v in d),"),
    # the limit-case plants of tests/test_limits.py, in the source
    Mutant("limit 2b->3d: target a * (1 + 2**-40)", LIMITS,
           '    "3d", _LITTLE_QJACOBI, lambda eps:',
           '    "3d", {**_LITTLE_QJACOBI, "a": _LITTLE_QJACOBI["a"] * (1 + Fraction(1, 2**40))}, lambda eps:'),
    Mutant("limit 3a->4c: target a doubled", LIMITS,
           '        "4c", _AL_SALAM_CARLITZ, lambda eps: eps,', '        "4c", {"a": 2 * _AL_SALAM_CARLITZ["a"]}, lambda eps: eps,'),
    Mutant("limit 3a->4b: source b doubled", LIMITS,
           '{"a": eps, "b": _B / eps}, "4b"', '{"a": eps, "b": 2 * _B / eps}, "4b"'),
    Mutant("limit 2b->3e: composed target moved", LIMITS,
           '    _composed(_BIG_LITTLE_QJACOBI, "2b", "3e"),',
           '    _composed(_BIG_LITTLE_QJACOBI, "2b", "3e")._replace(target_params={"a": Fraction(1, 5), "b": Fraction(1, 3)}),'),
    Mutant("limit 3d'->4f': composed target moved", LIMITS,
           '("little_qjacobi_rep_pair", "qbessel_rep_pair")),',
           '("little_qjacobi_rep_pair", "qbessel_rep_pair"))._replace(target_params={"a": Fraction(1, 5)}),'),
    # -- the error types and messages that tests pin -----------------------------------
    Mutant("error: eigenvalue repeat message reversed", ERRORS,
           'f"eigenvalue({n}) == eigenvalue({j})"', 'f"eigenvalue({j}) == eigenvalue({n})"'),
    Mutant("error: eigenvalue repeat raised as a node repeat", CORE,
           "            raise HSeparationViolated(*hit)", "            raise XSeparationViolated(*hit)"),
    Mutant("error: ZeroG names the next index", CORE,
           "            raise ZeroG(j)", "            raise ZeroG(j + 1)"),
    Mutant("error: k_n division names k_(n+1)", CATALOG,
           'lambda n: f"k_{n}"', 'lambda n: f"k_{n + 1}"',
           only="tests/test_catalog.py::test_a_division_by_zero_in_k_n_is_refused_by_name"),
    Mutant("error: vanishing k_n message", CATALOG,
           'f"{spec.key}: k_{n} vanishes for these parameters"', 'f"{spec.key}: k_{n} is zero for these parameters"',
           only="tests/test_catalog.py::test_crosscheck_and_hyper_eval_report_a_vanishing_k_n_alike"),
    Mutant("error: series division drops the degree", CATALOG,
           'lambda n: f"the degree-{n} series"', 'lambda n: "the series"',
           only="tests/test_catalog.py::test_a_raw_series_factory_refuses_a_forbidden_zero_by_name"),
    Mutant("error: 1/x series division message", CATALOG,
           'lambda n: f"the degree-{n} 1/x series"', 'lambda n: f"the degree-{n} series"',
           only="tests/test_catalog.py::test_the_inverse_series_refuses_a_division_by_zero_by_name"),
    Mutant("error: term loop names the previous term", SERIES,
           'f"denominator vanished at term {k} of', 'f"denominator vanished at term {k - 1} of'),
    Mutant("error: term loop raises a bare ZeroDivisionError", SERIES,
           "            raise DivisionByZero(\n", "            raise ZeroDivisionError(\n"),
    Mutant("error: forbidden zero parameter message", CATALOG,
           'f"{spec.key}: parameter {name} violates {name} != 0"', 'f"{spec.key}: parameter {name} must not be 0"'),
    Mutant("error: constraint refusal without the family", CATALOG,
           'raise InadmissibleParams(f"{family}: {exc}") from exc', "raise InadmissibleParams(str(exc)) from exc",
           only="tests/test_catalog.py::test_instantiate_matches_direct_elimination"),
    Mutant("error: constraint refusal as ConstraintViolation", CATALOG,
           'raise InadmissibleParams(f"{family}: {exc}") from exc', 'raise ConstraintViolation(f"{family}: {exc}") from exc'),
    Mutant("error: degenerate family message", CORE,
           '"all lowering coefficients vanish (degenerate family)"', '"all lowering coefficients vanish"'),
)


class Result(NamedTuple):
    failed: tuple[str, ...]  # the failing tests, as pytest names them
    verify: int | str  # verify all's exit code, or "timeout"
    seconds: float

    @property
    def killers(self) -> list[str]:
        """The checks that kill the mutant: each failing test function, its
        parametrizations counted once, and verify all."""
        tests = dict.fromkeys(re.sub(r"\[.*\]$", "", name) for name in self.failed)
        return list(tests) + (["verify all"] if self.verify != 0 else [])


def tracked_files() -> list[str]:
    out = subprocess.run(["git", "ls-files", "-z"], cwd=ROOT, capture_output=True, check=True).stdout
    return [name for name in out.decode().split("\0") if name and (ROOT / name).is_file()]


def apply(mutant: Mutant, root: Path) -> None:
    path = root / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1 or mutant.old == mutant.new:
        raise SystemExit(f"mutant {mutant.name!r} does not apply once to {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new))


def run(argv: list[str], cwd: Path) -> int | str:
    """The exit code of `python argv` in cwd, or "timeout" once it has run
    TIME_LIMIT seconds; then its whole process group is stopped."""
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=env, start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        return proc.wait(timeout=TIME_LIMIT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timeout"


def failed_tests(report: Path) -> list[str]:
    """The tests that failed or errored, from pytest's junit report."""
    if not report.exists():
        return []
    names = []
    for case in ET.parse(report).iter("testcase"):
        if case.find("failure") is not None or case.find("error") is not None:
            module, name = case.get("classname", ""), case.get("name", "")
            names.append(f"{module.replace('.', '/')}.py::{name}" if module else name)
    return names


def check(files: list[str], mutant: Mutant | None) -> Result:
    """Tier-1 and verify all on a fresh copy of the files, mutated."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="qscheme-mutant-") as tmp:
        root = Path(tmp) / "checkout"
        for name in files:
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(ROOT / name, root / name)
        if mutant:
            apply(mutant, root)
        report = Path(tmp) / "junit.xml"
        code = run([*TIER1, f"--junitxml={report}"], root)
        failed = failed_tests(report)
        if code == "timeout":
            failed.append("Tier-1 (timeout)")
        elif code and not failed:
            failed.append(f"Tier-1 (exit {code})")
        verify = run(VERIFY_ALL, root)
    return Result(tuple(failed), verify, time.perf_counter() - start)


def main() -> int:
    files = tracked_files()
    base = check(files, None)
    print(f"unmutated: {len(base.failed)} tests fail, verify all exit {base.verify} ({base.seconds:.0f} s)", flush=True)
    if base.killers:
        print("\n".join(base.failed))
        return 2
    results: dict[str, Result] = {}
    with ThreadPoolExecutor(WORKERS) as pool:
        futures = {pool.submit(check, files, m): m for m in MUTANTS}
        for done, future in enumerate(as_completed(futures), 1):
            mutant = futures[future]
            result = results[mutant.name] = future.result()
            print(f"[{done}/{len(MUTANTS)}] {mutant.name}: {len(result.killers)} checks kill it"
                  f" ({result.seconds:.0f} s)", flush=True)

    print("\nkill matrix: mutant, verify all's exit code, the failing tests")
    for mutant in MUTANTS:
        result = results[mutant.name]
        print(f"{mutant.name}  [{mutant.path}]  verify all: {result.verify}, {len(result.failed)} tests fail")
        for name in result.failed:
            print(f"    {name}")

    print("\nkilled by one check only:")
    for mutant in MUTANTS:
        killers = results[mutant.name].killers
        if len(killers) == 1:
            note = "" if mutant.only == killers[0] else f"  (listed: {mutant.only})"
            print(f"    {mutant.name}: {killers[0]}{note}")
        elif mutant.only:
            print(f"    {mutant.name}: listed as killed by {mutant.only} alone, now by {len(killers)} checks")

    survivors = [m for m in MUTANTS if not results[m.name].killers]
    print(f"\n{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed; survivors:")
    for mutant in survivors:
        print(f"    {mutant.name}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
