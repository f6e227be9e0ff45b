"""Command-line front door.

Commands:
    list    family registry as a table or JSON
    eval    coefficient/value tables for one family
    graph   scheme graph in DOT or JSON form
    verify  run a verification suite, exit 0 on pass / 1 on failure

Each command imports the layers it runs when it runs: `list` and `eval` load
no verify or limits, and `graph` only the classifier and the engine.

All inputs and outputs are exact rationals ("p/q" strings); there are no
floating-point options, so no tolerance knobs exist at this boundary.
Exit codes: 0 pass, 1 verification failure, 2 usage or configuration error,
141 when the reader closes standard output early.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from .core import ParameterVector, monic_table
from .errors import Mismatch, QSchemeError
from .qpolynomial import format_poly
from .qrational import admissible_q, format_rational, rational

DEFAULT_HARD_CAP = 24
# Ceiling of `verify --count`; every suite's default count lies far below it.
COUNT_CAP = 1000
# (flag, least, greatest) of each integer size flag; greatest None is the
# hard cap.  `main` checks every flag the command was given.
BOUNDS = (("-n", 0, None), ("--n-max", 0, None), ("--depth", 1, None), ("--count", 0, COUNT_CAP))


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse, with each refusal raised as a UsageError for `main` to print."""

    def error(self, message: str):
        raise UsageError(message)


def hard_cap() -> int:
    raw = os.environ.get("QSCHEME_HARD_CAP")
    if raw is None:
        return DEFAULT_HARD_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise UsageError(f"QSCHEME_HARD_CAP must be an integer, got {raw!r}") from exc
    if cap < 0:
        raise UsageError(f"QSCHEME_HARD_CAP must be >= 0, got {raw!r}")
    return cap


# The Python type json.load gives each JSON type that is not a rational.
_NOT_RATIONAL = {bool: "boolean", type(None): "null", list: "array", dict: "object"}


def _config_rational(value, where: str) -> Fraction:
    """A config value, a JSON string or number, as a rational; any other
    JSON type is refused by name."""
    if kind := _NOT_RATIONAL.get(type(value)):
        raise UsageError(f"not a rational: config {where} is a JSON {kind}, not a string or a number")
    try:
        return rational(str(value))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def load_config(path: str | None) -> dict:
    """The config at path, {} for None, with q and every parameter value
    parsed as a rational; any malformed value or unknown name, and a q that
    is 0 or +/-1, is refused here, whatever the command.  Whether a
    parameter may be 0 is left to instantiate, since --param may override
    it."""
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, text or an over-long integer
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise UsageError("config file must hold a JSON object")
    if unknown := sorted(set(config) - {"q", "families"}):
        raise UsageError(f"unknown config key {unknown[0]!r}; a config holds only \"q\" and \"families\"")
    families = config.get("families", {})
    if not isinstance(families, dict) or not all(
        isinstance(params, dict) for params in families.values()
    ):
        raise UsageError('config "families" must map family keys to objects of parameters')
    from . import catalog

    if unknown := sorted(set(families) - set(catalog.FAMILIES)):
        raise UsageError(f"config names unknown family {unknown[0]!r}; `qscheme list` shows the registry")
    parsed = {"families": {
        key: {name: _config_rational(value, f"{key} parameter {name}") for name, value in params.items()}
        for key, params in families.items()
    }}
    if "q" in config:
        parsed["q"] = q = _config_rational(config["q"], "q")
        if not admissible_q(q):
            raise UsageError(f"base q = {q} must avoid 0 and +/-1")
    for key, params in families.items():
        if unknown := [name for name in params if name not in catalog.FAMILIES[key].defaults]:
            raise UsageError(f"{key}: unknown parameter {unknown[0]!r}")
    return parsed


def parse_param_overrides(pairs: list[str]) -> dict[str, Fraction]:
    """name=value pairs; raises ValueError on a malformed value."""
    out: dict[str, Fraction] = {}
    for pair in pairs:
        if "=" not in pair:
            raise UsageError(f"--param expects name=value, got {pair!r}")
        name, _, value = pair.partition("=")
        out[name.strip()] = rational(value)
    return out


@contextlib.contextmanager
def _all_digits():
    """Lift Python's limit on int/str conversion (4300 digits) while exact
    results are formatted, and restore it afterwards; inputs stay parsed
    under the limit."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:  # an interpreter without the limit
        yield
        return
    limit = get()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _write_bytes(path: str, blob: bytes) -> None:
    try:
        Path(path).write_bytes(blob)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _write_json(path: str, payload) -> None:
    _write_bytes(path, (json.dumps(payload, indent=2) + "\n").encode("utf-8"))


def _check_writable(path: str | None) -> None:
    """Open an output path for writing before the work that fills it, so an
    unwritable path exits 2 before anything runs or prints.  The path is
    left as it was: an existing file is opened without truncation, and a
    file created by the check is removed again, so a run that fails later
    leaves nothing behind."""
    if path is None:
        return
    target = Path(path)
    try:
        if target.exists():
            with target.open("ab"):
                pass
        else:
            target.touch(exist_ok=False)
            target.unlink()
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


# -- commands ------------------------------------------------------------------


def cmd_list(args: argparse.Namespace) -> int:
    from . import catalog

    rows = catalog.registry_json()
    if args.node:
        rows = [r for r in rows if r["node_label"] == args.node]
    if args.json:
        _write_json(args.json, rows)
    widths = (5, 45, 4, 22)
    print(f"{'node':<{widths[0]}} {'family':<{widths[1]}} {'kls':<{widths[2]}} {'parameters':<{widths[3]}} defaults")
    for r in rows:
        params = " ".join(p["name"] for p in r["params"]) or "-"
        defaults = (
            " ".join(f"{k}={v}" for k, v in r["defaults"].items()) or "-"
        )
        kls = str(r["kls_section"]) if r["kls_section"] is not None else "-"
        print(
            f"{r['node_label']:<{widths[0]}} {r['name']:<{widths[1]}} "
            f"{kls:<{widths[2]}} {params:<{widths[3]}} {defaults}"
        )
    return 0


def cmd_eval(args: argparse.Namespace, config: dict) -> int:
    from . import catalog

    if args.family not in catalog.FAMILIES:
        raise UsageError(
            f"unknown family {args.family!r}; `qscheme list` shows the registry"
        )
    params = dict(config.get("families", {}).get(args.family, {}))
    try:
        q = rational(args.q) if args.q is not None else config.get("q")
        xs = []
        if args.xs:
            xs = [rational(piece) for piece in args.xs.split(",")]
        params.update(parse_param_overrides(args.param))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    try:
        pv = catalog.instantiate(args.family, params or None, q)
        _check_writable(args.json)
        # a_n needs eigenvalue(n + 1): build every row before printing any
        rows = monic_table(pv, args.n)
    except Mismatch:
        raise  # the table failed its own check: a verification failure, not bad input
    except QSchemeError as exc:
        raise UsageError(str(exc)) from exc
    _print_eval(args, params, xs, pv, rows)
    return 0


@_all_digits()
def _print_eval(
    args: argparse.Namespace, params: dict, xs: list, pv: ParameterVector, rows: list
) -> None:
    """eval's table, and its JSON with --json, with every digit of every value."""
    from . import catalog

    spec = catalog.FAMILIES[args.family]
    merged = catalog.coerce_params(spec, params or None)
    shown_params = " ".join(
        f"{k}={format_rational(v)}" for k, v in merged.items()
    )
    print(
        f"family {args.family} ({spec.name}), q = {format_rational(pv.q)}"
        + (f", {shown_params}" if shown_params else "")
    )
    header = f"{'n':>2}  {'u_n':<42} {'a_n':>12} {'b_n':>12}"
    header += "".join(f" {'u_n(' + format_rational(x) + ')':>14}" for x in xs)
    print(header)
    rows_json = []
    for n, (u, (a_n, b_n)) in enumerate(rows):
        a_str = format_rational(a_n)
        b_str = format_rational(b_n) if b_n is not None else "-"
        poly_str = format_poly(u)
        values = [format_rational(u(x)) for x in xs]
        line = f"{n:>2}  {poly_str:<42} {a_str:>12} {b_str:>12}"
        line += "".join(f" {value:>14}" for value in values)
        print(line)
        if args.json:
            rows_json.append(
                {
                    "n": n,
                    "coeffs": [format_rational(c) for c in u.coeffs],
                    "poly": poly_str,
                    "a_n": a_str,
                    "b_n": b_str,
                    "values": dict(zip(map(format_rational, xs), values)),
                }
            )
    if args.json:
        _write_json(
            args.json,
            {
                "family": args.family,
                "vector": pv.to_json_dict(checked_depth=args.n + 1),
                "rows": rows_json,
            },
        )


def cmd_graph(args: argparse.Namespace) -> int:
    from . import classifier

    graph = classifier.build_graph()
    blob = classifier.emit(graph, args.format)
    if args.output:
        _write_bytes(args.output, blob)
        print(
            f"wrote {args.output}: {graph.labeled_count} labeled nodes "
            f"(+{graph.unlisted_count} unlisted), {len(graph.arrows)} arrows"
        )
    else:
        sys.stdout.write(blob.decode("ascii"))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify

    _check_writable(args.json)
    reports = verify.run_suite(
        args.suite,
        n_max=args.n_max,
        depth=args.depth,
        count=args.count,
        seed=verify.DEFAULT_SEED if args.seed is None else args.seed,
    )
    failures = 0
    for report in reports:
        for check in report.checks:
            status = "pass" if check.passed else "FAIL"
            detail = f"  ({check.detail})" if check.detail else ""
            print(f"[{status}] {check.name}{detail}")
            failures += 0 if check.passed else 1
        for warning in report.warnings:
            print(f"[warn] {warning}")
        if report.seed is not None:
            print(f"[info] {report.suite}: seed = {report.seed}")
    total = sum(len(r.checks) for r in reports)
    print(f"{total - failures}/{total} checks passed")
    if args.json:
        _write_json(args.json, [r.to_json() for r in reports])
    return 0 if failures == 0 else 1


class _SuiteNames:
    """verify.SUITES, read only when the parser checks or shows a suite, so
    that building the parser loads no verify."""

    def __iter__(self):
        from . import verify

        return iter(verify.SUITES)

    def __contains__(self, name) -> bool:
        return name in tuple(self)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  parse_args leaves it unchanged:
    each call fills a fresh namespace, and append copies the --param default."""
    parser = _Parser(
        prog="qscheme",
        description="Exact-arithmetic toolkit for the q-Askey scheme "
        "(families, identities, classification graph, limit transitions).",
    )
    parser.add_argument(
        "--config", help="JSON config presetting q and family parameters"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="show the family registry")
    p_list.add_argument("--node", help="filter by diagram label, e.g. 4d")
    p_list.add_argument("--json", help="also write the registry as JSON")
    p_list.set_defaults(fn=lambda a, cfg: cmd_list(a))

    p_eval = sub.add_parser("eval", help="print u_0..u_n with recurrence data")
    p_eval.add_argument("family", help="registry key, e.g. 3a or 5b")
    p_eval.add_argument("-n", type=int, default=6, help="highest degree (default 6)")
    p_eval.add_argument("-q", help="base as a rational string, e.g. 1/2")
    p_eval.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="parameter override, repeatable",
    )
    p_eval.add_argument("--xs", help="comma-separated rational sample points")
    p_eval.add_argument("--json", help="also write the table as JSON")
    p_eval.set_defaults(fn=cmd_eval)

    p_graph = sub.add_parser("graph", help="emit the scheme graph")
    p_graph.add_argument(
        "--format", choices=("dot", "json"), default="dot", help="output format"
    )
    p_graph.add_argument("-o", "--output", help="output path (default stdout)")
    p_graph.set_defaults(fn=lambda a, cfg: cmd_graph(a))

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=_SuiteNames(), metavar="suite", help="one of %(choices)s")
    p_verify.add_argument("--n-max", type=int, default=None)
    p_verify.add_argument("--depth", type=int, default=None)
    p_verify.add_argument("--count", type=int, default=None)
    p_verify.add_argument("--seed", type=int)  # None: verify.DEFAULT_SEED
    p_verify.add_argument("--json", help="write the JSON report here")
    p_verify.set_defaults(fn=lambda a, cfg: cmd_verify(a))

    return parser


# The exit status a shell reports for a command that a closed pipe ended
# (128 + SIGPIPE).
CLOSED_PIPE = 141


def main(argv: list[str] | None = None) -> int:
    """Run one command.  Every refusal, argparse's own included, ends here as
    one `error:` line on stderr.  A reader that closes standard output early
    (`| head -1`) ends the command quietly with CLOSED_PIPE."""
    try:
        args = build_parser().parse_args(argv)
        cap = hard_cap()
        for flag, least, greatest in BOUNDS:
            value = getattr(args, flag.lstrip("-").replace("-", "_"), None)
            if value is not None and value < least:
                raise UsageError(f"{flag} must be >= {least}, got {value}")
            if value is not None and value > (cap if greatest is None else greatest):
                cause = f"the hard cap {cap} (QSCHEME_HARD_CAP)" if greatest is None else f"the cap {greatest}"
                raise UsageError(f"{flag} {value} exceeds {cause}")
        config = load_config(args.config)
        code = args.fn(args, config)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # Point stdout at devnull: the interpreter's flush at exit then has
        # nowhere to fail and prints nothing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return CLOSED_PIPE
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QSchemeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
