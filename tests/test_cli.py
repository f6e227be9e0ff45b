"""The command-line interface: output shapes, determinism, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qscheme import catalog, cli, core, verify
from qscheme.cli import build_parser, main
from qscheme.core import monic_poly
from qscheme.qpolynomial import format_poly
from qscheme.qrational import rational
from reference import CHECKS_BUILDING_2B, refuse_2b, repeating_1a

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN_DOT = DATA / "scheme.dot"
GOLDEN_VERIFY_ALL_TXT = DATA / "verify_all.txt"
GOLDEN_VERIFY_ALL_JSON = DATA / "verify_all.json"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def refusal(err: str) -> str:
    """The message of a refusal, whose stderr is exactly one `error:` line."""
    assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1, err
    return err[len("error: "):-1]


def test_list_contains_top_family(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    assert "1a" in out and "Askey-Wilson" in out
    assert out.count("\n") >= 18


def test_list_filter_by_node(capsys):
    code, out, _ = run(capsys, "list", "--node", "4d")
    assert code == 0
    assert "little q-Laguerre" in out
    assert "Askey-Wilson" not in out


def test_list_unknown_node_empty_table(capsys):
    code, out, _ = run(capsys, "list", "--node", "9z")
    assert code == 0
    assert "9z" not in out  # header only


def test_eval_power_factorial_family(capsys):
    code, out, _ = run(capsys, "eval", "5b", "-n", "2", "--xs=2")
    assert code == 0
    assert "x^2 - 3/2 x + 1/2" in out
    assert "3/2" in out


def test_eval_degree_zero(capsys):
    code, out, _ = run(capsys, "eval", "5a", "-n", "0")
    assert code == 0
    rows = [line for line in out.splitlines() if line.strip().startswith("0")]
    assert rows and rows[0].split()[1] == "1"


def test_eval_first_recurrence_coefficient(capsys):
    code, out, _ = run(capsys, "eval", "3a", "-n", "1")
    assert code == 0
    first = next(line for line in out.splitlines() if line.strip().startswith("0"))
    assert "9/4" in first


def test_eval_json_payload(capsys, tmp_path):
    target = tmp_path / "eval.json"
    code, _, _ = run(capsys, "eval", "5b", "-n", "2", "--json", str(target))
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["vector"]["q"] == "1/2"
    assert payload["rows"][2]["poly"] == "x^2 - 3/2 x + 1/2"
    assert payload["vector"]["check"]["h_separation_ok"] is True


def test_eval_repeated_sample_point_keeps_its_columns(capsys, tmp_path):
    target = tmp_path / "eval.json"
    code, out, _ = run(capsys, "eval", "3a", "-n", "6", "--xs=3,-1/2,3", "--json", str(target))
    assert code == 0
    assert out == (DATA / "eval_3a_n6.txt").read_text()
    assert out.splitlines()[1].split()[-3:] == ["u_n(3)", "u_n(-1/2)", "u_n(3)"]
    assert target.read_bytes() == (DATA / "eval_3a_n6.json").read_bytes()


def test_eval_at_the_hard_cap_matches_recorded_digests(capsys, tmp_path):
    """SHA-256 of the stdout and --json bytes of eval -n 24, recorded for
    every family at two bases; guards the largest coefficients byte for byte."""
    recorded = json.loads((DATA / "eval_n24_sha256.json").read_text())["sha256"]
    assert len(recorded) == 36
    target = tmp_path / "eval.json"
    for key, want in recorded.items():
        family, q = key.split()
        code, out, _ = run(capsys, "eval", family, "-n", "24", f"-q={q}", "--xs=3,-1/2", "--json", str(target))
        assert code == 0
        got = {
            "stdout": hashlib.sha256(out.encode()).hexdigest(),
            "json": hashlib.sha256(target.read_bytes()).hexdigest(),
        }
        assert got == want, key


def _verify_bytes(capsys, tmp_path, *argv) -> tuple[int, str, bytes]:
    """The exit code, stdout and --json bytes of a `verify` run, whose
    stderr is empty."""
    target = tmp_path / "report.json"
    code, out, err = run(capsys, "verify", *argv, "--json", str(target))
    assert err == ""
    return code, out, target.read_bytes()


def test_verify_limits_matches_recorded_digests(capsys, tmp_path):
    """SHA-256 of the stdout and --json bytes of verify limits --n-max 6
    --depth 14; guards every limit gap and exact identity byte for byte. A
    limit case is decided for every n, so the size flags reach nothing: the
    bytes are those of the flag-free run, whose check lines are the golden
    verify-all file's."""
    recorded = json.loads((DATA / "verify_limits_sha256.json").read_text())["sha256"]
    code, out, report = _verify_bytes(capsys, tmp_path, "limits", "--n-max", "6", "--depth", "14")
    assert code == 0
    assert {
        "stdout": hashlib.sha256(out.encode()).hexdigest(),
        "json": hashlib.sha256(report).hexdigest(),
    } == recorded
    assert _verify_bytes(capsys, tmp_path, "limits") == (code, out, report)
    assert _verify_bytes(capsys, tmp_path, "limits", "--depth", "1") == (code, out, report)
    golden = GOLDEN_VERIFY_ALL_TXT.read_text(encoding="utf-8").splitlines()
    lines = out.splitlines()
    assert lines[:-1] == [line for line in golden if line.startswith(("[pass] limits/", "[FAIL] limits/"))]
    assert lines[-1] == "17/17 checks passed"


def test_verify_limits_at_n_max_zero_passes(capsys, tmp_path):
    # --n-max no longer reaches the limits suite: at --n-max 0 each of the
    # ten cases still prints its final gap at the fixed degree bound, and
    # the bytes are those of the flag-free run.
    code, out, report = _verify_bytes(capsys, tmp_path, "limits", "--n-max", "0")
    assert code == 0
    cases = [line for line in out.splitlines() if line.startswith("[pass]") and "final gap" in line]
    assert len(cases) == 10 and not any(line.endswith("(final gap 0)") for line in cases)
    assert _verify_bytes(capsys, tmp_path, "limits") == (code, out, report)


def test_verify_limits_at_n_max_five_passes(capsys, tmp_path):
    # The gap-decay test this replaced failed 2b->3d and 2b->3e here: their
    # degree-5 gaps had not yet fallen below its threshold at the 12th epsilon.
    code, out, report = _verify_bytes(capsys, tmp_path, "limits", "--n-max", "5")
    assert code == 0 and "[FAIL]" not in out
    assert out.splitlines()[-1] == "17/17 checks passed"
    assert _verify_bytes(capsys, tmp_path, "limits") == (code, out, report)


def test_verify_constraints_ignores_depth(capsys, tmp_path, monkeypatch):
    """Eigenvalue separation is decided for every n, so --depth reaches
    nothing in the constraints suite: served a 1a whose eigenvalues first
    repeat at (n, j) = (3, 2), it fails constraints/1a at every depth."""
    default = _verify_bytes(capsys, tmp_path, "constraints")
    assert default[0] == 0 and default[1].splitlines()[-1] == "18/18 checks passed"
    assert _verify_bytes(capsys, tmp_path, "constraints", "--depth", "1") == default
    planted, real = repeating_1a(5), catalog.instantiate
    monkeypatch.setattr(catalog, "instantiate", lambda key, *args: planted if key == "1a" else real(key, *args))
    failing = _verify_bytes(capsys, tmp_path, "constraints")
    assert failing[0] == 1 and "[FAIL] constraints/1a  (eigenvalue(3) == eigenvalue(2))\n" in failing[1]
    assert _verify_bytes(capsys, tmp_path, "constraints", "--depth", "1") == failing


def test_parser_is_built_once_and_keeps_no_state(capsys):
    _, first, _ = run(capsys, "eval", "3a", "-n", "2", "--param", "a=3")
    assert first.splitlines()[0] == "family 3a (Al-Salam-Chihara), q = 1/2, a=3 b=1/4"
    # Neither the shared parser nor the --param append default keeps a=3.
    _, second, _ = run(capsys, "eval", "3a", "-n", "2")
    assert second.splitlines()[0] == "family 3a (Al-Salam-Chihara), q = 1/2, a=2 b=1/4"
    assert build_parser() is build_parser()


def test_eval_rejects_inadmissible_params(capsys):
    code, _, err = run(capsys, "eval", "3d", "--param", "b=0")
    assert code == 2
    assert "violates" in refusal(err)


def test_eval_refuses_a_recurrence_coefficient_whose_next_polynomial_is_undefined(capsys):
    # lowering(2) = 0 here, but eigenvalue(2) == eigenvalue(1) leaves u_2, and so a_1, undefined
    argv = ("eval", "1a", "-n", "1", "--param", "a=2", "--param", "b=1", "--param", "c=2", "--param", "d=1")
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: eigenvalue(2) == eigenvalue(1)\n")


def test_eval_unknown_family(capsys):
    code, _, err = run(capsys, "eval", "9z")
    assert code == 2
    assert "unknown family" in refusal(err)


def test_eval_respects_hard_cap(capsys, monkeypatch):
    code, _, err = run(capsys, "eval", "5a", "-n", "30")
    assert code == 2 and "hard cap" in refusal(err)
    monkeypatch.setenv("QSCHEME_HARD_CAP", "40")
    code, out, _ = run(capsys, "eval", "5a", "-n", "30")
    assert code == 0
    monkeypatch.setenv("QSCHEME_HARD_CAP", "oops")
    code, _, err = run(capsys, "eval", "5a", "-n", "3")
    assert code == 2 and "QSCHEME_HARD_CAP" in refusal(err)


def test_config_presets_parameters(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"q": "1/3", "families": {"3a": {"a": "3"}}}))
    code, out, _ = run(capsys, "--config", str(config), "eval", "3a", "-n", "1")
    assert code == 0
    assert "q = 1/3" in out and "a=3" in out
    # flags beat the config file
    code, out, _ = run(
        capsys, "--config", str(config), "eval", "3a", "-n", "1", "-q", "1/2"
    )
    assert code == 0 and "q = 1/2" in out


@pytest.mark.parametrize(
    "config, message",
    [
        (
            {"q": "1/3", "families": {"3A": {"a": "3"}}},
            "config names unknown family '3A'; `qscheme list` shows the registry",
        ),
        (
            {"q": "1/3", "family": {"3a": {"a": "3"}}},
            'unknown config key \'family\'; a config holds only "q" and "families"',
        ),
    ],
)
def test_config_keys_that_nothing_reads_are_refused(capsys, tmp_path, config, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = run(capsys, "--config", str(path), "eval", "3a")
    assert (code, out, refusal(err)) == (2, "", message)


@pytest.mark.parametrize(
    "config, message",
    [
        ({"q": "abc"}, "not a rational: 'abc'"),
        ({"families": {"3a": {"a": "1/0"}}}, "not a rational: '1/0' has a zero denominator"),
        ({"families": {"3a": {"zz": "1"}}}, "3a: unknown parameter 'zz'"),
    ],
    ids=["q", "value", "name"],
)
@pytest.mark.parametrize("argv", [["list"], ["graph"], ["verify", "constraints"], ["eval", "2a"]], ids=" ".join)
def test_every_command_refuses_a_malformed_config(capsys, tmp_path, config, message, argv):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = run(capsys, "--config", str(path), *argv)
    assert (code, out, refusal(err)) == (2, "", message)


@pytest.mark.parametrize(
    "config, message",
    [
        ({"q": None}, "not a rational: config q is a JSON null, not a string or a number"),
        ({"q": True}, "not a rational: config q is a JSON boolean, not a string or a number"),
        ({"q": [1, 2]}, "not a rational: config q is a JSON array, not a string or a number"),
        (
            {"families": {"3a": {"a": False}}},
            "not a rational: config 3a parameter a is a JSON boolean, not a string or a number",
        ),
        (
            {"families": {"3a": {"a": {"p": 1}}}},
            "not a rational: config 3a parameter a is a JSON object, not a string or a number",
        ),
        ({"q": 1}, "base q = 1 must avoid 0 and +/-1"),
        ({"q": "-1"}, "base q = -1 must avoid 0 and +/-1"),
        ({"q": 0}, "base q = 0 must avoid 0 and +/-1"),
        ({"q": "2/2"}, "base q = 1 must avoid 0 and +/-1"),
    ],
    ids=["q-null", "q-true", "q-array", "a-false", "a-object", "q-1", "q-minus-1", "q-0", "q-2/2"],
)
@pytest.mark.parametrize("argv", [["list"], ["graph"], ["verify", "constraints"], ["eval", "3a"]], ids=" ".join)
def test_every_command_gives_a_config_one_verdict(capsys, tmp_path, config, message, argv):
    """A config value that is no JSON string or number is refused by its
    type, and a base q of 0 or +/-1 by the text eval gave it, whatever the
    command: one verdict per config."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = run(capsys, "--config", str(path), *argv)
    assert (code, out, refusal(err)) == (2, "", message)


def test_a_config_number_reads_as_its_decimal(capsys, tmp_path):
    """JSON numbers are read through their decimal text: an integer and a
    float are both rationals, so a config q of 0.5 is q = 1/2."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"q": 0.5, "families": {"3a": {"a": 3}}}))
    code, out, _ = run(capsys, "--config", str(path), "eval", "3a", "-n", "1")
    assert code == 0 and "q = 1/2" in out and "a=3" in out


def test_config_must_be_valid_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run(capsys, "--config", str(bad), "list")
    assert code == 2 and "config" in refusal(err)


def test_list_json_matches_golden_file(capsys, tmp_path):
    target = tmp_path / "list.json"
    code, out, _ = run(capsys, "list", "--json", str(target))
    assert code == 0 and len(out.splitlines()) == 19
    assert target.read_bytes() == (DATA / "list.json").read_bytes()


def test_graph_dot_matches_golden_file(capsys, tmp_path):
    target = tmp_path / "scheme.dot"
    code, out, _ = run(capsys, "graph", "--format", "dot", "-o", str(target))
    assert code == 0
    assert "34 labeled nodes (+27 unlisted), 170 arrows" in out
    assert target.read_bytes() == GOLDEN_DOT.read_bytes()


@pytest.mark.parametrize("fmt", ["dot", "json"])
def test_graph_writes_text_to_a_text_only_stdout(fmt, tmp_path):
    """Without -o the graph goes through sys.stdout as text, so a stdout
    without a byte buffer gets the bytes -o writes."""
    target = tmp_path / f"scheme.{fmt}"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["graph", "--format", fmt, "-o", str(target)]) == 0
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["graph", "--format", fmt]) == 0
    assert out.getvalue().encode("ascii") == target.read_bytes()
    if fmt == "dot":
        assert out.getvalue() == GOLDEN_DOT.read_text(encoding="ascii")
    else:
        assert json.loads(out.getvalue())["counts"]["arrows"] == 170


def test_all_digits_without_an_int_digit_limit(monkeypatch):
    """On an interpreter without the int/str digit limit, `_all_digits`
    leaves the interpreter alone."""
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    monkeypatch.setattr(sys, "set_int_max_str_digits", None, raising=False)
    with cli._all_digits():
        pass


def test_graph_emission_is_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "graph", "--format", "json", "-o", str(a))
    run(capsys, "graph", "--format", "json", "-o", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_graph_json_round_trips(capsys, tmp_path):
    target = tmp_path / "scheme.json"
    run(capsys, "graph", "--format", "json", "-o", str(target))
    payload = json.loads(target.read_text())
    assert payload["counts"] == {"labeled": 34, "unlisted": 27, "arrows": 170}
    labels = {node["label"] for node in payload["nodes"]}
    assert {"1a", "3b'", "5c", "X-01"} <= labels
    assert ["1a", "2a"] in payload["arrows"]


def test_verify_charts_passes_with_warnings(capsys):
    code, out, _ = run(capsys, "verify", "charts")
    assert code == 0
    assert "[warn]" in out
    assert "35/35 checks passed" in out


def test_verify_all_matches_golden_bytes(capsys, tmp_path):
    target = tmp_path / "verify_all.json"
    code, out, _ = run(capsys, "verify", "all", "--json", str(target))
    assert code == 0
    assert out == GOLDEN_VERIFY_ALL_TXT.read_text(encoding="utf-8")
    assert target.read_bytes() == GOLDEN_VERIFY_ALL_JSON.read_bytes()


def test_verify_all_reports_a_refused_vector_in_its_own_checks(capsys, tmp_path, monkeypatch):
    """With 2b's defaults refused, `verify all` still prints every check and
    writes its report: the checks that build 2b fail with the refusal's
    message, the rest pass, and stderr stays empty."""
    refuse_2b(monkeypatch)
    target = tmp_path / "report.json"
    code, out, err = run(capsys, "verify", "all", "--json", str(target))
    assert (code, err) == (1, "")
    lines = out.splitlines()
    checks = [line for line in lines if line.startswith(("[pass] ", "[FAIL] "))]
    assert len(checks) == 184 and lines[-1] == "172/184 checks passed"
    assert [line for line in checks if line.startswith("[FAIL] ")] == [
        f"[FAIL] {name}  (2b: refused on purpose)" for name in CHECKS_BUILDING_2B
    ]
    report = json.loads(target.read_text())
    assert [c["name"] for r in report for c in r["checks"] if not c["pass"]] == list(CHECKS_BUILDING_2B)


def test_verify_constraints(capsys):
    code, out, _ = run(capsys, "verify", "constraints")
    assert code == 0
    assert "[pass] constraints/1a" in out


def test_verify_small_run_with_json_report(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "verify",
        "recurrence",
        "--n-max",
        "4",
        "--count",
        "3",
        "--json",
        str(target),
    )
    assert code == 0
    assert "seed = " in out
    payload = json.loads(target.read_text())
    assert payload[0]["suite"] == "recurrence"
    assert payload[0]["pass"] is True


def test_verify_unknown_suite_usage_error(capsys):
    code, out, err = run(capsys, "verify", "everything")
    assert code == 2 and out == ""
    suites = ", ".join(map(repr, verify.SUITES))
    assert refusal(err) == f"argument suite: invalid choice: 'everything' (choose from {suites})"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "recurrence", "--n-max", "-1"],
        ["verify", "recurrence", "--count", "-1"],
        ["verify", "limits", "--depth", "0"],
    ],
)
def test_verify_rejects_out_of_range_counts(capsys, argv):
    code, out, err = run(capsys, *argv)
    flag, value = argv[-2:]
    least = {"--n-max": 0, "--count": 0, "--depth": 1}[flag]
    assert (code, out, refusal(err)) == (2, "", f"{flag} must be >= {least}, got {value}")


@pytest.mark.parametrize(
    "hard_cap, argv, message",
    [
        (None, ["eval", "1a", "-n", "x"], "argument -n: invalid int value: 'x'"),
        (None, ["eval"], "the following arguments are required: family"),
        (None, ["verify", "all", "--bogus"], "unrecognized arguments: --bogus"),
        (None, ["eval", "1a", "-n", "-1"], "-n must be >= 0, got -1"),
        (None, ["eval", "1a", "-n", "99"], "-n 99 exceeds the hard cap 24 (QSCHEME_HARD_CAP)"),
        ("oops", ["list"], "QSCHEME_HARD_CAP must be an integer, got 'oops'"),
        ("oops", ["graph"], "QSCHEME_HARD_CAP must be an integer, got 'oops'"),
    ],
)
def test_every_refusal_is_one_error_line(capsys, monkeypatch, hard_cap, argv, message):
    """argparse's own refusals, the size bounds and a malformed hard cap all
    exit 2 with one stderr line and no usage block."""
    if hard_cap is None:
        monkeypatch.delenv("QSCHEME_HARD_CAP", raising=False)
    else:
        monkeypatch.setenv("QSCHEME_HARD_CAP", hard_cap)
    code, out, err = run(capsys, *argv)
    assert (code, out, refusal(err)) == (2, "", message)


@pytest.mark.parametrize("command", [[], ["list"], ["eval"], ["graph"], ["verify"]])
def test_help_still_exits_zero(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([*command, "-h"])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith(" ".join(["usage: qscheme", *command])) and err == ""


def test_verify_n_max_zero_checks_degree_zero_only(capsys, monkeypatch):
    from qscheme import verify
    from qscheme.core import UncheckedParameterVector

    checked = []

    def recording(pv, n):
        if not isinstance(pv, UncheckedParameterVector):
            checked.append(n)
        return real(pv, n)

    real = verify.recurrence_check
    monkeypatch.setattr(verify, "recurrence_check", recording)
    code, out, _ = run(capsys, "verify", "recurrence", "--n-max", "0")
    assert code == 0
    assert "48/48 checks passed" in out
    assert checked and set(checked) == {0}


# The last argument of a bad-input case -> the end of its one stderr line.
REFUSAL_CAUSES = {
    "1/0": "'1/0' has a zero denominator",
    "-q=1/0": "'1/0' has a zero denominator",
    "-q=1e-5": "'1e-5' has an exponent part",
    "-q=1e-999999999": "has an exponent part",
    "a=" + "7" * 5000: f"has more than {sys.get_int_max_str_digits()} digits",
    "--xs=2," + "7" * 4000 + "/" + "3" * 4400: f"has more than {sys.get_int_max_str_digits()} digits",
    "--xs=abc": "not a rational: 'abc'",
}


@pytest.mark.parametrize("text, key", [("1/0", "1/0"), ("1e-5", "-q=1e-5"), ("abc", "--xs=abc")])
def test_rational_refuses_text_as_the_cli_does(text, key):
    """rational(str) is the CLI's one text parser: its ValueError names the
    cause the CLI prints, a zero denominator included."""
    with pytest.raises(ValueError) as caught:
        rational(text)
    assert str(caught.value).endswith(REFUSAL_CAUSES[key])


@pytest.mark.parametrize(
    "text, message",
    [
        ("three", "not a rational: 'three'"),
        ("one", "not a rational: 'one'"),
        ("Eve", "not a rational: 'Eve'"),
        ("1e", "not a rational: '1e'"),
        ("e5", "not a rational: 'e5'"),
        ("1.5E-3", "not a rational: '1.5E-3' has an exponent part"),
        (".5e+2", "not a rational: '.5e+2' has an exponent part"),
        ("-1_0e5", "not a rational: '-1_0e5' has an exponent part"),
        ("2.e1", "not a rational: '2.e1' has an exponent part"),
    ],
)
def test_only_a_decimal_with_one_has_an_exponent_part(capsys, text, message):
    """A word holding an e is no exponent: the refusal names the text alone.
    Every decimal form Fraction would read with an exponent is still refused
    as one, before Fraction sees it."""
    with pytest.raises(ValueError) as caught:
        rational(text)
    assert str(caught.value) == message
    for argv in (["eval", "1a", f"-q={text}"], ["eval", "1a", "--param", f"a={text}"]):
        code, out, err = run(capsys, *argv)
        assert (code, out, refusal(err)) == (2, "", message)


@pytest.mark.parametrize(
    "config, argv",
    [
        (None, ["eval", "3a", "--xs=abc"]),
        (None, ["eval", "3a", "-q", "1/0"]),
        ({"families": {"3a": {"a": "two"}}}, ["eval", "3a"]),
        ({"families": []}, ["eval", "3a"]),
        (None, ["eval", "2b", "--param", "a=4", "--param", "b=2", "-n", "4"]),  # h_2 == h_0
        (None, ["eval", "2b", "--param", "a=-2", "--param", "b=-4", "-n", "1"]),  # a_1 needs h_2 == h_0
        # exponent parts, which Fraction would expand digit by digit
        (None, ["eval", "1a", "-n", "2", "-q=1e-999999999"]),
        (None, ["eval", "1a", "-n", "2", "-q=1e999999"]),
        (None, ["eval", "1a", "-n", "2", "--param", "a=1e99999"]),
        (None, ["eval", "1a", "--xs=2.5E-999999999"]),
        ({"families": {"3a": {"a": "1e-999999999"}}}, ["eval", "3a"]),
        # JSON integers past Python's 4300-digit int/str limit (raw config text)
        pytest.param('{"q": ' + "7" * 5000 + "}", ["eval", "3a"], id="config-q-5000-digits"),
        pytest.param(
            '{"families": {"3a": {"a": ' + "7" * 5000 + "}}}", ["eval", "3a"], id="config-a-5000-digits"
        ),
        # a refused rational names its cause (REFUSAL_CAUSES)
        pytest.param(None, ["eval", "1a", "-q=1e-5"], id="q-exponent-part"),
        pytest.param(None, ["eval", "1a", "-q=1/0"], id="q-zero-denominator"),
        pytest.param(None, ["eval", "1a", "--param", "a=" + "7" * 5000], id="param-a-5000-digits"),
        pytest.param(None, ["eval", "1a", "--xs=2," + "7" * 4000 + "/" + "3" * 4400], id="xs-4400-digits"),
    ],
)
def test_eval_bad_input_is_a_usage_error(capsys, tmp_path, config, argv):
    cause = REFUSAL_CAUSES.get(argv[-1])
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(config if isinstance(config, str) else json.dumps(config))
        argv = ["--config", str(path)] + argv
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 5
    assert code == 2 and out == ""
    assert refusal(err).endswith(cause or "")


def test_a_config_holding_a_json_array_is_refused(capsys, tmp_path):
    path = tmp_path / "config.json"
    path.write_text("[]")
    code, out, err = run(capsys, "--config", str(path), "list")
    assert (code, out, refusal(err)) == (2, "", "config file must hold a JSON object")


def test_a_param_without_a_value_is_refused(capsys):
    code, out, err = run(capsys, "eval", "3a", "--param", "a")
    assert (code, out, refusal(err)) == (2, "", "--param expects name=value, got 'a'")


def test_eval_prints_exact_results_past_the_digit_limit(capsys):
    """At q = 10**-30, u_24 of 5b has coefficients of more than 4300 digits,
    Python's default int/str limit: they print in full, and the limit is in
    place again afterwards."""
    q = "1/" + "1" + "0" * 30
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "eval", "5b", "-n", "24", f"-q={q}")
    assert code == 0 and err == ""
    assert sys.get_int_max_str_digits() == limit
    u = monic_poly(catalog.instantiate("5b", None, q), 24)
    sys.set_int_max_str_digits(0)
    try:
        expected = format_poly(u)
    finally:
        sys.set_int_max_str_digits(limit)
    assert max(abs(c).denominator for c in u.coeffs).bit_length() > 4300 * 3.32
    assert out.splitlines()[-1].startswith(f"24  {expected} ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "constraints", "--depth", "25"], "--depth 25 exceeds the hard cap 24"),
        (["verify", "recurrence", "--count", "1001"], "--count 1001 exceeds the cap 1000"),
    ],
)
def test_verify_caps_depth_and_count(capsys, monkeypatch, argv, message):
    monkeypatch.delenv("QSCHEME_HARD_CAP", raising=False)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert message in refusal(err)


@pytest.mark.parametrize(
    "argv",
    [
        ["list", "--json", "{missing}/list.json"],
        ["eval", "3a", "-n", "1", "--json", "{missing}/eval.json"],
        ["graph", "-o", "{missing}/scheme.dot"],
        ["verify", "constraints", "--json", "{missing}/report.json"],
        ["--config", "{latin1}", "list"],
    ],
)
def test_unwritable_output_or_undecodable_config_is_a_usage_error(capsys, tmp_path, argv):
    latin1 = tmp_path / "config.json"
    latin1.write_bytes('{"q": "1/3", "note": "Askey–Wilson"}'.encode("cp1252"))
    paths = {"missing": tmp_path / "no-such-dir", "latin1": latin1}
    code, _, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2
    assert refusal(err).startswith("cannot ")


def _never_called(*args, **kwargs):
    raise AssertionError("work started before the output path was checked")


@pytest.mark.parametrize(
    "argv, target",
    [
        (["verify", "charts"], "qscheme.verify.run_suite"),
        (["eval", "3a", "-n", "3"], "qscheme.cli.monic_table"),
    ],
    ids=["verify", "eval"],
)
def test_unwritable_json_fails_before_any_work(capsys, monkeypatch, tmp_path, argv, target):
    monkeypatch.setattr(target, _never_called)
    code, out, err = run(capsys, *argv, "--json", str(tmp_path / "no-such-dir" / "x.json"))
    assert code == 2 and out == ""
    assert refusal(err).startswith("cannot write ")


def test_eval_refuses_a_table_that_fails_its_top_row_check(capsys, monkeypatch, tmp_path):
    """A fault planted in a_2 spoils u_3..u_6 of the table, which the check
    against the Newton expansion refuses: nothing printed or written, one
    error line naming the mismatch, exit 1."""
    pair = core._recurrence_pair

    def planted(x, h, g, n):
        a_n, b_n = pair(x, h, g, n)
        return (a_n + 1 if n == 2 else a_n), b_n

    monkeypatch.setattr(core, "_recurrence_pair", planted)
    target = tmp_path / "e.json"
    code, out, err = run(capsys, "eval", "3a", "-n", "6", "--json", str(target))
    assert (code, out) == (1, "") and not target.exists()
    assert refusal(err) == "Mismatch: u_6 by the three-term recurrence differs from the Newton expansion"


@pytest.mark.parametrize("before", [None, b'{"kept": true}\n'], ids=["absent", "existing"])
def test_failed_eval_leaves_the_json_path_as_it_was(capsys, tmp_path, before):
    target = tmp_path / "e.json"
    if before is not None:
        target.write_bytes(before)
    # a_1 needs eigenvalue(2), which equals eigenvalue(0)
    argv = ["eval", "2b", "--param", "a=-2", "--param", "b=-4", "-n", "1", "--json", str(target)]
    code, out, _ = run(capsys, *argv)
    assert code == 2 and out == ""
    assert (target.read_bytes() if target.exists() else None) == before


@pytest.mark.parametrize("argv", [["eval", "3a", "-n", "0"], ["verify", "charts"]])
def test_negative_hard_cap_is_a_usage_error(capsys, monkeypatch, argv):
    monkeypatch.setenv("QSCHEME_HARD_CAP", "-3")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "QSCHEME_HARD_CAP must be >= 0" in refusal(err)


def test_a_negative_base_is_written_with_an_equals_sign(capsys):
    code, out, err = run(capsys, "eval", "1a", "-q=-1/2", "-n", "1")
    assert (code, err) == (0, "")
    assert out.splitlines()[0].startswith("family 1a (Askey-Wilson), q = -1/2, ")


def test_a_negative_base_after_a_space_is_read_as_an_option(capsys):
    """argparse reads -1/2 after `-q ` as an option, so -q has no value."""
    code, out, err = run(capsys, "eval", "1a", "-q", "-1/2")
    assert (code, out, refusal(err)) == (2, "", "argument -q: expected one argument")


def qscheme_into(stdout, *argv) -> subprocess.Popen:
    """`python -m qscheme argv` started with its stdout on the pipe end
    `stdout` and its stderr captured."""
    return subprocess.Popen(
        [sys.executable, "-m", "qscheme", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )


@pytest.mark.parametrize("argv", [["verify", "charts"], ["graph", "--format", "json"]])
def test_a_pipe_closed_before_any_output_ends_the_command_quietly(argv):
    """As `| head -c 0`: the reader is gone before the first write, so every
    write fails, and the command exits CLOSED_PIPE with nothing on stderr."""
    read, write = os.pipe()
    os.close(read)
    try:
        proc = qscheme_into(write, *argv)
    finally:
        os.close(write)
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (cli.CLOSED_PIPE, b"")


@pytest.mark.parametrize("argv", [["verify", "charts"], ["graph", "--format", "json"]])
def test_a_pipe_closed_after_one_line_ends_the_command_quietly(argv):
    """As `| head -1`: the reader takes one line and closes.  Whether the
    rest was already written decides the exit status, 0 or CLOSED_PIPE;
    stderr stays empty either way."""
    proc = qscheme_into(subprocess.PIPE, *argv)
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) in (0, cli.CLOSED_PIPE) and err == b""


# The grammar of the property test below: each piece of a draw is valid,
# or, less often, one of the refusals the CLI must turn into one `error:`
# line.
GOOD_RATIONALS = ["1/2", "-2/3", "5/2", "3", "-7/5", "0.25", " 4/9 "]
BAD_RATIONALS = ["abc", "three", "one", "1/0", "1e5", "2.5E-3", "", "1//2", "1" * 5000, "0", "1", "-1", "2/2"]
JSON_TYPES = [None, True, False, [], [1], {}, {"a": 1}]


def draw_config(rng, tmp_path, i: int) -> str:
    """The path of a config file: a valid config, one holding a JSON type
    or text that is no rational in one slot, one with an unknown name, or a
    file that is missing or no JSON.  It never names family 1a, which the
    verdict check evaluates."""
    key = rng.choice([key for key in catalog.FAMILIES if key != "1a" and catalog.FAMILIES[key].defaults])
    name = rng.choice(list(catalog.FAMILIES[key].defaults))
    good = rng.choice(GOOD_RATIONALS + [3, -2, 0.5, "0"])  # "0": a parameter instantiate refuses, a q load_config does
    bad = rng.choice(JSON_TYPES + BAD_RATIONALS[:-4] + [0, 1, -1, 1.0])
    path = tmp_path / f"config{i}.json"
    fault = rng.randrange(6)
    if fault == 0:
        return str(tmp_path / "missing.json")
    if fault == 1:
        path.write_text(rng.choice(["{", "q = 1/2", ""]))
        return str(path)
    config = rng.choice([
        {},
        {"q": good},
        {"families": {key: {name: good}}},
        {"q": good, "families": {key: {name: good}}},
        {"q": good, "families": {key: {}}},
        bad,
        {"q": bad},
        {"families": bad},
        {"families": {key: bad}},
        {"families": {key: {name: bad}}},
        {"families": {rng.choice(["9z", "1A"]): {}}, rng.choice(["zz", "Q"]): good},
    ])
    path.write_text(json.dumps(config))
    return str(path)


def draw_argv(rng, tmp_path, i: int) -> list[str]:
    """One command line for list, graph, eval or verify.  A run that the
    CLI accepts builds at most degree 3, or is verify constraints or charts;
    any other suite is drawn only with a size flag out of range."""

    def wrong(p: float = 0.08) -> bool:
        return rng.random() < p

    def rational_text() -> str:
        return rng.choice(BAD_RATIONALS if wrong() else GOOD_RATIONALS)

    def json_path(flag: str = "--json") -> list[str]:
        if rng.random() < 0.7:
            return []
        return [flag, str(tmp_path / (f"missing/out{i}" if wrong(0.2) else f"out{i}"))]

    argv = ["--config", draw_config(rng, tmp_path, i)] if wrong(0.25) else []
    command = rng.choice(["list", "graph", "eval", "verify"])
    argv.append(command)
    if command == "list":
        argv += ["--node", rng.choice(["4d", "1a", "zz"])] if rng.random() < 0.5 else []
        argv += json_path()
    elif command == "graph":
        argv += ["--format", "svg" if wrong() else rng.choice(["dot", "json"])] if rng.random() < 0.5 else []
        argv += json_path("-o")
    elif command == "eval":
        family = rng.choice(["9z", "1A"]) if wrong(0.05) else rng.choice(list(catalog.FAMILIES))
        argv.append(family)
        n = rng.choice([-1, 25, 99, "x", "1" * 5000]) if wrong() else rng.randrange(4)
        argv += ["-n", str(n)]
        argv += [f"-q={rational_text()}"] if rng.random() < 0.6 else []
        names = list(catalog.FAMILIES[family].defaults) if family in catalog.FAMILIES else []
        for _ in range(rng.randrange(3) if names or wrong(0.2) else 0):
            name = rng.choice(["zz", ""]) if wrong(0.05) or not names else rng.choice(names)
            argv += ["--param", name if wrong(0.05) else f"{name}={rational_text()}"]
        argv += ["--xs=" + ",".join(rational_text() for _ in range(rng.randrange(1, 3)))] if rng.random() < 0.3 else []
        argv += json_path()
    else:
        suites = ["constraints", "charts"] if rng.random() < 0.6 else [
            "recurrence", "eigen", "duality", "catalog", "limits", "symmetry", "all"]
        suite = "nosuch" if wrong(0.05) else rng.choice(suites)
        argv.append(suite)
        flags = {"--n-max": [0, 3], "--depth": [1, 3], "--count": [0, 5], "--seed": [7, -3]}
        bad = {"--n-max": [-1, 25], "--depth": [0, 25], "--count": [-1, 1001], "--seed": ["x"]}
        heavy = rng.choice(["--n-max", "--depth", "--count"]) if suite not in ("constraints", "charts") else None
        for flag in flags:
            if flag == heavy or wrong(0.05):
                argv += [flag, str(rng.choice(bad[flag]))]
            elif rng.random() < 0.3:
                argv += [flag, str(rng.choice(flags[flag]))]
        argv += json_path()
    return argv


def test_random_command_lines_exit_0_or_2_with_one_error_line(capsys, tmp_path, monkeypatch):
    """Seeded command lines for every command, valid and malformed: each
    exits 0 with nothing on stderr or 2 with one `error:` line, and no
    exception leaves main; an exponent part is named only for a text with
    digits.  Every drawn config gets one verdict from list, graph, verify
    constraints and eval."""
    monkeypatch.delenv("QSCHEME_HARD_CAP", raising=False)
    rng = random.Random(2024)
    codes = []
    for i in range(300):
        argv = draw_argv(rng, tmp_path, i)
        code, _, err = run(capsys, *argv)
        codes.append(code)
        assert code in (0, 2), (argv, code, err)
        if code == 0:
            assert err == "", (argv, err)
        elif "has an exponent part" in (message := refusal(err)):
            assert re.search(r"'[^']*\d[^']*' has an exponent part", message), (argv, message)
    assert 100 < codes.count(0) < 200, codes.count(0)  # both outcomes drawn often
    commands = (["list"], ["graph"], ["verify", "constraints"], ["eval", "1a", "-n", "2"])
    verdicts = []
    for i in range(60):
        path = draw_config(rng, tmp_path, 1000 + i)
        results = set()
        for argv in commands:
            code, _, err = run(capsys, "--config", path, *argv)
            assert code in (0, 2) and (err == "" if code == 0 else refusal(err)), (path, argv, code, err)
            results.add((code, err))
        assert len(results) == 1, (Path(path).read_text() if Path(path).exists() else path, results)
        verdicts += [code for code, _ in results]
    assert 15 < verdicts.count(0) < 45, verdicts.count(0)
